"""Scenario files: INI-style configuration for runs and sweeps.

Every key is optional and falls back to the library default; unknown sections
or keys are rejected so typos cannot silently change an experiment. The
accepted keys and their types come from the config dataclasses' fields. The
[sweep] section lists seeds and strategy names for the sweep subcommand.
"""

from __future__ import annotations

import configparser
import copy
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .engine import STRATEGIES, ConfigError, MovementParams, SimulationConfig
from .notify import NotifyParams
from .threat import TrafficConfig
from .topology import NodeRole, TopologyConfig
from .trails import TrailParams


@dataclass
class Scenario:
    config: SimulationConfig
    sweep_seeds: list[int] = field(default_factory=list)
    sweep_strategies: list[str] = field(default_factory=list)
    out_dir: str | None = None

    def config_for(self, strategy_name: str, seed: int) -> SimulationConfig:
        """A fresh config with the strategy and seed swapped in."""
        fresh = copy.deepcopy(self.config)
        fresh.strategy = strategy_name
        fresh.seed = seed
        return fresh


def _field_types(cls: type) -> dict[str, str]:
    return {f.name: f.type for f in fields(cls)}


# Sections that fill one parameter dataclass: section -> (config attribute, class).
_PARAMS = {
    "topology": ("topology", TopologyConfig),
    "movement": ("movement", MovementParams),
    "trails": ("trail_params", TrailParams),
    "notify": ("notify_params", NotifyParams),
    "traffic": ("traffic", TrafficConfig),
}
# SimulationConfig fields that a section sets directly.
_DIRECT = {
    "cells": (
        "cell_types",
        "packet_checkers_per_type",
        "node_checkers_per_type",
        "security_value",
        "start_fragment",
    ),
    "security": ("min_security",),
    "trails": ("bridge_fallback", "bridge_decay_step"),
    "run": ("strategy", "duration", "seed", "coverage_window"),
}
# Scenario fields: section -> {key: attribute}.
_SCENARIO = {
    "sweep": {"seeds": "sweep_seeds", "strategies": "sweep_strategies"},
    "output": {"out_dir": "out_dir"},
}
_ROLE_KEYS = {f"min_security_{role.value}": role for role in NodeRole}


def _key_types() -> dict[str, dict[str, str]]:
    """Each accepted section and key, with the annotation its value parses by."""
    config_types, scenario_types = _field_types(SimulationConfig), _field_types(Scenario)
    types = {section: _field_types(cls) for section, (_, cls) in _PARAMS.items()}
    for section, names in _DIRECT.items():
        types.setdefault(section, {}).update((name, config_types[name]) for name in names)
    types["security"].update(dict.fromkeys(_ROLE_KEYS, config_types["min_security"]))
    for section, attrs in _SCENARIO.items():
        types[section] = {key: scenario_types[attr] for key, attr in attrs.items()}
    return types


_KEY_TYPES = _key_types()


def _parse_value(kind: str, raw: str) -> object:
    """Parse one value by its field's annotation, e.g. "float | None" or "list[int]"."""
    kind = kind.removesuffix(" | None")
    if kind.startswith("list["):
        return [_parse_value(kind[5:-1], token) for token in raw.split()]
    if kind == "int":
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        return value
    if kind == "bool":
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None
    return raw.strip()


def load_dict(sections: dict[str, dict[str, str]]) -> Scenario:
    """Build a Scenario from already-split section/key/value strings."""
    config = SimulationConfig()
    scenario = Scenario(config=config)
    params: dict[str, dict[str, object]] = {section: {} for section in _PARAMS}
    for section, entries in sections.items():
        if section not in _KEY_TYPES:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in entries.items():
            if key not in _KEY_TYPES[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            try:
                value = _parse_value(_KEY_TYPES[section][key], raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
            if key in _DIRECT.get(section, ()):
                setattr(config, key, value)
            elif key in _ROLE_KEYS:
                config.min_security_by_role[_ROLE_KEYS[key]] = value
            elif section in _SCENARIO:
                setattr(scenario, _SCENARIO[section][key], value)
            else:
                params[section][key] = value
    for section, (attr, cls) in _PARAMS.items():
        setattr(config, attr, cls(**params[section]))
    config.validate()
    # A scenario always runs on its generated topology, so its fragments are known here.
    fragments = config.topology.fragment_count
    if config.start_fragment is not None and not 0 <= config.start_fragment < fragments:
        raise ConfigError(f"start_fragment: must lie in [0, {fragments}), got {config.start_fragment}")

    scenario.sweep_seeds = scenario.sweep_seeds or [config.seed]
    scenario.sweep_strategies = scenario.sweep_strategies or [config.strategy]
    for name in scenario.sweep_strategies:
        if name not in STRATEGIES:
            raise ConfigError(f"sweep.strategies: unknown strategy {name!r}")
    if any(seed < 0 for seed in scenario.sweep_seeds):
        raise ConfigError("sweep.seeds: seeds must be non-negative")
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from exc
    if not read:
        raise FileNotFoundError(path)
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    return load_dict(sections)
