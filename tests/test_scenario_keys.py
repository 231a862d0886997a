"""Every scenario key, one row each: bad values fail naming the key.

The table is also the list of accepted (section, key) pairs, so adding or
dropping a key shows up here. A value fails either when the file is loaded or
when the Engine is built from it; both count as rejecting the config.
"""

import pytest

from sentinet import Engine
from sentinet.cli import main
from sentinet.engine import ConfigError
from sentinet.scenario import _KEY_TYPES, load_scenario

BASE = {
    "topology": {"node_count": "12", "seed": "2"},
    "cells": {"cell_types": "2", "packet_checkers_per_type": "2"},
    "security": {"min_security": "1"},
    "run": {"duration": "5"},
}

# (section, key, bad values). Every numeric key also gets a non-number, and
# every float key nan and inf, added by `bad_values`; listed here are the
# out-of-range values, and the bad words for bool and str keys.
ROWS = [
    ("topology", "node_count", ["-1"]),
    ("topology", "fragment_count", ["-1"]),
    ("topology", "bridges_per_fragment_pair", []),
    ("topology", "workstation_fraction", ["-0.1"]),
    ("topology", "server_fraction", ["-0.1"]),
    ("topology", "router_fraction", ["-0.1"]),
    ("topology", "backbone_redundancy", ["-1"]),
    ("topology", "seed", ["-1"]),
    ("cells", "cell_types", ["-1"]),
    ("cells", "packet_checkers_per_type", ["-1"]),
    ("cells", "node_checkers_per_type", ["-1"]),
    ("cells", "security_value", ["-1"]),
    ("cells", "start_fragment", ["-1"]),
    ("security", "min_security", ["-1"]),
    ("security", "min_security_workstation", ["-1"]),
    ("security", "min_security_server", ["-1"]),
    ("security", "min_security_router", ["-1"]),
    ("security", "min_security_gateway", ["-1"]),
    ("movement", "base_probability", ["-0.1"]),
    ("movement", "gain", ["-1"]),
    ("movement", "max_probability", ["-0.1"]),
    ("trails", "increase_base", ["-1"]),
    ("trails", "increase_scale", ["-1"]),
    ("trails", "decay_step", ["-1"]),
    ("trails", "value_cap", ["-1"]),
    ("trails", "exponent_cap", ["-1"]),
    ("trails", "bridge_fallback", ["maybe"]),
    ("trails", "bridge_decay_step", ["-1"]),
    ("notify", "forward_threshold", ["-3"]),
    ("notify", "own_emission_wins", ["maybe"]),
    ("traffic", "packets_per_step", ["-1"]),
    ("traffic", "infection_probability", ["-0.1"]),
    ("traffic", "internal_attack_rate", ["-1"]),
    ("traffic", "infections_per_step", ["-1"]),
    ("run", "strategy", ["bogus", "Protocols"]),
    ("run", "duration", ["-1"]),
    ("run", "seed", ["-1"]),
    ("run", "coverage_window", ["-1"]),
    ("sweep", "seeds", ["1 x", "-1"]),
    ("sweep", "strategies", ["uninformed bogus"]),
    ("output", "out_dir", []),
]


def bad_values(section, key, extra):
    kind = _KEY_TYPES[section][key]
    values = list(extra)
    if "int" in kind or "float" in kind:
        values.append("x")
    if "int" in kind:
        values.append("2.5")
    if "float" in kind:
        values += ["nan", "inf", "-inf"]
    return values


def write_ini(path, sections):
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_and_build(path):
    Engine(load_scenario(path).config)


def test_table_pins_the_accepted_keys():
    accepted = {(section, key) for section, keys in _KEY_TYPES.items() for key in keys}
    assert {(section, key) for section, key, _ in ROWS} == accepted
    assert len(accepted) == 41


def test_base_scenario_is_valid(tmp_path):
    load_and_build(write_ini(tmp_path / "base.ini", BASE))


@pytest.mark.parametrize(
    "section,key,value",
    [(s, k, v) for s, k, extra in ROWS for v in bad_values(s, k, extra)],
)
def test_bad_value_names_its_key(tmp_path, section, key, value):
    sections = {name: dict(entries) for name, entries in BASE.items()}
    sections.setdefault(section, {})[key] = value
    path = write_ini(tmp_path / "bad.ini", sections)
    with pytest.raises(ConfigError, match=key):
        load_and_build(path)


@pytest.mark.parametrize(
    "text",
    [
        "node_count = 12\n",
        "[run]\nduration = 5\n[run]\nseed = 2\n",
        "[run]\nduration = 5\nduration = 6\n",
    ],
    ids=["no-section-header", "duplicate-section", "duplicate-key"],
)
def test_malformed_ini_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "malformed.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_scenario(path)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_internal_value_error_is_not_reported_as_config_error(tmp_path, monkeypatch):
    def broken(path):
        raise ValueError("internal fault")

    monkeypatch.setattr("sentinet.cli.load_scenario", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["validate", str(write_ini(tmp_path / "base.ini", BASE))])
