"""Benchmark workloads: the shipped reference scenario plus overrides.

Each workload is `scenarios/reference.ini` with a few keys replaced, the run
length set, and `[run] seed` set to the benchmark's `--seed`. The topology has
no seed of its own in that file, so the seed also picks the network. The
program only ever sees the scenario file written from these sections.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

STRATEGIES = ("uninformed", "notification", "trails", "protocols", "centralized")

_ZERO_SECURITY = {
    ("security", key): "0"
    for key in (
        "min_security",
        "min_security_workstation",
        "min_security_server",
        "min_security_router",
        "min_security_gateway",
    )
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (section, key) -> value, applied on top of scenarios/reference.ini.
    overrides: dict[tuple[str, str], str]
    duration: int
    # The paper's headline claim; only asserted where the scenario has the
    # shortfalls and packet checkers that the claim is about.
    notification_beats_uninformed: bool = False

    def sections(self, reference_ini: Path, seed: int) -> dict[str, dict[str, str]]:
        parser = configparser.ConfigParser(interpolation=None)
        if not parser.read(reference_ini, encoding="utf-8"):
            raise FileNotFoundError(reference_ini)
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
        overrides = {
            **self.overrides,
            ("run", "duration"): str(self.duration),
            ("run", "seed"): str(seed),
        }
        for (section, key), value in overrides.items():
            sections.setdefault(section, {})[key] = value
        return sections


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference",
            "the paper's comparison setting cut to 300 steps: relay and centralized assignment dominate; paths still warming, about half the steps run a BFS",
            {},
            duration=300,
            notification_beats_uninformed=True,
        ),
        Workload(
            "scaled-4k",
            "20x the nodes and cells: array work over 104k packet checkers, trail fade and one BFS per new destination",
            {
                ("topology", "node_count"): "4000",
                ("cells", "packet_checkers_per_type"): "1740",
            },
            duration=30,
        ),
        Workload(
            "patrol",
            "600 node checkers and no packet checkers: the trail roulette dominates, relay and rebalancing idle",
            {
                ("cells", "packet_checkers_per_type"): "0",
                ("cells", "node_checkers_per_type"): "10",
                **_ZERO_SECURITY,
            },
            duration=150,
        ),
    )
}


def write_scenario(sections: dict[str, dict[str, str]], path: Path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
