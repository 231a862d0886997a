"""Golden outputs: the bytes of summary.json and timeseries.csv are pinned.

Each digest is the sha256 of summary.json followed by timeseries.csv for one
strategy on one shipped scenario, run for 80 steps at seed 3. A change that
moves any digest changes what a run writes, and must say why.

Two more shapes pin paths the shipped scenarios barely reach, as
`scenarios/reference.ini` plus overrides: `scaled` (4000 nodes, 1740 packet
checkers per type, 20 steps) moves about 100k packet checkers a step, and
`patrol` (no packet checkers, 10 node checkers per type, zero security, 80
steps) gives every trail move repeated (node, type) keys.
"""

import configparser
import hashlib
from pathlib import Path

import pytest

from sentinet import Engine
from sentinet.scenario import load_dict, load_scenario

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
DURATION = 80

GOLDEN = {
    ("reference", "uninformed"):
        "90140be17e8d9b4b2685e7a7e64c18ca2aafa04d8bf8910c513cda1acc3689bd",
    ("reference", "notification"):
        "fe99b4e9032fe89fe8da9bde2eadc9ffc04bb69baddfba974f0be45c39aa02d8",
    ("reference", "trails"):
        "10439c4d3d310f4f06877873d9c5fdaf0aeddf9cf28b01b5780e3460adfd3098",
    ("reference", "protocols"):
        "31f7d5a8ea101874f55f12c49394f2e86b216d0f625d818f5fc178cc4166c2bb",
    ("reference", "centralized"):
        "3b5e80c4dc0d6a2b462d4092a6b1095f1590fcbe8e58b01e5f323a8469ce1ae5",
    ("fragmented", "uninformed"):
        "76af25ade1328dba1b8f45e8827b01ada3dda017c45962f517df4fb873bc02f4",
    ("fragmented", "notification"):
        "6dfcac070c5c8c0df45d26fa0da2ac1c03c30a3aee5038725ea7f1f183c09539",
    ("fragmented", "trails"):
        "97de469daf96f1ae7656939217c6e2724c40469b44c3467ad44a40122f14a112",
    ("fragmented", "protocols"):
        "c4c86abb2da041d7afd2a617184a59715d25fdabc6222ffe6f52776b11aecf4b",
    ("fragmented", "centralized"):
        "4e5ce2fb68bd5abc0172b8c16d8383661c43ffac47ef443e7fca1b76bb206ca7",
}


_ZERO_SECURITY = {
    ("security", key): "0"
    for key in ("min_security", "min_security_workstation", "min_security_server",
                "min_security_router", "min_security_gateway")
}
# shape -> (overrides of scenarios/reference.ini, duration)
SHAPES = {
    "scaled": ({("topology", "node_count"): "4000", ("cells", "packet_checkers_per_type"): "1740"}, 20),
    "patrol": (
        {("cells", "packet_checkers_per_type"): "0", ("cells", "node_checkers_per_type"): "10", **_ZERO_SECURITY},
        80,
    ),
}

GOLDEN_SHAPES = {
    ("scaled", "uninformed"):
        "0e41a1898d681692ae4ad7612e9ea3b4de28cb350272997b9c548012a0a6132f",
    ("scaled", "notification"):
        "6fa3be0b3fcbca4556663e89ec137d8942902aac7e5a179ea06a3568f9fbd916",
    ("scaled", "trails"):
        "a7fea6f1dd77a44878f0a9129fc7eb550755eb725262533a6d6bcb3edfce4c75",
    ("scaled", "protocols"):
        "4553f0c01c68dabbfca50c012e678e3708ebbc7bfad775532d6430eca28b1ed9",
    ("scaled", "centralized"):
        "928ee5a321ab2abfc4e2414b7fbba2ef3bd72d8072ce6838ce40e4cd50cc70c4",
    ("patrol", "uninformed"):
        "4fac1155e81e680d2121f6663b5bb7199a70a929d47ff590f34efc671b0f4056",
    ("patrol", "notification"):
        "b0c19aef35f425c9fa9cb2a86f9388213f31c2bd974a0e3277c26b457a647b65",
    ("patrol", "trails"):
        "83d551ba1efd21b6f6dd455f17c600f74b0ffe5a527b3b2f228589c1a2c2432b",
    ("patrol", "protocols"):
        "d0657da7235cc1ff87f39c4991a109af5b84c6b46d3370d691dd16fab098624d",
    ("patrol", "centralized"):
        "924b9a7e64f20d6d757890584b80d5689c45455208ea104b94acc51837c1bdd7",
}


def run_digest(config, duration: int, out_dir: Path) -> str:
    config.duration = duration
    report = Engine(config).run()
    report.write_json(out_dir / "summary.json")
    report.write_csv(out_dir / "timeseries.csv")
    digest = hashlib.sha256()
    for name in ("summary.json", "timeseries.csv"):
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def output_digest(scenario_name: str, strategy: str, out_dir: Path) -> str:
    scenario = load_scenario(ROOT / "scenarios" / f"{scenario_name}.ini")
    return run_digest(scenario.config_for(strategy, SEED), DURATION, out_dir)


def shape_digest(shape: str, strategy: str, out_dir: Path) -> str:
    overrides, duration = SHAPES[shape]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(ROOT / "scenarios" / "reference.ini", encoding="utf-8")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    for (section, key), value in overrides.items():
        sections[section][key] = value
    return run_digest(load_dict(sections).config_for(strategy, SEED), duration, out_dir)


@pytest.mark.parametrize("scenario_name,strategy", sorted(GOLDEN))
def test_output_bytes_are_pinned(scenario_name, strategy, tmp_path):
    assert output_digest(scenario_name, strategy, tmp_path) == GOLDEN[(scenario_name, strategy)]


@pytest.mark.parametrize("shape,strategy", sorted(GOLDEN_SHAPES))
def test_shape_bytes_are_pinned(shape, strategy, tmp_path):
    assert shape_digest(shape, strategy, tmp_path) == GOLDEN_SHAPES[(shape, strategy)]
