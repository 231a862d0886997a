"""Golden outputs: the bytes of summary.json and timeseries.csv are pinned.

Each digest is the sha256 of summary.json followed by timeseries.csv for one
strategy on one shipped scenario, run for 80 steps at seed 3. A change that
moves any digest changes what a run writes, and must say why.
"""

import hashlib
from pathlib import Path

import pytest

from sentinet import Engine
from sentinet.scenario import load_scenario

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


def output_digest(scenario_name: str, strategy: str, out_dir: Path) -> str:
    scenario = load_scenario(ROOT / "scenarios" / f"{scenario_name}.ini")
    config = scenario.config_for(strategy, SEED)
    config.duration = DURATION
    report = Engine(config).run()
    report.write_json(out_dir / "summary.json")
    report.write_csv(out_dir / "timeseries.csv")
    digest = hashlib.sha256()
    for name in ("summary.json", "timeseries.csv"):
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("scenario_name,strategy", sorted(GOLDEN))
def test_output_bytes_are_pinned(scenario_name, strategy, tmp_path):
    assert output_digest(scenario_name, strategy, tmp_path) == GOLDEN[(scenario_name, strategy)]
