"""Every demo runs to completion; demo 02's wavefront matches hop distance."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    if demo.stem == "02_notification_wavefront":
        steps = [line for line in result.stdout.splitlines() if line.strip().startswith("step ")]
        assert steps and all(line.endswith(": True)") for line in steps)
