"""The benchmark harness's own smoke test runs against this tree.

It steps every workload at tiny size, traced and untraced, so a change that
breaks the harness (for example by removing a method it wraps) fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
