"""sentinet benchmark: steps per second per strategy, set-up, report, memory.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                     # every workload, seed 1, untraced

Run from the root of a source checkout; the program is imported from its
`src/` directory and the workloads are built from `scenarios/reference.ini`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones from traced
rounds, plus the tracing overhead. Each run also writes its environment,
per-round figures and any check failures to `perfbench/out/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
DEFAULT_SECONDS = 40


def import_program() -> None:
    """Put the checkout's `src/` first on the path; refuse any other copy."""
    package = ROOT / "src" / "sentinet"
    reference = ROOT / "scenarios" / "reference.ini"
    if not (package / "__init__.py").is_file() or not reference.is_file():
        sys.exit(f"error: {ROOT} is not a sentinet checkout (need src/sentinet and {reference.name})")
    sys.path.insert(0, str(ROOT / "src"))
    import sentinet

    if Path(sentinet.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported sentinet from {sentinet.__file__}, not from {package}")


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy as np

    from harness import END_TO_END_UNITS, Bench, check_determinism, run_rounds, summarize
    from workloads import STRATEGIES, WORKLOADS

    workload = WORKLOADS[workload_name]
    env = environment()
    out_dir = HERE / "out" / workload.name
    bench = Bench(workload, seed, ROOT, out_dir)
    rounds, spans, span_names = run_rounds(bench, seconds, trace)
    check_determinism(rounds)
    summary = summarize(rounds)

    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in summary["per_layer"].items()}
        columns = {
            key: np.concatenate([s[key] for s in spans]) for key in spans[0]
        }
        columns["round"] = np.concatenate(
            [np.full(len(s["name"]), i, dtype=np.int16) for i, s in enumerate(spans)]
        )
        np.savez_compressed(
            out_dir / "spans.npz",
            names=np.array(span_names),
            strategies=np.array(STRATEGIES),
            **columns,
        )
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in summary["end_to_end"].items()}
    record = {
        "env": env,
        "workload": {
            "name": workload.name,
            "why": workload.why,
            "overrides": {f"{s}.{k}": v for (s, k), v in workload.overrides.items()},
            "duration": workload.duration,
        },
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": [
            {
                "traced": r.traced,
                "warmup": r.warmup,
                "setup_s": r.setup_s,
                "steps_per_s": r.steps_per_s,
                "report_s": r.report_s,
                "total_s": r.total_s,
                "wall_s": r.wall_s,
                "host_factor": r.host_factor,
            }
            for r in rounds
        ],
        **summary,
    }
    (out_dir / f"result-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    traced_rounds = sum(r.traced for r in rounds)
    print(
        f"workload {workload.name}: seed {seed}, {workload.duration} steps per strategy run, "
        f"1 warm-up + {len(rounds) - traced_rounds - 1} untraced + {traced_rounds} traced rounds"
    )
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  strategy runs attempted {summary['attempted']}, failed {summary['failed']}")
    for failure in summary["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is its own."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
