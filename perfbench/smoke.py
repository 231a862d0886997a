"""Smoke test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

Not part of the test suite: the file name keeps pytest from collecting it.
It runs every workload shrunk to 40 or 80 nodes and 20 steps, traced and
untraced, and checks that the checks pass, that the metric names and units
match BENCHMARK.json, that the harness's split of `Engine.run()` writes the
same bytes as `Engine.run()` itself, that the checks do catch broken output,
and that the benchmark refuses to run without the program next to it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, import_program, unit_of

import_program()

from checks import TopologyFacts, check_run  # noqa: E402
from harness import (  # noqa: E402
    END_TO_END_UNITS,
    Bench,
    check_determinism,
    output_digest,
    run_rounds,
    summarize,
)
from workloads import STRATEGIES, WORKLOADS  # noqa: E402

import sentinet.engine as engine_mod  # noqa: E402
import sentinet.scenario as scenario_mod  # noqa: E402

TINY = {
    ("topology", "node_count"): "40",
    ("cells", "cell_types"): "6",
    ("cells", "packet_checkers_per_type"): "180",
}


def tiny(workload):
    overrides = {**TINY, **workload.overrides}
    if workload.name == "scaled-4k":
        overrides.update({("topology", "node_count"): "80", ("cells", "packet_checkers_per_type"): "360"})
    return dataclasses.replace(workload, overrides=overrides, duration=20)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec["paths"]) == {HERE.name}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in WORKLOADS.values():
        small = tiny(workload)
        bench = Bench(small, seed=3, root=ROOT, out_dir=HERE / "out" / "smoke" / small.name)
        rounds, spans, _ = run_rounds(bench, seconds=0, trace=True)
        check_determinism(rounds)
        summary = summarize(rounds)
        assert summary["failed"] == 0, summary["failures"]
        assert summary["attempted"] == 5 * len(STRATEGIES) and rounds[0].warmup
        assert list(summary["end_to_end"]) == list(END_TO_END_UNITS)
        assert all(v > 0 for v in summary["end_to_end"].values()), summary["end_to_end"]
        assert {k: unit_of(k) for k in summary["per_layer"]} == per_layer
        assert len(spans) == 2 and len(spans[0]["name"]) == summary["per_layer"]["trace.spans"]
        layers = summary["per_layer"]
        if workload.name == "patrol":
            for key in ("engine.plan_rebalance_calls", "engine.rebalance_cells", "engine.notification_packets"):
                assert layers[key] == 0, (key, layers[key])
        else:
            assert layers["engine.rebalance_cells"] > 0 and layers["engine.notification_packets"] > 0

        for strategy in STRATEGIES:
            scenario = scenario_mod.load_scenario(bench.scenario_path)
            config = scenario.config_for(strategy, bench.seed)
            report = engine_mod.Engine(config).run()
            with tempfile.TemporaryDirectory(dir=bench.out_dir) as tmp:
                report.write_json(Path(tmp) / "summary.json")
                report.write_csv(Path(tmp) / "timeseries.csv")
                digest = output_digest(Path(tmp))
            assert digest == rounds[0].digests[strategy], (workload.name, strategy)
        print(f"ok: {workload.name} at tiny size, traced and untraced")

    # The checks must reject broken output, not just pass good output.
    bench = Bench(tiny(WORKLOADS["reference"]), seed=3, root=ROOT, out_dir=HERE / "out" / "smoke" / "broken")
    config = scenario_mod.load_scenario(bench.scenario_path).config_for("centralized", bench.seed)
    engine = engine_mod.Engine(config)
    report = engine.run()
    facts = TopologyFacts(engine.topology)
    assert check_run("centralized", engine, report, bench.expected, facts) == []
    report.entity_counts[3, 0] += 1
    report.max_link_load = 2
    report.infections_active += 1
    engine.loc[: bench.expected.n_pc] = facts.gateway
    plans = [[(0, 1, 1)]]
    failures = check_run("centralized", engine, report, bench.expected, facts, plans)
    assert len(failures) == 5, failures
    print("ok: checks reject broken output")

    # Next to BENCHMARK.json and the benchmark's own files only, the benchmark
    # must fail without printing a result.
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "reference", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok: refuses to run without the program")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
