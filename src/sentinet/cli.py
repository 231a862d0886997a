"""Command line runner: single runs, strategy/seed sweeps, topology export.

Exit codes: 0 success, 1 configuration error, 2 I/O error. All output files
are pure functions of the scenario content so repeated invocations diff clean.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from pathlib import Path

from .engine import ConfigError, Engine, topology_for
from .scenario import Scenario, load_scenario
from .topology import TopologyError, save_topology


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentinet",
        description="Deterministic security-swarm simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a single run from a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--out-dir", default=None)
    run_p.add_argument("--verbose", action="store_true", help="also write traffic.csv and trails.csv")

    sweep_p = sub.add_parser("sweep", help="run the scenario's seeds x strategies grid")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--out-dir", default=None)
    sweep_p.add_argument("--jobs", type=_positive_int, default=1)

    gen_p = sub.add_parser("gen-topology", help="write the scenario's topology as text")
    gen_p.add_argument("scenario")
    gen_p.add_argument("outfile")

    val_p = sub.add_parser("validate", help="parse and validate a scenario file")
    val_p.add_argument("scenario")
    return parser


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except FileNotFoundError:
        print(f"error: scenario file not found: {path}", file=sys.stderr)
        raise SystemExit(2)


def _out_dir(scenario: Scenario, override: str | None) -> Path:
    out = Path(override or scenario.out_dir or "results")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    out = _out_dir(scenario, args.out_dir)
    engine = Engine(scenario.config, verbose=args.verbose)
    try:
        with ExitStack() as stack:
            # Verbose logs go out step by step, so memory stays flat over a run.
            logs = [
                ("traffic.csv", "t,packet_id,source,destination,intrusion,fate,node", engine.traffic_log),
                ("trails.csv", "t,node,link,cell_type,value", engine.trail_log),
            ] if args.verbose else []
            writers = []
            for name, header, rows in logs:
                writer = csv.writer(stack.enter_context(open(out / name, "w", newline="", encoding="utf-8")))
                writer.writerow(header.split(","))
                writers.append((writer, rows))
            while engine.t < engine.config.duration:
                engine.step()
                for writer, rows in writers:
                    writer.writerows(rows)
                    rows.clear()
        report = engine.report()
        report.write_json(out / "summary.json")
        report.write_csv(out / "timeseries.csv")
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 2
    print(f"run complete: strategy={report.strategy} seed={report.seed}")
    print(f"  detection_rate={report.detection_rate:.4f}")
    print(f"  control_bandwidth={report.control_bandwidth:.0f}")
    print(f"  wrote {out / 'summary.json'} and {out / 'timeseries.csv'}")
    return 0


def _run_one(job: tuple[Scenario, str, int]) -> dict:
    scenario, strategy, seed = job
    return Engine(scenario.config_for(strategy, seed)).run().summary()


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    out = _out_dir(scenario, args.out_dir)
    grid = [
        (scenario, strategy, seed)
        for strategy in sorted(scenario.sweep_strategies)
        for seed in sorted(scenario.sweep_seeds)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_run_one, grid))
    else:
        rows = [_run_one(item) for item in grid]
    rows.sort(key=lambda row: (row["strategy"], row["seed"]))

    columns = [
        "strategy",
        "seed",
        "detection_rate",
        "checked_fraction_final_half",
        "redundant_checks_final_half",
        "control_bandwidth",
        "notification_packets_total",
        "infections_created",
        "infections_cleared",
        "final_fifth_deficiency_max",
    ]
    try:
        with open(out / "runs.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([row[c] for c in columns])
        strategies = sorted({row["strategy"] for row in rows})
        with open(out / "comparison.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["strategy", "mean_detection_rate", "mean_checked_fraction", "mean_control_bandwidth"]
            )
            for strategy in strategies:
                group = [row for row in rows if row["strategy"] == strategy]
                writer.writerow(
                    [
                        strategy,
                        sum(r["detection_rate"] for r in group) / len(group),
                        sum(r["checked_fraction_final_half"] for r in group) / len(group),
                        sum(r["control_bandwidth"] for r in group) / len(group),
                    ]
                )
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 2
    print(f"sweep complete: {len(rows)} runs")
    print(f"  wrote {out / 'runs.csv'} and {out / 'comparison.csv'}")
    return 0


def _cmd_gen_topology(args: argparse.Namespace) -> int:
    topology = topology_for(_load(args.scenario).config)
    try:
        save_topology(topology, args.outfile)
    except OSError as exc:
        print(f"error: cannot write topology: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.outfile}: {topology.node_count} nodes, {len(topology.edges)} edges")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    print(
        f"ok: {args.scenario} "
        f"(strategy={scenario.config.strategy}, duration={scenario.config.duration})"
    )
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "gen-topology": _cmd_gen_topology,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
