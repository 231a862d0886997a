"""Timed rounds over the five strategies, checks, and metric aggregation.

A round runs every strategy once, back to back, the way `sentinet run` does
it: `load_scenario` -> `Scenario.config_for` -> `Engine(config)` -> stepping
-> `Engine.report` -> `write_json` / `write_csv`. `Engine.run()` is `step()`
until `t == duration` followed by `report()`; the round makes those calls
itself so that stepping and reporting are timed apart. Every timed span is
adjusted to the nominal host speed by `hostspeed.SteadyClock`. A run repeats
whole rounds of one configuration until its time is up, so every repeat after
the first is also a determinism check, and reports the median over rounds.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import Expected, TopologyFacts, check_pairs, check_run
from hostspeed import SteadyClock
from tracing import Tracer
from workloads import STRATEGIES, Workload, write_scenario

import sentinet.engine as engine_mod
import sentinet.metrics as metrics_mod
import sentinet.scenario as scenario_mod
import sentinet.threat as threat_mod
import sentinet.topology as topology_mod
import sentinet.trails as trails_mod

REPORT_REPEATS = 5
# Stepping is timed in spans of about this many seconds, with a calibration
# after each, so the host-speed adjustment follows drift within a run.
CHUNK_S = 0.02

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"{s}.steps_per_s": "steps/s" for s in STRATEGIES},
    "report_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
}


def output_digest(directory: Path) -> str:
    """sha256 over a run's summary.json and timeseries.csv."""
    digest = hashlib.sha256()
    for name in ("summary.json", "timeseries.csv"):
        digest.update((directory / name).read_bytes())
    return digest.hexdigest()


@dataclass
class Round:
    traced: bool
    warmup: bool = False
    setup_s: float = 0.0
    report_s: float = 0.0
    total_s: float = 0.0
    steps_per_s: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    # Unadjusted wall time of the round, calibrations and checks included,
    # and the median host speed factor seen in it.
    wall_s: float = 0.0
    host_factor: float = 1.0


def install_layer_tracing(tracer: Tracer) -> None:
    """Wrap the public entry points of each simulation-path module."""
    Engine = engine_mod.Engine
    Topology = topology_mod.Topology
    TrailState = trails_mod.TrailState
    MetricsReport = metrics_mod.MetricsReport

    def packets(args, result, token) -> None:
        tracer.count("threat.packets_generated", len(result[0]))

    def plan(args, result, token) -> None:
        tracer.plans[tracer.strategy].append(list(result))
        tracer.count("engine.rebalance_moves", len(result))
        tracer.count("engine.rebalance_cells", sum(amount for _, _, amount in result))

    def loc_before(args):
        return args[0].loc.copy()

    def cells_moved(args, result, before) -> None:
        moved = int(np.count_nonzero(args[0].loc != before))
        tracer.count(f"engine.cells_moved.{tracer.strategy}", moved)

    tracer.wrap(scenario_mod, "load_scenario", "scenario.load_scenario")
    tracer.wrap(scenario_mod.Scenario, "config_for", "scenario.config_for")
    # The engine imported these by name, so its own module globals are wrapped.
    tracer.wrap(engine_mod, "generate_topology", "topology.generate")
    tracer.wrap(Topology, "hop_distances", "topology.hop_distances")
    tracer.wrap(Topology, "shortest_path", "topology.shortest_path")
    tracer.wrap(threat_mod.TrafficSource, "generate", "threat.generate", after=packets)
    tracer.wrap(Engine, "__init__", "engine.init")
    tracer.wrap(Engine, "step", "engine.step", before=loc_before, after=cells_moved)
    tracer.wrap(engine_mod, "plan_rebalance", "engine.plan_rebalance", after=plan)
    tracer.wrap(TrailState, "select_next_hop", "trails.select_next_hop")
    tracer.wrap(TrailState, "record_traversal", "trails.record_traversal")
    tracer.wrap(TrailState, "decay_all", "trails.decay_all")
    tracer.wrap(Engine, "report", "metrics.report")
    tracer.wrap(MetricsReport, "summary", "metrics.summary")
    tracer.wrap(MetricsReport, "write_json", "metrics.write_json")
    tracer.wrap(MetricsReport, "write_csv", "metrics.write_csv")


def layer_metrics(tracer: Tracer, notification_packets: int, reports: dict) -> dict[str, float]:
    """Per-layer numbers of one traced round, named as in BENCHMARK.json."""
    totals = tracer.span_totals()

    def calls(span: str, strategy: str | None = None) -> int:
        return totals[(span, strategy)][0]

    def secs(span: str, strategy: str | None = None) -> float:
        return totals[(span, strategy)][1]

    def self_secs(span: str, strategy: str | None = None) -> float:
        return totals[(span, strategy)][2]

    counter = tracer.counters.get
    metrics: dict[str, float] = {
        "scenario.load_s": secs("scenario.load_scenario") + secs("scenario.config_for"),
        "topology.generate_s": secs("topology.generate"),
        "topology.hop_distances_calls": calls("topology.hop_distances"),
        "topology.hop_distances_s": secs("topology.hop_distances"),
        "topology.shortest_path_calls": calls("topology.shortest_path"),
        "topology.shortest_path_s": secs("topology.shortest_path"),
        "threat.generate_calls": calls("threat.generate"),
        "threat.generate_s": secs("threat.generate"),
        "threat.generate_self_s": self_secs("threat.generate"),
        "threat.packets_generated": counter("threat.packets_generated", 0),
        "engine.init_s": secs("engine.init"),
    }
    for s in STRATEGIES:
        metrics[f"engine.step_s.{s}"] = secs("engine.step", s)
        metrics[f"engine.step_self_s.{s}"] = self_secs("engine.step", s)
    metrics.update(
        {
            "engine.plan_rebalance_calls": calls("engine.plan_rebalance"),
            "engine.plan_rebalance_s": secs("engine.plan_rebalance"),
            "engine.rebalance_moves": counter("engine.rebalance_moves", 0),
            "engine.rebalance_cells": counter("engine.rebalance_cells", 0),
            "engine.notification_packets": notification_packets,
        }
    )
    for s in STRATEGIES:
        metrics[f"engine.cells_moved.{s}"] = counter(f"engine.cells_moved.{s}", 0)
    metrics.update(
        {
            "engine.checks": sum(len(r.check_times) for r in reports.values()),
            "trails.select_next_hop_calls": calls("trails.select_next_hop"),
            "trails.select_next_hop_s": secs("trails.select_next_hop"),
            "trails.record_traversal_s": secs("trails.record_traversal"),
            "trails.decay_all_calls": calls("trails.decay_all"),
            "trails.decay_all_s": secs("trails.decay_all"),
            "metrics.report_s": secs("metrics.report"),
            "metrics.summary_s": secs("metrics.summary"),
            "metrics.write_json_s": secs("metrics.write_json"),
            "metrics.write_csv_s": secs("metrics.write_csv"),
            "trace.spans": len(tracer.name),
        }
    )
    return metrics


class Bench:
    """One workload at one seed: writes its scenario, then runs rounds."""

    def __init__(self, workload: Workload, seed: int, root: Path, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        sections = workload.sections(root / "scenarios" / "reference.ini", seed)
        self.expected = Expected.from_sections(sections)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.scenario_path = out_dir / "scenario.ini"
        write_scenario(sections, self.scenario_path)
        for strategy in STRATEGIES:
            (out_dir / strategy).mkdir(exist_ok=True)

    def _report(self, engine, strategy: str, steady: SteadyClock):
        """`Engine.report()` and both output files; returns the report and
        the adjusted seconds they took."""
        started = time.perf_counter()
        report = engine.report()
        report.write_json(self.out_dir / strategy / "summary.json")
        report.write_csv(self.out_dir / strategy / "timeseries.csv")
        return report, steady.adjust(time.perf_counter() - started)

    def round(self, tracer: Tracer | None = None) -> Round:
        """One pass over the five strategies. Each strategy run is timed in
        spans (set-up, stepping in chunks, reports) with a calibration after
        each span, then checked and dropped before the next one starts."""
        gc.collect()
        result = Round(traced=tracer is not None)
        reports, notification_packets = {}, 0
        clock = time.perf_counter
        steady = SteadyClock()
        started = clock()
        for strategy in STRATEGIES:
            if tracer is not None:
                tracer.begin_run(strategy)
            t0 = clock()
            scenario = scenario_mod.load_scenario(self.scenario_path)
            config = scenario.config_for(strategy, self.seed)
            engine = engine_mod.Engine(config)
            setup_s = steady.adjust(clock() - t0)
            stepping_s = 0.0
            while engine.t < config.duration:
                t0 = clock()
                while engine.t < config.duration and clock() - t0 < CHUNK_S:
                    engine.step()
                stepping_s += steady.adjust(clock() - t0)
            # A report takes milliseconds, so untraced rounds time it
            # REPORT_REPEATS times and count the median. The output is the
            # same every time.
            report_times = []
            for _ in range(1 if tracer is not None else REPORT_REPEATS):
                report, report_s = self._report(engine, strategy, steady)
                report_times.append(report_s)
            report_s = statistics.median(report_times)
            result.setup_s += setup_s
            result.steps_per_s[strategy] = config.duration / stepping_s
            result.report_s += report_s
            result.total_s += setup_s + stepping_s + report_s

            result.digests[strategy] = output_digest(self.out_dir / strategy)
            plans = tracer.plans[strategy] if tracer is not None else None
            facts = TopologyFacts(engine.topology)
            failures = check_run(strategy, engine, report, self.expected, facts, plans)
            if failures:
                result.failures[strategy] = failures
            notification_packets += engine.notification_packets_total
            reports[strategy] = report
            # Only the report outlives its run, as it would in `sentinet run`.
            del engine, facts
            gc.collect()
        result.wall_s = clock() - started
        result.host_factor = statistics.median(steady.factors)
        for strategy, failures in check_pairs(
            reports, self.workload.notification_beats_uninformed
        ).items():
            result.failures.setdefault(strategy, []).extend(failures)
        if tracer is not None:
            result.layers = layer_metrics(tracer, notification_packets, reports)
        return result


def run_rounds(bench: Bench, seconds: float, trace: bool):
    """One warm-up round, then whole rounds until the next would overrun
    `seconds`. The warm-up round is checked like any other but left out of
    the medians: the first engine of a process pays one-time costs (lazy
    imports, the allocator growing its heap) that later rounds do not. With
    tracing each untraced round is followed by a traced one and the pairs are
    counted. At least 3 timed rounds, or 2 pairs. Returns the rounds, the
    spans of every traced round and the span names."""
    min_rounds = 2 if trace else 3
    spans: list[dict[str, np.ndarray]] = []
    tracer = Tracer(STRATEGIES)
    started = time.perf_counter()
    rounds = [bench.round()]
    rounds[0].warmup = True
    timed_from = time.perf_counter()
    while True:
        rounds.append(bench.round())
        if trace:
            tracer.reset()
            install_layer_tracing(tracer)
            try:
                rounds.append(bench.round(tracer))
            finally:
                tracer.uninstall()
            spans.append(tracer.arrays())
        now = time.perf_counter()
        done = len(spans) if trace else len(rounds) - 1
        if done >= min_rounds and now - started + (now - timed_from) / done > seconds:
            return rounds, spans, tracer.names


def check_determinism(rounds: list[Round]) -> None:
    """Every round must write the same bytes as the first, per strategy."""
    first = rounds[0].digests
    for r in rounds[1:]:
        for strategy, digest in r.digests.items():
            if digest != first[strategy]:
                r.failures.setdefault(strategy, []).append(
                    f"{strategy}: summary.json/timeseries.csv differ from the first round"
                )


def summarize(rounds: list[Round]) -> dict:
    """Medians over rounds: end-to-end from untraced rounds, per-layer from
    traced ones, and the tracing overhead between the two."""
    plain = [r for r in rounds if not r.traced and not r.warmup]
    traced = [r for r in rounds if r.traced]
    median = statistics.median
    end_to_end = {
        "setup_s": median(r.setup_s for r in plain),
        **{
            f"{s}.steps_per_s": median(r.steps_per_s[s] for r in plain)
            for s in STRATEGIES
        },
        "report_s": median(r.report_s for r in plain),
        "total_s": median(r.total_s for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_layer = {}
    if traced:
        # Counts repeat exactly from round to round; median_low keeps them whole.
        per_layer = {
            key: (statistics.median_low if isinstance(value, int) else median)(
                r.layers[key] for r in traced
            )
            for key, value in traced[0].layers.items()
        }
        per_layer["trace.overhead_s"] = median(r.total_s for r in traced) - end_to_end["total_s"]
    attempted = len(STRATEGIES) * len(rounds)
    failed = sum(len(r.failures) for r in rounds)
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "failures": [msg for r in rounds for msgs in r.failures.values() for msg in msgs],
    }
