"""Acceptance suite: every shipped claim, checked at its stated tolerance.

Runs the shipped reference and fragmented scenarios across strategies and
seeds (several minutes total) plus the protocol-law checks. Each criterion
prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see them all.

Criteria 3a, 3c and 6a are known structural failures of the selection rule's
probabilistic roulette (see "Known limitations" in the README): the
inverse-weight formula cannot produce the deterministic sweep cadence or the
sustained bridge starvation those clauses require. They are asserted exactly
as specified and left red rather than loosened.
"""

import json
import math
import time
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from reference_model import roulette_weights

from sentinet import (
    Connection,
    Engine,
    MovementParams,
    NodeRole,
    Topology,
    TrailParams,
    TrailState,
    flood_trace,
)
from sentinet.cli import main
from sentinet.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
RUN_TIME_LIMIT_S = 300.0


def _criterion(label: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def reference():
    return load_scenario(ROOT / "scenarios" / "reference.ini")


@pytest.fixture(scope="module")
def fragmented():
    return load_scenario(ROOT / "scenarios" / "fragmented.ini")


def _run_arm(scenario, strategy, mutate=None):
    out = {}
    for seed in SEEDS:
        config = scenario.config_for(strategy, seed)
        if mutate is not None:
            mutate(config)
        started = time.perf_counter()
        engine = Engine(config)
        report = engine.run()
        out[seed] = (report, time.perf_counter() - started, engine)
    return out


@pytest.fixture(scope="module")
def uninformed_runs(reference):
    return _run_arm(reference, "uninformed")


@pytest.fixture(scope="module")
def notification_runs(reference):
    return _run_arm(reference, "notification")


@pytest.fixture(scope="module")
def centralized_runs(reference):
    return _run_arm(reference, "centralized")


@pytest.fixture(scope="module")
def trails_runs(reference):
    return _run_arm(reference, "trails")


def _final_half(report):
    return (report.duration // 2, report.duration)


# ---------------------------------------------------------------------------
# 1. Detection-rate gap
# ---------------------------------------------------------------------------


def test_criterion_1_detection_rate_gap(uninformed_runs, notification_runs):
    gaps = {}
    for seed in SEEDS:
        uninformed = uninformed_runs[seed][0].detection_rate
        informed = notification_runs[seed][0].detection_rate
        gaps[seed] = informed - uninformed
    mean_uninformed = np.mean([uninformed_runs[s][0].detection_rate for s in SEEDS])
    mean_informed = np.mean([notification_runs[s][0].detection_rate for s in SEEDS])
    every_seed = all(
        notification_runs[s][0].detection_rate > uninformed_runs[s][0].detection_rate
        for s in SEEDS
    )
    slowest = max(notification_runs[s][1] for s in SEEDS)
    ok = mean_informed >= mean_uninformed + 0.10 and every_seed and slowest < RUN_TIME_LIMIT_S
    _criterion(
        "1 detection-rate gap",
        ok,
        f"mean {mean_informed:.4f} vs {mean_uninformed:.4f} "
        f"(gap {mean_informed - mean_uninformed:+.4f}, need >= +0.10), "
        f"per-seed gaps {[f'{gaps[s]:+.3f}' for s in SEEDS]}, slowest run {slowest:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. Bandwidth gap and the per-link hard bound
# ---------------------------------------------------------------------------


def test_criterion_2_bandwidth_gap(notification_runs, centralized_runs):
    ratios = {
        s: notification_runs[s][0].control_bandwidth
        / centralized_runs[s][0].control_bandwidth
        for s in SEEDS
    }
    ok = all(r <= 0.5 for r in ratios.values())
    _criterion(
        "2 bandwidth gap",
        ok,
        "notification/centralized control bandwidth per seed "
        + str({s: f"{r:.3f}" for s, r in ratios.items()})
        + " (need <= 0.5 each)",
    )


def test_criterion_2_per_link_direction_load(notification_runs):
    worst = max(notification_runs[s][0].max_link_load for s in SEEDS)
    _criterion(
        "2 per-link load bound",
        worst <= 1,
        f"max notification packets per (link, direction, step) = {worst} (need <= 1)",
    )


# ---------------------------------------------------------------------------
# 3. Coverage gap
# ---------------------------------------------------------------------------


def _coverage_window(config):
    return round(4 * config.topology.node_count / config.node_checkers_per_type)


def test_criterion_3a_trail_coverage_complete(reference, trails_runs):
    window = _coverage_window(reference.config)
    fractions = {
        s: trails_runs[s][0].checked_fraction(window, _final_half(trails_runs[s][0]))
        for s in SEEDS
    }
    ok = all(f == 1.0 for f in fractions.values())
    _criterion(
        "3a trail coverage = 1.0",
        ok,
        f"checked_fraction(window={window}) per seed "
        + str({s: f"{f:.4f}" for s, f in fractions.items()})
        + " (need exactly 1.0; structurally out of reach for the probabilistic"
        " roulette; see the README known-limitations section)",
    )


def test_criterion_3b_uninformed_coverage_low(reference, uninformed_runs):
    window = _coverage_window(reference.config)
    fractions = {
        s: uninformed_runs[s][0].checked_fraction(window, _final_half(uninformed_runs[s][0]))
        for s in SEEDS
    }
    ok = all(f < 0.95 for f in fractions.values())
    _criterion(
        "3b uninformed coverage < 0.95",
        ok,
        f"checked_fraction(window={window}) per seed "
        + str({s: f"{f:.4f}" for s, f in fractions.items()}),
    )


def test_criterion_3c_redundant_check_reduction(reference, trails_runs, uninformed_runs):
    window = _coverage_window(reference.config)
    min_gap = window // 4
    ratios = {}
    for seed in SEEDS:
        trails_count = trails_runs[seed][0].redundant_check_count(
            min_gap, _final_half(trails_runs[seed][0])
        )
        uninformed_count = uninformed_runs[seed][0].redundant_check_count(
            min_gap, _final_half(uninformed_runs[seed][0])
        )
        ratios[seed] = trails_count / max(1, uninformed_count)
    ok = all(r <= 0.5 for r in ratios.values())
    _criterion(
        "3c redundant checks <= 0.5x uninformed",
        ok,
        f"trail/uninformed redundant-check ratio (min_gap={min_gap}) per seed "
        + str({s: f"{r:.3f}" for s, r in ratios.items()})
        + " (edge-sweep patrols re-enter hubs by construction; see the README)",
    )


# ---------------------------------------------------------------------------
# 4. Flood wavefront against a BFS oracle
# ---------------------------------------------------------------------------


def _bfs(n_nodes, pairs, origin):
    adjacency = {v: [] for v in range(n_nodes)}
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = {origin: 0}
    frontier = [origin]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _random_connected(rng):
    n = int(rng.integers(2, 51))
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(0, n // 2 + 1))):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = [Connection(i, u, v) for i, (u, v) in enumerate(sorted(pairs))]
    return Topology(roles=[NodeRole.WORKSTATION] * n, edges=edges), sorted(pairs)


def test_criterion_4_flood_wavefront_oracle():
    rng = np.random.default_rng(90210)
    failures = 0
    for _ in range(100):
        topology, pairs = _random_connected(rng)
        origin = int(rng.integers(0, topology.node_count))
        value = int(rng.integers(1, 9))
        arrivals, _, _ = flood_trace(topology, origin, float(value))
        dist = _bfs(topology.node_count, pairs, origin)
        expected = {v for v, d in dist.items() if 0 < d <= value}
        if set(arrivals) != expected or any(arrivals[v] != dist[v] for v in expected):
            failures += 1
    _criterion(
        "4 flood wavefront",
        failures == 0,
        f"{100 - failures}/100 random graphs matched the BFS ball and hop-time exactly",
    )


# ---------------------------------------------------------------------------
# 5. Trail function laws
# ---------------------------------------------------------------------------


def test_criterion_5_trail_laws():
    params = TrailParams()

    def star(leaves: int) -> TrailState:
        """Trails on a star: node 0's slot i leads to node i + 1."""
        edges = [Connection(i, 0, i + 1) for i in range(leaves)]
        topology = Topology(roles=[NodeRole.ROUTER] + [NodeRole.WORKSTATION] * leaves, edges=edges)
        return TrailState(topology, params, cell_types=1)

    getcontext().prec = 50
    rng = np.random.default_rng(7)
    olds = rng.uniform(0.0, 13.5, size=2000)
    bumped = star(len(olds))
    bumped.values[: len(olds), 1] = olds
    bumped.record_traversal(np.arange(len(olds)), np.ones(len(olds), dtype=np.int64))
    worst = 0.0
    for old, got in zip(olds.tolist(), bumped.values[: len(olds), 1].tolist()):
        want = float(
            Decimal(params.increase_base)
            + Decimal(params.increase_scale) * Decimal(old).exp()
        )
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    grid = np.linspace(0.0, 50.0, 1001)
    faded = star(len(grid))
    faded.values[: len(grid), 1] = grid
    faded.decay_all()
    decay_exact = all(
        got == max(0.0, v - params.decay_step)
        for v, got in zip(grid.tolist(), faded.values[: len(grid), 1].tolist())
    )

    values = [1.0, 5.0, 10.0, 100.0]
    state = star(len(values))
    topology = state.topology
    state.values[: len(values), 1] = values
    weights = np.array(roulette_weights(values))
    expected = weights / weights.sum()
    draw_rng = np.random.default_rng(99)
    trials = 1_000_000
    # One array call: the same draws, in order, as one call per pick.
    picks = state.select_next_hop(np.zeros(trials, dtype=np.int64), np.ones(trials, dtype=np.int64), draw_rng)
    counts = np.bincount(topology.adj_neighbors[picks], minlength=5)
    freq_ok = True
    for idx, p in enumerate(expected):
        sigma = math.sqrt(p * (1 - p) / trials)
        if abs(counts[idx + 1] / trials - p) > 3 * sigma:
            freq_ok = False
    ok = worst <= 1e-9 and decay_exact and freq_ok
    _criterion(
        "5 trail function laws",
        ok,
        f"increase worst relative error {worst:.2e} (need <= 1e-9), "
        f"decay exact: {decay_exact}, roulette within 3 sigma over 1e6 draws: {freq_ok}",
    )


# ---------------------------------------------------------------------------
# 6. Fragmentation remedy
# ---------------------------------------------------------------------------


def _fragment_b_coverage(scenario, fallback):
    out = {}
    for seed in SEEDS:
        config = scenario.config_for("trails", seed)
        config.bridge_fallback = fallback
        engine = Engine(config)
        report = engine.run()
        nodes_b = [
            v
            for v in range(engine.topology.node_count)
            if engine.topology.fragment_of[v] == 1
        ]
        window = config.duration // 2
        out[seed] = report.checked_fraction(window, _final_half(report), nodes=nodes_b)
    return out


def test_criterion_6a_bridge_starvation_without_fallback(fragmented):
    coverage = _fragment_b_coverage(fragmented, fallback=False)
    below = sum(1 for f in coverage.values() if f < 1.0)
    _criterion(
        "6a far-fragment starvation without fallback",
        below >= 3,
        f"fragment-B coverage per seed {({s: f'{f:.3f}' for s, f in coverage.items()})}; "
        f"{below}/5 seeds below 1.0 (need >= 3; the inverse-weight roulette is "
        "self-correcting at bridges; see the README)",
    )


def test_criterion_6b_fallback_restores_coverage(fragmented):
    coverage = _fragment_b_coverage(fragmented, fallback=True)
    ok = all(f == 1.0 for f in coverage.values())
    _criterion(
        "6b fallback restores full coverage",
        ok,
        f"fragment-B coverage per seed {({s: f'{f:.3f}' for s, f in coverage.items()})} "
        "(need 1.0 for all)",
    )


# ---------------------------------------------------------------------------
# 7. Oscillation prevention
# ---------------------------------------------------------------------------


def test_criterion_7_oscillation_prevention(reference):
    def mutate(config):
        # Precondition of the criterion: enough packet checkers to satisfy
        # every node. Movement isolated to the notification response so the
        # settled state is absorbing.
        config.packet_checkers_per_type = 100
        config.movement = MovementParams(0.0, 0.02, 0.15)

    runs = _run_arm(reference, "notification", mutate)
    details = {}
    ok = True
    for seed in SEEDS:
        report, _, engine = runs[seed]
        supply = engine.n_pc * engine.config.security_value
        need = float(engine.min_security_node.sum())
        assert supply >= need, "precondition: total packet checkers cover the requirement"
        tail = report.deficiency_series[-(report.duration // 5):]
        details[seed] = int(tail.max())
        ok = ok and details[seed] == 0
        assert report.max_link_load <= 1
    _criterion(
        "7 oscillation prevention",
        ok,
        f"max deficient-node count over the final 20% per seed {details} (need 0)",
    )


# ---------------------------------------------------------------------------
# Supplementary directional checks on the same runs
# ---------------------------------------------------------------------------


def test_supplementary_strategy_directions(
    reference, uninformed_runs, notification_runs, trails_runs, centralized_runs
):
    window = _coverage_window(reference.config)
    min_gap = window // 4
    for seed in SEEDS:
        trails_report = trails_runs[seed][0]
        uninformed_report = uninformed_runs[seed][0]
        half_t, half_u = _final_half(trails_report), _final_half(uninformed_report)
        assert trails_report.checked_fraction(window, half_t) > uninformed_report.checked_fraction(
            window, half_u
        )
        assert trails_report.redundant_check_count(min_gap, half_t) < uninformed_report.redundant_check_count(
            min_gap, half_u
        )
        assert (
            notification_runs[seed][0].control_bandwidth
            < centralized_runs[seed][0].control_bandwidth
        )
    print("\nACCEPTANCE supplementary directions: PASS - trails out-cover and "
          "under-repeat uninformed every seed; notification undercuts centralized bandwidth")


def test_supplementary_sweep_pipeline_direction(tmp_path):
    # Full pipeline on a shortened copy of the reference scenario: the
    # comparison table must rank the notification protocol above uninformed.
    source = (ROOT / "scenarios" / "reference.ini").read_text(encoding="utf-8")
    source = source.replace("duration = 5000", "duration = 1500")
    source = source.replace("seeds = 1 2 3 4 5", "seeds = 1 2")
    source = source.replace(
        "strategies = uninformed notification trails centralized",
        "strategies = uninformed notification",
    )
    scenario_path = tmp_path / "short_reference.ini"
    scenario_path.write_text(source, encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", str(scenario_path), "--out-dir", str(out)]) == 0
    rows = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    table = {line.split(",")[0]: float(line.split(",")[1]) for line in rows[1:]}
    ok = table["notification"] > table["uninformed"]
    per_run = (out / "runs.csv").read_text(encoding="utf-8").splitlines()[1:]
    by_strategy_seed = {}
    for line in per_run:
        parts = line.split(",")
        by_strategy_seed[(parts[0], parts[1])] = float(parts[2])
    every_seed = all(
        by_strategy_seed[("notification", s)] > by_strategy_seed[("uninformed", s)]
        for s in ("1", "2")
    )
    print(
        f"\nACCEPTANCE supplementary sweep pipeline: {'PASS' if ok and every_seed else 'FAIL'} - "
        f"mean detection {table['notification']:.4f} vs {table['uninformed']:.4f}"
    )
    assert ok and every_seed


# ---------------------------------------------------------------------------
# 8. Determinism of the command line pipeline
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    scenario = ROOT / "scenarios" / "reference.ini"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scenario), "--out-dir", str(out_a)]) == 0
    assert main(["run", str(scenario), "--out-dir", str(out_b)]) == 0
    same_json = (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    same_csv = (out_a / "timeseries.csv").read_bytes() == (out_b / "timeseries.csv").read_bytes()
    summary = json.loads((out_a / "summary.json").read_text(encoding="utf-8"))
    _criterion(
        "8 determinism",
        same_json and same_csv,
        f"repeated runs byte-identical (json {same_json}, csv {same_csv}); "
        f"detection_rate {summary['detection_rate']:.4f}",
    )
