"""Coverage and redundancy accounting on small hand-built event sets."""

import numpy as np
import pytest

from sentinet import MetricsReport


def report_with_checks(rows, types, duration=20, node_count=3, cell_types=2):
    """rows[t]: the node each checker checked at step t; types: each checker's type."""
    return MetricsReport(
        duration=duration,
        node_count=node_count,
        cell_types=cell_types,
        strategy="trails",
        seed=1,
        deficiency_series=np.zeros(duration, dtype=np.int64),
        notification_series=np.zeros(duration, dtype=np.int64),
        detections_series=np.zeros(duration, dtype=np.int64),
        introduced_series=np.zeros(duration, dtype=np.int64),
        entity_counts=np.ones((duration, node_count), dtype=np.int32),
        check_nodes=np.array(rows, dtype=np.int32).reshape(len(rows), len(types)),
        checker_types=np.array(types, dtype=np.int64),
        coverage_window=10,
    )


# One checker per (node, type) of a 3-node, 2-type network.
EVERY_PAIR = [0, 1, 2, 0, 1, 2]
PAIR_TYPES = [1, 1, 1, 2, 2, 2]


def walk(visits, steps=20):
    """One type-1 checker's row per step: node 0 at the steps in visits, else
    node t, so that only node 0 is checked more than once."""
    return [[0 if t in visits else t] for t in range(steps)]


class TestCheckedFraction:
    def test_full_coverage_is_exactly_one(self):
        report = report_with_checks([EVERY_PAIR] * 20, PAIR_TYPES)
        assert report.checked_fraction(10) == 1.0

    def test_one_missing_slot_counts(self):
        # In the second window the (node 2, type 2) checker stays on node 1.
        rows = [EVERY_PAIR] * 10 + [[0, 1, 2, 0, 1, 1]] * 10
        report = report_with_checks(rows, PAIR_TYPES)
        # 11 covered slots of 2 windows x 3 nodes x 2 types.
        assert report.checked_fraction(10) == pytest.approx(11 / 12)

    def test_repeat_checks_do_not_double_count(self):
        # Ten checks of (node 0, type 1) in each window cover one slot each.
        report = report_with_checks([[0]] * 20, [1])
        assert report.checked_fraction(10) == pytest.approx(2 / 12)

    def test_window_boundaries_are_half_open(self):
        # The checker moves from node 1 to node 0 at t=10, which belongs to
        # the second window, so the first window of (node 0, type 1) stays
        # uncovered.
        report = report_with_checks([[1]] * 10 + [[0]] * 10, [1])
        assert report.checked_fraction(10) == pytest.approx(2 / 12)
        assert report.checked_fraction(10, nodes=[0]) == pytest.approx(1 / 4)

    def test_incomplete_trailing_window_is_ignored(self):
        # duration 20, window 8: two complete windows, checks from t=16 n/a.
        rows = [[0, 0, 0]] * 16 + [[0, 1, 2]] * 4
        report = report_with_checks(rows, [1, 1, 1])
        assert report.checked_fraction(8) == pytest.approx(2 / 12)
        assert report.checked_fraction(8, nodes=[1, 2]) == 0.0

    def test_node_subset_filter(self):
        report = report_with_checks([[0, 0]] * 20, [1, 2])
        assert report.checked_fraction(10, nodes=[0]) == 1.0
        assert report.checked_fraction(10, nodes=[1, 2]) == 0.0

    def test_span_restriction(self):
        # Every pair is checked from t=10 on; before that, only node 0.
        rows = [[0] * 6] * 10 + [EVERY_PAIR] * 10
        report = report_with_checks(rows, PAIR_TYPES)
        assert report.checked_fraction(10, span=(10, 20)) == 1.0
        assert report.checked_fraction(10, span=(0, 10)) == pytest.approx(2 / 6)
        assert report.checked_fraction(10, span=(0, 10), nodes=[1, 2]) == 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            report_with_checks([], []).checked_fraction(0)

    def test_each_node_counts_once(self):
        report = report_with_checks([[0]] * 20, [1], cell_types=1)
        assert report.checked_fraction(10, nodes=[0]) == 1.0
        assert report.checked_fraction(10, nodes=[0, 0]) == 1.0

    @pytest.mark.parametrize("nodes", [[7], [-1], [0, 3]])
    def test_unknown_nodes_rejected(self, nodes):
        with pytest.raises(ValueError, match="unknown node"):
            report_with_checks([[0]] * 20, [1], cell_types=1).checked_fraction(10, nodes=nodes)

    @pytest.mark.parametrize("span", [(-10, 20), (0, 21), (12, 8)])
    def test_span_outside_the_run_rejected(self, span):
        report = report_with_checks([[0]] * 20, [1], cell_types=1)
        with pytest.raises(ValueError, match="span"):
            report.checked_fraction(10, span=span)
        with pytest.raises(ValueError, match="span"):
            report.redundant_check_count(5, span=span)


class TestRedundantChecks:
    def test_close_repeats_count(self):
        report = report_with_checks(walk({0, 3, 4, 19}), [1], node_count=20)
        # gaps on node 0: 3, 1, 15 against min_gap 5 -> two redundant checks
        assert report.redundant_check_count(5) == 2
        # A gap of exactly min_gap is not a close repeat.
        assert report.redundant_check_count(3) == 1

    def test_different_pairs_never_interfere(self):
        # Two type-1 checkers on nodes 0, 1 then 2, 3; a type-2 checker on
        # node 0 then node 1, beside a type-1 checker each time.
        report = report_with_checks([[0, 1, 0], [2, 3, 1]], [1, 1, 2], duration=2, node_count=4)
        assert report.redundant_check_count(10) == 0

    def test_span_cuts_the_history(self):
        report = report_with_checks(walk({0, 8, 12, 13}), [1], node_count=20)
        # gaps on node 0: 8, 4, 1 -> two redundant at min_gap 5.
        assert report.redundant_check_count(5) == 2
        # Restricting to the tail drops the 8->12 pairing but keeps 12->13.
        assert report.redundant_check_count(5, span=(12, 20)) == 1
        assert report.redundant_check_count(5, span=(13, 20)) == 0

    def test_report_before_the_end_counts_the_steps_run(self):
        # A report taken after 12 of 20 steps holds 12 rows.
        report = report_with_checks(walk({0, 8, 11}, steps=12), [1], node_count=20)
        assert report.redundant_check_count(5) == 1
        assert report.redundant_check_count(5, span=(12, 20)) == 0

    def test_empty_history(self):
        assert report_with_checks([[]] * 20, []).redundant_check_count(5) == 0
        assert report_with_checks([], []).redundant_check_count(5) == 0
        assert report_with_checks([[0, 1]] * 20, [1, 1]).redundant_check_count(5, span=(7, 7)) == 0


class TestSerialization:
    def test_csv_shape_and_cumulative_columns(self, tmp_path):
        report = report_with_checks([[0]] * 5, [1], duration=5)
        report.detections_series = np.array([1, 0, 2, 0, 0])
        report.introduced_series = np.array([2, 1, 2, 0, 0])
        path = tmp_path / "t.csv"
        report.write_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert last[0] == "4"
        assert last[1] == "3"  # detections accumulate
        assert last[2] == "5"  # introduced accumulate

    def test_summary_is_json_friendly(self):
        import json

        report = report_with_checks([[0]] * 20, [1])
        payload = json.dumps(report.summary())
        assert "detection_rate" in payload

    def test_detection_rate_zero_when_nothing_introduced(self):
        report = report_with_checks([], [])
        assert report.detection_rate == 0.0
