"""Coverage and redundancy accounting on small hand-built event sets."""

import numpy as np
import pytest

from sentinet import MetricsReport


def report_with_checks(events, duration=20, node_count=3, cell_types=2):
    """events: list of (t, node, cell_type)."""
    times = np.array([e[0] for e in events], dtype=np.int64)
    nodes = np.array([e[1] for e in events], dtype=np.int64)
    types = np.array([e[2] for e in events], dtype=np.int64)
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
        check_times=times,
        check_nodes=nodes,
        check_types=types,
        coverage_window=10,
    )


class TestCheckedFraction:
    def test_full_coverage_is_exactly_one(self):
        events = [
            (t, node, ct)
            for t in (0, 10)
            for node in (0, 1, 2)
            for ct in (1, 2)
        ]
        report = report_with_checks(events)
        assert report.checked_fraction(10) == 1.0

    def test_one_missing_slot_counts(self):
        events = [
            (t, node, ct)
            for t in (0, 10)
            for node in (0, 1, 2)
            for ct in (1, 2)
        ]
        events.remove((10, 2, 2))
        report = report_with_checks(events)
        # 11 covered slots of 2 windows x 3 nodes x 2 types.
        assert report.checked_fraction(10) == pytest.approx(11 / 12)

    def test_repeat_checks_do_not_double_count(self):
        events = [(0, 0, 1), (1, 0, 1), (2, 0, 1)]
        report = report_with_checks(events)
        assert report.checked_fraction(10) == pytest.approx(1 / 12)

    def test_window_boundaries_are_half_open(self):
        # A check at t=10 belongs to the second window, so the first window
        # of (node 0, type 1) stays uncovered.
        report = report_with_checks([(10, 0, 1)])
        assert report.checked_fraction(10) == pytest.approx(1 / 12)

    def test_incomplete_trailing_window_is_ignored(self):
        # duration 20, window 8: two complete windows, events beyond t=16 n/a.
        events = [(17, n, ct) for n in (0, 1, 2) for ct in (1, 2)]
        report = report_with_checks(events)
        assert report.checked_fraction(8) == 0.0

    def test_node_subset_filter(self):
        events = [(t, 0, ct) for t in (0, 10) for ct in (1, 2)]
        report = report_with_checks(events)
        assert report.checked_fraction(10, nodes=[0]) == 1.0
        assert report.checked_fraction(10, nodes=[1, 2]) == 0.0

    def test_span_restriction(self):
        events = [(t, node, ct) for t in (10, 11) for node in (0, 1, 2) for ct in (1, 2)]
        report = report_with_checks(events)
        assert report.checked_fraction(10, span=(10, 20)) == 1.0
        assert report.checked_fraction(10, span=(0, 10)) == 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            report_with_checks([]).checked_fraction(0)


class TestRedundantChecks:
    def test_close_repeats_count(self):
        report = report_with_checks([(0, 0, 1), (3, 0, 1), (4, 0, 1), (19, 0, 1)])
        # gaps: 3, 1, 15 against min_gap 5 -> two redundant checks
        assert report.redundant_check_count(5) == 2
        # A gap of exactly min_gap is not a close repeat.
        assert report.redundant_check_count(3) == 1

    def test_different_pairs_never_interfere(self):
        report = report_with_checks([(0, 0, 1), (1, 1, 1), (2, 0, 2), (3, 1, 2)])
        assert report.redundant_check_count(10) == 0

    def test_span_cuts_the_history(self):
        report = report_with_checks([(0, 0, 1), (12, 0, 1), (13, 0, 1)])
        assert report.redundant_check_count(5) == 1
        # Restricting to the tail drops the first pairing but keeps 12->13.
        assert report.redundant_check_count(5, span=(12, 20)) == 1
        assert report.redundant_check_count(5, span=(13, 20)) == 0

    def test_empty_history(self):
        assert report_with_checks([]).redundant_check_count(5) == 0
        assert report_with_checks([(7, 0, 1), (7, 1, 1)]).redundant_check_count(5, span=(7, 7)) == 0


class TestSerialization:
    def test_csv_shape_and_cumulative_columns(self, tmp_path):
        report = report_with_checks([(0, 0, 1), (1, 0, 1)], duration=5)
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

        report = report_with_checks([(0, 0, 1)])
        payload = json.dumps(report.summary())
        assert "detection_rate" in payload

    def test_detection_rate_zero_when_nothing_introduced(self):
        report = report_with_checks([])
        assert report.detection_rate == 0.0
