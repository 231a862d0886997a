"""Run metrics: detection counts, coverage accounting, bandwidth, exports.

Coverage is tracked per (node, cell type): a pair counts as covered in a
window only if a checker of that type visited that node inside the window.
checked_fraction aggregates over all complete windows in a span, so 1.0 means
every node was swept for every intrusion type in every window.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class MetricsReport:
    duration: int
    node_count: int
    cell_types: int
    strategy: str
    seed: int

    detected_packets: int = 0
    introduced_packets: int = 0
    delivered_infected: int = 0
    infections_created: int = 0
    infections_cleared: int = 0
    infections_active: int = 0
    control_bandwidth: float = 0.0
    notification_packets_total: int = 0
    max_link_load: int = 0  # peak packets per (link, direction, step)

    deficiency_series: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    notification_series: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    notification_per_connection: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    detections_series: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    introduced_series: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    entity_counts: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int32))

    # Every node checker checks every step: row t holds the node each one
    # checked at step t, and column j's checks are of type checker_types[j].
    check_nodes: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int32))
    checker_types: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    coverage_window: int = 0

    @property
    def check_times(self) -> np.ndarray:
        """The step of each check, in `check_nodes.ravel()` order. Kept only
        because the benchmark harness counts checks by its length."""
        return np.repeat(np.arange(len(self.check_nodes)), len(self.checker_types))

    @property
    def detection_rate(self) -> float:
        """Packets caught in flight over infected packets introduced."""
        if self.introduced_packets == 0:
            return 0.0
        return self.detected_packets / self.introduced_packets

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------

    def _span(self, span: tuple[int, int] | None) -> tuple[int, int]:
        start, end = span if span is not None else (0, self.duration)
        if not 0 <= start <= end <= self.duration:
            raise ValueError(f"span {span} must lie in 0..{self.duration} and start at or before its end")
        return start, end

    def _pair_keys(self, start: int, end: int) -> np.ndarray:
        """One int64 key, node * (k + 1) + type, per check at steps
        start..end-1, as a (steps × node checkers) matrix. int64 because
        window × node × type keys outgrow int32 on large graphs."""
        keys = self.check_nodes[start:end].astype(np.int64)
        keys *= self.cell_types + 1
        keys += self.checker_types
        return keys

    def checked_fraction(
        self,
        window: int,
        span: tuple[int, int] | None = None,
        nodes: list[int] | None = None,
    ) -> float:
        """Fraction of (node, type, window) triples with at least one check.

        Only complete windows inside span are counted, and each node once.
        Returns 1.0 exactly when every considered node was checked for every
        type in every window.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        start, end = self._span(span)
        n_windows = (end - start) // window
        node_list = np.arange(self.node_count) if nodes is None else np.unique(np.asarray(nodes, dtype=np.int64))
        unknown = node_list[(node_list < 0) | (node_list >= self.node_count)]
        if len(unknown):
            raise ValueError(f"unknown node {unknown[0]}")
        if n_windows == 0 or len(node_list) == 0 or self.cell_types == 0:
            return 0.0
        stop = start + n_windows * window
        keys = self._pair_keys(start, stop)
        window_index = np.arange(len(keys)) // window
        keys += window_index[:, None] * (self.node_count * (self.cell_types + 1))
        if nodes is not None:
            keys = keys[np.isin(self.check_nodes[start:stop], node_list)]
        # Distinct keys, counted as the neighbours that differ after a sort.
        keys = np.sort(keys, axis=None)
        covered = int(np.count_nonzero(keys[1:] != keys[:-1])) + (len(keys) > 0)
        total = n_windows * len(node_list) * self.cell_types
        return covered / total

    def _redundant_check_times(self, min_gap: int, span: tuple[int, int] | None = None) -> np.ndarray:
        """Times of the checks in span that repeat a (node, type) pair sooner
        than min_gap steps after the previous check of that pair."""
        start, end = self._span(span)
        if end <= start:
            return np.zeros(0, dtype=np.int64)
        # One key per check, pair * (span + min_gap) + offset, sorted in place:
        # keys of different pairs lie at least min_gap + 1 apart, so a gap
        # under min_gap between neighbours is a repeat of one pair.
        spacing = end - start + min_gap
        keys = self._pair_keys(start, end)
        keys *= spacing
        keys += np.arange(len(keys))[:, None]
        keys = keys.ravel()
        keys.sort()
        repeats = keys[1:][np.diff(keys) < min_gap]
        return repeats % spacing + start

    def redundant_check_count(
        self, min_gap: int, span: tuple[int, int] | None = None
    ) -> int:
        """Checks repeating a (node, type) pair sooner than min_gap steps."""
        if min_gap <= 0:
            raise ValueError("min_gap must be positive")
        return len(self._redundant_check_times(min_gap, span))

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    @property
    def _min_gap(self) -> int:
        """A check within a quarter coverage window of the last is redundant."""
        return max(1, self.coverage_window // 4)

    def summary(self) -> dict:
        final_half = (self.duration // 2, self.duration)
        tail = self.deficiency_series[-max(1, self.duration // 5):]
        summary = {
            "strategy": self.strategy,
            "seed": self.seed,
            "duration": self.duration,
            "node_count": self.node_count,
            "cell_types": self.cell_types,
            "detection_rate": self.detection_rate,
            "detected_packets": self.detected_packets,
            "introduced_packets": self.introduced_packets,
            "delivered_infected": self.delivered_infected,
            "infections_created": self.infections_created,
            "infections_cleared": self.infections_cleared,
            "infections_active": self.infections_active,
            "control_bandwidth": self.control_bandwidth,
            "notification_packets_total": self.notification_packets_total,
            "max_link_load": self.max_link_load,
            "coverage_window": self.coverage_window,
            "checked_fraction_final_half": (
                self.checked_fraction(self.coverage_window, final_half)
                if self.coverage_window > 0
                else 0.0
            ),
            "redundant_checks_final_half": (
                self.redundant_check_count(self._min_gap, final_half)
                if self.coverage_window > 0
                else 0
            ),
            "final_fifth_deficiency_max": int(tail.max()) if len(tail) else 0,
        }
        return summary

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def write_csv(self, path: str | Path) -> None:
        """Per-timestep series in a fixed column order."""
        columns = {
            "t": np.arange(self.duration),
            "detections_cum": np.cumsum(self.detections_series),
            "introduced_cum": np.cumsum(self.introduced_series),
            "deficient_nodes": self.deficiency_series,
            "notification_packets": self.notification_series,
            # Every node checker checks every step.
            "checks": np.full(self.duration, len(self.checker_types)),
            "redundant_checks": np.bincount(
                self._redundant_check_times(self._min_gap), minlength=self.duration
            ),
            "max_cells_per_node": self.entity_counts.max(axis=1),
            "min_cells_per_node": self.entity_counts.min(axis=1),
        }
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns.keys())
            writer.writerows(np.column_stack(list(columns.values())).tolist())
