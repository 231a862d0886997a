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

    check_times: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    check_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    check_types: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    coverage_window: int = 0

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
        return span if span is not None else (0, self.duration)

    def checked_fraction(
        self,
        window: int,
        span: tuple[int, int] | None = None,
        nodes: list[int] | None = None,
    ) -> float:
        """Fraction of (node, type, window) triples with at least one check.

        Only complete windows inside span are counted. Returns 1.0 exactly
        when every considered node was checked for every type in every window.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        start, end = self._span(span)
        n_windows = (end - start) // window
        node_list = nodes if nodes is not None else list(range(self.node_count))
        if n_windows == 0 or not node_list or self.cell_types == 0:
            return 0.0
        mask = (self.check_times >= start) & (self.check_times < start + n_windows * window)
        if nodes is not None:
            mask &= np.isin(self.check_nodes, node_list)
        times = self.check_times[mask]
        win = (times - start) // window
        triples = (
            win * (self.node_count * (self.cell_types + 1))
            + self.check_nodes[mask] * (self.cell_types + 1)
            + self.check_types[mask]
        )
        covered = len(np.unique(triples))
        total = n_windows * len(node_list) * self.cell_types
        return covered / total

    def _redundant_check_times(self, min_gap: int, span: tuple[int, int] | None = None) -> np.ndarray:
        """Times of the checks in span that repeat a (node, type) pair sooner
        than min_gap steps after the previous check of that pair."""
        start, end = self._span(span)
        if end <= start:
            return np.zeros(0, dtype=np.int64)
        mask = (self.check_times >= start) & (self.check_times < end)
        # One key per check, (node * (k + 1) + type) * span + offset, sorted in place.
        keys = self.check_nodes[mask] * (self.cell_types + 1)
        keys += self.check_types[mask]
        keys *= end - start
        keys += self.check_times[mask] - start
        keys.sort()
        pairs, offsets = np.divmod(keys, end - start)
        repeats = (pairs[1:] == pairs[:-1]) & (offsets[1:] - offsets[:-1] < min_gap)
        return offsets[1:][repeats] + start

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
                self.redundant_check_count(max(1, self.coverage_window // 4), final_half)
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
        min_gap = max(1, self.coverage_window // 4) if self.coverage_window > 0 else 1
        checks_per_step = np.bincount(self.check_times, minlength=self.duration)
        redundant_per_step = np.bincount(self._redundant_check_times(min_gap), minlength=self.duration)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "t",
                    "detections_cum",
                    "introduced_cum",
                    "deficient_nodes",
                    "notification_packets",
                    "checks",
                    "redundant_checks",
                    "max_cells_per_node",
                    "min_cells_per_node",
                ]
            )
            det_cum = np.cumsum(self.detections_series)
            intro_cum = np.cumsum(self.introduced_series)
            for t in range(self.duration):
                row_counts = self.entity_counts[t]
                writer.writerow(
                    [
                        t,
                        int(det_cum[t]),
                        int(intro_cum[t]),
                        int(self.deficiency_series[t]),
                        int(self.notification_series[t]),
                        int(checks_per_step[t]),
                        int(redundant_per_step[t]),
                        int(row_counts.max()),
                        int(row_counts.min()),
                    ]
                )
