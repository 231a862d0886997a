"""Span tracing from outside the program.

The tracer replaces public functions of the sentinet modules (module globals
and class attributes) with wrappers that record one span per call: name,
start, end, parent span and the strategy run it belongs to. Spans live in
flat in-memory arrays until the benchmark writes them out at the end. Self
time is a span's duration minus the durations of its direct children.
Nothing under `src/` is modified; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, strategies: tuple[str, ...]) -> None:
        self.strategies = strategies
        self.names: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget all spans and counters (start of a traced round)."""
        self.name = array("H")
        self.parent = array("q")
        self.run = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_index = -1
        self.counters: dict[str, int] = {}
        self.plans: dict[str, list[list[tuple[int, int, int]]]] = {}

    def begin_run(self, strategy: str) -> None:
        self.run_index = self.strategies.index(strategy)
        self.plans[strategy] = []

    @property
    def strategy(self) -> str:
        return self.strategies[self.run_index]

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # ------------------------------------------------------------------

    def wrap(self, owner, attr: str, span: str, before=None, after=None) -> None:
        """Trace calls of owner.attr as spans named `span`.

        `before(args)` runs ahead of the span and its return value is handed
        to `after(args, result, token)`, which runs once the span has ended;
        neither is part of the span's own time.
        """
        original = vars(owner)[attr]
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            stack = tracer._stack
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1])
            tracer.run.append(tracer.run_index)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.start[idx] = start
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns, one row per span in order of entry."""
        return {
            "name": np.array(self.name, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int64),
            "run": np.array(self.run, dtype=np.int8),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def span_totals(self) -> dict[tuple[str, str | None], tuple[int, float, float]]:
        """(span name, strategy or None for all) -> (calls, total s, self s)."""
        cols = self.arrays()
        duration = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(
            cols["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - child
        totals: dict[tuple[str, str | None], tuple[int, float, float]] = {}
        for name_id, span in enumerate(self.names):
            mask = cols["name"] == name_id
            totals[(span, None)] = (int(mask.sum()), float(duration[mask].sum()), float(own[mask].sum()))
            for run_index, strategy in enumerate(self.strategies):
                sub = mask & (cols["run"] == run_index)
                totals[(span, strategy)] = (
                    int(sub.sum()),
                    float(duration[sub].sum()),
                    float(own[sub].sum()),
                )
        return totals
