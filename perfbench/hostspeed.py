"""Timing that a drifting host speed does not move.

On a shared virtual machine the same code runs at speeds that wander by up to
1.7x, over seconds and over minutes. CPU time (`time.process_time`) wanders
with wall time, because the cores themselves slow down. So each timed span of
work is bracketed by a short, fixed calibration, and its wall time is divided
by the host's speed factor around it: the mean of the factors measured just
before and just after the span.

The factor is the geometric mean, over a few small kernels (integer loop,
dict counting, tuple keys, table lookups, attribute access, small numpy
calls), of each kernel's time over its nominal time. A factor of 1 is the
nominal speed, so adjusted times read as seconds on a host at that speed. The
kernels use only Python and numpy and never the program, so a change to the
program cannot move them. A calibration takes about 3 ms and holds well
under 1 MiB.
"""

from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(0)
_small = _rng.random(64)
_tuple_keys = [(i % 500, i % 7) for i in range(2000)]
_table = {i: i * 3 for i in range(5000)}
_lookups = _rng.integers(0, 5000, 2000).tolist()


class _Slotted:
    __slots__ = ("x", "y")

    def __init__(self, x: int) -> None:
        self.x = x
        self.y = 2


_objects = [_Slotted(i) for i in range(500)]


def _integer_loop() -> None:
    s = 0
    for i in range(3000):
        s += i * i


def _dict_counts() -> None:
    d: dict[int, int] = {}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + 1


def _tuple_counts() -> None:
    d: dict[tuple[int, int], int] = {}
    for k in _tuple_keys:
        d[k] = d.get(k, 0) + 1


def _table_lookups() -> None:
    s = 0
    for k in _lookups:
        s += _table[k]


def _attributes() -> None:
    s = 0
    for _ in range(4):
        for o in _objects:
            s += o.x * o.y
            o.y = s & 7


def _small_numpy() -> None:
    for _ in range(60):
        _small.sum()
        np.argmax(_small)


# (kernel, nominal seconds for REPEATS calls) on the reference host named in
# README.md; only their ratios to the measured times matter.
KERNELS = (
    (_integer_loop, 4.0e-4),
    (_dict_counts, 5.5e-4),
    (_tuple_counts, 5.4e-4),
    (_table_lookups, 2.8e-4),
    (_attributes, 2.9e-4),
    (_small_numpy, 4.4e-4),
)
REPEATS = 2


def speed_factor() -> float:
    """How much slower than nominal the host runs just now (1 = nominal)."""
    clock = time.perf_counter
    log_sum = 0.0
    for kernel, nominal in KERNELS:
        started = clock()
        for _ in range(REPEATS):
            kernel()
        log_sum += math.log((clock() - started) / nominal)
    return math.exp(log_sum / len(KERNELS))


class SteadyClock:
    """Adjusts spans of wall time to the nominal host speed.

    Call `adjust` right after each span ends: it calibrates again, so the
    calibration itself always falls between spans, never inside one.
    """

    def __init__(self) -> None:
        self.factor = speed_factor()
        self.factors = [self.factor]

    def adjust(self, seconds: float) -> float:
        after = speed_factor()
        adjusted = seconds * 2.0 / (self.factor + after)
        self.factor = after
        self.factors.append(after)
        return adjusted
