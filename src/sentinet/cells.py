"""Security agents ("cells") and their per-step movement decision.

A cell lives on one node per timestep. Packet checkers contribute standing
security at their node and respond to deficiency notifications; node checkers
sweep nodes for installed intrusions and are routed by the trail tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Protocol, Sequence

import numpy as np

from .topology import Connection


class CellKind(Enum):
    PACKET_CHECKER = "packet_checker"
    NODE_CHECKER = "node_checker"


@dataclass
class MovementParams:
    """Clamped-linear response curve for the per-step move probability.

    base_probability is the resting affinity to move, gain scales the response
    to a reported security shortfall, max_probability caps the response so the
    whole population never stampedes at once.
    """

    base_probability: float = 0.1
    gain: float = 0.05
    max_probability: float = 0.8

    def validate(self) -> None:
        if not 0.0 <= self.base_probability <= self.max_probability <= 1.0:
            raise ValueError("need 0 <= base_probability <= max_probability <= 1")
        if not 0.0 <= self.gain < math.inf:
            raise ValueError("gain must be finite and non-negative")


@dataclass
class Cell:
    cell_id: int
    cell_type: int
    kind: CellKind
    location: int
    security_value: float = 1.0
    params: MovementParams | None = None


@dataclass(frozen=True)
class NotificationView:
    """What a node's residents see of the strongest notification this step."""

    value: float
    arrival: Connection


class TrailSelector(Protocol):
    def select(self, rng: np.random.Generator) -> Connection: ...


def node_security(cells: Iterable[Cell]) -> float:
    """Sum of the security contributions of the packet checkers present.

    Node checkers are transient inspectors and do not count toward standing
    packet coverage.
    """
    return float(
        sum(c.security_value for c in cells if c.kind is CellKind.PACKET_CHECKER)
    )


def movement_probability(params: MovementParams, lacking: float) -> float:
    """min(base + gain * lacking, max); monotone in lacking, capped."""
    if lacking < 0:
        raise ValueError("lacking security must be non-negative")
    return min(params.base_probability + params.gain * lacking, params.max_probability)


def decide_move(
    cell: Cell,
    here_lacking: float,
    neighbors: Sequence[tuple[Connection, int]],
    best_notification: NotificationView | None,
    trail_view: TrailSelector | None,
    rng: np.random.Generator,
) -> Connection | None:
    """One movement decision. Returns the link to follow, or None to stay.

    Packet checkers at a node with lacking security stay put regardless of the
    rng. Otherwise they move with probability given by the strongest received
    notification (or the resting rate when there is none); a notified mover
    backtracks along the notification's arrival link, an unnotified one picks
    a uniform neighbor. Node checkers move every step, routed by the trail
    selector when one is supplied and uniformly otherwise.
    """
    if not neighbors:
        return None
    if cell.kind is CellKind.PACKET_CHECKER:
        if here_lacking > 0:
            return None
        params = cell.params or MovementParams()
        value = best_notification.value if best_notification is not None else 0.0
        if rng.random() >= movement_probability(params, value):
            return None
        if best_notification is not None:
            return best_notification.arrival
        # floor(u * n) so one uniform draw maps onto the neighbor index.
        return neighbors[int(rng.random() * len(neighbors))][0]
    if trail_view is not None:
        return trail_view.select(rng)
    return neighbors[int(rng.random() * len(neighbors))][0]
