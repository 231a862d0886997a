"""Deficiency notification protocol: emit, one-hop-per-step flood, decay, merge.

A node whose standing security falls below its requirement emits a packet
carrying the missing amount on every link. Receivers relay only the strongest
packet they saw this step, decremented once per hop and never back along the
link it arrived on, so a shortfall of v is visible exactly v hops out and the
load on any single link stays at one packet per direction per step. Nothing
is stored between steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .topology import Connection, Topology


@dataclass(frozen=True)
class NotificationPacket:
    origin: int
    value: float
    arrival: Connection | None = None

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError("notification packets must carry a positive value")


@dataclass
class NotifyParams:
    # Relay only while the decayed value stays strictly above this.
    forward_threshold: float = 0.0
    # When a node both emits and relays, its own fresh deficiency wins.
    # Set False to forward whichever value is larger instead.
    own_emission_wins: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.forward_threshold < math.inf:
            raise ValueError("forward_threshold must be finite and non-negative")


def _packet_order(packet: NotificationPacket) -> tuple[float, int, int]:
    link = packet.arrival.link_id if packet.arrival is not None else -1
    return (-packet.value, packet.origin, link)


@dataclass
class NotificationInbox:
    """Packets a node received this timestep. Cleared every step."""

    packets: list[NotificationPacket] = field(default_factory=list)

    def add(self, packet: NotificationPacket) -> None:
        self.packets.append(packet)

    @property
    def best(self) -> NotificationPacket | None:
        """Highest value; ties go to the lower origin id, then lower link id."""
        if not self.packets:
            return None
        return min(self.packets, key=_packet_order)

    def clear(self) -> None:
        self.packets.clear()


def emit_deficiency(node: int, security_level: float, min_security: float) -> NotificationPacket | None:
    """A packet carrying the missing amount, or None when security suffices."""
    if security_level < 0 or min_security < 0:
        raise ValueError("security levels must be non-negative")
    if min_security > security_level:
        return NotificationPacket(origin=node, value=min_security - security_level)
    return None


def decay(value: float) -> float:
    """Per-hop decrement applied when a packet is relayed."""
    if value <= 0:
        raise ValueError("only positive values are relayed")
    return value - 1.0


def forward_step(
    node: int,
    neighbors: Sequence[tuple[Connection, int]],
    inbox: NotificationInbox,
    own_emission: NotificationPacket | None,
    params: NotifyParams | None = None,
) -> list[tuple[Connection, NotificationPacket]]:
    """Sends this node produces this step: at most one packet per link.

    An own emission goes out undecayed on every link. A relayed packet goes
    out decremented on every link except the one it arrived on, and only if
    the decremented value still clears the forwarding threshold.
    """
    params = params or NotifyParams()
    candidate = own_emission
    relayed = inbox.best
    if candidate is None:
        candidate = relayed
    elif not params.own_emission_wins and relayed is not None and relayed.value > candidate.value:
        candidate = relayed
    if candidate is None:
        return []

    sends: list[tuple[Connection, NotificationPacket]] = []
    if candidate is own_emission and candidate.arrival is None:
        for conn, _ in neighbors:
            sends.append((conn, NotificationPacket(candidate.origin, candidate.value, conn)))
        return sends
    forwarded = decay(candidate.value)
    if forwarded <= params.forward_threshold:
        return []
    for conn, _ in neighbors:
        if candidate.arrival is not None and conn.link_id == candidate.arrival.link_id:
            continue
        sends.append((conn, NotificationPacket(candidate.origin, forwarded, conn)))
    return sends


def flood_trace(
    topology: Topology,
    origin: int,
    value: float,
    params: NotifyParams | None = None,
    max_steps: int | None = None,
) -> tuple[dict[int, int], dict[int, float], list[int]]:
    """Run a single emission to exhaustion with no other traffic.

    Returns (first arrival step per node, value seen on first arrival,
    packets sent per step). The emitting step counts as step 1, so a node at
    hop distance d first hears the news at step d.
    """
    params = params or NotifyParams()
    inboxes = [NotificationInbox() for _ in range(topology.node_count)]
    arrival_step: dict[int, int] = {}
    arrival_value: dict[int, float] = {}
    per_step: list[int] = []
    own: NotificationPacket | None = NotificationPacket(origin, value)
    limit = max_steps if max_steps is not None else topology.node_count + int(value) + 2
    for step_index in range(1, limit + 1):
        sends: list[tuple[int, Connection, NotificationPacket]] = []
        for node in range(topology.node_count):
            emission = own if node == origin else None
            if emission is None and not inboxes[node].packets:
                continue
            for conn, packet in forward_step(
                node, topology.neighbors(node), inboxes[node], emission, params
            ):
                sends.append((node, conn, packet))
        own = None
        for box in inboxes:
            box.clear()
        for sender, conn, packet in sends:
            receiver = conn.other(sender)
            inboxes[receiver].add(packet)
            if receiver == origin:
                continue  # the source knew at emission; echoes are not news
            if receiver not in arrival_step:
                arrival_step[receiver] = step_index
                arrival_value[receiver] = packet.value
            elif arrival_step[receiver] == step_index:
                arrival_value[receiver] = max(arrival_value[receiver], packet.value)
        per_step.append(len(sends))
        if not sends:
            break
    return arrival_step, arrival_value, per_step
