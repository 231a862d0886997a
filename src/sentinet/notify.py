"""Deficiency notification protocol: emit, one-hop-per-step flood, decay, merge.

A node whose standing security falls below its requirement emits a packet
carrying the missing amount on every link. Receivers relay only the strongest
packet they saw this step, decremented once per hop and never back along the
link it arrived on, so a shortfall of v is visible exactly v hops out and the
load on any single link stays at one packet per direction per step. Nothing
is stored between steps.

`relay` runs one step for the whole graph as array operations on the CSR
adjacency, read receiver-major: CSR slot s of row r is receiver r hearing
its neighbour over one link. Two masks pick the senders: emitters (a fresh
deficiency) and forwarders (a heard packet still above the threshold after
its decrement); a third marks the slots that carry a send. Each receiver's
packet is then one segmented reduction over its row: the highest value
(`np.maximum.reduceat`), then among the slots that tie on it the lowest
(origin, link) key (`np.minimum.reduceat`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import Topology, TopologyError


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


def relay(
    topology: Topology,
    params: NotifyParams,
    lacking: np.ndarray,
    value: np.ndarray,
    origin: np.ndarray,
    link: np.ndarray,
    per_connection: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """One synchronous step of the protocol over the whole graph.

    `lacking` holds each node's fresh deficiency; `value`, `origin` and `link`
    the strongest packet each node received last step (value 0 marks none).
    Returns the strongest packet each node receives now as (value, origin,
    link, sender) arrays, ties going to the lower origin and then link, plus
    the packets sent and the peak load on one link direction.
    `per_connection` counts the packets sent over each link, in place.
    """
    new_value = np.zeros_like(value)
    new_origin = np.zeros_like(origin)
    new_link = np.full_like(link, -1)
    new_from = np.full_like(link, -1)

    emit = lacking > 0
    if not params.own_emission_wins:
        emit &= value <= lacking
    sends = emit | ((value > 0) & (value - 1.0 > params.forward_threshold))
    if not sends.any():
        return new_value, new_origin, new_link, new_from, 0, 0
    # What each node sends, once per node: its own deficiency or the decayed relay.
    out_value = np.where(emit, lacking, value - 1.0)
    out_origin = np.where(emit, np.arange(len(value)), origin)

    # Slot s of row r: receiver r hears sender adj_neighbors[s] over adj_links[s].
    # A forwarder never sends back along its arrival link; an emitter uses all.
    receiver, sender, via = topology.adj_nodes, topology.adj_neighbors, topology.adj_links
    heard = sends[sender] & (emit[sender] | (via != link[sender]))
    if not heard.any():
        return new_value, new_origin, new_link, new_from, 0, 0

    # Each receiver keeps its packet of higher value, then lower origin, then
    # lower link. Values sent are positive, so 0 marks a silent slot. A
    # receiver hears each link once, so the (origin, link) key is unique in a row.
    rows = np.flatnonzero(topology.degrees)
    starts = topology.adj_indptr[rows]
    slot_value = np.where(heard, out_value[sender], 0.0)
    top = np.zeros_like(value)
    top[rows] = np.maximum.reduceat(slot_value, starts)
    key = out_origin[sender] * len(topology.edges) + via
    key = np.where(heard & (slot_value == top[receiver]), key, np.iinfo(np.int64).max)
    first = np.zeros(len(value), dtype=np.int64)
    first[rows] = np.minimum.reduceat(key, starts)
    win = np.flatnonzero(heard & (key == first[receiver]))
    at, by = receiver[win], sender[win]
    new_value[at], new_origin[at], new_link[at], new_from[at] = slot_value[win], out_origin[by], via[win], by

    heard_via = via[heard]
    per_connection += np.bincount(heard_via, minlength=len(per_connection))
    peak = np.bincount(2 * heard_via + (sender[heard] < receiver[heard])).max()
    return new_value, new_origin, new_link, new_from, len(heard_via), int(peak)


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
    if value <= 0:
        raise ValueError("notification packets must carry a positive value")
    params = params or NotifyParams()
    n = topology.node_count
    if not 0 <= origin < n:
        raise TopologyError(f"unknown node {origin}")
    lacking = np.zeros(n)
    lacking[origin] = value
    heard = (np.zeros(n), np.zeros(n, dtype=np.int64), np.full(n, -1, dtype=np.int64))
    per_connection = np.zeros(len(topology.edges), dtype=np.int64)
    arrival_step: dict[int, int] = {}
    arrival_value: dict[int, float] = {}
    per_step: list[int] = []
    limit = max_steps if max_steps is not None else n + int(value) + 2
    for step_index in range(1, limit + 1):
        *heard, _, sent, _ = relay(topology, params, lacking, *heard, per_connection)
        lacking[origin] = 0.0
        for node in np.flatnonzero(heard[0] > 0).tolist():
            # The source knew at emission; echoes are not news.
            if node != origin and node not in arrival_step:
                arrival_step[node] = step_index
                arrival_value[node] = float(heard[0][node])
        per_step.append(sent)
        if not sent:
            break
    return arrival_step, arrival_value, per_step
