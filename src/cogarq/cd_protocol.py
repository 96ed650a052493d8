"""Packet-selection rules for the SU transmitter.

Whenever the access policy says transmit, the SU either sends a fresh
packet or retransmits the root of the decoding graph, never anything else.
The choice depends only on whether the upcoming PU packet is already known
at the SU receiver and on its reachability relationship with the root.  At
the start of every primary ARQ cycle the graph is trimmed down to what the
root can still release.
"""

from __future__ import annotations

from .cd_graph import CdGraph, prune_unreachable, reachable, root, su

__all__ = ["FRESH", "ROOT_RETX", "LabelDecision", "select_label", "on_new_cycle"]

FRESH = "FRESH"
ROOT_RETX = "ROOT_RETX"


class LabelDecision:
    """The SU label chosen for a slot (a `cd_graph` label) and its kind."""

    __slots__ = ("label", "kind")

    def __init__(self, label: int, kind: str):
        if kind not in (FRESH, ROOT_RETX):
            raise ValueError(f"unknown decision kind {kind!r}")
        self.label = label
        self.kind = kind


def select_label(g: CdGraph, l_p: int, pu_known: int, n: int) -> LabelDecision:
    """Choose the SU label for slot n given the prospective PU label.

    Known PU packet: retransmit the root, its interference will be
    pre-cancelled.  Unknown and disconnected from the root in both
    directions: retransmit the root to try to hook the PU packet into the
    graph.  Unknown but connected in either direction: send a fresh packet,
    the connection already carries the root's potential.
    """
    if n != g.slot:
        raise ValueError(f"graph is at slot {g.slot}, not {n}")
    rt, _ = root(g)
    fresh = su(n)
    if pu_known:
        choice = rt
    else:
        linked = reachable(g, rt, l_p) or reachable(g, l_p, rt)
        choice = fresh if linked else rt
    return LabelDecision(choice, FRESH if choice == fresh else ROOT_RETX)


def on_new_cycle(g: CdGraph) -> int:
    """Trim the graph to the root's closure; returns SU packets discarded.

    A graph that stores no node has nothing to trim.
    """
    g.cycle_trims += 1
    if not (g.su_nodes or g.pu_nodes):
        g.empty_cycle_trims += 1
        return 0
    rt, _ = root(g)
    return prune_unreachable(g, rt)
