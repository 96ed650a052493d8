"""Decoding-dependency graph kept by the SU receiver.

Undecoded SU and PU packets form the two sides of a bipartite directed
graph.  An edge u -> w records that a buffered slot becomes decodable for w
once u is known and its interference is cancelled.  Decoding any packet
therefore releases everything forward-reachable from it, which is the chain
this module computes.

A packet is labelled by a plain int: `su(n) = 2n` and `pu(n) = 2n + 1` for
the packets first sent in slot n, so the side is `label & 1` and the slot
`label >> 1`.  Only this module and `cd_protocol` know that encoding.

Packets that were never buffered next to an edge behave exactly like the
fresh, never-transmitted labels of the current slot: isolated, potential
one for an SU packet and zero for a PU packet.  Only edge-touched nodes are
stored; everything else is represented implicitly, which keeps memory
bounded by what pruning retains.  Most slots see a graph with no edge at
all, so the queries answer that case without a traversal: the closure of a
seed set is the seeds and the root is the fresh packet.  Argument checks
run either way.  What a slot decodes and buffers in each of the seven
outcome regions is stated once, in `SLOT_OUTCOMES`.

The slots of decoded packets are remembered only from a horizon on, which
the receiver moves up to the graph's slot at each cycle start
(`cd_protocol.run_slot`).  Below it a label is a node only
while it is stored: the graph no longer knows whether any other such label
was decoded, so every query that names one raises instead of guessing.
"""

from __future__ import annotations

from typing import Iterable

from .channel import PU_ALONE, PU_UNDER_SU, SU_CLEAN, SU_NEEDS_PU, SU_UNDER_PU

__all__ = [
    "su",
    "pu",
    "slot_of",
    "is_pu",
    "CdGraph",
    "closure",
    "potential",
    "root",
    "reachable",
    "prune_unreachable",
    "SLOT_OUTCOMES",
]


def su(slot: int) -> int:
    """Label of the SU packet first sent in `slot`."""
    return 2 * slot


def pu(slot: int) -> int:
    """Label of the PU packet first sent in `slot`."""
    return 2 * slot + 1


def slot_of(label: int) -> int:
    return label >> 1


def is_pu(label: int) -> bool:
    return bool(label & 1)


def _name(label: int) -> str:
    """3_S style, matching how packets are usually named."""
    return f"{slot_of(label)}_{'P' if is_pu(label) else 'S'}"


class CdGraph:
    """Mutable graph state; one instance per simulated receiver.

    `decoded_su` and `decoded_pu` hold the slots of the decoded packets the
    graph remembers, those since `horizon` was last set; the node sets
    and the edge dicts hold labels.  Besides the structure it keeps
    counters that change only when an edge is added, a node removed, a
    packet decoded or a cycle trim made (`cd_protocol.run_slot`): the
    stored edge count, the high-water marks of stored nodes, of edges and
    of remembered decoded slots, and the number of cycle trims and of those
    that found nothing stored.
    """

    def __init__(self, slot: int = 0):
        self.slot = slot
        self.su_nodes: set[int] = set()
        self.pu_nodes: set[int] = set()
        self.out_edges: dict[int, set[int]] = {}
        self.in_edges: dict[int, set[int]] = {}
        self.decoded_su: set[int] = set()
        self.decoded_pu: set[int] = set()
        self.horizon = 0
        self.discarded_su = 0
        self.max_nodes = 0
        self.max_edges = 0
        self.max_decoded = 0
        self.cycle_trims = 0
        self.empty_cycle_trims = 0
        self._edges = 0
        self._version = 0  # bumped on structural change only; keys the root cache
        self._best_cache: tuple[int, int | None, int] | None = None

    # -- structural helpers -------------------------------------------------

    def _stored(self, label: int) -> bool:
        return label in (self.pu_nodes if label & 1 else self.su_nodes)

    def is_decoded(self, label: int) -> bool:
        """Whether the packet was decoded; raises below the horizon unless stored."""
        slot = label >> 1
        if slot in (self.decoded_pu if label & 1 else self.decoded_su):
            return True
        if slot < self.horizon and not self._stored(label):
            raise ValueError(f"{_name(label)} lies below the horizon {self.horizon}")
        return False

    def contains(self, label: int) -> bool:
        """Node membership, counting implicit undecoded labels from the
        horizon up to the slot; below the horizon only stored labels."""
        slot = label >> 1
        if slot < self.horizon:
            return self._stored(label)
        return slot <= self.slot and slot not in (
            self.decoded_pu if label & 1 else self.decoded_su)

    def _touch(self, label: int):
        if self.is_decoded(label):
            raise ValueError(f"decoded packet {_name(label)} cannot re-enter the graph")
        (self.pu_nodes if label & 1 else self.su_nodes).add(label)

    def add_edge(self, src: int, dst: int):
        if src & 1 == dst & 1:
            raise ValueError(f"edge {_name(src)}->{_name(dst)} would break bipartiteness")
        self._touch(src)
        self._touch(dst)
        dsts = self.out_edges.setdefault(src, set())
        if dst not in dsts:
            dsts.add(dst)
            self.in_edges.setdefault(dst, set()).add(src)
            self._edges += 1
            self.max_edges = max(self.max_edges, self._edges)
        self.max_nodes = max(self.max_nodes, len(self.su_nodes) + len(self.pu_nodes))
        self._version += 1

    def _remove_node(self, label: int):
        for dst in self.out_edges.pop(label, ()):
            self._edges -= 1
            peers = self.in_edges.get(dst)
            if peers:
                peers.discard(label)
                if not peers:
                    del self.in_edges[dst]
        for src in self.in_edges.pop(label, ()):
            self._edges -= 1
            peers = self.out_edges.get(src)
            if peers:
                peers.discard(label)
                if not peers:
                    del self.out_edges[src]
        (self.pu_nodes if label & 1 else self.su_nodes).discard(label)
        self._version += 1

    def decode(self, labels: set) -> int:
        """Mark the labels decoded, dropping the stored ones; returns the
        SU packets newly decoded."""
        newly_su = 0
        for lab in labels:
            if lab & 1:
                self.decoded_pu.add(lab >> 1)
                if lab in self.pu_nodes:
                    self._remove_node(lab)
            else:
                if lab >> 1 not in self.decoded_su:
                    self.decoded_su.add(lab >> 1)
                    newly_su += 1
                if lab in self.su_nodes:
                    self._remove_node(lab)
        remembered = len(self.decoded_su) + len(self.decoded_pu)
        if remembered > self.max_decoded:
            self.max_decoded = remembered
        return newly_su

    def edge_count(self) -> int:
        return self._edges

    def snapshot(self) -> dict:
        """Line-dump-friendly view of the stored graph, for debugging."""
        return {
            "slot": self.slot,
            "su_nodes": sorted(slot_of(n) for n in self.su_nodes),
            "pu_nodes": sorted(slot_of(n) for n in self.pu_nodes),
            "edges": sorted(
                (_name(src), _name(dst))
                for src, dsts in self.out_edges.items()
                for dst in dsts
            ),
        }


# -- queries -----------------------------------------------------------------


def closure(g: CdGraph, seeds: Iterable[int]) -> set[int]:
    """Labels forward-reachable from `seeds`, seeds included.

    Breadth-first traversal; equivalent to iterating the adjacency matrix to
    its fixpoint, since reachability indicators only ever grow.  With no
    edge stored nothing lies beyond the seeds.
    """
    seen = set()
    for s in seeds:
        if not g.contains(s):
            raise ValueError(f"seed {_name(s)} is not a node of the graph")
        seen.add(s)
    out = g.out_edges
    if out:
        frontier = list(seen)
        while frontier:
            nxt = []
            for node in frontier:
                for dst in out.get(node, ()):
                    if dst not in seen:
                        seen.add(dst)
                        nxt.append(dst)
            frontier = nxt
    return seen


def potential(g: CdGraph, label: int) -> int:
    """Number of SU packets released by starting the chain at `label`."""
    return sum(not x & 1 for x in closure(g, [label]))


def reachable(g: CdGraph, frm: int, to: int) -> bool:
    if not g.contains(to):
        raise ValueError(f"{_name(to)} is not a node of the graph")
    if not g.out_edges:
        if not g.contains(frm):
            raise ValueError(f"seed {_name(frm)} is not a node of the graph")
        return frm == to
    return to in closure(g, [frm])


def root(g: CdGraph) -> tuple[int, int]:
    """SU packet of maximum potential, ties broken toward the newest label.

    The fresh label of the current slot always has potential one and the
    largest label, so an edge-free graph roots at the fresh packet, and a
    stored node only wins with potential at least two.  The best stored
    node is cached until the graph structure changes.
    """
    if not g.out_edges:
        return su(g.slot), 1
    cached = g._best_cache
    if cached is None or cached[0] != g._version:
        best = None
        best_v = 0
        for node in g.su_nodes:
            v = potential(g, node)
            if v > best_v or (v == best_v and best is not None and node > best):
                best, best_v = node, v
        cached = (g._version, best, best_v)
        g._best_cache = cached
    _, stored, stored_v = cached
    if stored is None or stored_v <= 1:
        return su(g.slot), 1
    return stored, stored_v


# -- one slot's outcome -------------------------------------------------------


def _slot_outcome(su_sent: int, pu_unknown: int, y: int) -> tuple:
    if su_sent and pu_unknown:
        return (y in SU_UNDER_PU, y in PU_UNDER_SU,
                ((1, 0),) * (y in SU_NEEDS_PU) + ((0, 1),) * (y in PU_ALONE - PU_UNDER_SU))
    return bool(su_sent) and y in SU_CLEAN, bool(pu_unknown) and y in PU_ALONE, ()


# What one slot decodes and buffers, by (SU sent, PU packet not yet known,
# outcome region y): whether the SU packet and the PU packet sent are
# decoded directly, and the dependency edges buffered, each a (source,
# destination) pair of sides, 0 for the SU packet and 1 for the PU packet.
# The PU sends in every slot; a known PU packet is cancelled before
# decoding, so it interferes with nothing.  Each packet decoded releases
# its closure.
SLOT_OUTCOMES = {
    (s, p, y): _slot_outcome(s, p, y) for s in (0, 1) for p in (0, 1) for y in range(1, 8)
}


def prune_unreachable(g: CdGraph, keep_root: int) -> int:
    """Drop every stored node outside the kept root's forward closure.

    Implicit fresh labels are untouched.  Returns the number of SU packets
    discarded, which the run reports as `trimmed_su`; dropped packets were
    transmitted at least once and are now unrecoverable.
    """
    if keep_root & 1 or not g.contains(keep_root):
        raise ValueError(f"keep_root {_name(keep_root)} is not an SU node of the graph")
    keep = closure(g, [keep_root])
    dropped_su = 0
    for node in list(g.su_nodes):
        if node not in keep:
            g._remove_node(node)
            dropped_su += 1
    for node in list(g.pu_nodes):
        if node not in keep:
            g._remove_node(node)
    g.discarded_su += dropped_su
    return dropped_su
