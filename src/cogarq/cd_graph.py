"""Decoding-dependency graph kept by the SU receiver.

Undecoded SU and PU packets form the two sides of a bipartite directed
graph.  An edge u -> w records that a buffered slot becomes decodable for w
once u is known and its interference is cancelled.  Decoding any packet
therefore releases everything forward-reachable from it, which is the chain
this module computes.

Packets that were never buffered next to an edge behave exactly like the
fresh, never-transmitted labels of the current slot: isolated, potential
one for an SU packet and zero for a PU packet.  Only edge-touched nodes are
stored; everything else is represented implicitly, which keeps memory
bounded by what pruning retains.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .channel import PU_ALONE, SU_CLEAN

__all__ = [
    "PacketLabel",
    "su",
    "pu",
    "ClosureResult",
    "CdGraph",
    "closure",
    "potential",
    "root",
    "reachable",
    "record_slot",
    "prune_unreachable",
]

SU_SIDE = "S"
PU_SIDE = "P"


class PacketLabel(NamedTuple):
    slot: int
    side: str

    def __repr__(self):  # 3_S style, matching how packets are usually named
        return f"{self.slot}_{self.side}"


def su(slot: int) -> PacketLabel:
    return PacketLabel(slot, SU_SIDE)


def pu(slot: int) -> PacketLabel:
    return PacketLabel(slot, PU_SIDE)


class ClosureResult(NamedTuple):
    decoded_su: frozenset
    decoded_pu: frozenset
    su_count: int


class CdGraph:
    """Mutable graph state; one instance per simulated receiver."""

    def __init__(self, slot: int = 0):
        self.slot = slot
        self.su_nodes: set[PacketLabel] = set()
        self.pu_nodes: set[PacketLabel] = set()
        self.out_edges: dict[PacketLabel, set[PacketLabel]] = {}
        self.in_edges: dict[PacketLabel, set[PacketLabel]] = {}
        self.decoded_su: set[int] = set()
        self.decoded_pu: set[int] = set()
        self.discarded_su = 0
        self._version = 0  # bumped on structural change only; keys the root cache
        self._best_cache: tuple[int, PacketLabel | None, int] | None = None

    # -- structural helpers -------------------------------------------------

    def is_decoded(self, label: PacketLabel) -> bool:
        flags = self.decoded_su if label.side == SU_SIDE else self.decoded_pu
        return label.slot in flags

    def contains(self, label: PacketLabel) -> bool:
        """Node membership, counting implicit undecoded labels up to the slot."""
        if label.side not in (SU_SIDE, PU_SIDE):
            return False
        return 0 <= label.slot <= self.slot and not self.is_decoded(label)

    def stored(self, label: PacketLabel) -> bool:
        return label in (self.su_nodes if label.side == SU_SIDE else self.pu_nodes)

    def _touch(self, label: PacketLabel):
        if self.is_decoded(label):
            raise ValueError(f"decoded packet {label} cannot re-enter the graph")
        nodes = self.su_nodes if label.side == SU_SIDE else self.pu_nodes
        nodes.add(label)

    def add_edge(self, src: PacketLabel, dst: PacketLabel):
        if src.side == dst.side:
            raise ValueError(f"edge {src}->{dst} would break bipartiteness")
        self._touch(src)
        self._touch(dst)
        self.out_edges.setdefault(src, set()).add(dst)
        self.in_edges.setdefault(dst, set()).add(src)
        self._version += 1

    def _remove_node(self, label: PacketLabel):
        for dst in self.out_edges.pop(label, ()):
            peers = self.in_edges.get(dst)
            if peers:
                peers.discard(label)
                if not peers:
                    del self.in_edges[dst]
        for src in self.in_edges.pop(label, ()):
            peers = self.out_edges.get(src)
            if peers:
                peers.discard(label)
                if not peers:
                    del self.out_edges[src]
        (self.su_nodes if label.side == SU_SIDE else self.pu_nodes).discard(label)
        self._version += 1

    def edge_count(self) -> int:
        return sum(len(v) for v in self.out_edges.values())

    def snapshot(self) -> dict:
        """Line-dump-friendly view of the stored graph, for debugging."""
        return {
            "slot": self.slot,
            "su_nodes": sorted(n.slot for n in self.su_nodes),
            "pu_nodes": sorted(n.slot for n in self.pu_nodes),
            "edges": sorted(
                (str(src), str(dst))
                for src, dsts in self.out_edges.items()
                for dst in dsts
            ),
        }


# -- queries -----------------------------------------------------------------


def closure(g: CdGraph, seeds: Iterable[PacketLabel]) -> ClosureResult:
    """Forward-reachable set from `seeds`, seeds included.

    Breadth-first traversal; equivalent to iterating the adjacency matrix to
    its fixpoint, since reachability indicators only ever grow.
    """
    seeds = list(seeds)
    for s in seeds:
        if not g.contains(s):
            raise ValueError(f"seed {s} is not a node of the graph")
    seen: set[PacketLabel] = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt: list[PacketLabel] = []
        for node in frontier:
            for dst in g.out_edges.get(node, ()):
                if dst not in seen:
                    seen.add(dst)
                    nxt.append(dst)
        frontier = nxt
    dec_su = frozenset(x for x in seen if x.side == SU_SIDE)
    dec_pu = frozenset(x for x in seen if x.side == PU_SIDE)
    return ClosureResult(dec_su, dec_pu, len(dec_su))


def potential(g: CdGraph, label: PacketLabel) -> int:
    """Number of SU packets released by starting the chain at `label`."""
    return closure(g, [label]).su_count


def reachable(g: CdGraph, frm: PacketLabel, to: PacketLabel) -> bool:
    if not g.contains(to):
        raise ValueError(f"{to} is not a node of the graph")
    res = closure(g, [frm])
    return to in res.decoded_su or to in res.decoded_pu


def root(g: CdGraph) -> tuple[PacketLabel, int]:
    """SU packet of maximum potential, ties broken toward the newest label.

    The fresh label of the current slot always has potential one and the
    largest label, so an edge-free graph roots at the fresh packet, and a
    stored node only wins with potential at least two.  The best stored
    node is cached until the graph structure changes.
    """
    cached = g._best_cache
    if cached is None or cached[0] != g._version:
        best = None
        best_v = 0
        for node in g.su_nodes:
            v = potential(g, node)
            if v > best_v or (v == best_v and best is not None and node.slot > best.slot):
                best, best_v = node, v
        cached = (g._version, best, best_v)
        g._best_cache = cached
    _, stored, stored_v = cached
    if stored is None or stored_v <= 1:
        return su(g.slot), 1
    return stored, stored_v


# -- slot recording ------------------------------------------------------------


def _commit_decodes(g: CdGraph, res: ClosureResult) -> int:
    newly_su = 0
    for lab in res.decoded_su:
        if lab.slot not in g.decoded_su:
            g.decoded_su.add(lab.slot)
            newly_su += 1
        if g.stored(lab):
            g._remove_node(lab)
    for lab in res.decoded_pu:
        g.decoded_pu.add(lab.slot)
        if g.stored(lab):
            g._remove_node(lab)
    return newly_su


def record_slot(
    g: CdGraph,
    l_s: PacketLabel | None,
    l_p: PacketLabel | None,
    pu_known: int,
    y: int | None,
) -> int:
    """Fold one slot's transmissions and outcome into the graph.

    `l_s` / `l_p` are the labels actually transmitted (None when that side
    stayed idle), `pu_known` says whether the PU packet was already decoded
    here, and `y` is the outcome region.  Returns the number of SU packets
    decoded this slot; the graph advances to the next slot in place.
    """
    if l_s is None and l_p is None:
        if y is not None:
            raise ValueError("outcome given for a slot with no transmissions")
        g.slot += 1
        return 0
    if y not in (1, 2, 3, 4, 5, 6, 7):
        raise ValueError(f"outcome region must be in 1..7, got {y!r}")
    if l_s is not None:
        if l_s.side != SU_SIDE or not g.contains(l_s):
            raise ValueError(f"invalid SU label {l_s}")
    if l_p is not None:
        if l_p.side != PU_SIDE:
            raise ValueError(f"invalid PU label {l_p}")
        if bool(pu_known) != (l_p.slot in g.decoded_pu):
            raise ValueError(f"pu_known={pu_known} inconsistent with graph state for {l_p}")

    r_s = 0
    if l_p is not None and pu_known:
        # Interference from the known PU packet is cancelled up front, so the
        # slot behaves as if the PU were idle.
        if l_s is not None and y in SU_CLEAN:
            r_s = _commit_decodes(g, closure(g, [l_s]))
    elif l_p is None:
        if l_s is not None and y in SU_CLEAN:
            r_s = _commit_decodes(g, closure(g, [l_s]))
    elif l_s is None:
        if y in PU_ALONE:
            r_s = _commit_decodes(g, closure(g, [l_p]))
    else:
        if y == 1:
            r_s = _commit_decodes(g, closure(g, [l_s, l_p]))
        elif y == 2:
            r_s = _commit_decodes(g, closure(g, [l_s]))
        elif y == 3:
            r_s = _commit_decodes(g, closure(g, [l_p]))
        elif y == 5:
            g.add_edge(l_p, l_s)
        elif y == 6:
            g.add_edge(l_s, l_p)
        elif y == 7:
            g.add_edge(l_p, l_s)
            g.add_edge(l_s, l_p)
    g.slot += 1
    return r_s


def prune_unreachable(g: CdGraph, keep_root: PacketLabel) -> int:
    """Drop every stored node outside the kept root's forward closure.

    Implicit fresh labels are untouched.  Returns the number of SU packets
    discarded, which feeds the drop-rate diagnostic; dropped packets were
    transmitted at least once and are now unrecoverable.
    """
    if keep_root.side != SU_SIDE or not g.contains(keep_root):
        raise ValueError(f"keep_root {keep_root} is not an SU node of the graph")
    kept = closure(g, [keep_root])
    keep = kept.decoded_su | kept.decoded_pu
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
