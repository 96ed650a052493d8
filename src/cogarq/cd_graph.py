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
bounded by what pruning retains.  What a slot decodes and buffers in each
of the seven outcome regions is stated once, in `SLOT_OUTCOMES`.

Each stored node holds a small bit index, and its out-edges and exact
forward reach, itself included, are int bitmasks: a closure is an OR of
reach masks, reachability a bit test and a potential a popcount.  An added
edge extends the reach of every node that reaches its source.  Nodes leave
only as a closure or everything outside one, which no path between two
kept nodes passes through, so the kept reach masks only lose their bits.

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
    graph remembers, those since `horizon` was last set.  `index` maps each
    stored label to its bit index, and `out` and `reach` map the bit index
    of each stored node to its out-edge mask and reach mask; `su_mask` holds
    the bits of the stored SU nodes.  The counters change only when an edge
    is added, a node removed, a packet decoded or a cycle trim made
    (`cd_protocol.run_slot`).
    """

    def __init__(self, slot: int = 0):
        self.slot = slot
        self.index: dict[int, int] = {}
        self.out: dict[int, int] = {}
        self.reach: dict[int, int] = {}
        self.su_mask = 0
        self.decoded_su: set[int] = set()
        self.decoded_pu: set[int] = set()
        self.horizon = 0
        self.discarded_su = 0
        self.max_nodes = 0
        self.max_edges = 0
        self.max_decoded = 0
        self.cycle_trims = 0
        self.empty_cycle_trims = 0
        self._used = 0  # the bits of the stored nodes
        self._edges = 0
        self._version = 0  # bumped on structural change only; keys the root cache
        self._best_cache: tuple[int, int, int] | None = None

    @property
    def su_nodes(self) -> set[int]:
        return {label for label in self.index if not label & 1}

    @property
    def pu_nodes(self) -> set[int]:
        return {label for label in self.index if label & 1}

    def contains(self, label: int) -> bool:
        """Node membership, counting implicit undecoded labels from the
        horizon up to the slot; below the horizon only stored labels."""
        slot = label >> 1
        if slot < self.horizon:
            return label in self.index
        return slot <= self.slot and slot not in (
            self.decoded_pu if label & 1 else self.decoded_su)

    def _store(self, label: int) -> int:
        """The bit index of `label`, stored first if it is not."""
        b = self.index.get(label)
        if b is None:
            slot = label >> 1
            if slot < self.horizon or slot in (self.decoded_pu if label & 1 else self.decoded_su):
                raise ValueError(f"{_name(label)} is decoded or lies below the horizon")
            low = ~self._used & (self._used + 1)  # the lowest free bit
            b = self.index[label] = low.bit_length() - 1
            self.out[b], self.reach[b] = 0, low
            self._used |= low
            if not label & 1:
                self.su_mask |= low
        return b

    def add_edge(self, src: int, dst: int):
        if src & 1 == dst & 1:
            raise ValueError(f"edge {_name(src)}->{_name(dst)} would break bipartiteness")
        s, d = self._store(src), self._store(dst)
        if not self.out[s] >> d & 1:
            self.out[s] |= 1 << d
            self._edges += 1
            self.max_edges = max(self.max_edges, self._edges)
            reach, gained, src_bit = self.reach, self.reach[d], 1 << s
            for b, r in reach.items():
                if r & src_bit:
                    reach[b] = r | gained
        self.max_nodes = max(self.max_nodes, len(self.index))
        self._version += 1

    def _drop(self, mask: int):
        """Remove the stored nodes in `mask`, which no path between two kept
        nodes passes through."""
        out, reach, keep = self.out, self.reach, ~mask
        for label, b in list(self.index.items()):
            if mask >> b & 1:  # its out-edges go with it
                self._edges -= out.pop(b).bit_count()
                del self.index[label], reach[b]
            else:
                cut = out[b] & mask
                if cut:
                    self._edges -= cut.bit_count()
                    out[b] ^= cut
                reach[b] &= keep
        self._used &= keep
        self.su_mask &= keep
        self._version += 1

    def decode(self, labels: set) -> int:
        """Mark the labels decoded, dropping the stored ones; returns the SU
        packets newly decoded.  `labels` is a `closure`, which keeps the
        reach masks of the nodes left exact."""
        mask = newly_su = 0
        for lab in labels:
            if lab & 1:
                self.decoded_pu.add(lab >> 1)
            elif lab >> 1 not in self.decoded_su:
                self.decoded_su.add(lab >> 1)
                newly_su += 1
            b = self.index.get(lab)
            if b is not None:
                mask |= 1 << b
        if mask:
            self._drop(mask)
        self.max_decoded = max(self.max_decoded, len(self.decoded_su) + len(self.decoded_pu))
        return newly_su

    def edge_count(self) -> int:
        return self._edges


# -- queries -----------------------------------------------------------------


def _bit(g: CdGraph, label: int) -> int | None:
    """The bit index of node `label`, None if it is not stored; raises
    when the label is no node of the graph."""
    b = g.index.get(label)
    if b is None and not g.contains(label):
        raise ValueError(f"{_name(label)} is not a node of the graph")
    return b


def closure(g: CdGraph, seeds: Iterable[int]) -> set[int]:
    """Labels forward-reachable from `seeds`, seeds included: a stored seed
    reaches its reach mask, any other seed only itself."""
    mask, found = 0, set()
    for s in seeds:
        b = _bit(g, s)
        if b is None:
            found.add(s)
        else:
            mask |= g.reach[b]
    return found.union([label for label, b in g.index.items() if mask >> b & 1]) if mask else found


def potential(g: CdGraph, label: int) -> int:
    """Number of SU packets released by starting the chain at `label`."""
    b = _bit(g, label)
    return int(not label & 1) if b is None else (g.reach[b] & g.su_mask).bit_count()


def reachable(g: CdGraph, frm: int, to: int) -> bool:
    d, b = _bit(g, to), _bit(g, frm)
    if b is None or d is None:  # an unstored node reaches and is reached by itself only
        return frm == to
    return bool(g.reach[b] >> d & 1)


def root(g: CdGraph) -> tuple[int, int]:
    """SU packet of maximum potential, ties broken toward the newest label.

    The fresh label of the current slot always has potential one and the
    largest label, so an edge-free graph roots at the fresh packet, and a
    stored node only wins with potential at least two.  The best stored
    node is cached until the graph structure changes.
    """
    if not g._edges:
        return su(g.slot), 1
    cached = g._best_cache
    if cached is None or cached[0] != g._version:
        best = (0, -1)
        for x in g.index:  # a loop: faster than max() on a handful of nodes
            if not x & 1 and (v := (potential(g, x), x)) > best:
                best = v
        cached = g._best_cache = (g._version, *best)
    _, stored_v, stored = cached
    if stored_v <= 1:
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
    b = g.index.get(keep_root)
    dropped = g._used & ~(0 if b is None else g.reach[b])
    dropped_su = (g.su_mask & dropped).bit_count()
    if dropped:
        g._drop(dropped)
    g.discarded_su += dropped_su
    return dropped_su
