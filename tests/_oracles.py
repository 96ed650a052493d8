"""Independent oracles and scalar references used only by the tests.

These deliberately avoid the package's own code paths: region probabilities
come from Monte Carlo sampling of the gains (with a Gauss-Laguerre
quadrature as a coarse cross-check), chain closure from boolean adjacency
matrix powers, and the constrained solve from policy iteration inside a
multiplier bisection, evaluated by powers of the lazy chain.  The package
computes the first and last exactly: closed-form region integrals and an
occupation-measure LP.

The package runs only vectorized and table-driven per-slot code, so the
scalar references live here: the one-slot channel classifier and PU decoding
test, and a ground-truth PU pair.  The PU pair states its own ARQ rule, apart
from `cogarq.pu_tracker.update`, so checking the tracker against it compares
two independent statements of the rule.  It keeps the general queue model
the package dropped: its own delay deadline, queue capacity, arrivals and
randomized access policy (`QueueConfig`), of which the package's
backlogged, always-sending PU is one case.  The baseline receivers are stated
here on the decoding graph, where the simulator credits them from their
compact models.  The solver's kernel and reachable states are stated
here one feedback branch and region at a time (`scalar_kernel`,
`scalar_reachable`), with `update`, `next_cd` and `reward` called
directly, where the package reads them off one step table per model.
The genie-aided receiver's compact model (`GenieModel`) lives here: the CLI
writes its row in closed form, which the solver on this model checks.  The
evaluation's recurrent class is found here by scipy's strongly connected
components (`recurrent_stationary`), where the package takes the states
the start reaches, which every model's step table makes its class.
The Monte Carlo run is stated here slot by slot
(`reference_run`), on whole-run draws (`draw_gain_arrays`), where the
package packs input codes one slice at a time, walks entry ids over them
and gathers its columns with numpy.  The trace invariants are checked
here one record at a time, where the package checks them on a chunk's
columns; `records` and `chunk_of` convert between the two forms.  The
decoding graph is stated here on node sets with a traversal per query
(`RefGraph`), where the package keeps bitmasks of each node's reach; the
receiver's slot is a composition of steps on it (`composed_slot`), and
`reference_run` takes every slot through those steps, where the package
runs the stretches of slots that find the graph empty as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from cogarq.cd_graph import is_pu, pu, slot_of, su
from cogarq.channel import (
    PU_ALONE,
    PU_UNDER_SU,
    SU_CLEAN,
    SU_NEEDS_PU,
    SU_UNDER_PU,
    AvgSnrConfig,
    RatePair,
    RegionProbabilities,
    classify_su_outcomes,
)
from cogarq.mdp import Kernel, MdpState, StateSpace
from cogarq.pu_system import PuConfig
from cogarq.pu_tracker import PuFeedback, update
from cogarq.simulator import (
    InvariantReport,
    RunMetrics,
    SchemeKind,
    SystemConfig,
    TraceChunk,
    _arq_table,
    _batch_stats,
    scheme_model,
)


@dataclass(frozen=True)
class LinkGains:
    """Instantaneous linear-scale SNRs of the four links in one slot."""

    gamma_s: float
    gamma_ps: float
    gamma_p: float
    gamma_sp: float


def capacity(snr: float) -> float:
    """Normalized Gaussian-channel capacity log2(1 + snr)."""
    s = float(snr)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"snr must be finite and >= 0, got {snr!r}")
    return math.log2(1.0 + s)


def classify_su_outcome(g: LinkGains, r: RatePair) -> int:
    """Outcome region index in 1..7 for the SU receiver in one slot.

    Scalar form of `cogarq.channel.classify_su_outcomes`, which documents
    the regions.
    """
    c_s = capacity(g.gamma_s)
    c_ps = capacity(g.gamma_ps)
    if r.r_s < c_s:
        if r.r_p < c_ps:
            return 1 if r.r_s + r.r_p < capacity(g.gamma_s + g.gamma_ps) else 7
        return 2 if r.r_s < capacity(g.gamma_s / (1.0 + g.gamma_ps)) else 5
    if r.r_p < c_ps:
        return 3 if r.r_p < capacity(g.gamma_ps / (1.0 + g.gamma_s)) else 6
    return 4


def pu_success(g: LinkGains, r: RatePair, a_s: int) -> bool:
    """Whether the PU receiver decodes, with the SU interfering iff a_s=1."""
    if a_s not in (0, 1):
        raise ValueError(f"a_s must be 0 or 1, got {a_s!r}")
    return r.r_p < capacity(g.gamma_p / (1.0 + a_s * g.gamma_sp))


# The oracle PU's feedback on a slot it leaves idle; the package's PU sends
# in every slot, so `cogarq.pu_tracker.PuFeedback` has only ACK and NACK.
IDLE = 0


@dataclass(frozen=True)
class QueueConfig:
    """The oracle PU's deadlines: r_max tries per packet, and d_max slots a
    packet may wait in all.  d_max >= 2 keeps completion a function of
    (t, d, feedback): with d_max = 1 an idle slot would pop the queue head."""

    r_max: int
    d_max: int

    def __post_init__(self):
        if self.r_max < 1 or self.d_max < max(2, self.r_max):
            raise ValueError(f"need r_max >= 1 and d_max >= max(2, r_max), got {self}")


@dataclass(frozen=True)
class PuState:
    """Internal PU triple: retransmission count, delay, queue length."""

    t: int = 0
    d: int = 0
    q: int = 0

    def validate(self, cfg: QueueConfig, q_max: int) -> "PuState":
        if not (0 <= self.t < cfg.r_max):
            raise ValueError(f"t out of range: {self.t}")
        if not (0 <= self.d < cfg.d_max):
            raise ValueError(f"d out of range: {self.d}")
        if not (0 <= self.q <= q_max):
            raise ValueError(f"q out of range: {self.q}")
        if self.d < self.t:
            raise ValueError(f"delay {self.d} below retransmission count {self.t}")
        if self.q == 0 and (self.t or self.d):
            raise ValueError("empty queue with an active retransmission session")
        return self


def advance(state: PuState, b_p: int, a_p: int, success: bool, cfg: QueueConfig, q_max: int):
    """Apply one slot of PU dynamics given the realized access and outcome.

    Returns (y, o, next_state), with b_p packets arriving into a queue of
    capacity q_max.  `success` is only consulted when a_p=1.
    ACK always completes, NACK completes at either deadline, and an idle
    slot completes only at the delay deadline of a nonempty queue.
    """
    t, d, q = state.t, state.d, state.q
    if a_p:
        if q == 0:
            raise ValueError("PU cannot transmit from an empty queue")
        y = PuFeedback.ACK if success else PuFeedback.NACK
    else:
        y = IDLE
    if q == 0:
        o = 0
    elif y == PuFeedback.ACK:
        o = 1
    elif y == PuFeedback.NACK:
        o = 1 if (t == cfg.r_max - 1 or d == cfg.d_max - 1) else 0
    else:
        o = 1 if d == cfg.d_max - 1 else 0
    q_next = min(q - o + b_p, q_max)
    t_next = (1 - o) * (t + a_p)
    d_next = (1 - o) * (d + (1 if t > 0 else a_p))
    return y, o, PuState(t_next, d_next, q_next)


@dataclass(frozen=True)
class StepResult:
    a_p: int
    y: int  # a PuFeedback value, or IDLE
    o: int
    next_state: PuState
    label_event: str | None  # 'new', 'retx', or None when idle


def step(
    state: PuState,
    b_p: int,
    a_s: int,
    g: LinkGains,
    rates: RatePair,
    rng: np.random.Generator,
    cfg: QueueConfig,
    q_max: int,
    access=lambda t, d, q: 1.0,
) -> StepResult:
    """One slot of the PU system with a randomized access decision.

    `access(t, d, q)` is the transmit probability of a nonempty queue; an
    empty one never transmits.  One uniform draw is consumed per slot even
    for degenerate policies, so trajectories stay aligned across runs that
    only differ in the policy.
    """
    state.validate(cfg, q_max)
    if b_p < 0:
        raise ValueError(f"negative arrival count {b_p}")
    u = rng.random()
    p = access(state.t, state.d, state.q) if state.q else 0.0
    a_p = 1 if u < p else 0
    success = pu_success(g, rates, a_s) if a_p else False
    y, o, nxt = advance(state, b_p, a_p, success, cfg, q_max)
    if a_p:
        label_event = "new" if state.t == 0 else "retx"
    else:
        label_event = None
    return StepResult(a_p, y, o, nxt, label_event)


# -- the decoding graph on sets, one traversal per query ------------------------
#
# `cogarq.cd_graph` keeps each stored node's reach as a bitmask and answers
# its queries by lookups and popcounts.  The same graph is stated here on
# node sets and edge dicts, with a traversal per closure, and the queries
# and the label choice are stated over it, so the slot-by-slot references
# below share no graph code with the package.


def _name(label: int) -> str:
    return f"{slot_of(label)}_{'P' if is_pu(label) else 'S'}"


class RefGraph:
    """The decoding graph as node sets and adjacency dicts of labels, with
    the counters of `cogarq.cd_graph.CdGraph` under the same names."""

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

    def _stored(self, label: int) -> bool:
        return label in (self.pu_nodes if is_pu(label) else self.su_nodes)

    def is_decoded(self, label: int) -> bool:
        """Whether the packet was decoded; raises below the horizon unless stored."""
        if slot_of(label) in (self.decoded_pu if is_pu(label) else self.decoded_su):
            return True
        if slot_of(label) < self.horizon and not self._stored(label):
            raise ValueError(f"{_name(label)} lies below the horizon {self.horizon}")
        return False

    def contains(self, label: int) -> bool:
        """Node membership, counting implicit undecoded labels from the
        horizon up to the slot; below the horizon only stored labels."""
        if slot_of(label) < self.horizon:
            return self._stored(label)
        return slot_of(label) <= self.slot and not self.is_decoded(label)

    def _touch(self, label: int):
        if self.is_decoded(label):
            raise ValueError(f"decoded packet {_name(label)} cannot re-enter the graph")
        (self.pu_nodes if is_pu(label) else self.su_nodes).add(label)

    def add_edge(self, src: int, dst: int):
        if is_pu(src) == is_pu(dst):
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

    def remove_node(self, label: int):
        for dst in self.out_edges.pop(label, ()):
            self._edges -= 1
            self.in_edges[dst].discard(label)
            if not self.in_edges[dst]:
                del self.in_edges[dst]
        for src in self.in_edges.pop(label, ()):
            self._edges -= 1
            self.out_edges[src].discard(label)
            if not self.out_edges[src]:
                del self.out_edges[src]
        (self.pu_nodes if is_pu(label) else self.su_nodes).discard(label)

    def edge_count(self) -> int:
        return self._edges


def stored_edges(g) -> set:
    """The stored edges of a `RefGraph`, or of a `cogarq.cd_graph.CdGraph` read
    off its out-edge masks, as (source, destination) label pairs."""
    if isinstance(g, RefGraph):
        return {(src, dst) for src, dsts in g.out_edges.items() for dst in dsts}
    return {(src, dst) for src, b in g.index.items()
            for dst, d in g.index.items() if g.out[b] >> d & 1}


def ref_closure(g: RefGraph, seeds: Iterable[int]) -> set[int]:
    """Labels forward-reachable from `seeds`, seeds included."""
    seen = set()
    for s in seeds:
        if not g.contains(s):
            raise ValueError(f"seed {_name(s)} is not a node of the graph")
        seen.add(s)
    frontier = list(seen)
    while frontier:
        for dst in g.out_edges.get(frontier.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


def ref_potential(g: RefGraph, label: int) -> int:
    return sum(not is_pu(x) for x in ref_closure(g, [label]))


def ref_reachable(g: RefGraph, frm: int, to: int) -> bool:
    if not g.contains(to):
        raise ValueError(f"{_name(to)} is not a node of the graph")
    return to in ref_closure(g, [frm])


def ref_root(g: RefGraph) -> tuple[int, int]:
    """SU packet of maximum potential, ties toward the newest label; the
    fresh packet of the current slot, potential one, is a candidate."""
    v, label = max([(1, su(g.slot))] + [(ref_potential(g, x), x) for x in g.su_nodes])
    return label, v


def ref_prune_unreachable(g: RefGraph, keep_root: int) -> int:
    """Drop every stored node outside the kept root's closure; returns the
    SU packets dropped."""
    if is_pu(keep_root) or not g.contains(keep_root):
        raise ValueError(f"keep_root {_name(keep_root)} is not an SU node of the graph")
    keep = ref_closure(g, [keep_root])
    dropped = [x for x in g.su_nodes | g.pu_nodes if x not in keep]
    for x in dropped:
        g.remove_node(x)
    dropped_su = sum(not is_pu(x) for x in dropped)
    g.discarded_su += dropped_su
    return dropped_su


def ref_select_label(g: RefGraph, l_p: int, pu_known: int, n: int) -> int:
    """The SU label for slot n: the root when the PU packet is known or
    unlinked to the root in both directions, else the fresh packet."""
    if n != g.slot:
        raise ValueError(f"graph is at slot {g.slot}, not {n}")
    rt = ref_root(g)[0]
    if pu_known:
        return rt
    linked = ref_reachable(g, rt, l_p) or ref_reachable(g, l_p, rt)
    return su(n) if linked else rt


# -- the chain-decoding receiver, one step at a time ------------------------------
#
# `cogarq.cd_protocol.run_slot` runs one slot in one call, reading what each
# outcome region decodes and buffers from `cd_graph.SLOT_OUTCOMES`.  The same
# slot is stated here on a `RefGraph` as a composition of steps: at a cycle
# start `on_new_cycle` and `forget`, then `ref_select_label`, then
# `record_slot`, whose if-chain states the seven regions apart from that table.


def ref_decode(g: RefGraph, labels: set) -> int:
    """Mark the labels decoded, removing the stored ones; returns the SU
    packets newly decoded."""
    newly_su = 0
    for lab in labels:
        if is_pu(lab):
            g.decoded_pu.add(slot_of(lab))
            if lab in g.pu_nodes:
                g.remove_node(lab)
        else:
            if slot_of(lab) not in g.decoded_su:
                g.decoded_su.add(slot_of(lab))
                newly_su += 1
            if lab in g.su_nodes:
                g.remove_node(lab)
    g.max_decoded = max(g.max_decoded, len(g.decoded_su) + len(g.decoded_pu))
    return newly_su


def record_slot(g: RefGraph, l_s: int | None, l_p: int | None, pu_known: int,
                y: int | None) -> int:
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
        if is_pu(l_s) or not g.contains(l_s):
            raise ValueError(f"invalid SU label {l_s}")
    if l_p is not None:
        if not is_pu(l_p) or slot_of(l_p) > g.slot:
            raise ValueError(f"invalid PU label {l_p}")
        if bool(pu_known) != g.is_decoded(l_p):
            raise ValueError(f"pu_known={pu_known} inconsistent with graph state for {l_p}")

    r_s = 0
    if l_p is not None and pu_known:
        # Interference from the known PU packet is cancelled up front, so the
        # slot behaves as if the PU were idle.
        if l_s is not None and y in SU_CLEAN:
            r_s = ref_decode(g, ref_closure(g, [l_s]))
    elif l_p is None:
        if l_s is not None and y in SU_CLEAN:
            r_s = ref_decode(g, ref_closure(g, [l_s]))
    elif l_s is None:
        if y in PU_ALONE:
            r_s = ref_decode(g, ref_closure(g, [l_p]))
    else:
        if y == 1:
            r_s = ref_decode(g, ref_closure(g, [l_s, l_p]))
        elif y == 2:
            r_s = ref_decode(g, ref_closure(g, [l_s]))
        elif y == 3:
            r_s = ref_decode(g, ref_closure(g, [l_p]))
        elif y == 5:
            g.add_edge(l_p, l_s)
        elif y == 6:
            g.add_edge(l_s, l_p)
        elif y == 7:
            g.add_edge(l_p, l_s)
            g.add_edge(l_s, l_p)
    g.slot += 1
    return r_s


def on_new_cycle(g: RefGraph) -> int:
    """Trim the graph to the root's closure; returns SU packets discarded.

    A graph that stores no node has nothing to trim.
    """
    g.cycle_trims += 1
    if not (g.su_nodes or g.pu_nodes):
        g.empty_cycle_trims += 1
        return 0
    return ref_prune_unreachable(g, ref_root(g)[0])


def forget(g: RefGraph):
    """Drop every decoded slot; the graph's slot becomes the horizon.

    Stored nodes stay nodes, also below the horizon; every other label
    there stops being one, and a query that names it raises.  A caller may
    forget when it will name no label before the current slot other than
    stored ones.  The decoded slots all lie before the current slot, as
    `record_slot` takes no label after it.
    """
    g.horizon = g.slot
    g.decoded_su.clear()
    g.decoded_pu.clear()


def snapshot(g: RefGraph) -> dict:
    """Line-dump-friendly view of the stored graph: its slot, node slots and
    edges named 3_S style."""
    def name(label):
        return f"{slot_of(label)}_{'P' if is_pu(label) else 'S'}"

    return {
        "slot": g.slot,
        "su_nodes": sorted(slot_of(n) for n in g.su_nodes),
        "pu_nodes": sorted(slot_of(n) for n in g.pu_nodes),
        "edges": sorted((name(src), name(dst))
                        for src, dsts in g.out_edges.items() for dst in dsts),
    }


def composed_slot(g: RefGraph, n: int, new_cycle: bool, pu_slot: int, a_s: int, y: int):
    """`cogarq.cd_protocol.run_slot` as the composition of the steps above,
    with the PU sending the packet first sent in `pu_slot`: (SU packets
    decoded, SU label sent or None, root potential before the slot)."""
    if new_cycle:
        on_new_cycle(g)
        forget(g)
    known = pu_slot in g.decoded_pu
    l_s = ref_select_label(g, pu(pu_slot), known, n) if a_s else None
    v_before = ref_root(g)[1]
    return record_slot(g, l_s, pu(pu_slot), known, y), l_s, v_before


class WindowReceiver:
    """Graph-backed baseline receiver masked down to one ARQ window.

    Labels are always fresh.  With `bic` unset, dependency edges are never
    buffered, so a late PU decode cleans only future slots.  The window
    reset prunes against the fresh label, which drops every stored node and
    counts its SU packets in `graph.discarded_su`.
    """

    def __init__(self, bic: bool):
        self.graph = RefGraph()
        self.bic = bic
        self.decoded = 0

    def record(self, a_s: int, pu_slot: int, y: int, o: int) -> int:
        """One slot in which the PU sends the packet first sent in `pu_slot`."""
        g = self.graph
        n = g.slot
        known = int(pu_slot in g.decoded_pu)
        y_eff = y
        if not self.bic and a_s and not known and y in (5, 6, 7):
            y_eff = 4
        r = record_slot(g, su(n) if a_s else None, pu(pu_slot), known, y_eff)
        self.decoded += r
        if o:
            ref_prune_unreachable(g, su(g.slot))
        return r


def memoryless_decode(a_s: int, y: int) -> int:
    """No-FIC/BIC credit: one slot, with the PU sending, on an empty graph,
    forgotten afterwards."""
    return record_slot(RefGraph(), su(0) if a_s else None, pu(0), 0, y)


class GenieModel:
    """Compact model of a receiver that always knows the PU packet in advance.

    Not a runnable scheme: the analytic ceiling every scheme meets when the
    cross link vanishes.  The CLI writes its row in closed form; this model
    lets the solver check that closed form.
    """

    name = "genie"

    def __init__(self, cfg: PuConfig):
        self.cfg = cfg

    def cd_states(self):
        return [("G", 0)]

    def initial_cd(self):
        return ("G", 0)

    def reward(self, cd, a_s, y):
        return a_s * (y in SU_CLEAN)

    def next_cd(self, cd, a_s, y, o):
        return cd


class TraceRecord(NamedTuple):
    """One slot of a simulator trace, every field spelled out."""

    n: int
    a_s: int
    y_p: int  # PuFeedback value
    y: int
    o: int
    t: int
    tr_t: int
    tr_label: int
    true_label: int
    l_s: int | None
    r_s: int
    m_before: int
    v_before: int
    phase: str
    b_s: int
    cycle_start: bool
    g_nodes: int
    g_edges: int


_COLUMNS = TraceChunk._fields[TraceChunk._fields.index("y"):]


def records(chunk: TraceChunk) -> list[TraceRecord]:
    """The per-slot records of a trace chunk.

    Besides the chunk's columns a record holds what they determine: the
    slot, the tracked t and the compact phase and counter of the slot's
    state, the PU packet's label as tracked and as true (the slot less t),
    the SU packets credited before the slot, and whether it starts a PU
    cycle.
    """
    out = []
    m_before = chunk.decoded
    columns = zip(*(getattr(chunk, c).tolist() for c in _COLUMNS))
    for n, (y, sid, t, a_s, y_p, o, l_s, r_s, v, nodes, edges) in enumerate(
            columns, start=chunk.first):
        (phase, b_s), tr_t = chunk.states[sid]
        out.append(TraceRecord(
            n=n, a_s=a_s, y_p=y_p, y=y, o=o, t=t, tr_t=tr_t,
            tr_label=n - tr_t, true_label=n - t,
            l_s=None if l_s < 0 else l_s, r_s=r_s, m_before=m_before, v_before=v,
            phase=phase, b_s=b_s, cycle_start=t == 0,
            g_nodes=nodes, g_edges=edges))
        m_before += r_s
    return out


def chunk_of(trace: Iterable[TraceRecord]) -> TraceChunk:
    """The one chunk whose `records` are `trace`; `ValueError` if there is none.

    Each distinct (phase, b, tracked t) becomes a state.
    """
    trace = list(trace)
    ids: dict = {}
    sid = [ids.setdefault(((r.phase, r.b_s), r.tr_t), len(ids)) for r in trace]
    derived = {"sid": sid, "v": [r.v_before for r in trace],
               "l_s": [-1 if r.l_s is None else r.l_s for r in trace]}
    chunk = TraceChunk(trace[0].n, trace[0].m_before, list(ids), **{
        c: np.array(derived[c] if c in derived else [getattr(r, c) for r in trace],
                    dtype=np.int64)
        for c in _COLUMNS})
    if records(chunk) != trace:
        raise ValueError("the trace holds a value its columns do not determine")
    return chunk


def split(chunk: TraceChunk, size: int) -> list[TraceChunk]:
    """The chunk cut into consecutive chunks of `size` slots."""
    return [
        TraceChunk(chunk.first + lo, chunk.decoded + int(chunk.r_s[:lo].sum()), chunk.states,
                   **{c: getattr(chunk, c)[lo:lo + size] for c in _COLUMNS})
        for lo in range(0, len(chunk.sid), size)
    ]


def state_actions(chunk: TraceChunk) -> list[tuple]:
    """(phase, b, tracked t, a_s) of every slot of a chunk."""
    states = chunk.states
    return [(*states[s][0], states[s][1], a)
            for s, a in zip(chunk.sid.tolist(), chunk.a_s.tolist())]


# Flag pairs (virtual knowledge, openness) of the chain-decoding phases.
_PHASE_FLAGS = {"U": (0, 1), "K_BIDIR": (1, 1), "K_FWD": (1, 0)}


def _always_transmit(a_s: int, y: int) -> int:
    """The outcome of the always-transmit slot equivalent to (a_s, y), the
    PU sending: an idle SU becomes a transmission that decodes nothing extra."""
    if a_s:
        return y
    return 3 if y in PU_ALONE else 4


def check_trace_invariants(
    trace: Iterable[TraceRecord],
    cfg: SystemConfig,
    scheme: SchemeKind = SchemeKind.CHAIN_DECODING,
) -> InvariantReport:
    """Slot-by-slot reference for `cogarq.simulator.TraceInvariantChecker`.

    Checks the same identities and bounds one record at a time, with
    running per-cycle accumulators, and reports them in the same form.  An
    outcome outside 1..7 is reported and then counted as one that decodes
    nothing.
    """
    is_cd = scheme is SchemeKind.CHAIN_DECODING
    r_max = cfg.pu.r_max
    slots = cycles = 0
    checks: dict = {}
    violations: list = []

    def count(name):
        checks[name] = checks.get(name, 0) + 1

    def fail(name, slot, detail):
        violations.append(f"slot {slot}: {name}: {detail}")

    prev_sum = pending_rhs = None
    p245 = p2457 = 1
    s5 = 0
    seen7 = had13 = q_flag = False
    cnt12 = cnt57 = 0
    bound_total = 0
    started = False
    for rec in trace:
        slots += 1

        # (iii) tracker exactness
        count("tracker")
        if rec.tr_t != rec.t or rec.tr_label != rec.true_label:
            fail("tracker", rec.n,
                 f"inferred (t={rec.tr_t}, l={rec.tr_label}) vs "
                 f"true (t={rec.t}, l={rec.true_label})")

        # (v) outcome sanity
        in_range = rec.y in (1, 2, 3, 4, 5, 6, 7)
        if not in_range:
            fail("outcome-range", rec.n, f"y={rec.y}")

        # (iv) compact-state invariants
        if is_cd:
            count("compact-state")
            flags = _PHASE_FLAGS.get(rec.phase)
            if flags not in ((0, 1), (1, 1), (1, 0)):
                fail("compact-state", rec.n, f"phase {rec.phase!r} has flags {flags}")
            if rec.phase != "U" and rec.b_s != 0:
                fail("compact-state", rec.n, f"b={rec.b_s} in phase {rec.phase}")
            if not (0 <= rec.b_s <= r_max - 1):
                fail("compact-state", rec.n, f"b={rec.b_s} outside 0..{r_max - 1}")

        # (i) recursion residual from the previous slot
        if is_cd and pending_rhs is not None:
            count("recursion")
            got = rec.m_before + rec.v_before
            want = prev_sum + pending_rhs
            if got != want:
                fail("recursion", rec.n, f"M+v={got}, recursion gives {want}")

        # cycle boundary: close out the finished cycle
        if rec.cycle_start or rec.n == 0:
            if started:
                cycles += 1
                kappa_ga = 0 if p245 == 1 else 1
                bound_total += cnt12 + kappa_ga * cnt57
                if seen7 and p2457 == 1:
                    bound_total -= 1
                count("bound")
                if rec.m_before > bound_total:
                    fail("bound", rec.n, f"decoded {rec.m_before} exceeds bound {bound_total}")
                if is_cd and q_flag:
                    count("full-release")
                    if rec.v_before != 1:
                        fail("full-release", rec.n,
                             f"root potential {rec.v_before} at a qualifying cycle end")
            p245 = p2457 = 1
            s5 = 0
            seen7 = had13 = q_flag = False
            cnt12 = cnt57 = 0
            started = True

        yt = _always_transmit(rec.a_s, rec.y) if in_range else 4

        # recursion right-hand side for this slot, then roll the accumulators
        if is_cd:
            rhs = int(yt in SU_CLEAN)
            rhs -= p245 * (yt in (1, 3, 5, 6, 7))
            rhs += p245 * (yt in PU_ALONE) * s5
            rhs += p2457 * (yt in (1, 3, 6))
            pending_rhs = rhs
            prev_sum = rec.m_before + rec.v_before

        if had13 and yt in SU_CLEAN:
            q_flag = True
        had13 = had13 or yt in PU_UNDER_SU
        p245 &= yt in (2, 4, 5)
        p2457 &= yt in (2, 4, 5, 7)
        s5 += yt == 5
        seen7 = seen7 or yt == 7
        cnt12 += yt in SU_UNDER_PU
        cnt57 += yt in SU_NEEDS_PU
    return InvariantReport(slots, cycles, checks, violations)


def draw_gain_arrays(rng: np.random.Generator, cfg: AvgSnrConfig, n: int):
    """n slots of independent exponential gains (Rayleigh power fading), as
    four arrays (gamma_s, gamma_ps, gamma_p, gamma_sp).

    Each link is drawn as one array in turn; a zero-mean link is
    identically zero and draws nothing.  This is the whole-run draw whose
    numbers `cogarq.simulator` reproduces one slice at a time.
    """
    gs = rng.exponential(cfg.mean_gamma_s, n) if cfg.mean_gamma_s > 0 else np.zeros(n)
    gps = rng.exponential(cfg.mean_gamma_ps, n) if cfg.mean_gamma_ps > 0 else np.zeros(n)
    gp = rng.exponential(cfg.mean_gamma_p, n) if cfg.mean_gamma_p > 0 else np.zeros(n)
    gsp = rng.exponential(cfg.mean_gamma_sp, n) if cfg.mean_gamma_sp > 0 else np.zeros(n)
    return gs, gps, gp, gsp


def reference_run(scheme: SchemeKind, policy, cfg: SystemConfig, seed: int, n_slots: int,
                  trace_hook=None, batches: int = 100) -> RunMetrics:
    """Slot-by-slot reference for `cogarq.simulator.run`.

    Draws every stream for the whole run at once, and steps each slot in
    Python: the SU access decision by comparing its draw with the access
    probability, the backlogged PU's decode and feedback (it sends in every
    slot), the true PU's ARQ step, the compact state's step, and, for chain
    decoding, the decoding graph.  Running sums give the metrics; a trace chunk is
    built from one row per slot.  It shares the scheme models and the ARQ
    table with the package, but keeps its own memo of compact states and
    steps and its own drop count, and neither the input codes nor the entry
    table and gathers.  A fresh SU packet is every one a baseline sends and
    the label `su(n)` in chain decoding; the drops are the fresh packets
    less the credited ones.

    Its decoding graph never forgets a decoded slot.  The package's graph
    forgets them all at each cycle start, so what it remembers is what was
    decoded since the cycle started; `graph_max_decoded` is the most of
    that, counted here on the full sets.  `graph_slots` counts the slots
    where the graph stores a node before or after the slot: the package
    runs every other slot as part of an empty stretch.
    """
    batches = min(batches, n_slots)
    pu_cfg = cfg.pu
    arq = _arq_table(pu_cfg)

    gain_ss, _, _, su_ss = np.random.SeedSequence(seed).spawn(4)
    gs, gps, gp, gsp = draw_gain_arrays(np.random.default_rng(gain_ss), cfg.snr, n_slots)
    theta_p = 2.0 ** cfg.rates.r_p - 1.0
    y_all = classify_su_outcomes(gs, gps, cfg.rates).astype(np.int8)
    succ0 = gp > theta_p
    succ1 = gp > theta_p * (1.0 + gsp)
    su_u = np.random.default_rng(su_ss).random(n_slots)

    model = scheme_model(scheme, pu_cfg)
    states, mus, ids = [], [], {}  # the compact states by id, in the order reached
    steps = {}  # (state id, a_s, y, y_p) -> (next state id, model reward)

    def state_id(state) -> int:
        if state not in ids:
            try:
                mus.append(policy.probs[state])
            except KeyError:
                raise KeyError(f"policy has no entry for state {state}") from None
            ids[state] = len(states)
            states.append(state)
        return ids[state]

    sid = state_id((model.initial_cd(), 0))
    g = RefGraph() if scheme is SchemeKind.CHAIN_DECODING else None
    ack, nack = int(PuFeedback.ACK), int(PuFeedback.NACK)

    t = 0
    edges = [-(-b * n_slots // batches) for b in range(batches + 1)]
    su_batch, pu_batch = [], []
    decoded = fresh = 0
    cycle_base = max_decoded = 0  # decoded slots at the cycle start, and the most since one
    graph_slots = 0
    for bi in range(batches):
        lo, hi = edges[bi], edges[bi + 1]
        su_sum = pu_sum = 0
        rows = []
        for n in range(lo, hi):
            y = int(y_all[n])
            a_s = 1 if su_u[n] < mus[sid] else 0
            l_s = pu_slot = known = None
            if g is not None:
                _, tr_t = states[sid]
                stored_before = bool(g.su_nodes or g.pu_nodes)
                if tr_t == 0:
                    on_new_cycle(g)
                    cycle_base = len(g.decoded_su) + len(g.decoded_pu)
                pu_slot = n - tr_t
                known = pu_slot in g.decoded_pu
                l_s = ref_select_label(g, pu(pu_slot), known, n) if a_s else None
            success = bool(succ1[n] if a_s else succ0[n])
            y_p = ack if success else nack
            o, t_next = arq[t, y_p]
            key = (sid, a_s, y, y_p)
            if key not in steps:
                cd, tr_t = states[sid]
                o_hat, t_hat = arq[tr_t, y_p]
                try:
                    nxt = state_id((model.next_cd(cd, a_s, y, o_hat), t_hat))
                except KeyError as err:
                    raise KeyError(f"{err.args[0]}, on the step of slot {n}") from None
                steps[key] = nxt, model.reward(cd, a_s, y)
            nxt, r_s = steps[key]
            fresh += a_s if g is None else l_s == su(n)
            v_before = ref_root(g)[1] if g is not None else 0
            if g is not None:
                r_s = record_slot(g, l_s, pu(pu_slot), known, y)
                graph_slots += stored_before or bool(g.su_nodes or g.pu_nodes)
                max_decoded = max(max_decoded,
                                  len(g.decoded_su) + len(g.decoded_pu) - cycle_base)
            su_sum += r_s
            pu_sum += success
            if g is None:
                rows.append((sid, t, a_s, y_p, o, -1, r_s, 0, 0, 0))
            else:
                rows.append((sid, t, a_s, y_p, o,
                             -1 if l_s is None else slot_of(l_s), r_s, v_before,
                             len(g.su_nodes) + len(g.pu_nodes), g.edge_count()))
            t = t_next
            sid = nxt
        if trace_hook is not None:
            trace_hook(TraceChunk(lo, decoded, states, y_all[lo:hi], *np.array(rows).T))
        su_batch.append(su_sum)
        decoded += su_sum
        pu_batch.append(pu_sum)

    counts = np.diff(np.array(edges, dtype=float))
    su_mean, su_se = _batch_stats(np.array(su_batch, dtype=float), counts)
    pu_mean, pu_se = _batch_stats(np.array(pu_batch, dtype=float), counts)
    graph_counts = {}
    if g is not None:
        graph_counts = dict(graph_max_nodes=g.max_nodes, graph_max_edges=g.max_edges,
                            cycle_trims=g.cycle_trims,
                            cycle_trims_on_empty_graph=g.empty_cycle_trims,
                            graph_max_decoded=max_decoded, trimmed_su=g.discarded_su,
                            graph_slots=graph_slots)
    return RunMetrics(
        scheme=scheme.value, seed=seed, n_slots=n_slots,
        su_throughput=su_mean, su_se=su_se, pu_throughput=pu_mean, pu_se=pu_se,
        drop_rate=(fresh - decoded) / n_slots, decoded_total=decoded,
        states_visited=len(states), steps_filled=len(steps), **graph_counts,
    )


def region_probabilities(
    cfg: AvgSnrConfig, r: RatePair, n_samples: int, rng: np.random.Generator
) -> RegionProbabilities:
    """Monte Carlo estimate of the seven region probabilities.

    Each sample of (gamma_s, gamma_ps) lands in exactly one region, so the
    seven estimates sum to one exactly.  The reference for
    `cogarq.channel.exact_region_probabilities`.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gs = rng.exponential(cfg.mean_gamma_s, n_samples) if cfg.mean_gamma_s > 0 else np.zeros(n_samples)
    gps = rng.exponential(cfg.mean_gamma_ps, n_samples) if cfg.mean_gamma_ps > 0 else np.zeros(n_samples)
    regions = classify_su_outcomes(gs, gps, r)
    counts = np.bincount(regions, minlength=8)[1:8]
    probs = counts / float(n_samples)
    return RegionProbabilities(*probs.tolist())


def gauss_laguerre_region_probabilities(
    mean_s: float, mean_ps: float, r: RatePair, nodes: int = 64
) -> np.ndarray:
    """Two-dimensional Gauss-Laguerre quadrature of the region indicators.

    Indicator discontinuities cap its accuracy around 1e-2 at 64 nodes; it
    serves as a coarse independent cross-check, not a tight oracle.
    """
    x, w = np.polynomial.laguerre.laggauss(nodes)
    gs, gps = np.meshgrid(mean_s * x, mean_ps * x, indexing="ij")
    weight = np.outer(w, w)
    regions = classify_su_outcomes(gs.ravel(), gps.ravel(), r)
    probs = np.zeros(7)
    flat_w = weight.ravel()
    for j in range(1, 8):
        probs[j - 1] = flat_w[regions == j].sum()
    return probs


def _scalar_branches(t: int, a_s: int, pu_cfg: PuConfig, success_probs) -> list:
    """(o, probability, t') per PU feedback of positive probability from try
    count t; the PU sends in every slot."""
    rho = success_probs[a_s]
    branches = []
    for y_p, p in ((PuFeedback.ACK, rho), (PuFeedback.NACK, 1.0 - rho)):
        if p > 0.0:
            o, t_n = update(t, y_p, pu_cfg)
            branches.append((o, p, t_n))
    return branches


def scalar_kernel(space: StateSpace) -> Kernel:
    """`cogarq.mdp.build_kernel`, one feedback branch and region at a time.

    Steps each state of `space` with `update`, the model's `next_cd` and
    `reward` directly, never through the package's step table, and sums the
    branches of positive probability in the order (state, a_s, ACK / NACK,
    region), as the package does.  A next state missing from
    `space.index` raises `KeyError`.
    """
    n, model = space.n, space.model
    region_p = space.probs.as_array()
    p = np.zeros((n, 2, n))
    r_su = np.zeros((n, 2))
    r_pu = np.zeros((n, 2))
    for i, s in enumerate(space.states):
        for a_s in (0, 1):
            r_pu[i, a_s] = space.success_probs[a_s]
            for o, p_b, t_n in _scalar_branches(s.t, a_s, model.cfg, space.success_probs):
                for y in range(1, 8):
                    p_y = region_p[y - 1]
                    if p_y == 0.0:
                        continue
                    w = p_b * p_y
                    j = space.index[MdpState(model.next_cd(s.cd, a_s, y, o), t_n)]
                    p[i, a_s, j] += w
                    r_su[i, a_s] += w * model.reward(s.cd, a_s, y)
    return Kernel(p, r_su, r_pu)


def scalar_reachable(model, probs: RegionProbabilities, success_probs) -> set:
    """The compact states reachable from the initial one under either SU
    action, by depth-first search over the feedbacks and regions of
    positive probability, stepped with `update`, `next_cd` directly."""
    region_p = probs.as_array()
    start = MdpState(model.initial_cd(), 0)
    seen, stack = {start}, [start]
    while stack:
        s = stack.pop()
        for a_s in (0, 1):
            for o, _, t_n in _scalar_branches(s.t, a_s, model.cfg, success_probs):
                for y in range(1, 8):
                    nxt = MdpState(model.next_cd(s.cd, a_s, y, o), t_n)
                    if region_p[y - 1] != 0.0 and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return seen


def matrix_power_closure(n_nodes: int, edges, seeds) -> set:
    """Reachable set via boolean matrix powers, seeds included.

    Nodes are integers 0..n_nodes-1, `edges` is an iterable of (src, dst).
    """
    adj = np.zeros((n_nodes, n_nodes), dtype=bool)
    for s, t in edges:
        adj[s, t] = True
    vec = np.zeros(n_nodes, dtype=bool)
    for s in seeds:
        vec[s] = True
    reach = vec.copy()
    while True:
        nxt = reach | (reach @ adj)
        if (nxt == reach).all():
            break
        reach = nxt
    return {i for i in range(n_nodes) if reach[i]}


def limit_distribution(p: np.ndarray, start: int) -> np.ndarray:
    """Long-run state distribution of the chain `p` started in `start`.

    Squares the lazy chain (I + P) / 2, which has the same stationary laws
    and no periodicity, 64 times, renormalizing the rows each time, and
    reads the row of `start`.  This is the oracle's own evaluation, apart
    from the package's recurrent-class solve; on a chain with one recurrent
    class reachable from `start` the two agree.
    """
    m = 0.5 * (np.eye(p.shape[0]) + p)
    for _ in range(64):
        m = m @ m
        m /= m.sum(axis=1, keepdims=True)
    return m[start]


def recurrent_stationary(p: np.ndarray, start: int):
    """The stationary law of `cogarq.mdp.evaluate_policy`, by strongly
    connected components.

    The package's evaluation once searched the classes this way: scipy's
    `connected_components` labels the classes, a class is
    closed when no support edge leaves it, and a depth-first search from
    `start` finds the closed classes it reaches.  Returns the stationary law
    of the lowest-labelled one, solved with one balance row replaced by the
    normalization, and whether more than one closed class is reachable.
    """
    from scipy.sparse.csgraph import connected_components

    n = p.shape[0]
    support = p > 0.0
    n_comp, labels = connected_components(support, directed=True, connection="strong")
    closed = np.ones(n_comp, dtype=bool)
    for i in range(n):
        for j in np.nonzero(support[i])[0]:
            if labels[j] != labels[i]:
                closed[labels[i]] = False
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        i = stack.pop()
        for j in np.nonzero(support[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    reach_closed = sorted({labels[i] for i in np.nonzero(seen)[0] if closed[labels[i]]})
    members = np.nonzero(labels == reach_closed[0])[0]
    a = p[np.ix_(members, members)].T - np.eye(members.size)
    a[-1] = 1.0
    b = np.zeros(members.size)
    b[-1] = 1.0
    pi = np.zeros(n)
    pi[members] = np.linalg.solve(a, b)
    return pi, len(reach_closed) != 1


def _oracle_evaluate(kernel, mu: np.ndarray, start: int):
    """(SU reward, PU throughput) long-run averages of the policy `mu`."""
    p = (1.0 - mu)[:, None] * kernel.p[:, 0, :] + mu[:, None] * kernel.p[:, 1, :]
    pi = limit_distribution(p, start)
    r_su = (1.0 - mu) * kernel.r_su[:, 0] + mu * kernel.r_su[:, 1]
    r_pu = (1.0 - mu) * kernel.r_pu[:, 0] + mu * kernel.r_pu[:, 1]
    return float(pi @ r_su), float(pi @ r_pu)


def _policy_iteration(p: np.ndarray, reward: np.ndarray, ref: int, init=None, max_iter=200):
    """Unconstrained average-reward policy iteration over deterministic policies.

    `p` has shape (n, 2, n) and `reward` (n, 2).  Returns the optimal
    action vector.  The improvement step keeps the incumbent action on
    ties, which guarantees termination on unichain models.  A singular
    evaluation (parallel recurrent classes under a degenerate policy) is
    retried with a vanishing uniform mixture, which restores a single
    chain whenever the uniform policy has one.
    """
    n = reward.shape[0]
    pol = np.zeros(n, dtype=int) if init is None else init.copy()
    rows = np.arange(n)
    for _ in range(max_iter):
        p_pol = p[rows, pol, :]
        r_pol = reward[rows, pol]
        a = np.zeros((n + 1, n + 1))
        a[:n, :n] = np.eye(n) - p_pol
        a[:n, n] = 1.0
        a[n, ref] = 1.0
        b = np.concatenate([r_pol, [0.0]])
        try:
            sol = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            eps = 1e-9
            blend = (1.0 - eps) * p_pol + eps * 0.5 * (p[:, 0, :] + p[:, 1, :])
            a[:n, :n] = np.eye(n) - blend
            sol = np.linalg.solve(a, b)
        h = sol[:n]
        q = reward + p @ h  # (n, 2)
        better = q[rows, 1 - pol] > q[rows, pol] + 1e-10
        if not better.any():
            return pol
        pol = np.where(better, 1 - pol, pol)
    raise RuntimeError("policy iteration failed to converge")


@dataclass
class PiSolution:
    su: float           # long-run SU reward
    constraint: float   # long-run PU throughput
    multiplier: float   # 0 when the floor is slack, else the bisected lambda
    mu: np.ndarray      # transmit probability per state of the kernel


def pi_constrained_solve(kernel, reachable: np.ndarray, start: int, floor: float,
                         lambda_tol: float = 1e-6) -> PiSolution:
    """Constrained solve by policy iteration inside a multiplier bisection.

    The Lagrangian reward r_su + lambda r_pu is maximized by policy
    iteration on the reachable states; lambda is bisected to the smallest
    multiplier whose optimal policy meets the floor, and the two bracketing
    deterministic policies are mixed state by state, with the weight
    bisected to land on the floor.  This was the package's solver before
    the occupation-measure LP replaced it; it shares no code with the LP or
    with `cogarq.mdp`'s evaluation.  The floor must be feasible.
    """
    ridx = np.nonzero(reachable)[0]
    p_sub = kernel.p[np.ix_(ridx, np.arange(2), ridx)]
    r_su_sub = kernel.r_su[ridx]
    r_c_sub = kernel.r_pu[ridx]
    ref = int(np.nonzero(ridx == start)[0][0])

    def expand(pol_sub) -> np.ndarray:
        mu = np.zeros(kernel.p.shape[0])
        mu[ridx] = pol_sub
        return mu

    def value(pol_sub):
        return _oracle_evaluate(kernel, expand(pol_sub), start)

    def solve_at(lam, init=None):
        pol = _policy_iteration(p_sub, r_su_sub + lam * r_c_sub, ref, init=init)
        return pol, value(pol.astype(float))[1]

    pol0, c0 = solve_at(0.0)
    if c0 >= floor - 1e-12:
        su, c = value(pol0.astype(float))
        return PiSolution(su, c, 0.0, expand(pol0.astype(float)))

    lam_lo, pol_lo = 0.0, pol0
    lam_hi = 1.0
    pol_hi, c_hi = solve_at(lam_hi, init=pol_lo)
    while c_hi < floor - 1e-12:
        lam_lo, pol_lo = lam_hi, pol_hi
        lam_hi *= 4.0
        if lam_hi > 1e9:
            raise RuntimeError("no multiplier reaches the constraint floor")
        pol_hi, c_hi = solve_at(lam_hi, init=pol_hi)
    while lam_hi - lam_lo > lambda_tol:
        mid = 0.5 * (lam_lo + lam_hi)
        pol_mid, c_mid = solve_at(mid, init=pol_hi)
        if c_mid >= floor - 1e-12:
            lam_hi, pol_hi = mid, pol_mid
        else:
            lam_lo, pol_lo = mid, pol_mid

    lo_val = value(pol_lo.astype(float))[1]
    if np.array_equal(pol_lo, pol_hi) or lo_val >= floor - 1e-12:
        mu = (pol_hi if lo_val < floor - 1e-12 else pol_lo).astype(float)
    else:
        a_lo, a_hi = 0.0, 1.0
        for _ in range(64):
            alpha = 0.5 * (a_lo + a_hi)
            if value((1.0 - alpha) * pol_lo + alpha * pol_hi)[1] >= floor:
                a_hi = alpha
            else:
                a_lo = alpha
        mu = (1.0 - a_hi) * pol_lo + a_hi * pol_hi
    su, c = value(mu)
    return PiSolution(su, c, lam_hi, expand(mu))
