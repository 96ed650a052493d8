"""Slot-by-slot Monte Carlo engine and per-trace invariant checks.

One run wires the fading channel, the ground-truth PU pair, the SU-side
tracker, the decoding machinery of the selected scheme, and a fixed access
policy.  Channel gains and SU access draws come from independent
seed-derived streams, so two runs with the same seed but different policies
see the same environment.  The PU is backlogged and needs no draw: it sends
in every slot.

A run packs each slot's random inputs into one small int code with numpy,
one slice of slots at a time: the outcome region, the PU's decode with and
without SU interference, and the rank of the SU access draw among the
policy's distinct access probabilities.  The slot loop then walks integer
entry ids only.  A walk state is a compact-state id plus the true PU's try
count t, and each (walk state, code) pair gets one entry on first use,
holding the slot's step: the compact state steps by the scheme model's
`mdp.StepTable`, the table the solver reads, whose indices are the
compact-state ids, and the true PU steps through the ARQ table on its
own.  Every batch sum and trace column is a numpy gather over the entry
ids of a walked group of slots.  The baselines are credited by their
compact models' rewards: FIC/BIC decodes within the current primary ARQ
window in both directions, FIC-only only forward, and no-FIC/BIC slot by
slot with no memory at all.  Chain decoding also runs the full decoding
graph over each walked group, which credits its packets: one
`cd_protocol.run_slot` call per slot that finds a node stored or buffers
one, and the stretches of slots between, which find the graph empty and
leave it so, as columns.  Every scheme
counts its drops by one rule: the fresh SU packets sent less the SU
packets credited.  Without a trace hook, the memory a run holds does not
grow with its number of slots.

With a trace hook, `run` hands over each batch of slots as one `TraceChunk`
of int columns, and `TraceInvariantChecker.feed` checks the per-trace
identities on those columns with numpy, so checking costs little more than
recording.
"""

from __future__ import annotations

import copy
import enum
import functools
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .cd_graph import SLOT_OUTCOMES, CdGraph, slot_of, su
from .cd_protocol import run_slot
from .channel import (
    PU_ALONE,
    PU_UNDER_SU,
    SU_CLEAN,
    SU_NEEDS_PU,
    SU_UNDER_PU,
    AvgSnrConfig,
    RatePair,
    classify_su_outcomes,
    pu_success_probability,
)
from .mdp import FEEDBACKS, AccessPolicy, StepTable, step_table
from .pu_system import PuConfig
from .pu_tracker import PuFeedback, update
from .virtual_state import (
    CdPhase,
    ChainDecodingModel,
    phase_flags,
    translate_outcome,
)

__all__ = [
    "SchemeKind",
    "SystemConfig",
    "RunMetrics",
    "TraceChunk",
    "InvariantReport",
    "TraceInvariantChecker",
    "FicBicModel",
    "FicOnlyModel",
    "NoFicBicModel",
    "scheme_model",
    "run",
]


class SchemeKind(enum.Enum):
    CHAIN_DECODING = "chain_decoding"
    FIC_BIC = "fic_bic"
    FIC_ONLY = "fic_only"
    NO_FIC_BIC = "no_fic_bic"


@dataclass(frozen=True)
class SystemConfig:
    """Everything a run needs: link statistics, rates, and the PU pair."""

    snr: AvgSnrConfig
    rates: RatePair
    pu: PuConfig

    def success_probs(self) -> tuple[float, float]:
        return (
            pu_success_probability(self.snr, self.rates, 0),
            pu_success_probability(self.snr, self.rates, 1),
        )


# -- compact models of the baseline schemes ---------------------------------------


def _pu_decoded_event(a_s: int, y: int) -> int:
    """Physical decode of the current PU packet at the SU receiver."""
    return int(y in (PU_UNDER_SU if a_s else PU_ALONE))


def _direct_su_decode(a_s: int, y: int) -> int:
    """Fresh SU packet decoded while the PU packet is unknown."""
    return int(a_s and y in SU_UNDER_PU)


class FicBicModel:
    """Within-window interference cancellation, both directions.

    Phase ("U", b): current PU packet undecoded, b buffered SU packets that
    its decoding would release, at most one per try, so b <= t.  Phase
    ("K", 0): packet known, clean channel until the window ends.
    """

    name = "fic_bic"

    def __init__(self, cfg: PuConfig):
        self.cfg = cfg

    def cd_states(self):
        return [("U", b) for b in range(self.cfg.r_max)] + [("K", 0)]

    def initial_cd(self):
        return ("U", 0)

    def reward(self, cd, a_s, y):
        if cd[0] == "K":
            return a_s * (y in SU_CLEAN)
        return _direct_su_decode(a_s, y) + _pu_decoded_event(a_s, y) * cd[1]

    def next_cd(self, cd, a_s, y, o):
        if o:
            return ("U", 0)
        if cd[0] == "K":
            return cd
        if _pu_decoded_event(a_s, y):
            return ("K", 0)
        return ("U", cd[1] + a_s * (y in SU_NEEDS_PU))


class FicOnlyModel:
    """Forward-only cancellation: a decoded PU packet cleans future slots of
    its window but never releases previously buffered signals."""

    name = "fic_only"

    def __init__(self, cfg: PuConfig):
        self.cfg = cfg

    def cd_states(self):
        return [("U", 0), ("K", 0)]

    def initial_cd(self):
        return ("U", 0)

    def reward(self, cd, a_s, y):
        if cd[0] == "K":
            return a_s * (y in SU_CLEAN)
        return _direct_su_decode(a_s, y)

    def next_cd(self, cd, a_s, y, o):
        if o:
            return ("U", 0)
        if cd[0] == "U" and _pu_decoded_event(a_s, y):
            return ("K", 0)
        return cd


class NoFicBicModel:
    """Slot-by-slot decoding; PU knowledge is never carried anywhere."""

    name = "no_fic_bic"

    def __init__(self, cfg: PuConfig):
        self.cfg = cfg

    def cd_states(self):
        return [("M", 0)]

    def initial_cd(self):
        return ("M", 0)

    def reward(self, cd, a_s, y):
        return _direct_su_decode(a_s, y)

    def next_cd(self, cd, a_s, y, o):
        return cd


@functools.cache
def scheme_model(scheme: SchemeKind, cfg: PuConfig):
    """The scheme's compact model under `cfg`, one instance per process, so
    every solve and run of the scheme shares its `mdp.step_table`."""
    return {
        SchemeKind.CHAIN_DECODING: ChainDecodingModel,
        SchemeKind.FIC_BIC: FicBicModel,
        SchemeKind.FIC_ONLY: FicOnlyModel,
        SchemeKind.NO_FIC_BIC: NoFicBicModel,
    }[scheme](cfg)


def _arq_table(cfg: PuConfig):
    """`pu_tracker.update` over every (t, feedback), keyed by plain ints:
    the true PU's step, apart from the compact state's step table."""
    return {(t, int(y)): update(t, y, cfg) for t in range(cfg.r_max) for y in PuFeedback}


# -- the slot walk on input codes ---------------------------------------------------


def _thresholds(probs) -> list:
    """The distinct access probabilities strictly between 0 and 1, sorted."""
    return sorted({p for p in probs if 0.0 < p < 1.0})


def _below(mu: float, rank: int, thresholds: list) -> int:
    """Whether a uniform draw u in [0, 1) with this rank has u < mu.

    A draw's rank is the number of thresholds at or below it.  For mu among
    the thresholds, u < mu exactly when the rank is at most the number of
    thresholds below mu.  u < 0 never holds, and u < 1 always does, which
    the same comparison gives.
    """
    return int(mu > 0.0 and rank <= bisect_left(thresholds, mu))


# The fields of an entry, one slot's step, as the rows of `_SlotWalk.table()`.
# The first five are the `TraceChunk` columns of the same names; `success`
# is the PU's decode and `r_s` the model reward.
_ENTRY = ("sid", "t", "a_s", "y_p", "o", "success", "r_s")
_SID, _T, _A_S, _Y_P, _O, _SUCCESS, _R_S = range(len(_ENTRY))
# Slots per slice of the input encoding, and at most per group of slots that
# `run` walks and gathers at once.
_SLICE = 1 << 14
_GROUP = 1 << 10


def _gain_slices(rng: np.random.Generator, snr: AvgSnrConfig, n_slots: int) -> list:
    """The gains of the links (gamma_s, gamma_ps, gamma_p, gamma_sp), as one
    iterator per link over consecutive slices of at most `_SLICE` slots.

    The numbers are those of one draw of the whole run: `n_slots`
    exponential gains of each link in turn from `rng`, where a zero-mean
    link is identically zero and draws nothing.  Each link draws a slice at
    a time from its own copy of `rng`, set where that link starts.  A
    pre-pass sets the copies: it draws and discards the links before each
    one, a slice at a time, which consumes the stream as the whole draw
    does.
    """
    sizes = [min(_SLICE, n_slots - lo) for lo in range(0, n_slots, _SLICE)]
    buf = np.empty(_SLICE)
    links, drawn = [], False
    for mean in (snr.mean_gamma_s, snr.mean_gamma_ps, snr.mean_gamma_p, snr.mean_gamma_sp):
        if mean <= 0:
            links.append(map(np.zeros, sizes))
            continue
        if drawn:  # discard the last link drawn before this one
            for size in sizes:
                rng.standard_exponential(out=buf[:size])
        links.append(map(functools.partial(copy.deepcopy(rng).exponential, mean), sizes))
        drawn = True
    return links


class _SlotWalk:
    """Entry ids for the (walk state, input code) pairs a run meets.

    A slot's random inputs are one int code, in mixed radix over `radix`,
    most significant first: the outcome region y - 1, the PU's decode
    without and with SU interference, and the rank of the SU access draw
    among the policy's thresholds.  A threshold is a distinct access
    probability strictly between 0 and 1 (`_below`).

    A walk state is a compact-state id, the state's index in the model's
    `mdp.StepTable`, plus the true PU's try count t.  `rows[w]` holds walk
    state w's entry for each input code, -1 until filled, and ends with w
    itself.  An entry is one slot's step: `next_row[e]` is the row of the
    walk state it leads to, and `entries[e]` the slot's fields in the order
    of `_ENTRY`.  The compact state steps by the table, and the true PU by
    the ARQ table on its own.  `mus` holds the transmit probability of each
    compact state visited, looked up in the policy on its first visit, and
    `steps` the table entries the walk used.
    """

    def __init__(self, table: StepTable, probs: dict, pu_cfg: PuConfig):
        self.compact = table
        self.probs = probs
        self.arq = _arq_table(pu_cfg)
        self.mus: dict = {}
        self.steps: set = set()
        self.thr_s = _thresholds(probs.values())
        self.radix = (7, 2, 2, len(self.thr_s) + 1)
        self.parts = list(itertools.product(*map(range, self.radix)))  # by code
        self.n_codes = len(self.parts)
        self.ids: dict = {}
        self.states: list = []
        self.rows: list = []
        self.next_row: list = []
        self.entries: list = []
        self._table = np.empty((len(_ENTRY), 0), dtype=np.int32)

    def visit(self, sid: int) -> int:
        """`sid`, with its transmit probability looked up on first visit."""
        if sid not in self.mus:
            state = self.compact.states[sid]
            try:
                self.mus[sid] = self.probs[state]
            except KeyError:
                raise KeyError(f"policy has no entry for state {tuple(state)}") from None
        return sid

    def encode(self, cfg: SystemConfig, seed: int, n_slots: int):
        """Yield each slice's outcome regions (int8) and input codes, in order.

        Channel gains and SU access draws come from the first and the
        fourth of four spawned children of the seed's `SeedSequence`.  The
        middle two are not drawn; spawning four keeps the SU stream, and so
        every output for a given seed, as it was.  Each slice's numbers are
        those one draw of the whole run would give (`_gain_slices`).  Only
        one slice's gains, SU draws, regions, codes and temporaries exist at
        a time, so the memory `encode` holds does not grow with `n_slots`.
        """
        gain_ss, _, _, su_ss = np.random.SeedSequence(seed).spawn(4)
        gains = _gain_slices(np.random.default_rng(gain_ss), cfg.snr, n_slots)
        theta_p = 2.0 ** cfg.rates.r_p - 1.0
        su_rng, n_s, thr_s = np.random.default_rng(su_ss), self.radix[-1], np.array(self.thr_s)
        dtype = np.min_scalar_type(self.n_codes - 1)
        for gs, gps, gp, gsp in zip(*gains):
            y = classify_su_outcomes(gs, gps, cfg.rates).astype(np.int8)
            codes = ((((y.astype(np.int64) - 1) * 2 + (gp > theta_p)) * 2
                      + (gp > theta_p * (1.0 + gsp))) * n_s
                     + np.searchsorted(thr_s, su_rng.random(len(y)), side="right"))
            del gs, gps, gp, gsp  # a long run's slice is freed while it is walked
            yield y, codes.astype(dtype)

    def table(self) -> np.ndarray:
        """The entries as int32 rows, one per field of `_ENTRY`; only the
        entries added since the last call are converted."""
        have = self._table.shape[1]
        if have < len(self.entries):
            new = np.array(self.entries[have:], dtype=np.int32).T
            self._table = np.concatenate((self._table, new), axis=1)
        return self._table

    def row(self, state) -> list:
        w = self.ids.get(state)
        if w is None:
            w = self.ids[state] = len(self.states)
            self.states.append(state)
            self.rows.append([-1] * self.n_codes + [w])
        return self.rows[w]

    def fill(self, row: list, code: int) -> int:
        """The entry of `row`'s walk state for `code`, made and stored."""
        sid, t = self.states[row[-1]]
        y, s0, s1, rank_s = self.parts[code]
        a_s = _below(self.mus[sid], rank_s, self.thr_s)
        success = s1 if a_s else s0
        y_p = PuFeedback.ACK if success else PuFeedback.NACK
        # The true PU and the SU-side tracker both step on the overheard
        # feedback; the tracker's step is part of the compact state's.
        o, t_n = self.arq[t, y_p]
        step = (sid, a_s, FEEDBACKS.index(y_p), y)
        self.steps.add(step)
        nxt = self.visit(int(self.compact.nxt[step]))
        e = len(self.entries)
        r_s = int(self.compact.reward[step])
        self.entries.append((sid, t, a_s, int(y_p), o, success, r_s))
        self.next_row.append(self.row((nxt, t_n)))
        row[code] = e
        return e


# -- run metrics and trace records --------------------------------------------------


@dataclass(frozen=True)
class RunMetrics:
    scheme: str
    seed: int
    n_slots: int
    su_throughput: float
    su_se: float
    pu_throughput: float
    pu_se: float
    drop_rate: float
    decoded_total: int
    states_visited: int = 0  # distinct compact states the run reached
    steps_filled: int = 0    # distinct step-table entries (state, a_s, feedback, y) it used
    # Chain decoding only: the decoding graph's high-water marks of stored
    # nodes and edges, its cycle trims and those that found nothing stored,
    # the high-water mark of the decoded slots it remembers, and the SU
    # packets its cycle trims discarded.
    graph_max_nodes: int = 0
    graph_max_edges: int = 0
    cycle_trims: int = 0
    cycle_trims_on_empty_graph: int = 0
    graph_max_decoded: int = 0
    trimmed_su: int = 0
    graph_slots: int = 0  # chain decoding's slots that reached `cd_protocol.run_slot`

    def __post_init__(self):
        if not (0.0 <= self.pu_throughput <= 1.0):
            raise ValueError("PU throughput must lie in [0, 1] per slot")


class TraceChunk(NamedTuple):
    """One batch of a run's slots as int columns, handed to `trace_hook`.

    Entry i of every column is slot `first + i`.  `states` is the compact
    states by id, the states of the scheme model's `mdp.StepTable`, each the
    policy's (cd, tracked t).  `decoded` counts the SU packets credited
    before slot `first`.  Per slot the columns hold the outcome region `y`,
    the compact-state id, the true PU's `t`, the SU's access decision, the
    overheard feedback `y_p` and the window's completion `o`, the slot of
    the SU packet sent (`l_s`, -1 if none), the
    SU packets credited `r_s`, and the decoding graph's root potential `v`
    before the slot, as `cd_protocol.run_slot` returns it with the slot's
    credits, and its node and edge counts after it.  The baselines
    run no graph: their `l_s` is -1 and `v`, `g_nodes` and `g_edges` are 0.
    """

    first: int
    decoded: int
    states: list
    y: np.ndarray
    sid: np.ndarray
    t: np.ndarray
    a_s: np.ndarray
    y_p: np.ndarray
    o: np.ndarray
    l_s: np.ndarray
    r_s: np.ndarray
    v: np.ndarray
    g_nodes: np.ndarray
    g_edges: np.ndarray


def _batch_stats(per_batch: np.ndarray, counts: np.ndarray):
    means = per_batch / counts
    if means.size < 2:
        return float(means.mean()), 0.0
    return float((per_batch.sum() / counts.sum())), float(
        means.std(ddof=1) / np.sqrt(means.size)
    )


def _empty_flags() -> np.ndarray:
    """`_EMPTY_FLAGS`, read off `SLOT_OUTCOMES`."""
    flags = np.zeros((2, 256), dtype=np.int64)
    for (a_s, unknown, y), (su_hit, pu_hit, edges) in SLOT_OUTCOMES.items():
        flags[a_s, y] |= _PLAIN | ((su_hit | pu_hit << 1 | bool(edges) << 2) if unknown
                                   else su_hit << 3)
    return flags


# What a slot does on a graph that stores nothing, by [a_s, y] with y read as
# an unsigned byte, as bits: 1 the SU packet is decoded, 2 the PU packet is
# decoded and 4 the slot buffers an edge, each while the PU packet is not
# known, 8 the SU packet is decoded once it is known, and `_PLAIN` the
# outcome is in 1..7.  A known PU packet is not decoded again and buffers
# nothing.  The stretch path takes a slot only while it is `_PLAIN`.
_PLAIN = 16
_EMPTY_FLAGS = _empty_flags()


def _graph_pass(g: CdGraph, first: int, ages: np.ndarray, cols: np.ndarray, y: np.ndarray,
                tracing: bool):
    """Chain decoding's graph over walked slots from slot `first` on.

    Reads each slot's tracked try count from `ages` by its compact state, for
    the tracked PU packet and the cycle starts, and the SU's access decision
    from the slots' entry columns `cols`.  A slot that finds a node stored
    runs with one `run_slot` call.  From a slot that finds the graph empty
    the pass jumps to the next slot that buffers an edge, with what each
    slot would do on an empty graph (`_EMPTY_FLAGS`) worked out for the whole
    group with numpy: the SU packets decoded, and whether the cycle's PU
    packet is known, that is whether it was hit since the cycle start.  The
    columns say so exactly from a cycle start inside the stretch on, so the
    slots before it are stepped one by one on the graph's own decoded sets;
    a slot whose tracked PU packet is not the one of its cycle, or whose
    outcome is outside 1..7, goes to `run_slot`, which raises where it must.
    The stretch commits to the graph what `run_slot` would leave: the last
    cycle's decoded slots, the trims, the horizon, `max_decoded` and the slot.

    Returns the SU packets the graph credits per slot, when `tracing` the
    columns (l_s, v, g_nodes, g_edges) of `TraceChunk`, the number of root
    retransmissions, the SU sends of a label other than the fresh `su(n)`,
    and the number of `run_slot` calls.
    """
    size = len(y)
    at = np.arange(size)
    a_s = cols[_A_S]
    t = ages[cols[_SID]]
    flags = _EMPTY_FLAGS[a_s, y.view(np.uint8)]
    # A slot's tracked PU packet was first sent t slots ago, t being the
    # tracked try count of its compact state; a t of 0 starts a new primary
    # ARQ cycle, with a packet first sent now.  A slot whose packet is not
    # the one of its cycle is no longer plain.
    opens = t == 0
    start_at = np.maximum.accumulate(np.where(opens, at, -1))  # -1: before the group
    flags[at - t != np.where(start_at < 0, g.horizon - first, start_at)] &= ~_PLAIN
    pu_hit = flags & 2 > 0
    last_hit = np.maximum.accumulate(np.where(pu_hit, at, -1))
    known = np.zeros(size, dtype=bool)
    known[1:] = last_hit[:-1] >= start_at[1:]
    credits = np.where(known, flags >> 3, flags) & 1
    starts = np.flatnonzero(opens)
    cycle_decoded = (np.add.reduceat(credits, starts) + np.logical_or.reduceat(pu_hit, starts)
                     ).tolist() if len(starts) else []
    stops = [*np.flatnonzero((flags & _PLAIN == 0) | (flags & 4 > 0) & ~known).tolist(), size]
    starts = [*starts.tolist(), size]
    credited = np.flatnonzero(credits).tolist()
    hits = np.flatnonzero(pu_hit).tolist()
    t_l, a_l, y_l, flag_l = t.tolist(), a_s.tolist(), y.tolist(), flags.tolist()

    fixed, fixed_r, rows = [], [], []  # slots credited apart from the columns
    retx = calls = 0
    p = 0
    while p < size:
        if not g.index and g.slot == first + p:
            c = starts[bisect_left(starts, p)]
            decoded = False
            while p < c:  # before the stretch's first cycle start
                f, n = flag_l[p], first + p
                if not f & _PLAIN or a_l[p] and n in g.decoded_su:
                    break
                if n - t_l[p] in g.decoded_pu:
                    r = f >> 3 & 1
                elif f & 4:
                    break
                else:
                    r = f & 1
                    if f & 2:
                        g.decoded_pu.add(n - t_l[p])
                        decoded = True
                if r:
                    g.decoded_su.add(n)
                    decoded = True
                fixed.append(p)
                fixed_r.append(r)
                p += 1
            if decoded:
                g.max_decoded = max(g.max_decoded, len(g.decoded_su) + len(g.decoded_pu))
            if p == c:  # whole cycles as columns, up to the next stop
                j = stops[bisect_left(stops, c)]
                if c < j:
                    k0, k1 = bisect_left(starts, c), bisect_left(starts, j)
                    last = starts[k1 - 1]
                    g.cycle_trims += k1 - k0
                    g.empty_cycle_trims += k1 - k0
                    g.horizon = first + last
                    g.decoded_su.clear()
                    g.decoded_su.update(first + x for x in credited[
                        bisect_left(credited, last):bisect_left(credited, j)])
                    g.decoded_pu.clear()
                    if bisect_left(hits, last) < bisect_left(hits, j):
                        g.decoded_pu.add(first + last)
                    g.max_decoded = max([g.max_decoded, len(g.decoded_su) + len(g.decoded_pu),
                                         *cycle_decoded[k0:k1 - 1]])
                p = j
            g.slot = first + p
            if p == size:
                break
        n = first + p
        r_s, l_s, v_before = run_slot(g, n, t_l[p] == 0, n - t_l[p], a_l[p], y_l[p])
        calls += 1
        fixed.append(p)
        fixed_r.append(r_s)
        if a_l[p] and l_s != su(n):  # only a graph storing an edge sends its root
            retx += 1
        if tracing:
            rows.append((p, -1 if l_s is None else slot_of(l_s), v_before,
                         len(g.index), g.edge_count()))
        p += 1
    credits[fixed] = fixed_r
    graph_cols = None
    if tracing:
        graph_cols = np.zeros((4, size), dtype=np.int64)
        graph_cols[0] = np.where(a_s, first + at, -1)
        graph_cols[1] = 1
        if rows:
            rows = np.array(rows).T
            graph_cols[:, rows[0]] = rows[1:]
    return credits, graph_cols, retx, calls


def run(
    scheme: SchemeKind,
    policy: AccessPolicy,
    cfg: SystemConfig,
    seed: int,
    n_slots: int,
    trace_hook: Callable[[TraceChunk], None] | None = None,
    batches: int = 100,
) -> RunMetrics:
    """Simulate `n_slots` slots of the given scheme under a fixed policy.

    Deterministic in (scheme, policy, cfg, seed).  The slots' random inputs
    are packed into int codes one slice at a time (`_SlotWalk.encode`); the
    slot loop then only looks up, per slot, the entry of its walk state and
    code, filled on first use, and moves to the entry's next walk state.
    The loop walks a group of at most `_GROUP` slots of a slice at a time,
    and every trace column is a numpy gather over the group's entry ids,
    every batch sum a `reduceat` of one, added up over the groups a batch
    spans; chain decoding also runs its decoding graph over each walked
    group (`_graph_pass`): one `cd_protocol.run_slot` call per slot that
    finds a node stored or buffers one, and the empty-graph stretches
    between as columns.  An untraced run holds
    memory that does not grow with `n_slots`: one slice of inputs, one
    group of columns, the entry table and the graph, which forgets at each
    cycle start the decoded slots it can no longer be asked about.  A
    traced run also holds the columns of one batch, O(n_slots / batches).

    Standard errors use batch means over `batches` contiguous blocks, which
    absorbs the burst correlation that chain releases introduce.  The SU's
    access thresholds are the distinct values of `policy.probs`.  Raises
    `KeyError`, naming the slot, when the policy has no entry for a compact
    state the run reaches.  A `trace_hook` is called once per batch, in
    order, with the batch's `TraceChunk`, after the group that ends the
    batch is walked.

    `drop_rate` is one rule for every scheme: the fresh SU packets sent
    less the SU packets credited, per slot.  The SU is backlogged, so every
    fresh packet is in the end either credited or given up, and the counts
    compare across schemes.  A baseline SU sends a fresh packet whenever it
    transmits; a chain-decoding SU does unless it retransmits the root of
    its graph, which only a graph storing an edge can make it do.  Packets
    still buffered when the run ends count as dropped, a bias of
    O(1/n_slots).  Chain decoding also reports in `trimmed_su` the SU
    packets its cycle trims discarded.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    batches = min(batches, n_slots)
    table = step_table(scheme_model(scheme, cfg.pu))
    slots = _SlotWalk(table, policy.probs, cfg.pu)
    row = slots.row((slots.visit(table.start), 0))
    # Chain decoding runs the decoding graph, which credits its packets.
    g = CdGraph() if scheme is SchemeKind.CHAIN_DECODING else None
    ages = np.array([s.t for s in table.states])
    graph_slots = 0
    tracing = trace_hook is not None

    # Slot n falls in batch (n * batches) // n_slots.
    edges = [-(-b * n_slots // batches) for b in range(batches + 1)]
    su_batch, pu_batch = [0] * batches, [0] * batches
    fresh = 0  # fresh SU packets sent
    decoded = 0  # SU packets credited in the batches before the open one
    pending = []  # the open batch's trace columns, one tuple per group walked
    fill, next_row = slots.fill, slots.next_row
    lo = 0  # the group's first slot
    for y_slice, code_slice in slots.encode(cfg, seed, n_slots):
        for at in range(0, len(code_slice), _GROUP):
            ids = []
            append = ids.append
            try:
                for c in code_slice[at:at + _GROUP].tolist():
                    e = row[c]
                    if e < 0:
                        e = fill(row, c)
                    append(e)
                    row = next_row[e]
            except KeyError as err:
                raise KeyError(f"{err.args[0]}, on the step of slot {lo + len(ids)}") from None
            hi = lo + len(ids)
            y = y_slice[at:at + _GROUP]
            cols = slots.table()[:, ids]
            fresh += int(cols[_A_S].sum())
            if g is None:
                r_s = cols[_R_S]
            else:
                r_s, graph_cols, retx, calls = _graph_pass(g, lo, ages, cols, y, tracing)
                fresh -= retx
                graph_slots += calls
            # The group's part of each batch it meets: from its first slot, and
            # from each batch edge inside it.
            first_b = bisect_right(edges, lo) - 1
            cuts = [lo, *edges[first_b + 1:bisect_left(edges, hi)]]
            starts = [c - lo for c in cuts]
            su_sums = np.add.reduceat(r_s, starts).tolist()
            pu_sums = np.add.reduceat(cols[_SUCCESS], starts).tolist()
            if tracing:
                if g is None:
                    graph_cols = (np.full(hi - lo, -1, dtype=np.int32),
                                  *np.zeros((3, hi - lo), dtype=np.int32))
                l_s, v, g_nodes, g_edges = graph_cols
                # in the order of the columns of `TraceChunk`
                columns = (y, *cols[:_SUCCESS], l_s, r_s, v, g_nodes, g_edges)
            for b, a, su_sum, pu_sum in zip(itertools.count(first_b), cuts, su_sums, pu_sums):
                su_batch[b] += su_sum
                pu_batch[b] += pu_sum
                end = min(edges[b + 1], hi)
                if tracing:
                    pending.append(tuple(x[a - lo:end - lo] for x in columns))
                if end == edges[b + 1]:
                    if tracing:
                        trace_hook(TraceChunk(edges[b], decoded, table.states,
                                              *map(np.concatenate, zip(*pending))))
                        pending = []
                    decoded += su_batch[b]
            lo = hi

    counts = np.diff(np.array(edges, dtype=float))
    su_mean, su_se = _batch_stats(np.array(su_batch, dtype=float), counts)
    pu_mean, pu_se = _batch_stats(np.array(pu_batch, dtype=float), counts)
    graph_counts = {}
    if g is not None:
        graph_counts = dict(
            graph_max_nodes=g.max_nodes,
            graph_max_edges=g.max_edges,
            graph_max_decoded=g.max_decoded,
            cycle_trims=g.cycle_trims,
            cycle_trims_on_empty_graph=g.empty_cycle_trims,
            trimmed_su=g.discarded_su,
            graph_slots=graph_slots,
        )
    return RunMetrics(
        scheme=scheme.value,
        seed=seed,
        n_slots=n_slots,
        su_throughput=su_mean,
        su_se=su_se,
        pu_throughput=pu_mean,
        pu_se=pu_se,
        drop_rate=(fresh - decoded) / n_slots,
        decoded_total=decoded,
        states_visited=len(slots.mus),
        steps_filled=len(slots.steps),
        **graph_counts,
    )


# -- per-trace invariant checks ------------------------------------------------------


@dataclass
class InvariantReport:
    slots: int = 0
    cycles: int = 0
    checks: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, name: str, n: int = 1):
        if n:
            self.checks[name] = self.checks.get(name, 0) + n

    def fail(self, name: str, slot: int, detail: str):
        self.violations.append(f"slot {slot}: {name}: {detail}")


_PHASE_FLAGS = {p.value: phase_flags(p) for p in CdPhase}
# The always-transmit outcome by [a_s, y]; y = 0 stands for an outcome
# outside 1..7, which is reported and then counted as one that decodes nothing.
_TRANSLATED = np.array([[4] + [translate_outcome(a_s, y) for y in range(1, 8)] for a_s in (0, 1)])


def _among(regions) -> np.ndarray:
    """Membership table over outcomes 0..7, indexed by a translated outcome."""
    return np.array([y in regions for y in range(8)])


_CLEAN, _PU_ALONE = _among(SU_CLEAN), _among(PU_ALONE)
_LOSES_ROOT, _RELEASES_PINNED = _among({1, 3, 5, 6, 7}), _among({1, 3, 6})
# The per-cycle tallies, one row each: outcomes outside {2, 4, 5} and
# outside {2, 4, 5, 7}, region 5, region 7, PU packets decoded under an SU
# packet, and the SU_UNDER_PU and SU_NEEDS_PU outcomes the bound counts.
_NOT245, _NOT2457, _N5, _N7, _N13, _N12, _N57 = range(7)
_TALLIES = np.array([~_among({2, 4, 5}), ~_among({2, 4, 5, 7}), _among({5}), _among({7}),
                     _among(PU_UNDER_SU), _among(SU_UNDER_PU), _among(SU_NEEDS_PU)],
                    dtype=np.int64)
# Check names in the order the checks run on one slot, which orders its violations.
_CHECKS = ("tracker", "outcome-range", "compact-state", "recursion", "bound", "full-release")


def _in_cycle(x: np.ndarray, starts: np.ndarray, seg: np.ndarray, carry: np.ndarray):
    """Per-cycle prefix sums of the tally rows `x`, one column per slot.

    `starts` holds the chunk's cycle starts after a leading 0, `seg` each
    slot's index into it, and `carry` the tallies of the cycle still open
    when the chunk began.  Returns the tallies of each slot's cycle before
    that slot, the totals of the cycles that close inside the chunk, and
    the totals of the cycle left open at its end.
    """
    excl = np.zeros((x.shape[0], x.shape[1] + 1), dtype=np.int64)
    np.cumsum(x, axis=1, out=excl[:, 1:])
    base = excl[:, starts]
    base[:, 0] -= carry
    before = excl[:, :-1] - base[:, seg]
    closed = excl[:, starts[1:]] - base[:, :-1]
    return before, closed, excl[:, -1] - base[:, -1]


class TraceInvariantChecker:
    """Verifier of the per-trace identities and bounds, one chunk at a time.

    Every slot is first translated onto the always-transmit system; the
    cumulative-credit recursion is checked slot by slot, the throughput
    upper bound and the full-release condition at the end of qualifying
    cycles are checked at every cycle boundary, and the tracker and
    compact-state invariants are checked pointwise.  Identity checks
    (recursion, release, compact state) only apply to chain-decoding
    traces; the bound and tracker checks apply to any scheme.

    A chunk is checked column-wise: per-cycle accumulators are prefix sums
    that restart at each cycle start, and the cycle still open at the end of
    a chunk, the running bound and the last slot's recursion terms carry
    over to the next.  Counts and violations are those of a slot-by-slot
    check (`tests/_oracles.py::check_trace_invariants`), with each slot's
    violations in the order of `_CHECKS`.

    `run` steps the true PU and the tracker through the same ARQ table on
    the same feedback, so the tracker check only catches a difference in
    their start state.  That the ARQ rule itself is exact is checked by
    `tests/test_pu_tracker.py::test_tracker_matches_ground_truth`, against
    an independent statement of the PU.
    """

    def __init__(self, cfg: SystemConfig, scheme: SchemeKind = SchemeKind.CHAIN_DECODING):
        self.cfg = cfg
        self.is_cd = scheme is SchemeKind.CHAIN_DECODING
        self.report = InvariantReport()
        self._last: tuple[int, int] | None = None  # (M + v, recursion rhs) of the last slot
        # the open cycle's tallies, then its clean SU outcomes that follow a
        # PU decode under an SU packet (a cycle with one qualifies)
        self._open = np.zeros(len(_TALLIES) + 1, dtype=np.int64)
        self._bound_total = 0  # the bound summed over the closed cycles
        self._started = False

    def feed(self, chunk: TraceChunk):
        rep = self.report
        n_rows = len(chunk.sid)
        if not n_rows:
            return
        first = chunk.first
        sid, t, a_s, v = chunk.sid, chunk.t, chunk.a_s, chunk.v
        y = np.asarray(chunk.y, dtype=np.int64)
        m = chunk.decoded + np.cumsum(chunk.r_s) - chunk.r_s  # credited before each slot
        faults = []  # (row, check index, detail)
        rep.slots += n_rows

        # (iii) tracker exactness
        rep.count("tracker", n_rows)
        tracked = np.array([s[1] for s in chunk.states], dtype=np.int64)[sid]
        for i in np.flatnonzero(tracked != t).tolist():
            n = first + i
            faults.append((i, 0, f"inferred (t={tracked[i]}, l={n - tracked[i]}) "
                              f"vs true (t={t[i]}, l={n - t[i]})"))

        # (v) outcome sanity
        in_range = (y >= 1) & (y <= 7)
        faults.extend((i, 1, f"y={y[i]}") for i in np.flatnonzero(~in_range).tolist())
        yt = _TRANSLATED[a_s, np.where(in_range, y, 0)]

        # (iv) compact-state invariants, once per state the chunk visits
        if self.is_cd:
            rep.count("compact-state", n_rows)
            for s in np.unique(sid).tolist():
                details = self._state_faults(chunk.states[s][0])
                if details:
                    faults.extend((i, 2, x) for i in np.flatnonzero(sid == s).tolist()
                                  for x in details)

        # per-cycle tallies; a cycle starts where the PU sends a new packet
        opens = t == 0
        if first == 0:
            opens[0] = True
        cut = np.flatnonzero(opens)
        starts = np.concatenate(([0], cut))
        seg = np.cumsum(opens)
        tally = _TALLIES[:, yt]
        before, closed, open_ = _in_cycle(tally, starts, seg, self._open[:-1])
        qual = (_CLEAN[yt] & (before[_N13] > 0)).astype(np.int64)[None]
        _, closed_q, open_q = _in_cycle(qual, starts, seg, self._open[-1:])

        # (i) recursion: M + v moves by the previous slot's right-hand side
        if self.is_cd:
            p245 = before[_NOT245] == 0
            rhs = (_CLEAN[yt].astype(np.int64) - (p245 & _LOSES_ROOT[yt])
                   + (p245 & _PU_ALONE[yt]) * before[_N5]
                   + ((before[_NOT2457] == 0) & _RELEASES_PINNED[yt]))
            total = m + v
            want = np.empty_like(total)
            want[1:] = total[:-1] + rhs[:-1]
            lo = 1 if self._last is None else 0  # the trace's first slot has no predecessor
            if self._last is not None:
                want[0] = sum(self._last)
            rep.count("recursion", n_rows - lo)
            faults.extend((i, 3, f"M+v={total[i]}, recursion gives {want[i]}")
                          for i in (np.flatnonzero(total[lo:] != want[lo:]) + lo).tolist())
            self._last = (int(total[-1]), int(rhs[-1]))

        # cycle boundaries: close out each finished cycle
        if len(cut):
            kept = slice(0 if self._started else 1, None)
            at, closed, closed_q = cut[kept], closed[:, kept], closed_q[0, kept]
            bound = self._bound_total + np.cumsum(
                closed[_N12] + (closed[_NOT245] > 0) * closed[_N57]
                - ((closed[_N7] > 0) & (closed[_NOT2457] == 0)))
            rep.cycles += len(at)
            rep.count("bound", len(at))
            faults.extend((i, 4, f"decoded {m[i]} exceeds bound {b}")
                          for i, b in zip(at.tolist(), bound.tolist()) if m[i] > b)
            if self.is_cd:
                release = at[closed_q > 0]
                rep.count("full-release", len(release))
                faults.extend((i, 5, f"root potential {v[i]} at a qualifying cycle end")
                              for i in release.tolist() if v[i] != 1)
            if len(at):
                self._bound_total = int(bound[-1])
            self._started = True
        self._open[:-1], self._open[-1] = open_, open_q[0]

        faults.sort(key=lambda f: f[:2])
        for i, check, detail in faults:
            rep.fail(_CHECKS[check], first + i, detail)

    def _state_faults(self, cd) -> list[str]:
        phase, b_s = cd
        r_max = self.cfg.pu.r_max
        details = []
        flags = _PHASE_FLAGS.get(phase)
        if flags not in ((0, 1), (1, 1), (1, 0)):
            details.append(f"phase {phase!r} has flags {flags}")
        if phase != CdPhase.U.value and b_s != 0:
            details.append(f"b={b_s} in phase {phase}")
        if not (0 <= b_s <= r_max - 1):
            details.append(f"b={b_s} outside 0..{r_max - 1}")
        return details
