"""Slot-by-slot Monte Carlo engine and per-trace invariant checks.

One run wires the fading channel, the ground-truth PU pair, the SU-side
tracker, the decoding machinery of the selected scheme, and a fixed access
policy.  Channel gains, PU access draws, arrivals, and SU access draws come
from four independent seed-derived streams, so two runs with the same seed
but different policies see the same environment.

The baseline schemes reuse the decoding graph with capability masks rather
than separate receivers: FIC/BIC keeps the graph only within the current
primary ARQ window, FIC-only additionally refuses to buffer dependency
edges, and no-FIC/BIC decodes slot by slot with no memory at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .cd_graph import CdGraph, prune_unreachable, pu, record_slot, root, su
from .cd_protocol import on_new_cycle, select_label
from .channel import (
    PU_ALONE,
    PU_UNDER_SU,
    SU_CLEAN,
    SU_NEEDS_PU,
    SU_UNDER_PU,
    AvgSnrConfig,
    RatePair,
    classify_su_outcomes,
    draw_gain_arrays,
    pu_success_probability,
)
from .mdp import AccessPolicy
from .pu_system import PuConfig
from .pu_tracker import PuFeedback, update
from .virtual_state import (
    CdPhase,
    ChainDecodingModel,
    next_belief,
    phase_flags,
    point_belief,
    translate_outcome,
)

__all__ = [
    "SchemeKind",
    "SystemConfig",
    "RunMetrics",
    "TraceRecord",
    "InvariantReport",
    "TraceInvariantChecker",
    "FicBicModel",
    "FicOnlyModel",
    "NoFicBicModel",
    "GenieModel",
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
    pu_power: float = 1.0

    def success_probs(self) -> tuple[float, float]:
        return (
            pu_success_probability(self.snr, self.rates, 0),
            pu_success_probability(self.snr, self.rates, 1),
        )


# -- compact models of the baseline schemes ---------------------------------------


def _pu_decoded_event(a_s: int, a_p: int, y: int) -> int:
    """Physical decode of the current PU packet at the SU receiver."""
    if not a_p:
        return 0
    return int(y in (PU_UNDER_SU if a_s else PU_ALONE))


def _direct_su_decode(a_s: int, a_p: int, y: int) -> int:
    """Fresh SU packet decoded while the PU packet is unknown."""
    if not a_s:
        return 0
    return int(y in (SU_UNDER_PU if a_p else SU_CLEAN))


class FicBicModel:
    """Within-window interference cancellation, both directions.

    Phase ("U", b): current PU packet undecoded, b buffered SU packets that
    its decoding would release.  Phase ("K", 0): packet known, clean
    channel until the window ends.
    """

    name = "fic_bic"

    def __init__(self, cfg: PuConfig):
        self.b_cap = cfg.r_max - 1
        self._cfg = cfg

    def cd_states(self, cfg: PuConfig | None = None):
        cfg = cfg or self._cfg
        return [("U", b) for b in range(cfg.r_max)] + [("K", 0)]

    def initial_cd(self):
        return ("U", 0)

    def reward(self, cd, a_s, a_p, y):
        if cd[0] == "K":
            return a_s * (y in SU_CLEAN)
        return _direct_su_decode(a_s, a_p, y) + _pu_decoded_event(a_s, a_p, y) * cd[1]

    def next_cd(self, cd, a_s, a_p, y, o):
        if o:
            return ("U", 0)
        if cd[0] == "K":
            return cd
        if _pu_decoded_event(a_s, a_p, y):
            return ("K", 0)
        return ("U", min(cd[1] + a_s * a_p * (y in SU_NEEDS_PU), self.b_cap))


class FicOnlyModel:
    """Forward-only cancellation: a decoded PU packet cleans future slots of
    its window but never releases previously buffered signals."""

    name = "fic_only"

    def __init__(self, cfg: PuConfig | None = None):
        self._cfg = cfg

    def cd_states(self, cfg: PuConfig | None = None):
        return [("U", 0), ("K", 0)]

    def initial_cd(self):
        return ("U", 0)

    def reward(self, cd, a_s, a_p, y):
        if cd[0] == "K":
            return a_s * (y in SU_CLEAN)
        return _direct_su_decode(a_s, a_p, y)

    def next_cd(self, cd, a_s, a_p, y, o):
        if o:
            return ("U", 0)
        if cd[0] == "U" and _pu_decoded_event(a_s, a_p, y):
            return ("K", 0)
        return cd


class NoFicBicModel:
    """Slot-by-slot decoding; PU knowledge is never carried anywhere."""

    name = "no_fic_bic"

    def __init__(self, cfg: PuConfig | None = None):
        self._cfg = cfg

    def cd_states(self, cfg: PuConfig | None = None):
        return [("M", 0)]

    def initial_cd(self):
        return ("M", 0)

    def reward(self, cd, a_s, a_p, y):
        return _direct_su_decode(a_s, a_p, y)

    def next_cd(self, cd, a_s, a_p, y, o):
        return cd


class GenieModel:
    """Hypothetical receiver that always knows the PU packet in advance.

    Not a runnable scheme; used to evaluate the analytic ceiling every
    scheme meets when the cross link vanishes.
    """

    name = "genie"

    def __init__(self, cfg: PuConfig | None = None):
        self._cfg = cfg

    def cd_states(self, cfg: PuConfig | None = None):
        return [("G", 0)]

    def initial_cd(self):
        return ("G", 0)

    def reward(self, cd, a_s, a_p, y):
        return a_s * (y in SU_CLEAN)

    def next_cd(self, cd, a_s, a_p, y, o):
        return cd


def scheme_model(scheme: SchemeKind, cfg: PuConfig):
    return {
        SchemeKind.CHAIN_DECODING: ChainDecodingModel,
        SchemeKind.FIC_BIC: FicBicModel,
        SchemeKind.FIC_ONLY: FicOnlyModel,
        SchemeKind.NO_FIC_BIC: NoFicBicModel,
    }[scheme](cfg)


def _transition_table(model, cfg: PuConfig):
    tbl = {}
    for cd in model.cd_states(cfg):
        for a_s in (0, 1):
            for a_p in (0, 1):
                for y in range(1, 8):
                    for o in (0, 1):
                        tbl[(cd, a_s, a_p, y, o)] = model.next_cd(cd, a_s, a_p, y, o)
    return tbl


def _arq_table(cfg: PuConfig):
    """`pu_tracker.update` over every (t, d, feedback), keyed by plain ints,
    which hash faster than `PuFeedback` members in the per-slot loop."""
    return {
        (t, d, int(y)): update(t, d, y, cfg)
        for t in range(cfg.r_max)
        for d in range(cfg.d_max)
        for y in PuFeedback
    }


# -- receivers ---------------------------------------------------------------------


class _CdReceiver:
    """Full chain-decoding receiver: graph, protocol labeling, trimming."""

    def __init__(self):
        self.graph = CdGraph()
        self.decoded = 0

    def begin_slot(self, t_hat: int):
        if t_hat == 0:
            on_new_cycle(self.graph)

    def choose_label(self, n: int, prospective_pu_slot: int):
        known = 1 if prospective_pu_slot in self.graph.decoded_pu else 0
        return select_label(self.graph, pu(prospective_pu_slot), known, n)

    def record(self, l_s, a_p: int, pu_slot: int, y: int) -> int:
        g = self.graph
        l_p = pu(pu_slot) if a_p else None
        known = 1 if (a_p and pu_slot in g.decoded_pu) else 0
        outcome = None if (l_s is None and l_p is None) else y
        r = record_slot(g, l_s, l_p, known, outcome)
        self.decoded += r
        return r

    def root_potential(self) -> int:
        return root(self.graph)[1]


class _WindowReceiver:
    """Graph-backed receiver masked down to one ARQ window.

    Labels are always fresh.  With `bic` unset, dependency edges are never
    buffered, so a late PU decode cleans only future slots.  The window
    reset prunes against the fresh label, which drops every stored node.
    """

    def __init__(self, bic: bool):
        self.graph = CdGraph()
        self.bic = bic
        self.decoded = 0

    def record(self, a_s: int, a_p: int, pu_slot: int, y: int, o: int) -> int:
        g = self.graph
        n = g.slot
        known = 1 if (a_p and pu_slot in g.decoded_pu) else 0
        y_eff = y
        if not self.bic and a_s and a_p and not known and y in (5, 6, 7):
            y_eff = 4
        l_s = su(n) if a_s else None
        l_p = pu(pu_slot) if a_p else None
        outcome = None if (l_s is None and l_p is None) else y_eff
        r = record_slot(g, l_s, l_p, known, outcome)
        self.decoded += r
        if o:
            prune_unreachable(g, su(g.slot))
        return r


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
    pu_power: float
    pu_drops: float
    pu_queue_delay: float
    drop_rate: float
    decoded_total: int

    def __post_init__(self):
        if not (0.0 <= self.pu_throughput <= 1.0):
            raise ValueError("PU throughput must lie in [0, 1] per slot")


class TraceRecord(NamedTuple):
    n: int
    a_s: int
    a_p: int
    y_p: int  # PuFeedback value
    y: int
    o: int
    t: int
    d: int
    q: int
    tr_t: int
    tr_d: int
    tr_label: int | None
    true_label: int | None
    l_s: int | None
    r_s: int
    m_before: int
    v_before: int
    phase: str
    b_s: int
    cycle_start: bool
    g_nodes: int
    g_edges: int


def _batch_stats(per_batch: np.ndarray, counts: np.ndarray):
    means = per_batch / counts
    if means.size < 2:
        return float(means.mean()), 0.0
    return float((per_batch.sum() / counts.sum())), float(
        means.std(ddof=1) / np.sqrt(means.size)
    )


def run(
    scheme: SchemeKind,
    policy: AccessPolicy,
    cfg: SystemConfig,
    seed: int,
    n_slots: int,
    trace_hook: Callable[[TraceRecord], None] | None = None,
    batches: int = 100,
) -> RunMetrics:
    """Simulate `n_slots` slots of the given scheme under a fixed policy.

    Deterministic in (scheme, policy, cfg, seed).  Standard errors use
    batch means over `batches` contiguous blocks, which absorbs the burst
    correlation that chain releases introduce.
    """
    if n_slots < batches:
        batches = max(1, n_slots)
    pu_cfg = cfg.pu
    model = scheme_model(scheme, pu_cfg)
    table = _transition_table(model, pu_cfg)
    arq = _arq_table(pu_cfg)
    q_max = pu_cfg.q_max
    rho = cfg.success_probs()

    ss = np.random.SeedSequence(seed)
    gain_rng, pu_rng, arr_rng, su_rng = (np.random.default_rng(s) for s in ss.spawn(4))
    gs, gps, gp, gsp = draw_gain_arrays(gain_rng, cfg.snr, n_slots)
    theta_p = 2.0 ** cfg.rates.r_p - 1.0
    y_all = classify_su_outcomes(gs, gps, cfg.rates).tolist()
    succ0 = (gp > theta_p).tolist()
    succ1 = (gp > theta_p * (1.0 + gsp)).tolist()
    pu_u = pu_rng.random(n_slots).tolist()
    su_u = su_rng.random(n_slots).tolist()
    arrivals = arr_rng.choice(
        pu_cfg.arrival_pmf.size, size=n_slots, p=pu_cfg.arrival_pmf
    ).tolist()

    is_cd = scheme is SchemeKind.CHAIN_DECODING
    if is_cd:
        receiver = _CdReceiver()
    elif scheme is SchemeKind.NO_FIC_BIC:
        receiver = None
    else:
        receiver = _WindowReceiver(bic=scheme is SchemeKind.FIC_BIC)

    t = d = q = 0
    tr_t = tr_d = 0
    idle, ack, nack = int(PuFeedback.IDLE), int(PuFeedback.ACK), int(PuFeedback.NACK)
    cd_state = model.initial_cd()
    belief = point_belief(0, q_max)
    belief_cache: dict = {}
    probs = policy.probs
    mu_p = pu_cfg.transmit_prob

    su_batch = np.zeros(batches)
    pu_batch = np.zeros(batches)
    counts = np.zeros(batches)
    power_sum = 0.0
    drops_sum = 0.0
    delay_sum = 0.0
    nofic_drops = 0
    decoded = 0

    for n in range(n_slots):
        bi = (n * batches) // n_slots
        counts[bi] += 1
        if is_cd:
            receiver.begin_slot(tr_t)

        state = (cd_state, tr_t, tr_d, belief)
        try:
            mu = probs[state]
        except KeyError:
            raise KeyError(f"policy has no entry for state {state}") from None
        a_s = 1 if su_u[n] < mu else 0

        l_s = None
        l_s_slot = None
        prospective = n - tr_d
        if is_cd and a_s:
            decision = receiver.choose_label(n, prospective)
            l_s = decision.label
            l_s_slot = l_s.slot

        a_p = 1 if (q > 0 and pu_u[n] < mu_p(t, d, q)) else 0
        success = (succ1[n] if a_s else succ0[n]) if a_p else False
        y_p = (ack if success else nack) if a_p else idle
        y = y_all[n]

        # The ground truth and the SU-side tracker both step on the
        # overheard feedback, whose presence is the access decision.
        o, t_next, d_next = arq[t, d, y_p]
        o_hat, tr_t_next, tr_d_next = arq[tr_t, tr_d, y_p]

        if trace_hook is not None:
            m_before = receiver.decoded if receiver is not None else decoded
            v_before = receiver.root_potential() if is_cd else 0

        if is_cd:
            r_s = receiver.record(l_s if a_s else None, a_p, prospective, y)
        elif receiver is not None:
            r_s = receiver.record(a_s, a_p, prospective, y, o)
        else:
            r_s = _direct_su_decode(a_s, a_p, y)
            if a_s and not r_s:
                nofic_drops += 1
        decoded += r_s

        su_batch[bi] += r_s
        pu_batch[bi] += a_p * success
        power_sum += a_p
        drops_sum += max(q - o + arrivals[n] - q_max, 0)
        delay_sum += q

        if trace_hook is not None:
            phase, b_s = (cd_state if is_cd else ("", 0))
            g = receiver.graph if receiver is not None else None
            trace_hook(
                TraceRecord(
                    n=n, a_s=a_s, a_p=a_p, y_p=y_p, y=y, o=o, t=t, d=d, q=q,
                    tr_t=tr_t, tr_d=tr_d,
                    tr_label=(prospective if a_p else None),
                    true_label=((n - d) if a_p else None),
                    l_s=l_s_slot if a_s else None,
                    r_s=r_s, m_before=m_before, v_before=v_before,
                    phase=phase, b_s=b_s,
                    cycle_start=bool(a_p and t == 0),
                    g_nodes=(len(g.su_nodes) + len(g.pu_nodes)) if g else 0,
                    g_edges=g.edge_count() if g else 0,
                )
            )

        # advance belief first (it conditions on this slot's tracked t, d)
        bkey = (tr_t, tr_d, belief, o_hat, a_s)
        nxt = belief_cache.get(bkey)
        if nxt is None:
            nxt = next_belief(tr_t, tr_d, belief, o_hat, rho[a_s], pu_cfg)
            belief_cache[bkey] = nxt
        belief = nxt

        q = min(q - o + arrivals[n], q_max)
        t, d = t_next, d_next
        cd_state = table[(cd_state, a_s, a_p, y, o_hat)]
        tr_t, tr_d = tr_t_next, tr_d_next

    su_mean, su_se = _batch_stats(su_batch, counts)
    pu_mean, pu_se = _batch_stats(pu_batch, counts)
    if receiver is not None:
        drop_count = receiver.graph.discarded_su
    else:
        drop_count = nofic_drops
    return RunMetrics(
        scheme=scheme.value,
        seed=seed,
        n_slots=n_slots,
        su_throughput=su_mean,
        su_se=su_se,
        pu_throughput=pu_mean,
        pu_se=pu_se,
        pu_power=-cfg.pu_power * power_sum / n_slots,
        pu_drops=-drops_sum / n_slots,
        pu_queue_delay=-delay_sum / n_slots,
        drop_rate=drop_count / n_slots,
        decoded_total=decoded,
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

    def count(self, name: str):
        self.checks[name] = self.checks.get(name, 0) + 1

    def fail(self, name: str, slot: int, detail: str):
        self.violations.append(f"slot {slot}: {name}: {detail}")


_PHASE_FLAGS = {p.value: phase_flags(p) for p in CdPhase}


class TraceInvariantChecker:
    """Streaming verifier of the per-trace identities and bounds.

    Every slot is first translated onto the always-transmit system; the
    cumulative-credit recursion is checked slot by slot, the throughput
    upper bound and the full-release condition at the end of qualifying
    cycles are checked at every cycle boundary, and the tracker and
    compact-state invariants are checked pointwise.  Identity checks
    (recursion, release, compact state) only apply to chain-decoding
    traces; the bound and tracker checks apply to any scheme.
    """

    def __init__(self, cfg: SystemConfig, scheme: SchemeKind = SchemeKind.CHAIN_DECODING):
        self.cfg = cfg
        self.is_cd = scheme is SchemeKind.CHAIN_DECODING
        self.report = InvariantReport()
        self._prev_sum: int | None = None
        self._pending_rhs: int | None = None
        # per-cycle accumulators over the translated outcomes
        self._p245 = 1
        self._p2457 = 1
        self._s5 = 0
        self._seen7 = False
        self._had13 = False
        self._q_flag = False
        self._cnt12 = 0
        self._cnt57 = 0
        # totals over completed cycles
        self._bound_total = 0
        self._started = False

    def feed(self, rec: TraceRecord):
        rep = self.report
        rep.slots += 1
        r_max = self.cfg.pu.r_max

        # (iii) tracker exactness
        rep.count("tracker")
        if (rec.tr_t, rec.tr_d) != (rec.t, rec.d) or rec.tr_label != rec.true_label:
            rep.fail(
                "tracker", rec.n,
                f"inferred (t={rec.tr_t}, d={rec.tr_d}, l={rec.tr_label}) vs "
                f"true (t={rec.t}, d={rec.d}, l={rec.true_label})",
            )

        # (v) outcome sanity
        if rec.y not in (1, 2, 3, 4, 5, 6, 7):
            rep.fail("outcome-range", rec.n, f"y={rec.y}")

        # (iv) compact-state invariants
        if self.is_cd:
            rep.count("compact-state")
            kappa, iota = _PHASE_FLAGS[rec.phase]
            if (kappa, iota) not in ((0, 1), (1, 1), (1, 0)):
                rep.fail("compact-state", rec.n, f"flags ({kappa}, {iota})")
            if rec.phase != CdPhase.U.value and rec.b_s != 0:
                rep.fail("compact-state", rec.n, f"b={rec.b_s} in phase {rec.phase}")
            if not (0 <= rec.b_s <= r_max - 1):
                rep.fail("compact-state", rec.n, f"b={rec.b_s} outside 0..{r_max - 1}")

        # (i) recursion residual from the previous slot
        if self.is_cd and self._pending_rhs is not None:
            rep.count("recursion")
            got = rec.m_before + rec.v_before
            want = self._prev_sum + self._pending_rhs
            if got != want:
                rep.fail("recursion", rec.n, f"M+v={got}, recursion gives {want}")

        # cycle boundary: close out the finished cycle
        if rec.cycle_start or rec.n == 0:
            if self._started:
                rep.cycles += 1
                kappa_ga = 0 if (self._p245 == 1) else 1
                self._bound_total += self._cnt12 + kappa_ga * self._cnt57
                if self._seen7 and self._p2457 == 1:
                    self._bound_total -= 1
                rep.count("bound")
                if rec.m_before > self._bound_total:
                    rep.fail(
                        "bound", rec.n,
                        f"decoded {rec.m_before} exceeds bound {self._bound_total}",
                    )
                if self.is_cd and self._q_flag:
                    rep.count("full-release")
                    if rec.v_before != 1:
                        rep.fail(
                            "full-release", rec.n,
                            f"root potential {rec.v_before} at a qualifying cycle end",
                        )
            self._p245 = 1
            self._p2457 = 1
            self._s5 = 0
            self._seen7 = False
            self._had13 = False
            self._q_flag = False
            self._cnt12 = 0
            self._cnt57 = 0
            self._started = True

        yt = translate_outcome(rec.a_p, rec.a_s, rec.y)

        # recursion right-hand side for this slot, then roll the accumulators
        if self.is_cd:
            rhs = int(yt in SU_CLEAN)
            rhs -= self._p245 * (yt in (1, 3, 5, 6, 7))
            rhs += self._p245 * (yt in PU_ALONE) * self._s5
            rhs += self._p2457 * (yt in (1, 3, 6))
            self._pending_rhs = rhs
            self._prev_sum = rec.m_before + rec.v_before

        if self._had13 and yt in SU_CLEAN:
            self._q_flag = True
        self._had13 = self._had13 or yt in PU_UNDER_SU
        self._p245 &= yt in (2, 4, 5)
        self._p2457 &= yt in (2, 4, 5, 7)
        self._s5 += yt == 5
        self._seen7 = self._seen7 or yt == 7
        self._cnt12 += yt in SU_UNDER_PU
        self._cnt57 += yt in SU_NEEDS_PU
