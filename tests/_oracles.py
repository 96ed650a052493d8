"""Independent oracles and scalar references used only by the tests.

These deliberately avoid the package's own code paths: region probabilities
come from exact piecewise-exponential integration (with a Gauss-Laguerre
quadrature as a coarse cross-check), chain closure from boolean adjacency
matrix powers, and the constrained solve from an occupation-measure LP.

The package runs only vectorized and table-driven per-slot code, so the
scalar references live here: the one-slot channel classifier and PU decoding
test, and a ground-truth PU pair.  The PU pair states its own ARQ rule, apart
from `cogarq.pu_tracker.update`, so checking the tracker against it compares
two independent statements of the rule.  The baseline receivers are stated
here on the decoding graph, where the simulator credits them from their
compact models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import linprog

from cogarq.cd_graph import CdGraph, prune_unreachable, pu, record_slot, su
from cogarq.channel import RatePair, classify_su_outcomes
from cogarq.pu_system import PuConfig
from cogarq.pu_tracker import PuFeedback
from cogarq.simulator import InvariantReport, SchemeKind, SystemConfig, TraceInvariantChecker


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


@dataclass(frozen=True)
class PuState:
    """Internal PU triple: retransmission count, delay, queue length."""

    t: int = 0
    d: int = 0
    q: int = 0

    def validate(self, cfg: PuConfig) -> "PuState":
        if not (0 <= self.t < cfg.r_max):
            raise ValueError(f"t out of range: {self.t}")
        if not (0 <= self.d < cfg.d_max):
            raise ValueError(f"d out of range: {self.d}")
        if not (0 <= self.q <= cfg.q_max):
            raise ValueError(f"q out of range: {self.q}")
        if self.d < self.t:
            raise ValueError(f"delay {self.d} below retransmission count {self.t}")
        if self.q == 0 and (self.t or self.d):
            raise ValueError("empty queue with an active retransmission session")
        return self


def advance(state: PuState, b_p: int, a_p: int, success: bool, cfg: PuConfig):
    """Apply one slot of PU dynamics given the realized access and outcome.

    Returns (y, o, next_state).  `success` is only consulted when a_p=1.
    ACK always completes, NACK completes at either deadline, and an idle
    slot completes only at the delay deadline of a nonempty queue.
    """
    t, d, q = state.t, state.d, state.q
    if a_p:
        if q == 0:
            raise ValueError("PU cannot transmit from an empty queue")
        y = PuFeedback.ACK if success else PuFeedback.NACK
    else:
        y = PuFeedback.IDLE
    if q == 0:
        o = 0
    elif y == PuFeedback.ACK:
        o = 1
    elif y == PuFeedback.NACK:
        o = 1 if (t == cfg.r_max - 1 or d == cfg.d_max - 1) else 0
    else:
        o = 1 if d == cfg.d_max - 1 else 0
    q_next = min(q - o + b_p, cfg.q_max)
    t_next = (1 - o) * (t + a_p)
    d_next = (1 - o) * (d + (1 if t > 0 else a_p))
    return y, o, PuState(t_next, d_next, q_next)


@dataclass(frozen=True)
class StepResult:
    a_p: int
    y: PuFeedback
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
    cfg: PuConfig,
) -> StepResult:
    """One slot of the PU system with a randomized access decision.

    One uniform draw is consumed per slot even for degenerate policies, so
    trajectories stay aligned across runs that only differ in the policy.
    """
    state.validate(cfg)
    if not (0 <= b_p < cfg.arrival_pmf.size):
        raise ValueError(f"arrival count {b_p} outside pmf support")
    u = rng.random()
    a_p = 1 if u < cfg.transmit_prob(state.t, state.d, state.q) else 0
    success = pu_success(g, rates, a_s) if a_p else False
    y, o, nxt = advance(state, b_p, a_p, success, cfg)
    if a_p:
        label_event = "new" if state.t == 0 else "retx"
    else:
        label_event = None
    return StepResult(a_p, y, o, nxt, label_event)


class WindowReceiver:
    """Graph-backed baseline receiver masked down to one ARQ window.

    Labels are always fresh.  With `bic` unset, dependency edges are never
    buffered, so a late PU decode cleans only future slots.  The window
    reset prunes against the fresh label, which drops every stored node and
    counts its SU packets in `graph.discarded_su`.
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


def memoryless_decode(a_s: int, a_p: int, y: int) -> int:
    """No-FIC/BIC credit: one slot on an empty graph, forgotten afterwards."""
    l_s = su(0) if a_s else None
    l_p = pu(0) if a_p else None
    outcome = None if (l_s is None and l_p is None) else y
    return record_slot(CdGraph(), l_s, l_p, 0, outcome)


def check_trace_invariants(
    trace: Iterable,
    cfg: SystemConfig,
    scheme: SchemeKind = SchemeKind.CHAIN_DECODING,
) -> InvariantReport:
    """Feed a recorded trace to the simulator's streaming invariant checker."""
    checker = TraceInvariantChecker(cfg, scheme)
    for rec in trace:
        checker.feed(rec)
    return checker.report


def exact_region_probabilities(mean_s: float, mean_ps: float, r: RatePair) -> np.ndarray:
    """Closed-form region probabilities under independent exponential gains.

    All seven region boundaries are straight lines in the gain plane, so
    each probability reduces to one-dimensional exponential integrals.
    Degenerate means (zero) are handled by the appropriate limits.
    """
    a = 2.0 ** r.r_s - 1.0
    b = 2.0 ** r.r_p - 1.0
    c = 2.0 ** (r.r_s + r.r_p) - 1.0  # equals a + b + a*b

    def es(x):  # P(gamma_s > x)
        if mean_s == 0.0:
            return 1.0 if x < 0 else 0.0
        return math.exp(-x / mean_s)

    def eps(y):
        if mean_ps == 0.0:
            return 1.0 if y < 0 else 0.0
        return math.exp(-y / mean_ps)

    if mean_ps == 0.0:
        # gamma_ps identically zero: only regions 2 and 4 have mass
        d_s = es(a)
        return np.array([0.0, d_s, 0.0, 1.0 - d_s, 0.0, 0.0, 0.0])
    if mean_s == 0.0:
        d_p = eps(b)
        return np.array([0.0, 0.0, d_p, 1.0 - d_p, 0.0, 0.0, 0.0])

    # region 2: gamma_ps <= b, gamma_s > a (1 + gamma_ps)
    k = 1.0 / mean_ps + a / mean_s
    d_s = math.exp(-a / mean_s) * (1.0 - math.exp(-b * k)) / (mean_ps * k)
    # region 3: gamma_s <= a, gamma_ps > b (1 + gamma_s)
    k2 = 1.0 / mean_s + b / mean_ps
    d_p = math.exp(-b / mean_ps) * (1.0 - math.exp(-a * k2)) / (mean_s * k2)
    u_0 = (1.0 - es(a)) * (1.0 - eps(b))
    u_s = es(a) * (1.0 - eps(b)) - d_s
    u_p = eps(b) * (1.0 - es(a)) - d_p
    # region 1: gamma_s > a, gamma_ps > b, gamma_s + gamma_ps > c
    lam = 1.0 / mean_s - 1.0 / mean_ps
    lo, hi = a, c - b
    if abs(lam) < 1e-13:
        integral = math.exp(-c / mean_ps) * (hi - lo) / mean_s
    else:
        integral = (
            math.exp(-c / mean_ps)
            / mean_s
            * (math.exp(-lam * lo) - math.exp(-lam * hi))
            / lam
        )
    d_sp = integral + es(c - b) * eps(b)
    u_sp = es(a) * eps(b) - d_sp
    return np.array([d_sp, d_s, d_p, u_0, u_s, u_p, u_sp])


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


def lp_constrained_solve(kernel, floor: float | None, component: int = 0):
    """Occupation-measure LP for the average-reward problem.

    Maximizes the SU reward over stationary state-action frequencies,
    optionally subject to a floor on one PU reward component.  Returns
    (optimal value, access fraction).
    """
    n = kernel.p.shape[0]
    c = np.array([-kernel.r_su[s, a] for s in range(n) for a in (0, 1)])
    a_eq = np.zeros((n + 1, 2 * n))
    for s in range(n):
        for a in (0, 1):
            col = 2 * s + a
            a_eq[s, col] += 1.0
            a_eq[:n, col] -= kernel.p[s, a, :]
            a_eq[n, col] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    a_ub = b_ub = None
    if floor is not None:
        a_ub = np.array(
            [[-kernel.r_pu[s, a, component] for s in range(n) for a in (0, 1)]]
        )
        b_ub = np.array([-floor])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")
    x = res.x.reshape(n, 2)
    return -res.fun, float(x[:, 1].sum())
