"""Average-reward MDP over the compact protocol state.

The state couples a scheme-specific decoding phase with the tracked try
count t of the primary ARQ process; the backlogged PU sends in every slot,
so t is all the SU needs to track.  A scheme model supplies its phase set,
per-outcome reward, and phase update; `step_table` evaluates the one-slot
step once per model, and the kernel, the reachability search and the
simulator all read it.  The constrained problem, maximize SU throughput
subject to a floor on the PU's throughput, is solved exactly by one linear
program over state-action occupation measures (Altman, Constrained Markov
Decision Processes, 1999, ch. 4), whose optimum randomizes in at most one
state.

`scipy.optimize` and `scipy.sparse.csgraph` are imported where they are
used, not here: each costs about 0.4 s alone, which a run that stops at
config validation should not pay.  A full run pays them at its first solve.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import RegionProbabilities
from .pu_system import PuConfig
from .pu_tracker import PuFeedback, update

__all__ = [
    "MdpState",
    "AccessPolicy",
    "StepTable",
    "StateSpace",
    "Kernel",
    "EvalResult",
    "SolveReport",
    "InfeasibleConstraintError",
    "step_table",
    "enumerate_space",
    "build_kernel",
    "evaluate_policy",
    "solve_constrained",
    "stationary_distribution",
]


class MdpState(NamedTuple):
    """Hashable compact state: scheme phase tuple and tracked try count."""

    cd: tuple
    t: int


# The feedback axis of a step table, in the order `build_kernel` sums its branches.
FEEDBACKS = (PuFeedback.ACK, PuFeedback.NACK)


class StepTable(NamedTuple):
    """One model's compact step for every state, SU action, feedback and region.

    `states` is the product of the try counts 0..r_max - 1 with the model's
    phases.  It takes no probability, so one table serves every sweep
    point.  `start` indexes the initial state.  `nxt[i, a_s, f, y - 1]` is
    the next state's index after feedback `FEEDBACKS[f]` and region y, and
    `reward` holds the SU packets credited.
    """

    states: list
    index: dict
    start: int
    nxt: np.ndarray
    reward: np.ndarray


class InfeasibleConstraintError(ValueError):
    """The PU throughput floor cannot be met even by the always-idle SU."""


@dataclass(frozen=True)
class AccessPolicy:
    """Per-state SU transmit probability."""

    probs: dict

    def __post_init__(self):
        for s, p in self.probs.items():
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"transmit probability {p!r} for {s} outside [0,1]")


@dataclass
class StateSpace:
    """A model's `StepTable` at one sweep point's region and PU-success
    probabilities, with the jointly-reachable states the solver works on."""

    model: object
    pu_cfg: PuConfig
    probs: RegionProbabilities
    success_probs: tuple[float, float]
    table: StepTable
    reachable: np.ndarray

    @property
    def states(self) -> list[MdpState]:
        return self.table.states

    @property
    def index(self) -> dict:
        return self.table.index

    @property
    def n(self) -> int:
        return len(self.table.states)


@dataclass
class Kernel:
    p: np.ndarray      # (n, 2, n) next-state distribution
    r_su: np.ndarray   # (n, 2) expected SU packets credited
    r_pu: np.ndarray   # (n, 2) expected PU throughput


@dataclass
class EvalResult:
    su_throughput: float
    pu_throughput: float
    stationary: np.ndarray
    multichain_warning: bool = False


@dataclass
class SolveReport:
    policy: AccessPolicy
    su_throughput: float
    pu_throughput: float
    multiplier: float
    stationary: np.ndarray
    constraint_min: float
    constraint_value: float
    feasible: bool
    multichain_warning: bool = False
    mix_weight: float | None = None  # transmit probability of the randomized state
    # LP diagnostics: HiGHS status and iteration count, the reachable states
    # it ran over, the one state it randomizes (or None) and the slack of
    # the floor row.
    lp_status: int = 0
    lp_iterations: int = 0
    reachable_states: int = 0
    randomized_state: MdpState | None = None
    floor_slack: float = 0.0


# model -> {PuConfig: its StepTable}, kept as long as the model lives
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def step_table(model, pu_cfg: PuConfig) -> StepTable:
    """The model's `StepTable` under `pu_cfg`, built on first use: the one
    place the tracker's `update` and the model's `next_cd` and `reward`
    make the compact step."""
    tables = _TABLES.setdefault(model, {})
    if pu_cfg in tables:
        return tables[pu_cfg]
    cds = list(model.cd_states(pu_cfg))
    states = [MdpState(cd, t) for t in range(pu_cfg.r_max) for cd in cds]
    index = {s: i for i, s in enumerate(states)}
    nxt = np.empty((len(states), 2, len(FEEDBACKS), 7), dtype=np.int32)
    reward = np.empty_like(nxt)
    for (i, s), a_s, (f, y_p), y in itertools.product(
            enumerate(states), (0, 1), enumerate(FEEDBACKS), range(1, 8)):
        o, t_n = update(s.t, y_p, pu_cfg)
        nxt[i, a_s, f, y - 1] = index[MdpState(model.next_cd(s.cd, a_s, y, o), t_n)]
        reward[i, a_s, f, y - 1] = model.reward(s.cd, a_s, y)
    start = index[MdpState(model.initial_cd(), 0)]
    tables[pu_cfg] = table = StepTable(states, index, start, nxt, reward)
    return table


def _branch_probs(success_probs) -> np.ndarray:
    """(2, 2): the probability of each feedback under each SU action, in the
    order of `FEEDBACKS`."""
    rho = np.asarray(success_probs, dtype=float)
    return np.stack((rho, 1.0 - rho), axis=1)


def enumerate_space(
    model,
    pu_cfg: PuConfig,
    probs: RegionProbabilities,
    success_probs: tuple[float, float],
) -> StateSpace:
    """The model's `step_table` states, and those jointly reachable here.

    The phase set is taken as a product rather than pruned to joint
    reachability; unreachable combinations simply carry no stationary
    mass.  Reachability is a search over the table's steps whose feedback
    and region both have positive probability, each tested on its own, so
    a product of the two that underflows to 0 still counts.
    """
    table = step_table(model, pu_cfg)
    n = len(table.states)
    live = np.broadcast_to((_branch_probs(success_probs) > 0.0)[..., None]
                           & (probs.as_array() > 0.0), table.nxt.shape)
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[np.nonzero(live)[0], table.nxt[live]] = True
    reach = np.arange(n) == table.start
    while not np.array_equal(grown := reach | adjacent[reach].any(axis=0), reach):
        reach = grown
    return StateSpace(model, pu_cfg, probs, success_probs, table, reach)


def build_kernel(space: StateSpace) -> Kernel:
    """Transition matrix and expected rewards for both SU actions.

    Weighs every step of the table by the probability of its feedback
    (which fixes completion and the ARQ update) times that of its outcome
    region, and sums the weights into the next states with one
    `np.add.at`, in the order (state, a_s, feedback, region).  Rows sum to
    one by construction.  The PU sends in every slot, so its expected
    throughput is its decoding probability under the SU's action.
    """
    n, table = space.n, space.table
    w = np.broadcast_to(_branch_probs(space.success_probs)[..., None] * space.probs.as_array(),
                        table.nxt.shape)
    i, a_s = np.indices(table.nxt.shape)[:2]
    p = np.zeros((n, 2, n))
    r_su = np.zeros((n, 2))
    np.add.at(p, (i, a_s, table.nxt), w)
    np.add.at(r_su, (i, a_s), w * table.reward)
    r_pu = np.tile(np.asarray(space.success_probs, dtype=float), (n, 1))
    return Kernel(p, r_su, r_pu)


# -- evaluation ------------------------------------------------------------------


def stationary_distribution(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible stochastic matrix."""
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _policy_matrix(kernel: Kernel, mu: np.ndarray):
    p = (1.0 - mu)[:, None] * kernel.p[:, 0, :] + mu[:, None] * kernel.p[:, 1, :]
    r_su = (1.0 - mu) * kernel.r_su[:, 0] + mu * kernel.r_su[:, 1]
    r_pu = (1.0 - mu) * kernel.r_pu[:, 0] + mu * kernel.r_pu[:, 1]
    return p, r_su, r_pu


def _recurrent_stationary(p: np.ndarray, start: int):
    """Stationary distribution supported on a recurrent class reachable from
    `start`; flags when that class is not unique."""
    from scipy.sparse.csgraph import connected_components  # see the module docstring

    n = p.shape[0]
    support = p > 0.0
    n_comp, labels = connected_components(support, directed=True, connection="strong")
    closed = np.ones(n_comp, dtype=bool)
    for i in range(n):
        for j in np.nonzero(support[i])[0]:
            if labels[j] != labels[i]:
                closed[labels[i]] = False
    # reachability from start over the support graph
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
    warning = len(reach_closed) != 1
    cls = reach_closed[0]
    members = np.nonzero(labels == cls)[0]
    sub = p[np.ix_(members, members)]
    pi_sub = stationary_distribution(sub)
    pi = np.zeros(n)
    pi[members] = pi_sub
    return pi, warning


def evaluate_policy(space: StateSpace, kernel: Kernel, policy) -> EvalResult:
    """Long-run average SU and PU throughput under a policy.

    Accepts an AccessPolicy or a raw probability vector.  If the induced
    chain is reducible, the evaluation is restricted to a recurrent class
    reachable from the initial state and a warning is flagged.
    """
    mu = _policy_vector(space, policy)
    p, r_su, r_pu = _policy_matrix(kernel, mu)
    pi, warning = _recurrent_stationary(p, space.table.start)
    return EvalResult(float(pi @ r_su), float(pi @ r_pu), pi, warning)


def _policy_vector(space: StateSpace, policy) -> np.ndarray:
    if isinstance(policy, AccessPolicy):
        return np.array([policy.probs[s] for s in space.states])
    mu = np.asarray(policy, dtype=float)
    if mu.shape != (space.n,):
        raise ValueError(f"policy vector must have shape ({space.n},)")
    return mu


def _policy_from_vector(space: StateSpace, mu: np.ndarray) -> AccessPolicy:
    return AccessPolicy({s: float(mu[i]) for i, s in enumerate(space.states)})


# -- the constrained solve ----------------------------------------------------------

# An occupation of at most this much marks an action or a state as unused.
_UNUSED = 1e-12
# A floor row with more slack than this is not binding: its multiplier is 0.
_SLACK_TOL = 1e-9
# HiGHS's default primal feasibility tolerance and the smallest it accepts.
_PRIMAL_TOL, _PRIMAL_TOL_MIN = 1e-7, 1e-10
# A policy whose PU throughput falls this far below the floor misses it, and
# one this far above a binding floor overshoots it.
_FLOOR_MISS = 1e-9


def solve_constrained(
    space: StateSpace,
    kernel: Kernel,
    constraint_min: float,
    constraint_tol: float = 1e-4,
) -> SolveReport:
    """Maximize SU throughput subject to a floor on the PU's throughput.

    One linear program over the state-action occupation measure x of the
    jointly-reachable states: maximize sum x r_su subject to the balance
    equations, sum x = 1 and sum x r_pu >= floor.  With one constraint the
    optimum randomizes in at most one state.  A state the optimum occupies
    takes the action frequencies x[s, 1] / occ[s]; a state it leaves empty
    takes the action greedy for the Lagrangian reward r_su + lambda r_pu
    against the bias h, both read from the duals.  An unattainable floor
    raises InfeasibleConstraintError.
    """
    from scipy.optimize import linprog  # see the module docstring

    # the solver works on the jointly-reachable subset; product states that
    # no trajectory can visit keep the idle action and zero mass
    ridx = np.nonzero(space.reachable)[0]
    m = ridx.size
    p_sub = kernel.p[np.ix_(ridx, np.arange(2), ridx)]
    r_su = kernel.r_su[ridx]
    r_c = kernel.r_pu[ridx]
    # column 2 s + a holds x[s, a]; rows: inflow balance per state, then sum x = 1
    a_eq = np.vstack([np.repeat(np.eye(m), 2, axis=1) - p_sub.reshape(2 * m, m).T,
                      np.ones((1, 2 * m))])
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    # HiGHS's primal feasibility tolerance is absolute, 1e-7 by default, so
    # a floor below it would count as met by a policy with no PU throughput.
    # The tolerance is kept to a thousandth of the floor, within HiGHS's
    # range.  Even so the LP's x may be off by up to that tolerance, and its
    # policy with it.  A policy that misses the floor by more than
    # `_FLOOR_MISS`, or exceeds a binding one by more (the optimum meets a
    # binding floor exactly), is solved again at the smallest tolerance.
    tol = min(_PRIMAL_TOL, max(_PRIMAL_TOL_MIN, 1e-3 * constraint_min))
    for tol in (tol, _PRIMAL_TOL_MIN):
        res = linprog(-r_su.ravel(), A_ub=-r_c.reshape(1, -1), b_ub=[-constraint_min],
                      A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                      options={"primal_feasibility_tolerance": tol})
        if res.status == 2:
            raise InfeasibleConstraintError(
                f"PU throughput floor {constraint_min} exceeds the idle-SU value "
                f"{space.success_probs[0]}"
            )
        if res.status != 0:
            raise RuntimeError(f"constrained LP failed: {res.message}")

        x = np.where(res.x > _UNUSED, res.x, 0.0).reshape(m, 2)
        occ = x.sum(axis=1)
        slack = float(res.ineqlin.residual[0])
        multiplier = 0.0 if slack > _SLACK_TOL else max(-float(res.ineqlin.marginals[0]), 0.0)
        h = -res.eqlin.marginals[:m]
        q = r_su + multiplier * r_c + p_sub @ h
        greedy = (q[:, 1] > q[:, 0]).astype(float)
        mu_sub = np.divide(x[:, 1], occ, out=greedy, where=occ > 0.0)
        mixed = np.nonzero((mu_sub > 0.0) & (mu_sub < 1.0))[0]

        mu = np.zeros(space.n)
        mu[ridx] = mu_sub
        res_eval = evaluate_policy(space, kernel, mu)
        value = res_eval.pu_throughput
        if value >= constraint_min - _FLOOR_MISS and (
                slack > _SLACK_TOL or value <= constraint_min + _FLOOR_MISS):
            break
    if value < constraint_min - constraint_tol:
        raise RuntimeError(
            f"constrained solve missed the floor: {value} < {constraint_min}"
        )
    return SolveReport(
        policy=_policy_from_vector(space, mu),
        su_throughput=res_eval.su_throughput,
        pu_throughput=res_eval.pu_throughput,
        multiplier=multiplier,
        stationary=res_eval.stationary,
        constraint_min=constraint_min,
        constraint_value=value,
        feasible=True,
        multichain_warning=res_eval.multichain_warning,
        mix_weight=float(mu_sub[mixed[0]]) if mixed.size else None,
        lp_status=int(res.status),
        lp_iterations=int(res.nit),
        reachable_states=int(m),
        randomized_state=space.states[ridx[mixed[0]]] if mixed.size else None,
        floor_slack=slack,
    )
