import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogarq import mdp
from cogarq.channel import SU_CLEAN, SU_UNDER_PU, AvgSnrConfig, RatePair, RegionProbabilities
from cogarq.mdp import (
    AccessPolicy,
    InfeasibleConstraintError,
    MdpState,
    build_kernel,
    enumerate_space,
    evaluate_policy,
    solve_constrained,
    stationary_distribution,
)
from cogarq.pu_system import PuConfig
from cogarq.virtual_state import ChainDecodingModel

from _oracles import (
    GenieModel,
    pi_constrained_solve,
    recurrent_stationary,
    region_probabilities,
    scalar_kernel,
    scalar_reachable,
    state_actions,
)

PROBS = RegionProbabilities(0.06, 0.15, 0.07, 0.26, 0.20, 0.10, 0.16)
RHO = (0.62, 0.32)


def make_space(r_max=5, probs=PROBS, rho=RHO):
    cfg = PuConfig(r_max)
    model = ChainDecodingModel(cfg)
    space = enumerate_space(model, probs, rho)
    return space, build_kernel(space)


def test_kernel_rows_sum_to_one():
    space, kernel = make_space()
    assert np.allclose(kernel.p.sum(axis=2), 1.0, atol=1e-12)


def test_space_holds_the_states_reachable_on_every_branch():
    # of the 5 try counts times the 5 + 2 decoding phases, the 23 states
    # with a pinned counter b <= t and a known phase only from t = 1 on
    space, _ = make_space(r_max=5)
    assert set(space.states) == scalar_reachable(space.model, PROBS, RHO)
    assert space.n == 23


def test_single_try_deadline_funnels_to_cycle_start():
    # with a one-transmission deadline every PU slot completes, so from any
    # state the next state sits in the unknown phase at t = 0
    space, kernel = make_space(r_max=1)
    idx_ok = {
        j for j, s in enumerate(space.states) if s.cd == ("U", 0) and s.t == 0
    }
    checked = 0
    for i, s in enumerate(space.states):
        for a in (0, 1):
            support = set(np.nonzero(kernel.p[i, a])[0])
            assert support <= idx_ok
            checked += 1
    assert checked > 0


def test_stationary_two_state_symmetric():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(stationary_distribution(p), [0.5, 0.5])
    p2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(stationary_distribution(p2), [0.5, 0.5])


def test_always_idle_policy_earns_nothing():
    space, kernel = make_space()
    res = evaluate_policy(space, kernel, np.zeros(space.n))
    assert res.su_throughput == pytest.approx(0.0, abs=1e-12)
    assert res.pu_throughput == pytest.approx(RHO[0], abs=1e-9)


def test_policy_vector_shape_checked():
    space, kernel = make_space()
    with pytest.raises(ValueError):
        evaluate_policy(space, kernel, np.zeros(space.n - 1))


def test_access_policy_validation():
    s = MdpState(("U", 0), 0)
    with pytest.raises(ValueError):
        AccessPolicy({s: 1.5})


def _pi_oracle(space, kernel, floor):
    return pi_constrained_solve(kernel, space.reachable, space.table.start, floor,
                                lambda_tol=1e-10)


def test_vacuous_constraint_returns_unconstrained_optimum():
    space, kernel = make_space()
    rep = solve_constrained(space, kernel, 0.0)
    assert rep.multiplier == 0.0
    assert rep.su_throughput == pytest.approx(_pi_oracle(space, kernel, 0.0).su, abs=1e-9)


def test_unconstrained_optimum_matches_exhaustive_search():
    # every deterministic policy on the reachable states of a small model
    space, kernel = make_space(r_max=2)
    rep = solve_constrained(space, kernel, 0.0)
    reachable = np.flatnonzero(space.reachable)
    assert reachable.size == 5
    best = -1.0
    for assign in itertools.product((0.0, 1.0), repeat=reachable.size):
        mu = np.zeros(space.n)
        mu[reachable] = assign
        best = max(best, evaluate_policy(space, kernel, mu).su_throughput)
    assert rep.su_throughput == pytest.approx(best, abs=1e-12)


def test_constrained_solve_matches_pi_oracle():
    snr = AvgSnrConfig(5.0, 5.0, 10.0, 2.0)
    rates = RatePair(1.9140575925881422, 2.5182556953531106)
    probs = region_probabilities(snr, rates, 200_000, np.random.default_rng(0))
    rho = (0.6231992280023452, 0.3202827933851996)
    space, kernel = make_space(probs=probs, rho=rho)
    idle = evaluate_policy(space, kernel, np.zeros(space.n))
    floor = 0.8 * idle.pu_throughput
    rep = solve_constrained(space, kernel, floor)
    oracle = _pi_oracle(space, kernel, floor)
    assert rep.su_throughput == pytest.approx(oracle.su, abs=1e-9)
    assert rep.multiplier == pytest.approx(oracle.multiplier, abs=1e-8)
    assert rep.constraint_value >= floor - 1e-9


def test_tightening_the_floor_never_helps():
    space, kernel = make_space(probs=PROBS, rho=RHO)
    idle = evaluate_policy(space, kernel, np.zeros(space.n))
    cap = idle.pu_throughput
    values = []
    for frac in (0.0, 0.5, 0.8, 0.95):
        rep = solve_constrained(space, kernel, frac * cap)
        values.append(rep.su_throughput)
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_infeasible_floor_raises():
    space, kernel = make_space()
    with pytest.raises(InfeasibleConstraintError):
        solve_constrained(space, kernel, RHO[0] + 0.01)


def test_kernel_matches_empirical_frequencies_small():
    from collections import defaultdict

    from cogarq.simulator import SchemeKind, SystemConfig, run

    snr = AvgSnrConfig(5.0, 5.0, 10.0, 2.0)
    rates = RatePair(1.9140575925881422, 2.5182556953531106)
    pu_cfg = PuConfig(5)
    system = SystemConfig(snr, rates, pu_cfg)
    probs = region_probabilities(snr, rates, 500_000, np.random.default_rng(0))
    space = enumerate_space(ChainDecodingModel(pu_cfg), probs, system.success_probs())
    kernel = build_kernel(space)
    policy = AccessPolicy({s: 0.5 for s in space.states})
    recs = []
    run(
        SchemeKind.CHAIN_DECODING, policy, system, seed=5, n_slots=200_000,
        trace_hook=lambda c: recs.extend(state_actions(c)),
    )
    counts = defaultdict(lambda: defaultdict(int))
    for i in range(len(recs) - 1):
        ph, b, t, a = recs[i]
        ph2, b2, t2, _ = recs[i + 1]
        s = space.index[MdpState((ph, b), t)]
        s2 = space.index[MdpState((ph2, b2), t2)]
        counts[(s, a)][s2] += 1
    checked = 0
    for (i, a), row in counts.items():
        n_sa = sum(row.values())
        if n_sa < 500:
            continue
        for j in range(space.n):
            p = kernel.p[i, a, j]
            phat = row.get(j, 0) / n_sa
            if phat > 0:
                assert p > 0, "empirical transition the kernel says is impossible"
            se = max(np.sqrt(p * (1 - p) / n_sa), 1e-9)
            assert abs(phat - p) <= 5 * se + 1e-9
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("frac", [0.8, 0.95])
@pytest.mark.parametrize("r_max", [3, 5])
def test_unused_states_take_the_lagrangian_greedy_action(monkeypatch, frac, r_max):
    # The LP leaves some reachable states unoccupied; they take the action
    # maximizing r_su + lambda r_pu + P h, with the bias h read from the
    # balance rows' duals.  Where the LP itself uses a single action and
    # the rule prefers one strictly, the rule must pick the LP's action,
    # which fixes the sign of h; where the LP is silent, the report must
    # follow the rule.  Ties (many at a binding floor) allow either action.
    import scipy.optimize

    results = []
    linprog = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **k: results.append(linprog(*a, **k)) or results[-1])
    space, kernel = make_space(r_max=r_max)
    cap = evaluate_policy(space, kernel, np.zeros(space.n)).pu_throughput
    rep = solve_constrained(space, kernel, frac * cap)
    (res,) = results
    ridx = np.nonzero(space.reachable)[0]
    m = ridx.size
    x = res.x.reshape(m, 2)
    p_sub = kernel.p[np.ix_(ridx, [0, 1], ridx)]
    q = (kernel.r_su[ridx] + rep.multiplier * kernel.r_pu[ridx]
         + p_sub @ -res.eqlin.marginals[:m])
    gain = q[:, 1] - q[:, 0]
    strict = np.abs(gain) > 1e-9
    occupied = x.sum(axis=1) > 1e-12
    single = occupied & ((x[:, 0] <= 1e-12) | (x[:, 1] <= 1e-12)) & strict
    assert single.sum() >= 2
    assert np.array_equal(gain[single] > 0.0, x[single, 1] > 1e-12)
    silent = ~occupied & strict
    # At the looser floor the LP occupies every reachable state; the tighter
    # one leaves states to the rule.
    assert silent.sum() >= 1 if frac == 0.95 else occupied.all()
    mu = np.array([rep.policy.probs[space.states[i]] for i in ridx])
    assert np.array_equal(mu[silent], (gain[silent] > 0.0).astype(float))


def _normalized(w) -> RegionProbabilities:
    return RegionProbabilities(*(np.array(w) / sum(w)).tolist())


_region_vectors = st.lists(st.floats(1e-3, 1.0), min_size=7, max_size=7).map(_normalized)


@settings(max_examples=40, deadline=None)
@given(
    probs=_region_vectors,
    r_max=st.integers(1, 5),
    rho0=st.floats(0.05, 0.95),
    rho_ratio=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 0.99),
    scheme=st.sampled_from(["chain_decoding", "fic_bic", "fic_only", "no_fic_bic", "genie"]),
)
# The LP's policy at HiGHS's default tolerance missed this floor by 4.4e-8.
@example(probs=_normalized([1.0, 0.0625, 1.0, 0.125, 0.03125, 1.0, 1.0]), r_max=5,
         rho0=0.75, rho_ratio=0.0, frac=0.5, scheme="fic_bic")
def test_solver_properties_and_pi_oracle(probs, r_max, rho0, rho_ratio, frac, scheme):
    from cogarq.simulator import SchemeKind, scheme_model

    cfg = PuConfig(r_max)
    model = GenieModel(cfg) if scheme == "genie" else scheme_model(SchemeKind(scheme), cfg)
    space = enumerate_space(model, probs, (rho0, rho0 * rho_ratio))
    kernel = build_kernel(space)
    floor = frac * evaluate_policy(space, kernel, np.zeros(space.n)).pu_throughput
    rep = solve_constrained(space, kernel, floor)
    mu = np.array(list(rep.policy.probs.values()))
    assert ((mu >= 0.0) & (mu <= 1.0)).all()
    assert rep.constraint_value >= floor - 1e-9
    assert ((mu > 0.0) & (mu < 1.0)).sum() <= 1
    assert (rep.mix_weight is None) == (rep.randomized_state is None)
    oracle = _pi_oracle(space, kernel, floor)
    assert rep.su_throughput == pytest.approx(oracle.su, abs=1e-9)


def test_floor_below_the_default_lp_tolerance_is_met():
    # A falsifying example of the property test above: a floor of 3e-8 lies
    # under HiGHS's default feasibility tolerance, which took it as met by
    # a policy with no PU throughput.
    from cogarq.simulator import SchemeKind, scheme_model

    probs = RegionProbabilities(*(np.ones(7) / 7).tolist())
    cfg = PuConfig(1)
    space = enumerate_space(scheme_model(SchemeKind.CHAIN_DECODING, cfg), probs, (0.5, 0.0))
    kernel = build_kernel(space)
    floor = 5.96e-8 * evaluate_policy(space, kernel, np.zeros(space.n)).pu_throughput
    rep = solve_constrained(space, kernel, floor)
    assert floor == pytest.approx(2.98e-8)
    assert rep.constraint_value >= floor - 1e-12
    assert rep.su_throughput == pytest.approx(_pi_oracle(space, kernel, floor).su, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.floats(0.01, 1.0), min_size=n * n, max_size=n * n)))
def test_stationary_distribution_sums_to_one(weights):
    n = int(round(len(weights) ** 0.5))
    p = np.array(weights).reshape(n, n)
    p /= p.sum(axis=1, keepdims=True)
    pi = stationary_distribution(p)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert (pi >= 0.0).all()
    assert np.allclose(pi @ p, pi, atol=1e-12)


def _random_regions(rng) -> RegionProbabilities:
    """Normalized region probabilities with about a third of them zero."""
    w = rng.random(7)
    w[rng.random(7) < 0.35] = 0.0
    w[rng.integers(7)] += 0.1
    return _normalized(w)


@pytest.mark.parametrize("r_max", range(1, 6))
@pytest.mark.parametrize("scheme", ["chain_decoding", "fic_bic", "fic_only", "no_fic_bic", "genie"])
def test_step_table_kernel_is_byte_equal_to_the_scalar_oracle(scheme, r_max):
    # The kernel from the step table against the scalar rule, stepped with
    # update, next_cd and reward directly: p, r_su and r_pu byte for byte,
    # and the same jointly reachable states.  Regions may be zero, rho_1
    # may be 0, and (1, 1) leaves NACK with no probability at all.  In the
    # last case a NACK (1.1e-16) and region 5 (1.7e-311), which alone adds
    # a pinned packet, each have positive probability, but their product
    # underflows to 0.
    from cogarq.simulator import SchemeKind, scheme_model

    rng = np.random.default_rng([r_max, len(scheme)])
    rhos = [(0.62, 0.32), (0.9, 0.0), (1.0, 1.0), (1.0, 0.25)] + [
        tuple(sorted(rng.random(2), reverse=True)) for _ in range(4)]
    cfg = PuConfig(r_max)
    model = GenieModel(cfg) if scheme == "genie" else scheme_model(SchemeKind(scheme), cfg)
    tiny = ((1.0 - 2.0**-53, 1.0 - 2.0**-53), _normalized([1.0] * 4 + [1e-310] + [1.0] * 2))
    for rho, probs in [(rho, _random_regions(rng)) for rho in rhos] + [tiny]:
        space = enumerate_space(model, probs, rho)
        kernel, oracle = build_kernel(space), scalar_kernel(space)
        for got, want in ((kernel.p, oracle.p), (kernel.r_su, oracle.r_su),
                          (kernel.r_pu, oracle.r_pu)):
            assert got.tobytes() == want.tobytes(), (cfg, rho, probs)
        reachable = {s for s, r in zip(space.states, space.reachable) if r}
        assert reachable == scalar_reachable(model, probs, rho), (cfg, rho, probs)


@pytest.mark.parametrize("r_max", [2, 4])
def test_certain_pu_success_keeps_the_nack_try_counts_unreachable(r_max):
    # The step table's try counts take no probability.  With the PU's
    # packet decoded for certain under both SU actions, no NACK occurs, so
    # the try counts a NACK leads to are in the table but never reachable,
    # and the solved policy idles in each of their states.
    space, kernel = make_space(r_max, rho=(1.0, 1.0))
    assert sorted({s.t for s in space.states}) == list(range(r_max))
    reachable = {s.t for s, r in zip(space.states, space.reachable) if r}
    assert reachable == {0}
    assert reachable == {s.t for s in scalar_reachable(space.model, PROBS, (1.0, 1.0))}
    rep = solve_constrained(space, kernel, 0.5)
    assert all(rep.policy.probs[s] == 0.0 for s, r in zip(space.states, space.reachable) if not r)
    assert rep.pu_throughput == 1.0


@pytest.mark.parametrize("r_max", [1, 3, 5])
@pytest.mark.parametrize("scheme,earning", [("genie", SU_CLEAN), ("no_fic_bic", SU_UNDER_PU)])
def test_memoryless_optimum_is_the_closed_form(scheme, earning, r_max):
    # The genie and no-FIC/BIC have one phase each, and rewards that do not
    # depend on t: each transmission earns w, the probability of the regions
    # that credit it, and costs the PU rho_0 - rho_1.  So a policy's values
    # depend only on its transmit fraction phi, and the LP's optimum is
    # SU = w phi* and PU = rho_0 - (rho_0 - rho_1) phi*, with
    # phi* = min(1, (rho_0 - floor) / (rho_0 - rho_1)), or 1 if rho_0 = rho_1.
    # Where w = 0 every phi up to phi* is optimal, so the PU value is free.
    from cogarq.simulator import SchemeKind, scheme_model

    cfg = PuConfig(r_max)
    model = GenieModel(cfg) if scheme == "genie" else scheme_model(SchemeKind(scheme), cfg)
    rng = np.random.default_rng([r_max, len(scheme)])
    for k in range(40):
        rho0 = (0.05, 1.0, rng.uniform(0.05, 1.0))[k % 3]
        rho1 = (rho0, 0.0, rho0 * rng.random(), rng.random() * 1e-3)[k % 4]
        frac = (0.0, rng.random(), 0.99)[k % 3]
        probs = _random_regions(rng)
        space = enumerate_space(model, probs, (rho0, rho1))
        floor = frac * rho0
        rep = solve_constrained(space, build_kernel(space), floor)
        w = sum(probs.as_array()[y - 1] for y in earning)
        phi = min(1.0, (rho0 - floor) / (rho0 - rho1)) if rho0 > rho1 else 1.0
        case = (rho0, rho1, frac, probs)
        assert abs(rep.su_throughput - w * phi) <= 1e-12, case
        if w > 0.0:
            assert abs(rep.pu_throughput - (rho0 - (rho0 - rho1) * phi)) <= 1e-12, case


@st.composite
def _chains_into_the_start(draw):
    """A stochastic matrix of at most 12 states in which every state reaches
    the start, and the start.  Each state other than the start steps to a
    parent nearer the start, which makes the path, and to up to two more
    states; the start has one to three successors, so it often leaves
    states unreached."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))  # the start first, parents earlier
    p = np.zeros((n, n))
    for k, i in enumerate(order):
        lo, hi = (0, 2) if k else (1, 3)
        succ = set(draw(st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi)))
        if k:
            succ.add(order[draw(st.integers(0, k - 1))])
        w = draw(st.lists(st.floats(0.01, 1.0), min_size=len(succ), max_size=len(succ)))
        p[i, sorted(succ)] = np.array(w) / sum(w)
    return p, order[0]


# 0 -> 0; 1 -> {0, 2} and 2 -> 1 reach it but are never reached.
_UNREACHED = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
# 2 -> {0, 2}, 0 -> 1, 1 -> {0, 2}, 3 -> 1: one class of three, 3 unreached.
_CYCLE = np.array([[0.0, 1.0, 0.0, 0.0], [0.3, 0.0, 0.7, 0.0],
                   [0.6, 0.0, 0.4, 0.0], [0.0, 1.0, 0.0, 0.0]])


@settings(max_examples=300, deadline=None)
@given(_chains_into_the_start())
@example((_UNREACHED, 0))
@example((_CYCLE, 2))
def test_recurrent_class_matches_the_strong_components_oracle(chain):
    # When every state reaches the start, as every step table guarantees,
    # the start's class is the one closed class it reaches, and it is the
    # set of states the start reaches.  The evaluation solves the law on
    # that set; scipy's strongly connected components find the same law.
    p, start = chain
    n = p.shape[0]
    want, want_warning = recurrent_stationary(p, start)
    assert not want_warning
    kernel = SimpleNamespace(p=np.stack((p, p), axis=1), r_su=np.zeros((n, 2)),
                             r_pu=np.zeros((n, 2)))
    space = SimpleNamespace(n=n, table=SimpleNamespace(start=start))
    pi = evaluate_policy(space, kernel, np.zeros(n)).stationary
    assert np.abs(pi - want).max() <= 1e-12


@pytest.mark.parametrize("scheme", ["chain_decoding", "fic_bic", "fic_only", "no_fic_bic", "genie"])
def test_every_model_evaluates_on_the_one_class_of_its_start(scheme):
    # The same comparison on the real kernels, r_max 1 to 6, over random
    # regions (about a third zero), PU success pairs and policies that
    # idle, send or randomize per state: the oracle finds one closed class
    # reachable from the start, and the evaluation the same law on it.
    from cogarq.simulator import SchemeKind, scheme_model

    rng = np.random.default_rng([24, len(scheme)])
    for r_max in range(1, 7):
        cfg = PuConfig(r_max)
        model = GenieModel(cfg) if scheme == "genie" else scheme_model(SchemeKind(scheme), cfg)
        for rho in [(0.62, 0.32), (1.0, 0.0), (1.0, 1.0)] + [
                tuple(sorted(rng.random(2), reverse=True)) for _ in range(3)]:
            space = enumerate_space(model, _random_regions(rng), rho)
            kernel = build_kernel(space)
            mu = np.where(rng.random(space.n) < 0.5, rng.integers(0, 2, space.n),
                          rng.random(space.n))
            p = (1.0 - mu)[:, None] * kernel.p[:, 0, :] + mu[:, None] * kernel.p[:, 1, :]
            want, want_warning = recurrent_stationary(p, space.table.start)
            assert not want_warning, (r_max, rho, mu)
            pi = evaluate_policy(space, kernel, mu).stationary
            assert np.abs(pi - want).max() <= 1e-12, (r_max, rho, mu)


def test_step_table_rejects_a_completion_that_does_not_restart():
    # A model whose PU completion keeps its phase would leave the start
    # transient, and the evaluation's one-class law wrong.
    from cogarq.simulator import FicOnlyModel

    class StaysKnown(FicOnlyModel):
        def next_cd(self, cd, a_s, y, o):
            return cd if o and cd[0] == "K" else super().next_cd(cd, a_s, y, o)

    with pytest.raises(ValueError, match="not the start"):
        mdp.step_table(StaysKnown(PuConfig(3)))
