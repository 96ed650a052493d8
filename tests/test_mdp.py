import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogarq.channel import AvgSnrConfig, RatePair, RegionProbabilities
from cogarq.mdp import (
    AccessPolicy,
    InfeasibleConstraintError,
    Kernel,
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
    pi_constrained_solve,
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
    space = enumerate_space(model, cfg, probs, rho)
    return space, build_kernel(space)


def test_kernel_rows_sum_to_one():
    space, kernel = make_space()
    assert np.allclose(kernel.p.sum(axis=2), 1.0, atol=1e-12)


def test_space_size_is_phase_times_arq_product():
    space, _ = make_space(r_max=5)
    # the R_max try counts times the R_max + 2 decoding phases
    assert space.n == 5 * (5 + 2)


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
    space = enumerate_space(ChainDecodingModel(pu_cfg), pu_cfg, probs, system.success_probs())
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
    from cogarq.simulator import GenieModel, SchemeKind, scheme_model

    cfg = PuConfig(r_max)
    model = GenieModel(cfg) if scheme == "genie" else scheme_model(SchemeKind(scheme), cfg)
    space = enumerate_space(model, cfg, probs, (rho0, rho0 * rho_ratio))
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
    space = enumerate_space(scheme_model(SchemeKind.CHAIN_DECODING, cfg), cfg, probs, (0.5, 0.0))
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
    from cogarq.simulator import GenieModel, SchemeKind, scheme_model

    rng = np.random.default_rng([r_max, len(scheme)])
    rhos = [(0.62, 0.32), (0.9, 0.0), (1.0, 1.0), (1.0, 0.25)] + [
        tuple(sorted(rng.random(2), reverse=True)) for _ in range(4)]
    cfg = PuConfig(r_max)
    model = GenieModel(cfg) if scheme == "genie" else scheme_model(SchemeKind(scheme), cfg)
    tiny = ((1.0 - 2.0**-53, 1.0 - 2.0**-53), _normalized([1.0] * 4 + [1e-310] + [1.0] * 2))
    for rho, probs in [(rho, _random_regions(rng)) for rho in rhos] + [tiny]:
        space = enumerate_space(model, cfg, probs, rho)
        kernel, oracle = build_kernel(space), scalar_kernel(space)
        for got, want in ((kernel.p, oracle.p), (kernel.r_su, oracle.r_su),
                          (kernel.r_pu, oracle.r_pu)):
            assert got.tobytes() == want.tobytes(), (cfg, rho, probs)
        reachable = {s for s, r in zip(space.states, space.reachable) if r}
        assert reachable == scalar_reachable(model, cfg, probs, rho), (cfg, rho, probs)


@pytest.mark.parametrize("r_max", [2, 4])
def test_certain_pu_success_keeps_the_nack_try_counts_unreachable(r_max):
    # The step table's try counts take no probability.  With the PU's
    # packet decoded for certain under both SU actions, no NACK occurs, so
    # the try counts a NACK leads to are in the table but never reachable,
    # and the solved policy idles in each of their states.
    cfg = PuConfig(r_max)
    space, kernel = make_space(r_max, rho=(1.0, 1.0))
    assert sorted({s.t for s in space.states}) == list(range(r_max))
    reachable = {s.t for s, r in zip(space.states, space.reachable) if r}
    assert reachable == {0}
    assert reachable == {s.t for s in scalar_reachable(space.model, cfg, PROBS, (1.0, 1.0))}
    rep = solve_constrained(space, kernel, 0.5)
    assert all(rep.policy.probs[s] == 0.0 for s, r in zip(space.states, space.reachable) if not r)
    assert rep.pu_throughput == 1.0
