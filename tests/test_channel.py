import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogarq.channel import (
    SU_CLEAN,
    AvgSnrConfig,
    RatePair,
    classify_su_outcomes,
    exact_region_probabilities,
    optimize_rate,
    pu_success_probability,
)

from _oracles import (
    LinkGains,
    capacity,
    classify_su_outcome,
    draw_gain_arrays,
    gauss_laguerre_region_probabilities,
    pu_success,
    region_probabilities,
)

R11 = RatePair(1.0, 1.0)


def test_capacity_values():
    assert capacity(0) == 0.0
    assert capacity(1) == 1.0
    assert capacity(3) == 2.0


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_capacity_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        capacity(bad)


@pytest.mark.parametrize(
    "gs,gps,expected",
    [
        (3.0, 3.0, 1),     # C(3)=2 > 1 on both links, 2 < C(6)
        (0.0, 0.0, 4),     # zero gains decode nothing
        (3.0, 0.5, 2),     # C(3/1.5) = log2(3) > 1, C(0.5) <= 1
        (1.2, 0.5, 5),     # C(0.8) <= 1 < C(1.2), C(0.5) <= 1
    ],
)
def test_classify_examples(gs, gps, expected):
    assert classify_su_outcome(LinkGains(gs, gps, 0.0, 0.0), R11) == expected
    assert classify_su_outcomes(np.array([gs]), np.array([gps]), R11)[0] == expected


def _region_predicate(j, gs, gps, r):
    """Defining inequalities of region j, written independently."""
    c = lambda x: math.log2(1.0 + x)
    checks = {
        1: r.r_s < c(gs) and r.r_p < c(gps) and r.r_s + r.r_p < c(gs + gps),
        2: r.r_s < c(gs / (1 + gps)) and r.r_p >= c(gps),
        3: r.r_s >= c(gs) and r.r_p < c(gps / (1 + gs)),
        4: r.r_s >= c(gs) and r.r_p >= c(gps),
        5: c(gs / (1 + gps)) <= r.r_s < c(gs) and r.r_p >= c(gps),
        6: r.r_s >= c(gs) and c(gps / (1 + gs)) <= r.r_p < c(gps),
        7: r.r_s < c(gs) and r.r_p < c(gps) and r.r_s + r.r_p >= c(gs + gps),
    }
    return checks[j]


@settings(max_examples=300, deadline=None)
@given(
    gs=st.floats(0.0, 50.0),
    gps=st.floats(0.0, 50.0),
    rs=st.floats(0.05, 6.0),
    rp=st.floats(0.05, 6.0),
)
def test_classifier_picks_the_unique_region(gs, gps, rs, rp):
    r = RatePair(rs, rp)
    j = int(classify_su_outcomes(np.array([gs]), np.array([gps]), r)[0])
    assert _region_predicate(j, gs, gps, r)
    assert sum(_region_predicate(k, gs, gps, r) for k in range(1, 8)) == 1


@settings(max_examples=200, deadline=None)
@given(
    gs=st.floats(0.0, 30.0),
    bump=st.floats(0.0, 30.0),
    gps=st.floats(0.0, 30.0),
    rs=st.floats(0.1, 4.0),
    rp=st.floats(0.1, 4.0),
)
def test_more_direct_gain_never_loses_decodability(gs, bump, gps, rs, rp):
    r = RatePair(rs, rp)
    before, after = classify_su_outcomes(np.array([gs, gs + bump]), np.array([gps, gps]), r)
    if before in SU_CLEAN:
        assert after in SU_CLEAN


def test_vectorized_classifier_matches_scalar():
    rng = np.random.default_rng(3)
    gs = rng.exponential(4.0, 500)
    gps = rng.exponential(2.0, 500)
    r = RatePair(1.3, 0.7)
    vec = classify_su_outcomes(gs, gps, r)
    for i in range(500):
        assert vec[i] == classify_su_outcome(LinkGains(gs[i], gps[i], 0, 0), r)


def test_pu_success_examples():
    assert pu_success(LinkGains(0, 0, 3.0, 1.0), R11, 1) is True
    assert pu_success(LinkGains(0, 0, 1.0, 1.0), R11, 1) is False
    assert pu_success(LinkGains(0, 0, 0.0, 5.0), R11, 0) is False


@settings(max_examples=200, deadline=None)
@given(gp=st.floats(0, 100), gsp=st.floats(0, 100), rp=st.floats(0.05, 5.0))
def test_interference_only_hurts_the_primary(gp, gsp, rp):
    r = RatePair(1.0, rp)
    g = LinkGains(0, 0, gp, gsp)
    if pu_success(g, r, 1):
        assert pu_success(g, r, 0)


def test_pu_success_probability_closed_form():
    cfg = AvgSnrConfig(1, 1, 10.0, 2.0)
    r = RatePair(1.0, 1.5)
    theta = 2.0 ** 1.5 - 1.0
    assert pu_success_probability(cfg, r, 0) == pytest.approx(math.exp(-theta / 10))
    rng = np.random.default_rng(11)
    n = 400_000
    gp = rng.exponential(10.0, n)
    gsp = rng.exponential(2.0, n)
    emp = np.mean(gp > theta * (1 + gsp))
    se = math.sqrt(emp * (1 - emp) / n)
    assert abs(pu_success_probability(cfg, r, 1) - emp) < 3 * se


def test_draw_gains_zero_mean_link_is_zero():
    rng = np.random.default_rng(0)
    gs, gps, gp, gsp = draw_gain_arrays(rng, AvgSnrConfig(5.0, 0.0, 1.0, 0.0), 50)
    assert not gps.any() and not gsp.any()
    assert (gs > 0.0).all() and (gp > 0.0).all()


def test_draw_gains_deterministic_given_seed():
    cfg = AvgSnrConfig(5.0, 2.0, 1.0, 0.5)
    a = draw_gain_arrays(np.random.default_rng(42), cfg, 50)
    b = draw_gain_arrays(np.random.default_rng(42), cfg, 50)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_draw_gains_law_of_large_numbers():
    rng = np.random.default_rng(7)
    cfg = AvgSnrConfig(5.0, 1.0, 1.0, 1.0)
    n = 1_000_000
    gs, _, _, _ = draw_gain_arrays(rng, cfg, n)
    se = 5.0 / math.sqrt(n)
    assert abs(gs.mean() - 5.0) < 3 * se


def test_region_probabilities_partition():
    cfg = AvgSnrConfig(5.0, 2.0, 1.0, 1.0)
    probs = region_probabilities(cfg, R11, 20_000, np.random.default_rng(1))
    assert probs.as_array().sum() == pytest.approx(1.0, abs=0.0)


def test_region_probabilities_no_cross_link():
    cfg = AvgSnrConfig(5.0, 0.0, 1.0, 1.0)
    p = region_probabilities(cfg, R11, 50_000, np.random.default_rng(2))
    assert p.delta_p == p.ups_p == p.ups_sp == p.ups_s == 0.0
    assert p.ups_empty + p.delta_s + p.delta_sp == pytest.approx(1.0, abs=0.0)


@pytest.mark.parametrize(
    "means,rates",
    [
        ((5.0, 5.0), (1.0, 1.0)),
        ((5.0, 2.0), (1.5, 2.5)),
        ((10.0, 3.0), (2.0, 1.0)),
    ],
)
def test_region_probabilities_match_exact_integrals(means, rates):
    r = RatePair(*rates)
    cfg = AvgSnrConfig(means[0], means[1], 1.0, 1.0)
    n = 1_000_000
    mc = region_probabilities(cfg, r, n, np.random.default_rng(5)).as_array()
    exact = exact_region_probabilities(means[0], means[1], r).as_array()
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)
    se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n)
    assert (np.abs(mc - exact) <= 3 * se + 1e-9).all()


@pytest.mark.parametrize("ratio", [1e-9, 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1e9, 1e300])
def test_exact_regions_at_extreme_mean_ratios(ratio):
    # gamma_ps / gamma_s = 2e-7 is a valid sweep value; the closed form
    # must stay finite there and agree with sampling at both extremes and
    # next to equal means.  At 1e300 gamma_s is 1e-300 and both rates are
    # 500, so that ab / mean_s overflows while exp(-ab / mean_ps) is 0.
    mean_s, r = 5.0, RatePair(optimize_rate(5.0), optimize_rate(10.0))
    if ratio == 1e300:
        mean_s, r = 1e-300, RatePair(500.0, 500.0)
    exact = exact_region_probabilities(mean_s, mean_s * ratio, r).as_array()
    assert np.isfinite(exact).all()
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)
    n = 1_000_000
    cfg = AvgSnrConfig(mean_s, mean_s * ratio, 1.0, 1.0)
    mc = region_probabilities(cfg, r, n, np.random.default_rng(5)).as_array()
    se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n)
    assert (np.abs(mc - exact) <= 3 * se + 1e-9).all()


def test_exact_regions_continuous_across_equal_means():
    # the region-1 integral has a removable singularity at equal means
    r = RatePair(1.0, 1.0)
    at = exact_region_probabilities(5.0, 5.0, r).as_array()
    for eps in (1e-15, 1e-12, 1e-10, 1e-8):
        for sign in (-1.0, 1.0):
            near = exact_region_probabilities(5.0, 5.0 * (1.0 + sign * eps), r).as_array()
            assert np.abs(near - at).max() <= 10.0 * eps + 1e-15


def test_gauss_laguerre_cross_check():
    # coarse agreement only: the indicator discontinuities cap the
    # quadrature's accuracy far above the Monte Carlo standard error
    r = RatePair(1.0, 1.0)
    exact = exact_region_probabilities(5.0, 5.0, r).as_array()
    gl = gauss_laguerre_region_probabilities(5.0, 5.0, r, nodes=64)
    assert np.abs(gl - exact).max() < 0.06


def test_optimize_rate_stationarity():
    mean = 10.0
    r = optimize_rate(mean)
    grid = np.linspace(1e-3, 8.0, 200_001)
    vals = grid * np.exp(-(2.0 ** grid - 1.0) / mean)
    best = grid[int(np.argmax(vals))]
    assert abs(r - best) / best < 5e-4


def test_optimize_rate_objective_monotone_in_snr():
    def val(mean):
        r = optimize_rate(mean)
        return r * math.exp(-(2.0 ** r - 1.0) / mean)

    means = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    vals = [val(m) for m in means]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_optimize_rate_rejects_zero_snr():
    with pytest.raises(ValueError):
        optimize_rate(0.0)


def test_optimize_rate_vanishing_snr_throughput():
    r = optimize_rate(1e-6)
    assert r * math.exp(-(2.0 ** r - 1.0) / 1e-6) < 1e-3
