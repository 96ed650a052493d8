"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion before asserting, so a
full run reads as a checklist.  The heavy fixtures (policy solves, Monte
Carlo sweeps, the invariant soak) are session-scoped and shared.
"""

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest

from cogarq.cd_graph import CdGraph, closure, is_pu, pu, slot_of, su
from cogarq.channel import AvgSnrConfig, RatePair, optimize_rate
from cogarq.mdp import (
    AccessPolicy,
    MdpState,
    build_kernel,
    enumerate_space,
    evaluate_policy,
    solve_constrained,
)
from cogarq.pu_system import PuConfig
from cogarq.simulator import (
    GenieModel,
    SchemeKind,
    SystemConfig,
    TraceInvariantChecker,
    run,
    scheme_model,
)

from _oracles import (
    matrix_power_closure,
    pi_constrained_solve,
    region_probabilities,
    state_actions,
)

MC_SLOTS = 100_000
# PU throughput floor, as a fraction of its value with the SU idle
FLOOR_FRACTION = 0.8
SCHEMES = (SchemeKind.CHAIN_DECODING, SchemeKind.FIC_BIC,
           SchemeKind.FIC_ONLY, SchemeKind.NO_FIC_BIC)


def _report(criterion: str, ok: bool, detail: str):
    from conftest import ACCEPTANCE_LINES

    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"{criterion}: {detail}"


@dataclass
class Point:
    ratio: float
    genie_analytic: float
    analytic: dict      # scheme -> analytic SU throughput
    floor: dict         # scheme -> PU floor
    constraint: dict    # scheme -> analytic PU value under the solved policy
    mc: dict            # scheme -> RunMetrics


def _solve_with_kernel(system, probs, scheme_or_model):
    model = (scheme_model(scheme_or_model, system.pu)
             if isinstance(scheme_or_model, SchemeKind) else scheme_or_model)
    space = enumerate_space(model, system.pu, probs, system.success_probs())
    kernel = build_kernel(space)
    floor = FLOOR_FRACTION * system.success_probs()[0]
    rep = solve_constrained(space, kernel, floor)
    return rep, floor, space, kernel


def _solve(system, probs, scheme_or_model):
    rep, floor, _, _ = _solve_with_kernel(system, probs, scheme_or_model)
    return rep, floor


@pytest.fixture(scope="session")
def fig5():
    """Fig.-5-shaped experiment: means (5, ratio*5, 10, 2), paired seeds."""
    rates = RatePair(optimize_rate(5.0), optimize_rate(10.0))
    pu_cfg = PuConfig(5)
    points = {}
    for i, ratio in enumerate((0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0)):
        snr = AvgSnrConfig(5.0, ratio * 5.0, 10.0, 2.0)
        system = SystemConfig(snr, rates, pu_cfg)
        probs = region_probabilities(
            snr, rates, 1_000_000,
            np.random.default_rng(np.random.SeedSequence([1, 0x5EED])),
        )
        genie_rep, _ = _solve(system, probs, GenieModel(pu_cfg))
        seed = int(np.random.SeedSequence([1, i]).generate_state(1)[0])
        analytic, floor, constraint, mc = {}, {}, {}, {}
        for scheme in SCHEMES:
            rep, fl = _solve(system, probs, scheme)
            analytic[scheme] = rep.su_throughput
            floor[scheme] = fl
            constraint[scheme] = rep.constraint_value
            mc[scheme] = run(scheme, rep.policy, system, seed, MC_SLOTS)
        points[ratio] = Point(ratio, genie_rep.su_throughput,
                              analytic, floor, constraint, mc)
    return points


def _sigma_delta(a, b):
    return math.sqrt(a.su_se ** 2 + b.su_se ** 2)


def test_criterion_1_analytic_matches_monte_carlo(fig5):
    fails = []
    lines = []
    for ratio in (0.05, 0.2, 0.5, 1.0, 2.0):
        pt = fig5[ratio]
        cd = SchemeKind.CHAIN_DECODING
        diff = abs(pt.mc[cd].su_throughput - pt.analytic[cd])
        tol = max(0.01 * pt.analytic[cd], 3 * pt.mc[cd].su_se)
        lines.append(f"ratio {ratio}: |mc-analytic|={diff:.5f} tol={tol:.5f}")
        if diff > tol:
            fails.append(lines[-1])
    _report("1 virtual-vs-MC agreement", not fails, "; ".join(lines))


def test_criterion_2_scheme_dominance(fig5):
    order = SCHEMES
    fails = []
    for ratio in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
        pt = fig5[ratio]
        for hi, lo in zip(order, order[1:]):
            slack = 3 * _sigma_delta(pt.mc[hi], pt.mc[lo])
            if pt.mc[hi].su_throughput < pt.mc[lo].su_throughput - slack:
                fails.append(f"{hi.value} < {lo.value} at ratio {ratio}")
            if pt.analytic[hi] < pt.analytic[lo] - 1e-9:
                fails.append(f"analytic {hi.value} < {lo.value} at ratio {ratio}")
    _report("2 scheme dominance", not fails,
            "; ".join(fails) if fails else "CD >= FIC/BIC >= FIC-only >= no-FIC/BIC at all 6 ratios")


def test_criterion_3_coincidence_at_extremes(fig5):
    fails = []
    pt0 = fig5[0.0]
    for scheme in SCHEMES:
        m = pt0.mc[scheme]
        if abs(m.su_throughput - pt0.genie_analytic) > 3 * max(m.su_se, 1e-9):
            fails.append(f"{scheme.value} off the genie bound at zero cross link")
    for ratio in (0.05, 0.2):
        pt = fig5[ratio]
        a, b = pt.mc[SchemeKind.CHAIN_DECODING], pt.mc[SchemeKind.NO_FIC_BIC]
        if abs(a.su_throughput - b.su_throughput) > 3 * max(_sigma_delta(a, b), 1e-9):
            fails.append(f"no-FIC/BIC not matching CD at ratio {ratio}")
    for ratio in (2.0, 5.0):
        pt = fig5[ratio]
        a, b = pt.mc[SchemeKind.CHAIN_DECODING], pt.mc[SchemeKind.FIC_BIC]
        if abs(a.su_throughput - b.su_throughput) > 3 * max(_sigma_delta(a, b), 1e-9):
            fails.append(f"FIC/BIC not matching CD at ratio {ratio}")
    _report("3 coincidence at extremes", not fails,
            "; ".join(fails) if fails else
            "all schemes meet the genie bound at 0; CD==no-FIC/BIC (<=0.2); CD==FIC/BIC (>=2)")


def test_criterion_4_mid_range_gain(fig5):
    pt = fig5[1.0]
    cd = pt.analytic[SchemeKind.CHAIN_DECODING]
    g_fb = cd / pt.analytic[SchemeKind.FIC_BIC] - 1.0
    g_fo = cd / pt.analytic[SchemeKind.FIC_ONLY] - 1.0
    mc_cd = pt.mc[SchemeKind.CHAIN_DECODING].su_throughput
    strict = (mc_cd > pt.mc[SchemeKind.FIC_BIC].su_throughput
              and mc_cd > pt.mc[SchemeKind.FIC_ONLY].su_throughput)
    ok = (0.05 <= g_fb <= 0.15) and (0.15 <= g_fo <= 0.35) and strict
    _report("4 mid-range gain", ok,
            f"vs FIC/BIC {100*g_fb:.1f}% (band 5..15), "
            f"vs FIC-only {100*g_fo:.1f}% (band 15..35), strict MC gain={strict}")


def test_criterion_5_constraint_satisfaction(fig5):
    fails = []
    for ratio, pt in fig5.items():
        for scheme in SCHEMES:
            if pt.constraint[scheme] < pt.floor[scheme] - 1e-4:
                fails.append(f"analytic floor missed: {scheme.value}@{ratio}")
            m = pt.mc[scheme]
            if m.pu_throughput < pt.floor[scheme] - 3 * max(m.pu_se, 1e-9):
                fails.append(f"MC floor missed: {scheme.value}@{ratio}")
    _report("5 constraint satisfaction", not fails,
            "; ".join(fails) if fails else
            "PU floor met analytically (1e-4) and in MC (3 sigma) for 28 solves")


def test_criterion_6_trace_invariant_soak():
    rng = np.random.default_rng(20260809)
    total_slots = 0
    fails = []
    for trial in range(10):
        # Drawn and unused, the PU's access probability and its delay
        # deadline: the PU sends in every slot and r_max bounds its delay.
        # Drawing them keeps every other parameter of the trial at the value
        # the soak has always used.
        rng.uniform(0.55, 1.0)
        r_max = int(rng.integers(2, 7))
        rng.integers(0, 3)
        gs = float(rng.uniform(1.0, 15.0))
        gps = gs * float(rng.uniform(0.05, 4.0))
        gp = float(rng.uniform(2.0, 20.0))
        gsp = gp * float(rng.uniform(0.02, 1.5))
        snr = AvgSnrConfig(gs, gps, gp, gsp)
        rates = RatePair(optimize_rate(gs), optimize_rate(gp))
        system = SystemConfig(snr, rates, PuConfig(r_max))
        probs = region_probabilities(
            snr, rates, 300_000,
            np.random.default_rng(np.random.SeedSequence([trial, 0x5EED])))
        rep, _ = _solve(system, probs, SchemeKind.CHAIN_DECODING)
        checker = TraceInvariantChecker(system, SchemeKind.CHAIN_DECODING)
        n_slots = 1_000_000
        run(SchemeKind.CHAIN_DECODING, rep.policy, system, 1000 + trial,
            n_slots, trace_hook=checker.feed)
        total_slots += n_slots
        rpt = checker.report
        for name in ("tracker", "compact-state", "recursion", "bound", "full-release"):
            if rpt.checks.get(name, 0) == 0:
                fails.append(f"trial {trial}: {name} never exercised")
        if not rpt.ok:
            fails.append(f"trial {trial}: {rpt.violations[:3]}")
    _report("6 trace-invariant soak", not fails,
            "; ".join(fails) if fails else
            f"zero violations over {total_slots} slots x 10 random configs")


def test_criterion_7a_closure_equals_matrix_oracle():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(10_000):
        n_su = int(rng.integers(1, 7))
        n_pu = int(rng.integers(1, 13 - n_su))
        g = CdGraph()
        edges = []
        for i in range(n_su):
            for j in range(n_pu):
                if rng.random() < 0.25:
                    g.add_edge(su(i), pu(j))
                    edges.append((i, n_su + j))
                if rng.random() < 0.25:
                    g.add_edge(pu(j), su(i))
                    edges.append((n_su + j, i))
        g.slot = 14
        k = int(rng.integers(n_su + n_pu))
        seed = su(k) if k < n_su else pu(k - n_su)
        got = {n_su + slot_of(x) if is_pu(x) else slot_of(x) for x in closure(g, [seed])}
        if got != matrix_power_closure(n_su + n_pu, edges, [k]):
            mismatches += 1
    _report("7a closure vs matrix powers", mismatches == 0,
            f"{mismatches} mismatches over 10000 random graphs (<=12 nodes)")


@pytest.fixture(scope="session")
def kernel_empirics():
    rates = RatePair(optimize_rate(5.0), optimize_rate(10.0))
    pu_cfg = PuConfig(5)
    snr = AvgSnrConfig(5.0, 5.0, 10.0, 2.0)
    system = SystemConfig(snr, rates, pu_cfg)
    probs = region_probabilities(
        snr, rates, 1_000_000,
        np.random.default_rng(np.random.SeedSequence([1, 0x5EED])))
    space = enumerate_space(
        scheme_model(SchemeKind.CHAIN_DECODING, pu_cfg), pu_cfg, probs,
        system.success_probs())
    kernel = build_kernel(space)
    policy = AccessPolicy({s: 0.5 for s in space.states})
    recs = []
    run(SchemeKind.CHAIN_DECODING, policy, system, 99, 1_000_000,
        trace_hook=lambda c: recs.extend(state_actions(c)))
    return space, kernel, policy, recs


def test_criterion_7b_kernel_rows_match_empirical(kernel_empirics):
    space, kernel, _, recs = kernel_empirics
    counts = defaultdict(lambda: defaultdict(int))
    idx = space.index
    for i in range(len(recs) - 1):
        ph, b, t, a = recs[i]
        ph2, b2, t2, _ = recs[i + 1]
        s = idx[MdpState((ph, b), t)]
        s2 = idx[MdpState((ph2, b2), t2)]
        counts[(s, a)][s2] += 1
    bad, checked = [], 0
    for (i, a), row in counts.items():
        n_sa = sum(row.values())
        if n_sa < 1000:
            continue
        for j in range(space.n):
            p = kernel.p[i, a, j]
            phat = row.get(j, 0) / n_sa
            if phat > 0.0 and p == 0.0:
                bad.append(f"impossible transition {i}-{a}->{j}")
                continue
            se = max(math.sqrt(p * (1 - p) / n_sa), 1e-9)
            checked += 1
            if abs(phat - p) > 3 * se + 1e-6:
                bad.append(f"row {i} a={a} -> {j}: z={(phat - p) / se:.1f}")
    _report("7b kernel vs empirical transitions", not bad,
            f"{checked} entries over {len(counts)} visited (state, action) rows"
            + ("; " + "; ".join(bad[:4]) if bad else ""))


def test_criterion_7c_stationary_matches_visit_frequencies(kernel_empirics):
    space, kernel, policy, recs = kernel_empirics
    res = evaluate_policy(space, kernel, policy)
    n = len(recs)
    batches = 100
    per_batch = np.zeros((batches, space.n))
    for i in range(1, n):
        ph, b, t, _ = recs[i]
        per_batch[(i * batches) // n, space.index[MdpState((ph, b), t)]] += 1
    sizes = per_batch.sum(axis=1, keepdims=True)
    freqs = per_batch / sizes
    emp = freqs.mean(axis=0)
    se = freqs.std(axis=0, ddof=1) / math.sqrt(batches)
    bad = int(np.sum(np.abs(emp - res.stationary) > 3 * se + 1e-6))
    worst = float(np.abs(emp - res.stationary).max())
    _report("7c stationary vs empirical visits", bad == 0,
            f"max abs deviation {worst:.2e}; {bad} states beyond 3 sigma")


def test_criterion_8_fig6_shape():
    """Cross-link sweep: rises while the PU floor is slack, falls once it binds.

    The PU is backlogged and sends every slot, so its throughput is its
    per-slot success probability, which an always-transmitting SU scales
    by 1 / (1 + theta_p * ratio).  The unconstrained optimum transmits
    every slot, so the floor starts to bind at
    r* = (1 / FLOOR_FRACTION - 1) / theta_p, and the peak must sit on one
    of the two grid points that bracket r*.
    """
    rates = RatePair(optimize_rate(5.0), optimize_rate(10.0))
    pu_cfg = PuConfig(5)
    ratios = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)
    theta_p = 2.0 ** rates.r_p - 1.0
    r_star = (1.0 / FLOOR_FRACTION - 1.0) / theta_p
    values, fails = [], []
    pi_gap = 0.0
    for ratio in ratios:
        snr = AvgSnrConfig(5.0, 5.0, 10.0, ratio * 10.0)
        system = SystemConfig(snr, rates, pu_cfg)
        probs = region_probabilities(
            snr, rates, 1_000_000,
            np.random.default_rng(np.random.SeedSequence([1, 0x5EED])))
        rep, floor, space, kernel = _solve_with_kernel(
            system, probs, SchemeKind.CHAIN_DECODING)
        values.append(rep.su_throughput)
        oracle = pi_constrained_solve(kernel, space.reachable, space.table.start, floor)
        pi_gap = max(pi_gap, abs(rep.su_throughput - oracle.su))
        if ratio < r_star and rep.multiplier != 0.0:
            fails.append(f"floor binds below r* at {ratio}")
        if ratio > r_star and abs(rep.constraint_value - floor) > 1e-4:
            fails.append(f"floor slack above r* at {ratio}")
    k = int(np.argmax(values))
    rising = all(b >= a - 1e-9 for a, b in zip(values[: k + 1], values[1: k + 1]))
    falling = all(b <= a + 1e-9 for a, b in zip(values[k:], values[k + 1:]))
    unimodal = rising and falling
    peak = ratios[k]
    below = max(r for r in ratios if r <= r_star)
    above = min(r for r in ratios if r > r_star)
    if not 0 < k < len(ratios) - 1:
        fails.append("peak at an end of the grid")
    if peak not in (below, above):
        fails.append(f"peak outside the bracket [{below}, {above}] of r*")
    if pi_gap > 1e-6:
        fails.append(f"solver-PI gap {pi_gap:.1e}")
    ok = unimodal and not fails
    detail = (f"curve {[round(v, 4) for v in values]} over ratios {ratios}; "
              f"unimodal={unimodal}, peak at {peak}, r*={r_star:.4f} "
              f"bracketed by [{below}, {above}], max |solver-PI|={pi_gap:.1e}"
              + ("; " + "; ".join(fails) if fails else ""))
    _report("8 fig6 shape", ok, detail)


def test_supplementary_peak_tracks_constraint_activation():
    """Documentation for the cross-link sweep shape.

    The solved curve rises while the PU floor is slack (the unconstrained
    optimum transmits every slot, and longer ARQ cycles raise the harvest
    per access) and falls once the floor binds, so its peak sits at the
    activation ratio 0.25 / theta_p of the always-transmit policy.  With
    the tuned PU rate (theta_p about 4.7) that is near 0.05; forcing
    theta_p = 0.5 moves the peak to exactly 0.5.
    """
    pu_cfg = PuConfig(5)

    def peak_for(rate_p):
        rates = RatePair(optimize_rate(5.0), rate_p)
        theta = 2.0 ** rates.r_p - 1.0
        predicted = 0.25 / theta
        grid = sorted({round(predicted * f, 4) for f in (0.5, 0.8, 1.0, 1.25, 2.0, 4.0)})
        vals = []
        for ratio in grid:
            snr = AvgSnrConfig(5.0, 5.0, 10.0, ratio * 10.0)
            system = SystemConfig(snr, rates, pu_cfg)
            probs = region_probabilities(
                snr, rates, 300_000,
                np.random.default_rng(np.random.SeedSequence([1, 0x5EED])))
            rep, _ = _solve(system, probs, SchemeKind.CHAIN_DECODING)
            vals.append(rep.su_throughput)
        return grid[int(np.argmax(vals))], predicted

    for rate_p in (optimize_rate(10.0), math.log2(1.5)):
        peak, predicted = peak_for(rate_p)
        assert 0.4 * predicted <= peak <= 2.1 * predicted, (rate_p, peak, predicted)
    print("supplementary: sweep peak follows 0.25/theta_p for both PU rates")
