import hashlib
import itertools

import numpy as np
import pytest

from cogarq import simulator
from cogarq.channel import AvgSnrConfig, RatePair
from cogarq.mdp import (
    AccessPolicy,
    MdpState,
    build_kernel,
    enumerate_space,
    solve_constrained,
    step_table,
)
from cogarq.pu_system import PuConfig
from cogarq.pu_tracker import PuFeedback, update
from cogarq.simulator import (
    FicBicModel,
    FicOnlyModel,
    NoFicBicModel,
    RunMetrics,
    SchemeKind,
    SystemConfig,
    TraceChunk,
    TraceInvariantChecker,
    run,
    scheme_model,
)

from _oracles import (
    GenieModel,
    TraceRecord,
    WindowReceiver,
    check_trace_invariants,
    chunk_of,
    memoryless_decode,
    records,
    reference_run,
    region_probabilities,
    split,
)

RATES = RatePair(1.9140575925881422, 2.5182556953531106)

# SHA-256 of the 5,000-slot chain-decoding trace below (seed 7), one
# `repr(tuple(record))` per line of its `records`.  It locks every field of every slot, so
# the receiver's label choices, credits and graph sizes, bit for bit.  The slot-by-slot
# `reference_run` gives the same digest for the same policy and seed.
CD_TRACE_SHA256 = "e3c6feb8612262956d8ad504ca1f6c6d9a735244e3b8072dd4cb3774e06cdc15"


def small_system(mean_ps=5.0, mean_sp=2.0, r_max=5):
    snr = AvgSnrConfig(5.0, mean_ps, 10.0, mean_sp)
    return SystemConfig(snr, RATES, PuConfig(r_max))


def solved_policy(system, scheme, fraction=0.8, samples=300_000):
    rng = np.random.default_rng(np.random.SeedSequence([1, 0x5EED]))
    probs = region_probabilities(system.snr, system.rates, samples, rng)
    model = scheme_model(scheme, system.pu)
    space = enumerate_space(model, probs, system.success_probs())
    return solve_constrained(space, build_kernel(space), fraction * system.success_probs()[0])


def test_same_seed_reproduces_everything():
    system = small_system()
    rep = solved_policy(system, SchemeKind.CHAIN_DECODING)
    c1, c2 = [], []
    m1 = run(SchemeKind.CHAIN_DECODING, rep.policy, system, 7, 5_000, trace_hook=c1.append)
    m2 = run(SchemeKind.CHAIN_DECODING, rep.policy, system, 7, 5_000, trace_hook=c2.append)
    assert m1 == m2
    t1 = [r for c in c1 for r in records(c)]
    assert [r for c in c2 for r in records(c)] == t1
    # one chunk per batch, each credited with the batches before it
    assert len(c1) == 100 and all(c.decoded == r.m_before for c, r in zip(c1, t1[::50]))
    digest = hashlib.sha256("\n".join(repr(tuple(r)) for r in t1).encode()).hexdigest()
    assert digest == CD_TRACE_SHA256
    # The graph's counters, kept only at edge additions and trims, agree
    # with the sizes the trace reads after every slot and with its cycle
    # starts (tracked t = 0); a trim finds an empty graph when the slot
    # before it ended with no node stored.
    assert m1.graph_max_nodes == max(r.g_nodes for r in t1) > 0
    assert m1.graph_max_edges == max(r.g_edges for r in t1) > 0
    assert m1.cycle_trims == sum(r.tr_t == 0 for r in t1)
    empty_before = [True] + [r.g_nodes == 0 for r in t1[:-1]]
    assert m1.cycle_trims_on_empty_graph == sum(
        r.tr_t == 0 and e for r, e in zip(t1, empty_before))
    assert 0 < m1.cycle_trims_on_empty_graph < m1.cycle_trims
    m3 = run(SchemeKind.CHAIN_DECODING, rep.policy, system, 8, 5_000)
    assert m3 != m1


def test_all_schemes_identical_without_cross_link():
    system = small_system(mean_ps=0.0)
    metrics = {}
    for scheme in SchemeKind:
        rep = solved_policy(system, scheme)
        metrics[scheme] = run(scheme, rep.policy, system, 21, 20_000)
    values = {m.su_throughput for m in metrics.values()}
    assert len(values) == 1  # identical environment, identical decodes
    assert len({m.decoded_total for m in metrics.values()}) == 1


def test_analytic_scheme_ordering_mid_range():
    system = small_system()
    vals = {}
    for scheme in (SchemeKind.CHAIN_DECODING, SchemeKind.FIC_BIC,
                   SchemeKind.FIC_ONLY, SchemeKind.NO_FIC_BIC):
        vals[scheme] = solved_policy(system, scheme).su_throughput
    assert vals[SchemeKind.CHAIN_DECODING] > vals[SchemeKind.FIC_BIC]
    assert vals[SchemeKind.FIC_BIC] > vals[SchemeKind.FIC_ONLY]
    assert vals[SchemeKind.FIC_ONLY] > vals[SchemeKind.NO_FIC_BIC]


def test_mc_tracks_analytic_on_short_run():
    system = small_system()
    rep = solved_policy(system, SchemeKind.CHAIN_DECODING)
    m = run(SchemeKind.CHAIN_DECODING, rep.policy, system, 3, 60_000)
    assert abs(m.su_throughput - rep.su_throughput) <= max(4 * m.su_se, 0.02 * rep.su_throughput)


def test_window_receiver_backward_release():
    rx = WindowReceiver(bic=True)
    # slot 0: buffered dependency (outcome 5), slot 1: direct PU decode
    assert rx.record(1, 0, 5, 0) == 0
    assert rx.record(1, 0, 3, 0) == 1  # buffered packet released
    assert rx.decoded == 1


def test_window_receiver_forward_only_never_releases_backward():
    rx = WindowReceiver(bic=False)
    assert rx.record(1, 0, 5, 0) == 0
    assert rx.record(1, 0, 3, 0) == 0  # no backward release
    # forward: the PU packet is now known, a clean-channel outcome decodes
    assert rx.record(1, 0, 5, 0) == 1
    assert rx.decoded == 1


def test_window_receiver_clears_at_completion():
    rx = WindowReceiver(bic=True)
    rx.record(1, 0, 5, 1)  # buffered, but the window closes immediately
    assert not rx.graph.su_nodes and not rx.graph.pu_nodes
    # next window: old buffer is gone, a PU decode releases nothing
    assert rx.record(1, 1, 3, 0) == 0


def test_checker_accepts_short_cd_run():
    system = small_system()
    rep = solved_policy(system, SchemeKind.CHAIN_DECODING)
    checker = TraceInvariantChecker(system, SchemeKind.CHAIN_DECODING)
    run(SchemeKind.CHAIN_DECODING, rep.policy, system, 11, 20_000,
        trace_hook=checker.feed)
    rpt = checker.report
    assert rpt.ok, rpt.violations[:5]
    for name in ("tracker", "compact-state", "recursion", "bound", "full-release"):
        assert rpt.checks.get(name, 0) > 0, name


@pytest.mark.parametrize("scheme", [SchemeKind.FIC_BIC, SchemeKind.FIC_ONLY,
                                    SchemeKind.NO_FIC_BIC])
def test_bound_and_tracker_hold_for_baselines(scheme):
    system = small_system()
    rep = solved_policy(system, scheme)
    checker = TraceInvariantChecker(system, scheme)
    run(scheme, rep.policy, system, 13, 20_000, trace_hook=checker.feed)
    assert checker.report.ok, checker.report.violations[:5]
    assert checker.report.checks["bound"] > 0


def _hand_trace():
    """Four-slot worked example plus the boundary slot after it.

    Both users transmit in slots 0-2 with outcomes 5, 6, 5; the PU
    retransmission in slot 3 is decoded alone (outcome 3), releasing the
    two buffered SU packets; slot 4 opens a fresh cycle.
    """
    mk = lambda **kw: TraceRecord(**{
        "l_s": None, "r_s": 0, "m_before": 0, "phase": "U", "b_s": 0,
        "g_nodes": 0, "g_edges": 0,
        **kw})
    recs = [
        mk(n=0, a_s=1, y_p=2, y=5, o=0, t=0, tr_t=0,
           tr_label=0, true_label=0, l_s=0, v_before=1, cycle_start=True),
        mk(n=1, a_s=1, y_p=1, y=6, o=1, t=1, tr_t=1,
           tr_label=0, true_label=0, l_s=1, v_before=1, b_s=1, cycle_start=False),
        mk(n=2, a_s=1, y_p=2, y=5, o=0, t=0, tr_t=0,
           tr_label=2, true_label=2, l_s=1, v_before=2, cycle_start=True),
        mk(n=3, a_s=0, y_p=1, y=3, o=1, t=1, tr_t=1,
           tr_label=2, true_label=2, r_s=2, v_before=2, b_s=1, cycle_start=False),
        mk(n=4, a_s=0, y_p=2, y=4, o=0, t=0, tr_t=0,
           tr_label=4, true_label=4, m_before=2, v_before=1, cycle_start=True),
    ]
    return recs


def _reports(trace, system, scheme=SchemeKind.CHAIN_DECODING):
    """The package checker's report on a recorded trace, after checking that
    the slot-by-slot reference gives the same one."""
    checker = TraceInvariantChecker(system, scheme)
    checker.feed(chunk_of(trace))
    assert checker.report == check_trace_invariants(trace, system, scheme)
    return checker.report


def test_hand_built_trace_satisfies_recursion_and_bound():
    system = small_system()
    report = _reports(_hand_trace(), system)
    assert report.ok, report.violations
    assert report.checks["recursion"] == 4
    assert report.checks["bound"] == 2
    assert report.cycles == 2


def test_hand_built_trace_detects_corruption():
    system = small_system()
    recs = _hand_trace()
    # claim one extra decode in slot 3
    bad = [recs[3]._replace(r_s=3), recs[4]._replace(m_before=3)]
    report = _reports(recs[:3] + bad, system)
    assert not report.ok
    assert any("bound" in v or "recursion" in v for v in report.violations)


def test_tracker_mismatch_detected():
    system = small_system()
    recs = _hand_trace()
    bad = recs[2]._replace(tr_t=1, tr_label=1)
    report = _reports(recs[:2] + [bad] + recs[3:], system)
    assert any("tracker" in v for v in report.violations)


def test_run_metrics_validation():
    with pytest.raises(ValueError):
        RunMetrics("x", 0, 10, 0.1, 0.0, 1.5, 0.0, 0.0, 1)


def test_drop_rate_counts_trimmed_packets():
    system = small_system()
    rep = solved_policy(system, SchemeKind.CHAIN_DECODING)
    m = run(SchemeKind.CHAIN_DECODING, rep.policy, system, 5, 20_000)
    assert 0.0 <= m.drop_rate < 1.0


def test_chain_decoding_drops_are_fresh_packets_sent_less_credited():
    system = small_system()
    rep = solved_policy(system, SchemeKind.CHAIN_DECODING)
    chunks = []
    n_slots = 20_000
    m = run(SchemeKind.CHAIN_DECODING, rep.policy, system, 5, n_slots, trace_hook=chunks.append)
    trace = [rec for c in chunks for rec in records(c)]
    fresh = sum(rec.l_s == rec.n for rec in trace)
    # root retransmissions occur, and are not counted as fresh packets
    assert fresh < sum(rec.a_s for rec in trace)
    assert m.drop_rate == (fresh - m.decoded_total) / n_slots
    # a trimmed packet is a fresh packet never credited
    assert 0 < m.trimmed_su <= fresh - m.decoded_total
    # the walk's states are the policy's
    assert all(s in rep.policy.probs for s in chunks[-1].states)


def test_fic_only_reports_its_drops():
    # README links at gamma_ps / gamma_s = 1: FIC-only loses the packets sent
    # under an unknown PU packet that it cannot decode at once.
    system = small_system()
    rep = solved_policy(system, SchemeKind.FIC_ONLY)
    m = run(SchemeKind.FIC_ONLY, rep.policy, system, 5, 20_000)
    assert m.drop_rate > 0.0


def test_scheme_models_expose_consistent_tables():
    pu_cfg = PuConfig(4)
    for model in (FicBicModel(pu_cfg), FicOnlyModel(pu_cfg),
                  NoFicBicModel(pu_cfg), GenieModel(pu_cfg)):
        # every step from a table state, under any action, feedback and
        # region, stays in the table
        table = step_table(model)
        assert table.states[table.start] == MdpState(model.initial_cd(), 0)
        for s in table.states:
            for a_s, y_p, y in itertools.product((0, 1), PuFeedback, range(1, 8)):
                o, t_n = update(s.t, y_p, pu_cfg)
                assert MdpState(model.next_cd(s.cd, a_s, y, o), t_n) in table.index
                assert model.reward(s.cd, a_s, y) >= 0


def _constant_policy(system, scheme, mu=0.6):
    """Transmit with probability `mu` in every enumerated state, so both
    actions occur from every state a run reaches."""
    rng = np.random.default_rng(np.random.SeedSequence([1, 0x5EED]))
    probs = region_probabilities(system.snr, system.rates, 20_000, rng)
    space = enumerate_space(scheme_model(scheme, system.pu), probs, system.success_probs())
    return AccessPolicy({s: mu for s in space.states})


@pytest.mark.parametrize("r_max", [2, 3, 5])
@pytest.mark.parametrize("mean_ps", [0.5, 5.0, 25.0])  # cross-link ratios 0.1, 1 and 5
def test_baselines_match_the_graph_receiver_oracle(mean_ps, r_max):
    pu_cfg = PuConfig(r_max)
    system = SystemConfig(AvgSnrConfig(5.0, mean_ps, 10.0, 2.0), RATES, pu_cfg)
    n_slots = 6_000
    for scheme in (SchemeKind.FIC_BIC, SchemeKind.FIC_ONLY, SchemeKind.NO_FIC_BIC):
        chunks = []
        m = run(scheme, _constant_policy(system, scheme), system, 17, n_slots,
                trace_hook=chunks.append)
        trace = [rec for c in chunks for rec in records(c)]
        rx = WindowReceiver(bic=scheme is SchemeKind.FIC_BIC)
        decoded = 0
        for rec in trace:
            if scheme is SchemeKind.NO_FIC_BIC:
                want = memoryless_decode(rec.a_s, rec.y)
            else:
                want = rx.record(rec.a_s, rec.n - rec.tr_t, rec.y, rec.o)
            assert rec.r_s == want, (scheme, rec)
            decoded += want
        # every baseline transmission sends a fresh packet
        drops = sum(rec.a_s for rec in trace) - decoded
        assert m.decoded_total == decoded
        assert m.drop_rate == drops / n_slots
        if scheme is SchemeKind.FIC_BIC and mean_ps > 1.0:
            assert drops > 0


def test_policy_missing_a_reachable_state_raises():
    system = small_system()
    policy = _constant_policy(system, SchemeKind.FIC_BIC)
    # after the first NACK the tracked retransmission count is 1
    missing = AccessPolicy({s: p for s, p in policy.probs.items() if s.t != 1})
    with pytest.raises(KeyError, match="policy has no entry for state"):
        run(SchemeKind.FIC_BIC, missing, system, 3, 2_000)


def _matches_reference(scheme, policy, system, seed, n_slots, batches=100):
    """Run the package and the slot-by-slot reference alike; require the same
    metrics and the same trace chunks, column by column.  Returns the chunks."""
    got, want = [], []
    metrics = run(scheme, policy, system, seed, n_slots, trace_hook=got.append, batches=batches)
    assert metrics == reference_run(scheme, policy, system, seed, n_slots,
                                    trace_hook=want.append, batches=batches)
    assert run(scheme, policy, system, seed, n_slots, batches=batches) == metrics
    assert len(got) == len(want) == min(batches, n_slots)
    for a, b in zip(got, want):
        assert (a.first, a.decoded) == (b.first, b.decoded)
        # The package numbers compact states by the step table, the
        # reference in the order it reaches them: each slot's state must agree.
        assert [a.states[i] for i in a.sid.tolist()] == [b.states[i] for i in b.sid.tolist()]
        for column in [c for c in TraceChunk._fields[3:] if c != "sid"]:
            assert np.array_equal(getattr(a, column), getattr(b, column)), (a.first, column)
    return got


def _column(chunks, name):
    return np.concatenate([getattr(c, name) for c in chunks])


@pytest.mark.parametrize("r_max", [2, 3, 5])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_run_matches_the_slot_by_slot_reference(scheme, r_max):
    pu_cfg = PuConfig(r_max)
    system = SystemConfig(AvgSnrConfig(5.0, 5.0, 10.0, 2.0), RATES, pu_cfg)
    chunks = _matches_reference(scheme, _constant_policy(system, scheme), system, 23, 3_000)
    assert set(_column(chunks, "a_s").tolist()) == {0, 1}


class _AnyState(dict):
    """Transmit probabilities for every compact state, by its tracked t.

    The table answers any state; its own entries hold each value it gives,
    as the package reads the distinct values off the table.
    """

    MUS = (0.0, 0.3, 1.0, 0.65)

    def __init__(self):
        super().__init__({("value", i): mu for i, mu in enumerate(self.MUS)})

    def __missing__(self, state):
        return self.MUS[state[1] % len(self.MUS)]


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_run_matches_the_reference_with_two_mixed_mus(scheme):
    system = SystemConfig(AvgSnrConfig(5.0, 5.0, 10.0, 2.0), RATES, PuConfig(4))
    chunks = _matches_reference(scheme, AccessPolicy(_AnyState()), system, 29, 4_000, batches=7)
    states = chunks[0].states
    mus = {_AnyState.MUS[states[s][1] % 4] for s in _column(chunks, "sid")}
    assert mus == set(_AnyState.MUS)


@pytest.mark.parametrize("snr", [AvgSnrConfig(5.0, 5.0, 10.0, 0.0), AvgSnrConfig(5.0, 0.0, 10.0, 2.0)])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_run_matches_the_reference_across_slices_and_groups(monkeypatch, scheme, snr):
    # With slices of 1,000 slots and groups of 300, the 5,000-slot run spans
    # five slices and each of its 7 batches several groups.  One link has a
    # zero mean and draws nothing; every other link draws from its own
    # generator, set by the pre-pass.
    monkeypatch.setattr(simulator, "_SLICE", 1_000)
    monkeypatch.setattr(simulator, "_GROUP", 300)
    system = SystemConfig(snr, RATES, PuConfig(4))
    _matches_reference(scheme, AccessPolicy(_AnyState()), system, 41, 5_000, batches=7)


def test_remembered_decoded_slots_stay_bounded():
    # README links at gamma_ps / gamma_s = 1, where the graph grows largest
    system = small_system()
    rep = solved_policy(system, SchemeKind.CHAIN_DECODING)
    m = run(SchemeKind.CHAIN_DECODING, rep.policy, system, 11, 200_000)
    assert 0 < m.graph_max_decoded <= system.pu.r_max + m.graph_max_nodes


def test_a_draw_equal_to_its_access_probability_does_not_transmit():
    # The SU access draws are the fourth stream of the seed.
    n, seed = 2_000, 31
    su_u = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3]).random(n)
    system = SystemConfig(AvgSnrConfig(5.0, 5.0, 10.0, 2.0), RATES, PuConfig(5))
    mu = float(su_u[777])
    policy = _constant_policy(system, SchemeKind.FIC_BIC, mu)
    chunks = _matches_reference(SchemeKind.FIC_BIC, policy, system, seed, n)
    a_s = _column(chunks, "a_s")
    assert a_s[777] == 0 and np.array_equal(a_s, su_u < mu)


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_backlogged_pu_sends_in_every_slot(scheme):
    system = small_system()
    chunks = []
    m = run(scheme, _constant_policy(system, scheme), system, 37, 2_000, trace_hook=chunks.append)
    # feedback in every slot, slot 0 included: the PU is never idle
    y_p = _column(chunks, "y_p")
    assert set(y_p.tolist()) == {PuFeedback.ACK, PuFeedback.NACK}
    assert m.pu_throughput == pytest.approx(np.mean(y_p == PuFeedback.ACK), abs=1e-15)
    # the tracked try count is the true one in every slot, from a cycle
    # that starts in slot 0
    states, t = chunks[0].states, _column(chunks, "t")
    assert [states[i].t for i in _column(chunks, "sid")] == t.tolist()
    assert t[0] == 0 and t.max() == system.pu.r_max - 1
    want = reference_run(scheme, _constant_policy(system, scheme), system, 37, 2_000)
    assert m.states_visited == want.states_visited


def test_missing_policy_state_raises_at_the_reference_slot():
    system = small_system()
    policy = _constant_policy(system, SchemeKind.FIC_BIC)
    # two packets buffered behind an unknown PU packet on its fourth try
    missing = AccessPolicy({s: p for s, p in policy.probs.items()
                            if not (s.cd == ("U", 2) and s.t == 3)})
    messages = []
    for simulate in (run, reference_run):
        with pytest.raises(KeyError, match="policy has no entry for state") as err:
            simulate(SchemeKind.FIC_BIC, missing, system, 3, 500)
        messages.append(err.value.args[0])
    assert messages[0] == messages[1]
    assert int(messages[0].rpartition("on the step of slot ")[2]) > 100, messages[0]


def test_unknown_phase_is_a_compact_state_violation():
    system = small_system()
    recs = _hand_trace()
    bad = recs[1]._replace(phase="X")
    report = _reports(recs[:1] + [bad] + recs[2:], system)
    assert any("compact-state" in v and "'X'" in v for v in report.violations), report.violations


@pytest.fixture(scope="module")
def traces():
    """Per scheme, one 3,000-slot run's trace as a single chunk, and the
    run's own 100 batch chunks."""
    system = small_system()
    out = {}
    for scheme in (SchemeKind.CHAIN_DECODING, SchemeKind.FIC_BIC):
        rep = solved_policy(system, scheme)
        whole, batches = [], []
        run(scheme, rep.policy, system, 11, 3_000, trace_hook=whole.append, batches=1)
        run(scheme, rep.policy, system, 11, 3_000, trace_hook=batches.append)
        out[scheme] = whole[0], batches
    return system, out


def _mutant(chunk, kind, rng):
    """The chunk with one kind of fault planted at seeded slots."""
    cols = {c: getattr(chunk, c).copy() for c in ("y", "t", "v")}
    pick = lambda mask: rng.choice(np.flatnonzero(mask), size=3, replace=False)
    cycle_starts = chunk.t == 0
    if kind == "tracker":  # a true t off the tracked one, away from the cycle starts
        cols["t"][pick(chunk.t > 0)] += 1
    elif kind == "outcome-range":
        cols["y"][pick(np.ones(len(chunk.y), bool))] = [0, 8, -3]
    elif kind == "compact-state":
        states = list(chunk.states)
        for s, cd in zip(np.unique(chunk.sid[pick(np.ones(len(chunk.y), bool))])[:2],
                         (("X", 0), ("K_FWD", 1))):
            states[s] = (cd, *states[s][1:])
        return chunk._replace(states=states)
    elif kind == "recursion":
        cols["v"][pick(~cycle_starts)] += 1
    elif kind == "bound":
        return chunk._replace(decoded=chunk.decoded + 2)
    elif kind == "full-release":
        cols["v"][cycle_starts] = 2
    return chunk._replace(**cols)


MUTANTS = ("tracker", "outcome-range", "compact-state", "recursion", "bound", "full-release")


@pytest.mark.parametrize("kind", MUTANTS)
def test_checker_matches_the_slot_by_slot_reference_on_mutants(traces, kind):
    system, by_scheme = traces
    whole, _ = by_scheme[SchemeKind.CHAIN_DECODING]
    bad = _mutant(whole, kind, np.random.default_rng(MUTANTS.index(kind)))
    checker = TraceInvariantChecker(system)
    checker.feed(bad)
    assert checker.report == check_trace_invariants(records(bad), system)
    assert any(f": {kind}: " in v for v in checker.report.violations), checker.report.violations


@pytest.mark.parametrize("scheme", [SchemeKind.CHAIN_DECODING, SchemeKind.FIC_BIC])
@pytest.mark.parametrize("kind", [None, "tracker", "recursion", "full-release"])
def test_checker_report_does_not_depend_on_chunk_size(traces, scheme, kind):
    system, by_scheme = traces
    whole, batches = by_scheme[scheme]
    if kind is not None:
        whole = _mutant(whole, kind, np.random.default_rng(5))
        batches = split(whole, len(batches[0].sid))
    reports = []
    for chunks in ([whole], batches, split(whole, 7), split(whole, 1)):
        checker = TraceInvariantChecker(system, scheme)
        for chunk in chunks:
            checker.feed(chunk)
        reports.append(checker.report)
    assert reports[0] == reports[1] == reports[2] == reports[3]
    assert reports[0] == check_trace_invariants(records(whole), system, scheme)
    assert reports[0].slots == 3_000 and reports[0].cycles > 0
    cd_only = kind in ("recursion", "full-release")  # identities of chain decoding alone
    assert reports[0].ok == (kind is None or (cd_only and scheme is not SchemeKind.CHAIN_DECODING))


def test_records_round_trip_through_a_chunk(traces):
    whole, batches = traces[1][SchemeKind.CHAIN_DECODING]
    recs = records(whole)
    assert [r for c in batches for r in records(c)] == recs
    assert records(chunk_of(recs)) == recs
    with pytest.raises(ValueError, match="do not determine"):
        chunk_of(recs[:3] + [recs[3]._replace(m_before=recs[3].m_before + 1)] + recs[4:])
