import itertools

import numpy as np
import pytest

from cogarq.channel import RegionProbabilities
from cogarq.mdp import MdpState, build_kernel, enumerate_space
from cogarq.pu_system import PuConfig, saturating_arrivals
from cogarq.pu_tracker import PuFeedback, update
from cogarq.virtual_state import (
    ChainDecodingModel,
    CdPhase,
    expected_pu_reward,
    next_belief,
    phase_flags,
    phase_from_flags,
    point_belief,
    translate_outcome,
    virtual_reward,
)

PROBS = RegionProbabilities(0.06, 0.15, 0.07, 0.26, 0.20, 0.10, 0.16)


def cfg_for(r_max=5, d_max=5, q_max=1, policy=None):
    pol = policy or (lambda t, d, q: 1.0)
    return PuConfig(r_max, d_max, q_max, saturating_arrivals(q_max), pol)


def expected_virtual_reward(phase, b, a_s, cfg, rho=(0.6, 0.3)):
    """build_kernel's expected SU credit in state (phase, b, t=0, d=0, q=1)."""
    space = enumerate_space(ChainDecodingModel(cfg), cfg, PROBS, rho)
    i = space.index[MdpState((phase.value, b), 0, 0, point_belief(1, 1))]
    return build_kernel(space).r_su[i, a_s]


def saturated(q_max=1):
    return point_belief(q_max, q_max)


def test_phase_flag_bijection():
    for phase in CdPhase:
        assert phase_from_flags(*phase_flags(phase)) is phase
    with pytest.raises(ValueError):
        phase_from_flags(0, 0)


@pytest.mark.parametrize(
    "a_s,a_p,y,phase,b,expected",
    [
        (1, 0, 7, CdPhase.U, 0, 1),       # PU idle, packet decodes alone
        (0, 1, 3, CdPhase.U, 2, 2),       # pinned packets released
        (1, 1, 5, CdPhase.K_FWD, 0, 1),   # virtual knowledge cleans the slot
        (0, 0, 4, CdPhase.K_BIDIR, 0, 0),
        (0, 0, 1, CdPhase.U, 3, 0),       # nothing transmitted, nothing earned
    ],
)
def test_virtual_reward_examples(a_s, a_p, y, phase, b, expected):
    assert virtual_reward(a_s, a_p, y, phase, b) == expected


def test_virtual_reward_per_phase_closed_forms():
    def by_phase(a_s, a_p, y, phase, b):
        in_ = lambda *vals: int(y in vals)
        if phase is CdPhase.U:
            return (a_s * in_(1, 2) + a_s * (1 - a_p) * in_(5, 7)
                    + a_p * in_(1, 3, 6, 7) * b)
        if phase is CdPhase.K_BIDIR:
            return (a_s * in_(1, 2, 5, 7) + a_p * in_(1, 3, 6)
                    + a_p * (1 - a_s) * in_(7))
        return a_s * in_(1, 2, 5, 7)

    for a_s, a_p, y in itertools.product((0, 1), (0, 1), range(1, 8)):
        for phase in CdPhase:
            for b in ((0, 1, 3) if phase is CdPhase.U else (0,)):
                assert virtual_reward(a_s, a_p, y, phase, b) == by_phase(a_s, a_p, y, phase, b)


def test_virtual_reward_rejects_pinned_packets_outside_unknown_phase():
    with pytest.raises(ValueError):
        virtual_reward(1, 1, 1, CdPhase.K_FWD, 2)


def test_expected_virtual_reward_idle_pu():
    cfg = cfg_for(policy=lambda t, d, q: 0.0)
    got = expected_virtual_reward(CdPhase.U, 0, 1, cfg)
    want = PROBS.delta_sp + PROBS.delta_s + PROBS.ups_sp + PROBS.ups_s
    assert got == pytest.approx(want)


def test_expected_virtual_reward_forward_known_idle_su():
    assert expected_virtual_reward(CdPhase.K_FWD, 0, 0, cfg_for()) == 0.0


def test_expected_virtual_reward_pinned_release():
    got = expected_virtual_reward(CdPhase.U, 1, 0, cfg_for())
    want = PROBS.delta_sp + PROBS.delta_p + PROBS.ups_sp + PROBS.ups_p
    assert got == pytest.approx(want)


def test_expected_pu_reward_idle_su_throughput():
    cfg = cfg_for()
    rho = (0.62, 0.31)
    r = expected_pu_reward(0, 0, saturated(), 0, cfg, rho)
    assert r.throughput == pytest.approx(0.62)
    assert r.power == pytest.approx(-1.0)


def test_expected_pu_reward_silent_pu_is_zero():
    cfg = cfg_for(policy=lambda t, d, q: 0.0)
    r = expected_pu_reward(0, 0, saturated(), 1, cfg, (0.62, 0.31))
    assert r.throughput == 0.0 and r.power == 0.0


def test_expected_pu_reward_interference_monotone():
    cfg = cfg_for()
    rho = (0.62, 0.31)
    r1 = expected_pu_reward(0, 0, saturated(), 1, cfg, rho)
    r0 = expected_pu_reward(0, 0, saturated(), 0, cfg, rho)
    assert r1.throughput <= r0.throughput


def test_expected_pu_reward_overflow_drops():
    # full queue, saturating arrivals, no completion possible while idle
    cfg = cfg_for(q_max=2, policy=lambda t, d, q: 0.0)
    r = expected_pu_reward(0, 0, saturated(2), 0, cfg, (0.5, 0.5))
    assert r.drops == pytest.approx(-2.0)  # q - 0 + b - q_max = 2
    assert r.queue_delay == pytest.approx(-2.0)


def test_transition_completion_resets():
    model = ChainDecodingModel(cfg_for())
    for cd in (("K_BIDIR", 0), ("U", 3)):
        o, t, d = update(2, 2, PuFeedback.ACK, cfg_for())
        assert model.next_cd(cd, 1, 1, 4, o) == ("U", 0)
        assert (o, t, d) == (1, 0, 0)


def test_transition_buffers_pinned_packet():
    o, t, d = update(1, 1, PuFeedback.NACK, cfg_for())
    assert ChainDecodingModel(cfg_for()).next_cd(("U", 1), 1, 1, 5, o) == ("U", 2)
    assert (t, d) == (2, 2)


def test_transition_direct_decode_forward_known():
    model = ChainDecodingModel(cfg_for())
    assert model.next_cd(("U", 2), 0, 1, 3, 0) == ("K_FWD", 0)


def test_transition_mutual_connection():
    model = ChainDecodingModel(cfg_for())
    assert model.next_cd(("U", 0), 1, 1, 7, 0) == ("K_BIDIR", 0)


def test_transition_backlogged_belief_fixed():
    cfg = cfg_for(q_max=3)
    bel = point_belief(3, 3)
    rho = (0.6, 0.3)
    for y_p in (PuFeedback.ACK, PuFeedback.NACK):
        o, _, _ = update(1, 1, y_p, cfg)
        assert next_belief(1, 1, bel, o, rho[1], cfg) == bel


def test_next_belief_stays_normalized_and_bayes():
    rng = np.random.default_rng(0)
    pmf = rng.dirichlet(np.ones(4))
    cfg = PuConfig(3, 4, 3, pmf, lambda t, d, q: 0.5)
    belief = tuple(rng.dirichlet(np.ones(4)).tolist())
    for o in (0, 1):
        for (t, d) in ((0, 0), (1, 1), (1, 2)):
            try:
                nxt = next_belief(t, d, belief, o, 0.4, cfg)
            except ValueError:
                continue  # zero-probability observation under this belief
            assert abs(sum(nxt) - 1.0) < 1e-9
            assert min(nxt) >= 0.0


def test_next_belief_impossible_observation_raises():
    cfg = cfg_for(policy=lambda t, d, q: 0.0)
    # idle PU below the delay deadline can never complete
    with pytest.raises(ValueError):
        next_belief(0, 0, point_belief(1, 1), 1, 0.5, cfg)


@pytest.mark.parametrize("seed", range(6))
def test_random_walk_keeps_state_invariants(seed):
    rng = np.random.default_rng(seed)
    # randomized PU access keeps every feedback observation feasible
    cfg = cfg_for(r_max=4, d_max=6, policy=lambda t, d, q: 0.7)
    model = ChainDecodingModel(cfg)
    rho = (0.5, 0.25)
    cd, t, d, belief = model.initial_cd(), 0, 0, point_belief(1, 1)
    for _ in range(300):
        a_s = int(rng.random() < 0.5)
        if rng.random() < 0.8:
            success = rng.random() < rho[a_s]
            y_p = PuFeedback.ACK if success else PuFeedback.NACK
        else:
            y_p = PuFeedback.IDLE
        y = int(rng.integers(1, 8))
        o, t_n, d_n = update(t, d, y_p, cfg)
        belief = next_belief(t, d, belief, o, rho[a_s], cfg)
        cd = model.next_cd(cd, a_s, int(y_p != PuFeedback.IDLE), y, o)
        t, d = t_n, d_n
        phase, b_s = CdPhase(cd[0]), cd[1]
        kappa, iota = phase_flags(phase)
        assert (kappa, iota) != (0, 0)
        assert 0 <= b_s <= cfg.r_max - 1
        assert (phase is CdPhase.U) or b_s == 0
        assert 0 <= t < cfg.r_max and t <= d < cfg.d_max
        assert abs(sum(belief) - 1.0) < 1e-9


def test_translate_outcome_mapping():
    # both active: identity
    for y in range(1, 8):
        assert translate_outcome(1, 1, y) == y
    # lone PU decode collapses to outcome 3, lone failure to 4
    assert [translate_outcome(1, 0, y) for y in range(1, 8)] == [3, 4, 3, 4, 4, 3, 3]
    # lone SU decode collapses to outcome 2
    assert [translate_outcome(0, 1, y) for y in range(1, 8)] == [2, 2, 4, 4, 2, 4, 2]
    assert all(translate_outcome(0, 0, y) == 4 for y in range(1, 8))


def test_scheme_model_matches_transition_on_path():
    def by_phase(cd, a_s, a_p, y, o):
        """The phase update written per phase, apart from the flag algebra."""
        phase, b = cd
        pu_decoded = a_p and y in (1, 3, 6, 7)
        if o:
            return ("U", 0)
        if phase == "K_FWD" or (phase == "K_BIDIR" and not pu_decoded):
            return cd
        if pu_decoded:
            return ("K_BIDIR", 0) if (a_s and y == 7) else ("K_FWD", 0)
        return ("U", b + a_p * a_s * (y == 5))

    cfg = cfg_for()
    model = ChainDecodingModel(cfg)
    rng = np.random.default_rng(1)
    rho = (0.6, 0.3)
    cd, t, d = model.initial_cd(), 0, 0
    for _ in range(400):
        a_s = int(rng.random() < 0.5)
        success = rng.random() < rho[a_s]
        y_p = PuFeedback.ACK if success else PuFeedback.NACK
        y = int(rng.integers(1, 8))
        o, t, d = update(t, d, y_p, cfg)
        want = by_phase(cd, a_s, 1, y, o)
        cd = model.next_cd(cd, a_s, 1, y, o)
        assert cd == want
