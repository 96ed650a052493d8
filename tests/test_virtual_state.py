import itertools

import numpy as np
import pytest

from cogarq.channel import RegionProbabilities
from cogarq.mdp import MdpState, build_kernel, enumerate_space, step_table
from cogarq.pu_system import PuConfig
from cogarq.pu_tracker import PuFeedback, update
from cogarq.simulator import SchemeKind, scheme_model
from cogarq.virtual_state import (
    ChainDecodingModel,
    CdPhase,
    phase_flags,
    phase_from_flags,
    translate_outcome,
    virtual_reward,
)

from _oracles import GenieModel, scalar_reachable

PROBS = RegionProbabilities(0.06, 0.15, 0.07, 0.26, 0.20, 0.10, 0.16)
RHO = (0.62, 0.31)


def cfg_for(r_max=5):
    return PuConfig(r_max)


def _kernel_at(phase, b, rho=(0.6, 0.3), t=0):
    """build_kernel's output and the index of state (phase, b, t)."""
    cfg = cfg_for()
    space = enumerate_space(ChainDecodingModel(cfg), PROBS, rho)
    return build_kernel(space), space.index[MdpState((phase.value, b), t)]


def expected_virtual_reward(phase, b, a_s, t=0):
    """build_kernel's expected SU credit in state (phase, b, t)."""
    kernel, i = _kernel_at(phase, b, t=t)
    return kernel.r_su[i, a_s]


def test_phase_flag_bijection():
    for phase in CdPhase:
        assert phase_from_flags(*phase_flags(phase)) is phase
    with pytest.raises(ValueError):
        phase_from_flags(0, 0)


@pytest.mark.parametrize(
    "a_s,y,phase,b,expected",
    [
        (1, 7, CdPhase.U, 0, 0),       # both undecodable alone: buffered, not credited
        (0, 3, CdPhase.U, 2, 2),       # pinned packets released
        (1, 5, CdPhase.K_FWD, 0, 1),   # virtual knowledge cleans the slot
        (0, 4, CdPhase.K_BIDIR, 0, 0),
        (0, 1, CdPhase.U, 3, 3),       # the PU packet decodes, releasing the pinned ones
    ],
)
def test_virtual_reward_examples(a_s, y, phase, b, expected):
    assert virtual_reward(a_s, y, phase, b) == expected


def test_virtual_reward_per_phase_closed_forms():
    def by_phase(a_s, y, phase, b):
        in_ = lambda *vals: int(y in vals)
        if phase is CdPhase.U:
            return a_s * in_(1, 2) + in_(1, 3, 6, 7) * b
        if phase is CdPhase.K_BIDIR:
            return a_s * in_(1, 2, 5, 7) + in_(1, 3, 6) + (1 - a_s) * in_(7)
        return a_s * in_(1, 2, 5, 7)

    for a_s, y in itertools.product((0, 1), range(1, 8)):
        for phase in CdPhase:
            for b in ((0, 1, 3) if phase is CdPhase.U else (0,)):
                assert virtual_reward(a_s, y, phase, b) == by_phase(a_s, y, phase, b)


def test_virtual_reward_rejects_pinned_packets_outside_unknown_phase():
    with pytest.raises(ValueError):
        virtual_reward(1, 1, CdPhase.K_FWD, 2)


def test_expected_virtual_reward_fresh_packet_under_unknown_pu():
    got = expected_virtual_reward(CdPhase.U, 0, 1)
    want = PROBS.delta_sp + PROBS.delta_s
    assert got == pytest.approx(want)


def test_expected_virtual_reward_forward_known_idle_su():
    # a known phase first occurs at t = 1; the reward does not depend on t
    assert expected_virtual_reward(CdPhase.K_FWD, 0, 0, t=1) == 0.0


def test_expected_virtual_reward_pinned_release():
    # a pinned packet first occurs at t = 1; the reward does not depend on t
    got = expected_virtual_reward(CdPhase.U, 1, 0, t=1)
    want = PROBS.delta_sp + PROBS.delta_p + PROBS.ups_sp + PROBS.ups_p
    assert got == pytest.approx(want)


def test_expected_pu_reward_idle_su_throughput():
    # the backlogged PU sends from a full queue and succeeds with rho[a_s]
    kernel, i = _kernel_at(CdPhase.U, 0, RHO)
    assert kernel.r_pu[i, 0] == 0.62


def test_expected_pu_reward_interference_monotone():
    kernel, _ = _kernel_at(CdPhase.U, 0, RHO)
    assert (kernel.r_pu[:, 1] <= kernel.r_pu[:, 0]).all()
    assert set(kernel.r_pu[:, 1].tolist()) == {0.31}


def test_transition_completion_resets():
    model = ChainDecodingModel(cfg_for())
    for cd in (("K_BIDIR", 0), ("U", 3)):
        o, t = update(2, PuFeedback.ACK, cfg_for())
        assert model.next_cd(cd, 1, 4, o) == ("U", 0)
        assert (o, t) == (1, 0)


def test_transition_buffers_pinned_packet():
    o, t = update(1, PuFeedback.NACK, cfg_for())
    assert ChainDecodingModel(cfg_for()).next_cd(("U", 1), 1, 5, o) == ("U", 2)
    assert t == 2


def test_transition_direct_decode_forward_known():
    model = ChainDecodingModel(cfg_for())
    assert model.next_cd(("U", 2), 0, 3, 0) == ("K_FWD", 0)


def test_transition_mutual_connection():
    model = ChainDecodingModel(cfg_for())
    assert model.next_cd(("U", 0), 1, 7, 0) == ("K_BIDIR", 0)


@pytest.mark.parametrize("seed", range(6))
def test_random_walk_keeps_state_invariants(seed):
    rng = np.random.default_rng(seed)
    cfg = cfg_for(r_max=4)
    model = ChainDecodingModel(cfg)
    rho = (0.5, 0.25)
    cd, t = model.initial_cd(), 0
    for _ in range(300):
        a_s = int(rng.random() < 0.5)
        success = rng.random() < rho[a_s]
        y_p = PuFeedback.ACK if success else PuFeedback.NACK
        y = int(rng.integers(1, 8))
        o, t = update(t, y_p, cfg)
        cd = model.next_cd(cd, a_s, y, o)
        phase, b_s = CdPhase(cd[0]), cd[1]
        kappa, iota = phase_flags(phase)
        assert (kappa, iota) != (0, 0)
        assert 0 <= b_s <= cfg.r_max - 1
        assert (phase is CdPhase.U) or b_s == 0
        assert 0 <= t < cfg.r_max


def test_translate_outcome_mapping():
    # both active: identity
    for y in range(1, 8):
        assert translate_outcome(1, y) == y
    # lone PU decode collapses to outcome 3, lone failure to 4
    assert [translate_outcome(0, y) for y in range(1, 8)] == [3, 4, 3, 4, 4, 3, 3]


def test_scheme_model_matches_transition_on_path():
    def by_phase(cd, a_s, y, o):
        """The phase update written per phase, apart from the flag algebra."""
        phase, b = cd
        pu_decoded = y in (1, 3, 6, 7)
        if o:
            return ("U", 0)
        if phase == "K_FWD" or (phase == "K_BIDIR" and not pu_decoded):
            return cd
        if pu_decoded:
            return ("K_BIDIR", 0) if (a_s and y == 7) else ("K_FWD", 0)
        return ("U", b + a_s * (y == 5))

    cfg = cfg_for()
    model = ChainDecodingModel(cfg)
    rng = np.random.default_rng(1)
    rho = (0.6, 0.3)
    cd, t = model.initial_cd(), 0
    for _ in range(400):
        a_s = int(rng.random() < 0.5)
        success = rng.random() < rho[a_s]
        y_p = PuFeedback.ACK if success else PuFeedback.NACK
        y = int(rng.integers(1, 8))
        o, t = update(t, y_p, cfg)
        want = by_phase(cd, a_s, y, o)
        cd = model.next_cd(cd, a_s, y, o)
        assert cd == want


@pytest.mark.parametrize("r_max", range(1, 6))
@pytest.mark.parametrize("scheme", [*SchemeKind, "genie"])
def test_step_table_holds_the_states_reachable_on_every_branch(scheme, r_max):
    # The table's search takes no probability.  With every region positive
    # and rho in (0, 1) every branch has positive probability, so the table
    # holds exactly the states the scalar search reaches, in the order of
    # the product of try counts and phases.  No clamp bounds the pinned
    # counter: it grows by at most one per try, so b <= t.
    cfg = cfg_for(r_max)
    model = GenieModel(cfg) if scheme == "genie" else scheme_model(scheme, cfg)
    assert all(p > 0.0 for p in PROBS.as_array()) and all(0.0 < r < 1.0 for r in RHO)
    states = step_table(model).states
    reached = scalar_reachable(model, PROBS, RHO)
    product = [MdpState(cd, t) for t in range(r_max) for cd in model.cd_states()]
    assert states == [s for s in product if s in reached]
    assert set(states) == reached
    assert all(s.cd[1] <= s.t for s in states)
