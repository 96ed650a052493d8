import numpy as np
import pytest

from cogarq.channel import RatePair
from cogarq.pu_system import PuConfig
from cogarq.pu_tracker import PuFeedback, update

from _oracles import IDLE, LinkGains, PuState, QueueConfig, advance, step

R11 = RatePair(1.0, 1.0)


def cfg_for(r_max=5, d_max=5):
    """The oracle PU's deadlines."""
    return QueueConfig(r_max, d_max)


def test_completion_examples():
    cfg = PuConfig(5)
    assert update(2, PuFeedback.ACK, cfg) == (1, 0)
    assert update(4, PuFeedback.NACK, cfg) == (1, 0)  # ARQ deadline
    assert update(1, PuFeedback.NACK, cfg) == (0, 2)
    assert update(0, PuFeedback.NACK, PuConfig(1)) == (1, 0)  # one try only


def test_oracle_completion_delay_deadline_without_transmission():
    cfg = cfg_for(r_max=3, d_max=6)
    assert advance(PuState(2, 5, 1), 0, 0, False, cfg, 3) == (IDLE, 1, PuState(0, 0, 0))
    assert advance(PuState(2, 5, 1), 0, 1, False, cfg, 3) == (
        PuFeedback.NACK, 1, PuState(0, 0, 0))
    # below the deadline an idle slot keeps the session open and ages it
    assert advance(PuState(2, 4, 1), 0, 0, False, cfg, 3) == (IDLE, 0, PuState(2, 5, 1))


def test_config_validation():
    with pytest.raises(ValueError):
        PuConfig(0)
    with pytest.raises(ValueError):
        cfg_for(r_max=0)
    with pytest.raises(ValueError):
        cfg_for(r_max=3, d_max=2)
    with pytest.raises(ValueError):
        cfg_for(d_max=1, r_max=1)  # degenerate delay deadline


def test_backlogged_pu_always_transmits():
    assert PuConfig(5).transmit_prob() == 1.0


def test_step_idle_empty_queue_accumulates_arrivals():
    cfg = cfg_for()
    res = step(PuState(0, 0, 0), 2, 0, LinkGains(0, 0, 9, 0), R11,
               np.random.default_rng(0), cfg, 5)
    assert res.a_p == 0 and res.y == IDLE
    assert res.next_state == PuState(0, 0, 2)
    assert res.label_event is None


def test_step_first_attempt_success():
    cfg = cfg_for()
    g = LinkGains(0, 0, 9.0, 0.0)  # C(9) well above the rate
    res = step(PuState(0, 0, 3), 0, 0, g, R11, np.random.default_rng(0), cfg, 5)
    assert res.a_p == 1 and res.o == 1
    assert res.next_state == PuState(0, 0, 2)
    assert res.label_event == "new"


def test_step_first_attempt_failure():
    cfg = cfg_for()
    g = LinkGains(0, 0, 0.1, 0.0)
    res = step(PuState(0, 0, 3), 0, 0, g, R11, np.random.default_rng(0), cfg, 5)
    assert res.o == 0 and res.y == PuFeedback.NACK
    assert res.next_state == PuState(1, 1, 3)
    assert res.label_event == "new"


def test_step_retransmission_label_event():
    cfg = cfg_for()
    res = step(PuState(2, 2, 3), 0, 0, LinkGains(0, 0, 0.1, 0), R11,
               np.random.default_rng(0), cfg, 5)
    assert res.label_event == "retx"


def _random_trajectory(seed, n_slots=300, policy=None):
    rng = np.random.default_rng(seed)
    r_max = int(rng.integers(1, 5))
    d_max = int(rng.integers(max(2, r_max), 8))
    q_max = int(rng.integers(1, 4))
    pmf = rng.dirichlet(np.ones(q_max + 1))
    pol = policy or (lambda t, d, q: 0.7)
    cfg = cfg_for(r_max, d_max)
    state = PuState()
    out = []
    for n in range(n_slots):
        b_p = int(rng.choice(q_max + 1, p=pmf))
        g = LinkGains(0, 0, float(rng.exponential(2.0)), 0.0)
        res = step(state, b_p, 0, g, R11, rng, cfg, q_max, pol)
        out.append((state, res))
        state = res.next_state
    return cfg, q_max, out


@pytest.mark.parametrize("seed", range(8))
def test_trajectory_invariants(seed):
    cfg, q_max, traj = _random_trajectory(seed)
    for state, res in traj:
        state.validate(cfg, q_max)
        assert state.d >= state.t
        assert state.q <= q_max
        if state.d == cfg.d_max - 1 and state.q > 0:
            assert res.o == 1  # delay deadline drops regardless of outcome
        # t resets exactly on completion
        if res.o:
            assert res.next_state.t == 0
        elif state.t or res.a_p:
            assert res.next_state.t == state.t + res.a_p


def test_backlogged_always_transmit_keeps_d_equal_t():
    rng = np.random.default_rng(9)
    cfg = cfg_for(r_max=4, d_max=6)
    state = PuState(0, 0, 2)
    for n in range(500):
        g = LinkGains(0, 0, float(rng.exponential(2.0)), 0.0)
        res = step(state, 2, 0, g, R11, rng, cfg, 2)
        assert res.a_p == 1
        state = res.next_state
        assert state.d == state.t
        assert state.q == 2


def test_advance_rejects_transmission_from_empty_queue():
    cfg = cfg_for()
    with pytest.raises(ValueError):
        advance(PuState(0, 0, 0), 0, 1, True, cfg, 3)


def test_access_draw_consumed_even_for_degenerate_policies():
    # one uniform per slot regardless of the policy keeps the stream aligned
    # across runs that differ only in the access policy
    g = LinkGains(0, 0, 9.0, 0.0)
    tails = []
    for p in (0.0, 1.0):
        rng = np.random.default_rng(123)
        step(PuState(0, 0, 2), 0, 0, g, R11, rng, cfg_for(), 3, lambda t, d, q, p=p: p)
        tails.append(rng.random())
    assert tails[0] == tails[1]
