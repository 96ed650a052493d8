import numpy as np
import pytest

from cogarq.channel import RatePair
from cogarq.pu_system import PuConfig
from cogarq.pu_tracker import PuFeedback, update

from _oracles import LinkGains, PuState, step

R11 = RatePair(1.0, 1.0)


@pytest.mark.parametrize(
    "y,a_exp,t1,d1",
    [
        (PuFeedback.IDLE, 0, 0, 0),
        (PuFeedback.NACK, 1, 1, 1),
        (PuFeedback.ACK, 1, 0, 0),
    ],
)
def test_first_slot_inference(y, a_exp, t1, d1):
    cfg = PuConfig(4, 5)
    o, t, d = update(0, 0, y, cfg)
    assert int(y != PuFeedback.IDLE) == a_exp
    assert (t, d) == (t1, d1)
    assert o == int(y == PuFeedback.ACK)


def test_prospective_label_is_slot_minus_delay():
    # a NACK in slot 3 opens a session; while it stays open the delay grows
    # with the slot index, so the label n - d stays at the first slot 3
    cfg = PuConfig(4, 5)
    _, t, d = update(0, 0, PuFeedback.NACK, cfg)
    assert (t, d) == (1, 1)
    assert 4 - d == 3
    _, t, d = update(t, d, PuFeedback.IDLE, cfg)
    assert (t, d) == (1, 2)
    assert 5 - d == 3


@pytest.mark.parametrize("seed", range(12))
def test_tracker_matches_ground_truth(seed):
    rng = np.random.default_rng(seed)
    r_max = int(rng.integers(1, 5))
    d_max = int(rng.integers(max(2, r_max), 8))
    q_max = int(rng.integers(1, 4))
    pmf = rng.dirichlet(np.ones(q_max + 1))
    cfg = PuConfig(r_max, d_max)

    state = PuState()
    t_hat = d_hat = 0
    for n in range(400):
        b_p = int(rng.choice(q_max + 1, p=pmf))
        g = LinkGains(0, 0, float(rng.exponential(2.0)), 0.0)
        res = step(state, b_p, 0, g, R11, rng, cfg, q_max, lambda t, d, q: 0.6)
        # inference is exact in every slot
        assert (t_hat, d_hat) == (state.t, state.d)
        assert int(res.y != PuFeedback.IDLE) == res.a_p
        if res.a_p:
            assert (n - d_hat == n) == (res.label_event == "new")
        o_hat, t_hat, d_hat = update(t_hat, d_hat, res.y, cfg)
        assert o_hat == res.o
        state = res.next_state
    assert (t_hat, d_hat) == (state.t, state.d)
