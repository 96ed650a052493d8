import numpy as np
import pytest

from cogarq.channel import RatePair
from cogarq.pu_system import PuConfig
from cogarq.pu_tracker import PuFeedback, update

from _oracles import LinkGains, PuState, QueueConfig, step

R11 = RatePair(1.0, 1.0)


@pytest.mark.parametrize("y,t1", [(PuFeedback.NACK, 1), (PuFeedback.ACK, 0)])
def test_first_slot_inference(y, t1):
    o, t = update(0, y, PuConfig(4))
    assert t == t1
    assert o == int(y == PuFeedback.ACK)


def test_prospective_label_is_slot_minus_try_count():
    # a NACK in slot 3 opens a session; while it stays open t grows with
    # the slot index, so the label n - t stays at the first slot 3
    cfg = PuConfig(4)
    _, t = update(0, PuFeedback.NACK, cfg)
    assert 4 - t == 3
    _, t = update(t, PuFeedback.NACK, cfg)
    assert 5 - t == 3


@pytest.mark.parametrize("seed", range(12))
def test_tracker_matches_ground_truth(seed):
    # The oracle PU with its own queue and delay deadline, driven as the
    # package models it: backlogged (a full queue, refilled every slot)
    # and always sending.  Its delay then equals its try count, and the
    # tracker's t matches both in every slot.
    rng = np.random.default_rng(seed)
    r_max = int(rng.integers(1, 5))
    d_max = int(rng.integers(max(2, r_max), 8))
    q_max = int(rng.integers(1, 4))
    cfg = PuConfig(r_max)

    state = PuState(0, 0, q_max)
    t_hat = 0
    for n in range(400):
        b_p = int(rng.integers(1, q_max + 1))
        g = LinkGains(0, 0, float(rng.exponential(2.0)), 0.0)
        res = step(state, b_p, 0, g, R11, rng, QueueConfig(r_max, d_max), q_max)
        assert res.a_p == 1 and res.y in (PuFeedback.ACK, PuFeedback.NACK)
        # inference is exact in every slot
        assert t_hat == state.t == state.d
        assert (n - t_hat == n) == (res.label_event == "new")
        o_hat, t_hat = update(t_hat, res.y, cfg)
        assert o_hat == res.o
        state = res.next_state
    assert t_hat == state.t
