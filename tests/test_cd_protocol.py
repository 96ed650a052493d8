import numpy as np
import pytest

from cogarq.cd_graph import CdGraph, is_pu, potential, pu, record_slot, root, slot_of, su
from cogarq.cd_protocol import FRESH, ROOT_RETX, LabelDecision, on_new_cycle, select_label

from _oracles import matrix_power_closure


def test_decision_kind_validation():
    with pytest.raises(ValueError):
        LabelDecision(su(0), "RETRY")


def test_unknown_disconnected_pu_retransmits_root():
    g = CdGraph()
    g.add_edge(su(0), pu(0))
    g.add_edge(pu(0), su(1))  # 0_S keeps potential 2 through the old relay
    g.slot = 3
    d = select_label(g, pu(3), 0, 3)
    assert d.kind == ROOT_RETX and d.label == su(0)


def test_connected_pu_switches_to_fresh():
    g = CdGraph()
    g.add_edge(su(0), pu(0))
    g.add_edge(pu(0), su(1))
    g.add_edge(pu(3), su(0))  # the open PU packet inherits the root's chain
    g.slot = 4
    d = select_label(g, pu(3), 0, 4)
    assert d.kind == FRESH and d.label == su(4)


def test_connected_other_direction_also_fresh():
    g = CdGraph()
    g.add_edge(su(0), pu(0))
    g.add_edge(pu(0), su(1))
    g.add_edge(su(0), pu(3))  # root reaches the open PU packet
    g.slot = 4
    assert select_label(g, pu(3), 0, 4).kind == FRESH


def test_known_pu_retransmits_root():
    g = CdGraph()
    g.add_edge(su(0), pu(0))
    g.add_edge(pu(0), su(1))
    g.decoded_pu.add(3)
    g.slot = 4
    d = select_label(g, pu(3), 1, 4)
    assert d.kind == ROOT_RETX and d.label == su(0)


def test_fresh_root_collapses_to_new_packet():
    g = CdGraph(slot=5)
    d = select_label(g, pu(5), 0, 5)
    assert d.kind == FRESH and d.label == su(5)


def test_slot_mismatch_rejected():
    g = CdGraph(slot=2)
    with pytest.raises(ValueError):
        select_label(g, pu(2), 0, 3)


def test_new_cycle_trims_off_chain_packets():
    g = CdGraph()
    g.add_edge(su(0), pu(10))
    g.add_edge(pu(10), su(20))
    g.add_edge(pu(1), su(0))   # completed PU packet pointing at the root
    g.add_edge(pu(1), su(2))   # and at a stranded fresh packet
    g.slot = 25
    dropped = on_new_cycle(g)
    assert dropped == 1
    assert su(2) not in g.su_nodes and pu(1) not in g.pu_nodes
    assert potential(g, su(0)) == 2


def test_new_cycle_respects_root_handover():
    # after the handover the newer packet holds the largest chain and the
    # trim keeps everything it reaches
    g = CdGraph()
    g.add_edge(su(0), pu(1))
    g.add_edge(pu(1), su(0))
    g.add_edge(su(4), pu(1))
    g.add_edge(pu(1), su(5))
    g.slot = 6
    assert root(g)[0] == su(4)
    dropped = on_new_cycle(g)
    assert dropped == 0
    assert {su(0), su(4), su(5)} <= g.su_nodes


def test_new_cycle_on_fresh_graph_is_noop():
    g = CdGraph(slot=7)
    assert on_new_cycle(g) == 0
    assert not g.su_nodes and not g.pu_nodes


def _check_root_against_oracle(g) -> set:
    """`root` and `potential` of every stored SU node and of the fresh
    packet, against boolean matrix powers over the stored edges.  Returns
    the labels the root releases."""
    nodes = sorted(g.su_nodes | g.pu_nodes | {su(g.slot)})
    index = {lab: i for i, lab in enumerate(nodes)}
    edges = [(index[a], index[b]) for a, dsts in g.out_edges.items() for b in dsts]
    release = {}
    for lab in nodes:
        if not is_pu(lab):
            reach = matrix_power_closure(len(nodes), edges, [index[lab]])
            release[lab] = {nodes[i] for i in reach}
            assert potential(g, lab) == sum(not is_pu(x) for x in release[lab])
    want = {lab: sum(not is_pu(x) for x in rel) for lab, rel in release.items()}
    best = max(want, key=lambda lab: (want[lab], slot_of(lab)))
    assert root(g) == (best, want[best])
    return release[best]


@pytest.mark.parametrize("seed", range(10))
def test_protocol_only_emits_root_or_fresh(seed):
    rng = np.random.default_rng(seed)
    g = CdGraph()
    for i in range(10):
        if rng.random() < 0.5:
            g.add_edge(su(int(rng.integers(0, 8))), pu(int(rng.integers(0, 8))))
        else:
            g.add_edge(pu(int(rng.integers(0, 8))), su(int(rng.integers(0, 8))))
    g.slot = 9
    l_p = pu(int(rng.integers(0, 10)))
    known = 1 if slot_of(l_p) in g.decoded_pu else 0
    d = select_label(g, l_p, known, 9)
    assert d.label in (root(g)[0], su(9))
    assert (d.kind == FRESH) == (d.label == su(9))

    # Then drive the graph slot by slot as the receiver does: a trim when a
    # PU cycle starts, a label choice when the SU sends, and the slot's
    # outcome.  Most slots find an empty graph, which the graph answers
    # without a traversal; the oracle checks both kinds of slot, and that a
    # trim keeps exactly the stored nodes the root releases.
    empty = stored = 0
    for n in range(9, 209):
        if rng.random() < 0.3:
            before = g.su_nodes | g.pu_nodes
            released = _check_root_against_oracle(g)
            on_new_cycle(g)
            assert g.su_nodes | g.pu_nodes == before & released
        _check_root_against_oracle(g)
        if g.su_nodes or g.pu_nodes:
            stored += 1
        else:
            empty += 1
        pu_slot = n - int(rng.integers(0, 3))
        known = pu_slot in g.decoded_pu
        l_s = None
        if rng.random() < 0.7:
            d = select_label(g, pu(pu_slot), known, n)
            assert d.label in (root(g)[0], su(n))
            assert (d.kind == FRESH) == (d.label == su(n))
            l_s = d.label
        l_p = pu(pu_slot) if rng.random() < 0.8 else None
        y = int(rng.integers(1, 8))
        if l_s is None and l_p is None:
            record_slot(g, None, None, 0, None)
        else:
            record_slot(g, l_s, l_p, known if l_p is not None else 0, y)
    assert empty > 0 and stored > 0
