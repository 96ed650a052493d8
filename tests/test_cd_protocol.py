import copy
import itertools
from collections import Counter

import numpy as np
import pytest

from cogarq.cd_graph import CdGraph, is_pu, potential, pu, root, slot_of, su
from cogarq.cd_protocol import FRESH, ROOT_RETX, LabelDecision, run_slot, select_label

from _oracles import composed_slot, matrix_power_closure, on_new_cycle, record_slot


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


# -- run_slot against the composed steps -------------------------------------------


def _state(g):
    """Everything a slot may change in a graph, counters included."""
    return (g.slot, g.horizon, set(g.su_nodes), set(g.pu_nodes),
            {k: set(v) for k, v in g.out_edges.items()},
            {k: set(v) for k, v in g.in_edges.items()},
            set(g.decoded_su), set(g.decoded_pu), g.edge_count(),
            g.discarded_su, g.max_nodes, g.max_edges, g.max_decoded,
            g.cycle_trims, g.empty_cycle_trims)


def _isolated_start():
    """Slot 3 of a cycle that started in slot 2: 2_P and 0_S stay stored
    with no edge left, as their neighbours 1_S and 1_P were decoded."""
    g = CdGraph()
    g.add_edge(pu(2), su(1))
    g.add_edge(su(0), pu(1))
    for lab in (su(1), pu(1)):
        g._remove_node(lab)
    g.decoded_su.add(1)
    g.decoded_pu.add(1)
    g.slot = 3
    return g, 2


def test_run_slot_matches_the_composed_steps_slot_by_slot():
    # Random slot sequences as the receiver meets them: a PU packet is sent
    # from its cycle start for one to four slots, so later slots of a cycle
    # may find it known; the PU idles in slot 0 and now and then later.
    # Half the runs start from a graph whose open PU packet is an isolated
    # stored node.
    seen = Counter()
    for seed in range(40):
        rng = np.random.default_rng(400 + seed)
        if seed % 2:
            start, n0 = _isolated_start()
            left = int(rng.integers(1, 4))
        else:
            start, n0, left = CdGraph(), 0, 0
        fused, steps = copy.deepcopy(start), copy.deepcopy(start)
        for n in range(start.slot, start.slot + 200):
            new_cycle = left == 0
            if new_cycle:
                n0, left = n, int(rng.integers(1, 5))
            left -= 1
            a_p = int(n > 0 and rng.random() < 0.9)
            a_s = int(rng.random() < 0.7)
            y = int(rng.integers(1, 8)) if a_s or a_p else None
            known = n0 in fused.decoded_pu
            edge_free = not fused.out_edges
            isolated_pu = edge_free and pu(n0) in fused.pu_nodes
            seen["idle PU"] += not a_p
            seen["known PU"] += bool(a_p and known)
            seen[f"region {y} under an unknown PU"] += bool(a_s and a_p and not known)
            seen["stored edges"] += not edge_free
            seen["stored nodes, no edge"] += edge_free and bool(fused.su_nodes or fused.pu_nodes)
            got = run_slot(fused, n, new_cycle, n0, a_s, a_p, y)
            assert got == composed_slot(steps, n, new_cycle, n0, a_s, a_p, y), (seed, n)
            assert _state(fused) == _state(steps), (seed, n)
            seen["isolated PU packet decoded"] += isolated_pu and n0 in fused.decoded_pu
        seen["SU packets trimmed"] += fused.discarded_su
    for kind in ("idle PU", "known PU", "stored edges", "stored nodes, no edge",
                 "isolated PU packet decoded", "SU packets trimmed",
                 *(f"region {y} under an unknown PU" for y in range(1, 8))):
        assert seen[kind] > 0, kind


def _graph_with_history():
    """A graph the composed steps grew slot by slot, at the first slot where
    it stores edges and a node below its horizon."""
    for seed in itertools.count():
        rng = np.random.default_rng(seed)
        g, left = CdGraph(), 0
        for n in range(200):
            new_cycle = left == 0
            if new_cycle:
                n0, left = n, int(rng.integers(1, 5))
            left -= 1
            a_s, a_p = int(rng.random() < 0.7), int(n > 0)
            composed_slot(g, n, new_cycle, n0, a_s, a_p,
                          int(rng.integers(1, 8)) if a_s or a_p else None)
            if g.out_edges and any(slot_of(x) < g.horizon for x in g.su_nodes | g.pu_nodes):
                return g


def _with_fresh_decoded(g):
    """A corrupted graph whose fresh SU label is already decoded, so it is
    no node: the one way the SU can be handed a label that is none."""
    g.decoded_su.add(g.slot)
    return g


def _outcome(step, g, args):
    try:
        return step(g, *args)
    except ValueError:
        return ValueError


def test_run_slot_raises_exactly_where_the_composed_steps_raise():
    # Every input over a few graphs, valid and not: a right or wrong n, a
    # cycle start or not, the PU packet stored, forgotten below the horizon,
    # decoded or not above it, or after the current slot, both access
    # decisions, and outcomes None, out of range and in 1..7.  Both steps
    # must raise together and, where neither raises, agree.  The one
    # difference: `run_slot` checks n also on a slot the SU stays silent,
    # where the composed steps name n nowhere.
    edged = _graph_with_history()
    edged_fresh_root = CdGraph()
    edged_fresh_root.add_edge(su(0), pu(0))  # 0_S has potential 1: the root is fresh
    edged_fresh_root.slot = 2
    graphs = [CdGraph(), _isolated_start()[0], edged, edged_fresh_root,
              _with_fresh_decoded(CdGraph(slot=4)), _with_fresh_decoded(copy.deepcopy(edged)),
              _with_fresh_decoded(copy.deepcopy(edged_fresh_root))]
    for g in graphs:
        # every PU slot from just below the horizon on, the stored ones and -1
        pu_slots = {-1, *range(max(g.horizon - 2, 0), g.slot + 2),
                    *(slot_of(x) for x in g.pu_nodes)}
        for n, new_cycle, pu_slot, a_s, a_p, y in itertools.product(
                (g.slot - 1, g.slot, g.slot + 1), (False, True), sorted(pu_slots),
                (0, 1), (0, 1), (None, 0, 1, 2, 3, 4, 5, 6, 7, 8)):
            args = (n, new_cycle, pu_slot, a_s, a_p, y)
            fused, steps = copy.deepcopy(g), copy.deepcopy(g)
            got = _outcome(run_slot, fused, args)
            if n != g.slot and not a_s:
                assert got is ValueError, args
                continue
            assert got == _outcome(composed_slot, steps, args), args
            if got is not ValueError:
                assert _state(fused) == _state(steps), args


@pytest.mark.parametrize("check, build, args", [
    ("n is the graph's slot", CdGraph, lambda g: (1, True, 0, 1, 0, 2)),
    ("an outcome in 1..7 on a slot with a transmission", CdGraph,
     lambda g: (0, True, 0, 1, 0, 0)),
    ("an outcome in 1..7 on a slot with a transmission", lambda: CdGraph(slot=2),
     lambda g: (2, False, 1, 0, 1, 8)),
    ("an outcome in 1..7 on a slot with a transmission", lambda: CdGraph(slot=2),
     lambda g: (2, False, 1, 1, 1, None)),
    ("no outcome on a silent slot", CdGraph, lambda g: (0, True, 0, 0, 0, 3)),
    ("the SU label is a node", lambda: _with_fresh_decoded(CdGraph(slot=4)),
     lambda g: (4, False, 3, 1, 1, 2)),
    ("the PU label is not after the slot", lambda: CdGraph(slot=2),
     lambda g: (2, False, 3, 0, 1, 3)),
    ("the PU label is not after the slot", lambda: CdGraph(slot=2),
     lambda g: (2, False, 3, 1, 0, 2)),
    # `run_slot` reads whether the PU packet is known from the graph, so it
    # can disagree with `is_decoded` only where that raises: below the horizon.
    ("a PU label below the horizon that is not stored", _graph_with_history,
     lambda g: (g.slot, False, next(s for s in range(g.horizon) if pu(s) not in g.pu_nodes),
                1, 1, 3)),
])
def test_each_argument_check_raises_from_run_slot_as_from_the_composed_steps(check, build, args):
    g = build()
    args = args(g)
    for step in (run_slot, composed_slot):
        with pytest.raises(ValueError):
            step(copy.deepcopy(g), *args)
