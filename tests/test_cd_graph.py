import numpy as np
import pytest

from cogarq.cd_graph import (
    CdGraph,
    closure,
    is_pu,
    potential,
    prune_unreachable,
    pu,
    reachable,
    root,
    slot_of,
    su,
)
from cogarq.cd_protocol import select_label

from _oracles import (
    RefGraph,
    forget,
    matrix_power_closure,
    on_new_cycle,
    record_slot,
    ref_closure,
    ref_root,
    ref_select_label,
    snapshot,
    stored_edges,
)


def chain_example_graph(cls=CdGraph):
    """The worked chain from the construction example.

    Edges 0_P -> 0_S, 1_S -> 0_P, 2_P -> 1_S, built over slots 0..2; the
    graph sits at the start of slot 3.
    """
    g = cls()
    g.add_edge(pu(0), su(0))
    g.add_edge(su(1), pu(0))
    g.add_edge(pu(2), su(1))
    g.slot = 3
    return g


def test_closure_isolated_seed():
    g = CdGraph(slot=4)
    assert closure(g, [su(2)]) == {su(2)}
    assert closure(g, [pu(2)]) == {pu(2)}


def test_closure_chain_example():
    g = chain_example_graph()
    assert closure(g, [pu(2)]) == {pu(2), su(1), pu(0), su(0)}


def test_closure_union_of_seeds():
    g = chain_example_graph()
    g.add_edge(pu(1), su(2))
    joint = closure(g, [pu(2), pu(1)])
    a = closure(g, [pu(2)])
    b = closure(g, [pu(1)])
    assert joint == a | b


def test_closure_rejects_foreign_seed():
    g = CdGraph(slot=2)
    with pytest.raises(ValueError):
        closure(g, [su(5)])  # label newer than the graph
    g.decoded_su.add(1)
    with pytest.raises(ValueError):
        closure(g, [su(1)])  # already decoded


def test_potential_of_fresh_node_is_one():
    g = CdGraph(slot=6)
    assert potential(g, su(6)) == 1


def test_potential_pu_leaf_is_zero():
    g = CdGraph()
    g.add_edge(su(0), pu(0))
    g.slot = 1
    assert potential(g, pu(0)) == 0


def _two_root_example(n_chain=2):
    """Reproduce the running protocol example around its slots 3..5.

    0_S reaches a set of `n_chain` SU packets through PU relays; then
    0_S <-> 3_P (slot 3), 4_S -> 3_P (slot 4), 3_P -> 5_S (slot 5).
    """
    g = CdGraph()
    # 0_S => S, |S| = n_chain, via alternating PU relays from earlier cycles
    prev = su(0)
    for i in range(n_chain):
        relay = pu(10 + i)
        leaf = su(20 + i)
        g.add_edge(prev, relay)
        g.add_edge(relay, leaf)
        prev = leaf
    g.add_edge(su(0), pu(3))
    g.add_edge(pu(3), su(0))
    g.add_edge(su(4), pu(3))
    g.add_edge(pu(3), su(5))
    g.slot = 30  # past every synthetic label above
    return g, n_chain


def test_potentials_after_root_handover():
    g, s = _two_root_example()
    assert potential(g, su(4)) == s + 3
    assert potential(g, su(0)) == s + 2


def test_root_of_fresh_graph_is_current_slot():
    g = CdGraph(slot=9)
    assert root(g) == (su(9), 1)


def test_root_handover_to_newer_packet():
    g, s = _two_root_example()
    lab, v = root(g)
    assert lab == su(4) and v == s + 3


def test_root_tie_breaks_toward_larger_label():
    g = CdGraph()
    # two disjoint chains of equal potential 2
    g.add_edge(su(0), pu(0))
    g.add_edge(pu(0), su(1))
    g.add_edge(su(4), pu(4))
    g.add_edge(pu(4), su(5))
    g.slot = 6
    assert root(g)[0] == su(4)


def test_reachable_examples():
    g = chain_example_graph()
    assert reachable(g, su(1), su(1))
    assert reachable(g, pu(2), su(0))
    assert not reachable(g, su(0), pu(2))
    g2 = CdGraph(slot=3)
    assert not reachable(g2, su(0), pu(1))
    with pytest.raises(ValueError):
        reachable(g2, su(0), su(9))


def test_record_slot_idle_adds_fresh_only():
    g = RefGraph()
    r = record_slot(g, None, None, 0, None)
    assert r == 0 and g.slot == 1
    assert not g.su_nodes and not g.pu_nodes
    with pytest.raises(ValueError):
        record_slot(g, None, None, 0, 3)


def test_record_slot_retransmission_releases_chain():
    # both transmit slots 0 and 1 buffer the two dependency edges, then the
    # SU retransmits 1_S alone and succeeds, releasing 1_S, 0_P, 0_S
    g = RefGraph()
    assert record_slot(g, su(0), pu(0), 0, 5) == 0
    assert record_slot(g, su(1), pu(0), 0, 6) == 0
    r = record_slot(g, su(1), None, 0, 2)
    assert r == 2
    assert g.decoded_su == {0, 1} and g.decoded_pu == {0}
    assert not g.su_nodes and not g.pu_nodes


def test_record_slot_pu_retransmission_triggers_chain():
    g = RefGraph()
    record_slot(g, su(0), pu(0), 0, 5)   # 0_P -> 0_S
    record_slot(g, su(1), pu(0), 0, 6)   # 1_S -> 0_P
    record_slot(g, su(1), pu(2), 0, 5)   # 2_P -> 1_S
    r = record_slot(g, None, pu(2), 0, 3)
    assert r == 2
    assert g.decoded_pu == {0, 2} and g.decoded_su == {0, 1}


def test_record_slot_mutual_blockage_buffers_nothing():
    g = RefGraph()
    r = record_slot(g, su(0), pu(0), 0, 4)
    assert r == 0
    assert not g.su_nodes and g.edge_count() == 0


def test_record_slot_joint_decode_seeds_both():
    g = RefGraph()
    record_slot(g, su(0), pu(0), 0, 5)       # buffer 0_P -> 0_S
    r = record_slot(g, su(1), pu(0), 0, 1)   # joint decode of 1_S and 0_P
    assert r == 2  # 1_S directly plus 0_S through the released 0_P
    assert g.decoded_su == {0, 1} and g.decoded_pu == {0}


def test_record_slot_known_pu_behaves_as_clean():
    g = RefGraph()
    record_slot(g, None, pu(0), 0, 3)        # PU packet decoded directly
    assert g.decoded_pu == {0}
    # same packet retransmitted: outcome 5 would be undecodable under
    # interference, but the known packet is cancelled first
    r = record_slot(g, su(1), pu(0), 1, 5)
    assert r == 1 and 1 in g.decoded_su


def test_record_slot_known_flag_must_match_graph():
    g = RefGraph()
    with pytest.raises(ValueError):
        record_slot(g, None, pu(0), 1, 3)


def test_prune_trims_disconnected_packets():
    # end of the second protocol-example slot: root 0_S holds its chain,
    # while 1_P -> 2_S hangs off the completed PU packet
    g = CdGraph()
    g.add_edge(su(0), pu(10))
    g.add_edge(pu(10), su(20))
    g.add_edge(pu(1), su(0))
    g.add_edge(pu(1), su(2))
    g.slot = 3
    dropped = prune_unreachable(g, su(0))
    assert dropped == 1  # 2_S
    assert pu(1) not in g.pu_nodes and su(2) not in g.su_nodes
    assert su(0) in g.su_nodes and pu(10) in g.pu_nodes and su(20) in g.su_nodes
    assert g.discarded_su == 1
    assert g.edge_count() == _checked_masks(g) == 2


def test_prune_keeps_fully_reachable_graph():
    g = chain_example_graph()
    before = (set(g.su_nodes), set(g.pu_nodes), g.edge_count())
    prune_unreachable(g, su(1))
    # 1_S reaches 0_P and 0_S; 2_P is unreachable and goes
    assert pu(2) not in g.pu_nodes
    g2 = CdGraph()
    g2.add_edge(su(0), pu(0))
    g2.add_edge(pu(0), su(1))
    g2.slot = 2
    prune_unreachable(g2, su(0))
    assert (set(g2.su_nodes), g2.edge_count()) == ({su(0), su(1)}, 2)
    assert before[2] == 3  # untouched snapshot sanity


def test_prune_edgeless_graph_keeps_only_fresh():
    g = CdGraph()
    g.add_edge(su(0), pu(0))
    g.slot = 2
    assert g.decode({pu(0)}) == 0  # leave 0_S stored but edgeless
    assert su(0) in g.su_nodes and g.edge_count() == _checked_masks(g) == 0
    prune_unreachable(g, su(2))
    assert not g.su_nodes


def test_bipartite_enforced():
    g = CdGraph(slot=3)
    with pytest.raises(ValueError):
        g.add_edge(su(0), su(1))
    with pytest.raises(ValueError):
        g.add_edge(pu(0), pu(1))


def test_decoded_packet_cannot_reenter():
    g = RefGraph()
    record_slot(g, su(0), None, 0, 2)
    assert g.decoded_su == {0}
    with pytest.raises(ValueError):
        record_slot(g, su(0), None, 0, 2)
    g = CdGraph(slot=1)
    assert g.decode({su(0)}) == 1 and g.decoded_su == {0}
    with pytest.raises(ValueError):
        g.add_edge(su(0), pu(1))


def _checked_masks(g):
    """The stored edges, counted from the out-edge masks, once each mask is
    checked to name stored nodes only and each reach mask to be the
    node's closure by matrix powers over the stored edges."""
    nodes = sorted(g.index)
    at = {lab: i for i, lab in enumerate(nodes)}
    edges = [(at[a], at[b]) for a, b in stored_edges(g)]
    used = sum(1 << b for b in g.index.values())
    for lab, b in g.index.items():
        assert g.out[b] & ~used == 0 and g.reach[b] & ~used == 0
        reach = {x for x, d in g.index.items() if g.reach[b] >> d & 1}
        assert reach == {nodes[i] for i in matrix_power_closure(len(nodes), edges, [at[lab]])}
    return len(edges)


def _random_graph(rng, n_su, n_pu, p_edge):
    g = CdGraph()
    edges = []
    for i in range(n_su):
        for j in range(n_pu):
            if rng.random() < p_edge:
                g.add_edge(su(i), pu(j))
                edges.append((i, n_su + j))
            if rng.random() < p_edge:
                g.add_edge(pu(j), su(i))
                edges.append((n_su + j, i))
    g.slot = max(n_su, n_pu) + 1
    return g, edges


@pytest.mark.parametrize("seed", range(30))
def test_closure_matches_matrix_power_oracle(seed):
    rng = np.random.default_rng(seed)
    n_su, n_pu = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    g, edges = _random_graph(rng, n_su, n_pu, float(rng.uniform(0.05, 0.5)))
    stored = list(g.su_nodes) + list(g.pu_nodes)
    if not stored:
        return
    assert g.edge_count() == _checked_masks(g) == len(edges)
    seed_node = stored[int(rng.integers(len(stored)))]
    seed_idx = n_su + slot_of(seed_node) if is_pu(seed_node) else slot_of(seed_node)
    got = {n_su + slot_of(x) if is_pu(x) else slot_of(x) for x in closure(g, [seed_node])}
    want = matrix_power_closure(n_su + n_pu, edges, [seed_idx])
    assert got == want


@pytest.mark.parametrize("seed", range(10))
def test_adding_edges_never_decreases_potential(seed):
    rng = np.random.default_rng(100 + seed)
    g, _ = _random_graph(rng, 5, 5, 0.2)
    nodes = list(g.su_nodes)
    if not nodes:
        return
    before = {n: potential(g, n) for n in nodes}
    # add one more edge between stored nodes of opposite sides
    srcs = list(g.su_nodes)
    dsts = list(g.pu_nodes)
    if not dsts:
        return
    g.add_edge(srcs[0], dsts[-1])
    assert g.edge_count() == _checked_masks(g)
    g.add_edge(srcs[0], dsts[-1])  # a repeated edge is stored once
    assert g.edge_count() == _checked_masks(g)
    for n, v in before.items():
        assert potential(g, n) >= v


def test_snapshot_reflects_structure():
    g = chain_example_graph(RefGraph)
    snap = snapshot(g)
    assert snap["slot"] == 3
    assert snap["su_nodes"] == [0, 1] and snap["pu_nodes"] == [0, 2]
    assert ("0_P", "0_S") in snap["edges"] and len(snap["edges"]) == 3


@pytest.mark.parametrize("seed", range(8))
def test_prune_leaves_only_root_reachable_nodes(seed):
    rng = np.random.default_rng(200 + seed)
    g, _ = _random_graph(rng, 6, 6, 0.25)
    keep = root(g)[0]
    if keep not in g.su_nodes:  # fresh root wipes everything, covered elsewhere
        return
    prune_unreachable(g, keep)
    assert g.edge_count() == _checked_masks(g)
    kept = closure(g, [keep])
    for node in list(g.su_nodes) + list(g.pu_nodes):
        assert node in kept


@pytest.mark.parametrize("seed", range(8))
def test_a_decode_keeps_every_other_reach_mask_exact(seed):
    # A decode drops a closure from the graph, and each node left keeps
    # exactly what it still reaches: its reach mask loses the dropped bits.
    rng = np.random.default_rng(500 + seed)
    g, _ = _random_graph(rng, 6, 6, 0.25)
    while g.index:
        seed_node = sorted(g.index)[int(rng.integers(len(g.index)))]
        released = closure(g, [seed_node])
        left = (g.su_nodes | g.pu_nodes) - released
        assert g.decode(released) == sum(not is_pu(x) for x in released)
        assert g.su_nodes | g.pu_nodes == left
        assert g.edge_count() == _checked_masks(g)


def test_record_slot_count_equals_decoded_flag_increase():
    rng = np.random.default_rng(5)
    g = RefGraph()
    for n in range(60):
        y = int(rng.integers(1, 8))
        a_s = int(rng.random() < 0.7)
        a_p = int(rng.random() < 0.7)
        l_s = su(n) if a_s else None
        l_p = pu(n - int(rng.integers(0, 3))) if a_p else None
        if l_p is not None and (slot_of(l_p) < 0 or slot_of(l_p) in g.decoded_pu):
            l_p = pu(n)
        known = 0
        before = len(g.decoded_su)
        outcome = None if (l_s is None and l_p is None) else y
        r = record_slot(g, l_s, l_p, known, outcome)
        assert r == len(g.decoded_su) - before
        assert g.edge_count() == len(stored_edges(g)) == sum(map(len, g.in_edges.values()))


def test_forget_keeps_stored_nodes_older_than_the_horizon():
    g = RefGraph()
    record_slot(g, su(0), pu(0), 0, 5)  # 0_P -> 0_S
    record_slot(g, su(1), None, 0, 2)   # 1_S decoded at once
    record_slot(g, None, pu(2), 0, 3)   # 2_P decoded at once
    assert g.decoded_su == {1} and g.decoded_pu == {2}
    forget(g)
    assert g.horizon == 3 and not g.decoded_su and not g.decoded_pu
    assert g.contains(su(0)) and g.contains(pu(0)) and not g.is_decoded(pu(0))
    assert ref_closure(g, [pu(0)]) == {pu(0), su(0)} and ref_root(g) == (su(3), 1)
    # the stored PU packet is sent again and decoded, which releases 0_S
    assert record_slot(g, None, pu(0), 0, 3) == 1
    assert not g.contains(su(0)) and not g.contains(pu(0))
    assert not g.su_nodes and not g.pu_nodes


def test_a_forgotten_label_is_no_node_and_every_query_naming_it_raises():
    # 0_S decoded in slot 0, 1_S never sent, then the graph forgets both at
    # slot 2: in the oracle by its steps, in the package as `run_slot` does
    # at a cycle start.
    ref = RefGraph()
    record_slot(ref, su(0), None, 0, 2)
    record_slot(ref, None, None, 0, None)
    forget(ref)
    g = CdGraph(slot=2)
    g.horizon = 2
    for label in (su(0), su(1), pu(0), pu(1)):
        assert not g.contains(label) and not ref.contains(label)
        for query in (lambda: closure(g, [label]), lambda: potential(g, label),
                      lambda: reachable(g, su(2), label), lambda: reachable(g, label, su(2)),
                      lambda: ref_closure(ref, [label]), lambda: ref.is_decoded(label)):
            with pytest.raises(ValueError):
                query()
    with pytest.raises(ValueError):
        record_slot(ref, su(1), None, 0, 2)
    with pytest.raises(ValueError):
        record_slot(ref, su(2), pu(1), 0, 4)
    for graph in (g, ref):
        with pytest.raises(ValueError):
            graph.add_edge(pu(0), su(2))
    with pytest.raises(ValueError):
        select_label(g, pu(1), 0, 2)
    with pytest.raises(ValueError):
        ref_select_label(ref, pu(1), 0, 2)


@pytest.mark.parametrize("seed", range(6))
def test_a_forgetting_graph_answers_as_one_that_remembers(seed):
    # Both graphs follow the chain-decoding protocol over the same slots: a
    # backlogged PU sends a new packet every one to three slots, and the SU
    # sends the label `select_label` picks.  One graph forgets the decoded
    # slots before each cycle start, the other keeps them all.
    rng = np.random.default_rng(300 + seed)
    keep, forgetful = RefGraph(), RefGraph()
    left = 0
    for n in range(400):
        if left == 0:
            n0, left = n, int(rng.integers(1, 4))
            on_new_cycle(keep)
            on_new_cycle(forgetful)
            forget(forgetful)
        left -= 1
        known = keep.is_decoded(pu(n0))
        assert forgetful.is_decoded(pu(n0)) == known
        labels = [ref_select_label(g, pu(n0), known, n) for g in (keep, forgetful)]
        assert labels[0] == labels[1]
        assert ref_root(keep) == ref_root(forgetful)
        for label in range(2 * forgetful.horizon, 2 * n + 2):
            assert keep.contains(label) == forgetful.contains(label)
        l_s = labels[0] if rng.random() < 0.7 else None
        y = int(rng.integers(1, 8))
        assert record_slot(keep, l_s, pu(n0), known, y) == record_slot(
            forgetful, l_s, pu(n0), known, y)
        assert snapshot(keep) == snapshot(forgetful)
        for full, kept in ((keep.decoded_su, forgetful.decoded_su),
                           (keep.decoded_pu, forgetful.decoded_pu)):
            assert {s for s in full if s >= forgetful.horizon} <= kept <= full
    assert keep.max_decoded > forgetful.max_decoded
