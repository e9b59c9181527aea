"""Delegation semantics, composed-status algebra, and tree validation."""

import itertools

import numpy as np
import pytest

from conftest import SETPOINT, kitchen_bt, random_bt, thermostat_bt

from ctbt.core import (
    BehaviorTree,
    DimensionMismatch,
    Fallback,
    Leaf,
    LeafBehavior,
    NonFiniteState,
    NotComposite,
    Sequence,
    Status,
    UnknownNodeKind,
)
from ctbt.regions import check_partition, composed_status


def const_leaf(nid, u, status, label=""):
    return Leaf(nid, LeafBehavior(lambda x: (float(u),), lambda x: status, label))


def slab_leaf(nid, threshold, below, above, u=None, label=None):
    out = float(nid if u is None else u)
    return Leaf(nid, LeafBehavior(
        lambda x: (out,),
        lambda x: below if x[0] < threshold else above,
        label or f"slab{nid}"))


def test_thermostat_tick_table():
    bt = thermostat_bt()
    u, status = bt.tick([SETPOINT - 2.0])
    assert (u[0], status) == (1.0, Status.RUNNING)
    assert bt.active_leaf([SETPOINT - 2.0]) == 3
    u, status = bt.tick([SETPOINT + 1.0])
    assert (u[0], status) == (-1.0, Status.RUNNING)
    assert bt.active_leaf([SETPOINT + 1.0]) == 4
    # exactly at the setpoint the check fails, so the heater runs
    assert bt.active_leaf([SETPOINT]) == 3
    assert bt.root_status([SETPOINT]) is Status.RUNNING


def test_sequence_delegates_to_first_non_success():
    seq = Sequence(0, (
        const_leaf(1, 10, Status.SUCCESS),
        const_leaf(2, 20, Status.RUNNING),
        const_leaf(3, 30, Status.FAILURE),
    ))
    u, status = BehaviorTree(seq, 1).tick(np.zeros(1))
    assert (u[0], status) == (20.0, Status.RUNNING)


def test_sequence_all_success_returns_last_child():
    seq = Sequence(0, (
        const_leaf(1, 10, Status.SUCCESS),
        const_leaf(2, 20, Status.SUCCESS),
    ))
    u, status = BehaviorTree(seq, 1).tick(np.zeros(1))
    assert (u[0], status) == (20.0, Status.SUCCESS)


def test_fallback_delegates_to_first_non_failure():
    fal = Fallback(0, (
        const_leaf(1, 10, Status.FAILURE),
        const_leaf(2, 20, Status.FAILURE),
        const_leaf(3, 30, Status.RUNNING),
    ))
    u, status = BehaviorTree(fal, 1).tick(np.zeros(1))
    assert (u[0], status) == (30.0, Status.RUNNING)
    all_fail = Fallback(0, (
        const_leaf(1, 10, Status.FAILURE),
        const_leaf(2, 20, Status.FAILURE),
    ))
    u, status = BehaviorTree(all_fail, 1).tick(np.zeros(1))
    assert (u[0], status) == (20.0, Status.FAILURE)


def test_single_child_composites_are_transparent():
    for wrap in (Sequence, Fallback):
        leaf = slab_leaf(1, 0.0, Status.RUNNING, Status.SUCCESS)
        bt = BehaviorTree(wrap(0, (leaf,)), 1)
        for v in (-1.0, 1.0):
            u, status = bt.tick([v])
            assert u[0] == 1.0
            assert status is bt.status(1, [v])


def test_pairwise_reduction_identity():
    """A three-child composite equals its right-nested two-child reduction."""
    rng = np.random.default_rng(42)
    for comp in (Sequence, Fallback):
        for trial in range(20):
            thresholds = rng.uniform(-1, 1, size=3)
            statuses = [
                [Status.RUNNING, Status.SUCCESS, Status.FAILURE][k]
                for k in rng.integers(0, 3, size=6)
            ]
            def leaves(ids):
                return [
                    slab_leaf(ids[k], thresholds[k], statuses[2 * k],
                              statuses[2 * k + 1], u=100 + k, label=f"L{k}")
                    for k in range(3)
                ]
            a, b, c = leaves([1, 2, 3])
            flat = BehaviorTree(comp(0, (a, b, c)), 1)
            a2, b2, c2 = leaves([1, 3, 4])
            nested = BehaviorTree(comp(0, (a2, comp(2, (b2, c2)))), 1)
            for x in rng.uniform(-2, 2, size=(25, 1)):
                out_flat = flat.tick(x)
                out_nested = nested.tick(x)
                assert out_flat[1] is out_nested[1]
                assert out_flat[0] == out_nested[0]
                leaf_flat = flat.nodes[flat.active_leaf(x)].behavior.label
                leaf_nested = nested.nodes[nested.active_leaf(x)].behavior.label
                assert leaf_flat == leaf_nested


def test_composed_status_matches_delegation_on_random_trees():
    for seed, permute_ids in itertools.product(range(25), (False, True)):
        bt = random_bt(seed, permute_ids=permute_ids)
        pts = np.random.default_rng(1000 + seed).uniform(-3, 3, size=(200, 2))
        for x in pts:
            for i, kind in enumerate(bt.kinds):
                if kind != "leaf":
                    assert composed_status(bt, i, x) is bt.status(i, x)


def _counting_controllers(bt):
    """A copy of bt whose leaf controllers log their node id on each call."""
    calls = []

    def copy(node):
        if isinstance(node, Leaf):
            b = node.behavior

            def controller(x, fn=b.controller, nid=node.node_id):
                calls.append(nid)
                return fn(x)

            return Leaf(node.node_id, LeafBehavior(controller, b.metadata, b.label))
        return type(node)(node.node_id, tuple(copy(c) for c in node.children))

    return BehaviorTree(copy(bt.root), state_dim=bt.state_dim), calls


DELEGATION_CORPUS = [
    ("thermostat", thermostat_bt, [(SETPOINT - 5.0, SETPOINT + 5.0)]),
    ("kitchen", kitchen_bt, [(-2.0, 2.0)] * 2),
] + [(f"random{seed}", lambda seed=seed: random_bt(seed), [(-3.0, 3.0)] * 2)
     for seed in range(25)
] + [(f"random{seed}-permuted", lambda seed=seed: random_bt(seed, permute_ids=True),
      [(-3.0, 3.0)] * 2)
     for seed in range(25)]


@pytest.mark.parametrize("name,build,box", DELEGATION_CORPUS,
                         ids=[c[0] for c in DELEGATION_CORPUS])
def test_one_walk_gives_status_leaf_and_one_control(name, build, box):
    """resolve is one status-only walk; tick runs the active leaf's
    controller and no other."""
    bt, calls = _counting_controllers(build())
    lo, hi = np.array(box).T
    for x in np.random.default_rng(len(name)).uniform(lo, hi, size=(200, len(box))):
        status, leaf = bt.resolve(x)
        assert (status, leaf) == (bt.root_status(x), bt.active_leaf(x))
        assert calls == []
        u, tick_status = bt.tick(x)
        assert calls == [leaf]
        assert tick_status is status
        assert u == bt.behavior(leaf).controller(x)
        calls.clear()


def _leaves_left_to_right(node):
    if isinstance(node, Leaf):
        return [node.node_id]
    return [i for c in node.children for i in _leaves_left_to_right(c)]


def test_permuted_random_trees_number_leaves_out_of_order():
    """The permuted corpus really exercises leaf-table order != id order."""
    shuffled = 0
    for seed in range(25):
        bt = random_bt(seed, permute_ids=True)
        order = _leaves_left_to_right(bt.root)
        assert sorted(order) == list(bt.leaf_ids)
        shuffled += order != sorted(order)
    assert shuffled >= 10


def _delegate(node, x):
    """Reference delegation by recursion over the node objects."""
    if isinstance(node, Leaf):
        return node.behavior.metadata(x), node.node_id
    skip = Status.SUCCESS if isinstance(node, Sequence) else Status.FAILURE
    for child in node.children[:-1]:
        out = _delegate(child, x)
        if out[0] is not skip:
            return out
    return _delegate(node.children[-1], x)


@pytest.mark.parametrize("permute_ids", [False, True], ids=["dfs-ids", "permuted-ids"])
def test_leaf_table_walk_matches_recursive_delegation(permute_ids):
    """resolve and status(i, x) of every node agree with the recursive
    definition of delegation, on trees whose ids need not follow leaf order."""
    for seed in range(25):
        bt = random_bt(seed, max_depth=5, max_leaves=14, permute_ids=permute_ids)
        for x in np.random.default_rng(2000 + seed).uniform(-3, 3, size=(60, 2)):
            assert bt.resolve(x) == _delegate(bt.root, x)
            for node in bt.nodes:
                assert bt.status(node.node_id, x) is _delegate(node, x)[0]


def _post_order(node) -> list:
    """Reference composite post-order by recursion over the node objects."""
    if isinstance(node, Leaf):
        return []
    return [j for c in node.children for j in _post_order(c)] + [node.node_id]


def test_one_walk_lays_each_tree_out(monkeypatch):
    """Each node is classified once, and each node's slices of the leaf rows
    and of the composite post-order hold its subtree's leaves left to right
    and its composites in post-order."""
    from ctbt import core

    seen, kind = [], core._kind
    monkeypatch.setattr(core, "_kind", lambda node: seen.append(node) or kind(node))
    for seed in range(25):
        seen.clear()
        bt = random_bt(seed, max_depth=5, max_leaves=14, permute_ids=True)
        assert sorted(n.node_id for n in seen) == list(range(len(bt.nodes)))
        for node in bt.nodes:
            first, stop, cfirst, cstop = bt._spans[node.node_id]
            assert [row[3] for row in bt._rows[first:stop]] == _leaves_left_to_right(node)
            assert list(bt._composites[cfirst:cstop]) == _post_order(node)


def test_composed_status_rejects_leaves():
    bt = thermostat_bt()
    with pytest.raises(NotComposite):
        composed_status(bt, 3, np.zeros(1))


def test_tick_is_pure():
    bt = kitchen_bt()
    x = np.array([0.3, -0.2])
    first = (bt.tick(x), bt.active_leaf(x))
    for _ in range(5):
        assert (bt.tick(x), bt.active_leaf(x)) == first


def test_state_validation():
    bt = thermostat_bt()
    with pytest.raises(DimensionMismatch):
        bt.tick([1.0, 2.0])
    with pytest.raises(NonFiniteState):
        bt.tick([float("nan")])
    with pytest.raises(NonFiniteState):
        bt.tick([float("inf")])


def test_check_state_returns_a_tuple_of_floats():
    bt = kitchen_bt()
    for x in (np.array([0.5, -2.0]), [0.5, -2], (np.float32(0.5), -2.0), range(0, 2)):
        state = bt.check_state(x)
        assert type(state) is tuple and all(type(v) is float for v in state)
    assert bt.check_state(np.array([0.5, -2.0])) == (0.5, -2.0)


def test_tree_validation_errors():
    with pytest.raises(ValueError, match="id 0"):
        BehaviorTree(const_leaf(1, 0, Status.RUNNING), 1)
    with pytest.raises(ValueError, match="dense"):
        BehaviorTree(Sequence(0, (const_leaf(5, 0, Status.RUNNING),)), 1)
    with pytest.raises(ValueError, match="dense"):
        BehaviorTree(Sequence(0, (const_leaf(True, 0, Status.RUNNING),)), 1)
    with pytest.raises(ValueError, match="twice"):
        leaf = const_leaf(1, 0, Status.RUNNING)
        BehaviorTree(Sequence(0, (leaf, leaf)), 1)
    with pytest.raises(ValueError, match="no children"):
        BehaviorTree(Sequence(0, ()), 1)
    with pytest.raises(UnknownNodeKind, match="'widget'"):
        BehaviorTree(Sequence(0, ("widget",)), 1)
    with pytest.raises(UnknownNodeKind, match="None"):
        BehaviorTree(None, 1)
    # of two faults, the first in pre-order is raised, whatever the ids: a
    # reused id deep in the left subtree before a childless composite on
    # its right, and after one on its left
    reused = Sequence(5, (Fallback(2, (const_leaf(4, 0, Status.RUNNING),
                                       const_leaf(4, 0, Status.RUNNING))),))
    childless, first = Fallback(1, ()), const_leaf(3, 0, Status.RUNNING)
    with pytest.raises(ValueError, match="node id 4 used twice"):
        BehaviorTree(Sequence(0, (first, reused, childless)), 1)
    with pytest.raises(ValueError, match="composite 1 has no children"):
        BehaviorTree(Sequence(0, (first, childless, reused)), 1)


def test_deep_chain_lays_out_and_walks():
    """No walk over a tree recurses: a leaf under 5,000 one-child Sequences
    lays out, and resolve, status(0, x) and the region algebra agree on it."""
    levels = 5000
    node = slab_leaf(levels, 0.0, Status.SUCCESS, Status.RUNNING)
    for i in reversed(range(levels)):
        node = Sequence(i, (node,))
    bt = BehaviorTree(node, 1)
    assert bt._spans[0] == (0, 1, 0, levels)
    for v in (-1.0, 0.0, 1.0):
        status = Status.SUCCESS if v < 0.0 else Status.RUNNING
        assert bt.resolve((v,)) == (status, levels)
        assert bt.status(0, (v,)) is status
        assert composed_status(bt, 0, (v,)) is status
    report = check_partition(bt, np.array([[-1.0], [0.0], [1.0]]))
    assert report.passed and report.samples_tested == 3


def test_behavior_of_a_composite_is_an_error():
    bt = thermostat_bt()
    assert bt.behavior(3).label == "heat"
    with pytest.raises(ValueError, match="^node 1 is not a leaf$"):
        bt.behavior(1)


def test_leaf_root_tree():
    bt = BehaviorTree(slab_leaf(0, 0.0, Status.RUNNING, Status.SUCCESS), state_dim=1)
    assert bt.active_leaf([-1.0]) == 0
    assert bt.root_status([2.0]) is Status.SUCCESS
