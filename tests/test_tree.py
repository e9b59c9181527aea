"""Uncle relations of the skeleton BehaviorTree builds, checked exhaustively
on small trees against the paper's definitions."""

import pytest

from ctbt.core import BehaviorTree, Leaf, LeafBehavior, Sequence, Status
from ctbt.tree import InvalidNodeId

_IDLE = LeafBehavior(lambda x: (0.0,), lambda x: Status.RUNNING)


def forests(total):
    """All tuples of ordered-tree shapes whose node counts sum to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for head in shapes(first):
            for tail in forests(total - first):
                yield (head,) + tail


def shapes(n):
    """All ordered trees with exactly n nodes; a shape is a tuple of child shapes."""
    for f in forests(n - 1):
        yield f


def to_tree(shape):
    """Assign preorder ids, build the BehaviorTree, return its OrderedTree."""
    counter = [0]

    def walk(s):
        nid = counter[0]
        counter[0] += 1
        if not s:
            return Leaf(nid, _IDLE)
        return Sequence(nid, tuple(walk(c) for c in s))

    return BehaviorTree(walk(shape), state_dim=1).tree


def all_trees(max_nodes=8):
    for n in range(1, max_nodes + 1):
        for s in shapes(n):
            yield to_tree(s)


def test_shape_counts_are_catalan():
    assert [sum(1 for _ in shapes(n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]


def leq_p(t, a, b):
    """Parent order: a is b or an ancestor of b."""
    while b is not None and b != a:
        b = t.parent[b]
    return b == a


def lt_s(t, a, b):
    """Strict sibling order: same parent, a strictly to the left of b."""
    p = t.parent[a]
    return (a != b and p is not None and p == t.parent[b]
            and t.children[p].index(a) < t.children[p].index(b))


def brute_left_uncles(t, i):
    ids = range(len(t.parent))
    return tuple(j for j in ids if any(lt_s(t, j, y) and leq_p(t, y, i) for y in ids))


def brute_right_uncles(t, i):
    ids = range(len(t.parent))
    return tuple(j for j in ids if any(lt_s(t, y, j) and leq_p(t, y, i) for y in ids))


def test_uncles_match_bruteforce_on_all_small_trees():
    checked = 0
    for t in all_trees(8):
        for i in range(len(t.parent)):
            assert t.left_uncles(i) == brute_left_uncles(t, i)
            assert t.right_uncles(i) == brute_right_uncles(t, i)
            checked += 1
    assert checked > 2000


def test_thermostat_shape_uncles():
    t = to_tree((((), ()), ()))
    assert t.children == ((1, 4), (2, 3), (), (), ())
    assert t.right_uncles(2) == (3, 4)
    assert t.right_uncles(3) == (4,)
    assert t.right_uncles(4) == ()
    assert t.left_uncles(2) == ()
    assert t.left_uncles(3) == (2,)
    assert t.left_uncles(4) == (1,)


def test_kitchen_shape_uncles():
    t = to_tree(((), ((), ())))
    assert t.left_uncles(3) == (1,)
    assert t.left_uncles(4) == (1, 3)
    assert t.right_uncles(1) == (2,)
    assert t.right_uncles(3) == (4,)
    assert t.right_uncles(2) == ()


def test_ancestors_or_self_walks_to_root():
    t = to_tree(((), ((), ())))
    assert list(t.ancestors_or_self(4)) == [4, 2, 0]
    assert list(t.ancestors_or_self(0)) == [0]


def test_invalid_node_id():
    t = to_tree(((),))
    for bad in (-1, 2, True, 1.0, "1"):
        with pytest.raises(InvalidNodeId) as err:
            t.left_uncles(bad)
        assert err.value.node_id is bad
    assert t._check_id(1) == 1


def test_single_node_tree():
    t = to_tree(())
    assert t.parent == (None,)
    assert t.children == ((),)
    assert t.left_uncles(0) == ()
    assert t.right_uncles(0) == ()
