"""Behavior-tree nodes over continuous state and their pointwise evaluation.

A leaf pairs a state-feedback controller with a metadata map that labels
every state Running, Success or Failure.  Sequence and Fallback compose
children by delegation: a Sequence hands the state to its first child not
reporting Success (all Success: the last child answers), a Fallback to its
first child not reporting Failure.  Evaluating the root at a state x yields
the tree's status there and the active leaf, whose controller drives the
plant at x.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .tree import OrderedTree


class Status(enum.Enum):
    RUNNING = "R"
    SUCCESS = "S"
    FAILURE = "F"

    def __repr__(self):  # keeps report dumps short
        return self.name


class DimensionMismatch(ValueError):
    pass


class NonFiniteState(ValueError):
    pass


class NotComposite(ValueError):
    pass


class UnknownNodeKind(ValueError):
    pass


@dataclass(frozen=True)
class LeafBehavior:
    """Controller u(x) plus metadata r(x) for one leaf.

    Both must be pure functions of the state.  controller returns a control
    vector (any sequence); metadata returns a Status.
    """

    controller: Callable
    metadata: Callable
    label: str = ""


@dataclass(frozen=True)
class Leaf:
    node_id: int
    behavior: LeafBehavior


@dataclass(frozen=True)
class Sequence:
    node_id: int
    children: tuple


@dataclass(frozen=True)
class Fallback:
    node_id: int
    children: tuple


BtNode = Union[Leaf, Sequence, Fallback]


@dataclass(frozen=True)
class Plant:
    """Control-affine-or-not vector field xdot = field(x, u) with known dims."""

    state_dim: int
    control_dim: int
    field: Callable


def _resolve(node: BtNode, x):
    """Delegation walk: (status, leaf node) at x, evaluating metadata only."""
    if isinstance(node, Leaf):
        return node.behavior.metadata(x), node
    skip = Status.SUCCESS if isinstance(node, Sequence) else Status.FAILURE
    for child in node.children[:-1]:
        out = _resolve(child, x)
        if out[0] is not skip:
            return out
    return _resolve(node.children[-1], x)


def composed_status(bt: "BehaviorTree", i: int, x) -> Status:
    """Status of composite i at x computed from the closed-form region algebra.

    Independent of the delegation in tick: every node of i's subtree is
    evaluated and the Sequence/Fallback region formulas are applied literally
    (Success of a Sequence is the intersection of child Successes; its
    Running/Failure regions are unions of child regions gated by all earlier
    Successes; dual for Fallback).  Exactly one of the three must hold.  The
    region route in ctbt.regions evaluates the same algebra.
    """
    if isinstance(bt.nodes[bt.tree._check_id(i)], Leaf):
        raise NotComposite(f"node {i} is a leaf")
    return _status_table(bt, x, i)[i]


# Status every child must share for the composite to share it; a left uncle
# under a parent of this kind must hold it for execution to pass on.
_GATE = {"seq": Status.SUCCESS, "fal": Status.FAILURE}


def _compose(node_id: int, gate: Status, child_statuses, x) -> Status:
    """Composite status from its children's statuses by the region algebra.

    The gate region is the intersection of the children's gate regions; the
    flow (Running) region is the union over j of child j's flow (Running)
    region intersected with the gate regions of every child before j.  So x
    lies in the region of the first child status that is not the gate
    status, or in the gate region if there is none.  Exactly one of the three
    regions must hold: a consulted child status that is not a Status puts x
    in none of them.
    """
    for s in child_statuses:
        if s is not gate:
            if isinstance(s, Status):
                return s
            raise AssertionError(
                f"composed regions of node {node_id} do not partition at "
                f"{tuple(float(v) for v in x)!r}: child status {s!r}"
            )
    return gate


def _status_table(bt: "BehaviorTree", x, i: int = 0) -> list:
    """Status at x of every node in i's subtree via the region algebra.

    One pass over the post-order steps of i's subtree, so every child is
    evaluated before its parent; entries outside the subtree stay None.
    """
    table = [None] * len(bt.nodes)
    for j, metadata, gate, kids in bt._steps[bt._subtree[i]]:
        if metadata is not None:
            table[j] = metadata(x)
        else:
            table[j] = _compose(j, gate, [table[c] for c in kids], x)
    return table


class BehaviorTree:
    """A validated behavior tree bound to its ordered-tree skeleton.

    The one place a tree's shape is checked: node ids must be dense ints
    0..N-1 with the root id 0 (builders normally assign them depth-first),
    each node attached once, every composite with children.  Derived
    structure (ordered tree, node index, kind map, leaf list) is computed
    once; instances are treated as immutable.
    """

    def __init__(self, root: BtNode, state_dim: int):
        nodes: dict = {}
        parent: dict = {}
        children: dict = {}
        steps = []  # (node id, leaf metadata or None, gate status, child ids)
        subtree = {}  # node id -> slice of steps covering its subtree

        def collect(node: BtNode, up):
            kind = _kind(node)  # before any field of node is read
            i = node.node_id
            if i in nodes:
                raise ValueError(f"node id {i} used twice")
            nodes[i], parent[i] = node, up
            first = len(steps)
            if kind == "leaf":
                kids = ()
                steps.append((i, node.behavior.metadata, None, kids))
            else:
                if not node.children:
                    raise ValueError(f"composite {i} has no children")
                for c in node.children:
                    collect(c, i)
                kids = tuple(c.node_id for c in node.children)
                steps.append((i, None, _GATE[kind], kids))
            children[i] = kids
            subtree[i] = slice(first, len(steps))

        collect(root, None)
        if root.node_id != 0:
            raise ValueError("root node must have id 0")
        ids = range(len(nodes))
        if not all(type(i) is int for i in nodes) or sorted(nodes) != list(ids):
            raise ValueError("node ids must be dense 0..N-1")
        self.root = root
        self.state_dim = state_dim
        self.tree = OrderedTree(tuple(parent[i] for i in ids),
                                tuple(children[i] for i in ids))
        self.nodes = tuple(nodes[i] for i in ids)
        self.kinds = tuple(_kind(n) for n in self.nodes)
        self.leaf_ids = tuple(i for i, k in enumerate(self.kinds) if k == "leaf")
        # post-order status steps: a node's subtree is a contiguous slice
        # ending at its own step, every child before its parent
        self._steps = tuple(steps)
        self._subtree = tuple(subtree[i] for i in ids)
        self._region_plan = None  # filled lazily by regions._plan

    def check_state(self, x) -> tuple:
        """x in the package's one state format, a tuple of Python floats."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.state_dim,):
            raise DimensionMismatch(
                f"state has shape {x.shape}, expected ({self.state_dim},)"
            )
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(f"state is not finite: {x!r}")
        return tuple(x.tolist())

    def tick(self, x) -> tuple:
        """(control, root status) at x; only the active leaf's controller runs."""
        x = self.check_state(x)
        status, leaf = _resolve(self.root, x)
        return leaf.behavior.controller(x), status

    def root_status(self, x) -> Status:
        return _resolve(self.root, self.check_state(x))[0]

    def active_leaf(self, x) -> int:
        """Id of the leaf the delegation chain lands on at x."""
        return _resolve(self.root, self.check_state(x))[1].node_id

    def resolve(self, x):
        """(root status, active leaf id) at x in one walk, no revalidation.

        The walk evaluates leaf metadata only, never a controller; the
        control at x is bt.behavior(leaf).controller(x).
        """
        status, leaf = _resolve(self.root, x)
        return status, leaf.node_id

    def status(self, i: int, x) -> Status:
        """Status of the subtree rooted at i, by delegation semantics."""
        return _resolve(self.nodes[self.tree._check_id(i)], x)[0]

    def behavior(self, i: int) -> LeafBehavior:
        node = self.nodes[self.tree._check_id(i)]
        if not isinstance(node, Leaf):
            raise ValueError(f"node {i} is not a leaf")
        return node.behavior


def _kind(node: BtNode) -> str:
    if isinstance(node, Leaf):
        return "leaf"
    if isinstance(node, Sequence):
        return "seq"
    if isinstance(node, Fallback):
        return "fal"
    raise UnknownNodeKind(f"not a behavior-tree node: {node!r}")
