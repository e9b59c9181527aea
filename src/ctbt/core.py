"""Behavior-tree nodes over continuous state and their pointwise evaluation.

A leaf pairs a state-feedback controller with a metadata map that labels
every state Running, Success or Failure.  Sequence and Fallback compose
children by delegation: a Sequence hands the state to its first child not
reporting Success (all Success: the last child answers), a Fallback to its
first child not reporting Failure.  Evaluating the root at a state x yields
the tree's status there and the active leaf, whose controller drives the
plant at x.

After leaf l reports Success or Failure, the next leaf delegation visits
depends only on (l, status): it is the first leaf of the right sibling at
l's nearest ancestor whose gate that status opens (Success for a Sequence,
Failure for a Fallback), or none, and then the status is the root's.  So
BehaviorTree lays its leaves out once, left to right, as a jump table, and
one flat loop, _walk, evaluates a row's metadata and jumps.  Every subtree
owns a contiguous slice of rows, so the same loop gives any node's status.
This module owns the tree's layout and that delegation walk; the
closed-form region algebra that recomputes every status independently from
the same layout is in ctbt.regions.

The root walk has two tiers.  A new tree takes _walk, the cold tier.  The
root walk that passes _COLD_WALKS_PER_ROW walks per leaf row compiles the
hot tier, one generated walk(x) that ctbt.dsl builds from the rows, with
every lowered status inlined; the tree's root walks take it from then on.
Compiling costs 0.03 to 0.12 ms per row (0.2 ms for the pendulum model's
2 rows, 5 ms for 44) and saves 0.3 to 0.5 us per walk, so it pays from 60
to 430 walks per row on; a tree walked less, an audited one say, keeps
_walk.  _walk also stays the walk of every subtree and the reference the
generated walk equals.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Union

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

    guards, an iterable of guard(x) -> (g, grad g) with g a float and grad g
    its state_dim partial derivatives, declares the leaf's switching
    surfaces: the status changes only where some g changes sign.  A slide
    follows the guard whose sign separates its chattering pair; with none,
    the executor estimates the surface from crossing points.
    """

    controller: Callable
    metadata: Callable
    label: str = ""
    guards: Any = dataclasses.field(default=(), compare=False, repr=False)


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
    """Control-affine-or-not vector field xdot = field(x, u) with known dims.

    field must be a pure function of (x, u), as LeafBehavior requires of
    controller and metadata: the executor ends a steady stretch at a state
    its step maps to itself and writes the rest of the horizon from there.

    steps.get((field, controller)) is step(x, h), one classic RK4 step of
    the closed loop field(x, controller(x)), bit for bit, or None; and
    steps.get((field, ca, cb, guard)) is slide(x, h, t, tol), the
    executor's slide step of the sliding pair with controllers ca, cb on
    guard, bit for bit, or None.  The .btm compiler gives its own field,
    leaf controllers and guards both; the executor asks for the plant's
    field with the active leaf's controller, or the sliding pair's two in
    leaf id order and its separating guard, so another field or a wrapped
    controller or guard gets None and takes the Python step.
    """

    state_dim: int
    control_dim: int
    field: Callable
    steps: Any = dataclasses.field(default_factory=dict, compare=False, repr=False)


_SUCCESS, _FAILURE = Status.SUCCESS, Status.FAILURE

# Root walks per leaf row a tree takes with _walk before it compiles its
# generated walk: inside the 60 to 430 walks per row from which the
# compile pays for itself.
_COLD_WALKS_PER_ROW = 256


def _walk(rows, x, row: int, stop: int):
    """(status, leaf id) of the subtree whose leaf rows are row..stop-1, at x.

    Each row is (metadata, next row on Success, next row on Failure, leaf
    id).  The walk ends on Running, on a value that is not a Status, or on a
    jump out of the slice; the last leaf evaluated answers.
    """
    while True:
        metadata, on_success, on_failure, leaf = rows[row]
        status = metadata(x)
        if status is _SUCCESS:
            row = on_success
        elif status is _FAILURE:
            row = on_failure
        else:
            return status, leaf
        if row >= stop:
            return status, leaf


class BehaviorTree:
    """A validated behavior tree bound to its ordered-tree skeleton.

    The one place a tree's shape is checked: node ids must be dense ints
    0..N-1 with the root id 0 (builders normally assign them depth-first),
    each node attached once, every composite with children.  One walk over
    the nodes checks them and lays the tree out: ordered tree, node index,
    kind map, leaf list, leaf table and composite order; instances are
    treated as immutable.

    The leaf table has one row per leaf in left-to-right order, not id
    order: (metadata, next row on Success, next row on Failure, leaf id),
    where the next row is past the end when that status reaches the root.
    The composites are listed in post-order.  Node i's subtree holds the
    rows first..stop-1 and the composites cfirst..cstop-1, where
    spans[i] = (first, stop, cfirst, cstop); so status(i, x) is one _walk,
    and the region algebra reads its leaves and composites in the same
    slices.

    resolve, tick, root_status and active_leaf are one root walk, in two
    tiers: _cold_walk, _walk over every row, until _COLD_WALKS_PER_ROW
    times the row count have passed, then _hot_walk, the generated walk
    compiled by the walk that passed.  The switch happens behind those
    four methods, none of which is ever rebound, so a wrapper set on the
    instance sees every call.  The pendulum model's tree compiles at its
    513th root walk, slide_hold's 4-row tree at its 1,025th; an audit of
    256 points walks a tree of 3 or more rows 256 times and keeps _walk.
    """

    def __init__(self, root: BtNode, state_dim: int):
        nodes: dict = {}
        parent: dict = {}
        children: dict = {}
        kinds: dict = {}
        spans: dict = {}  # node id -> (first, stop) of its rows, then of its composites
        rows = []  # left to right; a jump target is the node whose last row it follows
        composites = []  # composite ids in post-order
        # pre-order on an explicit stack of (node, parent id, on_success,
        # on_failure): node's own status jumps past the last row of
        # on_success or on_failure, a node that encloses it.  A composite
        # pushes its exit frame (exit_, node, first row, first composite)
        # under its children, so the frame pops once its subtree is laid out.
        exit_ = object()
        stack = [(root, None, root, root)]
        pop, push = stack.pop, stack.append
        while stack:
            node, up, on_success, on_failure = pop()
            if node is exit_:  # up's subtree is laid out
                i = up.node_id
                children[i] = tuple([c.node_id for c in up.children])
                composites.append(i)
                spans[i] = (on_success, len(rows), on_failure, len(composites))
                continue
            kind = _kind(node)  # before any field of node is read
            i = node.node_id
            if i in nodes:
                raise ValueError(f"node id {i} used twice")
            nodes[i], parent[i], kinds[i] = node, up, kind
            first, cfirst = len(rows), len(composites)
            if kind == "leaf":
                children[i] = ()
                spans[i] = (first, first + 1, cfirst, cfirst)
                rows.append((node.behavior.metadata, on_success, on_failure, i))
                continue
            if not node.children:
                raise ValueError(f"composite {i} has no children")
            *init, last = node.children
            push((exit_, node, first, cfirst))
            push((last, i, on_success, on_failure))
            # each earlier child's gate status goes on to its next sibling
            if kind == "seq":
                stack += [(c, i, c, on_failure) for c in reversed(init)]
            else:
                stack += [(c, i, on_success, c) for c in reversed(init)]
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
        self.kinds = tuple(kinds[i] for i in ids)
        self.leaf_ids = tuple(i for i, k in enumerate(self.kinds) if k == "leaf")
        self._spans = tuple(spans[i] for i in ids)
        self._rows = tuple((m, spans[s.node_id][1], spans[f.node_id][1], i)
                           for m, s, f, i in rows)
        self._composites = tuple(composites)
        self._cold_walks = _COLD_WALKS_PER_ROW * len(rows)  # root walks left in the cold tier
        self._hot_walk = None  # the generated root walk, once compiled

    def check_state(self, x) -> tuple:
        """x in the package's one state format, a tuple of Python floats."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.state_dim,):
            raise DimensionMismatch(
                f"state has shape {x.shape}, expected ({self.state_dim},)"
            )
        x = tuple(x.tolist())
        if not all(map(math.isfinite, x)):
            raise NonFiniteState(f"state is not finite: {x!r}")
        return x

    def _cold_walk(self, x):
        """The root walk of the cold tier, _walk over every row, counted;
        the walk that passes the tier's allowance compiles the hot one and
        answers with it."""
        self._cold_walks -= 1
        if self._cold_walks >= 0:
            return _walk(self._rows, x, 0, len(self._rows))
        from .dsl import _walk_function  # dsl imports this module

        self._hot_walk = _walk_function(self)
        return self._hot_walk(x)

    def tick(self, x) -> tuple:
        """(control, root status) at x; only the active leaf's controller runs."""
        x = self.check_state(x)
        status, leaf = (self._hot_walk or self._cold_walk)(x)
        return self.nodes[leaf].behavior.controller(x), status

    def root_status(self, x) -> Status:
        return (self._hot_walk or self._cold_walk)(self.check_state(x))[0]

    def active_leaf(self, x) -> int:
        """Id of the leaf the delegation chain lands on at x."""
        return (self._hot_walk or self._cold_walk)(self.check_state(x))[1]

    def resolve(self, x):
        """(root status, active leaf id) at x in one walk, no revalidation.

        The walk evaluates leaf metadata only, never a controller; the
        control at x is bt.behavior(leaf).controller(x).
        """
        return (self._hot_walk or self._cold_walk)(x)

    def status(self, i: int, x) -> Status:
        """Status of the subtree rooted at i, by delegation semantics."""
        first, stop = self._spans[self.tree._check_id(i)][:2]
        return _walk(self._rows, self.check_state(x), first, stop)[0]

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
