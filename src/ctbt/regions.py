"""Operating-region calculus: where in state space each node executes.

The influence region of node i collects the preconditions imposed by its
left uncles: every left uncle under a Sequence parent must report Success,
every left uncle under a Fallback parent must report Failure.  The success
(failure) pathway is the set of nodes whose Success (Failure) propagates to
the root because no right uncle under a Sequence (Fallback) parent can take
over.  The operating region of i is its influence region intersected with
the statuses that keep execution at i:

    i on both pathways   -> influence region alone
    success pathway only -> influence  &  (Running or Success at i)
    failure pathway only -> influence  &  (Running or Failure at i)
    neither              -> influence  &  Running at i

Sibling operating regions partition the parent's, so leaf operating regions
partition the whole state space; the leaf owning x is exactly the leaf tick
delegates to at x.  Everything here is evaluated through the closed-form
status algebra (_compose, the one composed_status uses), never through
core's delegation walk, so the two routes stay independently testable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Sequence as Seq

import numpy as np

from .core import BehaviorTree, NotComposite, Status


class EmptySampler(ValueError):
    pass


@dataclass(frozen=True)
class PathwaySets:
    success: frozenset
    failure: frozenset


def pathway_sets(bt: BehaviorTree) -> PathwaySets:
    """Success/failure pathway node sets of bt, cached on the instance."""
    return _plan(bt).pathways


# Status every child must share for the composite to share it; a left uncle
# under a parent of this kind must hold it for execution to pass on.
_GATE = {"seq": Status.SUCCESS, "fal": Status.FAILURE}


@dataclass(frozen=True)
class _RegionPlan:
    """Per-tree tables the region route reads, built once per tree.

    steps: post-order (node id, leaf metadata or None, gate status, child
    ids); subtree[i]: the contiguous slice of steps covering i's subtree.
    tests: (i, influence preconditions as (left uncle, required status)
    pairs, keeping statuses) for each node id i; owner_tests: the leaves'.
    """

    steps: tuple
    subtree: tuple
    pathways: PathwaySets
    tests: tuple
    owner_tests: tuple


def _plan(bt: BehaviorTree) -> _RegionPlan:
    """_RegionPlan of bt, cached on the instance."""
    if bt._region_plan is None:
        tree, kinds, n = bt.tree, bt.kinds, len(bt.nodes)
        steps, subtree = [], [None] * n

        def visit(i: int):  # post-order: children left to right, then i
            first = len(steps)
            for c in tree.children[i]:
                visit(c)
            metadata = bt.nodes[i].behavior.metadata if kinds[i] == "leaf" else None
            steps.append((i, metadata, _GATE.get(kinds[i]), tree.children[i]))
            subtree[i] = slice(first, len(steps))

        visit(0)
        # i is on the success (failure) pathway unless a right uncle under a
        # Sequence (Fallback) parent takes over from it
        takeover = [{kinds[tree.parent[j]] for j in tree.right_uncles(i)}
                    for i in range(n)]
        pw = PathwaySets(
            success=frozenset(i for i, t in enumerate(takeover) if "seq" not in t),
            failure=frozenset(i for i, t in enumerate(takeover) if "fal" not in t))
        tests = []
        for i in range(n):
            conds = tuple((j, _GATE[kinds[tree.parent[j]]]) for j in tree.left_uncles(i))
            # the statuses at i that keep execution at i (the module doc's cases)
            keep = [Status.RUNNING]
            if i in pw.success:
                keep.append(Status.SUCCESS)
            if i in pw.failure:
                keep.append(Status.FAILURE)
            tests.append((i, conds, tuple(keep)))
        bt._region_plan = _RegionPlan(
            tuple(steps), tuple(subtree), pw, tuple(tests),
            tuple(tests[i] for i in bt.leaf_ids))
    return bt._region_plan


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


def _status_table(bt: BehaviorTree, x, i: int = 0) -> list:
    """Status at x of every node in i's subtree via the region algebra.

    One pass over the post-order steps of i's subtree, so every child is
    evaluated before its parent; entries outside the subtree stay None.
    """
    plan = _plan(bt)
    table = [None] * len(bt.nodes)
    for j, metadata, gate, kids in plan.steps[plan.subtree[i]]:
        if metadata is not None:
            table[j] = metadata(x)
        else:
            table[j] = _compose(j, gate, [table[c] for c in kids], x)
    return table


def composed_status(bt: BehaviorTree, i: int, x) -> Status:
    """Status of composite i at x computed from the closed-form region algebra.

    Independent of core's delegation walk: every node of i's subtree is
    evaluated and the Sequence/Fallback region formulas are applied literally
    (Success of a Sequence is the intersection of child Successes; its
    Running/Failure regions are unions of child regions gated by all earlier
    Successes; dual for Fallback).  Exactly one of the three must hold.
    """
    if bt.kinds[bt.tree._check_id(i)] == "leaf":
        raise NotComposite(f"node {i} is a leaf")
    return _status_table(bt, bt.check_state(x), i)[i]


def in_influence_region(bt: BehaviorTree, i: int, x) -> bool:
    """Is x inside node i's influence region?

    Every left uncle under a Sequence parent must be in Success at x, every
    left uncle under a Fallback parent in Failure.
    """
    _, conds, _ = _plan(bt).tests[bt.tree._check_id(i)]
    table = _status_table(bt, bt.check_state(x))
    return all(table[j] is want for j, want in conds)


def in_operating_region(bt: BehaviorTree, i: int, x) -> bool:
    """Is x inside node i's operating region (the case split in the module doc)?"""
    test = _plan(bt).tests[bt.tree._check_id(i)]
    return bool(_owners(_status_table(bt, bt.check_state(x)), (test,)))


def _owners(table: list, tests: tuple) -> list:
    """Nodes of tests whose operating region holds the point of table."""
    return [
        i for i, conds, keep in tests
        if table[i] in keep and all(table[j] is want for j, want in conds)
    ]


def operating_owners(bt: BehaviorTree, x) -> list:
    """All leaves whose operating region contains x (should be exactly one)."""
    return _owners(_status_table(bt, bt.check_state(x)), _plan(bt).owner_tests)


@dataclass(frozen=True)
class SubsystemLeaves:
    """Leaves witnessed to own at least one sample, and the rest.

    Sampling can witness non-emptiness but never certify emptiness, so
    unwitnessed leaves are reported as possibly empty rather than dropped.
    """

    witnessed: frozenset
    possibly_empty: frozenset
    samples_tested: int


def subsystem_leaves(bt: BehaviorTree, points) -> SubsystemLeaves:
    points = _states(bt, points)
    seen = set()
    remaining = _plan(bt).owner_tests
    for x in points:
        if not remaining:
            break
        seen.update(_owners(_status_table(bt, x), remaining))
        remaining = tuple(t for t in remaining if t[0] not in seen)
    return SubsystemLeaves(
        witnessed=frozenset(seen),
        possibly_empty=frozenset(t[0] for t in remaining),
        samples_tested=len(points),
    )


@dataclass
class RegionReport:
    """Partition audit over a sample batch.

    disjointness_violations: (x, owner ids) where two or more leaf operating
    regions claimed x.  coverage_violations: x owned by no leaf.
    equivalence_violations: (x, active leaf, region owner) where the unique
    owner disagrees with tick's delegation.
    """

    samples_tested: int = 0
    disjointness_violations: list = field(default_factory=list)
    coverage_violations: list = field(default_factory=list)
    equivalence_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (
            self.disjointness_violations
            or self.coverage_violations
            or self.equivalence_violations
        )

    def to_dict(self) -> dict:
        return {
            "samples_tested": self.samples_tested,
            "passed": self.passed,
            "disjointness_violations": [
                {"x": list(x), "owners": list(owners)}
                for x, owners in self.disjointness_violations
            ],
            "coverage_violations": [{"x": list(x)} for x in self.coverage_violations],
            "equivalence_violations": [
                {"x": list(x), "active_leaf": a, "region_owner": o}
                for x, a, o in self.equivalence_violations
            ],
        }


def check_partition(bt: BehaviorTree, points) -> RegionReport:
    """Audit disjointness, coverage, and agreement with tick over samples.

    The region route (status algebra + uncles + pathways) and the delegation
    route (tick) are computed independently per point.  Violations are sorted
    canonically so reports are reproducible regardless of evaluation order.
    """
    points = _states(bt, points)
    tests = _plan(bt).owner_tests
    report = RegionReport(samples_tested=len(points))
    for x in points:
        owners = _owners(_status_table(bt, x), tests)
        active = bt.resolve(x)[1]
        if len(owners) > 1:
            report.disjointness_violations.append((x, tuple(owners)))
        elif not owners:
            report.coverage_violations.append(x)
        elif owners[0] != active:
            report.equivalence_violations.append((x, active, owners[0]))
    report.disjointness_violations.sort()
    report.coverage_violations.sort()
    report.equivalence_violations.sort()
    return report


def region_table(bt: BehaviorTree, points) -> list:
    """Rows (x..., owner leaf id, root status letter) for a CSV dump."""
    tests = _plan(bt).owner_tests
    rows = []
    for x in _states(bt, points):
        owners = _owners(_status_table(bt, x), tests)
        owner = owners[0] if len(owners) == 1 else -1
        rows.append((*x, owner, bt.resolve(x)[0].value))
    return rows


def region_csv(bt: BehaviorTree, points) -> str:
    rows = region_table(bt, points)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = [f"x{k}" for k in range(len(rows[0]) - 2)]
    w.writerow(header + ["owner_leaf_id", "root_status"])
    for row in rows:
        w.writerow([repr(v) for v in row[:-2]] + [row[-2], row[-1]])
    return buf.getvalue()


def uniform_points(box: Seq, count: int, seed: int) -> np.ndarray:
    """count points uniform over the axis-aligned box [(lo, hi), ...]."""
    if count <= 0:
        raise EmptySampler("sample count must be positive")
    box = [(float(lo), float(hi)) for lo, hi in box]
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.random((count, len(box)))


def grid_points(box: Seq, per_axis: int) -> np.ndarray:
    """Regular grid with per_axis points on each axis, row-major order."""
    if per_axis <= 0:
        raise EmptySampler("grid resolution must be positive")
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _states(bt: BehaviorTree, points) -> list:
    """A point batch (one point, or rows of them) as states of bt: tuples of
    floats, validated once by bt.check_state (shape, then finiteness)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise EmptySampler("no sample points supplied")
    states = [tuple(x) for x in pts.tolist()]
    # check row 0 for the shape every row shares, or the first non-finite row
    bad = (x for x in states if not all(map(math.isfinite, x)))
    bt.check_state(next(bad, states[0]))
    return states
