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
status algebra (core._compose, the one composed_status uses), never through
tick's delegation, so the two routes stay independently testable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence as Seq

import numpy as np

from .core import _GATE, BehaviorTree, Status, UnknownNodeKind, _status_table
from .tree import OrderedTree


class EmptySampler(ValueError):
    pass


@dataclass(frozen=True)
class PathwaySets:
    success: frozenset
    failure: frozenset


def pathways(tree: OrderedTree, node_kinds: Mapping) -> PathwaySets:
    """Success/failure pathway node sets for a tree with tagged composites.

    node_kinds maps every node id to "seq", "fal" or "leaf".
    """
    for i in range(tree.node_count):
        if node_kinds[i] not in ("seq", "fal", "leaf"):
            raise UnknownNodeKind(f"node {i} has kind {node_kinds[i]!r}")
    success, failure = set(), set()
    for i in range(tree.node_count):
        uncles = tree.right_uncles(i)
        if not any(node_kinds[tree.parent_of(j)] == "seq" for j in uncles):
            success.add(i)
        if not any(node_kinds[tree.parent_of(j)] == "fal" for j in uncles):
            failure.add(i)
    return PathwaySets(success=frozenset(success), failure=frozenset(failure))


def pathway_sets(bt: BehaviorTree) -> PathwaySets:
    """pathways() over a BehaviorTree, cached on the instance."""
    return _plan(bt).pathways


_KEEP = {
    (True, True): tuple(Status),
    (True, False): (Status.RUNNING, Status.SUCCESS),
    (False, True): (Status.RUNNING, Status.FAILURE),
    (False, False): (Status.RUNNING,),
}


def _keeping(i: int, pw: PathwaySets) -> tuple:
    """Statuses at node i that keep execution at i (the module doc's case split)."""
    return _KEEP[i in pw.success, i in pw.failure]


@dataclass(frozen=True)
class _RegionPlan:
    """Per-tree tables the region predicates read, built once per tree.

    influence: for each node id, its (left uncle, required status)
    preconditions.  owner_tests: (leaf id, influence preconditions, keeping
    statuses) for every leaf.
    """

    influence: tuple
    pathways: PathwaySets
    owner_tests: tuple


def _plan(bt: BehaviorTree) -> _RegionPlan:
    """_RegionPlan of bt, cached on the instance."""
    if bt._region_plan is None:
        influence = tuple(
            tuple((j, _GATE[bt.kinds[bt.tree.parent_of(j)]])
                  for j in bt.tree.left_uncles(i))
            for i in range(len(bt.nodes))
        )
        pw = pathways(bt.tree, bt.kinds)
        owner_tests = tuple((i, influence[i], _keeping(i, pw)) for i in bt.leaf_ids)
        bt._region_plan = _RegionPlan(influence, pw, owner_tests)
    return bt._region_plan


def in_influence_region(bt: BehaviorTree, i: int, x) -> bool:
    """Is x inside node i's influence region?

    Every left uncle under a Sequence parent must be in Success at x, every
    left uncle under a Fallback parent in Failure.
    """
    table = _status_table(bt, x)
    return all(table[j] is want for j, want in _plan(bt).influence[i])


def in_operating_region(bt: BehaviorTree, i: int, x) -> bool:
    """Is x inside node i's operating region (the case split in the module doc)?"""
    plan = _plan(bt)
    table = _status_table(bt, x)
    return (all(table[j] is want for j, want in plan.influence[i])
            and table[i] in _keeping(i, plan.pathways))


def _owners(table: list, tests: tuple) -> list:
    """Leaves of tests whose operating region holds the point of table."""
    return [
        i for i, conds, keep in tests
        if table[i] in keep and all(table[j] is want for j, want in conds)
    ]


def operating_owners(bt: BehaviorTree, x) -> list:
    """All leaves whose operating region contains x (should be exactly one)."""
    return _owners(_status_table(bt, x), _plan(bt).owner_tests)


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
    points = _states(points)
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
    points = _states(points)
    # bt.check_state on the first non-finite row, else row 0
    bad = (x for x in points if not all(map(math.isfinite, x)))
    bt.check_state(next(bad, points[0]))
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
    rows = []
    for x in _states(points):
        owners = operating_owners(bt, x)
        owner = owners[0] if len(owners) == 1 else -1
        rows.append((*x, owner, bt.root_status(x).value))
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


def _states(points) -> list:
    """A point batch (one point, or rows of them) as states: tuples of floats."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise EmptySampler("no sample points supplied")
    return [tuple(x) for x in pts.tolist()]
