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
delegates to at x.

Every region here is a set of sample indices: a Python int whose bit p is
set when point p of the batch lies in the region.  One function,
_region_masks, evaluates the leaves' metadata at every point and then
builds each composite's Running, Success and Failure sets from its
children's by set algebra, the way the paper defines them; every query,
down to the one-point composed_status, reads its statuses from there and
never from core's delegation walk, so the two routes stay independently
testable.  They share only the tree's layout, which BehaviorTree builds:
the leaves left to right, the composites in post-order, each node's slice
of both, its kind and its children.  Influence, pathways and operating
regions compose one level at a time, so a second function, _node_regions,
gives every node's from those sets in one walk, parents first, and reads
no uncle list.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence as Seq

import numpy as np

from .core import BehaviorTree, DimensionMismatch, NotComposite, Status


class EmptySampler(ValueError):
    pass


@dataclass(frozen=True)
class PathwaySets:
    success: frozenset
    failure: frozenset


def pathway_sets(bt: BehaviorTree) -> PathwaySets:
    """Success/failure pathway node sets of bt."""
    # the pathways depend on no point, so masks over none serve
    keep = _node_regions(bt, [(0, 0, 0)] * len(bt.nodes), 0)[2]
    return PathwaySets(success=frozenset(i for i, k in enumerate(keep) if 1 in k),
                       failure=frozenset(i for i, k in enumerate(keep) if 2 in k))


# A node's masks are indexed like _STATUSES: [running, success, failure].
_STATUSES = (Status.RUNNING, Status.SUCCESS, Status.FAILURE)
# Index of the status every child must share for the composite to share it;
# an earlier sibling under a parent of this kind must hold it for execution
# to pass on.  The other index that is not Running is the composite's exit.
_GATE = {"seq": 1, "fal": 2}
_EXIT = {"seq": 2, "fal": 1}
# Leaf statuses are coded by identity as their _STATUSES index, any other
# value as _MALFORMED; _BITS[k] translates code k to "1", the rest to "0".
_MALFORMED = 3
_BITS = tuple(b"0" * k + b"1" + b"0" * (255 - k) for k in range(4))


def _region_masks(bt: BehaviorTree, states: list, i: int = 0, walk: bool = False):
    """Running, Success and Failure masks of every node in i's subtree.

    Returns (masks, walks): masks[j] = [running, success, failure] for each
    node j of the subtree (None elsewhere), bit p set when states[p] lies
    in that region of j; walks[p] = bt.resolve(states[p]) when walk is set,
    else walks is empty.

    Metadata is called point by point: the subtree's leaves left to right,
    then the delegation walk if asked.  Only then is the algebra applied,
    composites in post-order: for each child in turn, the child's Running
    region and its exit region (Failure under a Sequence, Success under a
    Fallback) within the points that passed every earlier child's gate
    join the composite's, and the passed set shrinks to the child's gate
    region; what passes every child is the composite's gate region.
    Exactly one of the three regions must hold, so a consulted child status
    that is not a Status raises AssertionError.  When several points have
    one, the error names the lowest-index such point and, at it, the first
    composite in post-order, as composed_status at that point alone would.
    """
    kinds, children = bt.kinds, bt.tree.children
    first, stop, cfirst, cstop = bt._spans[i]
    leaves = bt._rows[first:stop]
    metadata = [row[0] for row in leaves]
    rows, walks = [], []
    for x in states:
        rows.append([m(x) for m in metadata])
        if walk:
            walks.append(bt.resolve(x))
    n, full = len(states), (1 << len(states)) - 1
    run, succ, fail = _STATUSES
    masks = [None] * len(bt.nodes)
    malformed = {}  # leaf id -> points where its status is not a Status
    codes = bytes([0 if v is run else 1 if v is succ else 2 if v is fail else _MALFORMED
                   for v in chain.from_iterable(zip(*rows))])[::-1]
    run_plane = int(codes.translate(_BITS[0]), 2)
    succ_plane = int(codes.translate(_BITS[1]), 2)
    fail_plane = int(codes.translate(_BITS[2]), 2)
    bad_plane = int(codes.translate(_BITS[_MALFORMED]), 2) if _MALFORMED in codes else 0
    for k, (_, _, _, leaf) in enumerate(leaves):
        shift = k * n
        masks[leaf] = [run_plane >> shift & full, succ_plane >> shift & full,
                       fail_plane >> shift & full]
        if bad_plane >> shift & full:
            malformed[leaf] = bad_plane >> shift & full
    error = None  # (point, composite, child) of the first malformed status consulted
    for j in bt._composites[cfirst:cstop]:
        gate, exit_ = _GATE[kinds[j]], _EXIT[kinds[j]]
        passed, running, exits = full, 0, 0
        for c in children[j]:
            hit = malformed.get(c, 0) & passed if malformed else 0
            if hit:
                p = (hit & -hit).bit_length() - 1  # its lowest point
                if error is None or p < error[0]:
                    error = (p, j, c)
            m = masks[c]
            running |= m[0] & passed
            exits |= m[exit_] & passed
            passed &= m[gate]
            if not passed:
                break
        out = [running, 0, 0]
        out[gate], out[exit_] = passed, exits
        masks[j] = out
    if error is not None:
        p, j, c = error
        x = states[p]
        raise AssertionError(
            f"composed regions of node {j} do not partition at "
            f"{tuple(float(v) for v in x)!r}: child status "
            f"{rows[p][bt._spans[c][0] - first]!r}"
        )
    return masks, walks


def _node_regions(bt: BehaviorTree, masks: list, full: int) -> tuple:
    """(influence, operating, keep) of every node, indexed by node id: its
    influence and operating masks over the points of masks, the whole
    tree's from _region_masks, of which full holds every point; and the
    status indices that keep execution at it, Running and the statuses of
    the pathways it lies on (the module doc's cases).

    Both regions compose one level at a time, so one walk over the
    composites, parents first, gives them.  The root's influence is every
    point, and it lies on both pathways.  A child's influence is its
    parent's within every earlier sibling's gate region.  It keeps its
    parent's statuses, but a later sibling takes over its Success under a
    Sequence and its Failure under a Fallback: the parent's gate.  Its
    operating region is its influence within its keeping statuses.
    """
    n, kinds, children = len(bt.nodes), bt.kinds, bt.tree.children
    influence, keep = [full] * n, [(0, 1, 2)] * n
    for j in reversed(bt._composites):
        gate, inside = _GATE[kinds[j]], influence[j]
        taken = tuple(k for k in keep[j] if k != gate)
        for c in children[j]:
            influence[c], keep[c] = inside, taken
            inside &= masks[c][gate]
        keep[c] = keep[j]  # the last child has no later sibling
    operating = []
    for inside, m, statuses in zip(influence, masks, keep):
        region = 0
        for k in statuses:
            region |= m[k]
        operating.append(inside & region)
    return influence, operating, keep


def _points(mask: int):
    """Indices of the set bits of mask, ascending."""
    bits = bin(mask)[:1:-1]  # bit 0 first, without the "0b"
    p = bits.find("1")
    while p >= 0:
        yield p
        p = bits.find("1", p + 1)


def _sole_owner(owned: list, n: int):
    """(sole, shared, covered) for leaf operating masks over n points: sole[p]
    is the one leaf owning point p, or -1 when none or several do; shared
    and covered are the points two or more leaves, or any leaf, own."""
    shared = covered = 0
    for _, mask in owned:
        shared |= covered & mask
        covered |= mask
    sole = [-1] * n
    for leaf, mask in owned:
        for p in _points(mask & ~shared):
            sole[p] = leaf
    return sole, shared, covered


def _point_masks(bt: BehaviorTree, x, i: int = 0) -> list:
    """Masks of i's subtree at the single validated state x."""
    return _region_masks(bt, [bt.check_state(x)], i)[0]


def _point_regions(bt: BehaviorTree, x) -> tuple:
    """_node_regions of bt at the single validated state x."""
    return _node_regions(bt, _point_masks(bt, x), 1)


# Points per _region_masks call in the batch audits.  A call holds every
# leaf status of its points (about 1 KB per point at 44 leaves) and shifts
# bit planes whose width is points times leaves, so a run bounds both; the
# region_audit bench's 256 points per tree are one run.
_RUN = 4096


def _runs(bt: BehaviorTree, states: list, walk: bool = False, grow: bool = False):
    """(states, owned, walks) of the batch in order, _RUN points at a time,
    or with grow set, 1, 2, 4, ... points at a time up to _RUN, so a caller
    that stops early evaluates fewer than twice the points it needed.

    owned holds the (leaf id, operating mask) of every leaf, in id order,
    and walks the run's _region_masks walks.  An error in one run ends the
    audit there, so it still names the batch's lowest-index malformed
    point."""
    k, size = 0, 1 if grow else _RUN
    while k < len(states):
        run = states[k:k + size]
        masks, walks = _region_masks(bt, run, walk=walk)
        operating = _node_regions(bt, masks, (1 << len(run)) - 1)[1]
        yield run, [(leaf, operating[leaf]) for leaf in bt.leaf_ids], walks
        k, size = k + size, min(2 * size, _RUN)


def composed_status(bt: BehaviorTree, i: int, x) -> Status:
    """Status of composite i at x computed from the closed-form region algebra.

    Independent of core's delegation walk: every leaf of i's subtree is
    evaluated and the Sequence/Fallback region formulas are applied literally
    (Success of a Sequence is the intersection of child Successes; its
    Running/Failure regions are unions of child regions gated by all earlier
    Successes; dual for Fallback).  Exactly one of the three must hold.
    """
    if bt.kinds[bt.tree._check_id(i)] == "leaf":
        raise NotComposite(f"node {i} is a leaf")
    return _STATUSES[_point_masks(bt, x, i)[i].index(1)]


def in_influence_region(bt: BehaviorTree, i: int, x) -> bool:
    """Is x inside node i's influence region?

    Every left uncle under a Sequence parent must be in Success at x, every
    left uncle under a Fallback parent in Failure.
    """
    i = bt.tree._check_id(i)
    return bool(_point_regions(bt, x)[0][i])


def in_operating_region(bt: BehaviorTree, i: int, x) -> bool:
    """Is x inside node i's operating region (the case split in the module doc)?"""
    i = bt.tree._check_id(i)
    return bool(_point_regions(bt, x)[1][i])


def operating_owners(bt: BehaviorTree, x) -> list:
    """All leaves whose operating region contains x (should be exactly one)."""
    operating = _point_regions(bt, x)[1]
    return [leaf for leaf in bt.leaf_ids if operating[leaf]]


def leaf_memberships(bt: BehaviorTree, x) -> list:
    """(leaf id, in its influence region, in its operating region) at x for
    every leaf, in id order, from one evaluation of the tree's regions."""
    influence, operating, _ = _point_regions(bt, x)
    return [(leaf, bool(influence[leaf]), bool(operating[leaf])) for leaf in bt.leaf_ids]


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
    states = _states(bt, points)
    seen = set()
    # stop after the run that witnesses the last leaf; runs start at one
    # point, so a batch whose first point witnesses every leaf costs one
    for _, owned, _ in _runs(bt, states, grow=True):
        seen.update(leaf for leaf, mask in owned if mask)
        if len(seen) == len(bt.leaf_ids):
            break
    return SubsystemLeaves(
        witnessed=frozenset(seen),
        possibly_empty=frozenset(bt.leaf_ids) - seen,
        samples_tested=len(states),
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

    The region route (status algebra, influence and pathways) and the
    delegation route (tick) are computed independently per point.  Violations
    are sorted canonically so reports are reproducible regardless of
    evaluation order.
    """
    states = _states(bt, points)
    report = RegionReport(samples_tested=len(states))
    for run, owned, walks in _runs(bt, states, walk=True):
        sole, shared, covered = _sole_owner(owned, len(run))
        for p in _points(shared):
            report.disjointness_violations.append(
                (run[p], tuple(leaf for leaf, mask in owned if mask >> p & 1)))
        for p in _points(~covered & ((1 << len(run)) - 1)):
            report.coverage_violations.append(run[p])
        for x, owner, (_, active) in zip(run, sole, walks):
            if owner >= 0 and owner != active:
                report.equivalence_violations.append((x, active, owner))
    report.disjointness_violations.sort()
    report.coverage_violations.sort()
    report.equivalence_violations.sort()
    return report


def region_table(bt: BehaviorTree, points) -> list:
    """Rows (x..., owner leaf id, root status letter) for a CSV dump.

    A root status that is not a Status, which a root leaf can answer, is a
    ValueError naming the lowest-index such point and that leaf."""
    rows = []
    for run, owned, walks in _runs(bt, _states(bt, points), walk=True):
        sole = _sole_owner(owned, len(run))[0]
        for x, owner, (status, leaf) in zip(run, sole, walks):
            if not isinstance(status, Status):
                raise ValueError(f"root status at {x!r} is not a Status: "
                                 f"leaf {leaf} answers {status!r}")
            rows.append((*x, owner, status.value))
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


def _finite_box(box: Seq) -> list:
    """box as [(lo, hi), ...] floats; a non-finite bound, or a width hi - lo
    past the float range, is a ValueError."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    for axis, bounds in enumerate(box):
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"box axis {axis} has a non-finite bound: {bounds!r}")
        if not math.isfinite(bounds[1] - bounds[0]):
            raise ValueError(f"box axis {axis} is wider than the float range: {bounds!r}")
    return box


def uniform_points(box: Seq, count: int, seed: int) -> np.ndarray:
    """count points uniform over the axis-aligned box [(lo, hi), ...]."""
    if count <= 0:
        raise EmptySampler("sample count must be positive")
    box = _finite_box(box)
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.random((count, len(box)))


def grid_points(box: Seq, per_axis: int) -> np.ndarray:
    """Regular grid with per_axis points on each axis, row-major order."""
    if per_axis <= 0:
        raise EmptySampler("grid resolution must be positive")
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in _finite_box(box)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _states(bt: BehaviorTree, points) -> list:
    """A point batch (one point, or rows of them) as states of bt: tuples of
    floats, validated once by bt.check_state (shape, then finiteness)."""
    pts = np.asarray(points, dtype=float)
    if not 0 < pts.ndim <= 2:
        raise DimensionMismatch(
            f"point batch has shape {pts.shape}, expected (count, {bt.state_dim})")
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise EmptySampler("no sample points supplied")
    states = [tuple(x) for x in pts.tolist()]
    # check row 0 for the shape every row shares, or the first non-finite row
    bad = (x for x in states if not all(map(math.isfinite, x)))
    bt.check_state(next(bad, states[0]))
    return states
