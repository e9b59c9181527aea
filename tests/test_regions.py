"""Pathways, influence/operating regions, partition audits, samplers."""

import itertools
import math

import numpy as np
import pytest

from conftest import bench_workloads, kitchen_bt, random_bt, thermostat_bt

from ctbt import dsl, regions
from ctbt.core import (
    BehaviorTree,
    DimensionMismatch,
    Fallback,
    Leaf,
    LeafBehavior,
    NonFiniteState,
    Sequence,
    Status,
)
from ctbt.regions import (
    EmptySampler,
    PathwaySets,
    RegionReport,
    SubsystemLeaves,
    check_partition,
    composed_status,
    grid_points,
    in_influence_region,
    in_operating_region,
    leaf_memberships,
    operating_owners,
    pathway_sets,
    region_csv,
    region_table,
    subsystem_leaves,
    uniform_points,
)
from ctbt.tree import InvalidNodeId, OrderedTree


def kitchen_samples():
    return np.concatenate([
        uniform_points([(-3, 3), (-3, 3)], 600, seed=11),
        grid_points([(-2.5, 2.5), (-2.5, 2.5)], 21),
    ])


def test_kitchen_pathways():
    pw = pathway_sets(kitchen_bt())
    assert set(pw.success) == {0, 2, 3, 4}
    assert set(pw.failure) == {0, 1, 2, 4}


def test_thermostat_pathways():
    pw = pathway_sets(thermostat_bt())
    assert set(pw.success) == {0, 4}
    assert set(pw.failure) == {0, 1, 3, 4}


def test_kitchen_influence_regions_closed_forms():
    bt = kitchen_bt()
    for x in kitchen_samples():
        s1 = bt.status(1, x) is Status.SUCCESS
        f3 = bt.status(3, x) is Status.FAILURE
        assert in_influence_region(bt, 2, x) == s1
        assert in_influence_region(bt, 3, x) == s1
        assert in_influence_region(bt, 4, x) == (s1 and f3)
        assert in_influence_region(bt, 0, x)
        assert in_influence_region(bt, 1, x)


def test_kitchen_operating_regions_closed_forms():
    bt = kitchen_bt()
    for x in kitchen_samples():
        status = {i: bt.status(i, x) for i in range(5)}
        s1 = status[1] is Status.SUCCESS
        omega1 = status[1] in (Status.RUNNING, Status.FAILURE)
        omega2 = s1 and status[2] in (Status.RUNNING, Status.SUCCESS)
        omega3 = s1
        omega4 = s1 and status[3] is Status.FAILURE
        assert in_operating_region(bt, 0, x)
        assert in_operating_region(bt, 1, x) == omega1
        assert in_operating_region(bt, 2, x) == omega2
        assert in_operating_region(bt, 3, x) == omega3
        assert in_operating_region(bt, 4, x) == omega4


def test_thermostat_operating_regions():
    bt = thermostat_bt()
    for v in np.linspace(11.0, 31.0, 101):
        x = np.array([v])
        assert in_operating_region(bt, 3, x) == (v <= 21.0)
        assert in_operating_region(bt, 4, x) == (v > 21.0)
        assert not in_operating_region(bt, 2, x)


def test_thermostat_subsystem_leaves():
    bt = thermostat_bt()
    pts = uniform_points([(11.0, 31.0)], 400, seed=3)
    out = subsystem_leaves(bt, pts)
    assert set(out.witnessed) == {3, 4}
    assert set(out.possibly_empty) == {2}
    assert out.samples_tested == 400


def test_kitchen_partition_report_passes():
    report = check_partition(kitchen_bt(), uniform_points([(-3, 3), (-3, 3)], 10_000, seed=5))
    assert report.passed
    assert report.samples_tested == 10_000
    assert report.to_dict()["passed"] is True


@pytest.mark.parametrize("build, point", [(thermostat_bt, [22.0]), (kitchen_bt, [0.5, -0.5])],
                         ids=["thermostat", "kitchen"])
def test_one_flat_point_is_a_batch_of_one(build, point):
    bt = build()
    report = check_partition(bt, point)
    assert report.samples_tested == 1 and report.passed
    assert report.to_dict() == check_partition(bt, [point]).to_dict()


def test_partition_and_owner_equivalence_on_random_trees():
    for seed, permute_ids in itertools.product(range(20), (False, True)):
        bt = random_bt(seed, permute_ids=permute_ids)
        pts = uniform_points([(-3, 3), (-3, 3)], 300, seed=900 + seed)
        report = check_partition(bt, pts)
        assert report.passed, f"tree seed {seed} ({permute_ids=}): {report.to_dict()}"


def test_sibling_operating_regions_partition_parent():
    """Children's operating regions tile the parent's, for every composite."""
    for seed in range(12):
        bt = random_bt(seed)
        composites = [i for i, k in enumerate(bt.kinds) if k != "leaf"]
        for x in uniform_points([(-3, 3), (-3, 3)], 150, seed=500 + seed):
            for c in composites:
                inside = in_operating_region(bt, c, x)
                owners = [
                    k.node_id for k in bt.nodes[c].children
                    if in_operating_region(bt, k.node_id, x)
                ]
                assert len(owners) == (1 if inside else 0)


def test_pathways_upward_closed():
    for seed in range(30):
        bt = random_bt(seed)
        pw = pathway_sets(bt)
        for i in range(1, len(bt.nodes)):
            p = bt.tree.parent[i]
            if i in pw.success:
                assert p in pw.success
            if i in pw.failure:
                assert p in pw.failure


def test_pathways_and_keeping_statuses_match_the_definition_on_random_trees():
    """Brute force from parent and children, without the uncle relations: a
    node is on the success (failure) pathway when no ancestor-or-self of it
    is a non-last child of a Sequence (Fallback).  Running always keeps
    execution at a node, Success only on the success pathway, Failure only
    on the failure pathway."""
    for seed in range(30):
        bt = random_bt(seed)
        parent, children = bt.tree.parent, bt.tree.children

        def on_pathway(i, kind):
            while parent[i] is not None:
                p = parent[i]
                if bt.kinds[p] == kind and children[p][-1] != i:
                    return False
                i = p
            return True

        nodes = range(len(bt.nodes))
        success = {i for i in nodes if on_pathway(i, "seq")}
        failure = {i for i in nodes if on_pathway(i, "fal")}
        pw = pathway_sets(bt)
        assert (pw.success, pw.failure) == (success, failure), f"tree seed {seed}"
        for x in uniform_points([(-3, 3), (-3, 3)], 40, seed=700 + seed):
            for i in nodes:
                keep = {Status.RUNNING}
                keep |= {Status.SUCCESS} if i in success else set()
                keep |= {Status.FAILURE} if i in failure else set()
                expected = in_influence_region(bt, i, x) and bt.status(i, x) in keep
                assert in_operating_region(bt, i, x) == expected


def test_influence_regions_nest_upward():
    for seed in range(12):
        bt = random_bt(seed)
        for x in uniform_points([(-3, 3), (-3, 3)], 100, seed=seed):
            for i in range(1, len(bt.nodes)):
                if in_influence_region(bt, i, x):
                    assert in_influence_region(bt, bt.tree.parent[i], x)


@pytest.mark.parametrize("call", [
    lambda bt, x: bt.behavior(-1),
    lambda bt, x: bt.behavior(True),
    lambda bt, x: bt.status(-1, x),
    lambda bt, x: composed_status(bt, 99, x),
    lambda bt, x: in_influence_region(bt, -1, x),
    lambda bt, x: in_operating_region(bt, 99, x),
], ids=["behavior-neg", "behavior-bool", "status-neg", "composed-99",
        "influence-neg", "operating-99"])
def test_public_node_id_arguments_pass_the_id_check(call):
    """A bool, negative or too-large id is refused, not read as a list index."""
    bt = dsl.load(dsl.resolve_model_path("kitchen_lamp.btm")).bt
    with pytest.raises(InvalidNodeId):
        call(bt, (0.0, 0.0))


@pytest.mark.parametrize("bad,error,message", [
    ((0.0, 0.0, 0.0), DimensionMismatch, r"state has shape \(3,\), expected \(2,\)$"),
    ((float("nan"), 0.0), NonFiniteState, r"state is not finite: \(nan, 0\.0\)$"),
], ids=["three-components", "nan"])
@pytest.mark.parametrize("call", [
    lambda bt, x: bt.status(0, x),
    lambda bt, x: composed_status(bt, 0, x),
    lambda bt, x: in_influence_region(bt, 1, x),
    lambda bt, x: in_operating_region(bt, 1, x),
    lambda bt, x: operating_owners(bt, x),
    lambda bt, x: leaf_memberships(bt, x),
], ids=["status", "composed", "influence", "operating", "owners", "memberships"])
def test_point_queries_validate_the_state(call, bad, error, message):
    """A state of the wrong shape or with a non-finite component is refused
    by the one state check, never answered or passed to generated code."""
    bt = dsl.load(dsl.resolve_model_path("kitchen_lamp.btm")).bt
    with pytest.raises(error, match=message):
        call(bt, bad)


def test_root_operating_region_is_everywhere():
    for seed in range(10):
        bt = random_bt(seed)
        for x in uniform_points([(-3, 3), (-3, 3)], 50, seed=seed):
            assert in_operating_region(bt, 0, x)
            assert len(operating_owners(bt, x)) == 1


def test_leaf_memberships_answer_the_point_queries_in_one_evaluation():
    """Every leaf's influence and operating membership, as the per-node
    queries give them, from one call of each leaf's metadata per state."""
    for seed in range(6):
        bt = random_bt(seed)
        for x in uniform_points([(-3, 3), (-3, 3)], 40, seed=seed):
            assert leaf_memberships(bt, x) == [
                (i, in_influence_region(bt, i, x), in_operating_region(bt, i, x))
                for i in bt.leaf_ids]
    calls = []

    def copy(node):
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, LeafBehavior(
                b.controller, lambda x, m=b.metadata: calls.append(x) or m(x), b.label))
        return type(node)(node.node_id, tuple(copy(c) for c in node.children))

    bt = BehaviorTree(copy(kitchen_bt().root), state_dim=2)
    assert leaf_memberships(bt, (1.5, 0.0)) == [(1, True, False), (3, True, True), (4, False, False)]
    assert len(calls) == len(bt.leaf_ids)


def test_region_table_names_a_root_status_that_is_not_a_status():
    """A root leaf answering None leaves points unowned, which the partition
    audit reports; the region table cannot print their root status and says
    where and from which leaf."""
    bt = BehaviorTree(Leaf(0, LeafBehavior(
        lambda x: (0.0,), lambda x: None if x[0] > 0.0 else Status.RUNNING)), state_dim=1)
    points = [[-1.0], [2.0], [0.5], [3.0]]
    assert check_partition(bt, points).coverage_violations == [(0.5,), (2.0,), (3.0,)]
    for dump in (region_table, region_csv):
        with pytest.raises(ValueError, match=r"^root status at \(2\.0,\) is not a Status: "
                                             r"leaf 0 answers None$"):
            dump(bt, points)


def test_impure_metadata_is_caught_and_sorted():
    """A stateful predicate breaks the purity contract; the audit records it."""
    flip = {"v": False}

    def toggling(x):
        flip["v"] = not flip["v"]
        return Status.SUCCESS if flip["v"] else Status.FAILURE

    bad = Leaf(1, LeafBehavior(lambda x: (0.0,), toggling, "toggler"))
    steady = Leaf(2, LeafBehavior(
        lambda x: (0.0,),
        lambda x: Status.RUNNING, "steady"))
    bt = BehaviorTree(Sequence(0, (bad, steady)), state_dim=1)
    report = check_partition(bt, uniform_points([(-1, 1)], 40, seed=0))
    assert not report.passed
    total = (len(report.disjointness_violations)
             + len(report.coverage_violations)
             + len(report.equivalence_violations))
    assert total > 0
    assert report.coverage_violations == sorted(report.coverage_violations)
    assert report.equivalence_violations == sorted(report.equivalence_violations)


def test_malformed_metadata_fails_alike_in_both_routes():
    """A leaf status that is not a Status puts x in none of its parent's
    composed regions; composed_status and the partition audit both say so.
    The delegation walk ends at such a value and hands it up unchanged."""
    bad = Leaf(1, LeafBehavior(lambda x: (0.0,), lambda x: "S", "letter"))
    steady = Leaf(2, LeafBehavior(lambda x: (0.0,), lambda x: Status.RUNNING, "steady"))
    bt = BehaviorTree(Sequence(0, (bad, steady)), state_dim=1)
    points = np.zeros((1, 1))
    assert bt.resolve(points[0]) == ("S", 1)
    assert bt.status(1, points[0]) == "S"
    with pytest.raises(AssertionError, match="composed regions of node 0 do not "
                                             "partition") as direct:
        composed_status(bt, 0, points[0])
    with pytest.raises(AssertionError) as audit:
        check_partition(bt, points)
    assert str(audit.value) == str(direct.value)


def test_uniform_points_deterministic_and_bounded():
    a = uniform_points([(0, 1), (-2, 2)], 50, seed=9)
    b = uniform_points([(0, 1), (-2, 2)], 50, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (50, 2)
    assert (a[:, 0] >= 0).all() and (a[:, 0] <= 1).all()
    assert (a[:, 1] >= -2).all() and (a[:, 1] <= 2).all()
    c = uniform_points([(0, 1), (-2, 2)], 50, seed=10)
    assert not np.array_equal(a, c)


def test_grid_points_shape_and_order():
    g = grid_points([(0, 1), (0, 2)], 3)
    assert g.shape == (9, 2)
    assert g[0].tolist() == [0.0, 0.0]
    assert g[1].tolist() == [0.0, 1.0]  # last axis varies fastest
    assert g[-1].tolist() == [1.0, 2.0]


def test_empty_sampler_errors():
    with pytest.raises(EmptySampler):
        uniform_points([(0, 1)], 0, seed=1)
    with pytest.raises(EmptySampler):
        grid_points([(0, 1)], 0)
    with pytest.raises(EmptySampler):
        check_partition(thermostat_bt(), np.zeros((0, 1)))


@pytest.mark.parametrize("audit", [check_partition, subsystem_leaves, region_table])
@pytest.mark.parametrize("points, error", [
    ([[0.0, 0.0, 0.0]], DimensionMismatch),
    ([[0.0, 0.0], [0.0, float("nan")]], NonFiniteState),
    ([[[0.0, 0.0]]], DimensionMismatch),
    (5.0, DimensionMismatch),
], ids=["wrong_dimension", "nan", "three_axes", "zero_axes"])
def test_point_batches_are_validated(audit, points, error):
    """Generated code would unpack a 3-vector into a raw ValueError, a
    non-finite row must not pass silently, and a batch with a third axis,
    or a bare number, is refused as a shape error rather than read row by
    row."""
    bt = dsl.load(dsl.bundled_model_dir() / "kitchen_lamp.btm").bt
    with pytest.raises(error):
        audit(bt, points)


def test_region_csv_round_trip():
    bt = thermostat_bt()
    text = region_csv(bt, grid_points([(20.0, 22.0)], 5))
    lines = text.strip().splitlines()
    assert lines[0] == "x0,owner_leaf_id,root_status"
    assert len(lines) == 6
    assert lines[1].endswith(",3,R")
    assert lines[-1].endswith(",4,R")


@pytest.mark.parametrize("sample", [
    lambda box: uniform_points(box, 3, seed=0),
    lambda box: grid_points(box, 3),
], ids=["uniform", "grid"])
@pytest.mark.parametrize("box, axis", [
    ([(-math.inf, 1.0), (-1.0, 1.0)], 0),
    ([(0.0, 1.0), (-1.0, math.nan)], 1),
], ids=["inf-low", "nan-high"])
def test_samplers_reject_non_finite_bounds(sample, box, axis):
    """A box bound that is not finite names its axis instead of giving
    NaN points and a numpy warning."""
    with pytest.raises(ValueError, match=rf"^box axis {axis} has a non-finite bound"):
        sample(box)


@pytest.mark.parametrize("sample", [
    lambda box: uniform_points(box, 3, seed=0),
    lambda box: grid_points(box, 3),
], ids=["uniform", "grid"])
def test_samplers_reject_a_box_wider_than_the_float_range(sample):
    """hi - lo of finite bounds can overflow; such an axis is named, where
    the samplers would make inf and NaN points with a numpy warning."""
    with pytest.raises(ValueError) as e:
        sample([(0.0, 1.0), (-1e308, 1e308)])
    assert str(e.value) == "box axis 1 is wider than the float range: (-1e+308, 1e+308)"
    inside = sample([(-8e307, 8e307)])  # a width of 1.6e308 is in range
    assert ((-8e307 <= inside) & (inside <= 8e307)).all()


# ---------------------------------------------------------------------------
# The region route against a per-point reference.  The reference applies
# the paper's definitions literally, one point and one node at a time: a
# composite takes the first child status that is not its gate status (else
# the gate status), the influence region reads the left siblings of every
# ancestor-or-self, and the keeping statuses follow from the right ones.

BATCH_SIZES = (1, 63, 64, 65, 257)  # across the 64-bit word boundaries of a mask
_GATES = {"seq": Status.SUCCESS, "fal": Status.FAILURE}


def _reference_statuses(bt, x) -> dict:
    """Status of every node at x, leaves evaluated left to right."""
    out = {}

    def visit(node):
        if isinstance(node, Leaf):
            out[node.node_id] = node.behavior.metadata(x)
            return
        for child in node.children:
            visit(child)
        gate = Status.SUCCESS if isinstance(node, Sequence) else Status.FAILURE
        out[node.node_id] = next(
            (out[c.node_id] for c in node.children if out[c.node_id] is not gate), gate)

    visit(bt.root)
    return out


def _reference_regions(bt, statuses) -> tuple:
    """(influence, operating, success pathway, failure pathway) flags per node."""
    parent, children, kinds = bt.tree.parent, bt.tree.children, bt.kinds
    influence, operating, success, failure = {}, {}, set(), set()
    for i in range(len(bt.nodes)):
        inside = on_success = on_failure = True
        a = i
        while parent[a] is not None:
            p = parent[a]
            sibs = children[p]
            pos = sibs.index(a)
            inside &= all(statuses[j] is _GATES[kinds[p]] for j in sibs[:pos])
            if pos < len(sibs) - 1:
                on_success &= kinds[p] != "seq"
                on_failure &= kinds[p] != "fal"
            a = p
        keep = {Status.RUNNING}
        if on_success:
            success.add(i)
            keep.add(Status.SUCCESS)
        if on_failure:
            failure.add(i)
            keep.add(Status.FAILURE)
        influence[i] = inside
        operating[i] = inside and any(statuses[i] is s for s in keep)
    return influence, operating, success, failure


def _reference_owners(bt, x) -> tuple:
    operating = _reference_regions(bt, _reference_statuses(bt, x))[1]
    return tuple(i for i in bt.leaf_ids if operating[i])


def _reference_audit(bt, points) -> tuple:
    """check_partition's report dict and region_table's rows, point by
    point in the audit's call order: the leaves, then the delegation walk."""
    report, rows = RegionReport(samples_tested=len(points)), []
    for x in points:
        x = tuple(float(v) for v in x)
        owners = _reference_owners(bt, x)
        status, active = bt.resolve(x)
        if len(owners) > 1:
            report.disjointness_violations.append((x, owners))
        elif not owners:
            report.coverage_violations.append(x)
        elif owners[0] != active:
            report.equivalence_violations.append((x, active, owners[0]))
        rows.append((*x, owners[0] if len(owners) == 1 else -1, getattr(status, "value", None)))
    report.disjointness_violations.sort()
    report.coverage_violations.sort()
    report.equivalence_violations.sort()
    return report.to_dict(), rows


def _flaky_copy(bt, every=5) -> BehaviorTree:
    """bt with impure metadata: every every-th metadata call of the tree
    answers the status after the true one (R -> S -> F -> R).  Two copies
    called in the same order answer alike, so audits of such trees, whose
    delegation walk disagrees with the region owner at many points, can be
    compared with the reference."""
    calls = [0]
    after = {Status.RUNNING: Status.SUCCESS, Status.SUCCESS: Status.FAILURE,
             Status.FAILURE: Status.RUNNING}

    def copy(node):
        if isinstance(node, Leaf):
            def flaky(x, metadata=node.behavior.metadata):
                calls[0] += 1
                status = metadata(x)
                return after[status] if calls[0] % every == 0 else status

            return Leaf(node.node_id, LeafBehavior(node.behavior.controller, flaky))
        return type(node)(node.node_id, tuple(copy(c) for c in node.children))

    return BehaviorTree(copy(bt.root), state_dim=bt.state_dim)


@pytest.mark.parametrize("run", [None, 64], ids=["one-run", "runs-of-64"])
@pytest.mark.parametrize("permute_ids", [False, True], ids=["dfs-ids", "permuted-ids"])
def test_batch_audits_match_the_per_point_reference(permute_ids, run, monkeypatch):
    """check_partition, region_table and subsystem_leaves against the
    reference, on pure trees and on impure copies whose audits fail, with
    the batch evaluated whole or in runs of 64 points.  A partition
    violation needs impure metadata or a status that is not a Status: the
    algebra partitions any one consistent status table."""
    if run is not None:
        monkeypatch.setattr(regions, "_RUN", run)
    kinds_seen = set()
    for seed in range(8):
        bt = random_bt(seed, permute_ids=permute_ids)
        for size in BATCH_SIZES:
            points = uniform_points([(-3, 3), (-3, 3)], size, seed=[seed, size])
            report, rows = _reference_audit(bt, points)
            assert check_partition(bt, points).to_dict() == report
            assert region_table(bt, points) == rows
            owned = [_reference_owners(bt, tuple(x)) for x in points.tolist()]
            witnessed = {i for owners in owned for i in owners}
            assert subsystem_leaves(bt, points) == SubsystemLeaves(
                frozenset(witnessed), frozenset(bt.leaf_ids) - witnessed, size)
            report, rows = _reference_audit(_flaky_copy(bt), points)
            assert check_partition(_flaky_copy(bt), points).to_dict() == report, (seed, size)
            assert region_table(_flaky_copy(bt), points) == rows, (seed, size)
            kinds_seen.update(k for k, v in report.items() if k.endswith("violations") and v)
    # a root leaf whose status is not a Status at some points owns none of them
    bt = BehaviorTree(Leaf(0, LeafBehavior(
        lambda x: (0.0,), lambda x: None if x[0] > 1.0 else Status.RUNNING)), state_dim=2)
    for size in BATCH_SIZES[1:]:
        points = uniform_points([(-3, 3), (-3, 3)], size, seed=size)
        report = _reference_audit(bt, points)[0]
        assert check_partition(bt, points).to_dict() == report
        kinds_seen.update(k for k, v in report.items() if k.endswith("violations") and v)
    # one status table always partitions; only the walk's second look at
    # impure metadata, or a status no composite consults, can disagree
    assert kinds_seen == {"equivalence_violations", "coverage_violations"}


@pytest.mark.parametrize("permute_ids", [False, True], ids=["dfs-ids", "permuted-ids"])
def test_point_queries_match_the_per_point_reference(permute_ids):
    """pathway_sets, composed_status, in_influence_region,
    in_operating_region and operating_owners against the reference."""
    for seed in range(12):
        bt = random_bt(seed, permute_ids=permute_ids)
        nodes = range(len(bt.nodes))
        composites = [i for i in nodes if bt.kinds[i] != "leaf"]
        for x in uniform_points([(-3, 3), (-3, 3)], 25, seed=[seed, 1]).tolist():
            statuses = _reference_statuses(bt, x)
            influence, operating, success, failure = _reference_regions(bt, statuses)
            assert pathway_sets(bt) == PathwaySets(frozenset(success), frozenset(failure))
            assert [composed_status(bt, i, x) for i in composites] == [
                statuses[i] for i in composites]
            assert [in_influence_region(bt, i, x) for i in nodes] == [
                influence[i] for i in nodes]
            assert [in_operating_region(bt, i, x) for i in nodes] == [
                operating[i] for i in nodes]
            assert operating_owners(bt, x) == [i for i in bt.leaf_ids if operating[i]]


@pytest.mark.parametrize("permute_ids", [False, True], ids=["dfs-ids", "permuted-ids"])
def test_the_region_route_reads_no_uncle_relation(permute_ids, monkeypatch):
    """Influence and pathways compose one level at a time, so every region
    query answers as the reference with the tree's uncle relations
    unreadable."""
    def unreadable(self, i):
        raise AssertionError("the region route read an uncle relation")

    for name in ("left_uncles", "right_uncles", "ancestors_or_self"):
        monkeypatch.setattr(OrderedTree, name, unreadable)
    for seed in range(8):
        bt = random_bt(seed, permute_ids=permute_ids)
        nodes = range(len(bt.nodes))
        points = uniform_points([(-3, 3), (-3, 3)], 65, seed=[seed, 2])
        report, rows = _reference_audit(bt, points)
        assert check_partition(bt, points).to_dict() == report
        assert region_table(bt, points) == rows
        witnessed = {i for x in points.tolist() for i in _reference_owners(bt, tuple(x))}
        assert subsystem_leaves(bt, points) == SubsystemLeaves(
            frozenset(witnessed), frozenset(bt.leaf_ids) - witnessed, len(points))
        for x in points[:20].tolist():
            influence, operating, success, failure = _reference_regions(
                bt, _reference_statuses(bt, x))
            assert pathway_sets(bt) == PathwaySets(frozenset(success), frozenset(failure))
            assert [in_influence_region(bt, i, x) for i in nodes] == [
                influence[i] for i in nodes]
            assert [in_operating_region(bt, i, x) for i in nodes] == [
                operating[i] for i in nodes]
            assert operating_owners(bt, x) == [i for i in bt.leaf_ids if operating[i]]
            assert leaf_memberships(bt, x) == [
                (i, influence[i], operating[i]) for i in bt.leaf_ids]


def _delegation_visits(node, x) -> tuple:
    """(status, leaf ids whose metadata delegation evaluates, in order)."""
    if isinstance(node, Leaf):
        return node.behavior.metadata(x), [node.node_id]
    skip = Status.SUCCESS if isinstance(node, Sequence) else Status.FAILURE
    visits = []
    for child in node.children:
        status, seen = _delegation_visits(child, x)
        visits += seen
        if status is not skip:
            break
    return status, visits


def test_check_partition_calls_metadata_point_by_point_then_walks():
    """Per point: every leaf's metadata left to right (not in id order),
    then the delegation walk; impure-metadata audits depend on this order."""
    log = []

    def leaf(i, a, b):
        def metadata(x):
            log.append((i, x))
            v = a * x[0] + b * x[1]
            return Status.SUCCESS if v > 0.5 else Status.FAILURE if v < -0.5 else Status.RUNNING

        return Leaf(i, LeafBehavior(lambda x: (0.0,), metadata, f"leaf{i}"))

    root = Fallback(0, (
        Sequence(4, (leaf(6, 1.0, 0.0), leaf(2, 0.0, 1.0))),
        leaf(5, 1.0, 1.0),
        Sequence(1, (leaf(7, -1.0, 0.0), leaf(3, 0.0, -1.0)))))
    bt = BehaviorTree(root, state_dim=2)
    walk = bt.resolve

    def logged_walk(x):
        log.append(("walk", x))
        return walk(x)

    bt.resolve = logged_walk
    points = uniform_points([(-2, 2), (-2, 2)], 65, seed=3)
    check_partition(bt, points)
    calls, expected = list(log), []
    for x in points.tolist():
        x = tuple(x)
        expected += [(i, x) for i in (6, 2, 5, 7, 3)] + [("walk", x)]
        expected += [(i, x) for i in _delegation_visits(root, x)[1]]
    assert calls == expected


def test_auditing_a_bank_tree_compiles_no_walk(monkeypatch):
    """A region_audit operation on its 44-leaf bank tree, check_partition of
    256 points and the 16 probes, keeps the row-table walk: compiling the
    generated one would cost more than its 272 walks save."""
    wl = bench_workloads().WORKLOADS["region_audit"]
    text, leaves = wl.bank()["t9.0"]
    assert leaves == 44

    def no_walk(bt):
        raise AssertionError("compiled a walk")

    monkeypatch.setattr(dsl, "_walk_function", no_walk)
    bt = dsl.lower(dsl.parse(text)).bt
    assert check_partition(bt, wl.points(1, 0, "t9.0")).passed
    for x in wl.PROBES:
        bt.active_leaf(x)
    assert bt._hot_walk is None


def test_subsystem_leaves_stops_soon_after_every_leaf_is_witnessed():
    """A batch whose first point witnesses every leaf costs one metadata
    call per leaf; one whose last leaf is witnessed at point p costs fewer
    than 2 (p + 1) calls per leaf, not one per point of the batch."""
    calls = []

    def counted(status_of):
        def metadata(x):
            calls.append(x)
            return status_of(x)

        return metadata

    lone = BehaviorTree(Leaf(0, LeafBehavior(
        lambda x: (0.0,), counted(lambda x: Status.RUNNING))), state_dim=1)
    out = subsystem_leaves(lone, [[0.0]] * 5000)
    assert (out.witnessed, out.samples_tested, len(calls)) == (frozenset({0}), 5000, 1)
    # leaf 1 owns x < 0, leaf 2 the rest; only point p has x >= 0
    two = BehaviorTree(Fallback(0, (
        Leaf(1, LeafBehavior(lambda x: (0.0,), counted(
            lambda x: Status.RUNNING if x[0] < 0 else Status.FAILURE))),
        Leaf(2, LeafBehavior(lambda x: (0.0,), counted(lambda x: Status.RUNNING))))),
        state_dim=1)
    for p in (1, 5, 6, 7, 100, 5000):
        calls.clear()
        points = [[-1.0]] * 6000
        points[p] = [1.0]
        assert subsystem_leaves(two, points).witnessed == frozenset({1, 2})
        assert p + 1 <= len(calls) / 2 < 2 * (p + 1), p


def _switching_leaf(i, bad_at, fallback_status):
    """A leaf answering "S" (not a Status) at the x0 values in bad_at."""
    return Leaf(i, LeafBehavior(
        lambda x: (0.0,),
        lambda x: "S" if x[0] in bad_at else fallback_status, f"leaf{i}"))


@pytest.mark.parametrize("run", [None, 2], ids=["one-run", "runs-of-2"])
def test_malformed_status_error_names_the_first_point_it_is_consulted_at(run, monkeypatch):
    """The error names the lowest-index point where a consulted status is
    not a Status, and equals composed_status's error at that point alone,
    also when that point is not in the batch's first run."""
    if run is not None:
        monkeypatch.setattr(regions, "_RUN", run)
    bt = BehaviorTree(Sequence(0, (
        _switching_leaf(1, {0.7, 0.9}, Status.SUCCESS),
        Leaf(2, LeafBehavior(lambda x: (0.0,), lambda x: Status.RUNNING)))), state_dim=1)
    points = [[0.0], [0.2], [0.9], [0.7]]
    for audit in (check_partition, region_table, subsystem_leaves):
        with pytest.raises(AssertionError) as batch:
            audit(bt, points)
        with pytest.raises(AssertionError) as single:
            composed_status(bt, 0, points[2])
        assert str(batch.value) == str(single.value)
        assert str(single.value) == ("composed regions of node 0 do not partition "
                                     "at (0.9,): child status 'S'")


def test_malformed_statuses_at_two_composites_name_the_earlier_point():
    """Malformed at node 1 from point 3 and at node 4 from point 1: point 1
    wins.  Where both are malformed at one point, node 1, first in
    post-order, is named.  A malformed status no composite consults is
    never an error."""
    bt = BehaviorTree(Sequence(0, (
        Fallback(1, (_switching_leaf(2, {0.3, 0.5}, Status.FAILURE),
                     Leaf(3, LeafBehavior(lambda x: (0.0,), lambda x: Status.SUCCESS)))),
        Fallback(4, (_switching_leaf(5, {0.1, 0.5}, Status.FAILURE),
                     Leaf(6, LeafBehavior(lambda x: (0.0,), lambda x: Status.RUNNING)))),
        _switching_leaf(7, {0.0, 0.1, 0.2, 0.3, 0.5}, Status.RUNNING))), state_dim=1)
    for points, named in (([[0.0], [0.1], [0.2], [0.3]], 1), ([[0.0], [0.5]], 1)):
        with pytest.raises(AssertionError) as batch:
            check_partition(bt, points)
        with pytest.raises(AssertionError) as single:
            composed_status(bt, 0, points[named])
        assert str(batch.value) == str(single.value)
    assert "node 4 do not partition at (0.1,)" in str(
        pytest.raises(AssertionError, check_partition, bt, [[0.1]]).value)
    assert "node 1 do not partition at (0.5,)" in str(
        pytest.raises(AssertionError, check_partition, bt, [[0.5]]).value)
