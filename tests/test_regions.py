"""Pathways, influence/operating regions, partition audits, samplers."""

import numpy as np
import pytest

from conftest import kitchen_bt, random_bt, thermostat_bt

from ctbt import dsl
from ctbt.core import (
    BehaviorTree,
    DimensionMismatch,
    Leaf,
    LeafBehavior,
    NonFiniteState,
    Sequence,
    Status,
    composed_status,
)
from ctbt.regions import (
    EmptySampler,
    check_partition,
    grid_points,
    in_influence_region,
    in_operating_region,
    operating_owners,
    pathway_sets,
    region_csv,
    region_table,
    subsystem_leaves,
    uniform_points,
)
from ctbt.tree import InvalidNodeId


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


def test_partition_and_owner_equivalence_on_random_trees():
    for seed in range(20):
        bt = random_bt(seed)
        pts = uniform_points([(-3, 3), (-3, 3)], 300, seed=900 + seed)
        report = check_partition(bt, pts)
        assert report.passed, f"tree seed {seed}: {report.to_dict()}"


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


def test_root_operating_region_is_everywhere():
    for seed in range(10):
        bt = random_bt(seed)
        for x in uniform_points([(-3, 3), (-3, 3)], 50, seed=seed):
            assert in_operating_region(bt, 0, x)
            assert len(operating_owners(bt, x)) == 1


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
    composed regions; composed_status and the partition audit both say so."""
    bad = Leaf(1, LeafBehavior(lambda x: (0.0,), lambda x: "S", "letter"))
    steady = Leaf(2, LeafBehavior(lambda x: (0.0,), lambda x: Status.RUNNING, "steady"))
    bt = BehaviorTree(Sequence(0, (bad, steady)), state_dim=1)
    points = np.zeros((1, 1))
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
], ids=["wrong_dimension", "nan"])
def test_point_batches_are_validated(audit, points, error):
    """Generated code would unpack a 3-vector into a raw ValueError, and a
    non-finite row must not pass silently."""
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
