"""Certificate pipeline: prepares graph, acyclicity, dwell times, verdicts."""

import json
import math
import random

import numpy as np
import pytest

from ctbt import dsl
from ctbt.convergence import (
    ConvergenceCertificate,
    EmptyBatch,
    MixedModels,
    PreparesGraph,
    build_prepares_graph,
    certify,
    check_acyclic,
    check_lambda_invariance,
    dwell_times,
    longest_chain,
    reachable_sets,
)
from ctbt.core import (
    BehaviorTree,
    Fallback,
    Leaf,
    LeafBehavior,
    Plant,
    Sequence,
    Status,
)
from ctbt.executor import (
    Event,
    FailedRun,
    IntegratorConfig,
    Sample,
    Trajectory,
    batch_integrate,
)

from conftest import SETPOINT, thermostat_bt, thermostat_plant


# ----------------------------------------------------- hand-built micro data

def samp(t, leaf, status="R", x=(0.0,)):
    return Sample(t=t, x=tuple(x), leaf=leaf, status=Status(status))


def switch(t, a, b):
    return Event(t=t, kind="Switch", x=(0.0,), info={"from": a, "to": b})


def traj(samples, events=(), model="toy"):
    return Trajectory(meta={"model": model}, samples=tuple(samples),
                      events=tuple(events))


def graph_of(edges, nodes=None, terminal=None):
    if nodes is None:
        nodes = sorted({n for e in edges for n in e})
    return PreparesGraph(nodes=tuple(nodes),
                         edges={e: 1 for e in edges},
                         terminal_counts=terminal or {})


# ----------------------------------------------------------- graph building

def test_build_graph_counts_switches_and_terminals():
    runs = [
        traj([samp(0.0, 1), samp(1.0, 2), samp(2.0, 2, "S")],
             [switch(1.0, 1, 2)]),
        traj([samp(0.0, 1), samp(1.0, 2), samp(2.0, 2, "S")],
             [switch(1.0, 1, 2)]),
        traj([samp(0.0, 2, "S")]),
    ]
    g = build_prepares_graph(runs)
    assert g.nodes == (1, 2)
    assert g.edges == {(1, 2): 2}
    assert g.terminal_counts == {2: {"S": 3}}
    assert g.successors(1) == (2,)
    assert g.successors(2) == ()
    assert g.sinks() == (2,)


def test_build_graph_skips_failed_runs():
    runs = [
        traj([samp(0.0, 1, "S")]),
        FailedRun(1, (0.0,), "NonFiniteState", "blew up"),
    ]
    g = build_prepares_graph(runs)
    assert g.nodes == (1,)


def test_build_graph_empty_batch():
    with pytest.raises(EmptyBatch):
        build_prepares_graph([])
    with pytest.raises(EmptyBatch):
        build_prepares_graph([FailedRun(0, (0.0,), "NonFiniteState", "")])


def test_build_graph_rejects_mixed_models():
    runs = [
        traj([samp(0.0, 1, "S")], model="a"),
        traj([samp(0.0, 1, "S")], model="b"),
    ]
    with pytest.raises(MixedModels):
        build_prepares_graph(runs)


# -------------------------------------------------------------- acyclicity

def test_topological_order_is_deterministic():
    g = graph_of([(0, 1), (0, 2), (1, 3), (2, 3)])
    ok, order = check_acyclic(g)
    assert ok
    assert order == (0, 1, 2, 3)


def test_cycle_witness_two_nodes():
    g = graph_of([(3, 4), (4, 3)])
    ok, cycle = check_acyclic(g)
    assert not ok
    assert set(cycle) == {3, 4}


def test_cycle_witness_self_loop():
    g = graph_of([(5, 5)])
    ok, cycle = check_acyclic(g)
    assert not ok
    assert cycle == (5,)


def test_cycle_witness_with_dangling_branch():
    # node 0 hangs off the cycle with no successors of its own; the witness
    # walk must not start there
    g = graph_of([(1, 2), (2, 1), (1, 0)])
    ok, cycle = check_acyclic(g)
    assert not ok
    assert set(cycle) == {1, 2}


def test_isolated_node_is_its_own_chain():
    g = graph_of([], nodes=[7])
    ok, order = check_acyclic(g)
    assert ok and order == (7,)
    assert longest_chain(g, {7: 2.5}) == (1, 2.5)


def brute_force_chains(g, weights):
    """Enumerate every chain by depth-first walk; exponential but exact."""
    best_n, best_w = 0, 0.0

    def walk(node, n, w):
        nonlocal best_n, best_w
        best_n = max(best_n, n)
        best_w = max(best_w, w)
        for m in g.successors(node):
            walk(m, n + 1, w + weights.get(m, 0.0))

    for n in g.nodes:
        walk(n, 1, weights.get(n, 0.0))
    return best_n, best_w


@pytest.mark.parametrize("seed", range(12))
def test_longest_chain_matches_brute_force(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 9)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)
             if rng.random() < 0.4]
    g = graph_of(edges, nodes=range(k))
    weights = {n: rng.uniform(0.1, 3.0) for n in range(k)}
    got_n, got_w = longest_chain(g, weights)
    want_n, want_w = brute_force_chains(g, weights)
    assert got_n == want_n
    assert got_w == pytest.approx(want_w)


def test_longest_chain_of_an_empty_graph():
    assert longest_chain(graph_of([], nodes=[]), {}) == (0, 0.0)


def test_longest_chain_rejects_cycles():
    with pytest.raises(ValueError):
        longest_chain(graph_of([(1, 2), (2, 1)]), {})


def test_reachable_sets_are_reflexive_transitive():
    g = graph_of([(1, 2), (2, 3)])
    reach = reachable_sets(g)
    assert reach[1] == {1, 2, 3}
    assert reach[2] == {2, 3}
    assert reach[3] == {3}


# ------------------------------------------------------------- order rescans

def test_lambda_scan_accepts_forward_handoffs():
    runs = [traj([samp(0.0, 1), samp(1.0, 2), samp(2.0, 2, "S")],
                 [switch(1.0, 1, 2)])]
    g = build_prepares_graph(runs)
    assert check_lambda_invariance(g, runs) == ()


def test_lambda_scan_flags_backward_handoff():
    # second run revisits leaf 1 without any switch event recording it, so
    # the graph gives it no licence: 2 cannot reach 1
    runs = [
        traj([samp(0.0, 1), samp(1.0, 2, "S")], [switch(1.0, 1, 2)]),
        traj([samp(0.0, 1), samp(1.0, 2), samp(2.0, 1), samp(3.0, 1, "S")],
             [switch(1.0, 1, 2)]),
    ]
    g = build_prepares_graph(runs)
    violations = check_lambda_invariance(g, runs)
    assert len(violations) == 1
    v = violations[0]
    assert (v.trajectory, v.kind, v.from_leaf, v.to_leaf) == (1, "order", 2, 1)
    assert v.t == 2.0
    cert = certify(runs)
    assert not cert.passed
    assert len(cert.lambda_violations) == 1


def test_certificate_dict_lists_each_lambda_violation():
    runs = [traj([samp(0.0, 1), samp(1.0, 2), samp(2.0, 1, x=(0.5,)), samp(3.0, 1, "S")],
                 [switch(1.0, 1, 2)])]
    cert = certify(runs)
    assert cert.to_dict()["lambda_violations"] == [
        {"trajectory": 0, "t": 2.0, "kind": "order", "from": 2, "to": 1, "x": [0.5]}]
    assert json.loads(cert.to_json())["lambda_violations"] == cert.to_dict()["lambda_violations"]


def test_lambda_scan_flags_root_failure_once():
    runs = [traj([samp(0.0, 1), samp(1.0, 1, "F"), samp(2.0, 1, "F")])]
    g = build_prepares_graph(runs)
    violations = check_lambda_invariance(g, runs)
    assert len(violations) == 1
    assert violations[0].kind == "root_failure"
    assert violations[0].t == 1.0


# -------------------------------------------------------------- dwell times

def test_dwell_stint_closed_by_success_sample():
    # the success sample bounds the stint; the post-success tail never counts
    runs = [traj([samp(0.0, 1), samp(1.0, 1), samp(1.5, 1, "S"),
                  samp(2.5, 1, "S")])]
    assert dwell_times(runs) == {1: 1.5}


def test_dwell_takes_worst_case_across_runs():
    runs = [
        traj([samp(0.0, 1), samp(2.0, 1), samp(2.5, 2, "S")]),
        traj([samp(0.0, 1), samp(0.5, 1), samp(1.0, 2), samp(4.0, 2),
              samp(4.5, 2, "S")]),
    ]
    dw = dwell_times(runs)
    assert dw[1] == pytest.approx(2.5)
    assert dw[2] == pytest.approx(3.5)


def test_dwell_extends_to_the_closing_sample():
    runs = [traj([samp(0.0, 1), samp(1.0, 2), samp(1.0, 3), samp(2.0, 3),
                  samp(2.0, 3, "S")])]
    dw = dwell_times(runs)
    assert dw[1] == pytest.approx(1.0)
    assert dw[2] == 0.0
    assert dw[3] == pytest.approx(1.0)


# --------------------------------------------------- verdicts on micro data

def test_certificate_vetoed_by_failed_run():
    runs = [
        traj([samp(0.0, 1), samp(1.0, 1, "S")]),
        FailedRun(1, (float("nan"),), "NonFiniteState", "diverged"),
    ]
    cert = certify(runs)
    assert not cert.passed
    assert cert.assessed == 1
    assert len(cert.unassessed) == 1
    doc = cert.to_dict()
    assert doc["unassessed"][0]["error"] == "NonFiniteState"


def test_certificate_vetoed_by_running_terminal():
    runs = [traj([samp(0.0, 1), samp(1.0, 1)])]
    cert = certify(runs)
    assert not cert.passed
    assert cert.acyclic


def test_certificate_requires_terminal_visit_at_each_sink():
    # run ends at leaf 1 while the graph says 1 prepares 2; sink 2 was
    # never reached terminally, so success at 1 is not enough
    runs = [
        traj([samp(0.0, 1), samp(1.0, 2), samp(2.0, 2, "S")],
             [switch(1.0, 1, 2)]),
        traj([samp(0.0, 1), samp(1.0, 1, "S")]),
    ]
    cert = certify(runs)
    assert cert.passed  # sink 2 did get a terminal success in run 0
    only_first = certify(runs[1:])
    assert only_first.passed  # alone, leaf 1 is itself the sink
    assert only_first.graph.sinks() == (1,)


# --------------------------------------------------------- planted scenario

def lamp_retry_bt():
    """Seq[reach_kitchen, Fal[lamp_a, lamp_b]] over a 3-state integrator.

    x0 is the position, x1 the first lamp's brightness, x2 the second's.
    Starting near x0 = 2.5 makes lamp_a dim instead of brighten, so it
    fails over to lamp_b; starting with x1 = -1 skips lamp_a outright.
    Ids: 0 seq, 1 reach_kitchen, 2 fal, 3 lamp_a, 4 lamp_b.
    """
    def kitchen_status(x):
        return Status.SUCCESS if x[0] >= 1.0 else Status.RUNNING

    def lamp_a_status(x):
        if x[1] >= 1.0:
            return Status.SUCCESS
        if x[1] <= -0.5:
            return Status.FAILURE
        return Status.RUNNING

    def lamp_b_status(x):
        return Status.SUCCESS if x[2] >= 1.0 else Status.RUNNING

    go = Leaf(1, LeafBehavior(lambda x: (1.0, 0.0, 0.0), kitchen_status,
                              "reach_kitchen"))
    lamp_a = Leaf(3, LeafBehavior(
        lambda x: (0.0, math.copysign(1.0, 2.0 - x[0]), 0.0),
        lamp_a_status, "lamp_a"))
    lamp_b = Leaf(4, LeafBehavior(lambda x: (0.0, 0.0, 1.0), lamp_b_status,
                                  "lamp_b"))
    return BehaviorTree(
        Sequence(0, (go, Fallback(2, (lamp_a, lamp_b)))), state_dim=3)


@pytest.fixture(scope="module")
def lamp_retry_runs():
    plant = Plant(3, 3, lambda x, u: np.asarray(u, dtype=float))
    cfg = IntegratorConfig(dt=0.01, t_end=5.0)
    inits = [[0.0, 0.0, 0.0], [2.5, 0.0, 0.0], [0.0, -1.0, 0.0]]
    return batch_integrate(plant, lamp_retry_bt(), inits, cfg,
                           model_name="lamp_retry")


def test_lamp_retry_graph_shape(lamp_retry_runs):
    g = build_prepares_graph(lamp_retry_runs)
    assert g.nodes == (1, 3, 4)
    assert set(g.edges) == {(1, 3), (1, 4), (3, 4)}
    assert all(c == 1 for c in g.edges.values())
    assert g.sinks() == (4,)
    ok, order = check_acyclic(g)
    assert ok and order == (1, 3, 4)


def test_lamp_retry_certificate(lamp_retry_runs):
    cert = certify(lamp_retry_runs)
    assert cert.passed
    assert cert.model == "lamp_retry"
    assert cert.chain_length == 3
    # each leg takes about a second: drive to the kitchen, brighten a lamp
    assert cert.dwell[1] == pytest.approx(1.0, abs=0.02)
    assert cert.dwell[3] == pytest.approx(1.0, abs=0.02)
    assert cert.dwell[4] == pytest.approx(1.0, abs=0.02)
    assert cert.settle_time_bound == pytest.approx(3.0, abs=0.05)
    assert cert.lambda_violations == ()
    doc = cert.to_dict()
    assert doc["terminal_counts"] == {"3": {"S": 1}, "4": {"S": 2}}


# -------------------------------------------------------- thermostat verdict

def test_thermostat_cannot_be_certified():
    cfg = IntegratorConfig(dt=0.01, t_end=6.0)
    runs = batch_integrate(thermostat_plant(), thermostat_bt(),
                           [[SETPOINT - 2.0], [SETPOINT + 3.0]], cfg,
                           model_name="thermostat")
    cert = certify(runs)
    assert not cert.passed
    # pre-sliding chatter switches both ways across the setpoint
    assert not cert.acyclic
    assert set(cert.cycle) == {3, 4}
    assert cert.chain_length is None
    assert cert.settle_time_bound is None
    # regulation never reports done: every run ends still RUNNING
    doc = cert.to_dict()
    statuses = {s for counts in doc["terminal_counts"].values() for s in counts}
    assert statuses == {"R"}


# ---------------------------------------------------------- pendulum verdict

@pytest.fixture(scope="module")
def pendulum():
    return dsl.load(dsl.bundled_model_dir() / "pendulum.btm")


PENDULUM_INITS = [(2.0, 0.0), (-1.5, 1.0), (math.pi - 0.3, 0.0), (0.1, 0.0)]


def pendulum_batch(model):
    cfg = IntegratorConfig(dt=0.004, t_end=20.0)
    return batch_integrate(model.plant, model.bt, PENDULUM_INITS, cfg,
                           model_name="pendulum")


def test_pendulum_certificate(pendulum):
    cert = certify(pendulum_batch(pendulum))
    assert cert.passed
    assert cert.assessed == 4
    assert cert.unassessed == ()
    assert cert.graph.nodes == (1, 2)
    assert set(cert.graph.edges) == {(1, 2)}
    assert cert.graph.edges[(1, 2)] == 3  # the upright start never switches
    assert cert.acyclic
    assert cert.topological_order == (1, 2)
    assert cert.chain_length == 2
    assert cert.lambda_violations == ()
    # worst swing-up stint and worst balance stint, per the frozen oracle
    assert cert.dwell[1] == pytest.approx(6.67, abs=0.1)
    assert cert.dwell[2] == pytest.approx(8.8615 - 3.5875, abs=0.1)
    assert cert.settle_time_bound == pytest.approx(6.67 + 5.274, abs=0.2)
    doc = cert.to_dict()
    assert doc["terminal_counts"] == {"2": {"S": 4}}


def test_pendulum_certificate_is_deterministic(pendulum):
    a = certify(pendulum_batch(pendulum))
    b = certify(pendulum_batch(pendulum))
    assert a.to_json() == b.to_json()
    doc = json.loads(a.to_json())
    assert doc["passed"] is True
    assert doc["nodes"] == [1, 2]
    assert doc["edges"] == [{"from": 1, "to": 2, "count": 3}]


def test_certificate_note_marks_empirical_scope():
    runs = [traj([samp(0.0, 1, "S")])]
    cert = certify(runs)
    assert "not a proof" in cert.note
    assert isinstance(cert, ConvergenceCertificate)
    assert cert.to_dict()["note"] == cert.note
