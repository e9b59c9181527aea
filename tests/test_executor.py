import dataclasses
import gc
import math
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from ctbt import dsl, executor
from ctbt.core import (
    BehaviorTree,
    DimensionMismatch,
    Fallback,
    Leaf,
    LeafBehavior,
    NonFiniteState,
    Plant,
    Sequence,
    Status,
)
from ctbt.executor import (
    ExecutionError,
    FailedRun,
    IntegratorConfig,
    Sample,
    TriplePointChatter,
    batch_integrate,
    check_transversality,
    integrate,
    sample_boundary_pairs,
)
from ctbt.regions import EmptySampler

from conftest import SETPOINT, SLIDE_HOLD, bench_workloads, thermostat_bt, thermostat_plant


def switch_bt(gate_status, run_a, run_b, dim):
    """seq(fal(gate, a), b) with the thermostat's shape, custom controls."""
    zeros = (0.0,) * dim
    gate = Leaf(2, LeafBehavior(lambda x: zeros, gate_status, label="gate"))
    a = Leaf(3, LeafBehavior(run_a, lambda x: Status.RUNNING, label="a"))
    b = Leaf(4, LeafBehavior(run_b, lambda x: Status.RUNNING, label="b"))
    root = Sequence(0, (Fallback(1, (gate, a)), b))
    return BehaviorTree(root, state_dim=dim)


def integrator_plant(dim):
    return Plant(dim, dim, lambda x, u: np.asarray(u, dtype=float))


# ----------------------------------------------------------- thermostat runs

def thermostat_run(x0, t_end=6.0, dt=0.01):
    cfg = IntegratorConfig(dt=dt, t_end=t_end)
    return integrate(thermostat_plant(), thermostat_bt(), [x0], cfg,
                     model_name="thermostat")


def test_thermostat_reaches_sliding_from_below():
    traj = thermostat_run(SETPOINT - 2.0)
    enters = traj.events_of("SlideEnter")
    assert enters, "expected a sliding segment"
    t_slide = enters[0].t
    assert abs(t_slide - 2.0) <= 0.02
    assert enters[0].info["pair"] == [3, 4]
    # once sliding, the state is pinned to the surface
    after = [s for s in traj.samples if s.t >= t_slide]
    assert after
    assert max(abs(s.x[0] - SETPOINT) for s in after) <= 1e-4
    # it slides forever: no exit, run lasts the full horizon
    assert not traj.events_of("SlideExit")
    assert traj.duration == pytest.approx(6.0)
    assert not traj.events_of("RootSuccess")


def test_thermostat_reaches_sliding_from_above():
    traj = thermostat_run(SETPOINT + 3.0)
    t_slide = traj.events_of("SlideEnter")[0].t
    assert abs(t_slide - 3.0) <= 0.02
    after = [s for s in traj.samples if s.t >= t_slide]
    assert max(abs(s.x[0] - SETPOINT) for s in after) <= 1e-4


def test_thermostat_started_on_surface_slides_immediately():
    traj = thermostat_run(SETPOINT, t_end=1.0)
    enters = traj.events_of("SlideEnter")
    assert enters
    assert enters[0].t <= 5 * 0.01


def test_thermostat_chatter_precedes_slide():
    traj = thermostat_run(SETPOINT - 2.0)
    t_slide = traj.events_of("SlideEnter")[0].t
    switches = [e for e in traj.events_of("Switch") if e.t <= t_slide]
    assert len(switches) >= 4
    pairs = {(e.info["from"], e.info["to"]) for e in switches}
    assert pairs <= {(3, 4), (4, 3)}
    # bracketing samples: last pre-slide switch has samples on both sides
    e = switches[-1]
    before = [s for s in traj.samples if s.t < e.t and s.leaf != e.info["to"]]
    at = [s for s in traj.samples if s.t == e.t]
    assert at and at[0].leaf == e.info["to"]
    assert before


def test_thermostat_leaf_sequence():
    traj = thermostat_run(SETPOINT - 2.0, t_end=1.0)
    assert {s.leaf for s in traj.samples} == {3}
    traj = thermostat_run(SETPOINT + 3.0, t_end=1.0)
    assert {s.leaf for s in traj.samples} == {4}


# ------------------------------------------------------- sliding, dimension 2

def test_planar_slide_with_drift():
    # surface x0 = 0; both fields share the x1 drift, so the slide travels
    def gate(x):
        return Status.SUCCESS if x[0] > 0.0 else Status.FAILURE

    bt = switch_bt(gate, lambda x: (1.0, 0.5), lambda x: (-1.0, 0.5), dim=2)
    cfg = IntegratorConfig(dt=0.01, t_end=3.0)
    traj = integrate(integrator_plant(2), bt, [-0.5, 0.0], cfg)
    t_slide = traj.events_of("SlideEnter")[0].t
    assert abs(t_slide - 0.5) <= 0.02
    after = [s for s in traj.samples if s.t >= t_slide + 0.05]
    assert max(abs(s.x[0]) for s in after) <= 1e-4
    final = traj.samples[-1]
    assert final.t == pytest.approx(3.0)
    assert final.x[1] == pytest.approx(1.5, abs=1e-3)
    assert not traj.events_of("SlideExit")


def test_planar_slide_asymmetric_fields():
    # field difference is not aligned with the surface normal, so the
    # normal estimate must come from the crossing cloud, not the fallback
    def gate(x):
        return Status.SUCCESS if x[0] > 0.0 else Status.FAILURE

    bt = switch_bt(gate, lambda x: (1.0, 0.8), lambda x: (-1.0, 0.2), dim=2)
    cfg = IntegratorConfig(dt=0.01, t_end=3.0)
    traj = integrate(integrator_plant(2), bt, [-0.25, 0.0], cfg)
    t_slide = traj.events_of("SlideEnter")[0].t
    assert abs(t_slide - 0.25) <= 0.02
    assert not traj.events_of("SlideExit")
    after = [s for s in traj.samples if s.t >= t_slide + 0.05]
    assert max(abs(s.x[0]) for s in after) <= 1e-4
    # combined drift is the alpha = 1/2 mix of 0.8 and 0.2
    final = traj.samples[-1]
    expected = 0.25 * 0.8 + (3.0 - t_slide) * 0.5
    assert final.x[1] == pytest.approx(expected, abs=5e-3)


def test_circular_slide_tracks_curved_surface():
    def gate(x):
        return Status.SUCCESS if x[0] ** 2 + x[1] ** 2 > 1.0 else Status.FAILURE

    def outward(x):
        r = math.hypot(x[0], x[1])
        return (x[0] / r - 0.5 * x[1] / r, x[1] / r + 0.5 * x[0] / r)

    def inward(x):
        r = math.hypot(x[0], x[1])
        return (-x[0] / r - 0.5 * x[1] / r, -x[1] / r + 0.5 * x[0] / r)

    bt = switch_bt(gate, outward, inward, dim=2)
    cfg = IntegratorConfig(dt=0.01, t_end=4.0)
    traj = integrate(integrator_plant(2), bt, [0.2, 0.0], cfg)
    enter = traj.events_of("SlideEnter")[0]
    t_slide = enter.t
    assert abs(t_slide - 0.8) <= 0.02
    after = [s for s in traj.samples if s.t >= t_slide + 0.05]
    radii = [math.hypot(*s.x) for s in after]
    assert max(abs(r - 1.0) for r in radii) <= 1e-4
    # tangential speed 0.5 on the unit circle from the entry angle on
    angle = math.atan2(after[-1].x[1], after[-1].x[0])
    entry_angle = math.atan2(enter.x[1], enter.x[0])
    expected = entry_angle + 0.5 * (after[-1].t - t_slide)
    assert angle == pytest.approx(expected, abs=0.05)


def test_slide_exit_when_surface_stops_attracting():
    # the pull-back field weakens with x1 and reverses past x1 = 1
    def gate(x):
        return Status.SUCCESS if x[0] > 0.0 else Status.FAILURE

    bt = switch_bt(gate, lambda x: (1.0, 0.5),
                   lambda x: (x[1] - 1.0, 0.5), dim=2)
    cfg = IntegratorConfig(dt=0.01, t_end=4.0)
    traj = integrate(integrator_plant(2), bt, [-0.25, 0.0], cfg)
    t_slide = traj.events_of("SlideEnter")[0].t
    exits = traj.events_of("SlideExit")
    assert exits, "slide should end once both fields push the same way"
    t_exit = exits[0].t
    # drift 0.5 moves x1 from its entry value 0.125 up to 1 in 1.75 s;
    # the exit lands within one span's drift past the threshold
    assert t_exit == pytest.approx(t_slide + 1.75, abs=0.05)
    assert exits[0].x[1] == pytest.approx(1.0, abs=0.01)
    # afterwards the state leaves the surface for good
    final = traj.samples[-1]
    assert final.x[0] > 0.5
    assert not [e for e in traj.events_of("SlideEnter") if e.t > t_exit]


def shear_bt(*guards, right=lambda x: (-1.0, 10.5)):
    """fal(left, right) on x0 = 0: both fields point into the surface, and
    differ along it, so the entry normal of the cloud route is far from the
    true one.  guards go on the left leaf; right is the right leaf's control."""
    def left_status(x):
        return Status.RUNNING if x[0] < 0.0 else Status.FAILURE

    left = Leaf(1, LeafBehavior(lambda x: (1.0, 10.0), left_status, label="left",
                                guards=guards))
    right = Leaf(2, LeafBehavior(right, lambda x: Status.RUNNING, label="right"))
    return BehaviorTree(Fallback(0, (left, right)), state_dim=2)


def test_handoff_heavy_slide_keeps_the_stack_flat():
    # every slide entered here ends at once by its coefficient and hands
    # the step back to regular mode, hundreds of times per step
    cfg = IntegratorConfig(dt=0.001, t_end=0.011)
    (run,) = batch_integrate(integrator_plant(2), shear_bt(), [(-0.01, 0.0)], cfg)
    assert not isinstance(run, FailedRun)
    assert run.samples[-1].t == 0.011
    assert run.events_of("SlideEnter") and run.events_of("SlideExit")


def test_declared_guard_holds_the_shear_slide():
    # with its surface declared, the shear model slides once, at the
    # coefficient 0.5 of the true normal (1, 0): x1 advances at 10.25
    cfg = IntegratorConfig(dt=0.001, t_end=0.011)
    run = integrate(integrator_plant(2), shear_bt(lambda x: (x[0], (1.0, 0.0))),
                    (-0.01, 0.0), cfg)
    (enter,) = run.events_of("SlideEnter")
    assert [e.kind for e in run.events if e.t > enter.t] == []
    end = run.samples[-1]
    assert end.t == 0.011 and end.x[0] == 0.0
    assert (end.x[1] - enter.x[1]) / (end.t - enter.t) == pytest.approx(10.25, abs=1e-9)


class _SlideSteps(list):
    """Per call of a slide step that chatter_check binds, how far each
    counter of read() moves from that call to the next step call, the
    slide's exit or close() after the run: the walk at the state the step
    lands on is counted with it.  open holds read() at the open call, x the
    state the last call started from."""

    def __init__(self, monkeypatch, read):
        super().__init__()
        self.read, self.open, self.x = read, None, None
        chatter_check, exit_slide = (executor._Integrator.chatter_check,
                                     executor._Integrator.exit_slide)

        def bind(integrator, *args):
            entered = chatter_check(integrator, *args)
            if entered:
                pair, step = integrator.slide
                integrator.slide = (pair, self.wrap(step))
            return entered

        def leave(integrator, t):
            self.close()
            exit_slide(integrator, t)

        monkeypatch.setattr(executor._Integrator, "chatter_check", bind)
        monkeypatch.setattr(executor._Integrator, "exit_slide", leave)

    def wrap(self, step):
        def counted(x, *args):
            self.close()
            self.open, self.x = self.read(), x
            return step(x, *args)
        return counted

    def close(self):
        if self.open is not None:
            self.append(tuple(b - a for a, b in zip(self.open, self.read())))
            self.open = None


def test_a_slide_step_takes_the_fields_at_x_once(monkeypatch):
    """The pair's fields at x, evaluated for the Filippov coefficient, are
    the first stage of the blended step: a slide step calls the field twice
    and, when it steps, twice more per later RK4 stage (the _rk4 route of a
    wrapped field)."""

    slide_hold = dsl.lower(dsl.parse(SLIDE_HOLD))
    field, calls = slide_hold.plant.field, [0]
    spans = _SlideSteps(monkeypatch, lambda: (calls[0],))

    def counted(x, u):
        calls[0] += 1
        return field(x, u)

    plant = dataclasses.replace(slide_hold.plant, field=counted)
    integrate(plant, slide_hold.bt, (-1.0, -1.2), IntegratorConfig(dt=0.01, t_end=4.0))
    spans.close()
    per_span = [n for (n,) in spans]
    assert 8 in per_span and set(per_span) <= {2, 8}


def test_a_guarded_slide_step_walks_once_and_takes_the_fields_twice(monkeypatch):
    """On slide_hold a slide step walks the tree once, at the state
    projected onto the guard.  The generated slide step evaluates the pair's
    fields inline and calls the plant field never; the Python route of
    wrapped controllers calls it twice at x, the pair's fields, which are
    also the first stage of its _rk4 blend, and six times in the blend's
    later stages."""
    slide_hold = dsl.lower(dsl.parse(SLIDE_HOLD))
    field, generated = slide_hold.plant.field, slide_hold.plant.steps
    counts = {"at x": 0, "elsewhere": 0, "resolve": 0}
    per_span = _SlideSteps(monkeypatch, lambda: tuple(counts.values()))

    def counted(x, u):
        counts["at x" if x == per_span.x else "elsewhere"] += 1
        return field(x, u)

    def walked(resolve):
        def walk(x):
            counts["resolve"] += 1
            return resolve(x)
        return walk

    # the generated steps, keyed by the counted field, so no step calls it
    steps = types.SimpleNamespace(get=lambda key, default=None: generated.get(
        (field, *key[1:]), default) if key[0] is counted else default)
    plant = dataclasses.replace(slide_hold.plant, field=counted, steps=steps)
    cfg = IntegratorConfig(dt=0.01, t_end=16.0)
    for tree, taken in zip(_routes(slide_hold), [(0, 0, 1), (2, 6, 1)]):
        per_span.clear()
        tree.resolve = walked(tree.resolve)
        run = integrate(plant, tree, (-1.0, -1.2), cfg)
        per_span.close()
        enter, leave = run.events_of("SlideEnter")[0].t, run.events_of("SlideExit")[0].t
        assert set(per_span) == {taken}  # every span stepped: one sample per grid step
        assert len(per_span) == len([s for s in run.samples if enter < s.t <= leave])


def test_numpy_fields_still_hand_on_states_of_floats():
    # integrator_plant's field returns numpy arrays; the states handed to
    # metadata, controllers and guards are tuples of Python floats all the
    # same, in regular steps, bisections and slides of both routes
    seen = []

    def watched(fn):
        def call(x):
            seen.append(x)
            return fn(x)
        return call

    def watched_tree(bt):
        def rebuilt(node):
            if isinstance(node, Leaf):
                b = node.behavior
                return Leaf(node.node_id, LeafBehavior(
                    watched(b.controller), watched(b.metadata), b.label,
                    tuple(watched(g) for g in b.guards)))
            return type(node)(node.node_id, tuple(rebuilt(c) for c in node.children))

        return BehaviorTree(rebuilt(bt.root), state_dim=bt.state_dim)

    def gate(x):
        return Status.SUCCESS if x[0] > 0.0 else Status.FAILURE

    planar = switch_bt(gate, lambda x: (1.0, 0.8), lambda x: (-1.0, 0.2), dim=2)
    cases = [(planar, (-0.25, 0.0), IntegratorConfig(dt=0.01, t_end=1.0)),
             (shear_bt(lambda x: (x[0], (1.0, 0.0))), (-0.01, 0.0),
              IntegratorConfig(dt=0.001, t_end=0.011))]
    for bt, x0, cfg in cases:
        seen.clear()
        run = integrate(integrator_plant(2), watched_tree(bt), x0, cfg)
        assert run.events_of("SlideEnter")
        assert seen and all(type(x) is tuple and all(type(v) is float for v in x)
                            for x in seen)


@pytest.mark.parametrize("guard, right, message", [
    # from x1 = 0.2 on, right pushes as left does: the step from t = 0.02
    (lambda x: (x[0], (1.0, 0.0)), lambda x: (-1.0, 10.5) if x[1] < 0.2 else (1.0, 10.0),
     "fields do not separate across the surface near t=0.02"),
    # from x1 = 0.2 on, g has no gradient: the step that ends at t = 0.02
    (lambda x: (x[0], (1.0, 0.0) if x[1] < 0.2 else (0.0, 0.0)), lambda x: (-1.0, 10.5),
     "the switching surface has no normal near t=0.02: grad g = 0"),
], ids=["fields_meet", "newton_gradient_vanishes"])
def test_a_guarded_slide_fails_where_its_step_has_no_normal_direction(guard, right, message):
    cfg = IntegratorConfig(dt=0.001, t_end=0.05)
    (run,) = batch_integrate(integrator_plant(2), shear_bt(guard, right=right),
                             [(-0.01, 0.0)], cfg)
    assert isinstance(run, FailedRun)
    assert (run.error, run.message) == ("ZeroDenominatorInSliding", message)


def _cloud_copy(bt):
    """bt with every leaf rebuilt without its guards, as a traced run does."""
    def rebuilt(node):
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, LeafBehavior(b.controller, b.metadata, b.label))
        return type(node)(node.node_id, tuple(rebuilt(c) for c in node.children))

    return BehaviorTree(rebuilt(bt.root), state_dim=bt.state_dim)


def test_a_cloud_slide_leaves_no_cyclic_garbage():
    """The cloud route's slide step closes over its inputs, not over the
    run, so a run that ends in a slide is freed by reference counting."""
    model = dsl.load(dsl.bundled_model_dir() / "thermostat.btm")
    bt = _cloud_copy(model.bt)
    gc.collect()
    gc.disable()
    try:
        run = integrate(model.plant, bt, [18.0], IntegratorConfig(dt=0.01, t_end=5.0))
        assert run.events_of("SlideEnter") and not run.events_of("SlideExit")
        del run
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("x0", [(-1.0, -1.2), (-1.427292888764039, -1.386695002795886),
                                (1.1459396493392942, -0.5483670558343646)])
def test_guard_and_cloud_routes_agree_on_slide_hold(x0, monkeypatch):
    model = dsl.lower(dsl.parse(SLIDE_HOLD))
    cfg = IntegratorConfig(dt=0.01, t_end=16.0)
    cloud = integrate(model.plant, _cloud_copy(model.bt), x0, cfg)

    def no_svd(*args, **kwargs):
        raise AssertionError("the guard route takes no SVD")

    monkeypatch.setattr(executor.np.linalg, "svd", no_svd)
    guarded = integrate(model.plant, model.bt, x0, cfg)
    assert [e.kind for e in guarded.events] == [e.kind for e in cloud.events]
    assert "SlideEnter" in [e.kind for e in guarded.events]
    assert len(guarded.samples) == len(cloud.samples)
    for a, b in zip(guarded.samples, cloud.samples):
        assert a.t == b.t
        assert max(abs(p - q) for p, q in zip(a.x, b.x)) <= 1e-3
    enter, leave = guarded.events_of("SlideEnter")[0].t, guarded.events_of("SlideExit")[0].t
    sliding = [s for s in guarded.samples if enter < s.t <= leave]
    assert sliding and max(abs(s.x[0] + 0.5 * s.x[1]) for s in sliding) <= 1e-9


THREE_STATE = """\
model "three_state" {
  state 3;
  control 3;
  plant { dx0 = u0; dx1 = u1 + 0.1 * sin(x0); dx2 = u2; }
  leaf above { u = [0.0, 0.0, 0.0]; status = if x0 + x1 + x2 > 0.0 then S else F; }
  leaf push_up { u = [1.0, 0.5, 0.2]; status = R; }
  leaf push_down { u = [-1.0, -0.3, 0.2]; status = R; }
  fal guard = [above, push_up];
  seq hold = [guard, push_down];
  root = hold;
}
"""


def test_a_three_state_slide_holds_its_plane_on_both_routes():
    # the push leaves chatter onto the plane x0 + x1 + x2 = 0 and slide on
    # it; the copy with wrapped controllers takes the _rk4 blend
    model = dsl.lower(dsl.parse(THREE_STATE))
    cfg = IntegratorConfig(dt=0.01, t_end=2.0)
    fused, wrapped = (integrate(model.plant, bt, (-0.5, 0.2, -0.3), cfg, "three_state")
                      for bt in _routes(model))
    assert fused.to_json() == wrapped.to_json()
    (enter,) = fused.events_of("SlideEnter")
    assert not fused.events_of("SlideExit")
    sliding = [s for s in fused.samples if s.t > enter.t]
    assert len(sliding) > 100 and sliding[-1].t == 2.0
    assert max(abs(s.x[0] + s.x[1] + s.x[2]) for s in sliding) <= 1e-9


# push_right and turn chatter onto x0 = 0 until turn stops pushing left at
# x1 = 1; turn then carries the state to x0 = 1, where it chatters with
# push_left: two slides on two pairs in one run
TWO_PAIRS = """\
model "two_pairs" {
  state 2;
  control 2;
  plant { dx0 = u0; dx1 = u1; }
  leaf left_of_0 { u = [0.0, 0.0]; status = if x0 > 0.0 then S else F; }
  leaf push_right { u = [1.0, 0.5]; status = R; }
  leaf right_of_1 { u = [0.0, 0.0]; status = if x0 > 1.0 then S else F; }
  leaf turn { u = [x1 - 1.0, 0.5]; status = R; }
  leaf push_left { u = [-1.0, 0.5]; status = R; }
  fal first = [left_of_0, push_right];
  fal second = [right_of_1, turn];
  seq both = [first, second, push_left];
  root = both;
}
"""


@pytest.mark.parametrize("route", ["guarded", "cloud"])
def test_two_slides_on_different_pairs_each_hold_their_own_line(route):
    # the second slide binds its own pair, guard and crossing points: a
    # record left over from the first would slide on x0 = 0 or blend the
    # wrong fields
    model = dsl.lower(dsl.parse(TWO_PAIRS))
    bt = model.bt if route == "guarded" else _cloud_copy(model.bt)
    run = integrate(model.plant, bt, (-0.25, 0.0), IntegratorConfig(dt=0.01, t_end=6.0))
    enters, (leave,) = run.events_of("SlideEnter"), run.events_of("SlideExit")
    assert [e.info["pair"] for e in enters] == [[3, 6], [6, 7]]
    assert enters[0].t == pytest.approx(0.25, abs=1e-5)
    assert leave.t == 201 * 0.01  # the start of the grid step the weight lets go in
    assert enters[1].t == pytest.approx(4.0, abs=1e-4)
    tol = 0.0 if route == "guarded" else 1e-6
    for enter, end, line in ((enters[0], leave.t, 0.0), (enters[1], 6.0, 1.0)):
        sliding = [s for s in run.samples if enter.t < s.t <= end]
        assert len(sliding) > 150 and all(s.leaf in enter.info["pair"] for s in sliding)
        assert max(abs(s.x[0] - line) for s in sliding) <= tol
    assert run.samples[-1].t == 6.0


def _long_slides(case):
    """(runs, dt, grid steps): the bundled thermostat from 18, which slides
    at dt = 0.01 to t = 40, past t = 32, where k*dt + dt can fall more than
    _MIN_SPAN short of the grid time (k + 1)*dt; or every slide_hold bank
    run, each of which slides."""
    if case == "thermostat":
        model = dsl.load(dsl.bundled_model_dir() / "thermostat.btm")
        run = integrate(model.plant, model.bt, [18.0], IntegratorConfig(dt=0.01, t_end=40.0))
        (enter,) = run.events_of("SlideEnter")
        assert enter.t < 32.0 and not run.events_of("SlideExit")
        assert any(k * 0.01 + 0.01 < (k + 1) * 0.01 - executor._MIN_SPAN
                   for k in range(3200, 4000))
        return [run], 0.01, 4000
    wl = bench_workloads().WORKLOADS["slide_hold"]
    model, cfg = dsl.lower(dsl.parse(wl.model_text())), wl.config()
    runs = [integrate(model.plant, model.bt, x0, cfg) for x0 in wl.bank().values()]
    assert all(run.events_of("SlideEnter") for run in runs)
    return runs, cfg.dt, round(cfg.t_end / cfg.dt)


@pytest.mark.parametrize("case", ["thermostat", "slide_hold_bank"])
def test_a_long_slide_ends_every_grid_step_at_its_grid_time(case):
    """A slide sample that ends grid step k is stamped float((k + 1)*dt),
    as in regular mode, not k*dt + dt: every grid time is a sample time,
    every sample within 1e-9 of a grid time is that grid time, and no
    second sample sits next to one."""
    runs, dt, n_steps = _long_slides(case)
    grid = [float(k * dt) for k in range(n_steps + 1)]
    for run in runs:
        times = [s.t for s in run.samples]
        assert set(grid) <= set(times), run.meta["x0"]
        assert min(b - a for a, b in zip(times, times[1:])) >= 1e-12, run.meta["x0"]
        for t in times:
            nearest = grid[round(t / dt)]
            assert t == nearest or abs(t - nearest) > 1e-9, (run.meta["x0"], t)


# push_right and push_left slide on x0 = 0, where push_right is active,
# until x1 passes 1 at t = 2: there push_right reports Failure, the root's
# status, and the slide goes on
FAILURE_IN_PAIR = """\
model "failure_in_pair" {
  state 2;
  control 2;
  plant { dx0 = u0; dx1 = u1; }
  leaf left_of_0 { u = [0.0, 0.0]; status = if x0 > 0.0 then S else F; }
  leaf push_right { u = [1.0, 0.5]; status = if x1 > 1.0 then F else R; }
  leaf push_left { u = [-1.0, 0.5]; status = R; }
  fal first = [left_of_0, push_right];
  seq hold = [first, push_left];
  root = hold;
}
"""

# the same slide, but past x1 = 1 both push leaves report Success: the root
# succeeds with push_left active, which is in the pair
SUCCESS_IN_PAIR = """\
model "success_in_pair" {
  state 2;
  control 2;
  plant { dx0 = u0; dx1 = u1; }
  leaf left_of_0 { u = [0.0, 0.0]; status = if x0 > 0.0 then S else F; }
  leaf push_right { u = [1.0, 0.5]; status = if x1 > 1.0 then S else R; }
  leaf push_left { u = [-1.0, 0.5]; status = if x1 > 1.0 then S else R; }
  fal first = [left_of_0, push_right];
  seq hold = [first, push_left];
  root = hold;
}
"""


def _in_pair_runs(text):
    """The run from (-0.25, 0) on both routes, checked equal, and its
    SlideEnter event."""
    model = dsl.lower(dsl.parse(text))
    cfg = IntegratorConfig(dt=0.01, t_end=4.0)
    fused, wrapped = (integrate(model.plant, bt, (-0.25, 0.0), cfg) for bt in _routes(model))
    assert fused.to_json() == wrapped.to_json()
    (enter,) = fused.events_of("SlideEnter")
    return fused, enter


def test_a_slide_that_succeeds_in_its_pair_ends_the_run_at_that_sample():
    run, enter = _in_pair_runs(SUCCESS_IN_PAIR)
    assert [e.kind for e in run.events if e.t > enter.t] == ["RootSuccess"]
    (done,) = run.events_of("RootSuccess")
    end = run.samples[-1]
    assert end.t == done.t == 2.0 and end.status is Status.SUCCESS
    assert end.leaf in enter.info["pair"] and end.x[1] > 1.0
    assert all(s.x[0] == 0.0 for s in run.samples if s.t > enter.t)


def test_a_slide_that_fails_in_its_pair_notes_it_once_and_slides_on():
    run, enter = _in_pair_runs(FAILURE_IN_PAIR)
    assert [e.kind for e in run.events if e.t > enter.t] == ["RootFailure"]
    (failed,) = run.events_of("RootFailure")
    assert failed.t == 2.0
    after = [s for s in run.samples if s.t >= failed.t]
    assert len(after) == 201 and after[-1].t == 4.0
    assert all(s.status is Status.FAILURE and s.leaf in enter.info["pair"] and s.x[0] == 0.0
               for s in after)


# push_out spirals out of the unit circle, push_in spirals into it: they
# chatter onto the circle, a guard whose gradient turns along the slide
CURVED = """\
model "curved" {
  state 2;
  control 2;
  plant { dx0 = u0; dx1 = u1; }
  leaf outside { u = [0.0, 0.0]; status = if x0 * x0 + x1 * x1 > 1.0 then S else F; }
  leaf push_out { u = [x0 - 2.0 * x1, x1 + 2.0 * x0]; status = R; }
  leaf push_in {
    u = [(-x0 - x1) / sqrt(x0 * x0 + x1 * x1), (x0 - x1) / sqrt(x0 * x0 + x1 * x1)];
    status = R;
  }
  fal gate = [outside, push_out];
  seq hold = [gate, push_in];
  root = hold;
}
"""


def test_a_slide_on_a_curved_guard_takes_two_newton_steps_and_holds_the_circle(monkeypatch):
    """On a guard that is not affine the first Newton step of a slide step
    is not exact: all but the first of the 34 steps take a second one, and
    the slide holds |x| = 1 to rounding.  Each step calls the guard once
    for its normal and once per Newton step."""
    model = dsl.lower(dsl.parse(CURVED))
    calls = [0]
    spans = _SlideSteps(monkeypatch, lambda: (calls[0],))

    def counted(guard):
        def call(x):
            calls[0] += 1
            return guard(x)
        return call

    def rebuilt(node):
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, dataclasses.replace(
                b, guards=tuple(map(counted, b.guards))))
        return type(node)(node.node_id, tuple(rebuilt(c) for c in node.children))

    bt = BehaviorTree(rebuilt(model.bt.root), state_dim=2)
    run = integrate(model.plant, bt, (0.5, 0.0),
                    IntegratorConfig(dt=0.1, t_end=4.0, event_tol=1e-10), "curved")
    spans.close()
    per_span = [n - 1 for (n,) in spans]
    (enter,) = run.events_of("SlideEnter")
    assert not run.events_of("SlideExit")
    assert per_span == [1] + [2] * 33
    sliding = [s for s in run.samples if s.t > enter.t]
    assert len(sliding) == 34 and sliding[-1].t == 4.0
    assert max(abs(math.hypot(*s.x) - 1.0) for s in sliding) <= 1e-12


def _slide_cases():
    """name -> (model text, starts, config): every slide_hold bank start, a
    1-D slide of the bundled thermostat, and the slides above."""
    wl = bench_workloads().WORKLOADS["slide_hold"]
    thermostat = (dsl.bundled_model_dir() / "thermostat.btm").read_text(encoding="utf-8")
    return {
        "slide_hold_bank": (wl.model_text(), list(wl.bank().values()), wl.config()),
        "thermostat": (thermostat, [(18.0,), (23.5,)], IntegratorConfig(dt=0.01, t_end=5.0)),
        "curved": (CURVED, [(0.5, 0.0)], IntegratorConfig(dt=0.1, t_end=4.0, event_tol=1e-10)),
        "three_state": (THREE_STATE, [(-0.5, 0.2, -0.3)], IntegratorConfig(dt=0.01, t_end=2.0)),
        "two_pairs": (TWO_PAIRS, [(-0.25, 0.0)], IntegratorConfig(dt=0.01, t_end=6.0)),
    }


@pytest.mark.parametrize("case", ["slide_hold_bank", "thermostat", "curved", "three_state",
                                  "two_pairs"])
def test_generated_and_python_slide_steps_give_the_same_runs(case, monkeypatch):
    """A lowered model slides on its generated slide step and never builds
    the Python route; the copy with wrapped controllers, guards kept, takes
    _guarded_slide over the _rk4 blend; the two give the same bytes."""
    text, starts, cfg = _slide_cases()[case]
    built, guarded_slide = [], executor._guarded_slide
    monkeypatch.setattr(executor, "_guarded_slide",
                        lambda *args: built.append(args) or guarded_slide(*args))
    model = dsl.lower(dsl.parse(text))
    generated, python = _routes(model)
    runs = [integrate(model.plant, generated, x0, cfg) for x0 in starts]
    assert built == [] and any(run.events_of("SlideEnter") for run in runs)
    assert [integrate(model.plant, python, x0, cfg).to_json() for x0 in starts] == [
        run.to_json() for run in runs]
    assert built


# two leaves chattering onto x0 = 0; right's push turns from -1 to +1 at
# x1 = 0.2, so the fields meet across the surface from there
MEET = """\
model "meet" {
  state 2;
  control 2;
  plant { dx0 = u0; dx1 = u1; }
  leaf left { u = [1.0, 10.0]; status = if x0 < 0.0 then R else F; }
  leaf right { u = [-sgn(0.2 - x1), 10.5]; status = R; }
  fal both = [left, right];
  root = both;
}
"""


@pytest.mark.parametrize("text, x0, cfg, message", [
    # g = sgn(x0 - T) changes sign on the setpoint but has no gradient
    ((dsl.bundled_model_dir() / "thermostat.btm").read_text(encoding="utf-8").replace(
        "if x0 > T then S", "if sgn(x0 - T) > 0.0 then S"), (19.0,),
     IntegratorConfig(dt=0.01, t_end=6.0),
     "the switching surface has no normal at t=2.000003051459798: grad g = 0"),
    (MEET, (-0.01, 0.0), IntegratorConfig(dt=0.001, t_end=0.05),
     "fields do not separate across the surface near t=0.02"),
    # g = x0 * (|0.2 - x1| + 0.2 - x1) has grad g = 0 from x1 = 0.2 on: the
    # Newton step of the slide step that ends past it has no direction
    (MEET.replace("if x0 < 0.0", "if x0 * (abs(0.2 - x1) + (0.2 - x1)) < 0.0")
         .replace("-sgn(0.2 - x1)", "-1.0"), (-0.01, 0.0),
     IntegratorConfig(dt=0.001, t_end=0.05),
     "the switching surface has no normal near t=0.02: grad g = 0"),
], ids=["gradient_vanishes", "fields_meet", "newton_gradient_vanishes"])
def test_both_slide_routes_of_a_lowered_model_fail_alike(text, x0, cfg, message):
    model = dsl.lower(dsl.parse(text))
    failed = [batch_integrate(model.plant, bt, [x0], cfg)[0] for bt in _routes(model)]
    assert failed[0] == failed[1] == FailedRun(0, x0, "ZeroDenominatorInSliding", message)


def test_triple_point_chatter_is_rejected():
    # three sector regions meeting at the origin, each with a constant
    # field aimed into the next sector; an orbit started close to the
    # origin crosses all three boundaries well inside one step
    third = 2.0 * math.pi / 3.0

    def sector(k):
        def status(x):
            phi = math.atan2(x[1], x[0]) % (2.0 * math.pi)
            inside = k * third <= phi < (k + 1) * third
            return Status.RUNNING if inside else Status.FAILURE
        return status

    def heading(angle):
        u = (math.cos(angle), math.sin(angle))
        return lambda x: u

    leaves = [
        Leaf(k + 1, LeafBehavior(heading((k + 0.5) * third + 0.5 * math.pi),
                                 sector(k) if k < 2
                                 else (lambda x: Status.RUNNING),
                                 label=f"s{k}"))
        for k in range(3)
    ]
    bt = BehaviorTree(Fallback(0, tuple(leaves)), state_dim=2)
    cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    with pytest.raises(TriplePointChatter):
        integrate(integrator_plant(2), bt, [0.001, 0.0], cfg)


def test_root_failure_is_recorded_once_and_the_run_goes_on():
    fails_past_one = LeafBehavior(
        lambda x: (1.0,),
        lambda x: Status.FAILURE if x[0] > 1.0 else Status.RUNNING)
    bt = BehaviorTree(Leaf(0, fails_past_one), state_dim=1)
    traj = integrate(integrator_plant(1), bt, [0.0],
                     IntegratorConfig(dt=0.01, t_end=2.0))
    failures = traj.events_of("RootFailure")
    assert len(failures) == 1
    assert failures[0].t == pytest.approx(1.0, abs=1e-5)
    assert traj.duration == pytest.approx(2.0)
    assert traj.samples[-1].status is Status.FAILURE


def test_switches_spread_over_many_steps_do_not_slide():
    # a harmonic oscillator crosses x0 = 0 every pi seconds: the chatter
    # check sees its four switches, but far more than one step apart
    a = Leaf(1, LeafBehavior(
        lambda x: (0.0,),
        lambda x: Status.RUNNING if x[0] > 0.0 else Status.FAILURE, label="a"))
    b = Leaf(2, LeafBehavior(lambda x: (0.0,), lambda x: Status.RUNNING, label="b"))
    bt = BehaviorTree(Fallback(0, (a, b)), state_dim=2)
    oscillator = Plant(2, 1, lambda x, u: np.array([x[1], -x[0]]))
    traj = integrate(oscillator, bt, [1.0, 0.0], IntegratorConfig(dt=0.01, t_end=15.0))
    times = [e.t for e in traj.events_of("Switch")]
    assert len(times) == 5
    assert times[0] == pytest.approx(0.5 * math.pi, abs=1e-4)
    assert np.diff(times) == pytest.approx([math.pi] * 4, abs=1e-4)
    assert not traj.events_of("SlideEnter")


# ------------------------------------------------------------ accuracy

def single_leaf_bt(controller, dim):
    leaf = Leaf(0, LeafBehavior(controller, lambda x: Status.RUNNING))
    return BehaviorTree(leaf, state_dim=dim)


def pendulum_plant():
    def field(x, u):
        return np.array([x[1], math.sin(x[0]) - u[0] * math.cos(x[0])])
    return Plant(2, 1, field)


def test_rk4_fourth_order_on_smooth_flow():
    bt = single_leaf_bt(lambda x: (2.0 * math.sin(x[0]) + 2.0 * x[1],), dim=2)
    plant = pendulum_plant()
    x0 = [2.0, 0.0]

    def final(dt):
        cfg = IntegratorConfig(dt=dt, t_end=1.0)
        return np.array(integrate(plant, bt, x0, cfg).samples[-1].x)

    ref = final(0.02 / 64.0)
    err1 = float(np.linalg.norm(final(0.02) - ref))
    err2 = float(np.linalg.norm(final(0.01) - ref))
    assert err1 > 1e-12
    assert err1 / err2 >= 8.0


def test_rk4_exact_on_constant_field():
    # pre-switch thermostat segment: unit ramp, no truncation error at all
    for dt in (0.01, 0.005):
        traj = thermostat_run(SETPOINT - 2.0, t_end=1.0, dt=dt)
        assert abs(traj.samples[-1].x[0] - (SETPOINT - 1.0)) < 1e-12


# ----------------------------------------------------------- pendulum model

@pytest.fixture(scope="module")
def pendulum():
    return dsl.load(dsl.bundled_model_dir() / "pendulum.btm")


PENDULUM_ORACLE = [
    # x0, handoff time, success time (frozen from an independent fine-step
    # simulation at dt = 5e-4)
    ((2.0, 0.0), 3.5875, 8.8615),
    ((-1.5, 1.0), 0.9265, 5.904),
    ((math.pi - 0.3, 0.0), 6.67, 11.282),
]


@pytest.mark.parametrize("x0,t_handoff,t_success", PENDULUM_ORACLE)
def test_pendulum_switch_and_success_times(pendulum, x0, t_handoff, t_success):
    cfg = IntegratorConfig(dt=0.004, t_end=60.0)
    traj = integrate(pendulum.plant, pendulum.bt, x0, cfg, model_name="pendulum")
    switches = traj.events_of("Switch")
    assert len(switches) == 1
    assert (switches[0].info["from"], switches[0].info["to"]) == (1, 2)
    assert switches[0].t == pytest.approx(t_handoff, abs=0.05)
    success = traj.events_of("RootSuccess")
    assert len(success) == 1
    assert success[0].t == pytest.approx(t_success, abs=0.05)
    assert traj.duration == pytest.approx(success[0].t)
    # leaf occupancy is one stint of each
    leaves = [s.leaf for s in traj.samples]
    assert leaves[0] == 1 and leaves[-1] == 2
    assert [k for k, g in __import__("itertools").groupby(leaves)] == [1, 2]


def test_pendulum_started_upright_succeeds_at_once(pendulum):
    cfg = IntegratorConfig(dt=0.004, t_end=60.0)
    traj = integrate(pendulum.plant, pendulum.bt, [0.1, 0.0], cfg)
    assert traj.events_of("RootSuccess")[0].t == 0.0
    assert traj.duration == 0.0
    assert not traj.events_of("Switch")


def test_one_walk_per_grid_step(pendulum):
    """The tree is walked once at the start and once per step taken: one
    step per grid step, and for a switch inside a grid step each bisection
    probe and then the rest of the step, none of them stepped to or walked
    twice.  Every control feeds a field call."""
    counts = {"resolve": 0, "controller": 0, "field": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def copy(node):
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, LeafBehavior(
                counted("controller", b.controller), b.metadata, b.label))
        return type(node)(node.node_id, tuple(copy(c) for c in node.children))

    bt = BehaviorTree(copy(pendulum.bt.root), state_dim=pendulum.bt.state_dim)
    bt.resolve = counted("resolve", bt.resolve)
    plant = Plant(2, 1, counted("field", pendulum.plant.field))
    cfg = IntegratorConfig(dt=0.004, t_end=1.0)
    steps = round(cfg.t_end / cfg.dt)
    probes = math.ceil(math.log2(cfg.dt / cfg.event_tol))  # halvings of dt to event_tol
    for x0, switches in (((2.0, 0.0), 0), ((-1.5, 1.0), 1)):  # the second hands off at 0.93
        counts.update(dict.fromkeys(counts, 0))
        traj = integrate(plant, bt, x0, cfg)
        assert [e.kind for e in traj.events] == ["Switch"] * switches
        assert len(traj.samples) == steps + 1 + 2 * switches  # bracket ends at a switch
        taken = steps + switches * (probes + 1)
        assert counts["resolve"] == taken + 1
        assert counts["controller"] == counts["field"] == 4 * taken
        assert {s.status for s in traj.samples} == {Status.RUNNING}
        assert {s.leaf for s in traj.samples} == ({1, 2} if switches else {1})


def test_a_fixed_point_of_the_step_writes_what_stepping_would(pendulum):
    """From (pi/3, 0) balance settles on a state its grid step maps to
    itself, bit for bit, outside Success.  The run writes the rest of the
    horizon from there; its samples are those of a loop that steps the
    active leaf and walks the tree on every grid step."""
    cfg = IntegratorConfig(dt=0.004, t_end=60.0)
    bt, field = pendulum.bt, pendulum.plant.field
    traj = integrate(pendulum.plant, bt, (math.pi / 3, 0.0), cfg)
    x = bt.check_state((math.pi / 3, 0.0))
    status, leaf = bt.resolve(x)
    expected = [Sample(0.0, x, leaf, status)]
    for k in range(1, 15001):
        x = pendulum.plant.steps.get((field, bt.nodes[leaf].behavior.controller))(x, cfg.dt)
        status, leaf = bt.resolve(x)
        expected.append(Sample(float(k * cfg.dt), x, leaf, status))
    assert not traj.events and len(traj.samples) == 15001
    assert repr(traj.samples) == repr(expected)  # repr tells -0.0 from 0.0
    assert expected[-1].status is Status.RUNNING
    assert expected[314].x == expected[313].x != expected[312].x


def test_controller_evaluations_stop_at_a_fixed_point_of_the_step(pendulum):
    """Past the fixed point nothing is evaluated: the run from (pi/3, 0) to
    t_end 60 calls the controllers as often as the run to t_end 30, on the
    _rk4 route of wrapped controllers, and writes the generated route's
    bytes."""
    calls = [0]

    def counted(controller):
        def wrapper(x):
            calls[0] += 1
            return controller(x)
        return wrapper

    def rebuilt(node):
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, dataclasses.replace(b, controller=counted(b.controller)))
        return type(node)(node.node_id, tuple(rebuilt(c) for c in node.children))

    bt = BehaviorTree(rebuilt(pendulum.bt.root), state_dim=2)
    counts = []
    for t_end in (30.0, 60.0):
        calls[0] = 0
        cfg = IntegratorConfig(dt=0.004, t_end=t_end)
        traj = integrate(pendulum.plant, bt, (math.pi / 3, 0.0), cfg)
        counts.append(calls[0])
        fused = integrate(pendulum.plant, pendulum.bt, (math.pi / 3, 0.0), cfg)
        assert traj.to_json() == fused.to_json()
    assert counts[0] == counts[1] == 4 * 314  # four RK4 stages per step up to the fixed point


def test_a_fixed_point_of_the_step_is_a_repeat_of_its_bits():
    """0.0 == -0.0, but a step from -0.0 that lands on 0.0 has moved the
    state: only the next step, 0.0 to 0.0, is a fixed point."""
    plant = Plant(1, 1, lambda x, u: (0.0,))
    traj = integrate(plant, single_leaf_bt(lambda x: (0.0,), dim=1), (-0.0,),
                     IntegratorConfig(dt=0.5, t_end=2.0))
    assert [s.t for s in traj.samples] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert repr([s.x for s in traj.samples]) == repr([(-0.0,), (0.0,), (0.0,), (0.0,), (0.0,)])


def _tier_cases():
    """(plant, tree, x0, config) builders: a pendulum bank start, a
    slide_hold bank start, whose slide steps walk too, and the hand-built
    thermostat, whose metadata the generated walk calls by name."""
    workloads = bench_workloads().WORKLOADS

    def bank_start(name):
        wl = workloads[name]
        lowered = dsl.lower(dsl.parse(wl.model_text()))
        return lowered.plant, lowered.bt, wl.bank()["d0.0.0"], wl.config()

    return {
        "pendulum": lambda: bank_start("pendulum_certify"),
        "slide_hold": lambda: bank_start("slide_hold"),
        "thermostat": lambda: (thermostat_plant(), thermostat_bt(), (18.0,),
                               IntegratorConfig(dt=0.01, t_end=5.0)),
    }


@pytest.mark.parametrize("case", ["pendulum", "slide_hold", "thermostat"])
def test_a_tree_that_compiles_its_walk_mid_run_runs_as_one_that_never_does(case, monkeypatch):
    """The tier switch is invisible: a run whose tree takes the generated
    walk after 40 walks per leaf row gives the bytes of one whose tree
    keeps the row-table walk throughout."""
    from ctbt import core

    build = _tier_cases()[case]

    def run(allowance):
        monkeypatch.setattr(core, "_COLD_WALKS_PER_ROW", allowance)
        plant, bt, x0, cfg = build()
        text = integrate(plant, bt, x0, cfg).to_json()
        return text, bt._hot_walk is not None

    cold, went_hot = run(math.inf)
    assert not went_hot
    switching, went_hot = run(40)
    assert went_hot and switching == cold


def test_only_the_lowered_field_and_controllers_take_the_generated_step(pendulum, monkeypatch):
    """A lowered model integrates with its generated steps, slides on
    slide_hold included, and never calls _rk4; a foreign plant, a plant
    copy with a wrapped field or leaves rebuilt around wrapped controllers
    take _rk4, in slides too, with the same output."""

    from ctbt import executor

    calls = []  # (step length, called from a slide)
    rk4, spans = executor._rk4, _SlideSteps(monkeypatch, lambda: ())

    def counted(*args):
        calls.append((args[2], spans.open is not None))
        return rk4(*args)

    monkeypatch.setattr(executor, "_rk4", counted)
    cfg = IntegratorConfig(dt=0.004, t_end=12.0)
    fused = integrate(pendulum.plant, pendulum.bt, (2.0, 0.0), cfg, "pendulum")
    assert calls == []
    assert fused.events_of("Switch") and fused.events_of("RootSuccess")

    def wrapped(fn):
        return lambda *args: fn(*args)

    def rebuilt(node):  # wrapped controllers, guards kept
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, dataclasses.replace(b, controller=wrapped(b.controller)))
        return type(node)(node.node_id, tuple(rebuilt(c) for c in node.children))

    cases = {
        "foreign plant": (Plant(2, 1, pendulum.plant.field), pendulum.bt),
        "wrapped field": (dataclasses.replace(pendulum.plant, field=wrapped(pendulum.plant.field)),
                          pendulum.bt),
        "rebuilt leaves": (pendulum.plant, BehaviorTree(rebuilt(pendulum.bt.root), state_dim=2)),
    }
    for name, (plant, bt) in cases.items():
        calls.clear()
        traj = integrate(plant, bt, (2.0, 0.0), cfg, "pendulum")
        assert calls, name
        assert traj.to_json() == fused.to_json(), name

    # slide_hold: the copy's leaves keep their guards, so only the step
    # differs between the two runs
    slide_hold = dsl.lower(dsl.parse(SLIDE_HOLD))
    cfg = IntegratorConfig(dt=0.01, t_end=16.0)
    calls.clear()
    fused = integrate(slide_hold.plant, slide_hold.bt, (-1.0, -1.2), cfg, "slide_hold")
    assert calls == []
    assert fused.events_of("SlideEnter")
    bt = BehaviorTree(rebuilt(slide_hold.bt.root), state_dim=2)
    traj = integrate(slide_hold.plant, bt, (-1.0, -1.2), cfg, "slide_hold")
    assert any(in_slide for _, in_slide in calls)
    assert traj.to_json() == fused.to_json()


# ------------------------------------------------------------- serialization

def test_serialization_deterministic():
    a = thermostat_run(SETPOINT - 2.0)
    b = thermostat_run(SETPOINT - 2.0)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_pendulum_rerun_identical(pendulum):
    cfg = IntegratorConfig(dt=0.004, t_end=60.0)
    a = integrate(pendulum.plant, pendulum.bt, [2.0, 0.0], cfg, "pendulum")
    b = integrate(pendulum.plant, pendulum.bt, [2.0, 0.0], cfg, "pendulum")
    assert a.to_json() == b.to_json()


def test_json_and_csv_shape():
    traj = thermostat_run(SETPOINT - 2.0, t_end=0.05)
    doc = __import__("json").loads(traj.to_json())
    assert set(doc) == {"meta", "samples", "events"}
    assert doc["meta"]["model"] == "thermostat"
    assert doc["meta"]["x0"] == [19.0]
    assert doc["samples"][0] == {"t": 0.0, "x": [19.0], "leaf": 3, "status": "R"}
    csv = traj.to_csv().splitlines()
    assert csv[0] == "t,x0,leaf,status"
    assert csv[1] == "0.0,19.0,3,R"


def test_grid_samples_are_eager_and_at_float_grid_times(pendulum):
    """integrate returns a list of Samples whose grid times are the floats
    (k + 1)*dt, not sums of steps, floats for an int dt too."""
    cfg = IntegratorConfig(dt=0.004, t_end=1.0)
    traj = integrate(pendulum.plant, pendulum.bt, (2.0, 0.0), cfg)  # no switch
    assert not traj.events and type(traj.samples) is list and len(traj.samples) == 251
    for k, s in enumerate(traj.samples):
        assert type(s) is Sample and type(s.t) is float and s.t == k * cfg.dt
    traj = thermostat_run(20.0, t_end=3, dt=1)
    assert all(type(s.t) is float for s in traj.samples)
    assert [s.t for s in traj.samples if s.t.is_integer()] == [0.0, 1.0, 2.0, 3.0]


def test_sample_is_a_named_tuple_of_its_four_fields():
    s = Sample(t=0.5, x=(1.0, 2.0), leaf=3, status=Status.RUNNING)
    assert Sample._fields == ("t", "x", "leaf", "status")
    assert s == Sample(0.5, (1.0, 2.0), 3, Status.RUNNING) == (0.5, (1.0, 2.0), 3, Status.RUNNING)
    assert s != s._replace(leaf=4)
    assert len({s, Sample(0.5, (1.0, 2.0), 3, Status.RUNNING)}) == 1
    t, x, leaf, status = s
    assert (t, x, leaf, status) == (s.t, s.x, s.leaf, s.status)
    with pytest.raises(AttributeError):
        s.t = 1.0


def test_default_config_echoed_in_meta():
    bt = single_leaf_bt(lambda x: (0.0,), dim=1)
    always_done = Leaf(0, LeafBehavior(lambda x: (0.0,),
                                       lambda x: Status.SUCCESS))
    bt = BehaviorTree(always_done, state_dim=1)
    traj = integrate(integrator_plant(1), bt, [0.0])
    assert traj.meta["dt"] == 0.001
    assert traj.meta["t_end"] == 30.0
    assert traj.meta["event_tol"] == 1e-6
    assert traj.meta["stop_on_root_success"] is True
    assert traj.duration == 0.0  # immediate root success


def test_ndarray_field_still_gives_plain_floats():
    """thermostat_plant's field returns an ndarray; samples, events and the
    serialized forms still hold tuples of plain Python floats, on that run
    (_rk4, cloud slide) and on a lowered slide_hold run (generated steps,
    guard slide)."""
    slide_hold = dsl.lower(dsl.parse(SLIDE_HOLD))
    for traj in (thermostat_run(SETPOINT - 2.0, t_end=3.0),
                 integrate(slide_hold.plant, slide_hold.bt, (-1.0, -1.2),
                           IntegratorConfig(dt=0.01, t_end=2.0))):
        assert traj.events_of("SlideEnter")
        states = [s.x for s in traj.samples] + [e.x for e in traj.events]
        assert all(type(x) is tuple for x in states)
        values = [*traj.meta["x0"], *(v for x in states for v in x)]
        assert all(type(v) is float for v in values)
        for text in (traj.to_csv(), traj.to_json()):
            assert "float64" not in text and "array" not in text


@pytest.mark.parametrize("field, value", [
    ("dt", 0.0), ("dt", -0.01), ("dt", math.nan), ("dt", math.inf),
    ("dt", 1e-15), ("dt", 1e-16),  # run steps no span this short
    ("event_tol", 0.0), ("event_tol", -1e-6), ("event_tol", math.nan),
    ("t_end", -1.0), ("t_end", math.nan), ("t_end", math.inf),
    ("t_end", 1e308),  # t_end / dt overflows at the default dt
    pytest.param("t_end", 10**400, id="t_end-int_beyond_float_range"),
])
def test_config_rejects_bad_steps_and_horizons(field, value):
    with pytest.raises(ValueError, match=f"IntegratorConfig.{field} must be finite"):
        IntegratorConfig(**{field: value})


def test_config_accepts_a_zero_horizon():
    traj = thermostat_run(SETPOINT - 2.0, t_end=0.0)
    assert [s.t for s in traj.samples] == [0.0]


@pytest.mark.parametrize("build", [
    lambda: IntegratorConfig(max_chatter=0),
    lambda: IntegratorConfig(sliding_eps=-1.0),
    lambda: IntegratorConfig(stop_on_root_success=False),
    lambda: BehaviorTree(Leaf(0, LeafBehavior(lambda x: (0.0,),
                                              lambda x: Status.RUNNING))),
], ids=["max_chatter", "sliding_eps", "stop_on_root_success", "no_state_dim"])
def test_fixed_construction_parts_are_not_options(build):
    """The chatter count, the coefficient slack and the stop at root Success
    are constants of the executor, and a tree needs its state dimension."""
    with pytest.raises(TypeError):
        build()


# ------------------------------------------------------------------ batching

def test_batch_isolates_failures():
    plant = thermostat_plant()
    bt = thermostat_bt()
    cfg = IntegratorConfig(dt=0.01, t_end=0.5)
    unreadable = [["a"], [1, [2, 3]], "x"]  # no tuple of floats to report
    runs = batch_integrate(plant, bt, [[19.0], [float("nan")], *unreadable, [24.0]], cfg)
    assert [isinstance(r, FailedRun) for r in runs] == [False, True, True, True, True, False]
    assert [r.index for r in runs[1:-1]] == [1, 2, 3, 4]
    assert runs[1].error == "NonFiniteState"
    for run, x0 in zip(runs[2:-1], unreadable):
        with pytest.raises(ValueError) as err:
            bt.check_state(x0)
        assert (run.x0, run.error, run.message) == ((), "ValueError", str(err.value))


def _none_past(limit: float, axis: int = 0):
    """A leaf status that answers None, not a Status, past x[axis] = limit."""
    return lambda x: None if x[axis] > limit else Status.RUNNING


@pytest.mark.parametrize("x0, t", [([0.0], "0.5000007629394532"), ([1.0], "0.0")],
                         ids=["located_event", "start"])
def test_status_that_is_not_a_status_fails_the_run(x0, t):
    bt = BehaviorTree(Leaf(0, LeafBehavior(lambda x: (1.0,), _none_past(0.5))), state_dim=1)
    plant = Plant(1, 1, lambda x, u: u)
    cfg = IntegratorConfig(dt=0.1, t_end=1.0)
    message = f"status at t={t} is not a Status: leaf 0 answers None"
    with pytest.raises(ExecutionError) as err:
        integrate(plant, bt, x0, cfg)
    assert str(err.value) == message
    (run,) = batch_integrate(plant, bt, [x0], cfg)
    assert (run.error, run.message) == ("ExecutionError", message)


def test_slide_step_to_a_status_that_is_not_a_status_fails_the_run():
    # the shear slide travels along x1 into the right leaf's None
    left, right = shear_bt(lambda x: (x[0], (1.0, 0.0))).root.children
    right = Leaf(2, dataclasses.replace(right.behavior, metadata=_none_past(0.05, axis=1)))
    bt = BehaviorTree(Fallback(0, (left, right)), state_dim=2)
    cfg = IntegratorConfig(dt=0.001, t_end=0.011, event_tol=1e-5)
    with pytest.raises(ExecutionError, match=r"^status at t=0\.01\d* is not a Status: "
                                             r"leaf 2 answers None$"):
        integrate(integrator_plant(2), bt, (-0.01, 0.0), cfg)


# Runs whose bisection tolerance lies below the float spacing of the bracket,
# each in a child process that the test stops at its timeout if it hangs.
_FLOAT_RESOLUTION_RUNS = {
    "regular_span": """
        m = dsl.load(dsl.bundled_model_dir() / "thermostat.btm")
        run = integrate(m.plant, m.bt, [19.0],
                        IntegratorConfig(dt=0.01, t_end=3.0, event_tol=1e-19))
        assert run.events_of("SlideEnter") and run.samples[-1].t == 3.0
        """,
    "pendulum": """
        m = dsl.load(dsl.bundled_model_dir() / "pendulum.btm")
        run = integrate(m.plant, m.bt, [2.0, 0.0],
                        IntegratorConfig(dt=0.004, t_end=20.0, event_tol=1e-300))
        assert [e.kind for e in run.events] == ["Switch", "RootSuccess"]
        """,
    "project_to_surface": """
        import math
        def gate(x):
            return Status.SUCCESS if x[0] ** 2 + x[1] ** 2 > 1.0 else Status.FAILURE
        def field(sign):  # across the unit circle, and 0.5 along it
            return lambda x: ((sign * x[0] - 0.5 * x[1]) / math.hypot(*x),
                              (sign * x[1] + 0.5 * x[0]) / math.hypot(*x))
        bt = BehaviorTree(Sequence(0, (Fallback(1, (
            Leaf(2, LeafBehavior(lambda x: (0.0, 0.0), gate)),
            Leaf(3, LeafBehavior(field(1.0), lambda x: Status.RUNNING)))),
            Leaf(4, LeafBehavior(field(-1.0), lambda x: Status.RUNNING)))), 2)
        # a slide step of dt = 0.1 leaves the circle by about 1e-3, where
        # the float spacing of the projection's bracket exceeds event_tol
        run = integrate(Plant(2, 2, lambda x, u: u), bt, [0.2, 0.0],
                        IntegratorConfig(dt=0.1, t_end=4.0, event_tol=1e-19))
        assert run.events_of("SlideEnter") and not run.events_of("SlideExit")
        assert max(abs(math.hypot(*s.x) - 1.0) for s in run.samples if s.t >= 1.2) <= 1e-12
        """,
    "planar_slide": """
        def gate(x):
            return Status.SUCCESS if x[0] > 0.0 else Status.FAILURE
        bt = BehaviorTree(Sequence(0, (Fallback(1, (
            Leaf(2, LeafBehavior(lambda x: (0.0, 0.0), gate)),
            Leaf(3, LeafBehavior(lambda x: (1.0, 0.5), lambda x: Status.RUNNING)))),
            Leaf(4, LeafBehavior(lambda x: (-1.0, 0.5), lambda x: Status.RUNNING)))), 2)
        run = integrate(Plant(2, 2, lambda x, u: u), bt, [-0.5, 0.0],
                        IntegratorConfig(dt=0.01, t_end=3.0, event_tol=1e-19))
        assert run.events_of("SlideEnter") and not run.events_of("SlideExit")
        assert max(abs(s.x[0]) for s in run.samples if s.t >= 0.6) <= 1e-4
        """,
    "sample_boundary_pairs": """
        m = dsl.load(dsl.bundled_model_dir() / "thermostat.btm")
        pairs = sample_boundary_pairs(m.bt, [(21 - 1e12, 21 + 1e12)], 3, 1)
        assert len(pairs) == 3
        assert all(m.bt.active_leaf(a) != m.bt.active_leaf(b) for a, b in pairs)
        """,
    "cli_simulate": """
        from ctbt.cli import main
        assert main(["simulate", "thermostat.btm", "--x0", "19", "--dt", "0.01",
                     "--t-end", "3", "--event-tol", "1e-19"]) == 0
        """,
}


@pytest.mark.parametrize("name", sorted(_FLOAT_RESOLUTION_RUNS))
def test_bisection_stops_at_float_resolution(name):
    code = "from ctbt import *\nfrom ctbt import dsl\n" + textwrap.dedent(_FLOAT_RESOLUTION_RUNS[name])
    env = dict(os.environ, PYTHONPATH=str(Path(dsl.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_the_locator_halves_to_its_width_or_to_float_resolution():
    probes = []

    def stays(s):
        probes.append(s)
        return s < 0.3

    lo, hi = executor._bisect(stays, 1.0, 1e-300)  # below the float spacing at 0.3
    assert lo < 0.3 <= hi and hi == math.nextafter(lo, hi)
    assert lo in probes and hi in probes
    # the width test scales the bracket: (hi - lo)*1e6 <= 1e-6 < 2*(hi - lo)*1e6
    lo, hi = executor._bisect(stays, 1.0, 1e-6, 1e6)
    assert lo < 0.3 <= hi and (hi - lo) * 1e6 <= 1e-6 < 2.0 * (hi - lo) * 1e6
    # an event at the bracket's start ends on the first float past it
    assert executor._bisect(lambda s: False, 1.0, 0.0) == (0.0, math.nextafter(0.0, 1.0))


def test_sample_times_increase_when_a_bracket_ends_at_float_resolution():
    """With event_tol 1e-19 each bisection of a thermostat switch ends at
    float resolution, where the last probe and the event have one time:
    only the event is recorded there, so sample times increase strictly."""
    model = dsl.load(dsl.bundled_model_dir() / "thermostat.btm")
    cfg = IntegratorConfig(dt=0.01, t_end=5.0, event_tol=1e-19)
    traj = integrate(model.plant, model.bt, [19.0], cfg)
    assert len(traj.events_of("Switch")) >= 4
    times = [s.t for s in traj.samples]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_divergent_run_reports_nonfinite():
    bt = single_leaf_bt(lambda x: (x[0] * x[0],), dim=1)
    plant = Plant(1, 1, lambda x, u: np.array([u[0]]))
    cfg = IntegratorConfig(dt=0.01, t_end=2.0)
    with pytest.raises(NonFiniteState, match=r"^state diverged: \(\d"):
        integrate(plant, bt, [1.0], cfg)
    runs = batch_integrate(plant, bt, [[1.0]], cfg)
    assert isinstance(runs[0], FailedRun)


STEADY = """\
model "steady" {
  state 3;
  control 1;
  plant { dx0 = x0 * x0 + u0; dx1 = u0; dx2 = u0; }
  leaf hold { u = [0.0]; status = R; }
  root = hold;
}
"""


def _routes(model):
    """model's tree, taking its generated step, and a copy whose wrapped
    controllers take _rk4."""
    def rebuilt(node):
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, dataclasses.replace(
                b, controller=lambda x, c=b.controller: c(x)))
        return type(node)(node.node_id, tuple(rebuilt(c) for c in node.children))

    return [model.bt, BehaviorTree(rebuilt(model.bt.root), state_dim=model.bt.state_dim)]


def test_large_norm_with_bounded_components_keeps_running():
    """From (1e-6, +-9e11, 9e11) x0 stays tiny and x1, x2 do not move: the
    hypot of the state is past 1e12, every component within it, so the run
    goes on to its end; a component past 1e12 ends it at the first step."""
    model = dsl.lower(dsl.parse(STEADY))
    cfg = IntegratorConfig(dt=0.1, t_end=1.0)
    for bt in _routes(model):
        for x0 in ((1e-6, 9e11, 9e11), (1e-6, -9e11, 9e11), (1e-6, 1e12, -1e12)):
            traj = integrate(model.plant, bt, x0, cfg)
            assert math.hypot(*x0) > 1e12 and len(traj.samples) == 11
            assert all(s.x[1:] == x0[1:] for s in traj.samples)
        with pytest.raises(NonFiniteState, match=r"^state diverged: "):
            integrate(model.plant, bt, (1e-6, 9e11, 1.5e12), cfg)


def test_divergence_in_a_steady_stretch_raises_at_its_grid_step():
    """x0' = x0^2 from 1 leaves every bound near t = 1.  The run raises
    NonFiniteState naming the first grid state past 1e12, got by stepping
    by hand, after one walk at the start and one per step before it."""
    model = dsl.lower(dsl.parse(STEADY))
    cfg = IntegratorConfig(dt=0.01, t_end=2.0)
    step = model.plant.steps.get((model.plant.field, model.bt.behavior(0).controller))
    x, k = (1.0, 0.0, 0.0), 0
    while max(map(abs, x)) <= 1e12:
        x, k = step(x, cfg.dt), k + 1
    assert 90 < k < 200
    for bt in _routes(model):
        walks = []
        bt.resolve = lambda y, walk=bt.resolve: walks.append(y) or walk(y)
        with pytest.raises(NonFiniteState) as e:
            integrate(model.plant, bt, (1.0, 0.0, 0.0), cfg)
        assert str(e.value) == f"state diverged: {x!r}"
        assert len(walks) == k


# ------------------------------------------------------------ transversality

def test_transversality_thermostat():
    bt = thermostat_bt()
    plant = thermostat_plant()
    pairs = sample_boundary_pairs(bt, [(SETPOINT - 5, SETPOINT + 5)],
                                  count=100, seed=3)
    assert len(pairs) == 100
    report = check_transversality(plant, bt, pairs)
    assert report.total == 100
    assert report.fraction == 1.0
    assert report.failures == ()


def test_transversality_flags_grazing():
    # field parallel to the surface on both sides: pure grazing.  The
    # probe direction comes from the pair, so the pairs are built along
    # the known surface normal of x0 = 0.
    def gate(x):
        return Status.SUCCESS if x[0] > 0.0 else Status.FAILURE

    bt = switch_bt(gate, lambda x: (0.0, 1.0), lambda x: (0.0, 1.0), dim=2)
    plant = integrator_plant(2)
    eps = 1e-7
    pairs = [(np.array([-eps, y]), np.array([eps, y]))
             for y in np.linspace(-1.0, 1.0, 50)]
    report = check_transversality(plant, bt, pairs)
    assert report.fraction == 0.0
    assert len(report.failures) == 50
    # the same geometry with a crossing field passes
    bt2 = switch_bt(gate, lambda x: (1.0, 1.0), lambda x: (1.0, 1.0), dim=2)
    report2 = check_transversality(plant, bt2, pairs)
    assert report2.fraction == 1.0


def test_transversality_fails_pairs_that_straddle_no_surface():
    # a pair of one point, and a pair inside heat's region, then a crossing
    report = check_transversality(thermostat_plant(), thermostat_bt(),
                                  [([20.0], [20.0]), ([19.0], [19.5]), ([20.9], [21.1])])
    assert (report.total, report.ok, report.failures) == (3, 1, (0, 1))


def test_boundary_sampler_properties():
    bt = thermostat_bt()
    pairs = sample_boundary_pairs(bt, [(SETPOINT - 5, SETPOINT + 5)],
                                  count=25, seed=11)
    again = sample_boundary_pairs(bt, [(SETPOINT - 5, SETPOINT + 5)],
                                  count=25, seed=11)
    for (a, b), (c, d) in zip(pairs, again):
        assert np.array_equal(a, c) and np.array_equal(b, d)
    for xa, xb in pairs:
        assert bt.resolve(xa)[1] != bt.resolve(xb)[1]
        assert abs(float(xa[0]) - SETPOINT) < 1e-5
        assert np.linalg.norm(xb - xa) <= 1e-5


def test_boundary_sampler_empty():
    bt = thermostat_bt()
    with pytest.raises(EmptySampler):
        sample_boundary_pairs(bt, [(0.0, 1.0)], count=5, seed=1)


_LAMP_BOX = [(-3.0, 3.0), (-3.0, 3.0)]


@pytest.mark.parametrize("call, error, match", [
    (lambda bt, m: sample_boundary_pairs(bt, _LAMP_BOX + [(0.0, 1.0)], 5, 1),
     DimensionMismatch, "shape"),
    (lambda bt, m: check_transversality(
        m.plant, bt, [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))]), DimensionMismatch, "shape"),
    (lambda bt, m: sample_boundary_pairs(bt, [(-3.0, math.nan), (-3.0, 3.0)], 5, 1),
     NonFiniteState, "not finite"),
    (lambda bt, m: sample_boundary_pairs(bt, _LAMP_BOX, 0, 1),
     EmptySampler, "count must be positive"),
    (lambda bt, m: sample_boundary_pairs(bt, _LAMP_BOX, -1, 1),
     EmptySampler, "count must be positive"),
    (lambda bt, m: check_transversality(
        m.plant, bt, [((math.nan, 0.0), (1.0, 0.0))]), NonFiniteState, "not finite"),
], ids=["box-3-axes", "pair-3-components", "box-nan", "count-0", "count-neg",
        "pair-nan"])
def test_boundary_tools_validate_their_input(call, error, match):
    """Boxes and pairs are states of the tree: the one state check applies."""
    model = dsl.load(dsl.resolve_model_path("kitchen_lamp.btm"))
    with pytest.raises(error, match=match):
        call(model.bt, model)


# ------------------------------------------------------------ state format

def _recording(model):
    """Copies of a lowered model's plant and tree whose field, controllers
    and status functions append their state argument to a list."""
    seen = []

    def rec(fn):
        def recorded(x, *rest):
            seen.append(x)
            return fn(x, *rest)
        return recorded

    def copy(node):
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, LeafBehavior(rec(b.controller), rec(b.metadata), b.label))
        return type(node)(node.node_id, tuple(copy(c) for c in node.children))

    bt = BehaviorTree(copy(model.bt.root), state_dim=model.bt.state_dim)
    plant = Plant(model.plant.state_dim, model.plant.control_dim, rec(model.plant.field))
    return plant, bt, seen


def test_every_callable_receives_a_tuple_of_floats():
    from ctbt.regions import check_partition, region_table, subsystem_leaves

    plant, bt, seen = _recording(dsl.load(dsl.bundled_model_dir() / "thermostat.btm"))
    box = [(SETPOINT - 5, SETPOINT + 5)]
    grid = np.linspace(SETPOINT - 2, SETPOINT + 2, 9).reshape(-1, 1)
    pairs = sample_boundary_pairs(bt, box, count=5, seed=3)
    routes = {
        "integrate": lambda: integrate(plant, bt, np.array([SETPOINT - 1.0]),
                                       IntegratorConfig(dt=0.01, t_end=3.0)),
        "tick": lambda: bt.tick(np.array([SETPOINT + 0.5])),
        "check_partition": lambda: check_partition(bt, grid),
        "subsystem_leaves": lambda: subsystem_leaves(bt, grid),
        "region_table": lambda: region_table(bt, grid),
        "sample_boundary_pairs": lambda: sample_boundary_pairs(bt, box, count=5, seed=3),
        "check_transversality": lambda: check_transversality(plant, bt, pairs),
    }
    for name, route in routes.items():
        seen.clear()
        out = route()
        assert seen, name
        wrong = [x for x in seen if type(x) is not tuple or any(type(v) is not float for v in x)]
        assert not wrong, (name, wrong[:3])
        if name == "integrate":  # regular steps first, then the slide
            assert out.events_of("Switch") and out.events_of("SlideEnter")
