import math

import numpy as np
import pytest

from ctbt import dsl
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
    FailedRun,
    IntegratorConfig,
    TriplePointChatter,
    batch_integrate,
    check_transversality,
    integrate,
    sample_boundary_pairs,
)
from ctbt.regions import EmptySampler

from conftest import SETPOINT, thermostat_bt, thermostat_plant


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
        return integrate(plant, bt, x0, cfg).final_state

    ref = final(0.02 / 64.0)
    err1 = float(np.linalg.norm(final(0.02) - ref))
    err2 = float(np.linalg.norm(final(0.01) - ref))
    assert err1 > 1e-12
    assert err1 / err2 >= 8.0


def test_rk4_exact_on_constant_field():
    # pre-switch thermostat segment: unit ramp, no truncation error at all
    for dt in (0.01, 0.005):
        traj = thermostat_run(SETPOINT - 2.0, t_end=1.0, dt=dt)
        assert abs(traj.final_state[0] - (SETPOINT - 1.0)) < 1e-12


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
    """Without a switch or status change the tree is walked once per grid
    step plus once at the start, and every control feeds a field call."""
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
    cfg = IntegratorConfig(dt=0.004, t_end=0.4)
    traj = integrate(plant, bt, [2.0, 0.0], cfg)
    steps = round(cfg.t_end / cfg.dt)
    assert traj.events == []
    assert len(traj.samples) == steps + 1
    assert {(s.leaf, s.status) for s in traj.samples} == {(1, Status.RUNNING)}
    assert counts["resolve"] == steps + 1
    assert counts["controller"] == counts["field"] == 4 * steps


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
    serialized forms still hold plain Python floats."""
    traj = thermostat_run(SETPOINT - 2.0, t_end=3.0)
    assert traj.events_of("SlideEnter")
    values = [*traj.meta["x0"], *(v for s in traj.samples for v in s.x),
              *(v for e in traj.events for v in e.x)]
    assert all(type(v) is float for v in values)
    for text in (traj.to_csv(), traj.to_json()):
        assert "float64" not in text and "array" not in text


@pytest.mark.parametrize("field, value", [
    ("dt", 0.0), ("dt", -0.01), ("dt", math.nan), ("dt", math.inf),
    ("event_tol", 0.0), ("event_tol", -1e-6), ("event_tol", math.nan),
    ("t_end", -1.0), ("t_end", math.nan), ("t_end", math.inf),
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
    runs = batch_integrate(plant, bt, [[19.0], [float("nan")], [24.0]], cfg)
    assert len(runs) == 3
    assert isinstance(runs[1], FailedRun)
    assert runs[1].index == 1
    assert runs[1].error == "NonFiniteState"
    assert not isinstance(runs[0], FailedRun)
    assert not isinstance(runs[2], FailedRun)


def test_divergent_run_reports_nonfinite():
    bt = single_leaf_bt(lambda x: (x[0] * x[0],), dim=1)
    plant = Plant(1, 1, lambda x, u: np.array([u[0]]))
    cfg = IntegratorConfig(dt=0.01, t_end=2.0)
    with pytest.raises(NonFiniteState, match=r"^state diverged: \(\d"):
        integrate(plant, bt, [1.0], cfg)
    runs = batch_integrate(plant, bt, [[1.0]], cfg)
    assert isinstance(runs[0], FailedRun)


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
