"""Acceptance gate: every primary requirement, one pass/fail line each.

Each criterion times its own body, checks its substance at the stated
tolerance, and prints a single [PASS]/[FAIL] line straight to the real
stdout so the verdicts are visible under pytest's capture.  Expensive
artifacts (the pendulum batch, the thermostat run) are memoized so the
determinism criterion can compare fresh reruns against them.
"""

import json
import math
import sys
import time

import numpy as np

import conftest
from conftest import SETPOINT, random_bt, thermostat_bt, thermostat_plant

from ctbt import dsl
from ctbt.convergence import certify
from ctbt.core import Status
from ctbt.dsl import (
    DuplicateDefinition,
    LexError,
    MissingRoot,
    ModelTypeError,
    NodeReusedInTree,
    ParseError,
    UndeclaredIdentifier,
)
from ctbt.executor import (
    FailedRun,
    IntegratorConfig,
    batch_integrate,
    check_transversality,
    integrate,
    sample_boundary_pairs,
)
from ctbt.regions import (
    check_partition,
    composed_status,
    grid_points,
    in_influence_region,
    in_operating_region,
    pathway_sets,
    uniform_points,
)

_cache: dict = {}


def _emit_line(line):
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _verdict(num, label, budget, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException as exc:
        detail = str(exc).splitlines()[0][:120] if str(exc) else ""
        _emit_line(f"[FAIL] criterion {num}: {label} -- "
                   f"{type(exc).__name__}: {detail}")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed <= budget
    _emit_line(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} -- "
               f"{elapsed:.2f}s (budget {budget:g}s)")
    assert ok, f"criterion {num} blew its {budget:g}s budget: {elapsed:.2f}s"


# ----------------------------------------------------------- shared builders

def kitchen_model():
    if "kitchen" not in _cache:
        _cache["kitchen"] = dsl.load(dsl.bundled_model_dir() / "kitchen_lamp.btm")
    return _cache["kitchen"]


def tree_corpus():
    """200 seeded random trees, 1000 sample points each."""
    if "corpus" not in _cache:
        _cache["corpus"] = [
            (random_bt(seed),
             uniform_points([(-3, 3), (-3, 3)], 1000, seed=7000 + seed))
            for seed in range(200)
        ]
    return _cache["corpus"]


def thermostat_artifact() -> str:
    if "thermostat" not in _cache:
        _cache["thermostat"] = _thermostat_run(SETPOINT - 2.0).to_json()
    return _cache["thermostat"]


def _thermostat_run(x0):
    cfg = IntegratorConfig(dt=0.01, t_end=6.0)
    return integrate(thermostat_plant(), thermostat_bt(), [x0], cfg,
                     model_name="thermostat")


def pendulum_inits():
    pts = grid_points([(-math.pi, math.pi), (-2.0, 2.0)], 5)
    down = [(-math.pi, 0.0), (math.pi, 0.0)]
    keep = [p for p in pts
            if all(math.hypot(p[0] - cx, p[1] - cy) > 0.05 for cx, cy in down)]
    assert len(keep) == 23
    return keep


def _pendulum_batch():
    model = dsl.load(dsl.bundled_model_dir() / "pendulum.btm")
    cfg = IntegratorConfig(dt=0.004, t_end=60.0)
    return batch_integrate(model.plant, model.bt, pendulum_inits(), cfg,
                           model_name="pendulum")


def pendulum_artifact():
    if "pendulum" not in _cache:
        runs = _pendulum_batch()
        _cache["pendulum"] = (runs, certify(runs))
    return _cache["pendulum"]


# ---------------------------------------------------------------- criteria

def test_criterion_1_reference_tree_ground_truth():
    def body():
        bt = kitchen_model().bt
        pw = pathway_sets(bt)
        assert set(pw.success) == {0, 2, 3, 4}
        assert set(pw.failure) == {0, 1, 2, 4}
        pts = uniform_points([(-3, 3), (-3, 3)], 1000, seed=11)
        for x in pts:
            s1 = bt.status(1, x) is Status.SUCCESS
            f3 = bt.status(3, x) is Status.FAILURE
            r1 = bt.status(1, x) is Status.RUNNING
            s2 = bt.status(2, x) is Status.SUCCESS
            r2 = bt.status(2, x) is Status.RUNNING
            assert in_influence_region(bt, 2, x) == s1
            assert in_influence_region(bt, 3, x) == s1
            assert in_influence_region(bt, 4, x) == (s1 and f3)
            assert in_operating_region(bt, 1, x) == (r1 or
                                                     bt.status(1, x) is Status.FAILURE)
            assert in_operating_region(bt, 2, x) == (s1 and (r2 or s2))
            assert in_operating_region(bt, 3, x) == s1
            assert in_operating_region(bt, 4, x) == (s1 and f3)

    _verdict(1, "reference tree pathways and region closed forms", 1.0, body)


def test_criterion_2_status_routes_agree():
    def body():
        for bt, pts in tree_corpus():
            if bt.kinds[0] == "leaf":
                for x in pts:
                    assert bt.status(0, x) is bt.root_status(x)
                continue
            for x in pts:
                assert composed_status(bt, 0, x) is bt.root_status(x)

    _verdict(2, "composed status equals delegation on 200 random trees",
             10.0, body)


def test_criterion_3_owner_partition():
    def body():
        for bt, pts in tree_corpus():
            report = check_partition(bt, pts)
            assert report.passed, report.to_dict()

    _verdict(3, "operating regions partition states and agree with the "
             "active leaf", 10.0, body)


def test_criterion_4_thermostat_sliding():
    def body():
        below = json.loads(thermostat_artifact())
        enters = [e for e in below["events"] if e["kind"] == "SlideEnter"]
        assert enters and abs(enters[0]["t"] - 2.0) <= 0.02
        t_slide = enters[0]["t"]
        tail = [s for s in below["samples"] if s["t"] >= t_slide + 0.05]
        assert tail and max(abs(s["x"][0] - SETPOINT) for s in tail) <= 1e-4

        above = _thermostat_run(SETPOINT + 3.0)
        t_above = above.events_of("SlideEnter")[0].t
        assert abs(t_above - 3.0) <= 0.02

        bt, plant = thermostat_bt(), thermostat_plant()
        pairs = sample_boundary_pairs(bt, [(SETPOINT - 5, SETPOINT + 5)],
                                      count=100, seed=13)
        report = check_transversality(plant, bt, pairs)
        assert report.total == 100 and report.fraction == 1.0

    _verdict(4, "thermostat slides on the setpoint within 0.02s and 1e-4",
             1.0, body)


def test_criterion_5_integrator_order():
    def body():
        from ctbt.core import BehaviorTree, Leaf, LeafBehavior, Plant

        def field(x, u):
            return np.array([x[1], math.sin(x[0]) - u[0] * math.cos(x[0])])

        leaf = Leaf(0, LeafBehavior(
            lambda x: (2.0 * math.sin(x[0]) + 2.0 * x[1],),
            lambda x: Status.RUNNING))
        bt = BehaviorTree(leaf, state_dim=2)
        plant = Plant(2, 1, field)

        def final(dt):
            cfg = IntegratorConfig(dt=dt, t_end=1.0)
            return np.array(integrate(plant, bt, [2.0, 0.0], cfg).samples[-1].x)

        ref = final(0.02 / 64.0)
        err1 = float(np.linalg.norm(final(0.02) - ref))
        err2 = float(np.linalg.norm(final(0.01) - ref))
        assert (err1 / max(err2, 1e-300) >= 8.0) or (err1 <= 1e-12
                                                     and err2 <= 1e-12)

    _verdict(5, "halving dt cuts smooth-flow error at fourth order", 5.0, body)


def test_criterion_6_pendulum_convergence():
    def body():
        runs, cert = pendulum_artifact()
        assert len(runs) == 23
        assert not any(isinstance(r, FailedRun) for r in runs)
        for run in runs:
            assert run.events_of("RootSuccess"), run.meta["x0"]
        assert cert.passed
        assert cert.acyclic
        assert cert.graph.nodes == (1, 2)
        assert set(cert.graph.edges) == {(1, 2)}
        assert cert.chain_length == 2
        assert cert.lambda_violations == ()
        bound = cert.settle_time_bound + 0.004
        for run in runs:
            assert run.duration <= bound, (run.meta["x0"], run.duration, bound)

    _verdict(6, "pendulum swing-up certified: 23/23 succeed, two-stage "
             "chain, settle bound holds", 60.0, body)


MALFORMED = [
    # (source, error type, line, col) -- locations are part of the contract
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0 $ 1.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     LexError, 4, 21),
    ('model "m {\n  state 1;\n}', LexError, 1, 7),
    ('model "m" {\n  state 1\n  control 1;\n}', ParseError, 3, 3),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = x9; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     UndeclaredIdentifier, 4, 17),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [S]; status = R; }\n  root = a;\n}',
     ModelTypeError, 5, 17),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = x0; }\n  root = a;\n}',
     ModelTypeError, 5, 32),
    ('model "m" {\n  state 1;\n  control 1;\n  const k = 1.0;\n  const k = 2.0;\n'
     '  plant { dx0 = 0.0; }\n  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     DuplicateDefinition, 5, 9),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  leaf b { u = [0.0]; status = R; }\n'
     '  seq s = [a, b];\n  fal t = [s, a];\n  root = t;\n}',
     NodeReusedInTree, 8, 15),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n}',
     MissingRoot, 6, 1),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [u0]; status = R; }\n  root = a;\n}',
     UndeclaredIdentifier, 5, 17),
]


def test_criterion_7_model_language():
    def body():
        bundled = ["thermostat.btm", "kitchen_lamp.btm", "pendulum.btm"]
        for name in bundled:
            source = (dsl.bundled_model_dir() / name).read_text()
            parsed = dsl.parse(source)
            lowered = dsl.lower(parsed)
            assert lowered.bt.state_dim == parsed.state_dim
            assert dsl.parse(dsl.format_model(parsed)) == parsed
        assert len(MALFORMED) == 10
        for source, err, line, col in MALFORMED:
            try:
                dsl.parse(source)
            except err as exc:
                assert exc.line == line, (source, exc)
                assert exc.col == col, (source, exc)
            else:
                raise AssertionError(f"no {err.__name__} for {source!r}")

    _verdict(7, "model files parse, lower, round-trip; ten malformed inputs "
             "report type and location", 1.0, body)


def test_criterion_8_determinism():
    def body():
        first = thermostat_artifact()
        assert _thermostat_run(SETPOINT - 2.0).to_json() == first

        runs1, cert1 = pendulum_artifact()
        runs2 = _pendulum_batch()
        cert2 = certify(runs2)
        assert cert2.to_json() == cert1.to_json()
        for a, b in zip(runs1, runs2):
            assert a.to_json() == b.to_json()

    _verdict(8, "reruns of the sliding run and the certified batch are "
             "byte-identical", 30.0, body)
