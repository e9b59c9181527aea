"""Tests of the benchmark's own generators, model text and failure classifier."""

import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np

from ctbt import FailedRun, IntegratorConfig, dsl, integrate

import workloads
from workloads import WORKLOADS, classify, random_tree_btm


def test_generators_are_deterministic_in_the_seed():
    for wl in WORKLOADS.values():
        assert wl.bank() == wl.bank()
        assert wl.pass_keys(7, 0) == wl.pass_keys(7, 0)
        assert wl.pass_keys(7, 1) == wl.pass_keys(7, 1)
        assert wl.pass_keys(7, 0) != wl.pass_keys(8, 0)
        assert set(wl.pass_keys(7, 0)) <= set(wl.bank())
    audit = WORKLOADS["region_audit"]
    key = audit.pass_keys(3, 0)[0]
    assert np.array_equal(audit.points(3, 0, key), audit.points(3, 0, key))
    assert not np.array_equal(audit.points(3, 0, key), audit.points(4, 0, key))
    assert (random_tree_btm(np.random.default_rng(5), 12, "t")
            == random_tree_btm(np.random.default_rng(5), 12, "t"))


def test_every_pass_has_the_same_mix():
    pend = WORKLOADS["pendulum_certify"]
    for seed in (0, 1, 99):
        keys = pend.pass_keys(seed, 0)
        assert len(keys) == len(set(keys)) == 6 * 4 + 7
        assert sum(k.startswith("r") for k in keys) == 7
    audit = WORKLOADS["region_audit"]
    assert sorted(audit.pass_keys(5, 2)) == sorted(audit.bank())
    assert audit.pass_keys(5, 2) != audit.pass_keys(5, 3)


def test_generated_models_parse_and_lower():
    slide = dsl.lower(dsl.parse(WORKLOADS["slide_hold"].model_text()))
    assert [slide.bt.behavior(i).label for i in slide.bt.leaf_ids] == [
        "at_goal", "above", "push_up", "push_down"]
    assert slide.bt.kinds[0] == "fal"
    for text, n_leaves in WORKLOADS["region_audit"].bank().values():
        model = dsl.lower(dsl.parse(text))
        assert len(model.bt.leaf_ids) == n_leaves
        assert dsl.parse(dsl.format_model(model.model)) == model.model


def test_reference_covers_every_bank_entry():
    for name, wl in WORKLOADS.items():
        ref = json.loads((workloads.REFERENCE_DIR / f"{name}.json").read_text())
        assert set(ref) == set(wl.bank()), name


def test_classifier_flags_slide_exit_into_success():
    wl = WORKLOADS["slide_hold"]
    model = dsl.lower(dsl.parse(wl.model_text()))
    cfg = IntegratorConfig(dt=wl.dt, t_end=3.0)
    run = integrate(model.plant, model.bt, [-0.6, 1.5], cfg)
    assert run.events_of("SlideEnter") and run.events_of("SlideExit")
    assert any(s.status.value == "S" for s in run.samples)
    assert classify(run) == "ran_past_success"
    assert wl.check_run(run) == []


def test_reference_comparison_accepts_the_stop_on_success_fix():
    from ctbt.executor import Event, Trajectory

    wl = WORKLOADS["slide_hold"]
    model = dsl.lower(dsl.parse(wl.model_text()))
    run = integrate(model.plant, model.bt, [-0.6, 1.5], IntegratorConfig(dt=wl.dt, t_end=3.0))
    reference = json.loads(json.dumps(workloads.summarize(run)))
    first = workloads.success_point(run)[0]
    kept = [s for s in run.samples if s.t <= first]
    fixed = Trajectory(run.meta, kept, [e for e in run.events if e.t <= first]
                       + [Event(first, "RootSuccess", kept[-1].x)])
    assert classify(fixed) == "ok"
    assert workloads.compare_summary(workloads.summarize(fixed), reference) == []
    late = json.loads(json.dumps(reference))
    late["t_success"] += 0.01
    assert workloads.compare_summary(workloads.summarize(fixed), late)


def test_classifier_other_outcomes():
    model = dsl.lower(dsl.parse(WORKLOADS["pendulum_certify"].model_text()))
    cfg = IntegratorConfig(dt=0.004, t_end=20.0)
    assert classify(integrate(model.plant, model.bt, [0.3, 0.0], cfg)) == "ok"
    short = IntegratorConfig(dt=0.004, t_end=1.0)
    assert classify(integrate(model.plant, model.bt, [math.pi / 3, 0.0], short)) == "no_success"
    assert classify(FailedRun(0, (0.0, 0.0), "NonFiniteState", "diverged")) == "failed_run"
