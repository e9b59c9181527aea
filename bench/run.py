"""ctbt benchmark: one closed-loop caller driving one seeded workload.

    python3 bench/run.py --workload pendulum_certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one thread: each operation starts only after the
previous one returned.  Operations run in passes (see workloads.py) until
--seconds have elapsed; the last pass is always finished, so every timing
covers whole passes.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 each
pass runs twice, untraced and then traced on the same inputs, and the run
prints the per-layer metrics plus the tracing overhead (traced over
untraced operation time, minus one).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Human-readable lines
come before it; the traced run also writes its spans to
.bench_out/trace-<workload>-<seed>.json.

ctbt is imported inside functions, never at module level: set-up
re-imports the package, and names bound earlier would point at a stale copy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedMeter
from tracing import Tracer, instrument, traced_uncles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_BEFORE = 3  # set-ups before the first operation
SETUP_DURING = 8  # further set-ups spread over the run, so one slow phase
                  # of a shared machine cannot move the median alone


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=_non_negative_int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


# ------------------------------------------------------------------- set-up

def _purge_ctbt() -> None:
    for name in [m for m in sys.modules if m == "ctbt" or m.startswith("ctbt.")]:
        del sys.modules[name]


def _call(tracer, name, fn, *args, **kwargs):
    return fn(*args, **kwargs) if tracer is None else tracer.call(name, fn, *args, **kwargs)


def setup_workload(wl, tracer) -> dict:
    """What a user pays before the first operation: inputs, model load."""
    from ctbt import dsl

    ctx = {"bank": wl.bank()}
    if hasattr(wl, "model_text"):
        text = wl.model_text()
        model_file = _call(tracer, "dsl.parse", dsl.parse, text)
        ctx["model"] = _call(tracer, "dsl.lower", dsl.lower, model_file)
    return ctx


def time_setup(wl, tracer):
    """Import ctbt afresh and set the workload up; (seconds, context).

    numpy is imported once beforehand and not counted.
    """
    _purge_ctbt()
    t0 = time.perf_counter()
    importlib.import_module("ctbt")
    ctx = setup_workload(wl, tracer)
    return time.perf_counter() - t0, ctx


def time_setup_aside(wl) -> float:
    """Time one more set-up, then restore the ctbt modules the run uses."""
    saved = {k: v for k, v in sys.modules.items() if k == "ctbt" or k.startswith("ctbt.")}
    try:
        return time_setup(wl, None)[0]
    finally:
        _purge_ctbt()
        sys.modules.update(saved)


# ------------------------------------------------------------------ runners

class Runner:
    """Runs passes, times operations, checks every outcome."""

    def __init__(self, wl, ctx, reference, seed, tracer, setup_times):
        self.wl = wl
        self.setup_times = setup_times
        self.ctx = ctx
        self.reference = reference
        self.seed = seed
        self.tracer = tracer
        self.times = {False: [], True: []}  # traced? -> op seconds
        self.starts: list = []  # start of each untraced op
        self.meter = SpeedMeter()
        self.attempted = 0
        self.failed = 0
        self.outcomes: dict = {}
        self.errors: list = []
        self.op_id = 0
        self.work = {False: [], True: []}  # trajectory_stats per op
        self.certified: dict = {}  # traced? -> samples in the certified batch
        self.certificate = None  # one-line summary of the certificate
        self.metadata_in_audit = 0  # metadata evals inside traced audits

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        next_setup = 0.0
        p = 0
        while p == 0 or time.perf_counter() - start < seconds:
            keys = self.wl.pass_keys(self.seed, p)
            for key in keys:
                self.step(key, p, traced=False)
            if self.tracer is not None:
                for key in keys:
                    self.step(key, p, traced=True)
            elif time.perf_counter() - start >= next_setup:
                self.setup_times.append((time.perf_counter(), time_setup_aside(self.wl)))
                next_setup += seconds / SETUP_DURING
            p += 1
        self.passes = p
        self.finish()

    def start_op(self, traced: bool) -> float:
        if traced:
            self.tracer.op = self.op_id
        else:
            self.meter.sample()
        self.op_id += 1
        t0 = time.perf_counter()
        if not traced:
            self.starts.append(t0)
        return t0

    def note(self, key: str, outcome: str, errors: list) -> None:
        self.attempted += 1
        self.failed += outcome != "ok"
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.errors.extend(f"{key}: {e}" for e in errors)

    def finish(self) -> None:
        pass


class TrajectoryRunner(Runner):
    def __init__(self, wl, ctx, reference, seed, tracer, setup_times):
        super().__init__(wl, ctx, reference, seed, tracer, setup_times)
        import ctbt

        self.cfg = wl.config()
        model = ctx["model"]
        self.plain = (model.plant, model.bt, ctbt.integrate)
        if tracer is not None:
            plant, bt = instrument(tracer, model.plant, model.bt)
            self.traced = (plant, bt, tracer.wrap("executor.integrate", ctbt.integrate, keep=True))
        self.first_pass: dict = {False: [], True: []}

    def step(self, key, p, traced):
        from ctbt import ExecutionError, FailedRun

        plant, bt, integrate = self.traced if traced else self.plain
        x0 = self.ctx["bank"][key]
        t0 = self.start_op(traced)
        try:
            run = integrate(plant, bt, x0, self.cfg, model_name=self.wl.name)
        except (ExecutionError, ValueError) as err:
            run = FailedRun(0, tuple(x0), type(err).__name__, str(err))
        self.times[traced].append(time.perf_counter() - t0)
        if p == 0:
            self.first_pass[traced].append((key, run))
        self.work[traced].append(workloads.trajectory_stats(run, self.wl.dt))
        errors = workloads.compare_summary(workloads.summarize(run), self.reference[key])
        errors += self.wl.check_run(run)
        self.note(key, workloads.classify(run), errors)

    def finish(self):
        """certify once over the first pass (pendulum_certify only)."""
        if not hasattr(self.wl, "certificate_errors"):
            return
        from ctbt import certify

        for traced, batch in self.first_pass.items():
            if not batch:
                continue
            runs = [run for _, run in batch]
            expected = {tuple(e) for key, _ in batch for e in self.reference[key]["edges"]}
            tracer = self.tracer if traced else None
            cert = _call(tracer, "convergence.certify", certify, runs)
            errors = self.wl.certificate_errors(cert, runs, expected)
            self.errors.extend(f"certify: {e}" for e in errors)
            self.certified[traced] = sum(len(r.samples) for r in runs if hasattr(r, "samples"))
            self.certificate = (f"certificate over the first pass: edges {sorted(cert.graph.edges)}, "
                                f"passed {cert.passed}, settle bound {cert.settle_time_bound}")


class RegionRunner(Runner):
    def step(self, key, p, traced):
        from ctbt import ModelError, check_partition, dsl

        text, _ = self.ctx["bank"][key]
        points = self.wl.points(self.seed, p, key)
        tracer = self.tracer if traced else None
        t0 = self.start_op(traced)
        try:
            model = _call(tracer, "dsl.lower", dsl.lower, _call(tracer, "dsl.parse", dsl.parse, text))
            bt = model.bt
            if traced:
                bt = tracer.call("bench.instrument", instrument, tracer, None, bt)[1]
                before = tracer.calls("dsl.metadata")
                with traced_uncles(tracer):
                    report = tracer.call("regions.check_partition", check_partition, bt, points)
                self.metadata_in_audit += tracer.calls("dsl.metadata") - before
            else:
                report = check_partition(bt, points)
        except (ModelError, ValueError) as err:
            self.times[traced].append(time.perf_counter() - t0)
            self.note(key, "error", [f"{type(err).__name__}: {err}"])
            return
        self.times[traced].append(time.perf_counter() - t0)
        errors = []
        if not report.passed:
            errors.append(
                f"{len(report.disjointness_violations)} disjointness, "
                f"{len(report.coverage_violations)} coverage, "
                f"{len(report.equivalence_violations)} equivalence violations")
        if report.samples_tested != self.wl.POINTS:
            errors.append(f"audited {report.samples_tested} of {self.wl.POINTS} points")
        if self.wl.summary(model) != self.reference[key]:
            errors.append("tree structure or probe owners differ from the reference")
        self.note(key, "ok" if report.passed else "violations", errors)


# ------------------------------------------------------------------ metrics

def latency_summary(times: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    tail_index = max(n - 11, 0)
    return {
        "n": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[tail_index] * 1e3,
        "tail_pct": 100.0 * (tail_index + 1) / n,
        "per_s": n / sum(ordered),
    }


def end_to_end(runner) -> tuple:
    """JSON metrics at reference speed, and report rows (name, at reference
    speed, as measured, unit, note) under the workload's own names."""
    factor = runner.meter.factor
    raw = latency_summary(runner.times[False])
    ref = latency_summary([s * factor(t) for t, s in zip(runner.starts, runner.times[False])])
    setup_raw = statistics.median(s for _, s in runner.setup_times)
    setup_ref = statistics.median(s * factor(t) for t, s in runner.setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_ref, "s"),
        "ops_per_s": (ref["per_s"], "1/s"),
        "op_p50_ms": (ref["p50_ms"], "ms"),
        "op_tail_ms": (ref["tail_ms"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    tail = f"p{ref['tail_pct']:.1f}, n={ref['n']}"
    if isinstance(runner, RegionRunner):
        points = runner.wl.POINTS
        named = [("audit_points_per_s", ref["per_s"] * points, raw["per_s"] * points,
                  "points/s", f"{points} points per tree"),
                 ("audit_p50_ms", ref["p50_ms"], raw["p50_ms"], "ms", f"n={ref['n']}"),
                 ("audit_tail_ms", ref["tail_ms"], raw["tail_ms"], "ms", tail)]
    else:
        named = [("traj_per_s", ref["per_s"], raw["per_s"], "trajectories/s", ""),
                 ("traj_p50_ms", ref["p50_ms"], raw["p50_ms"], "ms", f"n={ref['n']}"),
                 ("traj_tail_ms", ref["tail_ms"], raw["tail_ms"], "ms", tail)]
    failed_frac = runner.failed / runner.attempted
    named += [
        ("failed_frac", failed_frac, failed_frac, "failed/attempted",
         f"{runner.failed}/{runner.attempted}"),
        ("setup_s", setup_ref, setup_raw, "s", f"median of {len(runner.setup_times)}"),
        ("peak_rss_mb", rss_mb, rss_mb, "MB", ""),
    ]
    return metrics, named


def per_layer(runner, tracer) -> dict:
    n = len(runner.times[True])
    t = tracer

    def per_op(value):
        return value / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    evals = ("dsl.field", "dsl.controller", "dsl.metadata")
    work = runner.work[True]
    steps = sum(w["grid_steps"] for w in work)
    untraced_sim = sum(w["sim_s"] for w in runner.work[False])
    points = n * runner.wl.POINTS if isinstance(runner, RegionRunner) else 0
    certify_calls = t.calls("convergence.certify")
    return {
        "dsl.parse_s": (ratio(t.inclusive("dsl.parse"), t.calls("dsl.parse")), "s/call"),
        "dsl.lower_s": (ratio(t.inclusive("dsl.lower"), t.calls("dsl.lower")), "s/call"),
        "dsl.field_evals": (per_op(t.calls("dsl.field")), "count/op"),
        "dsl.controller_evals": (per_op(t.calls("dsl.controller")), "count/op"),
        "dsl.metadata_evals": (per_op(t.calls("dsl.metadata")), "count/op"),
        "dsl.eval_s": (per_op(sum(t.inclusive(e) for e in evals)), "s/op"),
        "core.resolve_calls": (per_op(t.calls("core.resolve")), "count/op"),
        "core.resolve_self_s": (per_op(t.self_time("core.resolve")
                                       + t.self_time("core.active_leaf")), "s/op"),
        "core.active_leaf_calls": (per_op(t.calls("core.active_leaf")), "count/op"),
        "core.control_used_ratio": (ratio(t.calls("dsl.field"), t.calls("dsl.controller")), "ratio"),
        "tree.uncle_calls": (per_op(t.calls("tree.left_uncles") + t.calls("tree.right_uncles")),
                             "count/op"),
        "tree.uncles_s": (per_op(t.inclusive("tree.left_uncles")
                                 + t.inclusive("tree.right_uncles")), "s/op"),
        "regions.check_partition_s": (per_op(t.inclusive("regions.check_partition")), "s/op"),
        "regions.self_s": (per_op(t.self_time("regions.check_partition")), "s/op"),
        "regions.metadata_evals_per_point": (
            ratio(runner.metadata_in_audit, points), "count/point"),
        "executor.grid_steps": (per_op(steps), "count/op"),
        "executor.field_evals_per_step": (ratio(t.calls("dsl.field"), steps), "count/step"),
        "executor.resolve_per_step": (ratio(t.calls("core.resolve"), steps), "count/step"),
        "executor.switches": (per_op(sum(w["switches"] for w in work)), "count/op"),
        "executor.slide_steps": (per_op(sum(w["slide_steps"] for w in work)), "count/op"),
        "executor.self_s": (per_op(t.self_time("executor.integrate")), "s/op"),
        "executor.sim_s_per_s": (ratio(untraced_sim, sum(runner.times[False])), "s/s"),
        "executor.post_success_sim_s": (per_op(sum(w["post_success_sim_s"] for w in work)),
                                        "s/op"),
        "convergence.certify_s": (ratio(t.inclusive("convergence.certify"), certify_calls),
                                  "s/call"),
        "convergence.samples_scanned": (
            float(runner.certified.get(True, 0)), "count/call"),
        "trace.overhead": (ratio(sum(runner.times[True]), sum(runner.times[False])) - 1.0,
                           "ratio"),
    }


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctbt" / "__init__.py").is_file():
        print(f"error: no ctbt package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    ref_path = workloads.REFERENCE_DIR / f"{wl.name}.json"
    if not ref_path.is_file():
        print(f"error: missing reference outcomes {ref_path}", file=sys.stderr)
        return 2
    reference = json.loads(ref_path.read_text(encoding="utf-8"))

    tracer = Tracer() if args.trace else None
    setup_times = []  # (when, seconds)
    for _ in range(SETUP_BEFORE):
        seconds, ctx = time_setup(wl, tracer)
        setup_times.append((time.perf_counter(), seconds))
    import ctbt

    if Path(ctbt.__file__).resolve().parent != SRC / "ctbt":
        print(f"error: imported ctbt from {ctbt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner_cls = RegionRunner if isinstance(wl, workloads.RegionAudit) else TrajectoryRunner
    runner = runner_cls(wl, ctx, reference, args.seed, tracer, setup_times)
    runner.run(args.seconds)

    print(f"workload {wl.name}  seed {args.seed}  passes {runner.passes}  "
          f"trace {args.trace}  outcomes {json.dumps(runner.outcomes, sort_keys=True)}")
    if runner.certificate:
        print(f"  {runner.certificate}")
    if args.trace:
        metrics = per_layer(runner, tracer)
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:14.6g} {unit}")
        plain, traced = (statistics.fmean(runner.times[k]) * 1e3 for k in (False, True))
        print(f"  tracing overhead: {plain:.6g} ms/op untraced, {traced:.6g} ms/op traced")
        out = ROOT / ".bench_out" / f"trace-{wl.name}-{args.seed}.json"
        tracer.write(out)
        print(f"  spans written to {out.relative_to(ROOT)}")
    else:
        metrics, named = end_to_end(runner)
        print(f"  {'metric':22s} {'at ref. speed':>14s} {'as measured':>14s}")
        for name, value, measured, unit, note in named:
            print(f"  {name:22s} {value:14.6g} {measured:14.6g} {unit:16s} {note}")
    for err in runner.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
