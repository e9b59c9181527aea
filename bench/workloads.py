"""Seeded inputs, operations and output checks for the ctbt benchmark.

Three workloads, each built only from `.btm` text and initial states that
the benchmark generates:

- pendulum_certify: the bundled swing-up/balance model from uniform initial
  states over [-pi, pi] x [-2, 2] plus the seven released-at-rest states of
  the 7 x 7 grid (one of them, (pi/3, 0), never converges).  One operation
  is one `integrate` call; `certify` runs once over the first pass.
- slide_hold: a 2D model whose two push leaves chatter on the surface
  x0 + 0.5*x1 = c and slide along it up to a goal line.  The slide exits
  straight into root Success, which the executor does not notice, so every
  run integrates on to t_end.
- region_audit: random Sequence/Fallback trees with slab predicates over
  two states.  One operation loads one tree and audits it with
  `check_partition`.

Inputs come from fixed banks (drawn once from a fixed bank seed) so that a
stored reference outcome exists for every input.  The run seed picks, pass
by pass, which bank entries to run and in which order.  A pass always holds
the same mix (one draw per stratum, or every tree of the bank), so runs
with different seeds time comparable work.

Functions here import ctbt at call time: the benchmark re-imports the
package while timing set-up, and every call must use the live modules.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

BANK_SEED = 2109_01575
# On seed code the values match exactly.  Both tolerances sit well below
# the step sizes (0.004 and 0.01), so a change that locates events only to
# the step grid fails the check.
SUCCESS_TIME_TOL = 1e-3  # s, simulated
STATE_TOL = 1e-3  # max-abs over state components
FIXED_DEFECT = ("ok", "ran_past_success")  # (outcome, reference) accepted
SURFACE_TOL = 1e-5  # |x0 + 0.5*x1 - c| on samples inside a slide
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


# ------------------------------------------------------------ classification

def classify(run) -> str:
    """Outcome class of one integrate operation.

    "ok" when the run stops at its first success (the first root-Success
    sample or RootSuccess event) with a RootSuccess event.  Failures:
    "failed_run" (the executor raised), "no_success" (no success by t_end)
    and "ran_past_success" (success, but no RootSuccess event or samples
    after it).
    """
    from ctbt import FailedRun

    if isinstance(run, FailedRun):
        return "failed_run"
    point = success_point(run)
    if point is None:
        return "no_success"
    if not run.events_of("RootSuccess") or run.duration > point[0]:
        return "ran_past_success"
    return "ok"


def success_point(run):
    """(t, x) of the first root-Success sample or RootSuccess event, or None."""
    from ctbt import Status

    sample = next((s for s in run.samples if s.status is Status.SUCCESS), None)
    event = next(iter(run.events_of("RootSuccess")), None)
    points = [(p.t, p.x) for p in (sample, event) if p is not None]
    return min(points, key=lambda p: p[0]) if points else None


def summarize(run) -> dict:
    """Per-operation outcome compared against the stored reference.

    Everything is read up to the first success (or to the end of a run
    without one), so that a fix of the stop-on-success defect, which only
    removes what follows it, keeps matching.
    """
    from ctbt import FailedRun

    cls = classify(run)
    if isinstance(run, FailedRun):
        return {"class": cls, "error": run.error}
    point = success_point(run)
    horizon, state = point if point else (run.duration, run.samples[-1].x)
    events = [e for e in run.events if e.t <= horizon]
    switches = [e for e in events if e.kind == "Switch"]
    edges = sorted({(e.info["from"], e.info["to"]) for e in switches})
    return {
        "class": cls,
        "t_success": point[0] if point else None,
        "switches": len(switches),
        "edges": [list(pair) for pair in edges],
        "slides": sum(e.kind == "SlideEnter" for e in events),
        "state": list(state),
    }


def compare_summary(got: dict, ref: dict) -> list:
    """Differences between an outcome and its reference, beyond tolerance.

    A run the reference has running past success may now stop there.
    """
    errors = []
    if got["class"] != ref["class"] and (got["class"], ref["class"]) != FIXED_DEFECT:
        errors.append(f"class: {got['class']!r} != reference {ref['class']!r}")
    for key in ("error", "switches", "slides", "edges"):
        if got.get(key) != ref.get(key):
            errors.append(f"{key}: {got.get(key)!r} != reference {ref.get(key)!r}")
    a, b = got.get("t_success"), ref.get("t_success")
    if (a is None) != (b is None) or (a is not None and abs(a - b) > SUCCESS_TIME_TOL):
        errors.append(f"t_success: {a!r} != reference {b!r}")
    if "state" in ref:
        dev = max(abs(a - b) for a, b in zip(got["state"], ref["state"]))
        if dev > STATE_TOL:
            errors.append(f"state at success or t_end off by {dev:.3g}")
    return errors


def trajectory_stats(run, dt: float) -> dict:
    """Executor work read off a finished trajectory (no timing)."""
    from ctbt import FailedRun

    if isinstance(run, FailedRun):
        return {"grid_steps": 0, "switches": 0, "slide_steps": 0,
                "sim_s": 0.0, "post_success_sim_s": 0.0}
    slide_time = 0.0
    entered = None
    for e in run.events:
        if e.kind == "SlideEnter":
            entered = e.t
        elif e.kind == "SlideExit" and entered is not None:
            slide_time += e.t - entered
            entered = None
    if entered is not None:
        slide_time += run.duration - entered
    point = success_point(run)
    return {
        "grid_steps": math.ceil(run.duration / dt - 1e-9),
        "switches": len(run.events_of("Switch")),
        "slide_steps": round(slide_time / dt),
        "sim_s": run.duration,
        "post_success_sim_s": run.duration - point[0] if point else 0.0,
    }


# ------------------------------------------------------------- trajectories

def _stratified_bank(rng, box, cells, draws) -> dict:
    """draws uniform states in each cell of a cells[0] x cells[1] split of box."""
    (lo0, hi0), (lo1, hi1) = box
    w0 = (hi0 - lo0) / cells[0]
    w1 = (hi1 - lo1) / cells[1]
    bank = {}
    for i in range(cells[0]):
        for j in range(cells[1]):
            for k in range(draws):
                u = rng.random(2)
                bank[f"d{i}.{j}.{k}"] = (lo0 + (i + u[0]) * w0, lo1 + (j + u[1]) * w1)
    return bank


def _stratified_pass(seed: int, p: int, cells, draws, extra=()) -> list:
    """One bank key per cell (seeded draw index) plus extra keys, shuffled."""
    rng = np.random.default_rng([seed, p])
    keys = [f"d{i}.{j}.{int(rng.integers(draws))}"
            for i in range(cells[0]) for j in range(cells[1])]
    keys += list(extra)
    return [keys[i] for i in rng.permutation(len(keys))]


class TrajectoryWorkload:
    """Shared shape of the two integrate workloads.

    Subclasses set name, bank_id, dt, t_end, the state box, its cells and
    the number of bank draws per cell.
    """

    name: str
    bank_id: int
    dt: float
    t_end: float
    box: tuple
    cells: tuple
    draws: int

    def config(self):
        from ctbt import IntegratorConfig

        return IntegratorConfig(dt=self.dt, t_end=self.t_end)

    def bank(self) -> dict:
        rng = np.random.default_rng([BANK_SEED, self.bank_id])
        return _stratified_bank(rng, self.box, self.cells, self.draws)

    def pass_keys(self, seed: int, p: int) -> list:
        return _stratified_pass(seed, p, self.cells, self.draws)

    def model_text(self) -> str:
        raise NotImplementedError

    def check_run(self, run) -> list:
        """Workload-specific output checks beyond the reference comparison."""
        return []


class PendulumCertify(TrajectoryWorkload):
    name = "pendulum_certify"
    bank_id = 1
    dt = 0.004
    t_end = 60.0
    box = ((-math.pi, math.pi), (-2.0, 2.0))
    cells = (6, 4)
    draws = 8
    # the middle row of the 7 x 7 grid: released at rest
    REST_ANGLES = tuple(float(v) for v in np.linspace(-math.pi, math.pi, 7))

    def model_text(self) -> str:
        from ctbt import dsl

        return (dsl.bundled_model_dir() / "pendulum.btm").read_text(encoding="utf-8")

    def bank(self) -> dict:
        bank = super().bank()
        for j, angle in enumerate(self.REST_ANGLES):
            bank[f"r{j}"] = (angle, 0.0)
        return bank

    def pass_keys(self, seed: int, p: int) -> list:
        rest = [f"r{j}" for j in range(len(self.REST_ANGLES))]
        return _stratified_pass(seed, p, self.cells, self.draws, extra=rest)

    def certificate_errors(self, cert, runs, expected_edges: set) -> list:
        """The prepares graph holds the handoff 1->2 and exactly the edges
        the reference records for the batch, there are no lambda
        violations, and, when the graph is acyclic, every succeeding run
        ends within the settle-time bound plus one step.

        The reference has a backward edge 2->1 only for starts just inside
        swing_up's success ball whose balance flow leaves it (for example
        d3.2.3 at (0.883, 0.339)); a batch holding one cannot be certified.
        """
        errors = []
        edges = set(cert.graph.edges)
        if (1, 2) not in edges or edges != expected_edges:
            errors.append(f"prepares graph edges {sorted(edges)}, "
                          f"reference {sorted(expected_edges)}")
        if cert.lambda_violations:
            errors.append(f"{len(cert.lambda_violations)} lambda violations")
        if cert.acyclic:
            bound = cert.settle_time_bound + self.dt
            late = [r.meta["x0"] for r in runs
                    if classify(r) == "ok" and r.duration > bound]
            if late:
                errors.append(f"{len(late)} runs end after the settle bound {bound}")
        return errors


class SlideHold(TrajectoryWorkload):
    name = "slide_hold"
    bank_id = 2
    dt = 0.01
    t_end = 16.0
    box = ((-1.5, 1.5), (-1.5, -0.5))
    cells = (4, 4)
    draws = 8
    C = 0.0
    GOAL = 2.0

    def model_text(self) -> str:
        return f"""# Chattering pair push_up/push_down slides along x0 + 0.5*x1 = c
# until x1 reaches goal; at_goal then reports root Success.
model "slide_hold" {{
  state 2;
  control 2;
  const c = {self.C!r};
  const goal = {self.GOAL!r};

  plant {{
    dx0 = u0 + 0.2 * sin(x1);
    dx1 = u1;
  }}

  leaf at_goal {{ u = [0.0, 0.0]; status = if x1 >= goal then S else F; }}
  leaf above {{ u = [0.0, 0.0]; status = if x0 + 0.5 * x1 > c then S else F; }}
  leaf push_up {{ u = [1.0, 0.4]; status = R; }}
  leaf push_down {{ u = [-1.0, 0.4]; status = R; }}

  fal guard = [above, push_up];
  seq hold = [guard, push_down];
  fal reach = [at_goal, hold];
  root = reach;
}}
"""

    def check_run(self, run) -> list:
        """Samples between SlideEnter and SlideExit stay on the surface."""
        from ctbt import FailedRun

        if isinstance(run, FailedRun):
            return []
        spans = []
        for e in run.events:
            if e.kind == "SlideEnter":
                spans.append([e.t, run.duration])
            elif e.kind == "SlideExit" and spans:
                spans[-1][1] = e.t
        worst = 0.0
        for s in run.samples:
            if any(a <= s.t <= b for a, b in spans):
                worst = max(worst, abs(s.x[0] + 0.5 * s.x[1] - self.C))
        if worst > SURFACE_TOL:
            return [f"slide left the surface by {worst:.3g} (tolerance {SURFACE_TOL})"]
        return []


# -------------------------------------------------------------- region audit

class RegionAudit:
    """Random slab-predicate trees; every pass audits the whole bank.

    Audit cost grows steeply with tree size and varies with shape, so every
    pass loads every bank tree; the seed draws the order and the points.
    """

    name = "region_audit"
    bank_id = 3
    SIZES = (3, 5, 8, 12, 16, 20, 25, 30, 36, 44)
    DRAWS = 4
    POINTS = 256
    BOX = ((-3.0, 3.0), (-3.0, 3.0))
    PROBES = tuple((float(a), float(b))
                   for a in np.linspace(-2.5, 2.5, 4) for b in np.linspace(-2.5, 2.5, 4))

    def bank(self) -> dict:
        """key -> (.btm text, leaf count) for every size class and draw."""
        rng = np.random.default_rng([BANK_SEED, self.bank_id])
        return {f"t{c}.{k}": (random_tree_btm(rng, n, f"tree_{c}_{k}"), n)
                for c, n in enumerate(self.SIZES) for k in range(self.DRAWS)}

    def pass_keys(self, seed: int, p: int) -> list:
        keys = [f"t{c}.{k}" for c in range(len(self.SIZES)) for k in range(self.DRAWS)]
        order = np.random.default_rng([seed, p]).permutation(len(keys))
        return [keys[i] for i in order]

    def points(self, seed: int, p: int, key: str):
        from ctbt import uniform_points

        c, k = (int(v) for v in key[1:].split("."))
        return uniform_points(self.BOX, self.POINTS, seed=[seed, p, c, k])

    def summary(self, model) -> dict:
        """Stored per-tree reference: structure plus owners at fixed probes."""
        bt = model.bt
        return {
            "kinds": "".join(k[0] for k in bt.kinds),
            "leaves": list(bt.leaf_ids),
            "probe": [bt.active_leaf(x) for x in self.PROBES],
        }


def random_tree_btm(rng, n_leaves: int, name: str) -> str:
    """A random tree with exactly n_leaves slab-predicate leaves, as .btm text.

    Each composite gets 2 to 4 children; leaf counts are split at random
    among them, so the shapes range from flat to several levels deep.  A
    leaf reports one of R/S/F on each of three slabs a.x < b1, b1 <= a.x < b2
    and a.x >= b2, with a random unit vector a and a random order.
    """
    leaves, composites = [], []

    def leaf() -> str:
        lname = f"l{len(leaves)}"
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        a0, a1 = math.cos(theta), math.sin(theta)
        b1, b2 = sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        s0, s1, s2 = (str(v) for v in rng.permutation(["R", "S", "F"]))
        proj = f"{a0!r} * x0 {'+' if a1 >= 0 else '-'} {abs(a1)!r} * x1"
        leaves.append(f"  leaf {lname} {{ u = [0.0]; status = if {proj} < {b1!r} "
                      f"then {s0} else if {proj} < {b2!r} then {s1} else {s2}; }}")
        return lname

    def build(n: int) -> str:
        if n == 1:
            return leaf()
        k = int(rng.integers(2, min(4, n) + 1))
        cuts = sorted(int(v) for v in rng.choice(np.arange(1, n), size=k - 1, replace=False))
        kids = [build(b - a) for a, b in zip([0, *cuts], [*cuts, n])]
        cname = f"n{len(composites)}"
        kind = "seq" if rng.random() < 0.5 else "fal"
        composites.append(f"  {kind} {cname} = [{', '.join(kids)}];")
        return cname

    root = build(n_leaves)
    return "\n".join([
        f'model "{name}" {{',
        "  state 2;",
        "  control 1;",
        "  plant { dx0 = u0; dx1 = 0.0; }",
        *leaves,
        *composites,
        f"  root = {root};",
        "}",
        "",
    ])


WORKLOADS = {w.name: w for w in (PendulumCertify(), SlideHold(), RegionAudit())}
