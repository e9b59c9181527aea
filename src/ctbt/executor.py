"""Switched-system integrator for behavior trees over continuous plants.

Between events the active leaf's control law is closed over the plant and
integrated with classic RK4 on tuples of floats, the state format
BehaviorTree.check_state produces; the plant field may return any sequence.
_Integrator.stepper is the one place that picks the step of a leaf: the
plant's generated step when Plant.steps has one (leaves lowered from a
.btm model: RK4 with the controller inlined into the field, the same
floats as _rk4), else _rk4 over field(y, controller(y)), which serves
wrapped controllers and other plants and hands on tuples of Python floats
whatever sequence the field returns.  It runs where a steady stretch
starts and keeps nothing: Plant.steps keeps each compiled step for the
model.  `run` holds the one loop over the grid and tries each
regular step itself: it walks the tree once at the step's end
(status predicates only; the controller runs inside the step), and while
the walk equals the current (root status, active leaf) it records the grid
sample and goes on.  Through such a steady stretch the step, (status, leaf)
and the state stay in locals, check_finite's quick hypot pass runs inline
(its full rule only when that pass fails), and grid samples are built with
tuple.__new__.  A grid step that lands on the state it started from, bit
for bit (so 0.0 after -0.0 is a move), and keeps the walk is a fixed point:
the step and the walk are pure functions of the state (LeafBehavior,
Plant) and the plant is autonomous, so every later grid step would give
the same state and walk, and the stretch writes the samples left to
t_end at once and ends at the run's last grid step.  Otherwise
regular_span locates the change by halving the step length down to
event_tol, each probe stepped to and walked once, and hands the rest of
the step back; it records the last probe only when its time is before the
event's.  One locator, _bisect, halves every bracket here, and it stops
when no float lies between the bracket's ends, so a tolerance below the
float spacing ends at float resolution.  A walk's status that the run
takes as its own (at the start, at a located event, after a slide step) must be a
Status, else the run raises ExecutionError.  If the recent switches toggle
between exactly two leaves faster than the step rate, the integrator
declares a sliding mode on g = 0 for the separating guard, the first leaf guard
(LeafBehavior.guards) whose sign differs across the last switch's bisection
bracket, and binds the slide as one record, _Integrator.slide: the pair
and the slide step chatter_check picks by that guard; exit_slide drops
it.  A slide step, slide(x, h, t, tol), takes the pair's two fields at x,
the normal grad g/|grad g|, the coefficient of the convex field
combination that cancels the normal component, one RK4 step of that
blend whose first stage is those two fields, and Newton steps back onto
g = 0, and returns the state, or None when the coefficient lets go: the
plant's generated slide step for a lowered pair, else _guarded_slide.
With no separating guard the step is the cloud route's, _cloud_slide: the
normal comes from the recent crossing points (SVD; the field difference
while they are degenerate) and the pull-back bisects along it; only this
route and the boundary tools at the end call numpy.  Each route's step
captures only its inputs, never the run, so a run is freed without the
cycle collector.  `run` steps a bound slide in a slide stretch, as it
steps regular mode, and walks each landed state once.  The stretch ends when the step returns None (the slide exits at
the step's start and regular mode takes the step), when the walk leaves
the pair (the slide exits at the step's end), when the root is not
Running, or at the run's last grid step.  So a slide ends when the
coefficient leaves [0, 1] by more than _SLIDING_EPS or the state escapes
to a third leaf, and a run at its first root Success.  A span that changes
mode mid-step hands the time left back to run; a slide entered mid-step
runs to the end of that grid step.  One clock stamps both modes: a sample
or event that ends grid step k is at its grid time float((k + 1)*dt),
never k*dt + dt, which can fall an ulp short of it.
The chatter count, the slack on the coefficient and the stop at Success are
fixed parts of the construction, not options.

Everything is deterministic: fixed step grid t = k*dt, no wall clock, no
hidden randomness, and JSON/CSV output built from repr'd floats, so a rerun
serializes byte for byte.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple, Optional

import numpy as np

from .core import BehaviorTree, NonFiniteState, Plant, Status

_OVERFLOW = 1e12
_MAX_FLOAT = math.nextafter(math.inf, 0.0)  # no int above it is a finite float
_SLIDING_EPS = 1e-3  # slack on the Filippov coefficient before a slide ends
_MAX_CHATTER = 4  # switches within one step that start a slide
_MIN_COMPONENT = 1e-9  # normal field component that counts as a crossing
_BOUNDARY_TOL = 1e-6  # length of a bisected boundary pair
_NEWTON_STEPS = 8  # bound on the Newton steps of one projection onto a guard
_MIN_SPAN = 1e-15  # spans this short are not stepped, so dt must be longer


class ExecutionError(RuntimeError):
    pass


class ZeroDenominatorInSliding(ExecutionError):
    pass


class TriplePointChatter(ExecutionError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.001
    t_end: float = 30.0
    event_tol: float = 1e-6

    def __post_init__(self):
        for name, rule, ok in (("dt", "> 0", 0.0 < self.dt <= _MAX_FLOAT),
                               ("event_tol", "> 0", 0.0 < self.event_tol <= _MAX_FLOAT),
                               ("t_end", ">= 0", 0.0 <= self.t_end <= _MAX_FLOAT)):
            if not ok:
                raise ValueError(f"IntegratorConfig.{name} must be finite and {rule}, "
                                 f"got {getattr(self, name)!r}")
        if not math.isfinite(self.t_end / self.dt):  # run counts t_end / dt grid steps
            raise ValueError(f"IntegratorConfig.t_end must be finite in steps of dt, "
                             f"got t_end={self.t_end!r} and dt={self.dt!r}")
        if self.dt <= _MIN_SPAN:  # run would never step
            raise ValueError(f"IntegratorConfig.dt must be finite and > {_MIN_SPAN!r}, "
                             f"got {self.dt!r}")
        steps = round(self.t_end / self.dt)  # run's grid steps; the last must end at t_end
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(self.t_end, self.dt):
            raise ValueError(f"IntegratorConfig.t_end must be a whole number of dt steps, "
                             f"got t_end={self.t_end!r} and dt={self.dt!r}")


class Sample(NamedTuple):
    t: float
    x: tuple
    leaf: int
    status: Status


@dataclass(frozen=True)
class Event:
    """kind is one of Switch, SlideEnter, SlideExit, RootSuccess, RootFailure."""
    t: float
    kind: str
    x: tuple
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FailedRun:
    index: int
    x0: tuple
    error: str
    message: str


@dataclass
class Trajectory:
    meta: dict
    samples: list
    events: list

    @property
    def duration(self) -> float:
        return self.samples[-1].t if self.samples else 0.0

    def events_of(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "samples": [
                {"t": s.t, "x": list(s.x), "leaf": s.leaf, "status": s.status.value}
                for s in self.samples
            ],
            "events": [
                {"t": e.t, "kind": e.kind, "x": list(e.x), **e.info}
                for e in self.events
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        dim = len(self.samples[0].x) if self.samples else 0
        header = "t," + ",".join(f"x{k}" for k in range(dim)) + ",leaf,status"
        lines = [header]
        for s in self.samples:
            xs = ",".join(repr(v) for v in s.x)
            lines.append(f"{s.t!r},{xs},{s.leaf},{s.status.value}")
        return "\n".join(lines) + "\n"


def _along(x, s, v) -> tuple:
    """x + s*v componentwise, in numpy's operand order, as Python floats
    even where v holds numpy scalars (a hand-built field's array)."""
    return tuple(float(a + s * b) for a, b in zip(x, v))


def _rk4(f, x, h, k1=None):
    """One classic RK4 step of xdot = f(x); k1 is f(x) when the caller has it."""
    k1 = f(x) if k1 is None else k1
    k2 = f(_along(x, 0.5 * h, k1))
    k3 = f(_along(x, 0.5 * h, k2))
    k4 = f(_along(x, h, k3))
    return _along(x, h / 6.0, [a + 2.0 * b + 2.0 * c + d
                               for a, b, c, d in zip(k1, k2, k3, k4)])


def check_finite(x) -> None:
    # hypot is at least the largest |v|, and nan when a v is: a quick pass
    if not math.hypot(*x) <= _OVERFLOW and not all(-_OVERFLOW <= v <= _OVERFLOW for v in x):
        raise NonFiniteState(f"state diverged: {x!r}")


def slide_failure(kind: int, t) -> None:
    """Raise a slide step's ZeroDenominatorInSliding of this kind at t."""
    raise ZeroDenominatorInSliding((
        "the switching surface has no normal at t={}: grad g = 0",
        "fields do not separate across the surface near t={}",
        "the switching surface has no normal near t={}: grad g = 0")[kind].format(t))


def _filippov_weight(nb: float, den: float, scale: float, t) -> Optional[float]:
    """alpha = nb/den clamped into [0, 1], or None when it lies outside by
    more than _SLIDING_EPS; a den below 1e-12 of scale fails at t."""
    if abs(den) < 1e-12 * scale:
        slide_failure(1, t)
    alpha = nb / den
    if alpha < -_SLIDING_EPS or alpha > 1.0 + _SLIDING_EPS:
        return None
    return min(max(alpha, 0.0), 1.0)


def _rk4_blend(field, ca, cb):
    """step(x, h, w, ka, kb): one _rk4 step of the Filippov blend
    w*field(y, ca(y)) + (1 - w)*field(y, cb(y)), ka and kb the two fields
    at x."""
    def mix(w, va, vb):
        return tuple(w * a + (1.0 - w) * b for a, b in zip(va, vb))

    return lambda x, h, w, ka, kb: _rk4(
        lambda y: mix(w, field(y, ca(y)), field(y, cb(y))), x, h, mix(w, ka, kb))


def _guarded_slide(field, ca, cb, guard):
    """slide(x, h, t, tol) of the pair with controllers ca, cb on the guard,
    in Python: dsl._slide_function generates the same floats for a lowered
    pair.  Newton steps stop at one no longer than tol or after
    _NEWTON_STEPS; one is exact where g is affine."""
    blend = _rk4_blend(field, ca, cb)

    def slide(x, h, t, tol):
        va, vb = field(x, ca(x)), field(x, cb(x))
        grad = guard(x)[1]
        norm = math.hypot(*grad)
        if norm == 0.0:
            slide_failure(0, t)
        n = [d / norm for d in grad]
        nb = sum(map(mul, n, vb))
        w = _filippov_weight(nb, nb - sum(map(mul, n, va)),
                             max(1.0, math.hypot(*va), math.hypot(*vb)), t)
        if w is None:
            return None
        x = blend(x, h, w, va, vb)
        check_finite(x)
        for _ in range(_NEWTON_STEPS):
            g, grad = guard(x)
            gg = sum(map(mul, grad, grad))
            if gg == 0.0:
                slide_failure(2, t + h)
            s = -g / gg
            x = tuple([float(a + s * b) for a, b in zip(x, grad)])
            if g * g <= tol * tol * gg:  # that step was |g|/|grad g| long
                break
        check_finite(x)
        return x

    return slide


def _bisect(stays, hi: float, tol: float, scale: float = 1.0) -> tuple:
    """(lo, hi), the bracket [0, hi] halved while (hi - lo)*scale > tol: lo
    moves to mid where stays(mid), else hi does.  It also stops when no float
    lies between lo and hi, so a tol below their spacing ends at float
    resolution, with hi == math.nextafter(lo, hi)."""
    lo = 0.0
    while (hi - lo) * scale > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is down to float resolution
            break
        if stays(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _cloud_slide(field, ca, cb, resolve, pair, x):
    """slide(x, h, t, tol) of the pair with controllers ca, cb on the cloud
    route, where no leaf guard separates them: the blended step's state
    pulled back (_pull_back) along the normal of the pair's crossing points,
    x the first (_cloud_normal), or None when the weight lets go."""
    points = deque([x], maxlen=8)
    blend = _rk4_blend(field, ca, cb)

    def slide(x, h, t, tol):
        va, vb = field(x, ca(x)), field(x, cb(x))
        pa, pb = np.array(va, dtype=float), np.array(vb, dtype=float)
        n = _cloud_normal(points, pb - pa, tol)
        scale = max(1.0, float(np.linalg.norm(pa)), float(np.linalg.norm(pb)))
        w = _filippov_weight(float(n @ pb), float(n @ (pb - pa)), scale, t)
        if w is None:
            return None
        x = blend(x, h, w, va, vb)
        check_finite(x)
        return _pull_back(x, n, pair, resolve, points, tol)

    return slide


def _cloud_normal(points, field_diff, tol) -> np.ndarray:
    """Unit normal of the sliding surface: the least-variance direction of
    the recent crossing points, or, while the cloud is still degenerate
    (right after entry), the difference of the two vector fields."""
    if len(points[0]) == 1:
        return np.array([1.0])
    pts = np.array(points)
    if len(pts) >= 2:
        centered = pts - pts.mean(axis=0)
        # demand spread well above the projection jitter, else the SVD
        # would fit noise normal to the surface
        if float(np.max(np.abs(centered))) > 10.0 * tol:
            return np.linalg.svd(centered, full_matrices=True)[2][-1]
    norm = float(np.linalg.norm(field_diff))
    if norm < 1e-12:
        raise ZeroDenominatorInSliding(
            "cannot estimate a surface normal: identical fields and "
            "degenerate crossing cloud")
    return field_diff / norm


def _pull_back(x, n, pair, resolve, points, tol) -> tuple:
    """x pulled back onto the pair's switching surface along +-n by
    bisection and kept as a crossing point; x itself when it is outside the
    pair or no state of the other leaf lies along +-n within 1e6.  The
    run's walk at the point decides whether the slide holds."""
    here = resolve(x)[1]
    if here not in pair:
        return x
    other = pair[0] if here == pair[1] else pair[1]
    n = n.tolist()
    step = tol
    for _ in range(60):
        sign = next((s for s in (1.0, -1.0) if resolve(_along(x, s * step, n))[1] == other),
                    None)
        if sign is not None or step * 2.0 > 1e6:
            break
        step *= 2.0
    if sign is None:
        return x
    lo = _bisect(lambda s: resolve(_along(x, sign * s, n))[1] == here, step, tol)[0]
    projected = _along(x, sign * lo, n)
    points.append(projected)
    return projected


class _Integrator:
    def __init__(self, plant: Plant, bt: BehaviorTree, x0, cfg: IntegratorConfig,
                 model_name: str):
        self.plant = plant
        self.bt = bt
        self.cfg = cfg
        # invariant: (status, leaf) is the tree's walk at x, updated together
        # with x (a steady step in run keeps both), so no state is walked twice
        self.x = bt.check_state(x0)
        self.status, self.leaf = self.checked(0.0, *bt.resolve(self.x))
        self.samples: list = []  # built during the run, grid points by run itself
        self.events: list = []
        self.switch_log = deque(maxlen=_MAX_CHATTER)  # (t, from leaf, to leaf)
        # while sliding: (pair, the pair's slide step)
        self.slide: Optional[tuple] = None
        self.failed = False
        self.done = False
        self.meta = {
            "model": model_name,
            "x0": list(self.x),
            "dt": cfg.dt,
            "t_end": cfg.t_end,
            "event_tol": cfg.event_tol,
            "sliding_eps": _SLIDING_EPS,
            "max_chatter": _MAX_CHATTER,
            "stop_on_root_success": True,
        }

    # ---- plumbing

    def stepper(self, controller):
        """One RK4 step of a leaf's closed loop, step(x, h): the plant's own
        step for its field and this controller, else _rk4 over
        field(y, controller(y))."""
        field = self.plant.field
        step = self.plant.steps.get((field, controller))
        if step is not None:
            return step
        return lambda x, h: _rk4(lambda y: field(y, controller(y)), x, h)

    def checked(self, t: float, status, leaf: int) -> tuple:
        """(status, leaf), a walk's answer at t that becomes the run's; a
        status that is not a Status is an ExecutionError."""
        if not isinstance(status, Status):
            raise ExecutionError(f"status at t={t!r} is not a Status: "
                                 f"leaf {leaf} answers {status!r}")
        return status, leaf

    def record(self, t: float, x: tuple, leaf: int, status: Status) -> None:
        self.samples.append(Sample(float(t), x, leaf, status))

    def event(self, t: float, kind: str, x: tuple, **info) -> None:
        self.events.append(Event(float(t), kind, x, info))

    def note_status(self, t: float, status: Status) -> None:
        if status is Status.SUCCESS:
            self.event(t, "RootSuccess", self.x)
            self.done = True
        elif status is Status.FAILURE and not self.failed:
            self.failed = True
            self.event(t, "RootFailure", self.x)

    # ---- main loop

    def run(self) -> Trajectory:
        dt, resolve, samples = self.cfg.dt, self.bt.resolve, self.samples
        new, hypot, running = tuple.__new__, math.hypot, Status.RUNNING
        samples.append(Sample(0.0, self.x, self.leaf, self.status))
        self.note_status(0.0, self.status)
        n_steps = int(round(self.cfg.t_end / dt))
        k = 0
        while k < n_steps and not self.done:
            t, h = k * dt, dt  # the rest of grid step k: from t, h long
            while h > _MIN_SPAN and not self.done:
                if self.slide is not None:
                    # a slide stretch: while the walk stays Running in the
                    # pair, the slide step, x and its walk stay in locals, and
                    # each step's sample is stamped with its grid time t1; the
                    # run's last grid step ends it too
                    pair, slide = self.slide
                    x, walk, tol = self.x, (self.status, self.leaf), self.cfg.event_tol
                    while (x_try := slide(x, h, t, tol)) is not None:
                        t1 = float((k + 1) * dt)
                        status, leaf = walk = resolve(x_try)
                        x = x_try
                        if leaf not in pair:
                            break
                        samples.append(new(Sample, (t1, x, leaf, status)))
                        if status is not running or k + 1 == n_steps:
                            break
                        k, t, h = k + 1, t1, dt
                    self.x = x
                    if x_try is None:  # the weight lets go at t: regular mode goes on
                        self.status, self.leaf = walk
                        self.exit_slide(t)
                    else:
                        self.status, self.leaf = self.checked(t1, *walk)
                        if walk[1] not in pair:
                            self.exit_slide(t1)
                        elif walk[0] is not running:
                            self.note_status(t1, walk[0])
                        break
                # a steady stretch: while the walk holds, grid step after grid
                # step, the step, (status, leaf) and x stay in locals; the last
                # grid step of the run ends the stretch like a change does
                step = self.stepper(self.bt.nodes[self.leaf].behavior.controller)
                status, leaf = current = self.status, self.leaf
                x, first, last = self.x, k, samples[-1].t
                while True:
                    x_try = step(x, h)
                    if not hypot(*x_try) <= _OVERFLOW:  # check_finite's quick pass
                        check_finite(x_try)
                    walk = resolve(x_try)
                    if walk != current or k + 1 == n_steps:
                        break
                    if x_try == x and h == dt and all(  # bit for bit, as 0.0 == -0.0
                            math.copysign(1.0, a) == math.copysign(1.0, b)
                            for a, b in zip(x_try, x)):
                        # a fixed point of the grid step: each later grid step
                        # lands on x and walks to current again, so their
                        # samples are written, and the last one ends the stretch
                        t1 = float((k + 1) * dt)
                        if last < t1 - _MIN_SPAN:
                            samples.append(new(Sample, (t1, x, leaf, status)))
                        samples += [new(Sample, (float(i * dt), x, leaf, status))
                                    for i in range(k + 2, n_steps)]
                        k = n_steps - 1
                        break
                    x, h, k = x_try, dt, k + 1
                    t1 = float(k * dt)
                    if last < t1 - _MIN_SPAN:
                        samples.append(new(Sample, (t1, x, leaf, status)))
                        last = t1
                if k != first:
                    t = k * dt
                if walk == current:  # the run's last grid step, recorded below
                    self.x = x_try
                    break
                self.x = x
                t, h = self.regular_span(t, h, (k + 1) * dt, x_try, walk, step)
            t1 = float((k + 1) * dt)
            if not self.done and samples[-1].t < t1 - _MIN_SPAN:
                samples.append(new(Sample, (t1, self.x, self.leaf, self.status)))
            k += 1
        return Trajectory(meta=self.meta, samples=samples, events=self.events)

    # ---- regular mode

    def regular_span(self, t: float, h: float, end: float, x_try, walk, step) -> tuple:
        """Locate the first change of (status, leaf) in the step h from t to
        x_try = step(self.x, h), which walks to walk.  Returns the (t, h) left
        after it; a slide entered at t gets end - t, end the grid time that
        ends the step."""
        status, leaf = current = self.status, self.leaf
        x, resolve = self.x, self.bt.resolve
        at = {True: (x, current), False: (x_try, walk)}  # the last probe on each side

        def stays(s):
            x_s = step(x, s)
            walk_s = resolve(x_s)
            at[walk_s == current] = (x_s, walk_s)
            return walk_s == current

        lo, hi = _bisect(stays, h, self.cfg.event_tol)
        x_lo, (x_hi, walk_hi) = at[True][0], at[False]
        if lo > 0.0 and t + lo < t + hi:  # a bracket at float resolution has one time
            self.record(t + lo, x_lo, leaf, status)
        t_event = t + hi
        check_finite(x_hi)
        st_new, lf_new = self.checked(t_event, *walk_hi)
        self.x, self.status, self.leaf = x_hi, st_new, lf_new
        self.record(t_event, self.x, lf_new, st_new)
        if lf_new != leaf:
            self.event(t_event, "Switch", self.x, **{"from": leaf, "to": lf_new})
            self.switch_log.append((t_event, leaf, lf_new))
            if self.chatter_check(t_event, x_lo):
                return t_event, end - t_event
        if st_new != status:
            self.note_status(t_event, st_new)  # may end the run
        return t_event, h - hi

    def chatter_check(self, t_now: float, x_before) -> bool:
        """Detect rapid toggling; enter sliding or reject a triple point.

        x_before is the state on the old side of the last switch.
        """
        recent = self.switch_log
        if len(recent) < _MAX_CHATTER or t_now - recent[0][0] > self.cfg.dt:
            return False
        leaves = {r[1] for r in recent} | {r[2] for r in recent}
        if len(leaves) > 2:
            raise TriplePointChatter(
                f"switching among leaves {sorted(leaves)} within one step "
                f"near t={t_now}")
        pair = tuple(sorted(leaves))
        field, guard = self.plant.field, self.separating_guard(x_before)
        ca, cb = (self.bt.nodes[i].behavior.controller for i in pair)
        # the plant's own slide step for its field, ca, cb and the guard, else
        # the Python route; with no guard, the cloud route
        step = _cloud_slide(field, ca, cb, self.bt.resolve, pair, self.x) if guard is None else (
            self.plant.steps.get((field, ca, cb, guard)) or _guarded_slide(field, ca, cb, guard))
        self.slide = (pair, step)
        self.event(t_now, "SlideEnter", self.x, pair=list(pair))
        return True

    def separating_guard(self, x_before):
        """The first guard, over the leaves in id order, whose sign differs
        between x_before and the current state, or None."""
        for i in self.bt.leaf_ids:
            for guard in self.bt.nodes[i].behavior.guards:
                a, b = guard(x_before)[0], guard(self.x)[0]
                if (a > 0.0, a < 0.0) != (b > 0.0, b < 0.0):
                    return guard
        return None

    # ---- sliding mode

    def exit_slide(self, t: float) -> None:
        self.event(t, "SlideExit", self.x, to=self.leaf)
        self.slide = None


def integrate(plant: Plant, bt: BehaviorTree, x0,
              config: Optional[IntegratorConfig] = None,
              model_name: str = "") -> Trajectory:
    """Run the switched closed loop from x0 on the fixed time grid."""
    cfg = config or IntegratorConfig()
    return _Integrator(plant, bt, x0, cfg, model_name).run()


def batch_integrate(plant: Plant, bt: BehaviorTree, initial_states,
                    config: Optional[IntegratorConfig] = None,
                    model_name: str = "") -> list:
    """Integrate every initial state in order.

    A run that raises ExecutionError or ValueError is recorded as a
    FailedRun in its slot, with x0 () when the start cannot be read as
    floats, and the remaining runs still execute; any other exception
    propagates.
    """
    out = []
    for idx, x0 in enumerate(initial_states):
        try:
            out.append(integrate(plant, bt, x0, config, model_name))
        except (ExecutionError, ValueError) as err:
            try:
                x0t = tuple(float(v) for v in np.atleast_1d(np.asarray(x0, dtype=float)).ravel())
            except ValueError:  # a start that cannot be read as floats
                x0t = ()
            out.append(FailedRun(idx, x0t, type(err).__name__, str(err)))
    return out


# ------------------------------------------------------------ transversality

@dataclass(frozen=True)
class TransversalityReport:
    total: int
    ok: int
    failures: tuple  # indices into the pair list

    @property
    def fraction(self) -> float:
        return self.ok / self.total if self.total else 0.0


def check_transversality(plant: Plant, bt: BehaviorTree,
                         pairs) -> TransversalityReport:
    """Check that switching surfaces are met decisively, not grazed.

    Each pair (xa, xb) must straddle a surface: different active leaves a
    small distance apart.  With n the unit vector from xa to xb, the pair
    passes if the flow crosses or pins the surface: n.f(xa) > 0 or
    n.f(xb) < 0, each field closed over its own side's control.  Grazing
    (both components near zero) and repelling configurations are flagged.

    The probe direction is the pair's own direction, so the verdict is
    sharpest when the pair is aligned with the surface normal.  In one
    state dimension any straddling pair is normal-aligned; in higher
    dimensions, build pairs from known geometry when grazing must be
    distinguished from oblique crossing.  Every endpoint must pass
    bt.check_state.
    """
    failures = []
    ok = 0
    for idx, (xa, xb) in enumerate(pairs):
        xa, xb = bt.check_state(xa), bt.check_state(xb)
        la, lb = bt.resolve(xa)[1], bt.resolve(xb)[1]
        n = np.subtract(xb, xa)
        nn = float(np.linalg.norm(n))
        if nn == 0.0 or la == lb:
            failures.append(idx)
            continue
        n = n / nn
        va = np.asarray(plant.field(xa, bt.behavior(la).controller(xa)), dtype=float)
        vb = np.asarray(plant.field(xb, bt.behavior(lb).controller(xb)), dtype=float)
        if float(n @ va) > _MIN_COMPONENT or float(n @ vb) < -_MIN_COMPONENT:
            ok += 1
        else:
            failures.append(idx)
    return TransversalityReport(total=len(pairs), ok=ok, failures=tuple(failures))


def sample_boundary_pairs(bt: BehaviorTree, box, count: int, seed: int) -> list:
    """Find straddling pairs across leaf-region boundaries inside a box.

    Draws random segments, keeps those whose endpoints live in different
    leaf regions, and bisects each down to length _BOUNDARY_TOL or to float
    resolution.
    Deterministic in seed.  The box's low and high corners must pass
    bt.check_state.  Raises EmptySampler if count is below 1 or the budget of
    draws finds no boundary.
    """
    from .regions import EmptySampler

    if count < 1:
        raise EmptySampler("sample count must be positive")
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float)
    lows, highs = box[:, 0], box[:, 1]
    for corner in (lows, highs):  # shape and finiteness, as for any state
        bt.check_state(corner)
    pairs = []
    budget = 400 * count
    for _ in range(budget):
        if len(pairs) >= count:
            break
        a = tuple(rng.uniform(lows, highs).tolist())
        b = tuple(rng.uniform(lows, highs).tolist())
        la = bt.resolve(a)[1]
        if bt.resolve(b)[1] == la:
            continue
        seg = _along(b, -1.0, a)
        length = float(np.linalg.norm(seg))
        lo, hi = _bisect(lambda s: bt.resolve(_along(a, s, seg))[1] == la, 1.0,
                         _BOUNDARY_TOL, length)
        xa = _along(a, lo, seg)
        xb = _along(a, hi, seg)
        if bt.resolve(xa)[1] != bt.resolve(xb)[1]:
            pairs.append((np.array(xa), np.array(xb)))
    if not pairs:
        raise EmptySampler(
            f"no leaf-region boundary found in the box after {budget} draws")
    return pairs
