"""Switched-system integrator for behavior trees over continuous plants.

Between events the active leaf's control law is closed over the plant and
integrated with classic RK4 on tuples of floats, the state format
BehaviorTree.check_state produces; the plant field may return any sequence.
Regular mode makes no numpy call: numpy is left to the linear algebra of
sliding mode and to the boundary tools at the end.  The integrator keeps
the (root status, active leaf) of its current state and walks the tree once
per accepted step, at the step's end point; the walk evaluates status
predicates only, and the active leaf's controller runs inside the field
evaluations.  Any change of (active leaf, root status) inside a step is
located by bisecting the step length down to event_tol, so switch times are
resolved far below the step size.  If the recent switches toggle between
exactly two leaves faster than the step rate, the integrator declares a
sliding mode: it estimates the local surface normal from the recorded
crossing points (SVD of the centered cloud; a field-difference fallback
covers the degenerate startup), forms the convex field combination that
cancels the normal component, and re-projects onto the surface after each
step so the drifting solution cannot walk away from it.  Sliding ends when
the combination coefficient leaves [0, 1] by more than _SLIDING_EPS or the
state escapes to a third leaf.  A run ends at its first root Success.  The
chatter count, the slack on the coefficient and the stop at Success are
fixed parts of the construction, not options.

Everything is deterministic: fixed step grid t = k*dt, no wall clock, no
hidden randomness, and JSON/CSV output built from repr'd floats, so a rerun
serializes byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import BehaviorTree, NonFiniteState, Plant, Status

_OVERFLOW = 1e12
_SLIDING_EPS = 1e-3  # slack on the Filippov coefficient before a slide ends
_MAX_CHATTER = 4  # switches within one step that start a slide
_MIN_COMPONENT = 1e-9  # normal field component that counts as a crossing
_BOUNDARY_TOL = 1e-6  # length of a bisected boundary pair


class ExecutionError(RuntimeError):
    pass


class BisectionFailed(ExecutionError):
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
        for name, rule, ok in (("dt", "> 0", 0.0 < self.dt < math.inf),
                               ("event_tol", "> 0", 0.0 < self.event_tol < math.inf),
                               ("t_end", ">= 0", 0.0 <= self.t_end < math.inf)):
            if not ok:
                raise ValueError(f"IntegratorConfig.{name} must be finite and {rule}, "
                                 f"got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Sample:
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

    @property
    def final_state(self) -> np.ndarray:
        return np.array(self.samples[-1].x)

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
    """x + s*v componentwise, in numpy's operand order."""
    return tuple(a + s * b for a, b in zip(x, v))


def _rk4(f, x, h):
    k1 = f(x)
    k2 = f(_along(x, 0.5 * h, k1))
    k3 = f(_along(x, 0.5 * h, k2))
    k4 = f(_along(x, h, k3))
    return _along(x, h / 6.0, [a + 2.0 * b + 2.0 * c + d
                               for a, b, c, d in zip(k1, k2, k3, k4)])


class _Integrator:
    def __init__(self, plant: Plant, bt: BehaviorTree, x0, cfg: IntegratorConfig,
                 model_name: str):
        self.plant = plant
        self.bt = bt
        self.cfg = cfg
        # invariant: (status, leaf) is the tree's walk at x, updated together
        # with x (see move_to), so no state is walked twice
        self.x = bt.check_state(x0)
        self.status, self.leaf = bt.resolve(self.x)
        self.samples: list = []
        self.events: list = []
        self.switch_log: list = []  # (t, from leaf, to leaf)
        self.sliding: Optional[tuple] = None  # (leaf a, leaf b)
        self.surface_points: list = []
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

    def field_for(self, leaf: int):
        field, controller = self.plant.field, self.bt.nodes[leaf].behavior.controller
        return lambda y: field(y, controller(y))

    def move_to(self, x, status: Status, leaf: int) -> None:
        """Make x the current state; (status, leaf) must be the walk at x."""
        self.x, self.status, self.leaf = x, status, leaf

    def guard(self, x) -> None:
        if not all(-_OVERFLOW <= v <= _OVERFLOW for v in x):  # nan fails too
            raise NonFiniteState(f"state diverged: {tuple(float(v) for v in x)!r}")

    def record(self, t: float, x, leaf: int, status: Status) -> None:
        self.samples.append(Sample(float(t), tuple(float(v) for v in x), leaf, status))

    def event(self, t: float, kind: str, x, **info) -> None:
        self.events.append(Event(float(t), kind, tuple(float(v) for v in x), info))

    def note_status(self, t: float, status: Status) -> None:
        if status is Status.SUCCESS:
            self.event(t, "RootSuccess", self.x)
            self.done = True
        elif status is Status.FAILURE and not self.failed:
            self.failed = True
            self.event(t, "RootFailure", self.x)

    # ---- main loop

    def run(self) -> Trajectory:
        cfg = self.cfg
        self.record(0.0, self.x, self.leaf, self.status)
        self.note_status(0.0, self.status)
        n_steps = int(round(cfg.t_end / cfg.dt))
        k = 0
        while k < n_steps and not self.done:
            t0 = k * cfg.dt
            t1 = (k + 1) * cfg.dt
            if self.sliding is None:
                self.regular_span(t0, cfg.dt)
            else:
                self.slide_span(t0, cfg.dt)
            if not self.done and (not self.samples or self.samples[-1].t < t1 - 1e-15):
                self.record(t1, self.x, self.leaf, self.status)
            k += 1
        return Trajectory(meta=self.meta, samples=self.samples, events=self.events)

    # ---- regular mode

    def regular_span(self, t_start: float, span: float) -> None:
        cfg = self.cfg
        t = t_start
        h_left = span
        leaf, status = self.leaf, self.status
        while h_left > 1e-15 and not self.done:
            f = self.field_for(leaf)
            x_try = _rk4(f, self.x, h_left)
            self.guard(x_try)
            st2, lf2 = self.bt.resolve(x_try)
            if (lf2, st2) == (leaf, status):
                self.move_to(x_try, status, leaf)
                return
            # locate the first change of (leaf, status) within (0, h_left]
            lo, hi = 0.0, h_left
            x_hi = x_try
            while hi - lo > cfg.event_tol:
                mid = 0.5 * (lo + hi)
                x_mid = _rk4(f, self.x, mid)
                st_m, lf_m = self.bt.resolve(x_mid)
                if (lf_m, st_m) == (leaf, status):
                    lo = mid
                else:
                    hi = mid
                    x_hi = x_mid
            if lo > 0.0:
                x_lo = _rk4(f, self.x, lo)
                self.record(t + lo, x_lo, leaf, status)
            st_new, lf_new = self.bt.resolve(x_hi)
            if (lf_new, st_new) == (leaf, status):
                raise BisectionFailed(
                    f"no state change after bisection at t={t + hi}")
            t_event = t + hi
            self.move_to(x_hi, st_new, lf_new)
            self.guard(self.x)
            self.record(t_event, self.x, lf_new, st_new)
            if lf_new != leaf:
                self.event(t_event, "Switch", self.x, **{"from": leaf, "to": lf_new})
                self.switch_log.append((t_event, leaf, lf_new))
                if self.chatter_check(t_event):
                    remaining = t_start + span - t_event
                    if remaining > 1e-15 and not self.done:
                        self.slide_span(t_event, remaining)
                    return
            if st_new != status:
                self.note_status(t_event, st_new)
                if self.done:
                    return
            h_left -= hi
            t = t_event
            leaf, status = lf_new, st_new

    def chatter_check(self, t_now: float) -> bool:
        """Detect rapid toggling; enter sliding or reject a triple point."""
        if len(self.switch_log) < _MAX_CHATTER:
            return False
        recent = self.switch_log[-_MAX_CHATTER:]
        if t_now - recent[0][0] > self.cfg.dt:
            return False
        leaves = {r[1] for r in recent} | {r[2] for r in recent}
        if len(leaves) > 2:
            raise TriplePointChatter(
                f"switching among leaves {sorted(leaves)} within one step "
                f"near t={t_now}")
        pair = tuple(sorted(leaves))
        self.sliding = pair
        self.surface_points = [self.x]
        self.event(t_now, "SlideEnter", self.x, pair=list(pair))
        return True

    # ---- sliding mode

    def slide_span(self, t_start: float, span: float) -> None:
        a_leaf, b_leaf = self.sliding
        fa = self.field_for(a_leaf)
        fb = self.field_for(b_leaf)
        va, vb = np.array(fa(self.x), dtype=float), np.array(fb(self.x), dtype=float)
        n = self.surface_normal(vb - va)
        den = float(n @ (vb - va))
        scale = max(1.0, float(np.linalg.norm(va)), float(np.linalg.norm(vb)))
        if abs(den) < 1e-12 * scale:
            raise ZeroDenominatorInSliding(
                f"fields do not separate across the surface near t={t_start}")
        alpha = float(n @ vb) / den
        if alpha < -_SLIDING_EPS or alpha > 1.0 + _SLIDING_EPS:
            self.exit_slide(t_start)
            self.regular_span(t_start, span)
            return
        w = min(max(alpha, 0.0), 1.0)

        def f(y):
            return tuple(w * a + (1.0 - w) * b for a, b in zip(fa(y), fb(y)))

        x_new = _rk4(f, self.x, span)
        self.guard(x_new)
        projected, status, leaf = self.project_to_surface(x_new, n)
        t_end = t_start + span
        if projected is None:
            self.move_to(x_new, status, leaf)
            self.exit_slide(t_end)
            return
        self.move_to(projected, status, leaf)
        self.surface_points.append(self.x)
        if len(self.surface_points) > 8:
            self.surface_points.pop(0)
        self.record(t_end, self.x, leaf, status)
        self.note_status(t_end, status)

    def exit_slide(self, t: float) -> None:
        self.event(t, "SlideExit", self.x, to=self.leaf)
        self.sliding = None
        self.surface_points = []

    def surface_normal(self, field_diff) -> np.ndarray:
        """Unit normal of the sliding surface at the current point.

        Estimated as the least-variance direction of the recent crossing
        points; while the cloud is still degenerate (right after entry) the
        difference of the two vector fields stands in for it.
        """
        dim = len(self.x)
        if dim == 1:
            return np.array([1.0])
        pts = np.array(self.surface_points)
        if len(pts) >= 2:
            centered = pts - pts.mean(axis=0)
            spread = float(np.max(np.abs(centered)))
            # demand spread well above the projection jitter, else the SVD
            # would fit noise normal to the surface
            if spread > 10.0 * self.cfg.event_tol:
                _, _, vt = np.linalg.svd(centered, full_matrices=True)
                return vt[-1]
        norm = float(np.linalg.norm(field_diff))
        if norm < 1e-12:
            raise ZeroDenominatorInSliding(
                "cannot estimate a surface normal: identical fields and "
                "degenerate crossing cloud")
        return field_diff / norm

    def project_to_surface(self, x, n) -> tuple:
        """Pull x back onto the switching surface along +-n by bisection.

        Returns (projected point, status, leaf) with the walk at that point,
        or (None, status, leaf) with the walk at x when x cannot be pulled
        back.
        """
        cfg = self.cfg
        status, here = self.bt.resolve(x)
        if here not in self.sliding:
            return None, status, here
        other = self.sliding[0] if here == self.sliding[1] else self.sliding[1]
        n = n.tolist()
        step = cfg.event_tol
        for _ in range(60):
            sign = next((s for s in (1.0, -1.0)
                         if self.bt.resolve(_along(x, s * step, n))[1] == other), None)
            if sign is not None:
                break
            step *= 2.0
            if step > 1e6:
                return None, status, here
        else:
            return None, status, here
        lo, hi = 0.0, step
        while hi - lo > cfg.event_tol:
            mid = 0.5 * (lo + hi)
            st_mid, lf_mid = self.bt.resolve(_along(x, sign * mid, n))
            if lf_mid == here:
                lo = mid
                status = st_mid
            else:
                hi = mid
        return _along(x, sign * lo, n), status, here


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

    A run that raises is recorded as a FailedRun in its slot; the remaining
    runs still execute.
    """
    out = []
    for idx, x0 in enumerate(initial_states):
        try:
            out.append(integrate(plant, bt, x0, config, model_name))
        except (ExecutionError, ValueError) as err:
            x0t = tuple(float(v) for v in np.atleast_1d(np.asarray(x0, dtype=float)).ravel())
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
    leaf regions, and bisects each down to length _BOUNDARY_TOL.
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
        lo, hi = 0.0, 1.0
        while (hi - lo) * length > _BOUNDARY_TOL:
            mid = 0.5 * (lo + hi)
            if bt.resolve(_along(a, mid, seg))[1] == la:
                lo = mid
            else:
                hi = mid
        xa = _along(a, lo, seg)
        xb = _along(a, hi, seg)
        if bt.resolve(xa)[1] != bt.resolve(xb)[1]:
            pairs.append((np.array(xa), np.array(xb)))
    if not pairs:
        raise EmptySampler(
            f"no leaf-region boundary found in the box after {budget} draws")
    return pairs
