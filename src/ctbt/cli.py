"""Command line front end.

Subcommands: validate (parse and summarize a model file), simulate (one
closed-loop run), regions (point query or grid dump of region ownership),
check-partition (sampled disjointness/coverage audit), certify (batch
execution plus convergence certificate).

Exit codes: 0 on success, 1 for usage or model errors, 2 when execution or
analysis fails (a diverging run, a failing audit, a certificate that does
not pass).  Output is deterministic: no timestamps, fixed key order, seeds
always echoed, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import convergence, dsl, regions
from .core import NonFiniteState
from .dsl import ModelError
from .executor import ExecutionError, IntegratorConfig, batch_integrate, integrate

USAGE = 1
FAILED = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE):
        super().__init__(message)
        self.code = code


def _floats(text: str, what: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(","))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise CliError(f"could not parse {what} {text!r}: "
                   "expected comma-separated finite numbers")


def _parse_x0(text: str, state_dim: int) -> tuple:
    x0 = _floats(text, "--x0")
    if len(x0) != state_dim:
        raise CliError(f"--x0 has {len(x0)} components "
                       f"but the model's state dimension is {state_dim}")
    return x0


def _parse_box(text, state_dim: int) -> list:
    """--box 'lo:hi,lo:hi'; defaults to [-1, 1] on every axis."""
    if text is None:
        return [(-1.0, 1.0)] * state_dim
    box = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise CliError(f"bad --box interval {part!r}: expected lo:hi")
        lo, hi = (_floats(p, "--box")[0] for p in pieces)
        if not lo < hi:
            raise CliError(f"bad --box interval {part!r}: need lo < hi")
        box.append((lo, hi))
    if len(box) != state_dim:
        raise CliError(f"--box has {len(box)} intervals "
                       f"but the model's state dimension is {state_dim}")
    try:
        return regions._finite_box(box)  # the samplers' own check, before they run
    except ValueError as err:
        raise CliError(str(err)) from None


def _parse_exclude(text: str, state_dim: int) -> tuple:
    """--exclude 'c1,..,cn:r' removes the ball around (c1..cn) of radius r."""
    pieces = text.split(":")
    if len(pieces) != 2:
        raise CliError(f"bad --exclude {text!r}: expected center:radius")
    center = _floats(pieces[0], "--exclude center")
    if len(center) != state_dim:
        raise CliError(f"--exclude center has {len(center)} components "
                       f"but the model's state dimension is {state_dim}")
    radius = _floats(pieces[1], "--exclude radius")[0]
    if radius <= 0:
        raise CliError("--exclude radius must be positive")
    return center, radius


def _load(model_arg: str) -> dsl.LoweredModel:
    return dsl.load(dsl.resolve_model_path(model_arg))


def _config(args) -> IntegratorConfig:
    try:
        return IntegratorConfig(dt=args.dt, t_end=args.t_end, event_tol=args.event_tol)
    except ValueError as err:
        raise CliError(str(err))


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ------------------------------------------------------------- subcommands

def cmd_validate(args) -> int:
    model = _load(args.model)
    bt = model.bt
    if args.print:
        _emit(dsl.format_model(model.model), args.output)
        return 0
    doc = {
        "ok": True,
        "name": model.name,
        "state_dim": bt.state_dim,
        "control_dim": model.plant.control_dim,
        "nodes": len(bt.nodes),
        "leaves": {str(i): bt.behavior(i).label for i in bt.leaf_ids},
    }
    _emit(json.dumps(doc, indent=2), args.output)
    return 0


def cmd_simulate(args) -> int:
    model = _load(args.model)
    x0 = _parse_x0(args.x0, model.bt.state_dim)
    traj = integrate(model.plant, model.bt, x0, _config(args),
                     model_name=model.name)
    _emit(traj.to_csv() if args.format == "csv" else traj.to_json(),
          args.output)
    return 0


def cmd_regions(args) -> int:
    model = _load(args.model)
    bt = model.bt
    if args.x0 is not None:
        x = _parse_x0(args.x0, bt.state_dim)
        status, active = bt.resolve(x)
        doc = {
            "x": list(x),
            "active_leaf": active,
            "root_status": status.value,
            "leaves": [
                {
                    "id": i,
                    "label": bt.behavior(i).label,
                    "influence": influence,
                    "operating": operating,
                }
                for i, influence, operating in regions.leaf_memberships(bt, x)
            ],
        }
        _emit(json.dumps(doc, indent=2), args.output)
        return 0
    box = _parse_box(args.box, bt.state_dim)
    pts = regions.grid_points(box, args.grid)
    _emit(regions.region_csv(bt, pts), args.output)
    return 0


def cmd_check_partition(args) -> int:
    model = _load(args.model)
    box = _parse_box(args.box, model.bt.state_dim)
    pts = regions.uniform_points(box, args.samples, args.seed)
    report = regions.check_partition(model.bt, pts)
    doc = {
        "model": model.name,
        "box": [list(b) for b in box],
        "seed": args.seed,
        "report": report.to_dict(),
    }
    _emit(json.dumps(doc, indent=2), args.output)
    return 0 if report.passed else FAILED


def _initial_states(args, box, state_dim) -> tuple:
    """Grid or seeded-uniform initial states, minus the excluded balls."""
    if args.count < 1:
        raise CliError(f"--count must be at least 1; got {args.count}")
    if args.inits == "grid":
        per_axis = round(args.count ** (1.0 / state_dim))
        if per_axis ** state_dim != args.count:
            raise CliError(f"--inits grid needs --count to be a perfect "
                           f"power of the state dimension; got {args.count}")
        pts = regions.grid_points(box, per_axis)
    else:
        pts = regions.uniform_points(box, args.count, args.seed)
    balls = [_parse_exclude(e, state_dim) for e in (args.exclude or [])]
    kept, excluded = [], 0
    for p in pts:
        if any(float(np.linalg.norm(p - np.asarray(c))) <= r
               for c, r in balls):
            excluded += 1
            continue
        kept.append([float(v) for v in p])
    if not kept:
        raise CliError("every initial state fell inside an excluded ball")
    return kept, excluded


def cmd_certify(args) -> int:
    model = _load(args.model)
    if args.inits == "random" and args.seed is None:
        raise CliError("--inits random requires --seed")
    box = _parse_box(args.box, model.bt.state_dim)
    inits, excluded = _initial_states(args, box, model.bt.state_dim)
    cfg = _config(args)
    runs = batch_integrate(model.plant, model.bt, inits, cfg,
                           model_name=model.name)
    cert = convergence.certify(runs)
    doc = {
        "config": {
            "dt": cfg.dt,
            "t_end": cfg.t_end,
            "event_tol": cfg.event_tol,
            "box": [list(b) for b in box],
            "inits": args.inits,
            "count": args.count,
            "seed": args.seed,
            "excluded": excluded,
        },
        "initial_states": inits,
        "certificate": cert.to_dict(),
    }
    _emit(json.dumps(doc, indent=2), args.output)
    return 0 if cert.passed else FAILED


# ------------------------------------------------------------------ parser

def _seed(text: str) -> int:
    """argparse type for --seed: numpy seeds are non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return value


def _add_common(p, x0_required=False, want_x0=True):
    p.add_argument("model", help="model file path or bundled model name")
    if want_x0:
        p.add_argument("--x0", required=x0_required,
                       help="initial state, comma separated "
                            "(use --x0=-1,0 for negative leading values)")
    p.add_argument("--output", help="write to this file instead of stdout")


def _add_integration(p):
    defaults = IntegratorConfig()
    p.add_argument("--dt", type=float, default=defaults.dt,
                   help="integration step (default %(default)g)")
    p.add_argument("--t-end", type=float, default=defaults.t_end,
                   help="time horizon (default %(default)g)")
    p.add_argument("--event-tol", type=float, default=defaults.event_tol,
                   help="event bisection tolerance (default %(default)g)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctbt",
        description="behavior-tree controlled dynamical systems",
        epilog="exit codes: 0 ok, 1 usage or model error, "
               "2 execution or analysis failure")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a model file and summarize it")
    _add_common(p, want_x0=False)
    p.add_argument("--print", action="store_true",
                   help="emit the canonical form instead of a summary")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run the closed loop from one state")
    _add_common(p, x0_required=True)
    _add_integration(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("regions", help="region ownership at a point or grid")
    _add_common(p)
    p.add_argument("--box", help="axis intervals lo:hi,lo:hi "
                                 "(default -1:1 per axis; use --box=-1:1,... "
                                 "when the first bound is negative)")
    p.add_argument("--grid", type=int, default=25,
                   help="grid resolution per axis (default 25)")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("check-partition",
                       help="sampled audit: exactly one owner everywhere")
    _add_common(p, want_x0=False)
    p.add_argument("--box", help="axis intervals lo:hi,lo:hi "
                                 "(default -1:1 per axis)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=cmd_check_partition)

    p = sub.add_parser("certify",
                       help="batch-execute and build a convergence certificate")
    _add_common(p, want_x0=False)
    _add_integration(p)
    p.add_argument("--box", help="axis intervals lo:hi,lo:hi "
                                 "(default -1:1 per axis)")
    p.add_argument("--inits", choices=("grid", "random"), default="grid")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--exclude", action="append",
                   help="ball c1,..,cn:r of initial states to skip; "
                        "repeatable")
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else USAGE
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (ModelError, OSError, regions.EmptySampler) as err:  # OSError: unreadable paths
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except (ExecutionError, NonFiniteState,
            convergence.EmptyBatch, convergence.MixedModels) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return FAILED


if __name__ == "__main__":
    sys.exit(main())
