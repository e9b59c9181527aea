"""Print a sha256 manifest of the program's observable outputs.

    python tools/output_digest.py [CHECKOUT]

CHECKOUT (default: the checkout holding this script) needs src/ctbt,
bench/workloads.py and demos/.  Each manifest line is `<sha256>  <name>`,
one per output:

- bank/<workload>/<key>: `to_json` of one integrate run from every start of
  the pendulum_certify and slide_hold banks (a run that raises is digested
  as its FailedRun repr);
- region/<key>: `check_partition(...).to_dict()` and `region_csv` of every
  region_audit bank tree on the seed-1, pass-0 points;
- cli/...: exit code, stdout and stderr of `ctbt validate`, `validate
  --print`, `check-partition`, `regions --x0`, a `regions` grid and
  `simulate` on the bundled models, and `certify` on two of them;
- boundary/<model>: `sample_boundary_pairs` and `check_transversality` on
  the bundled thermostat and kitchen_lamp models;
- demo/<file>: exit code and stdout of every script in demos/.

To show that a change keeps its outputs, run this on the change and on its
parent, on the same host, and diff the two manifests.  The digests are not
portable: the sliding outputs go through LAPACK's SVD, whose last bits may
differ between machines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# argv per bundled model, each run once per model
CLI_CASES = {
    "kitchen_lamp": [
        ["check-partition", "--seed", "1", "--samples", "400"],
        ["regions", "--grid", "9", "--box=-2:2,-2:2"],
        *(["regions", f"--x0={x}"] for x in
          ("0,0", "1,0", "1.5,0.5", "1.5,1", "1.5,-1", "-1,0.5", "-1.5,-1.5")),
        ["simulate", "--x0=-0.5,-0.5", "--t-end", "3", "--dt", "0.01"],
    ],
    "pendulum": [
        ["check-partition", "--seed", "1", "--samples", "400", "--box=-3:3,-2:2"],
        ["regions", "--grid", "9", "--box=-3:3,-2:2"],
        *(["regions", f"--x0={x}"] for x in
          ("3,0", "0.3,0.1", "0.01,0.01", "-2,1", "0,0", "0.5,0", "-0.04,0.03")),
        ["certify", "--inits", "grid", "--count", "9", "--dt", "0.004", "--t-end", "20",
         "--box=-3:3,-2:2"],
    ],
    "thermostat": [
        ["check-partition", "--seed", "1", "--samples", "400", "--box", "19:23"],
        ["regions", "--grid", "9", "--box", "19:23"],
        *(["regions", f"--x0={x}"] for x in ("18", "21", "21.000001", "22.5", "-3")),
        ["simulate", "--x0=18", "--t-end", "5", "--dt", "0.01"],
        ["simulate", "--x0=23", "--t-end", "5", "--dt", "0.01", "--format", "csv"],
        ["certify", "--inits", "grid", "--count", "5", "--dt", "0.01", "--t-end", "5",
         "--box", "18:24"],
    ],
}

# bundled model: (box, pair count) for the boundary sampler, seed 1
BOUNDARY_CASES = {
    "thermostat": ([(19.0, 23.0)], 20),
    "kitchen_lamp": ([(-2.0, 2.0), (-2.0, 2.0)], 40),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bank_digests(workloads) -> list:
    from ctbt import Trajectory, batch_integrate, dsl

    lines = []
    for name in ("pendulum_certify", "slide_hold"):
        wl = workloads.WORKLOADS[name]
        model = dsl.lower(dsl.parse(wl.model_text()))
        cfg = wl.config()
        for key, x0 in wl.bank().items():
            run = batch_integrate(model.plant, model.bt, [x0], cfg, model_name=name)[0]
            text = run.to_json() if isinstance(run, Trajectory) else repr(run)
            lines.append((sha(text), f"bank/{name}/{key}"))
    return lines


def region_digests(workloads) -> list:
    from ctbt import check_partition, dsl
    from ctbt.regions import region_csv

    wl = workloads.WORKLOADS["region_audit"]
    lines = []
    for key, (text, _) in wl.bank().items():
        model = dsl.lower(dsl.parse(text))
        points = wl.points(1, 0, key)
        report = check_partition(model.bt, points)
        lines.append((sha(json.dumps(report.to_dict())), f"region/{key}/report"))
        lines.append((sha(region_csv(model.bt, points)), f"region/{key}/csv"))
    return lines


def cli_digests() -> list:
    from ctbt import cli

    lines = []
    for model, cases in sorted(CLI_CASES.items()):
        for argv in [["validate"], ["validate", "--print"], *cases]:
            full = [argv[0], f"{model}.btm", *argv[1:]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(full)
            text = f"exit {code}\n--stdout\n{out.getvalue()}--stderr\n{err.getvalue()}"
            lines.append((sha(text), "cli/" + " ".join(full)))
    return lines


def boundary_digests() -> list:
    from ctbt import check_transversality, dsl, sample_boundary_pairs

    lines = []
    for model, (box, count) in BOUNDARY_CASES.items():
        lowered = dsl.load(dsl.bundled_model_dir() / f"{model}.btm")
        pairs = sample_boundary_pairs(lowered.bt, box, count, seed=1)
        report = check_transversality(lowered.plant, lowered.bt, pairs)
        text = repr([(a.tolist(), b.tolist()) for a, b in pairs]) + "\n" + repr(report)
        lines.append((sha(text), f"boundary/{model}"))
    return lines


def demo_digests(root: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    lines = []
    with tempfile.TemporaryDirectory() as cwd:  # demos may write figures
        for demo in sorted((root / "demos").glob("*.py")):
            done = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                                  capture_output=True, text=True, check=False)
            text = f"exit {done.returncode}\n--stdout\n{done.stdout}"
            lines.append((sha(text), f"demo/{demo.name}"))
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__, file=sys.stderr)
        return 1
    root = Path(args[0] if args else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import ctbt
    import workloads

    if Path(ctbt.__file__).resolve().parent != root / "src" / "ctbt":
        print(f"error: imported ctbt from {ctbt.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 1
    lines = (bank_digests(workloads) + region_digests(workloads)
             + cli_digests() + boundary_digests() + demo_digests(root))
    for digest, name in lines:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
