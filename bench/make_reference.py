"""Regenerate the stored reference outcomes in bench/reference/.

    python3 bench/make_reference.py [workload ...]

Runs every bank entry of each workload once with the current sources and
writes one JSON file per workload.  The benchmark compares every operation
against these files, so regenerate them only when an outcome is meant to
change, and review the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import ctbt
import workloads


def trajectory_reference(wl) -> dict:
    model = ctbt.dsl.lower(ctbt.dsl.parse(wl.model_text()))
    cfg = wl.config()
    out = {}
    for key, x0 in wl.bank().items():
        run = ctbt.batch_integrate(model.plant, model.bt, [x0], cfg, model_name=wl.name)[0]
        out[key] = {"x0": list(x0), **workloads.summarize(run)}
    return out


def region_reference(wl) -> dict:
    out = {}
    for key, (text, n_leaves) in wl.bank().items():
        model = ctbt.dsl.lower(ctbt.dsl.parse(text))
        if len(model.bt.leaf_ids) != n_leaves:
            raise SystemExit(f"{key}: {len(model.bt.leaf_ids)} leaves, expected {n_leaves}")
        report = ctbt.check_partition(model.bt, wl.points(0, 0, key))
        if not report.passed:
            raise SystemExit(f"{key}: partition audit fails: {report.to_dict()}")
        out[key] = wl.summary(model)
    return out


def main(names) -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        ref = region_reference(wl) if name == "region_audit" else trajectory_reference(wl)
        classes = {}
        for entry in ref.values():
            classes[entry.get("class", "ok")] = classes.get(entry.get("class", "ok"), 0) + 1
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(ref)} entries {classes} -> {path.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
