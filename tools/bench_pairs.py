"""Paired benchmark runs of a parent and a change, alternating which goes first.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N --seconds T

PARENT and CHANGE are source checkouts, each with bench/ and src/ctbt.
Every pair runs `bench/run.py --workload W --seed S --seconds T --trace 0`
once from each checkout, one after the other; the first pair starts with
the parent and the sides swap every pair, so slow phases of a shared host
do not favor one side.  The tool then prints, for every end-to-end metric that
CHANGE's BENCHMARK.json names, each side's median and quartiles and the
number of pairs the change won (ties count for neither side), and whether
the gain rule holds: the change wins at least nine tenths of the pairs, and
its median is better than the parent's by more than the distance between
the parent's quartiles.  Under that table it prints the same figures, gate
aside, for the raw "as measured" column of the rows bench/run.py prints
before its JSON (the traj_* or audit_* rows and setup_s): the JSON's
metrics are scaled to reference speed by a kernel timed in the same
process, and where that scaling moves with the program the raw op times
tell whether the program itself did.

A run that reports `correct: false`, or whose failed count differs from
its pair's, is flagged.  Runs finish whole passes, so two runs of one
program may attempt different numbers of operations; the failed count is
compared as a share of the attempted.  Exit status: 0 with no flags, 1
with flags, 2 when the tool refuses or a run does not finish.

The tool refuses to run when the two bench/ trees differ byte for byte
(caches aside): paired runs compare programs, so the harness must be the
same on both sides.  It prints a note when --seconds is not the
benchmark's run_seconds: op_tail_ms is the op time eleventh from the top,
so the number of passes a run finishes decides which operation it reads.
Where one op in each pass runs far longer than the rest, as
pendulum_certify's failing start did while it stepped the full horizon
(one op of 31), eleven passes or more put that op there and fewer another
one, and runs shorter than the benchmark's can fall on different sides of
that line for the two programs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CACHE_DIRS = {"__pycache__", ".pytest_cache"}
# rows of bench/run.py's report whose "as measured" column is kept: name -> better
RAW_ROWS = {"traj_per_s": "higher", "traj_p50_ms": "lower", "traj_tail_ms": "lower",
            "audit_points_per_s": "higher", "audit_p50_ms": "lower",
            "audit_tail_ms": "lower", "setup_s": "lower"}


def bench_files(checkout: Path) -> dict:
    """Relative path -> bytes of every file under checkout/bench, caches aside."""
    bench = checkout / "bench"
    return {p.relative_to(bench).as_posix(): p.read_bytes()
            for p in sorted(bench.rglob("*"))
            if p.is_file() and not CACHE_DIRS & set(p.relative_to(bench).parts)}


def bench_difference(parent: Path, change: Path) -> list:
    """Files under bench/ that are missing on one side or differ."""
    a, b = bench_files(parent), bench_files(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def raw_columns(stdout: str) -> dict:
    """Name -> {"value", "unit"} of the "as measured" column of every
    RAW_ROWS row in bench/run.py's report, `  name  at-ref  measured  unit  note`."""
    raw = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in RAW_ROWS:
            raw[parts[0]] = {"value": float(parts[2]), "unit": parts[3]}
    return raw


def run_once(checkout: Path, args) -> dict:
    """The result object bench/run.py prints last, with the report's raw
    columns under "raw"; exit 2 if the run fails."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"error: bench/run.py exited {proc.returncode} in {checkout}", file=sys.stderr)
        raise SystemExit(2)
    return {**json.loads(lines[-1]), "raw": raw_columns(proc.stdout)}


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of values, inclusive method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failed_share(result: dict) -> float:
    return result["failed"] / result["attempted"] if result["attempted"] else 0.0


def summarize(metrics: list, runs: dict, key: str = "metrics") -> list:
    """One row per metric: name, unit, both sides' quartiles, wins, rule;
    the figures are read from each run's result[key]."""
    rows = []
    pairs = len(runs["parent"])
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        side = {k: [r[key][name]["value"] for r in runs[k]] for k in runs}
        sign = 1.0 if higher else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(side[k]) for k in ("parent", "change"))
        holds = wins >= 0.9 * pairs and sign * (cmed - pmed) > pq3 - pq1
        unit = runs["parent"][0][key][name]["unit"]
        rows.append((name, unit, (pq1, pmed, pq3), (cq1, cmed, cq3), wins, holds))
    return rows


TABLE_HEAD = ("| metric | unit | parent median [q1, q3] | change median [q1, q3] "
              "| change/parent | change wins | gain rule |\n|---|---|---|---|---|---|---|")


def table_row(name, unit, p, c, wins, pairs) -> str:
    """The table's row for one metric up to its gain-rule cell."""
    ratio = f"{c[1] / p[1]:.3f}" if p[1] else "n/a"
    return (f"| {name} | {unit} | {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}] "
            f"| {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}] | {ratio} | {wins}/{pairs} |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    parent, change = args.parent.resolve(), args.change.resolve()
    differ = bench_difference(parent, change)
    if differ:
        print("refusing: the bench/ trees differ in " + ", ".join(differ), file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds != spec["run_seconds"]:
        print(f"note: --seconds {args.seconds:g} is not the benchmark's run_seconds "
              f"{spec['run_seconds']:g}; with another number of passes per run, "
              "op_tail_ms may read another kind of operation")

    runs = {"parent": [], "change": []}
    flags = []
    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  "
          f"seconds {args.seconds:g}")
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        result = {side: run_once(parent if side == "parent" else change, args)
                  for side in order}
        for side in order:
            r = result[side]
            runs[side].append(r)
            print(f"  pair {k + 1:2d} {side:6s} correct {r['correct']!s:5s} "
                  f"failed {r['failed']}/{r['attempted']}  "
                  + "  ".join(f"{m['name']} {r['metrics'][m['name']]['value']:.6g}"
                              for m in spec["end_to_end"]), flush=True)
            if r["correct"] is not True:
                flags.append(f"pair {k + 1} {side}: correct is {r['correct']}")
        if failed_share(result["parent"]) != failed_share(result["change"]):
            flags.append(f"pair {k + 1}: failed share parent "
                         f"{result['parent']['failed']}/{result['parent']['attempted']}, "
                         f"change {result['change']['failed']}/{result['change']['attempted']}")

    print(f"\n{TABLE_HEAD}")
    for name, unit, p, c, wins, holds in summarize(spec["end_to_end"], runs):
        print(f"{table_row(name, unit, p, c, wins, args.pairs)} {'holds' if holds else 'no'} |")
    raw = [{"name": name, "better": better} for name, better in RAW_ROWS.items()
           if all(name in r.get("raw", {}) for side in runs.values() for r in side)]
    if raw:
        print(f"\nraw, as measured (not gated)\n\n{TABLE_HEAD}")
        for name, unit, p, c, wins, _ in summarize(raw, runs, "raw"):
            print(f"{table_row(name, unit, p, c, wins, args.pairs)} not gated |")
    for flag in flags:
        print(f"flag: {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
