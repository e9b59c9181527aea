"""The paired-run tool's statistics and its refusal to compare unlike harnesses."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(ops, p50, failed=0, attempted=10):
    return {"correct": True, "failed": failed, "attempted": attempted, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"}}}


METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_p50_ms", "better": "lower"}]


def test_wins_count_the_better_direction_and_ties_count_for_neither():
    runs = {"parent": [result(10.0, 100.0), result(10.2, 98.0), result(9.9, 101.0),
                       result(10.1, 99.0)],
            "change": [result(12.0, 100.0), result(12.1, 90.0), result(10.0, 103.0),
                       result(12.2, 91.0)]}
    rows = {r[0]: r for r in bench_pairs.summarize(METRICS, runs)}
    name, unit, parent, change, wins, holds = rows["ops_per_s"]
    assert unit == "1/s" and wins == 4
    assert parent == (9.975, 10.05, 10.125)
    assert holds  # 4/4 wins and a median gain of 2.0 > the parent's 0.15 spread
    assert rows["op_p50_ms"][4] == 2  # one tie, one loss
    assert not rows["op_p50_ms"][5]


def test_gain_rule_needs_nine_tenths_of_the_pairs():
    parent = [result(10.0 + 0.01 * k, 100.0) for k in range(10)]
    change = [result(12.0, 100.0) for _ in range(8)] + [result(9.0, 100.0)] * 2
    row = bench_pairs.summarize(METRICS, {"parent": parent, "change": change})[0]
    assert row[4] == 8 and not row[5]


def test_bench_trees_are_compared_byte_for_byte_caches_aside(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "bench" / "__pycache__").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("print(1)\n")
    (change / "bench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"\0")
    assert bench_pairs.bench_difference(parent, change) == []
    (change / "bench" / "run.py").write_text("print(2)\n")
    (parent / "bench" / "extra.json").write_text("{}")
    assert bench_pairs.bench_difference(parent, change) == ["extra.json", "run.py"]
    code = bench_pairs.main([str(parent), str(change), "--workload", "slide_hold",
                             "--seed", "1", "--pairs", "1", "--seconds", "1"])
    assert code == 2
    assert "refusing" in capsys.readouterr().err


def test_a_run_length_other_than_the_benchmarks_is_noted(tmp_path, capsys, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("print(1)\n")
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 30, "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, args: result(10.0, 100.0))
    notes = {}
    for seconds in ("30", "15"):
        code = bench_pairs.main([str(parent), str(change), "--workload", "slide_hold",
                                 "--seed", "1", "--pairs", "1", "--seconds", seconds])
        assert code == 0
        notes[seconds] = [line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("note:")]
    assert notes["30"] == []
    assert notes["15"] == ["note: --seconds 15 is not the benchmark's run_seconds 30; with "
                           "another number of passes per run, op_tail_ms may read another "
                           "kind of operation"]


# what bench/run.py prints on region_audit, --trace 0, before its JSON
REGION_STDOUT = """\
workload region_audit  seed 1  passes 4  trace 0  outcomes {"ok": 160}
  metric                  at ref. speed    as measured
  audit_points_per_s            21882.6        21467.1 points/s         256 points per tree
  audit_p50_ms                  11.1593        11.1607 ms               n=160
  audit_tail_ms                  21.912        22.5646 ms               p93.8, n=160
  failed_frac                         0              0 failed/attempted 0/160
  setup_s                      0.130903       0.131978 s                median of 7
  peak_rss_mb                   45.5195        45.5195 MB
{"correct": true, "attempted": 160, "failed": 0, "metrics": {"setup_s": {"value": 0.13}}}
"""


def test_raw_columns_read_the_as_measured_figures_of_the_op_and_setup_rows():
    raw = bench_pairs.raw_columns(REGION_STDOUT)
    assert raw == {"audit_points_per_s": {"value": 21467.1, "unit": "points/s"},
                   "audit_p50_ms": {"value": 11.1607, "unit": "ms"},
                   "audit_tail_ms": {"value": 22.5646, "unit": "ms"},
                   "setup_s": {"value": 0.131978, "unit": "s"}}
    trajectories = REGION_STDOUT.replace("audit_points_per_s", "traj_per_s").replace(
        "audit_", "traj_")
    assert sorted(bench_pairs.raw_columns(trajectories)) == [
        "setup_s", "traj_p50_ms", "traj_per_s", "traj_tail_ms"]


def test_raw_figures_are_printed_under_the_table_and_not_gated(tmp_path, capsys, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("print(1)\n")
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 30, "end_to_end": METRICS}))
    raw = bench_pairs.raw_columns(REGION_STDOUT)

    def run_once(checkout, args):  # the change's raw p50 is 1 ms lower
        p50 = raw["audit_p50_ms"]["value"] - (checkout == change)
        return {**result(10.0, 100.0), "raw": {**raw, "audit_p50_ms": {
            "value": p50, "unit": "ms"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(parent), str(change), "--workload", "region_audit",
                             "--seed", "1", "--pairs", "2", "--seconds", "30"]) == 0
    out = capsys.readouterr().out
    gated, raw_table = out.split("raw, as measured (not gated)")
    assert "| ops_per_s | 1/s | 10 [10, 10] | 10 [10, 10] | 1.000 | 0/2 | no |" in gated
    assert "audit_p50_ms" not in gated
    assert ("| audit_p50_ms | ms | 11.1607 [11.1607, 11.1607] "
            "| 10.1607 [10.1607, 10.1607] | 0.910 | 2/2 | not gated |") in raw_table
    assert [line.split(" | ")[0] for line in raw_table.splitlines() if line.startswith("| a")
            or line.startswith("| s")] == ["| audit_points_per_s", "| audit_p50_ms",
                                           "| audit_tail_ms", "| setup_s"]
