"""End-to-end command line checks, run in-process through main()."""

import json
import subprocess
import sys

import pytest

from ctbt import cli, dsl
from ctbt.cli import main
from ctbt.executor import IntegratorConfig


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------- validate

def test_validate_bundled_model(capsys):
    code, out, err = run(capsys, "validate", "pendulum.btm")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc == {
        "ok": True,
        "name": "pendulum",
        "state_dim": 2,
        "control_dim": 1,
        "nodes": 3,
        "leaves": {"1": "swing_up", "2": "balance"},
    }


def test_validate_print_emits_parseable_canonical_form(capsys):
    code, out, err = run(capsys, "validate", "thermostat.btm", "--print")
    assert code == 0
    reparsed = dsl.parse(out)
    original = dsl.parse((dsl.bundled_model_dir() / "thermostat.btm").read_text())
    assert reparsed == original


def test_validate_reports_error_location(tmp_path, capsys):
    bad = tmp_path / "bad.btm"
    bad.write_text('model "bad" {\n  state 1;\n  control 1;\n'
                   '  plant { dx0 = x7; }\n'
                   '  leaf a { u = [0.0]; status = R; }\n'
                   '  root = a;\n}\n')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "x7" in err
    assert "line 4" in err


def test_validate_reports_control_count_location(tmp_path, capsys):
    bad = tmp_path / "bad.btm"
    bad.write_text('model "bad" {\n  state 1;\n  control 2;\n'
                   '  plant { dx0 = u0 + u1; }\n'
                   '  leaf a { u = [0.0]; status = R; }\n'
                   '  root = a;\n}\n')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "line 5" in err


@pytest.mark.parametrize("expr", ["(" * 1000 + "x0" + ")" * 1000, "-" * 1000 + "x0",
                                  " + ".join(["x0"] * 1200),
                                  pytest.param("1.0 / (" * 250 + "x0" + ")" * 250,
                                               id="250_nested_divisions")])
def test_validate_reports_deep_nesting_location(tmp_path, capsys, expr):
    """Nesting past what parse accepts is an error line at its position.
    250 nested divisions parse, so they validate, and the controller
    lowered from them evaluates as evaluate_expr does."""
    deep = tmp_path / "deep.btm"
    deep.write_text('model "deep" {\n  state 1;\n  control 1;\n  plant { dx0 = u0; }\n'
                    f'  leaf a {{ u = [{expr}]; status = R; }}\n  root = a;\n}}\n')
    code, out, err = run(capsys, "validate", str(deep))
    if not expr.startswith("1.0 / ("):
        assert code == 1
        assert err.startswith("error: ") and "line 5" in err and "Traceback" not in err
        return
    assert code == 0 and json.loads(out)["ok"] is True and err == ""
    model = dsl.load(deep)
    (control,) = model.model.nodes[0].controls
    for x0 in (0.5, -3.0, 0.0):
        env = {"x0": x0}
        try:
            want = (dsl.evaluate_expr(control, env),)
        except dsl.DivisionByZero as e:
            want = str(e)
        try:
            got = model.bt.behavior(0).controller((x0,))
        except dsl.DivisionByZero as e:
            got = str(e)
        assert got == want


def test_a_guard_nested_150_deep_simulates(tmp_path, capsys):
    """The bundled thermostat with its check written as sin( 150 deep
    around x0 - T: the guard lowers at the first slide, and the run slides
    at the setpoint to the end."""
    text = (dsl.bundled_model_dir() / "thermostat.btm").read_text(encoding="utf-8")
    check = "status = if x0 > T then S else F;"
    assert check in text
    deep = tmp_path / "deep_thermo.btm"
    deep.write_text(text.replace(
        check, "status = if " + "sin(" * 150 + "x0 - T" + ")" * 150 + " > 0.0 then S else F;"))
    assert run(capsys, "validate", str(deep))[0] == 0
    code, out, err = run(capsys, "simulate", str(deep), "--x0", "20", "--dt", "0.1",
                         "--t-end", "3")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["samples"][-1]["t"] == 3.0
    assert "SlideEnter" in [e["kind"] for e in doc["events"]]
    assert all(s["x"] == [21.0] for s in doc["samples"] if s["t"] >= 1.1)


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "no_such_model.btm")
    assert code == 1
    assert "no_such_model" in err


def test_a_bundled_model_may_be_named_without_its_suffix(capsys):
    named = run(capsys, "simulate", "pendulum", "--x0", "0.5,0", "--t-end", "1")
    assert named == run(capsys, "simulate", "pendulum.btm", "--x0", "0.5,0", "--t-end", "1")
    assert named[0] == 0 and json.loads(named[1])["meta"]["model"] == "pendulum"
    assert run(capsys, "validate", "nope")[2] == "error: no such model file: nope\n"


def test_validate_a_directory_is_an_error_line(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err


def test_a_model_file_that_is_not_utf8_names_its_first_bad_byte(tmp_path, capsys):
    bad = tmp_path / "latin1.btm"
    bad.write_bytes('model "m" {\n  state 1;\n  # café\n'.encode("latin-1"))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err == "error: byte 0xe9 is not UTF-8 at line 3, column 8\n"
    with pytest.raises(dsl.LexError) as info:
        dsl.load(bad)
    assert (info.value.line, info.value.col) == (3, 8)
    bad.write_bytes(b"\xef\xbb\xbf" + bad.read_bytes())  # a byte-order mark moves no column
    assert run(capsys, "validate", str(bad))[2] == err


def test_a_model_file_may_start_with_a_utf8_byte_order_mark(tmp_path, capsys):
    plain = dsl.bundled_model_dir() / "thermostat.btm"
    marked = tmp_path / "thermostat.btm"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert dsl.format_model(dsl.load(marked).model) == dsl.format_model(dsl.load(plain).model)
    code, out, err = run(capsys, "validate", str(marked))
    assert (code, err) == (0, "")
    assert out == run(capsys, "validate", str(plain))[1]


def test_output_to_a_directory_is_an_error_line(tmp_path, capsys):
    code, out, err = run(capsys, "simulate", "thermostat.btm", "--x0", "19",
                         "--dt", "0.01", "--t-end", "0.1", "--output", str(tmp_path))
    assert code == 1
    assert out == "" and err.startswith("error: ") and str(tmp_path) in err


# ---------------------------------------------------------------- simulate

def test_simulate_thermostat_json(capsys):
    code, out, err = run(capsys, "simulate", "thermostat.btm", "--x0", "19",
                         "--dt", "0.01", "--t-end", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["model"] == "thermostat"
    assert doc["meta"]["dt"] == 0.01
    assert doc["samples"][0]["x"] == [19.0]
    assert doc["samples"][-1]["t"] == 1.0


def test_simulate_csv_format(capsys):
    code, out, err = run(capsys, "simulate", "thermostat.btm", "--x0", "19",
                         "--dt", "0.01", "--t-end", "0.1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x0,leaf,status"
    assert lines[1] == "0.0,19.0,3,R"


def test_simulate_output_file(tmp_path, capsys):
    target = tmp_path / "run.json"
    code, out, err = run(capsys, "simulate", "thermostat.btm", "--x0", "19",
                         "--dt", "0.01", "--t-end", "0.1",
                         "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["meta"]["model"] == "thermostat"


SHEAR_BTM = """model "shear" {
  state 2;
  control 2;
  plant {
    dx0 = u0;
    dx1 = u1;
  }
  leaf left {
    u = [1.0, 10.0];
    status = if x0 < 0.0 then R else F;
  }
  leaf right {
    u = [-1.0, 10.5];
    status = R;
  }
  fal pick = [left, right];
  root = pick;
}
"""


def test_simulate_handoff_heavy_slide(tmp_path, capsys):
    # a slide that hands each step back to regular mode hundreds of times
    model = tmp_path / "shear.btm"
    model.write_text(SHEAR_BTM)
    code, out, err = run(capsys, "simulate", str(model), "--x0=-0.01,0",
                         "--dt", "0.001", "--t-end", "0.011")
    assert code == 0, err
    assert json.loads(out)["samples"][-1]["t"] == 0.011


def test_simulate_wrong_state_dimension(capsys):
    code, out, err = run(capsys, "simulate", "pendulum.btm", "--x0", "1,2,3")
    assert code == 1
    assert "state dimension" in err


def test_simulate_unparseable_x0(capsys):
    code, out, err = run(capsys, "simulate", "pendulum.btm", "--x0", "1,apple")
    assert code == 1
    assert "--x0" in err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "thermostat.btm", "--x0", "nan"], "--x0"),
    (["check-partition", "thermostat.btm", "--seed", "1", "--box", "18:inf"], "--box"),
    (["regions", "thermostat.btm", "--box=-inf:1"], "--box"),
    (["certify", "thermostat.btm", "--box", "18:inf"], "--box"),
    (["certify", "thermostat.btm", "--exclude", "21:nan"], "--exclude radius"),
    (["certify", "thermostat.btm", "--exclude", "nan:1"], "--exclude center"),
], ids=["x0-nan", "partition-box-inf", "regions-box-neg-inf", "certify-box-inf",
        "exclude-radius-nan", "exclude-center-nan"])
def test_non_finite_numbers_are_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: could not parse {flag} ")
    assert "finite numbers" in err


@pytest.mark.parametrize("argv, message", [
    (["regions", "pendulum.btm", "--box", "0:1:2,0:1"],
     "bad --box interval '0:1:2': expected lo:hi"),
    (["check-partition", "pendulum.btm", "--seed", "1", "--box", "1:0,0:1"],
     "bad --box interval '1:0': need lo < hi"),
    (["certify", "pendulum.btm", "--exclude", "0,0"],
     "bad --exclude '0,0': expected center:radius"),
    (["certify", "pendulum.btm", "--exclude", "0:1"],
     "--exclude center has 1 components but the model's state dimension is 2"),
    (["certify", "pendulum.btm", "--exclude", "0,0:0"],
     "--exclude radius must be positive"),
    (["check-partition", "thermostat", "--seed", "1", "--samples", "3", "--box=-1e308:1e308"],
     "box axis 0 is wider than the float range: (-1e+308, 1e+308)"),
    (["regions", "thermostat", "--box=-1e308:1e308", "--grid", "3"],
     "box axis 0 is wider than the float range: (-1e+308, 1e+308)"),
    (["certify", "thermostat", "--inits", "random", "--seed", "1", "--box=-1e308:1e308"],
     "box axis 0 is wider than the float range: (-1e+308, 1e+308)"),
], ids=["box-three-bounds", "box-reversed", "exclude-no-radius",
        "exclude-short-center", "exclude-zero-radius", "partition-box-too-wide",
        "regions-box-too-wide", "certify-box-too-wide"])
def test_malformed_box_and_exclude_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_zero_step_is_a_usage_error(capsys, command):
    argv = [command, "thermostat.btm", "--dt", "0", "--t-end", "1"]
    code, out, err = run(capsys, *argv, *(["--x0", "19"] if command == "simulate" else []))
    assert code == 1 and out == ""
    assert err == "error: IntegratorConfig.dt must be finite and > 0, got 0.0\n"


def test_step_too_short_to_take_is_a_usage_error(capsys):
    code, out, err = run(capsys, "simulate", "thermostat.btm", "--x0", "19",
                         "--dt", "1e-16", "--t-end", "1e-14")
    assert code == 1 and out == ""
    assert err == "error: IntegratorConfig.dt must be finite and > 1e-15, got 1e-16\n"


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_horizon_of_too_many_steps_is_a_usage_error(capsys, command):
    argv = [command, "thermostat.btm", "--dt", "1e-300", "--t-end", "1e300"]
    code, out, err = run(capsys, *argv, *(["--x0", "20"] if command == "simulate" else []))
    assert code == 1 and out == ""
    assert err == ("error: IntegratorConfig.t_end must be finite in steps of dt, "
                   "got t_end=1e+300 and dt=1e-300\n")


def test_simulate_divergence_exits_two(tmp_path, capsys):
    blowup = tmp_path / "blowup.btm"
    blowup.write_text('model "blowup" {\n  state 1;\n  control 1;\n'
                      '  plant { dx0 = x0 * x0; }\n'
                      '  leaf drift { u = [0.0]; status = R; }\n'
                      '  root = drift;\n}\n')
    code, out, err = run(capsys, "simulate", str(blowup), "--x0", "1",
                         "--dt", "0.01", "--t-end", "2")
    assert code == 2
    assert "NonFiniteState" in err


# ----------------------------------------------------------------- regions

def test_regions_point_query(capsys):
    code, out, err = run(capsys, "regions", "kitchen_lamp.btm", "--x0", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["active_leaf"] == 1
    assert doc["root_status"] == "R"
    ops = {l["id"]: l["operating"] for l in doc["leaves"]}
    assert ops == {1: True, 3: False, 4: False}
    infl = {l["id"]: l["influence"] for l in doc["leaves"]}
    assert infl[1] is True and infl[3] is False


def test_regions_point_query_after_gate(capsys):
    code, out, err = run(capsys, "regions", "kitchen_lamp.btm",
                         "--x0", "1.5,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["active_leaf"] == 3
    ops = {l["id"]: l["operating"] for l in doc["leaves"]}
    assert ops == {1: False, 3: True, 4: False}


def test_regions_point_query_evaluates_each_leaf_once(capsys, monkeypatch):
    """One region evaluation and one delegation walk per state: at (0, 0) the
    three kitchen leaves once each and the walk's first leaf (14 calls when
    every leaf's influence was a tree evaluation of its own)."""
    import dataclasses

    from ctbt import cli, dsl
    from ctbt.core import BehaviorTree, Leaf, LeafBehavior

    calls = []

    def copy(node):
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, LeafBehavior(
                b.controller, lambda x, m=b.metadata: calls.append(x) or m(x), b.label))
        return type(node)(node.node_id, tuple(copy(c) for c in node.children))

    def load(arg):
        model = dsl.load(dsl.resolve_model_path(arg))
        return dataclasses.replace(model, bt=BehaviorTree(copy(model.bt.root), state_dim=2))

    plain = run(capsys, "regions", "kitchen_lamp.btm", "--x0", "0,0")
    monkeypatch.setattr(cli, "_load", load)
    assert run(capsys, "regions", "kitchen_lamp.btm", "--x0", "0,0") == plain
    assert len(calls) == 4


def test_regions_grid_csv(capsys):
    code, out, err = run(capsys, "regions", "kitchen_lamp.btm",
                         "--box=-2:2,-2:2", "--grid", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x0,x1,owner_leaf_id,root_status"
    assert len(lines) == 26
    assert lines[1].startswith("-2.0,-2.0,")


def test_regions_rejects_bad_box(capsys):
    code, out, err = run(capsys, "regions", "kitchen_lamp.btm",
                         "--box", "0:1")
    assert code == 1
    assert "intervals" in err


# ---------------------------------------------------------- check-partition

def test_check_partition_kitchen(capsys):
    code, out, err = run(capsys, "check-partition", "kitchen_lamp.btm",
                         "--box=-2:2,-2:2", "--samples", "400", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert doc["report"]["samples_tested"] == 400
    assert doc["seed"] == 5


def test_check_partition_requires_seed(capsys):
    code, out, err = run(capsys, "check-partition", "kitchen_lamp.btm")
    assert code == 1


# ----------------------------------------------------------------- certify

@pytest.fixture(scope="module")
def pendulum_certify_argv():
    return ["certify", "pendulum.btm", "--inits", "grid", "--count", "25",
            "--seed", "7", "--dt", "0.004", "--t-end", "20"]


@pytest.fixture(scope="module")
def pendulum_certify_run(pendulum_certify_argv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cert") / "cert.json"
    code = main(pendulum_certify_argv + ["--output", str(out)])
    return code, out.read_text()


def test_certify_pendulum_grid(pendulum_certify_run):
    code, text = pendulum_certify_run
    assert code == 0
    doc = json.loads(text)
    cert = doc["certificate"]
    assert cert["passed"] is True
    assert cert["chain_length"] == 2
    assert cert["nodes"] == [1, 2]
    assert [(e["from"], e["to"]) for e in cert["edges"]] == [(1, 2)]
    assert cert["assessed"] == 25
    assert cert["lambda_violations"] == []
    assert doc["config"]["seed"] == 7
    assert doc["config"]["dt"] == 0.004
    assert len(doc["initial_states"]) == 25


def test_certify_rerun_is_byte_identical(pendulum_certify_run,
                                         pendulum_certify_argv, tmp_path):
    code, text = pendulum_certify_run
    out = tmp_path / "again.json"
    assert main(pendulum_certify_argv + ["--output", str(out)]) == code
    assert out.read_text() == text


def test_certify_thermostat_fails_with_exit_two(capsys):
    code, out, err = run(capsys, "certify", "thermostat.btm", "--inits",
                         "grid", "--count", "5", "--seed", "1",
                         "--box", "16:26", "--dt", "0.01", "--t-end", "5")
    assert code == 2
    doc = json.loads(out)
    assert doc["certificate"]["passed"] is False
    assert set(doc["certificate"]["cycle"]) == {3, 4}


def test_certify_random_inits_need_seed(capsys):
    code, out, err = run(capsys, "certify", "pendulum.btm",
                         "--inits", "random", "--count", "4")
    assert code == 1
    assert "--seed" in err


def test_certify_random_inits_run(capsys):
    code, out, err = run(capsys, "certify", "kitchen_lamp.btm",
                         "--inits", "random", "--count", "6", "--seed", "3",
                         "--box", "0:1.5,0:0.5", "--dt", "0.01",
                         "--t-end", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["assessed"] == 6
    assert len(doc["initial_states"]) == 6


def test_certify_grid_count_must_be_perfect_power(capsys):
    code, out, err = run(capsys, "certify", "pendulum.btm",
                         "--inits", "grid", "--count", "10", "--seed", "1")
    assert code == 1
    assert "perfect" in err


@pytest.mark.parametrize("count", ["0", "-4"])
def test_certify_count_below_one_is_a_usage_error(capsys, count):
    for inits in ("grid", "random"):
        code, out, err = run(capsys, "certify", "pendulum.btm", "--inits", inits,
                             "--count", count, "--seed", "1")
        assert (code, out) == (1, "")
        assert err == f"error: --count must be at least 1; got {count}\n"


@pytest.mark.parametrize("argv", [
    ["check-partition", "thermostat.btm", "--seed", "-1", "--box", "19:23"],
    ["certify", "pendulum.btm", "--inits", "random", "--count", "4", "--seed", "-3"],
    ["check-partition", "pendulum.btm", "--seed", "abc"],
], ids=["check-partition", "certify", "not-a-number"])
def test_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "argument --seed: seed must be a non-negative integer" in err
    assert "Traceback" not in err


def test_certify_exclude_ball(capsys):
    code, out, err = run(capsys, "certify", "kitchen_lamp.btm",
                         "--inits", "grid", "--count", "9", "--seed", "0",
                         "--box=-0.5:1.5,-0.5:1.5", "--dt", "0.01",
                         "--t-end", "6", "--exclude", "1.5,1.5:0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["excluded"] == 1
    assert doc["certificate"]["assessed"] == 8
    assert [1.5, 1.5] not in doc["initial_states"]


def test_certify_excluding_everything_is_an_error(capsys):
    code, out, err = run(capsys, "certify", "pendulum.btm",
                         "--inits", "grid", "--count", "4", "--seed", "0",
                         "--exclude", "0,0:50")
    assert code == 1
    assert "excluded" in err


# ------------------------------------------------------------------ parser

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["simulate", "pendulum.btm", "--x0", "0,0"],
    ["certify", "pendulum.btm"],
], ids=["simulate", "certify"])
def test_integration_flags_default_to_integrator_config(argv):
    assert cli._config(cli.build_parser().parse_args(argv)) == IntegratorConfig()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "certify" in out and "simulate" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ctbt.cli", "validate", "pendulum.btm"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "pendulum"
