import math
import re

import numpy as np
import pytest

from ctbt import dsl, executor
from ctbt.core import NonFiniteState, Status
from ctbt.dsl import (
    DivisionByZero,
    DuplicateDefinition,
    LexError,
    MissingRoot,
    ModelTypeError,
    NodeReusedInTree,
    ParseError,
    UnboundIdentifier,
    UndeclaredIdentifier,
)
from ctbt.executor import IntegratorConfig, integrate
from ctbt.regions import check_partition, uniform_points

from conftest import SETPOINT, SLIDE_HOLD, kitchen_bt, thermostat_bt


MINI = """\
model "mini" {
  state 1;
  control 1;
  plant { dx0 = u0; }
  leaf go { u = [1.0]; status = if x0 >= 1.0 then S else R; }
  root = go;
}
"""


def bundled(name):
    return (dsl.bundled_model_dir() / name).read_text()


# ---------------------------------------------------------------- tokenizer

def test_token_positions():
    toks = dsl.tokenize('model "m" {\n  state 2;\n}')
    assert (toks[0].kind, toks[0].line, toks[0].col) == ("KEYWORD", 1, 1)
    assert toks[1].kind == "STRING" and toks[1].text == "m" and toks[1].col == 7
    state = [t for t in toks if t.text == "state"][0]
    assert (state.line, state.col) == (2, 3)
    two = [t for t in toks if t.kind == "NUMBER"][0]
    assert (two.line, two.col, two.value) == (2, 9, 2.0)
    assert toks[-1].kind == "EOF"


def test_comments_and_operators():
    toks = dsl.tokenize("a <= b # c > d\ne >= -2.5e3")
    texts = [t.text for t in toks[:-1]]
    assert texts == ["a", "<=", "b", "e", ">=", "-", "2.5e3"]
    assert toks[-2].value == 2500.0


def test_lex_errors():
    with pytest.raises(LexError) as e:
        dsl.tokenize("state $;")
    assert (e.value.line, e.value.col) == (1, 7)
    with pytest.raises(LexError):
        dsl.tokenize("x = 3.;")
    with pytest.raises(LexError):
        dsl.tokenize("x = 1e;")
    # digits are ASCII: other numerals are unexpected characters
    for source, col in (("x = 2\u00b2;", 6), ("x = \u0663;", 5)):
        with pytest.raises(LexError, match="unexpected character") as e:
            dsl.tokenize(source)
        assert (e.value.line, e.value.col) == (1, col)


def test_number_out_of_range():
    src = MINI.replace("control 1;", "control 1;\n  const T = 1e400;")
    with pytest.raises(LexError, match="number out of range") as e:
        dsl.parse(src)
    assert (e.value.line, e.value.col) == (4, 13)
    # the largest literals stay in range and survive the canonical form
    m = dsl.parse(src.replace("1e400", "1e308"))
    assert dsl.parse(dsl.format_model(m)) == m


LEX_ALPHABET = [*"abxu_09.eE+-*/<>=(){}[],;\"# \t\r\n$", "<=", ">=", "model",
                "if", "2.5", "1e3", "1e400", "\u00b2", "\u0663", "\u00e9"]


LAYOUT = re.compile(r"(?:[ \t\r\n]|#[^\n]*\n)*")  # blanks, line ends, comments to a newline
LAST_COMMENT = re.compile(r"#[^\n]*")  # a comment that ends the source


def test_token_positions_point_at_their_text():
    """Every token's text starts at its line and column, only layout lies
    between tokens and after the last one, EOF sits just past the last
    line, and every lexer error lies inside the input."""
    rng = np.random.default_rng(2109)
    for _ in range(2000):
        source = "".join(rng.choice(LEX_ALPHABET, size=int(rng.integers(0, 30))))
        lines = source.split("\n")
        try:
            tokens = dsl.tokenize(source)
        except LexError as err:
            assert 1 <= err.line <= len(lines), source
            assert 1 <= err.col <= len(lines[err.line - 1]), source
            continue
        line_starts = [0, *(k + 1 for k, c in enumerate(source) if c == "\n")]
        end = 0  # offset just past the previous token
        for tok in tokens:
            line = lines[tok.line - 1]
            assert 1 <= tok.col <= len(line) + 1, (source, tok)
            text = f'"{tok.text}"' if tok.kind == "STRING" else tok.text
            assert line[tok.col - 1:].startswith(text), (source, tok)
            start = line_starts[tok.line - 1] + tok.col - 1
            gap = LAYOUT.match(source, end, start)
            last = tok.kind == "EOF" and LAST_COMMENT.fullmatch(source, gap.end(), start)
            assert gap.end() == start or last, (source, tok)
            end = start + len(text)
        assert tokens[-1][1:4] == ("", len(lines), len(lines[-1]) + 1), source


# ------------------------------------------------------------------ parsing

def test_parse_mini():
    m = dsl.parse(MINI)
    assert m.name == "mini"
    assert m.state_dim == 1 and m.control_dim == 1
    assert m.root == "go"
    assert m.plant == (("x0", dsl.Var("u0")),)
    leaf = m.nodes[0]
    assert leaf.name == "go"
    assert leaf.controls == (dsl.Num(1.0),)
    assert leaf.status == dsl.IfStatus(
        dsl.Compare(">=", dsl.Var("x0"), dsl.Num(1.0)),
        dsl.StatusLit(Status.SUCCESS), dsl.StatusLit(Status.RUNNING))


def test_parse_bundled_models():
    for name in ("thermostat.btm", "kitchen_lamp.btm", "pendulum.btm"):
        m = dsl.parse(bundled(name))
        assert m.root
        assert m.state_dim >= 1


def test_expression_precedence_and_positions():
    m = dsl.parse(MINI.replace("dx0 = u0;", "dx0 = 1.0 + u0 * 2.0 - x0 / 4.0;"))
    e = m.plant[0][1]
    assert e == dsl.Binary(
        "-",
        dsl.Binary("+", dsl.Num(1.0), dsl.Binary("*", dsl.Var("u0"), dsl.Num(2.0))),
        dsl.Binary("/", dsl.Var("x0"), dsl.Num(4.0)))
    # positions ride along but never affect equality
    assert e.pos != (0, 0)
    assert e == dsl.Binary("-", e.left, e.right)


def test_unary_minus_and_parens():
    m = dsl.parse(MINI.replace("dx0 = u0;", "dx0 = -(x0 + u0) * -2.0;"))
    e = m.plant[0][1]
    assert e == dsl.Binary(
        "*", dsl.Neg(dsl.Binary("+", dsl.Var("x0"), dsl.Var("u0"))),
        dsl.Neg(dsl.Num(2.0)))


def test_signed_const():
    m = dsl.parse(MINI.replace("control 1;", "control 1;\n  const c = -2.5;"))
    assert m.constants == (("c", -2.5),)


# ------------------------------------------------- malformed model fixtures

BAD = [
    # (source, error type, line, col)
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0 $ 1.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     LexError, 4, 21),
    ('model "m {\n  state 1;\n}', LexError, 1, 7),
    ('model "m" {\n  state 1\n  control 1;\n}', ParseError, 3, 3),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0; status = R; }\n  root = a;\n}',
     ParseError, 5, 20),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = x9; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     UndeclaredIdentifier, 4, 17),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  seq s = [a, ghost];\n  root = s;\n}',
     UndeclaredIdentifier, 6, 15),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [S]; status = R; }\n  root = a;\n}',
     ModelTypeError, 5, 17),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = x0; }\n  root = a;\n}',
     ModelTypeError, 5, 32),
    ('model "m" {\n  state 1;\n  control 1;\n  const k = 1.0;\n  const k = 2.0;\n'
     '  plant { dx0 = 0.0; }\n  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     DuplicateDefinition, 5, 9),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  leaf b { u = [0.0]; status = R; }\n'
     '  seq s = [a, b];\n  fal t = [s, a];\n  root = t;\n}',
     NodeReusedInTree, 8, 15),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n}',
     MissingRoot, 6, 1),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [u0]; status = R; }\n  root = a;\n}',
     UndeclaredIdentifier, 5, 17),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; dx0 = 1.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     DuplicateDefinition, 4, 22),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx5 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     UndeclaredIdentifier, 4, 11),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = if x0 then S else R; }\n  root = a;\n}',
     ModelTypeError, 5, 38),
    ('model "m" {\n  state 0;\n  control 1;\n}', ParseError, 2, 9),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = sat(x0); }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     ModelTypeError, 4, 17),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf seq { u = [0.0]; status = R; }\n  root = seq;\n}',
     ParseError, 5, 8),
    # the rows below are also tools/output_digest.py's PARSE_ERROR_CASES
    ('model "m" {\n  state 1;\n  control 1;\n  x0 = 1.0;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     ParseError, 4, 3),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  plant { dx0 = 1.0; }\n  root = a;\n}',
     DuplicateDefinition, 6, 3),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n  root = a;\n}',
     DuplicateDefinition, 7, 3),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n  status = R;\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     ParseError, 5, 3),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}\nroot = a;',
     ParseError, 8, 1),
    ('model "m" {\n  state 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     ParseError, 1, 7),
    ('model "m" {\n  state 1;\n  control 1;\n  state 2;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     DuplicateDefinition, 4, 3),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     ParseError, 4, 3),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf sin { u = [0.0]; status = R; }\n  root = sin;\n}',
     ParseError, 5, 8),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = 0.0; }\n'
     '  leaf a { u = [if x0 > 0.0 then S else R]; status = R; }\n  root = a;\n}',
     ModelTypeError, 5, 17),
    ('model "m" {\n  state 1;\n  control 1;\n  plant { dx0 = ; }\n'
     '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}',
     ParseError, 4, 17),
]


@pytest.mark.parametrize("source,err,line,col", BAD)
def test_malformed_models(source, err, line, col):
    with pytest.raises(err) as excinfo:
        dsl.parse(source)
    assert excinfo.value.line == line, str(excinfo.value)
    assert excinfo.value.col == col, str(excinfo.value)


@pytest.mark.parametrize("decl, col", [
    ("leaf x0 { u = [0.0]; status = R; }", 8),
    ("seq u0 = [go];", 7),
    ("const x0 = 1.0;", 9),
], ids=["leaf", "seq", "const"])
def test_names_colliding_with_model_variables(decl, col):
    src = MINI.replace("  root = go;", f"  {decl}\n  root = go;")
    with pytest.raises(DuplicateDefinition, match="collides with a model variable") as e:
        dsl.parse(src)
    assert (e.value.line, e.value.col) == (6, col)


def test_root_names_unknown_node():
    src = MINI.replace("root = go;", "root = nope;")
    with pytest.raises(UndeclaredIdentifier):
        dsl.parse(src)


def test_missing_dimensions():
    with pytest.raises(ParseError, match="state dimension"):
        dsl.parse('model "m" {\n  control 1;\n  plant { dx0 = 0.0; }\n'
                  '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}')


def test_missing_plant_equation():
    with pytest.raises(ParseError, match="dx1"):
        dsl.parse('model "m" {\n  state 2;\n  control 1;\n  plant { dx0 = 0.0; }\n'
                  '  leaf a { u = [0.0]; status = R; }\n  root = a;\n}')


# --------------------------------------------------------------- evaluation

def test_builtin_functions():
    env = {}
    def ev(src):
        m = dsl.parse(MINI.replace("dx0 = u0;", f"dx0 = {src};"))
        return dsl.evaluate_expr(m.plant[0][1], env)
    assert ev("sgn(0.0)") == 0.0
    assert ev("sgn(0.0 - 3.0)") == -1.0
    assert ev("sgn(2.5)") == 1.0
    assert ev("sat(3.0, 0.5)") == 0.5
    assert ev("sat(-3.0, 0.5)") == -0.5
    assert ev("sat(0.25, 0.5)") == 0.25
    assert ev("sqrt(9.0)") == 3.0
    assert ev("abs(-4.0)") == 4.0
    assert ev("sin(0.0) + cos(0.0)") == 1.0


def test_evaluate_expr_env_and_errors():
    src = MINI.replace("control 1;", "control 1;\n  const k = 9.0;") \
              .replace("dx0 = u0;", "dx0 = x0 * u0 + k;")
    e = dsl.parse(src).plant[0][1]
    assert dsl.evaluate_expr(e, {"x0": 2.0, "u0": 3.0, "k": 1.0}) == 7.0
    with pytest.raises(UnboundIdentifier):
        dsl.evaluate_expr(e, {"x0": 2.0, "u0": 3.0})
    div = dsl.parse(MINI.replace("dx0 = u0;", "dx0 = 1.0 / x0;")).plant[0][1]
    with pytest.raises(DivisionByZero):
        dsl.evaluate_expr(div, {"x0": 0.0})


def test_evaluate_status_expr():
    m = dsl.parse(MINI)
    s = m.nodes[0].status
    assert dsl.evaluate_expr(s, {"x0": 2.0}) is Status.SUCCESS
    assert dsl.evaluate_expr(s, {"x0": 0.0}) is Status.RUNNING


def test_constant_folding():
    m = dsl.parse(MINI.replace("control 1;", "control 1;\n  const k = 3.0;")
                      .replace("u = [1.0]", "u = [k * 2.0 + 1.0]"))
    # the stored AST keeps the symbolic form
    assert m.nodes[0].controls[0] == dsl.Binary(
        "+", dsl.Binary("*", dsl.Var("k"), dsl.Num(2.0)), dsl.Num(1.0))
    folded = dsl.fold_constants(m.nodes[0].controls[0], {"k": 3.0})
    assert folded == dsl.Num(7.0)
    lowered = dsl.lower(m)
    u, _ = lowered.bt.tick(np.array([0.0]))
    assert u == (7.0,)


def test_fold_division_by_zero():
    m = dsl.parse(MINI.replace("u = [1.0]", "u = [1.0 / 0.0]"))
    with pytest.raises(DivisionByZero):
        dsl.lower(m)


def test_runtime_division_by_zero():
    m = dsl.parse(MINI.replace("dx0 = u0;", "dx0 = 1.0 / x0;"))
    lowered = dsl.lower(m)
    with pytest.raises(DivisionByZero):
        lowered.plant.field(np.array([0.0]), (1.0,))


# ----------------------------------------------------------------- lowering

def test_lower_thermostat_matches_hand_built():
    lowered = dsl.load(dsl.bundled_model_dir() / "thermostat.btm")
    bt = lowered.bt
    hand = thermostat_bt()
    assert bt.kinds == hand.kinds == ("seq", "fal", "leaf", "leaf", "leaf")
    assert bt.leaf_ids == (2, 3, 4)
    assert bt.state_dim == 1
    for xv in np.linspace(SETPOINT - 5, SETPOINT + 5, 101):
        x = np.array([xv])
        assert bt.tick(x) == hand.tick(x)
        assert bt.active_leaf(x) == hand.active_leaf(x)
    # plant integrates the commanded rate
    assert lowered.plant.field(np.array([0.0]), (1.0,)) == pytest.approx([1.0])
    assert lowered.plant.field(np.array([0.0]), (-1.0,)) == pytest.approx([-1.0])


def test_lower_kitchen_matches_hand_built():
    lowered = dsl.load(dsl.bundled_model_dir() / "kitchen_lamp.btm")
    bt = lowered.bt
    hand = kitchen_bt()
    assert bt.kinds == hand.kinds == ("seq", "leaf", "fal", "leaf", "leaf")
    rng = np.random.default_rng(5)
    for x in rng.uniform(-2, 2, size=(200, 2)):
        assert bt.root_status(x) == hand.root_status(x)
        assert bt.active_leaf(x) == hand.active_leaf(x)


def test_lower_pendulum_field_and_labels():
    lowered = dsl.load(dsl.bundled_model_dir() / "pendulum.btm")
    bt, plant = lowered.bt, lowered.plant
    assert bt.kinds == ("seq", "leaf", "leaf")
    assert bt.behavior(1).label == "swing_up"
    assert bt.behavior(2).label == "balance"
    for th, w, u in ((0.3, -1.0, 0.2), (2.0, 0.5, -0.4), (-1.2, 0.0, 0.5)):
        f = plant.field(np.array([th, w]), (u,))
        assert f == pytest.approx([w, math.sin(th) - u * math.cos(th)])
    # swing-up control saturates at u_max and vanishes at zero rate
    u, _ = bt.tick(np.array([math.pi - 0.2, 0.0]))
    assert u == (0.0,)
    u, _ = bt.tick(np.array([math.pi / 2, 2.0]))
    assert abs(u[0]) <= 0.5 + 1e-12
    # balance active inside the eps_a ball
    assert bt.active_leaf(np.array([0.1, 0.0])) == 2
    assert bt.active_leaf(np.array([2.0, 0.0])) == 1


def test_lower_ids_are_depth_first():
    src = '''model "nest" {
  state 1;
  control 1;
  plant { dx0 = u0; }
  leaf a { u = [0.0]; status = R; }
  leaf b { u = [0.0]; status = R; }
  leaf c { u = [0.0]; status = R; }
  fal inner = [b, c];
  seq outer = [a, inner];
  root = outer;
}
'''
    bt = dsl.lower(dsl.parse(src)).bt
    assert bt.kinds == ("seq", "leaf", "fal", "leaf", "leaf")
    assert bt.behavior(1).label == "a"
    assert bt.behavior(3).label == "b"
    assert bt.behavior(4).label == "c"


DEEP = "x0"
for _ in range(230):
    DEEP = f"x0 - ({DEEP})"

LATE_ERRORS = [
    # (source, line, col): errors found once the model body has been read,
    # by validation, folding, lowering or compiling
    (MINI.replace("control 1;", "control 1;\n  const x0 = 1.0;"), 4, 9),
    (MINI.replace("  plant { dx0 = u0; }\n", ""), 6, 1),
    (MINI.replace("state 1;", "state 2;"), 4, 3),
    (MINI.replace("control 1;", "control 2;").replace("dx0 = u0;", "dx0 = u0 + u1;"),
     5, 8),
    (MINI.replace("u = [1.0]", "u = [sqrt(0.0 - 1.0)]"), 5, 18),
    (MINI.replace("u = [1.0]", f"u = [{DEEP}]"), 5, 21),
]


@pytest.mark.parametrize("source,line,col", LATE_ERRORS,
                         ids=["const-collision", "no-plant", "missing-derivative",
                              "control-count", "constant-domain", "deep-nesting"])
def test_every_model_error_has_a_position(source, line, col):
    with pytest.raises(dsl.ModelError) as e:
        dsl.lower(dsl.parse(source))
    assert (e.value.line, e.value.col) == (line, col), str(e.value)


def test_lower_control_dimension_checked():
    src = MINI.replace("u = [1.0]", "u = [1.0, 2.0]")
    from ctbt.core import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        dsl.lower(dsl.parse(src))


# ----------------------------------------------------------- generated code

def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _outcome(fn, *args):
    """Result of fn, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as err:
        return (type(err).__name__, str(err))


def _random_expr(rng, names, depth):
    """Random real-expression source over names, using every operator."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return str(rng.choice(names))
        return repr(round(float(rng.uniform(0.1, 3.0)), 3))
    kind = int(rng.integers(7))
    a = _random_expr(rng, names, depth - 1)
    b = _random_expr(rng, names, depth - 1)
    if kind < 4:
        return f"({a} {'+-*/'[kind]} {b})"
    if kind == 4:
        return f"-{a}"
    if kind == 5:
        return f"{rng.choice(['sin', 'cos', 'sqrt', 'abs', 'sgn'])}({a})"
    return f"sat({a}, {b})"


def random_expression_btm(rng, n_leaves: int) -> str:
    """A two-state model whose plant, controls and statuses are random
    expressions; the leaves hang off a Fallback under a Sequence."""
    names = ["x0", "x1", "k", "m"]
    leaves = []
    for i in range(n_leaves):
        s0, s1, s2 = (str(v) for v in rng.permutation(["R", "S", "F"]))
        leaves.append(
            f"  leaf l{i} {{ u = [{_random_expr(rng, names, 3)}, "
            f"{_random_expr(rng, names, 3)}]; "
            f"status = if {_random_expr(rng, names, 2)} < -0.5 then {s0} "
            f"else if {_random_expr(rng, names, 2)} >= 0.5 then {s1} else {s2}; }}")
    plant_names = names + ["u0", "u1"]
    kids = ", ".join(f"l{i}" for i in range(1, n_leaves))
    return "\n".join([
        'model "random" {', "  state 2;", "  control 2;",
        "  const k = 1.5;", "  const m = -0.75;",
        f"  plant {{ dx0 = {_random_expr(rng, plant_names, 3)}; "
        f"dx1 = {_random_expr(rng, plant_names, 3)}; }}",
        *leaves,
        f"  fal rest = [{kids}];", "  seq top = [l0, rest];", "  root = top;", "}", ""])


def slab_tree_btm(rng, n_leaves: int) -> str:
    """A random Sequence/Fallback tree of three-slab leaves, as .btm text."""
    leaves, composites = [], []

    def build(n):
        if n == 1:
            name = f"l{len(leaves)}"
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            a0, a1 = math.cos(theta), math.sin(theta)
            b1, b2 = sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=2))
            s0, s1, s2 = (str(v) for v in rng.permutation(["R", "S", "F"]))
            proj = f"{a0!r} * x0 {'+' if a1 >= 0 else '-'} {abs(a1)!r} * x1"
            leaves.append(f"  leaf {name} {{ u = [{a0!r}]; status = if {proj} < {b1!r} "
                          f"then {s0} else if {proj} < {b2!r} then {s1} else {s2}; }}")
            return name
        k = int(rng.integers(2, min(4, n) + 1))
        cuts = sorted(int(v) for v in rng.choice(np.arange(1, n), size=k - 1, replace=False))
        kids = [build(b - a) for a, b in zip([0, *cuts], [*cuts, n])]
        name = f"n{len(composites)}"
        kind = "seq" if rng.random() < 0.5 else "fal"
        composites.append(f"  {kind} {name} = [{', '.join(kids)}];")
        return name

    root = build(n_leaves)
    return "\n".join(['model "slabs" {', "  state 2;", "  control 1;",
                      "  plant { dx0 = u0; dx1 = 0.0; }", *leaves, *composites,
                      f"  root = {root};", "}", ""])


# subexpressions repeated on purpose: trig calls of one argument, a
# projection again in a status else branch, a repeated division whose
# divisor is 0 past x0 = 2, sqrt of a value that can be negative twice, a
# value computed in both branches of a status conditional; and sgn at
# +-0.0 and nan, sat at +-L, at +-0.0, with a limit that is not a constant,
# with a nan limit and with both operands raising
REPEATS = """\
model "repeats" {
  state 2;
  control 3;
  const L = 0.75;
  const big = 1e308;
  plant {
    dx0 = u0 * cos(x1) + sin(x0) * cos(x1) + u2;
    dx1 = u1 - sin(x0) * cos(x1) + sqrt(x0 * x1 + 4.0) * sqrt(x0 * x1 + 4.0);
  }
  leaf pick {
    u = [sat(x0, abs(x0)) + sat(-abs(x1), abs(x1)),
         sat(x1 * cos(x0), x0 - 0.5) + sat(x1 * cos(x0), L) - x1 * cos(x0),
         sat(x0 * 0.0, x1 * 0.0)];
    status = if 0.6 * x0 - 0.8 * x1 < -0.5
             then if x0 > -2.5 then S else if sat(sqrt(x1), 1.0 / (x0 - x0)) < 0.0 then S else F
             else if 0.6 * x0 - 0.8 * x1 < 0.5 then R else F;
  }
  leaf split {
    u = [x1 / (1.0 - sgn(x0 - 2.0)) + x1 / (1.0 - sgn(x0 - 2.0)),
         cos(x0) * cos(x0) + sgn(x0 * (big * 10.0 - big * 10.0))
           + sat(x1, x0 * (big * 10.0 - big * 10.0)),
         sgn(x0 * 0.0) * sgn(-(x1 * 0.0))];
    status = if x0 < 0.0 then if cos(x1) > 0.5 then S else F
             else if cos(x1) < 0.0 then R
             else if sat(x0 * (big * 10.0 - big * 10.0), L) < 0.0 then S else F;
  }
  fal both = [pick, split];
  root = both;
}
"""


def _equivalence_corpus():
    rng = np.random.default_rng(2109)
    corpus = [bundled(n) for n in ("thermostat.btm", "kitchen_lamp.btm", "pendulum.btm")]
    corpus += [slab_tree_btm(rng, n) for n in (3, 8, 20)]
    for n in (2, 4, 6):
        # folding rejects some draws, such as sqrt of a negative constant
        while True:
            text = random_expression_btm(rng, n)
            try:
                dsl.lower(dsl.parse(text))
            except ValueError:
                continue
            corpus.append(text)
            break
    return corpus + [REPEATS]


@pytest.mark.parametrize("index", range(10))
def test_generated_code_matches_interpreter(index):
    """Plant field, every controller and every status agree bit for bit
    with evaluate_expr on 200 seeded states, errors included."""
    m = dsl.parse(_equivalence_corpus()[index])
    lowered = dsl.lower(m)
    decls = {d.name: d for d in m.nodes}
    consts = dict(m.constants)
    rng = np.random.default_rng(index)
    states = rng.uniform(-3.0, 3.0, size=(200, m.state_dim))
    controls = rng.uniform(-2.0, 2.0, size=(200, m.control_dim))
    for x, u in zip(states, controls):
        env = {**consts, **{f"x{k}": v for k, v in enumerate(x)}}
        u = tuple(float(v) for v in u)
        full = {**env, **{f"u{k}": v for k, v in enumerate(u)}}
        got = _outcome(lowered.plant.field, x, u)
        want = _outcome(lambda: [dsl.evaluate_expr(e, full) for _, e in m.plant])
        if isinstance(want, tuple):
            assert got == want
        else:
            assert _bits(got) == _bits(want)
        for i in lowered.bt.leaf_ids:
            behavior = lowered.bt.behavior(i)
            decl = decls[behavior.label]
            got = _outcome(behavior.controller, x)
            want = _outcome(lambda: tuple(dsl.evaluate_expr(e, env) for e in decl.controls))
            if isinstance(want[0], str):
                assert got == want
            else:
                assert isinstance(got, tuple) and _bits(got) == _bits(want)
            assert (_outcome(behavior.metadata, x)
                    == _outcome(dsl.evaluate_expr, decl.status, env))


def test_generated_code_accepts_plain_sequences():
    lowered = dsl.load(dsl.bundled_model_dir() / "pendulum.btm")
    x = np.array([0.7, -1.3])
    for i in lowered.bt.leaf_ids:
        b = lowered.bt.behavior(i)
        assert b.controller(x) == b.controller([0.7, -1.3]) == b.controller((0.7, -1.3))
        assert b.metadata(x) is b.metadata([0.7, -1.3])
    assert _bits(lowered.plant.field(x, (0.2,))) == _bits(lowered.plant.field([0.7, -1.3], [0.2]))


# grid steps, bisection probes down to below the default event_tol, and a
# step so long that some random models overflow or leave a domain
STEP_SIZES = (0.004, 0.001, 0.5, 1e-6, 0.004 * 2.0 ** -13, 3e-9)


def _fused_step(lowered, leaf):
    plant = lowered.plant
    return plant.steps.get((plant.field, lowered.bt.behavior(leaf).controller))


def _slide_routes(lowered, a, b, guard):
    """The generated slide step of the pair (a, b) on guard, and the Python
    route, executor._guarded_slide over the _rk4 blend, as a slide calls
    them: slide(x, h, t, tol)."""
    plant, bt = lowered.plant, lowered.bt
    ca, cb = bt.behavior(a).controller, bt.behavior(b).controller
    return (plant.steps.get((plant.field, ca, cb, guard)),
            executor._guarded_slide(plant.field, ca, cb, guard))


def _slide_outcome(fn, *args):
    """_outcome, with the executor's errors also taken as type and text."""
    try:
        return _outcome(fn, *args)
    except (executor.ExecutionError, NonFiniteState) as err:
        return (type(err).__name__, str(err))


def _same_outcome(got, want) -> bool:
    if want and isinstance(want[0], str):  # an error's type and text
        return got == want
    return isinstance(got, tuple) and _bits(got) == _bits(want)


@pytest.mark.parametrize("index", range(11))
def test_fused_step_matches_rk4_over_field_and_controller(index):
    """Every leaf's generated step equals _rk4 over field(y, controller(y))
    bit for bit, errors included, on the bundled models, the slab trees of
    the region audit, random expression models, REPEATS and slide_hold."""
    from ctbt.executor import _rk4

    lowered = dsl.lower(dsl.parse([*_equivalence_corpus(), SLIDE_HOLD][index]))
    field = lowered.plant.field
    rng = np.random.default_rng(300 + index)
    states = [tuple(x) for x in rng.uniform(-3.0, 3.0, size=(60, lowered.bt.state_dim)).tolist()]
    for leaf in lowered.bt.leaf_ids:
        controller = lowered.bt.behavior(leaf).controller
        step = _fused_step(lowered, leaf)
        for x in states:
            for h in STEP_SIZES:
                want = _outcome(_rk4, lambda y: field(y, controller(y)), x, h)
                assert _same_outcome(_outcome(step, x, h), want), (leaf, x, h)


DIVIDING = """\
model "dividing" {
  state 2;
  control 2;
  const L = 0.75;
  plant {
    dx0 = u0 / (x0 - 2.0) + abs(u1);
    dx1 = 1.0 + sgn(x0) * sat(u1, L);
  }
  leaf only {
    u = [x0 / (x1 - 1.0), sat(x0 - x1, L) * abs(x1)];
    status = R;
  }
  root = only;
}
"""


def test_fused_step_raises_the_division_error_of_the_generic_step():
    """A zero divisor in the controller or the field, at the first stage or
    a later one, raises the same DivisionByZero with the same position on
    both paths."""
    from ctbt.executor import _rk4

    lowered = dsl.lower(dsl.parse(DIVIDING))
    field, controller = lowered.plant.field, lowered.bt.behavior(0).controller
    step = _fused_step(lowered, 0)
    cases = [
        ((0.3, 1.0), 0.01, "x0 / (x1"),   # controller, stage 1
        ((2.0, 0.0), 0.01, "u0 / (x0"),   # field, stage 1
        ((0.0, 0.0), 2.0, "x0 / (x1"),    # controller, stage 2: y1 = 0 + 1.0 * 1.0
    ]
    for x, h, needle in cases:
        raised = []
        for run in (lambda: step(x, h),
                    lambda: _rk4(lambda y: field(y, controller(y)), x, h)):
            with pytest.raises(DivisionByZero) as e:
                run()
            raised.append((str(e.value), e.value.line, e.value.col))
        assert raised[0] == raised[1]
        assert raised[0][1:] == _slash_position(DIVIDING, needle)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-3.0, 3.0, size=(200, 2)).tolist():
        x = tuple(x)
        want = _outcome(_rk4, lambda y: field(y, controller(y)), x, 0.01)
        assert _same_outcome(_outcome(step, x, 0.01), want)


@pytest.mark.parametrize("index", range(11))
def test_slide_step_matches_the_python_route(index):
    """Every ordered leaf pair's generated slide step, on one of the tree's
    guards in turn, equals the Python route bit for bit, a weight that lets
    go (None) and errors included, on the corpus of the fused step, at
    seeded states, the step sizes of the fused step and two tolerances."""
    lowered = dsl.lower(dsl.parse([*_equivalence_corpus(), SLIDE_HOLD][index]))
    bt = lowered.bt
    guards = [g for i in bt.leaf_ids for g in bt.behavior(i).guards]
    rng = np.random.default_rng(400 + index)
    pairs = [(a, b) for a in bt.leaf_ids for b in bt.leaf_ids if a != b]
    for k, (a, b) in enumerate(pairs):
        generated, python = _slide_routes(lowered, a, b, guards[k % len(guards)])
        for x in rng.uniform(-3.0, 3.0, size=(4, bt.state_dim)).tolist():
            x = tuple(x)
            for h in STEP_SIZES:
                for tol in (1e-6, 1e-12):
                    want = _slide_outcome(python, x, h, 1.5, tol)
                    got = _slide_outcome(generated, x, h, 1.5, tol)
                    assert (got is want is None
                            or want is not None and _same_outcome(got, want)), (a, b, x, h)


DIVIDING_PAIR = DIVIDING.replace("status = R;\n  }\n  root = only;", """\
status = if x0 > 0.0 then S else F;
  }
  leaf other {
    u = [x1 / (x0 * x1 + 1.0), x0];
    status = R;
  }
  fal both = [only, other];
  root = both;""")


def test_slide_step_raises_the_division_error_of_the_python_route():
    """Where a's controller, a's field or b's controller is the first of
    several parts to divide by zero, at the fields at x or at a later
    stage of the blend, both routes raise its DivisionByZero, with the
    same position."""
    lowered = dsl.lower(dsl.parse(DIVIDING_PAIR))
    a, b = lowered.bt.leaf_ids
    (guard,) = lowered.bt.behavior(a).guards  # g = x0
    generated, python = _slide_routes(lowered, a, b, guard)
    cases = [
        ((-1.0, 1.0), 0.01, "x0 / (x1"),  # a's controller, then b's, stage 1
        ((2.0, 1.0), 0.01, "x0 / (x1"),   # a's controller, then the field
        ((2.0, -0.5), 0.01, "u0 / (x0"),  # a's field, then b's controller
        ((0.5, -2.0), 0.01, "x1 / (x0"),  # b's controller alone
        ((1.29, -2.5), 4.0, "x0 / (x1"),  # a's controller, past the fields at x
    ]
    for x, h, needle in cases:
        raised = []
        for run in (lambda: generated(x, h, 1.5, 1e-6), lambda: python(x, h, 1.5, 1e-6)):
            with pytest.raises(DivisionByZero) as e:
                run()
            raised.append((str(e.value), e.value.line, e.value.col))
        assert raised[0] == raised[1]
        assert raised[0][1:] == _slash_position(DIVIDING_PAIR, needle)


def test_steps_are_compiled_on_first_use_by_a_run(monkeypatch):
    """lower builds no step, no slide step and no guard; a run builds the
    steps of the leaves it integrates, and the chatter check that enters
    its slide builds the slide step of the pair on its guard, once each; a
    rerun builds none.  A pair's blend alone, (field, ca, cb), is no key."""
    built = {"step": [], "slide": [], "guard": []}
    entries = []  # (slide steps built before, after) of each chatter check that enters
    chatter_check = executor._Integrator.chatter_check
    for kind in built:
        function = getattr(dsl, f"_{kind}_function")
        monkeypatch.setattr(dsl, f"_{kind}_function", lambda *args, kind=kind, f=function:
                            built[kind].append(args) or f(*args))

    def watched(self, *args):
        before = len(built["slide"])
        entered = chatter_check(self, *args)
        if entered:
            entries.append((before, len(built["slide"])))
        return entered

    monkeypatch.setattr(executor._Integrator, "chatter_check", watched)
    lowered = dsl.lower(dsl.parse(slab_tree_btm(np.random.default_rng(43), 44)))
    assert len(lowered.bt.leaf_ids) == 44
    assert not any(built.values())
    cfg = IntegratorConfig(dt=0.01, t_end=3.0)
    traj = integrate(lowered.plant, lowered.bt, (1.5, -0.4), cfg)
    visited = {s.leaf for s in traj.samples}
    (enter,) = traj.events_of("SlideEnter")
    assert len(visited) == 3 and len(built["step"]) == 3
    assert entries == [(0, 1)]
    steps, field = lowered.plant.steps, lowered.plant.field
    ca, cb = (lowered.bt.behavior(i).controller for i in enter.info["pair"])
    (key,) = [k for k in steps.compiled if len(k) == 4]
    assert key[:3] == (field, ca, cb)
    for leaf in visited:  # fetching a visited leaf's step builds nothing
        _fused_step(lowered, leaf)
    steps.get(key)
    assert steps.get((field, ca, cb)) is None
    assert (len(built["step"]), len(built["slide"])) == (3, 1)
    integrate(lowered.plant, lowered.bt, (1.5, -0.4), cfg)
    assert (len(built["step"]), len(built["slide"])) == (3, 1)


def test_guards_are_compiled_at_the_first_slide_entry(monkeypatch):
    """A slide_hold run compiles the guards it reads inside the chatter
    check that enters its first slide; a rerun compiles none."""
    built, checks = [], []  # checks: (guards built before, after, entered)
    guard_function, chatter_check = dsl._guard_function, executor._Integrator.chatter_check

    def watched(self, *args):
        before = len(built)
        entered = chatter_check(self, *args)
        checks.append((before, len(built), entered))
        return entered

    monkeypatch.setattr(dsl, "_guard_function",
                        lambda *args: built.append(args) or guard_function(*args))
    monkeypatch.setattr(executor._Integrator, "chatter_check", watched)
    lowered = dsl.lower(dsl.parse(SLIDE_HOLD))
    assert built == []
    cfg = IntegratorConfig(dt=0.01, t_end=16.0)
    integrate(lowered.plant, lowered.bt, (-1.0, -1.2), cfg)
    first = next(k for k, check in enumerate(checks) if check[2])
    assert all(after == 0 for _, after, _ in checks[:first])
    assert checks[first][:2] == (0, 2)  # at_goal's and above's comparisons
    assert len(built) == 2
    integrate(lowered.plant, lowered.bt, (-1.0, -1.2), cfg)
    assert len(built) == 2


def test_each_distinct_source_compiles_once_per_model(monkeypatch):
    """Numbers are bound by name, one name per value, so slide_hold's 9
    eager functions (field, 4 controllers, 4 statuses) have 6 distinct
    sources and lower compiles 6 times: the controllers (0.0, 0.0) read one
    name twice, (1.0, 0.4) and (-1.0, 0.4) two names.  Every generated
    function has its own code object, and a second lower of the same text
    compiles again: the table lives with one model."""
    compiled = []

    def counting(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(dsl, "compile", counting, raising=False)
    lowered = dsl.lower(dsl.parse(SLIDE_HOLD))
    assert len(compiled) == len(set(compiled)) == 6
    bt, leaves = lowered.bt, lowered.bt.leaf_ids
    functions = [lowered.plant.field, *(bt.behavior(i).controller for i in leaves),
                 *(bt.behavior(i).metadata for i in leaves)]
    assert len(functions) == 9
    functions += [_fused_step(lowered, i) for i in leaves]
    guards = [g for i in leaves for g in bt.behavior(i).guards]
    functions += guards
    functions += [_slide_routes(lowered, a, b, g)[0]
                  for a in leaves for b in leaves if a != b for g in guards]
    # two leaf steps, as for the controllers; two guards; seven slide
    # steps per guard, one per ordered pair of control texts, where
    # at_goal's and above's (0.0, 0.0) are one text
    assert len(compiled) == len(set(compiled)) == 24
    assert len({id(f.__code__) for f in functions}) == len(functions) == 39
    dsl.lower(dsl.parse(SLIDE_HOLD))
    assert len(compiled) == 30 and compiled[24:] == compiled[:6]


def _expr(text: str):
    return dsl._Parser(dsl.tokenize(text)).expr()


def test_derivative_rules_drop_zero_and_one_terms():
    def d(text, var="x0"):
        return dsl.format_expr(dsl.derivative(_expr(text), var))

    assert d("3.0 * x0 + x1 * x1") == "3.0"
    assert d("sin(x1) - 2.0 / x1") == "0.0"
    assert d("sgn(x0) + abs(x0)") == "sgn(x0)"
    assert d("sin(x0 * x0)") == "cos(x0 * x0) * (x0 + x0)"
    assert d("-cos(x0)") == "--sin(x0)"
    assert d("sqrt(x0)") == "1.0 / (2.0 * sqrt(x0))"
    assert d("1.0 / x0") == "-1.0 / (x0 * x0)"
    assert d("x1 / x0") == "-x1 / (x0 * x0)"
    assert d("sat(2.0 * x0, 1.5)") == "dsat(2.0 * x0, 1.5, 2.0, 0.0)"
    slope = dsl.derivative(_expr("sat(2.0 * x0, x1)"), "x1")
    assert [dsl.evaluate_expr(slope, {"x0": x0, "x1": 1.5})
            for x0 in (-1.0, 0.5, 1.0)] == [-1.0, 0.0, 1.0]


def test_guards_collect_nested_branches():
    text = SLIDE_HOLD.replace(
        "status = if x1 >= goal then S else F;",
        "status = if x1 >= goal then if x0 < 1.0 then S else F "
        "else if x0 * x1 > 2.0 then R else F;")
    lowered = dsl.lower(dsl.parse(text))
    at_goal = next(i for i in lowered.bt.leaf_ids if lowered.bt.behavior(i).label == "at_goal")
    guards = list(lowered.bt.behavior(at_goal).guards)
    assert [guard((0.5, 3.0)) for guard in guards] == [
        (1.0, (0.0, 1.0)), (-0.5, (1.0, 0.0)), (-0.5, (3.0, 0.5))]


def _kink_distances(e, env) -> list:
    """How far each kink of e is at env: the arguments of abs, sgn and
    sqrt and every divisor from 0, a sat argument from +-its limit."""
    out, stack = [], [e]
    while stack:
        e = stack.pop()
        if isinstance(e, dsl.Call):
            v = dsl.evaluate_expr(e.args[0], env)
            if e.func == "sat":
                limit = dsl.evaluate_expr(e.args[1], env)
                out += [abs(v - limit), abs(v + limit)]
            elif e.func not in ("sin", "cos"):
                out.append(abs(v))
            stack += e.args
        elif isinstance(e, dsl.Binary):
            if e.op == "/":
                out.append(abs(dsl.evaluate_expr(e.right, env)))
            stack += (e.left, e.right)
        elif isinstance(e, dsl.Neg):
            stack.append(e.operand)
    return out


def derivative_model_btm(rng) -> str:
    """A two-state model with one leaf per derivative rule, whose status
    compares sin, cos, sqrt, a quotient, abs or sat of random expressions."""
    def e():
        return _random_expr(rng, ["x0", "x1", "k"], 3)

    while True:  # folding rejects some draws, such as sqrt of a negative constant
        tests = [f"sin({e()})", f"cos({e()})", f"sqrt({e()} * {e()} + 0.25)",
                 f"{e()} / {e()}", f"abs({e()})", f"sat({e()}, {e()})"]
        leaves = [f"  leaf l{i} {{ u = [0.0, 0.0]; status = if {t} < 0.5 then S else F; }}"
                  for i, t in enumerate(tests)]
        text = "\n".join([
            'model "derivatives" {', "  state 2;", "  control 2;", "  const k = 1.5;",
            "  plant { dx0 = u0; dx1 = u1; }", *leaves,
            "  fal rest = [l1, l2, l3, l4, l5];", "  seq top = [l0, rest];", "  root = top;",
            "}", ""])
        try:
            dsl.lower(dsl.parse(text))
        except ValueError:
            continue
        return text


@pytest.mark.parametrize("index", range(13))
def test_guards_give_each_comparison_and_its_gradient(index):
    """Every comparison of a leaf status is a guard: g = left - right and
    its gradient agree bit for bit with evaluate_expr over derivative,
    errors included, and the gradient with central finite differences away
    from kinks, on the bundled models, the slab trees of the region audit,
    random expression models, REPEATS, slide_hold and two models with one
    leaf per derivative rule."""
    rng = np.random.default_rng(700 + index)
    m = dsl.parse([*_equivalence_corpus(), SLIDE_HOLD, derivative_model_btm(rng),
                   derivative_model_btm(rng)][index])
    lowered = dsl.lower(m)
    decls = {d.name: d for d in m.nodes}
    consts = dict(m.constants)
    names = [f"x{k}" for k in range(m.state_dim)]
    states = np.random.default_rng(500 + index).uniform(-3.0, 3.0, size=(100, m.state_dim))
    h = 1e-6
    differenced = 0
    for i in lowered.bt.leaf_ids:
        behavior = lowered.bt.behavior(i)
        folded = dsl.fold_constants(decls[behavior.label].status, consts)
        comparisons = dsl._comparisons(folded)
        guards = list(behavior.guards)
        assert len(guards) == len(comparisons)
        for c, guard in zip(comparisons, guards):
            g = dsl.Binary("-", c.left, c.right)
            grad = [dsl.derivative(g, name) for name in names]
            for x in states.tolist():
                env = dict(zip(names, x))
                got = _outcome(guard, tuple(x))
                want = _outcome(lambda: (dsl.evaluate_expr(g, env),
                                         tuple(dsl.evaluate_expr(d, env) for d in grad)))
                if isinstance(want[0], str):
                    assert got == want
                    continue
                # g's zero may differ in sign: left - right against -right
                assert _bits((got[0] + 0.0, *got[1])) == _bits((want[0] + 0.0, *want[1]))
                if min(_kink_distances(g, env), default=1.0) < 1e-2 or not all(
                        map(math.isfinite, (got[0], *got[1]))):
                    continue
                for k, slope in enumerate(got[1]):
                    up, down = list(x), list(x)
                    up[k] += h
                    down[k] -= h
                    fd = (guard(tuple(up))[0] - guard(tuple(down))[0]) / (2.0 * h)
                    assert fd == pytest.approx(slope, rel=1e-4, abs=1e-7 * (1.0 + abs(got[0])))
                differenced += 1
    assert differenced >= 100


def _slash_position(source: str, needle: str):
    """(line, column) of the '/' inside the first occurrence of needle."""
    for line_no, line in enumerate(source.splitlines(), start=1):
        if needle in line:
            return line_no, line.index(needle) + needle.index("/") + 1
    raise AssertionError(f"{needle!r} not in source")


def test_runtime_division_by_zero_names_the_operator():
    src = MINI.replace("dx0 = u0;", "dx0 = u0 + 1.0 / x0;") \
              .replace("u = [1.0]", "u = [2.0 * (x0 + 1.0) / (x0 - 1.0)]") \
              .replace("if x0 >= 1.0", "if 1.0 / (x0 + 2.0) >= 1.0")
    lowered = dsl.lower(dsl.parse(src))
    behavior = lowered.bt.behavior(0)
    cases = [
        (lambda: lowered.plant.field(np.array([0.0]), (1.0,)), "1.0 / x0"),
        (lambda: behavior.controller(np.array([1.0])), ") / (x0 - 1.0)"),
        (lambda: behavior.metadata(np.array([-2.0])), "1.0 / (x0 + 2.0)"),
    ]
    for call, needle in cases:
        with pytest.raises(DivisionByZero) as e:
            call()
        assert (e.value.line, e.value.col) == _slash_position(src, needle)
    # a literal zero divisor lowers, and raises with its position when evaluated
    src = MINI.replace("dx0 = u0;", "dx0 = x0 / 0.0;")
    lowered = dsl.lower(dsl.parse(src))
    with pytest.raises(DivisionByZero) as e:
        lowered.plant.field(np.array([3.0]), (1.0,))
    assert (e.value.line, e.value.col) == _slash_position(src, "x0 / 0.0")


def test_divisor_is_tested_before_the_dividend_runs():
    src = MINI.replace("dx0 = u0;", "dx0 = sqrt(x0) / (x0 + 1.0);")
    field = dsl.lower(dsl.parse(src)).plant.field
    with pytest.raises(DivisionByZero):
        field(np.array([-1.0]), (0.0,))
    with pytest.raises(ValueError, match="math domain"):
        field(np.array([-2.0]), (0.0,))


def test_non_finite_folded_constants():
    src = MINI.replace("control 1;", "control 3;\n  const big = 1e308;\n  const z = -0.0;") \
              .replace("dx0 = u0;", "dx0 = u0 + big * 10.0 * x0;") \
              .replace("u = [1.0]", "u = [big * 10.0, big * 10.0 - big * 10.0, z]") \
              .replace("if x0 >= 1.0", "if x0 >= -(big * 10.0)")
    lowered = dsl.lower(dsl.parse(src))
    behavior = lowered.bt.behavior(0)
    u = behavior.controller(np.array([1.0]))
    assert u[0] == math.inf
    assert math.isnan(u[1])
    assert u[2] == 0.0 and math.copysign(1.0, u[2]) == -1.0
    assert behavior.metadata(np.array([-1e300])) is Status.SUCCESS
    assert lowered.plant.field(np.array([2.0]), (1.0, 0.0, 0.0))[0] == math.inf


def test_sgn_sat_abs_through_lower():
    src = MINI.replace("control 1;", "control 3;") \
              .replace("dx0 = u0;", "dx0 = u0 + u1 + u2;") \
              .replace("u = [1.0]", "u = [sgn(x0), sat(x0, 0.5), abs(x0)]") \
              .replace("if x0 >= 1.0", "if sat(abs(x0), 1.0) * sgn(x0) >= 1.0")
    behavior = dsl.lower(dsl.parse(src)).bt.behavior(0)
    table = {
        -2.0: ((-1.0, -0.5, 2.0), Status.RUNNING),
        -0.25: ((-1.0, -0.25, 0.25), Status.RUNNING),
        0.0: ((0.0, 0.0, 0.0), Status.RUNNING),
        0.25: ((1.0, 0.25, 0.25), Status.RUNNING),
        3.0: ((1.0, 0.5, 3.0), Status.SUCCESS),
    }
    for xv, (u, status) in table.items():
        assert behavior.controller(np.array([xv])) == u
        assert behavior.metadata(np.array([xv])) is status


def test_long_chains_compile_and_deep_nesting_is_a_model_error():
    chain = " + ".join(["x0"] * 600)
    lowered = dsl.lower(dsl.parse(MINI.replace("u = [1.0]", f"u = [{chain}]")))
    assert lowered.bt.behavior(0).controller(np.array([0.5])) == (300.0,)
    nested = "sin(" * 230 + "x0" + ")" * 230
    with pytest.raises(ModelTypeError, match="nests too deeply"):
        dsl.lower(dsl.parse(MINI.replace("u = [1.0]", f"u = [{nested}]")))


DEEP_OK = {  # name: (expression, its value at x0 = 0.5)
    "220 parentheses": ("(" * 220 + "x0" + ")" * 220, 0.5),
    "400 unary minuses": ("-" * 400 + "x0", 0.5),
    "900-term chain": (" + ".join(["x0"] * 900), 450.0),
}
DEEP_BAD = {
    "300 parentheses": "(" * 300 + "x0" + ")" * 300,
    "1000 unary minuses": "-" * 1000 + "x0",
    "1200-term chain": " + ".join(["x0"] * 1200),
    "1200-term chain in a status": "if " + " + ".join(["x0"] * 1200) + " > 0.0 then S else R",
}


def _deep(expr: str) -> str:
    if expr.startswith("if "):
        return MINI.replace("if x0 >= 1.0 then S else R", expr)
    return MINI.replace("u = [1.0]", f"u = [{expr}]")


@pytest.mark.parametrize("name", DEEP_OK)
def test_deep_models_that_fit_parse_lower_and_format(name):
    """The canonical text parses back to itself.  Compared as text: dataclass
    equality on a 400-level tree would overflow the stack."""
    expr, value = DEEP_OK[name]
    m = dsl.parse(_deep(expr))
    assert dsl.lower(m).bt.behavior(0).controller((0.5,)) == (value,)
    text = dsl.format_model(m)
    assert text.startswith('model "mini"')
    assert dsl.format_model(dsl.parse(text)) == text


@pytest.mark.parametrize("name", DEEP_BAD)
def test_too_deep_models_are_positioned_model_errors(name):
    with pytest.raises(ModelTypeError, match="nests") as e:
        dsl.parse(_deep(DEEP_BAD[name]))
    assert e.value.line == 5 and e.value.col > 1


def test_deep_division_chain_is_a_positioned_model_error():
    """A division takes two frames per level in code generation."""
    chain = " / ".join(["x0"] * 800)
    with pytest.raises(ModelTypeError, match="nests too deeply") as e:
        dsl.lower(dsl.parse(_deep(chain)))
    assert e.value.line == 5


def _nested_seqs(levels: int) -> str:
    """A model whose tree is levels deep: one-child seqs over one leaf."""
    lines = ['model "deep" {', "  state 1;", "  control 1;", "  plant { dx0 = u0; }",
             "  leaf bottom { u = [-1.0]; status = if x0 > 0.0 then R else S; }"]
    child = "bottom"
    for k in range(levels - 1):
        lines.append(f"  seq s{k} = [{child}];")
        child = f"s{k}"
    return "\n".join(lines + [f"  root = {child};", "}"]) + "\n"


def test_tree_at_the_depth_cap_lowers_resolves_integrates_and_partitions():
    levels = dsl._MAX_TREE_DEPTH
    lowered = dsl.lower(dsl.parse(_nested_seqs(levels)))
    bt = lowered.bt
    assert bt.resolve((1.0,)) == (Status.RUNNING, levels - 1)
    traj = integrate(lowered.plant, bt, (1.0,), IntegratorConfig(dt=0.01, t_end=3.0))
    assert traj.samples[-1].status is Status.SUCCESS
    assert check_partition(bt, uniform_points([(-1.0, 1.0)], 50, seed=1)).passed


def test_tree_past_the_depth_cap_is_a_positioned_model_error():
    with pytest.raises(ModelTypeError, match="tree nests more than") as e:
        dsl.parse(_nested_seqs(dsl._MAX_TREE_DEPTH + 1))
    # the reference that crosses the cap: the leaf under the deepest seq
    assert (e.value.line, e.value.col) == (6, 13)


# ------------------------------------------------------ generated delegation walk

# near and far read sqrt(x0 / x1), last reads x0 / x1: row 0 computes both
# and every path passes it, so the walk reads them from there; x1 = 0
# raises at near's division and x0 / x1 < 0 at near's sqrt.  far and last
# read x1 * x1, but last computes it again: near's Success jumps past far.
SHARED = """\
model "shared" {
  state 2;
  control 1;
  plant { dx0 = u0; dx1 = 0.0; }
  leaf near { u = [0.0]; status = if sqrt(x0 / x1) < 1.0 then S else if x1 > 0.5 then F else R; }
  leaf far { u = [1.0]; status = if sqrt(x0 / x1) + x1 * x1 < 2.0 then S else R; }
  leaf last { u = [2.0]; status = if x0 / x1 > x1 * x1 - 0.5 then R else F; }
  fal pick = [near, far];
  seq top = [pick, last];
  root = top;
}
"""


@pytest.fixture
def hot(monkeypatch):
    """Trees built under it take their generated walk from the first root walk."""
    from ctbt import core

    monkeypatch.setattr(core, "_COLD_WALKS_PER_ROW", 0)


def _walk_outcome(walk, x):
    """walk(x), or the type, text, line and column of the error it raised."""
    try:
        return walk(x)
    except (ValueError, ArithmeticError) as err:
        return (type(err).__name__, str(err), getattr(err, "line", None),
                getattr(err, "col", None))


def _assert_walks_agree(bt, states) -> None:
    """bt.resolve, the generated walk, answers or raises as _walk does."""
    from ctbt import core

    rows = bt._rows
    for x in states:
        assert (_walk_outcome(bt.resolve, x)
                == _walk_outcome(lambda y: core._walk(rows, y, 0, len(rows)), x)), x
    assert bt._hot_walk is not None


@pytest.mark.parametrize("permute_ids", [False, True], ids=["dfs-ids", "permuted-ids"])
def test_generated_walk_equals_row_walk_on_random_trees(hot, permute_ids):
    """Hand-built metadata, called by name, on trees whose ids need not
    follow leaf order."""
    from conftest import random_bt

    for seed in range(25):
        bt = random_bt(seed, max_depth=5, max_leaves=14, permute_ids=permute_ids)
        rng = np.random.default_rng(3000 + seed)
        _assert_walks_agree(bt, [tuple(x) for x in rng.uniform(-3, 3, size=(60, 2)).tolist()])


@pytest.mark.parametrize("index", range(12))
def test_generated_walk_equals_row_walk_on_models(hot, index):
    """Every lowered status is inlined, none called, and the walk answers
    or raises, line and column included, as _walk does on 300 seeded
    states, x1 = 0 (the last state variable) at every tenth."""
    lowered = dsl.lower(dsl.parse([*_equivalence_corpus(), SLIDE_HOLD, SHARED][index]))
    bt = lowered.bt
    states = np.random.default_rng(500 + index).uniform(-3, 3, size=(300, bt.state_dim))
    states[::10, -1] = 0.0
    _assert_walks_agree(bt, [tuple(x) for x in states.tolist()])
    metadata = {id(bt.behavior(i).metadata) for i in bt.leaf_ids}
    assert not metadata & {id(v) for v in bt._hot_walk.__globals__.values()}


def test_generated_walk_hands_on_a_status_that_is_not_a_status(hot):
    """A called leaf's answer that is not a Status ends the walk as it came,
    and the run that reaches it raises ExecutionError there."""
    from ctbt.core import BehaviorTree, Leaf, LeafBehavior, Plant, Sequence

    odd = Leaf(1, LeafBehavior(lambda x: (1.0,),
                               lambda x: "S" if x[0] > 0.5 else Status.SUCCESS, "odd"))
    last = Leaf(2, LeafBehavior(lambda x: (1.0,), lambda x: Status.RUNNING, "last"))
    bt = BehaviorTree(Sequence(0, (odd, last)), state_dim=1)
    assert bt.resolve((0.0,)) == (Status.RUNNING, 2)
    assert bt._hot_walk is not None
    assert bt.resolve((1.0,)) == ("S", 1)
    with pytest.raises(executor.ExecutionError, match="leaf 1 answers 'S'"):
        integrate(Plant(1, 1, lambda x, u: u), bt, (0.0,), IntegratorConfig(dt=0.1, t_end=1.0))


def _deep_chain(levels: int) -> str:
    """A model whose tree is levels deep with a leaf at every level:
    composite k holds composite k - 1 and leaf k, Fallbacks and Sequences
    in turn."""
    lines = ['model "chain" {', "  state 1;", "  control 1;", "  plant { dx0 = u0; }"]
    for k in range(levels):
        lines.append(f"  leaf l{k} {{ u = [1.0]; status = if x0 < {k * 0.01 - 1.0!r} then R "
                     f"else if x0 < {k * 0.01!r} then {'SF'[k % 2]} else {'FS'[k % 2]}; }}")
    child = "l0"
    for k in range(1, levels):
        lines.append(f"  {('seq', 'fal')[k % 2]} c{k} = [{child}, l{k}];")
        child = f"c{k}"
    return "\n".join(lines + [f"  root = {child};", "}"]) + "\n"


def test_generated_walk_of_trees_at_the_depth_cap(hot):
    """Python allows 100 levels of indentation; the walk's nesting does
    not grow with the tree's depth, so a tree that lowers also walks: one
    leaf under 199 one-child Sequences, and a leaf at each of 200 levels."""
    for text in (_nested_seqs(dsl._MAX_TREE_DEPTH), _deep_chain(dsl._MAX_TREE_DEPTH)):
        bt = dsl.lower(dsl.parse(text)).bt
        _assert_walks_agree(bt, [(v,) for v in np.linspace(-1.5, 2.5, 401).tolist()])


def test_generated_walk_calls_wrapped_metadata_in_row_walk_order(hot):
    """A lowered leaf whose metadata is replaced, guards kept, is called by
    name: the walk makes _walk's metadata calls, in _walk's order."""
    import dataclasses

    from ctbt import core
    from ctbt.core import BehaviorTree, Leaf

    log = []

    def counted(node):
        if isinstance(node, Leaf):
            b = node.behavior

            def metadata(x, i=node.node_id, inner=b.metadata):
                log.append((i, x))
                return inner(x)

            return Leaf(node.node_id, dataclasses.replace(b, metadata=metadata))
        return type(node)(node.node_id, tuple(counted(c) for c in node.children))

    for index, text in enumerate((SLIDE_HOLD, SHARED, bundled("pendulum.btm"))):
        lowered = dsl.lower(dsl.parse(text))
        bt = BehaviorTree(counted(lowered.bt.root), state_dim=lowered.bt.state_dim)
        rows = bt._rows
        states = np.random.default_rng(700 + index).uniform(-3, 3, size=(200, 2))
        states[::10, 1] = 0.0
        for x in (tuple(x) for x in states.tolist()):
            log.clear()
            hot_walk = _walk_outcome(bt.resolve, x), list(log)
            log.clear()
            cold_walk = _walk_outcome(lambda y: core._walk(rows, y, 0, len(rows)), x), log
            assert hot_walk == cold_walk
        assert bt._hot_walk is not None


HOSTILE = """\
model "__import__('os').system('true')" {
  state 2;
  control 1;
  const __import__ = 2.5;
  const exec_ = 1e308;
  plant { dx0 = u0 * __import__; dx1 = x0 / exec_; }
  leaf os_system { u = [sat(x1, __import__) / (x0 - 0.125)];
                   status = if x0 * exec_ * 10.0 < 0.0 then S else F; }
  leaf eval_ { u = [-__import__]; status = R; }
  fal builtins_ = [os_system, eval_];
  root = builtins_;
}
"""


def test_generated_source_holds_no_model_text(monkeypatch):
    """Only generator-made tokens reach the source: its own names, integer
    indices and positions, and operators.  Numbers live in the namespace."""
    import ast
    import io
    import re
    import tokenize

    seen = []
    compile_function = dsl._FunctionSource.function

    def spy(self, *args):
        fn = compile_function(self, *args)
        seen.append((self.source, dict(self.ns)))
        return fn

    monkeypatch.setattr(dsl._FunctionSource, "function", spy)
    lowered = dsl.lower(dsl.parse(HOSTILE))
    assert len(seen) == 5
    for leaf in lowered.bt.leaf_ids:  # the closed-loop steps, built on first use
        _fused_step(lowered, leaf)
    assert len(seen) == 7
    keywords = {"def", "return", "if", "else", "not", "x", "u", "h", "h2", "h6",
                "field", "controller", "status", "step"}
    made = re.compile(r"(x|u|y|_k|_t)\d+|k[1-4]_\d+|_(sin|cos|sqrt|abs|sgn|sat|divz|R|S|F)")
    layout = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER}
    for text, ns in seen:
        ast.parse(text, feature_version=(3, 10))  # the oldest supported Python
        for name in ("import", "exec_", "os", "eval_", "builtins_", "system"):
            assert name not in text
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                assert tok.string in keywords or made.fullmatch(tok.string), tok
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok
            elif tok.type == tokenize.OP:
                assert tok.string in {*"()[],.:=+-*/<>", "<=", ">=", ":="}, tok
            else:
                assert tok.type in layout, tok
        assert ns.pop("__builtins__") == {}
        assert all(made.fullmatch(k) or k in keywords for k in ns)


def test_a_value_repeated_in_generated_code_is_computed_once(hot, monkeypatch):
    """pendulum.btm writes cos(x0) twice in each status, the distance in
    both statuses, and cos(x0) in swing_up's control law and in the field:
    generated code calls each function once per value, as counting
    wrappers in _FUNC_IMPLS, bound when the code is generated, show."""
    from ctbt import core

    calls = dict.fromkeys(("cos", "sin", "sqrt"), 0)

    def counting(name, fn):
        def counted(v):
            calls[name] += 1
            return fn(v)
        return counted

    for name in calls:
        monkeypatch.setitem(dsl._FUNC_IMPLS, name, counting(name, dsl._FUNC_IMPLS[name]))
    model = dsl.lower(dsl.parse((dsl.bundled_model_dir() / "pendulum.btm").read_text()))
    bt, swing_up = model.bt, model.bt.behavior(1)

    def count(fn, *args):
        calls.update(dict.fromkeys(calls, 0))
        fn(*args)
        return dict(calls)

    x = (0.3, 0.1)
    assert count(swing_up.metadata, x) == {"cos": 1, "sin": 0, "sqrt": 1}
    assert count(swing_up.controller, x) == {"cos": 1, "sin": 0, "sqrt": 0}
    step = _fused_step(model, 1)
    assert count(step, x, 0.004) == {"cos": 4, "sin": 4, "sqrt": 0}  # once per stage
    rows = bt._rows
    for x, row_walk in (((2.0, 0.0), 1), ((0.3, 0.1), 2)):  # swing_up Running, Success
        assert count(bt.resolve, x)["sqrt"] == 1
        assert count(core._walk, rows, x, 0, len(rows))["sqrt"] == row_walk
    assert bt._hot_walk is not None


def test_resolve_model_path(tmp_path):
    p = tmp_path / "local.btm"
    p.write_text(MINI)
    assert dsl.resolve_model_path(p) == p
    assert dsl.resolve_model_path("pendulum.btm").name == "pendulum.btm"
    with pytest.raises(FileNotFoundError):
        dsl.resolve_model_path("nope.btm")


# ------------------------------------------------------------ pretty print

@pytest.mark.parametrize("name", ["thermostat.btm", "kitchen_lamp.btm",
                                  "pendulum.btm"])
def test_round_trip_bundled(name):
    m = dsl.parse(bundled(name))
    text = dsl.format_model(m)
    again = dsl.parse(text)
    assert again == m
    assert dsl.format_model(again) == text


def test_round_trip_tricky_expressions():
    src = MINI.replace(
        "dx0 = u0;",
        "dx0 = -(x0 + 1.0) * 2.0 - u0 / (x0 - 3.0) + sat(x0 * x0, 0.5);")
    m = dsl.parse(src)
    assert dsl.parse(dsl.format_model(m)) == m


def test_round_trip_random_expressions():
    """format_model keeps every grouping: a + (b + c) and a * (b * c) are
    different float computations from (a + b) + c and (a * b) * c."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = dsl.parse(random_expression_btm(rng, int(rng.integers(2, 5))))
        text = dsl.format_model(m)
        again = dsl.parse(text)
        assert again == m, seed
        assert dsl.format_model(again) == text, seed


def test_format_preserves_declaration_order():
    m = dsl.parse(bundled("thermostat.btm"))
    text = dsl.format_model(m)
    assert text.index("above_threshold") < text.index("heater_on")
    assert text.index("heater_on") < text.index("heater_off")
    assert text.index("check_or_heat") < text.index("keep_at_setpoint")
