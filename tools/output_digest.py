"""Print a sha256 manifest of the program's observable outputs.

    python tools/output_digest.py [CHECKOUT]

CHECKOUT (default: the checkout holding this script) needs src/ctbt,
bench/workloads.py and demos/.  Each manifest line is `<sha256>  <name>`,
one per output:

- bank/<workload>/<key>: `to_json` of one integrate run from every start of
  the pendulum_certify and slide_hold banks (a run that raises is digested
  as its FailedRun repr);
- bank/<workload>/<key>/wrapped, for the keys of WRAPPED: the same run
  from that start with every leaf controller wrapped in a new function,
  guards kept, so that it takes `_rk4` in place of the generated regular
  step and the Python route of the slide step in place of the generated
  one; its digest equals the line of the generated route,
  bank/<workload>/<key>, which CI checks;
- bank/<workload>/<key>/cold, for the keys of COLD: the same run on a tree
  that keeps core's row-table walk, the cold tier, for every root walk;
  CI checks that it equals bank/<workload>/<key>, where the tree compiles
  its generated walk partway through d0.0.0, the first start of its bank,
  and takes it from the first walk of every later start;
- batch/unreadable_start: the repr of every slot of `batch_integrate` on
  the bundled thermostat model over the starts [20.0], ['a'] and [22.0],
  or the type and text of the error when one escapes the batch;
- grid/int_dt: `to_json` of the bundled thermostat run from x0 = 20 with
  `IntegratorConfig(dt=1, t_end=3)`, whose grid times are Python floats
  though dt is an int;
- region/<key>: `check_partition(...).to_dict()` and `region_csv` of every
  region_audit bank tree on the seed-1, pass-0 points, and its predicates:
  `pathway_sets`; `in_influence_region`, `in_operating_region` and
  `bt.status` of every node, `composed_status` of every composite,
  `operating_owners` and `leaf_memberships`, on the workload's 16 probe
  points; `subsystem_leaves` on the seed-1, pass-0 points;
- region/<key>/report/fresh, region/<key>/csv/fresh and
  region/<key>/predicates/fresh, for the keys of FRESH: the same audit of a
  tree lowered just after `dsl._compiled.cache_clear()`, so that it compiles
  its own code, where the plain line's tree reuses code compiled for the
  trees before it; CI checks that each equals its line without /fresh;
- region/impure: two audits no bank tree reaches, `check_partition(...)
  .to_dict()` of a tree whose metadata toggles on every call, over 257
  points, and the error text of `check_partition` on a tree with a leaf
  status that is not a Status at some points (both depend on the order of
  metadata calls and on which malformed point is named);
- cli/...: exit code, stdout and stderr of `ctbt validate`, `validate
  --print`, `check-partition`, `regions --x0`, a `regions` grid and
  `simulate` on the bundled models, and `certify` on two of them;
- boundary/<model>: `sample_boundary_pairs` and `check_transversality` on
  the bundled thermostat and kitchen_lamp models;
- slide/<case>: `to_json` of one integrate run on a hand-built tree over
  the plant dx = u whose slides end by their Filippov coefficient and hand
  the rest of the step back to regular mode: once (`stops_attracting`)
  or at once after each of 1,361 entries (`shear`, whose leaves declare no
  guard); and of the shear tree whose left leaf declares the guard
  g = x0, which holds one slide (`shear_guarded`);
- slide/three_state: `to_json` of the THREE_STATE model's run, a guarded
  slide on the plane x0 + x1 + x2 = 0 of three states, and
  slide/three_state/wrapped: the same run with wrapped controllers, which
  takes the Python route of the slide step; the two are equal, which CI checks as for the
  bank lines (tests/test_executor.py holds the same model);
- slide/curved and slide/curved/wrapped: the same pair of runs for the
  CURVED model, whose guard x0*x0 + x1*x1 - 1 is not affine, so each of
  its slide steps takes more than one Newton step onto the unit circle
  (tests/test_executor.py holds the same model);
- slide/two_pairs and slide/two_pairs/wrapped: the same pair of runs for
  the TWO_PAIRS model, which slides on x0 = 0 with one pair of leaves,
  leaves the slide and slides on x0 = 1 with another pair, so the second
  slide takes a second pair's slide step (tests/test_executor.py holds
  the same model);
- slide/thermostat and slide/thermostat/wrapped: the same pair of runs
  for the bundled thermostat model from x0 = 18, a slide of one state;
- slide/thermostat_long and slide/thermostat_long/wrapped: the same slide
  at dt = 0.01 to t = 40, past t = 32, where k*dt + dt can fall an ulp
  short of the grid time (k + 1)*dt that every sample is stamped with;
- slide/success_in_pair and slide/failure_in_pair, each with /wrapped: the
  same pair of runs for the SUCCESS_IN_PAIR and FAILURE_IN_PAIR models,
  whose slide on x0 = 0 reaches a root status other than Running with the
  active leaf in the pair: Success ends the run at that sample, Failure is
  noted once and the slide goes on (tests/test_executor.py holds the same
  models);
- slide/three_state/cold, slide/curved/cold, slide/two_pairs/cold,
  slide/thermostat/cold, slide/success_in_pair/cold,
  slide/failure_in_pair/cold and slide/thermostat_long/cold: the run of
  the line without /cold, whose tree takes its generated walk from the
  first walk, on a tree that keeps the row-table walk throughout; CI
  checks that the two are equal;
- demo/<file>: exit code and stdout of every script in demos/;
- lex/layout_edges: the tokens `dsl.tokenize` makes, or the type, text,
  line and column of its error, on sources at the edges of layout and of
  lines (LEX_CASES);
- parse/errors: the type, text, line and column of the error `dsl.parse`
  raises on each of the malformed models PARSE_ERROR_CASES, or "ok" when
  one parses;
- parse/dimensions: the same for DIMENSION_CASES, models that declare a
  state or control dimension of 1e6, more than their text can define;
- parse/random: for each of RANDOM_MODELS models made by one to three
  seeded token edits (replace a word or number, delete a token, or insert
  an item of RANDOM_EDITS) of a bundled model or of one of the first
  region_audit bank trees, `format_model` of the parsed model, or the
  type, text, line and column of the error `dsl.parse` raises; no edit
  nests an expression near the 900-level cap, so every parser that checks
  the same rules prints the same line;
- parse/deep/<name>: for each expression of DEEP_CASES, nested near the
  parser's recursion limit and the 900-level cap, `format_model` of a
  model holding it, or the type, text and line of the error `dsl.parse` raises, without
  the column, which for a recursion-limit error depends on the caller's
  stack;
- lower/too_complex: for TOO_COMPLEX_CASES, a control and a status of 250
  nested divisions, more than Python compiles as one expression, the
  outcomes of the lowered controller, status and guards at x0 = 0.5, -3.0
  and 0.0 (as for lower/spill), or the type, text, line and column of the error
  `dsl.lower` raises; an older checkout's bare MemoryError is digested the
  same way;
- lower/spill: for each of SPILL_MODELS seeded random models, whose
  control and comparison sides nest 30 to 60 levels of sat, sin, cos, abs,
  sgn, sqrt of abs, division, product and negation, the outcomes of the lowered
  controller, status and guard at five states: the value, or the type
  and text of the error; or the type, text, line and column of the error
  `dsl.lower` raises.  Every checkout compiles them, inline or through
  helper functions, so they all print the same line;
- tree/deep/<shape>: for each 2,000-level tree of DEEP_TREES, one leaf
  under one-child seqs (`nested_seqs`) and a leaf at every level of a
  seq/fal chain (`chain`), `check_partition(...).to_dict()` on 50 seeded
  points and `to_json` of an integrate run from x0 = 1, or, for a checkout
  that rejects the model, the type, text and line of the error, as for
  parse/deep;
- certify/graphs: `check_acyclic`, `reachable_sets` and `longest_chain`
  (or the type and text of its error) on each hand-built graph of
  CERTIFY_GRAPHS, and `certify(...).to_json()` on three hand-built
  batches: a 2-cycle, a lambda violation and a failed run.

To show that a change keeps its outputs, run this on the change and on its
parent, on the same host, and diff the two manifests.  The digests are not
portable: slides whose leaves declare no guard estimate their surface with
LAPACK's SVD, whose last bits may differ between machines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

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


# sources at the edges of the lexer's layout rules
LEX_CASES = [
    "a # c",  # a trailing comment with no newline
    'model "m" {\r\n  state 1;\r\n}\r\n',  # CRLF line ends
    " \t# layout only\n\n  ",
    "",
    '   "name"',  # a string after blanks
    "x\u00b2",
    "1e400",
    "a\rb = 1;",  # a lone carriage return inside a line
    'x = "ab\ny;\nz',  # an unterminated string at a line end, more lines after
    "x = 3.\ny;",  # a malformed number at a line end
    "a;\nb;\nc # ends the last line",
    "a;\n\n",  # the source ends in two newlines
    "a;\n\t\tb\t= 1;",  # tab-indented tokens on line 2
]


_HEAD = 'model "m" {\n  state 1;\n  control 1;\n'
_PLANT = '  plant { dx0 = 0.0; }\n'
_LEAF = '  leaf a { u = [0.0]; status = R; }\n'
_ROOT = '  root = a;\n}'

# malformed models, one per parser or validator error no other digest line
# reaches; tests/test_dsl.py BAD holds the same sources
PARSE_ERROR_CASES = [
    _HEAD + '  x0 = 1.0;\n' + _PLANT + _LEAF + _ROOT,  # not a declaration
    _HEAD + _PLANT + _LEAF + '  plant { dx0 = 1.0; }\n' + _ROOT,
    _HEAD + _PLANT + _LEAF + '  root = a;\n' + _ROOT,
    _HEAD + _PLANT + '  status = R;\n' + _LEAF + _ROOT,  # keyword out of place
    _HEAD + _PLANT + _LEAF + _ROOT + '\nroot = a;',  # trailing input
    'model "m" {\n  state 1;\n' + _PLANT + _LEAF + _ROOT,  # no control dimension
    _HEAD + '  state 2;\n' + _PLANT + _LEAF + _ROOT,
    _HEAD + '  plant { }\n' + _LEAF + _ROOT,
    _HEAD + _PLANT + '  leaf sin { u = [0.0]; status = R; }\n  root = sin;\n}',
    _HEAD + _PLANT + '  leaf a { u = [if x0 > 0.0 then S else R]; status = R; }\n' + _ROOT,
    _HEAD + '  plant { dx0 = ; }\n' + _LEAF + _ROOT,  # no expression
]


# what a random edit may put in a word's place or before a token: names,
# some undeclared, a control (undeclared in a leaf), node names, numbers,
# status literals, keywords, brackets, operators and calls
RANDOM_EDITS = (
    "ghost", "x9", "u0", "u1", "x0", "x1", "T", "l0", "l1", "heater_on", "sin", "2.5",
    "0.0", "R", "S", "F", "if", "then", "else", "const", "leaf", "seq", "fal", "root",
    "status", "u", "(", ")", "[", "]", "{", "}", ";", ",", "=", "+", "-", "*", "/", "<",
    ">=", "sin(", "sat(",
)
RANDOM_MODELS = 2000
RANDOM_BANK_TREES = 4  # the first trees of the region_audit bank, 3 leaves each
# a token of the models edited: a string, a number, a word, or one character
_EDIT_TOKEN = re.compile(r'"[^"\n]*"|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|\w+|<=|>=|\S')


def random_models(bases: list) -> list:
    """RANDOM_MODELS texts, the k-th made from bases[k % len(bases)] by one
    edit, or by two or three, each drawn by random.Random(k)."""
    texts = []
    for k in range(RANDOM_MODELS):
        rng, text = random.Random(k), bases[k % len(bases)]
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            op, item = rng.randrange(3), rng.choice(RANDOM_EDITS)
            tok = rng.choice([t for t in _EDIT_TOKEN.finditer(text) if op or t[0][0].isalnum()])
            new = (item, "", f"{item} {tok[0]}")[op]  # replace a word, delete, insert
            text = text[:tok.start()] + new + text[tok.end():]
        texts.append(text)
    return texts


# a dimension the file cannot define, as in tests/test_dsl.py BAD there at 1e9;
# 1e6 here, since this tool also runs on older checkouts, which build a name
# per dimension before they check the plant (about 100 MB at 1e6)
DIMENSION_CASES = [
    _HEAD.replace("state 1;", "state 1e6;") + _PLANT + _LEAF + _ROOT,
    _HEAD.replace("control 1;", "control 1e6;") + _PLANT + _LEAF + _ROOT,
]

# a control and a status of 250 nested divisions: each division by a
# non-constant is a zero test in the generated source
_NESTED_DIVISION = "1.0 / (" * 250 + "x0" + ")" * 250
TOO_COMPLEX_CASES = [
    _HEAD + _PLANT + f"  leaf a {{ u = [{_NESTED_DIVISION}]; status = R; }}\n" + _ROOT,
    _HEAD + _PLANT + f"  leaf a {{ u = [0.0]; status = if {_NESTED_DIVISION} > 0.0 "
    "then S else R; }\n" + _ROOT,
]

SPILL_MODELS = 300
# a level of a spill model's expression around {0}, the level below, beside {1}
_SPILL_LEVELS = ("sat({0}, {1})", "sin({0})", "cos({0})", "abs({0})", "sgn({0})", "sqrt(abs({0}))",
                 "{1} / ({0})", "({0}) / ({1})", "{1} * ({0})", "-({0})")
_SPILL_TERMS = ("x0", "x1", "0.5", "1.5", "x1 - 0.25")
SPILL_STATES = [(0.5, -0.25), (-1.0, 0.25), (0.0, 0.0), (2.0, 1.5), (-0.3, -2.0)]


def spill_models() -> list:
    """SPILL_MODELS texts, the k-th drawn by random.Random(k): one leaf
    whose control and the two sides of whose comparison nest 30 to 60
    levels each."""
    texts = []
    for k in range(SPILL_MODELS):
        rng = random.Random(k)
        sides = []
        for _ in range(3):
            text = rng.choice(("x0", "x1"))
            for _ in range(rng.randint(30, 60)):
                text = rng.choice(_SPILL_LEVELS).format(text, rng.choice(_SPILL_TERMS))
            sides.append(text)
        texts.append('model "spill" {\n  state 2;\n  control 1;\n'
                     '  plant { dx0 = u0; dx1 = 0.0; }\n'
                     f"  leaf a {{ u = [{sides[0]}]; status = if {sides[1]} > {sides[2]} "
                     "then S else F; }\n  root = a;\n}\n")
    return texts


# tests/test_dsl.py DEEP_OK and DEEP_BAD: name -> a leaf's control, or its
# status when it starts with "if"
DEEP_CASES = {
    "220_parentheses": "(" * 220 + "x0" + ")" * 220,
    "300_parentheses": "(" * 300 + "x0" + ")" * 300,
    "400_unary_minuses": "-" * 400 + "x0",
    "900_term_chain": " + ".join(["x0"] * 900),
    "1000_parentheses": "(" * 1000 + "x0" + ")" * 1000,
    "1000_unary_minuses": "-" * 1000 + "x0",
    "1200_term_chain": " + ".join(["x0"] * 1200),
    "1200_term_chain_in_a_status": "if " + " + ".join(["x0"] * 1200) + " > 0.0 then S else R",
}


def _nested_seqs(levels: int) -> str:
    """One leaf under levels - 1 one-child seqs (tests/test_dsl.py holds the
    same model)."""
    lines = ['model "deep" {', "  state 1;", "  control 1;", "  plant { dx0 = u0; }",
             "  leaf bottom { u = [-1.0]; status = if x0 > 0.0 then R else S; }"]
    child = "bottom"
    for k in range(levels - 1):
        lines.append(f"  seq s{k} = [{child}];")
        child = f"s{k}"
    return "\n".join(lines + [f"  root = {child};", "}"]) + "\n"


def _deep_chain(levels: int) -> str:
    """A leaf at each of levels levels: composite k holds composite k - 1 and
    leaf k, fals and seqs in turn (tests/test_dsl.py holds the same model)."""
    lines = ['model "chain" {', "  state 1;", "  control 1;", "  plant { dx0 = u0; }"]
    for k in range(levels):
        lines.append(f"  leaf l{k} {{ u = [1.0]; status = if x0 < {k * 0.01 - 1.0!r} then R "
                     f"else if x0 < {k * 0.01!r} then {'SF'[k % 2]} else {'FS'[k % 2]}; }}")
    child = "l0"
    for k in range(1, levels):
        lines.append(f"  {('seq', 'fal')[k % 2]} c{k} = [{child}, l{k}];")
        child = f"c{k}"
    return "\n".join(lines + [f"  root = {child};", "}"]) + "\n"


# shape -> .btm text of a tree 2,000 levels deep
DEEP_TREES = {"nested_seqs": _nested_seqs(2000), "chain": _deep_chain(2000)}


# name -> (nodes, edges) of a hand-built prepares graph, each edge seen once;
# tests/test_convergence.py EXACT_CASES holds the cyclic ones
CERTIFY_GRAPHS = {
    "two_disjoint_cycles": (
        (0, 3, 4, 5, 7, 8), [(7, 8), (8, 7), (3, 5), (5, 4), (4, 3), (0, 7)]),
    "cycle_with_dangling_branches_on_both_sides": (
        (0, 1, 2, 3, 4, 6, 9), [(0, 4), (9, 4), (4, 6), (6, 4), (6, 1), (1, 2), (4, 3)]),
    "self_loop_reached_from_a_chain": (
        (0, 1, 2, 5, 8, 9), [(8, 9), (9, 8), (9, 1), (1, 2), (2, 5), (5, 5), (0, 1)]),
    "long_cycle_entered_away_from_its_smallest_node": (
        (0, 2, 4, 6, 8, 10, 11, 12),
        [(10, 6), (2, 8), (8, 4), (4, 6), (6, 2), (2, 11), (4, 0), (0, 12)]),
    "acyclic_ties": (tuple(range(8)), [(5, 0), (5, 1), (2, 1), (0, 3), (1, 3), (4, 6)]),
    "empty": ((), []),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# bank starts also run on the _rk4 route: a switching pendulum run, a
# pendulum rest start that converges (r2) and the one that never does (r4),
# whose steady stretch ends at a fixed point of the step, and slide_hold
# slides from one start in each row and each column of its 4 x 4 cells
WRAPPED = {"pendulum_certify": ("d0.0.0", "r2", "r4"),
           "slide_hold": ("d0.0.0", "d1.1.0", "d2.2.0", "d3.3.0")}
# and on the cold tier of the walk
COLD = WRAPPED


def walk_tier(allowance):
    """Trees built inside take their generated root walk after allowance
    walks per leaf row: 0 for the hot tier from the first walk, math.inf
    for the row-table walk throughout.  A checkout without the two tiers
    ignores it."""
    from ctbt import core

    return mock.patch.object(core, "_COLD_WALKS_PER_ROW", allowance, create=True)


def bank_digests(workloads) -> list:
    from ctbt import Trajectory, batch_integrate, dsl

    lines, wrapped, cold = [], [], []
    for name in ("pendulum_certify", "slide_hold"):
        wl = workloads.WORKLOADS[name]
        cfg, bank = wl.config(), wl.bank()

        def digest(model, bt, x0):
            run = batch_integrate(model.plant, bt, [x0], cfg, model_name=name)[0]
            return sha(run.to_json() if isinstance(run, Trajectory) else repr(run))

        model = dsl.lower(dsl.parse(wl.model_text()))
        lines += [(digest(model, model.bt, x0), f"bank/{name}/{key}") for key, x0 in bank.items()]
        model = dsl.lower(dsl.parse(wl.model_text()))
        wrapped += [(digest(model, wrapped_controllers(model.bt), bank[key]),
                     f"bank/{name}/{key}/wrapped") for key in WRAPPED[name]]
        with walk_tier(math.inf):
            model = dsl.lower(dsl.parse(wl.model_text()))
        cold += [(digest(model, model.bt, bank[key]), f"bank/{name}/{key}/cold")
                 for key in COLD[name]]
    return lines + wrapped + cold


def batch_digests() -> list:
    from ctbt import IntegratorConfig, batch_integrate, dsl

    model = dsl.load(dsl.bundled_model_dir() / "thermostat.btm")
    try:
        runs = batch_integrate(model.plant, model.bt, [[20.0], ["a"], [22.0]],
                               IntegratorConfig(dt=0.01, t_end=2.0), model_name="thermostat")
        text = "\n".join(map(repr, runs))
    except ValueError as err:
        text = f"{type(err).__name__}: {err}"
    return [(sha(text), "batch/unreadable_start")]


def grid_digests() -> list:
    from ctbt import IntegratorConfig, dsl, integrate

    model = dsl.load(dsl.bundled_model_dir() / "thermostat.btm")
    run = integrate(model.plant, model.bt, [20.0], IntegratorConfig(dt=1, t_end=3),
                    model_name="thermostat")
    return [(sha(run.to_json()), "grid/int_dt")]


def wrapped_controllers(bt):
    """bt with every leaf controller wrapped in a new function and the rest
    of each leaf kept: no generated step is keyed by the wrappers."""
    from ctbt import BehaviorTree, Leaf

    def rebuilt(node):
        if isinstance(node, Leaf):
            controller = node.behavior.controller
            return Leaf(node.node_id, dataclasses.replace(
                node.behavior, controller=lambda x: controller(x)))
        return type(node)(node.node_id, tuple(rebuilt(c) for c in node.children))

    return BehaviorTree(rebuilt(bt.root), state_dim=bt.state_dim)


def predicate_text(bt, probes, points) -> str:
    """Every region predicate of bt: per-probe answers, then the samples'."""
    from ctbt import (composed_status, in_influence_region, in_operating_region,
                      leaf_memberships, operating_owners, pathway_sets, subsystem_leaves)

    ids = range(len(bt.nodes))
    composites = [i for i in ids if bt.kinds[i] != "leaf"]
    pw = pathway_sets(bt)
    rows = [repr((sorted(pw.success), sorted(pw.failure)))]
    for x in probes:
        rows.append(repr((
            [in_influence_region(bt, i, x) for i in ids],
            [in_operating_region(bt, i, x) for i in ids],
            [bt.status(i, x).value for i in ids],
            [composed_status(bt, i, x).value for i in composites],
            operating_owners(bt, x),
            leaf_memberships(bt, x))))
    sub = subsystem_leaves(bt, points)
    rows.append(repr((sorted(sub.witnessed), sorted(sub.possibly_empty),
                      sub.samples_tested)))
    return "\n".join(rows)


# region_audit bank trees also audited after the code cache is emptied: a
# small, a middle and the largest size class
FRESH = ("t0.0", "t5.2", "t9.3")


def region_digests(workloads) -> list:
    from ctbt import check_partition, dsl
    from ctbt.regions import region_csv

    wl = workloads.WORKLOADS["region_audit"]
    bank = wl.bank()

    def audit(key, suffix=""):
        model = dsl.lower(dsl.parse(bank[key][0]))
        points = wl.points(1, 0, key)
        report = check_partition(model.bt, points)
        return [(sha(json.dumps(report.to_dict())), f"region/{key}/report{suffix}"),
                (sha(region_csv(model.bt, points)), f"region/{key}/csv{suffix}"),
                (sha(predicate_text(model.bt, wl.PROBES, points)),
                 f"region/{key}/predicates{suffix}")]

    lines = [line for key in bank for line in audit(key)]
    for key in FRESH:
        # a checkout without the process-wide code cache compiles per model
        getattr(getattr(dsl, "_compiled", None), "cache_clear", lambda: None)()
        lines += audit(key, "/fresh")
    return lines


def impure_digests() -> list:
    from ctbt import (BehaviorTree, Leaf, LeafBehavior, Sequence, Status, check_partition,
                      uniform_points)

    flip = [False]

    def toggling(x):
        flip[0] = not flip[0]
        return Status.SUCCESS if flip[0] else Status.FAILURE

    def leaf(i, status):
        return Leaf(i, LeafBehavior(lambda x: (0.0,), status, label=f"leaf{i}"))

    def steady(x):
        return Status.RUNNING

    points = uniform_points([(-1.0, 1.0)], 257, seed=0)
    report = check_partition(
        BehaviorTree(Sequence(0, (leaf(1, toggling), leaf(2, steady))), state_dim=1), points)
    # "S" instead of Status.SUCCESS past x0 = 0.5, consulted first there
    malformed = BehaviorTree(Sequence(0, (
        leaf(1, lambda x: "S" if x[0] > 0.5 else Status.SUCCESS), leaf(2, steady))), state_dim=1)
    try:
        check_partition(malformed, points)
        error = "no error"
    except AssertionError as err:
        error = str(err)
    return [(sha(json.dumps(report.to_dict()) + "\n" + error), "region/impure")]


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


# two push leaves that chatter onto the plane x0 + x1 + x2 = 0 and slide on it
THREE_STATE = """\
model "three_state" {
  state 3;
  control 3;
  plant { dx0 = u0; dx1 = u1 + 0.1 * sin(x0); dx2 = u2; }
  leaf above { u = [0.0, 0.0, 0.0]; status = if x0 + x1 + x2 > 0.0 then S else F; }
  leaf push_up { u = [1.0, 0.5, 0.2]; status = R; }
  leaf push_down { u = [-1.0, -0.3, 0.2]; status = R; }
  fal guard = [above, push_up];
  seq hold = [guard, push_down];
  root = hold;
}
"""


# push_out spirals out of the unit circle, push_in spirals into it: they
# chatter onto the circle and slide on it
CURVED = """\
model "curved" {
  state 2;
  control 2;
  plant { dx0 = u0; dx1 = u1; }
  leaf outside { u = [0.0, 0.0]; status = if x0 * x0 + x1 * x1 > 1.0 then S else F; }
  leaf push_out { u = [x0 - 2.0 * x1, x1 + 2.0 * x0]; status = R; }
  leaf push_in {
    u = [(-x0 - x1) / sqrt(x0 * x0 + x1 * x1), (x0 - x1) / sqrt(x0 * x0 + x1 * x1)];
    status = R;
  }
  fal gate = [outside, push_out];
  seq hold = [gate, push_in];
  root = hold;
}
"""


# push_right and turn slide on x0 = 0 until turn stops pushing left at
# x1 = 1; turn then carries the state to x0 = 1, where it slides with push_left
TWO_PAIRS = """\
model "two_pairs" {
  state 2;
  control 2;
  plant { dx0 = u0; dx1 = u1; }
  leaf left_of_0 { u = [0.0, 0.0]; status = if x0 > 0.0 then S else F; }
  leaf push_right { u = [1.0, 0.5]; status = R; }
  leaf right_of_1 { u = [0.0, 0.0]; status = if x0 > 1.0 then S else F; }
  leaf turn { u = [x1 - 1.0, 0.5]; status = R; }
  leaf push_left { u = [-1.0, 0.5]; status = R; }
  fal first = [left_of_0, push_right];
  fal second = [right_of_1, turn];
  seq both = [first, second, push_left];
  root = both;
}
"""


# push_right and push_left slide on x0 = 0, where push_right is active,
# until x1 passes 1 at t = 2: there push_right reports Failure, the root's
# status, and the slide goes on
FAILURE_IN_PAIR = """\
model "failure_in_pair" {
  state 2;
  control 2;
  plant { dx0 = u0; dx1 = u1; }
  leaf left_of_0 { u = [0.0, 0.0]; status = if x0 > 0.0 then S else F; }
  leaf push_right { u = [1.0, 0.5]; status = if x1 > 1.0 then F else R; }
  leaf push_left { u = [-1.0, 0.5]; status = R; }
  fal first = [left_of_0, push_right];
  seq hold = [first, push_left];
  root = hold;
}
"""


# the same slide, but past x1 = 1 both push leaves report Success: the root
# succeeds with push_left active, which is in the pair
SUCCESS_IN_PAIR = """\
model "success_in_pair" {
  state 2;
  control 2;
  plant { dx0 = u0; dx1 = u1; }
  leaf left_of_0 { u = [0.0, 0.0]; status = if x0 > 0.0 then S else F; }
  leaf push_right { u = [1.0, 0.5]; status = if x1 > 1.0 then S else R; }
  leaf push_left { u = [-1.0, 0.5]; status = if x1 > 1.0 then S else R; }
  fal first = [left_of_0, push_right];
  seq hold = [first, push_left];
  root = hold;
}
"""


def slide_digests() -> list:
    from ctbt import (BehaviorTree, Fallback, IntegratorConfig, Leaf, LeafBehavior,
                      Plant, Sequence, Status, dsl, integrate)

    def leaf(i, control, status, guards=()):
        return Leaf(i, LeafBehavior(control, status, label=f"leaf{i}", guards=guards))

    def running(x):
        return Status.RUNNING

    # the pull-back field weakens with x1 and reverses past x1 = 1
    gate = leaf(2, lambda x: (0.0, 0.0),
                lambda x: Status.SUCCESS if x[0] > 0.0 else Status.FAILURE)
    stops_attracting = Sequence(0, (
        Fallback(1, (gate, leaf(3, lambda x: (1.0, 0.5), running))),
        leaf(4, lambda x: (x[1] - 1.0, 0.5), running)))
    # both fields point into x0 = 0 and differ along it
    def shear(*guards):
        return Fallback(0, (
            leaf(1, lambda x: (1.0, 10.0),
                 lambda x: Status.RUNNING if x[0] < 0.0 else Status.FAILURE, guards),
            leaf(2, lambda x: (-1.0, 10.5), running)))

    shear_cfg = IntegratorConfig(dt=0.001, t_end=0.02, event_tol=1e-5)
    cases = {
        "stops_attracting": (stops_attracting, (-0.25, 0.0),
                             IntegratorConfig(dt=0.01, t_end=4.0)),
        "shear": (shear(), (-0.01, 0.0), shear_cfg),
        "shear_guarded": (shear(lambda x: (x[0], (1.0, 0.0))), (-0.01, 0.0), shear_cfg),
    }
    plant = Plant(2, 2, lambda x, u: u)
    lines = []
    for name, (root, x0, cfg) in cases.items():
        run = integrate(plant, BehaviorTree(root, state_dim=2), x0, cfg, model_name=name)
        lines.append((sha(run.to_json()), f"slide/{name}"))
    thermostat = (dsl.bundled_model_dir() / "thermostat.btm").read_text(encoding="utf-8")
    models = {
        "three_state": (THREE_STATE, (-0.5, 0.2, -0.3), IntegratorConfig(dt=0.01, t_end=2.0)),
        "curved": (CURVED, (0.5, 0.0), IntegratorConfig(dt=0.1, t_end=4.0, event_tol=1e-10)),
        "two_pairs": (TWO_PAIRS, (-0.25, 0.0), IntegratorConfig(dt=0.01, t_end=6.0)),
        "thermostat": (thermostat, (18.0,), IntegratorConfig(dt=0.01, t_end=5.0)),
        "success_in_pair": (SUCCESS_IN_PAIR, (-0.25, 0.0), IntegratorConfig(dt=0.01, t_end=4.0)),
        "failure_in_pair": (FAILURE_IN_PAIR, (-0.25, 0.0), IntegratorConfig(dt=0.01, t_end=4.0)),
        "thermostat_long": (thermostat, (18.0,), IntegratorConfig(dt=0.01, t_end=40.0)),
    }
    for name, (text, x0, cfg) in models.items():
        with walk_tier(0):
            model = dsl.lower(dsl.parse(text))
        with walk_tier(math.inf):
            cold = dsl.lower(dsl.parse(text))
        for bt, key in ((model.bt, f"slide/{name}"),
                        (wrapped_controllers(model.bt), f"slide/{name}/wrapped"),
                        (cold.bt, f"slide/{name}/cold")):
            run = integrate(model.plant, bt, x0, cfg, model_name=name)
            lines.append((sha(run.to_json()), key))
    return lines


def lex_digests() -> list:
    from ctbt import dsl

    rows = []
    for source in LEX_CASES:
        try:
            rows.append(repr([tuple(tok) for tok in dsl.tokenize(source)]))
        except dsl.LexError as err:
            rows.append(repr((type(err).__name__, str(err), err.line, err.col)))
    return [(sha("\n".join(rows)), "lex/layout_edges")]


def parse_digests() -> list:
    from ctbt import dsl

    lines = []
    for cases, name in ((PARSE_ERROR_CASES, "parse/errors"),
                        (DIMENSION_CASES, "parse/dimensions")):
        rows = []
        for source in cases:
            try:
                dsl.parse(source)
                rows.append("ok")
            except dsl.ModelError as err:
                rows.append(repr((type(err).__name__, str(err), err.line, err.col)))
        lines.append((sha("\n".join(rows)), name))
    for name, expr in DEEP_CASES.items():
        leaf = (f"u = [1.0]; status = {expr};" if expr.startswith("if ")
                else f"u = [{expr}]; status = if x0 >= 1.0 then S else R;")
        try:
            text = dsl.format_model(dsl.parse(
                'model "mini" {\n  state 1;\n  control 1;\n  plant { dx0 = u0; }\n'
                f"  leaf go {{ {leaf} }}\n  root = go;\n}}\n"))
        except dsl.ModelError as err:
            text = repr((type(err).__name__, err.message, err.line))
        lines.append((sha(text), f"parse/deep/{name}"))
    return lines


def random_parse_digests(workloads) -> list:
    from ctbt import dsl

    bank = workloads.WORKLOADS["region_audit"].bank()
    bases = [path.read_text(encoding="utf-8")
             for path in sorted(dsl.bundled_model_dir().glob("*.btm"))]
    bases += [text for text, _ in list(bank.values())[:RANDOM_BANK_TREES]]
    rows = []
    for source in random_models(bases):
        try:
            rows.append(dsl.format_model(dsl.parse(source)))
        except dsl.ModelError as err:
            rows.append(repr((type(err).__name__, str(err), err.line, err.col)))
    return [(sha("\n".join(rows)), "parse/random")]


def lowered_outcomes(source: str, states) -> str:
    """The outcome of every leaf's controller, status and guards at each
    state, or the error lowering raises."""
    from ctbt import dsl

    def outcome(fn, x):
        try:
            return fn(x)
        except (ValueError, ArithmeticError) as err:
            return (type(err).__name__, str(err))

    try:
        model = dsl.lower(dsl.parse(source))
        behaviors = [model.bt.behavior(i) for i in model.bt.leaf_ids]
        guards = [list(b.guards) for b in behaviors]
    except (dsl.ModelError, MemoryError) as err:  # an older checkout's is bare
        return repr((type(err).__name__, str(err), getattr(err, "line", None),
                     getattr(err, "col", None)))
    return repr([(outcome(b.controller, x), outcome(b.metadata, x),
                  [outcome(g, x) for g in gs])
                 for b, gs in zip(behaviors, guards) for x in states])


def lower_digests() -> list:
    rows = [lowered_outcomes(source, [(0.5,), (-3.0,), (0.0,)]) for source in TOO_COMPLEX_CASES]
    spills = [lowered_outcomes(source, SPILL_STATES) for source in spill_models()]
    return [(sha("\n".join(rows)), "lower/too_complex"), (sha("\n".join(spills)), "lower/spill")]


def tree_digests() -> list:
    from ctbt import IntegratorConfig, check_partition, dsl, integrate, uniform_points

    lines = []
    for shape, source in DEEP_TREES.items():
        try:
            model = dsl.lower(dsl.parse(source))
        except dsl.ModelError as err:
            text = repr((type(err).__name__, err.message, err.line))
        else:
            report = check_partition(model.bt, uniform_points([(-1.0, 1.0)], 50, seed=1))
            run = integrate(model.plant, model.bt, [1.0], IntegratorConfig(dt=0.01, t_end=3.0),
                            model_name=shape)
            text = json.dumps(report.to_dict()) + "\n" + run.to_json()
        lines.append((sha(text), f"tree/deep/{shape}"))
    return lines


def certify_digests() -> list:
    from ctbt.convergence import (PreparesGraph, certify, check_acyclic, longest_chain,
                                  reachable_sets)
    from ctbt.core import Status
    from ctbt.executor import Event, FailedRun, Sample, Trajectory

    def run(path, switches=(), status="S"):
        """A run through the leaves of path, one sample a second, ending in
        status, with a Switch event for each (t, from, to) of switches."""
        samples = [Sample(float(k), (0.5 * k,), leaf, Status.RUNNING)
                   for k, leaf in enumerate(path)]
        samples[-1] = samples[-1]._replace(status=Status(status))
        events = [Event(t, "Switch", (0.0,), {"from": a, "to": b}) for t, a, b in switches]
        return Trajectory(meta={"model": "toy"}, samples=samples, events=events)

    batches = {
        "two_cycle": [run([1, 2, 1], [(1.0, 1, 2), (2.0, 2, 1)]),
                      run([2, 2, 1], [(2.0, 2, 1)])],
        "lambda_violation": [run([1, 1, 2], [(2.0, 1, 2)]),
                             run([2, 1, 1, 2], [(3.0, 1, 2)]),  # 2 -> 1 with no switch
                             run([1, 1], status="F")],
        "failed_run": [run([3, 3, 4], [(2.0, 3, 4)]),
                       FailedRun(1, (float("nan"),), "NonFiniteState", "diverged")],
    }
    rows = []
    for name, (nodes, edges) in CERTIFY_GRAPHS.items():
        graph = PreparesGraph(nodes=nodes, edges={e: 1 for e in edges}, terminal_counts={})
        try:
            chain = longest_chain(graph, {n: 0.25 * n + 1.0 for n in nodes})
        except ValueError as err:
            chain = (type(err).__name__, str(err))
        reach = sorted((n, sorted(r)) for n, r in reachable_sets(graph).items())
        rows.append(repr((name, check_acyclic(graph), reach, chain)))
    rows += [f"{name}\n{certify(runs).to_json()}" for name, runs in batches.items()]
    return [(sha("\n".join(rows)), "certify/graphs")]


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
    lines = (bank_digests(workloads) + batch_digests() + grid_digests()
             + region_digests(workloads) + impure_digests() + cli_digests()
             + boundary_digests() + slide_digests() + demo_digests(root) + lex_digests()
             + parse_digests() + random_parse_digests(workloads) + lower_digests()
             + tree_digests() + certify_digests())
    for digest, name in lines:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
