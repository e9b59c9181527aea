"""Parser and compiler for the .btm model format.

A model file declares a plant (state/control dimensions plus one derivative
expression per state variable), named leaves (control expressions plus a
status expression), named Sequence/Fallback composites, and a root.  Example:

    model "thermostat" {
      state 1;
      control 1;
      const T = 21.0;
      plant { dx0 = u0; }
      leaf above { u = [0.0]; status = if x0 > T then S else F; }
      leaf heat  { u = [1.0]; status = R; }
      fal check_or_heat = [above, heat];
      root = check_or_heat;
    }

Three little sublanguages, kept apart by the grammar: real expressions
(+ - * / unary-minus, sin cos sqrt abs sgn sat, state vars x0.., control
vars u0.. in plant equations only, declared constants), predicates (one
comparison between two real expressions), and status expressions (R, S, F,
or if-then-else over a predicate).  sgn(0) is 0; sat(v, L) clamps v to
[-L, L].  Parsing is recursive descent, real expressions by precedence
climbing over one table of binding strengths, which the formatter and the
code generator read too; every error carries the line and column of the
offending token.

lower() folds constants and compiles the plant field, each leaf controller
and each leaf status to one flat generated Python function (see "code
generation" below), each distinct source compiled once per process;
evaluate_expr is the reference interpreter they match bit for bit.  Every
comparison left op right in a leaf status becomes a guard,
g = left - right with its gradient from derivative(), compiled when a
slide first reads it and kept in LeafBehavior.guards.  Each leaf also gets
one closed-loop RK4 step with its controller inlined into the plant
field, and each pair of leaves one slide step per guard, the executor's
slide step with the fields, the guard and the blend inlined, each
compiled on first use and kept in Plant.steps; the executor calls them in
place of its Python steps, with the same floats.  A tree walked often
gets one more function, its root delegation walk, which inlines the
status of each leaf lowered here (see ctbt.core).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate
from pathlib import Path
from types import FunctionType
from typing import Callable, Mapping, NamedTuple, Union

from .core import (
    BehaviorTree,
    DimensionMismatch,
    Fallback,
    Leaf,
    LeafBehavior,
    Plant,
    Sequence,
    Status,
)


class ModelError(ValueError):
    """Base for everything the parser/evaluator can reject."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.message = message
        self.line = line
        self.col = col


class LexError(ModelError):
    pass


class ParseError(ModelError):
    pass


class UndeclaredIdentifier(ModelError):
    pass


class ModelTypeError(ModelError):
    pass


class DuplicateDefinition(ModelError):
    pass


class NodeReusedInTree(ModelError):
    pass


class MissingRoot(ModelError):
    pass


class DivisionByZero(ModelError):
    pass


class UnboundIdentifier(ModelError):
    pass


class _ControlCountMismatch(ModelError, DimensionMismatch):
    """A leaf's control vector does not match the declared control count."""


# ---------------------------------------------------------------- expressions

_NOPOS = (0, 0)


@dataclass(frozen=True)
class Num:
    value: float
    pos: tuple = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: tuple = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: tuple = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    pos: tuple = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    pos: tuple = field(default=_NOPOS, compare=False)


Expr = Union[Num, Var, Neg, Binary, Call]


@dataclass(frozen=True)
class Compare:
    op: str
    left: Expr
    right: Expr
    pos: tuple = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class StatusLit:
    value: Status
    pos: tuple = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class IfStatus:
    cond: Compare
    then: "StatusExpr"
    els: "StatusExpr"
    pos: tuple = field(default=_NOPOS, compare=False)


StatusExpr = Union[StatusLit, IfStatus]


@dataclass(frozen=True)
class LeafDecl:
    name: str
    controls: tuple
    status: StatusExpr
    pos: tuple = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class CompositeDecl:
    name: str
    kind: str  # "seq" | "fal"
    children: tuple  # child names in order
    pos: tuple = field(default=_NOPOS, compare=False)
    child_positions: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class ModelFile:
    name: str
    state_dim: int
    control_dim: int
    constants: tuple  # ((name, value), ...) in declaration order
    plant: tuple  # ((state var, Expr), ...) in x0..xN order
    nodes: tuple  # LeafDecl | CompositeDecl in declaration order
    root: str


KEYWORDS = {
    "model", "const", "state", "control", "plant", "leaf", "seq", "fal",
    "root", "if", "then", "else", "u", "status", "R", "S", "F",
}
FUNCTIONS = {"sin": 1, "cos": 1, "sqrt": 1, "abs": 1, "sgn": 1, "sat": 2}
COMPARATORS = ("<=", ">=", "<", ">")

# binding strength of a real expression, loosest first: the parser climbs
# _BINDING, and format_expr and the code generator parenthesize by it
_COND, _ADD, _MUL, _UNARY, _ATOM = range(5)
_BINDING = {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL}


# ---------------------------------------------------------------------- lexer

class Token(NamedTuple):
    kind: str  # NUMBER IDENT KEYWORD STRING OP EOF
    text: str
    line: int
    col: int
    value: float = 0.0

    @property
    def pos(self):
        return (self.line, self.col)


# On one line of the source, a match is the layout (blanks, comments) before a
# token, then one alternative per token class, tried in order; the lower-case
# classes are errors.  The token is optional: layout that ends the line matches
# alone and never backtracks into a token.  Digits are ASCII only.
_LEXEME = re.compile(r"""
    (?:[ \t\r]+|\#.*)*
    (?:(?P<malformed>[0-9]+(?:\.(?![0-9])|(?:\.[0-9]+)?[eE](?![+-]?[0-9])))
      | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
      | (?P<STRING>"[^"]*")
      | (?P<unterminated>")
      | (?P<IDENT>[^\W\d]\w*)
      | (?P<OP><=|>=|[<>=+\-*/()\[\]{},;])
      | (?P<unexpected>.))?
""", re.VERBOSE)

_new_token = partial(tuple.__new__, Token)  # skips Token's Python-level __new__
_LEX_ERRORS = {"malformed": "malformed number", "unterminated": "unterminated string",
               "unexpected": "unexpected character {!r}"}


def tokenize(source: str) -> list:
    tokens = []
    for line, row in enumerate(source.split("\n"), 1):
        for m in _LEXEME.finditer(row):
            kind = m.lastgroup
            if kind is None:  # layout up to the end of the line
                continue
            text, col, value = m[kind], m.start(kind) + 1, 0.0
            if kind == "IDENT":
                if text in KEYWORDS:
                    kind = "KEYWORD"
                elif not (text[0].isalpha() or text[0] == "_"):
                    kind, text = "unexpected", text[0]  # a numeral such as '²'
            elif kind == "NUMBER":
                value = float(text)
                if value == math.inf:
                    raise LexError("number out of range", line, col)
            elif kind == "STRING":
                text = text[1:-1]
            if kind in _LEX_ERRORS:
                raise LexError(_LEX_ERRORS[kind].format(text), line, col)
            tokens.append(_new_token((kind, text, line, col, value)))
    tokens.append(Token("EOF", "", line, len(row) + 1))
    return tokens


# --------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def at(self, kind, text=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind, text=None) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind or text is not None and tok.text != text:
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {tok.text or tok.kind!r}",
                tok.line, tok.col)
        self.i += 1  # no caller expects EOF
        return tok

    # ---- model structure

    def model(self) -> ModelFile:
        self.expect("KEYWORD", "model")
        name_tok = self.expect("STRING")
        self.expect("OP", "{")
        consts, nodes, plant_entries = [], [], []
        state_dim = control_dim = None
        root = plant_tok = None
        seen: dict = {}  # declared name -> position
        while not self.at("OP", "}"):
            tok = self.peek()
            if tok.kind != "KEYWORD":
                raise ParseError(
                    f"expected a declaration, found {tok.text or tok.kind!r}",
                    tok.line, tok.col)
            if tok.text == "const":
                consts.append(self.const_decl(seen))
            elif tok.text == "state":
                state_dim = self.dim_decl("state", state_dim)
            elif tok.text == "control":
                control_dim = self.dim_decl("control", control_dim)
            elif tok.text == "plant":
                if plant_entries:
                    raise DuplicateDefinition("plant defined twice", tok.line, tok.col)
                plant_tok = tok
                plant_entries = self.plant_decl()
            elif tok.text == "leaf":
                nodes.append(self.leaf_decl(seen))
            elif tok.text in ("seq", "fal"):
                nodes.append(self.composite_decl(seen))
            elif tok.text == "root":
                if root is not None:
                    raise DuplicateDefinition("root defined twice", tok.line, tok.col)
                self.advance()
                self.expect("OP", "=")
                root = self.expect("IDENT")
                self.expect("OP", ";")
            else:
                raise ParseError(
                    f"unexpected keyword {tok.text!r} in model body",
                    tok.line, tok.col)
        close = self.expect("OP", "}")
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(
                f"trailing input after model: {tok.text!r}", tok.line, tok.col)
        if state_dim is None:
            raise ParseError("model never declares its state dimension",
                             name_tok.line, name_tok.col)
        if control_dim is None:
            raise ParseError("model never declares its control dimension",
                             name_tok.line, name_tok.col)
        if not plant_entries:
            raise ParseError("model has no plant block", close.line, close.col)
        if root is None:
            raise MissingRoot("model has no root declaration", close.line, close.col)
        return _validate(ModelFile(
            name=name_tok.text,
            state_dim=state_dim,
            control_dim=control_dim,
            constants=tuple(consts),
            plant=tuple(plant_entries),
            nodes=tuple(nodes),
            root=root.text,
        ), root_pos=root.pos, plant_pos=plant_tok.pos, positions=seen)

    def const_decl(self, seen):
        self.advance()
        name = self.name_token(seen, "constant")
        self.expect("OP", "=")
        sign = 1.0
        if self.at("OP", "-"):
            self.advance()
            sign = -1.0
        num = self.expect("NUMBER")
        self.expect("OP", ";")
        return (name.text, sign * num.value)

    def dim_decl(self, which, current):
        tok = self.advance()
        if current is not None:
            raise DuplicateDefinition(f"{which} dimension defined twice",
                                      tok.line, tok.col)
        num = self.expect("NUMBER")
        self.expect("OP", ";")
        if num.value != int(num.value) or num.value < 1:
            raise ParseError(f"{which} dimension must be a positive integer",
                             num.line, num.col)
        # the plant takes an equation per state and each leaf an expression
        # per control, so no file defines more of either than it has tokens
        if num.value > len(self.tokens):
            raise ParseError(f"{which} dimension {num.text} is more than a model "
                             f"of {len(self.tokens)} tokens can define", num.line, num.col)
        return int(num.value)

    def plant_decl(self):
        keyword = self.advance()
        self.expect("OP", "{")
        entries = []
        while not self.at("OP", "}"):
            target = self.expect("IDENT")
            self.expect("OP", "=")
            expr = self.expr()
            self.expect("OP", ";")
            entries.append((target, expr))
        self.expect("OP", "}")
        if not entries:
            raise ParseError("plant block is empty", keyword.line, keyword.col)
        return entries

    def leaf_decl(self, seen):
        self.advance()
        name = self.name_token(seen, "leaf")
        self.expect("OP", "{")
        self.expect("KEYWORD", "u")
        self.expect("OP", "=")
        self.expect("OP", "[")
        controls = self.items(self.expr, "]")
        self.expect("OP", ";")
        self.expect("KEYWORD", "status")
        self.expect("OP", "=")
        status = self.status_expr()
        self.expect("OP", ";")
        self.expect("OP", "}")
        return LeafDecl(name.text, tuple(controls), status, pos=name.pos)

    def composite_decl(self, seen):
        kind = self.advance().text
        name = self.name_token(seen, kind)
        self.expect("OP", "=")
        self.expect("OP", "[")
        children = self.items(partial(self.expect, "IDENT"), "]")
        self.expect("OP", ";")
        return CompositeDecl(
            name.text, kind, tuple(c.text for c in children), pos=name.pos,
            child_positions=tuple(c.pos for c in children))

    def name_token(self, seen, what) -> Token:
        tok = self.peek()
        if tok.kind == "KEYWORD":
            raise ParseError(f"{tok.text!r} is reserved and cannot name a {what}",
                             tok.line, tok.col)
        name = self.expect("IDENT")
        if name.text in FUNCTIONS:
            raise ParseError(
                f"{name.text!r} is a builtin function and cannot name a {what}",
                name.line, name.col)
        if name.text in seen:
            raise DuplicateDefinition(f"{name.text!r} is already defined",
                                      name.line, name.col)
        seen[name.text] = name.pos
        return name

    # ---- expressions, by precedence climbing (Pratt 1973): one operand,
    # then every binary operator that binds at least as tightly as need,
    # each right operand one level tighter, so that the chains fold left

    def expr(self, need: int = _COND) -> Expr:
        tok = self.tokens[self.i]
        kind, pos = tok.kind, (tok.line, tok.col)
        if kind == "NUMBER":
            self.i += 1
            left = Num(tok.value, pos=pos)
        elif kind == "IDENT":
            self.i += 1
            after = self.tokens[self.i]
            if tok.text in FUNCTIONS and after.kind == "OP" and after.text == "(":
                self.i += 1
                args = self.items(self.expr, ")")
                if len(args) != FUNCTIONS[tok.text]:
                    raise ModelTypeError(
                        f"{tok.text} expects {FUNCTIONS[tok.text]} argument(s), "
                        f"got {len(args)}", *pos)
                left = Call(tok.text, tuple(args), pos=pos)
            else:
                left = Var(tok.text, pos=pos)
        elif kind == "OP" and tok.text == "(":
            self.i += 1
            left = self.expr()
            self.expect("OP", ")")
        elif kind == "OP" and tok.text == "-":
            self.i += 1
            left = Neg(self.expr(_UNARY), pos=pos)
        elif kind == "KEYWORD" and tok.text in ("R", "S", "F"):
            raise ModelTypeError(f"status literal {tok.text!r} used in a real expression", *pos)
        elif kind == "KEYWORD" and tok.text == "if":
            raise ModelTypeError("status conditional used in a real expression", *pos)
        else:
            raise ParseError(f"expected an expression, found {tok.text or kind!r}", *pos)
        tok = self.tokens[self.i]
        while tok.kind == "OP" and _BINDING.get(tok.text, -1) >= need:
            self.i += 1
            left = Binary(tok.text, left, self.expr(_BINDING[tok.text] + 1),
                          pos=(tok.line, tok.col))
            tok = self.tokens[self.i]
        return left

    def items(self, read: Callable, close: str) -> list:
        """What read() returns for each item of a comma list, up to close."""
        found = [read()]
        while self.at("OP", ","):
            self.i += 1
            found.append(read())
        self.expect("OP", close)
        return found

    def predicate(self) -> Compare:
        left = self.expr()
        tok = self.peek()
        if not (tok.kind == "OP" and tok.text in COMPARATORS):
            raise ModelTypeError(
                "expected a comparison between real expressions",
                tok.line, tok.col)
        self.advance()
        right = self.expr()
        return Compare(tok.text, left, right, pos=tok.pos)

    def status_expr(self) -> StatusExpr:
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.text in ("R", "S", "F"):
            self.advance()
            return StatusLit(Status(tok.text), pos=tok.pos)
        if tok.kind == "KEYWORD" and tok.text == "if":
            self.advance()
            cond = self.predicate()
            self.expect("KEYWORD", "then")
            then = self.status_expr()
            self.expect("KEYWORD", "else")
            els = self.status_expr()
            return IfStatus(cond, then, els, pos=tok.pos)
        raise ModelTypeError(
            f"expected a status expression (R, S, F or if-then-else), "
            f"found {tok.text or tok.kind!r}", tok.line, tok.col)


def parse(source: str) -> ModelFile:
    """Parse .btm source into a ModelFile, validating names and structure."""
    parser = _Parser(tokenize(source))
    try:
        return parser.model()
    except RecursionError:  # the descent takes Python frames per nesting level
        raise ModelTypeError("expression nests too deeply", *parser.peek().pos) from None


# ------------------------------------------------------- semantic validation

def _validate(m: ModelFile, root_pos, plant_pos, positions) -> ModelFile:
    state_vars = {f"x{k}": k for k in range(m.state_dim)}
    control_vars = {f"u{k}": k for k in range(m.control_dim)}
    # positions holds every declared constant and node name, each once
    for name, pos in positions.items():
        if name in state_vars or name in control_vars:
            raise DuplicateDefinition(f"{name!r} collides with a model variable", *pos)
    consts = dict(m.constants)
    decls = {d.name: d for d in m.nodes}

    # plant: exactly one derivative per state variable, d-prefixed targets
    seen_targets = {}
    plant_entries = []
    for target, expr in m.plant:
        if not target.text.startswith("d") or target.text[1:] not in state_vars:
            raise UndeclaredIdentifier(
                f"plant target {target.text!r} is not d<state var>",
                target.line, target.col)
        var = target.text[1:]
        if var in seen_targets:
            raise DuplicateDefinition(
                f"derivative of {var!r} defined twice", target.line, target.col)
        seen_targets[var] = (target, expr)
        _check_expr(expr, state_vars, control_vars, consts, allow_control=True)
        plant_entries.append((var, expr))
    for var in state_vars:
        if var not in seen_targets:
            raise ParseError(f"plant never defines d{var}", *plant_pos)
    plant_entries.sort(key=lambda pair: state_vars[pair[0]])

    # leaves and composites
    for d in m.nodes:
        if isinstance(d, LeafDecl):
            for e in (*d.controls, d.status):
                _check_expr(e, state_vars, control_vars, consts, allow_control=False)
        else:
            for child, pos in zip(d.children, d.child_positions):
                if child not in decls:
                    raise UndeclaredIdentifier(f"unknown node {child!r}", *pos)

    # the reference graph must be a tree: every node referenced at most once,
    # counting the root declaration as a reference
    if m.root not in decls:
        raise UndeclaredIdentifier(f"unknown root node {m.root!r}", *root_pos)
    referenced = {m.root: root_pos}
    for d in m.nodes:
        if isinstance(d, CompositeDecl):
            for child, pos in zip(d.children, d.child_positions):
                if child in referenced:
                    raise NodeReusedInTree(
                        f"node {child!r} is attached to the tree twice", *pos)
                referenced[child] = pos

    return ModelFile(
        name=m.name, state_dim=m.state_dim, control_dim=m.control_dim,
        constants=m.constants, plant=tuple(plant_entries), nodes=m.nodes,
        root=m.root)


# Nesting levels an expression may have: lowering and formatting walk it
# recursively, about one Python frame per level, under Python's default
# recursion limit of 1000.
_MAX_DEPTH = 900


def _check_expr(e, sx, su, consts, allow_control: bool) -> None:
    """Check the names of a real or status expression and cap its nesting.

    Walks an explicit stack in source order, so it cannot overflow itself."""
    stack = [(e, 1)]
    while stack:
        e, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ModelTypeError(
                f"expression nests more than {_MAX_DEPTH} levels deep", *e.pos)
        kids, kind = (), type(e)
        if kind is Var:
            if e.name in su and not allow_control:
                raise UndeclaredIdentifier(
                    f"control variable {e.name!r} is only available in plant "
                    "equations", *e.pos)
            if not (e.name in sx or e.name in su or e.name in consts):
                raise UndeclaredIdentifier(f"undeclared identifier {e.name!r}", *e.pos)
        elif kind is Binary or kind is Compare:
            kids = (e.right, e.left)
        elif kind is Neg:
            kids = (e.operand,)
        elif kind is Call:
            kids = e.args[::-1]
        elif kind is IfStatus:
            kids = (e.els, e.then, e.cond)
        for k in kids:  # last to first, so that they pop in source order
            stack.append((k, depth + 1))


# ---------------------------------------------------- evaluation and folding

def evaluate_expr(e, env: Mapping):
    """Interpret any expression kind under a name -> value environment."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundIdentifier(f"unbound identifier {e.name!r}", *e.pos)
        return float(env[e.name])
    if isinstance(e, Neg):
        return -evaluate_expr(e.operand, env)
    if isinstance(e, Binary):
        a = evaluate_expr(e.left, env)
        b = evaluate_expr(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise DivisionByZero("division by zero", *e.pos)
        return a / b
    if isinstance(e, Call):
        args = [evaluate_expr(a, env) for a in e.args]
        return _FUNC_IMPLS[e.func](*args)
    if isinstance(e, Compare):
        return _COMPARE_IMPLS[e.op](evaluate_expr(e.left, env), evaluate_expr(e.right, env))
    if isinstance(e, StatusLit):
        return e.value
    if isinstance(e, IfStatus):
        return (evaluate_expr(e.then, env) if evaluate_expr(e.cond, env)
                else evaluate_expr(e.els, env))
    raise ModelTypeError(f"cannot evaluate {e!r}")


def _sgn(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _sat(v: float, limit: float) -> float:
    return min(max(v, -limit), limit)


def _dsat(v: float, limit: float, dv: float, dlimit: float) -> float:
    """Derivative of sat(v, limit) from those of v and limit: sat passes v
    strictly inside [-limit, limit] and is +-limit outside."""
    if -limit < v < limit:
        return dv
    return -dlimit if v <= -limit < limit else dlimit


# dsat is not in FUNCTIONS: only derivative writes it, no model text can
_FUNC_IMPLS = {
    "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
    "abs": abs, "sgn": _sgn, "sat": _sat, "dsat": _dsat,
}

_COMPARE_IMPLS = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


def fold_constants(e, consts: Mapping):
    """Substitute declared constants and collapse constant subtrees; a node
    that folding leaves as it is comes back itself."""
    kind = type(e)
    if kind is Num or kind is StatusLit:
        return e
    if kind is Var:
        if e.name in consts:
            return Num(float(consts[e.name]), pos=e.pos)
        return e
    if kind is Binary:
        left = fold_constants(e.left, consts)
        right = fold_constants(e.right, consts)
        if type(left) is Num and type(right) is Num:
            if e.op == "/" and right.value == 0.0:
                raise DivisionByZero("division by zero in constant expression", *e.pos)
            return Num(evaluate_expr(Binary(e.op, left, right, pos=e.pos), {}), pos=e.pos)
        if left is e.left and right is e.right:
            return e
        return Binary(e.op, left, right, pos=e.pos)
    if kind is Neg:
        inner = fold_constants(e.operand, consts)
        if type(inner) is Num:
            return Num(-inner.value, pos=e.pos)
        return e if inner is e.operand else Neg(inner, pos=e.pos)
    if kind is Call:
        args = tuple(fold_constants(a, consts) for a in e.args)
        if all(type(a) is Num for a in args):
            try:
                value = _FUNC_IMPLS[e.func](*(a.value for a in args))
            except ValueError as err:  # math domain error, e.g. sqrt(-1.0)
                raise ModelError(f"{e.func} of a constant outside its domain",
                                 *e.pos) from err
            return Num(float(value), pos=e.pos)
        if all(a is b for a, b in zip(args, e.args)):
            return e
        return Call(e.func, args, pos=e.pos)
    if kind is Compare:
        left, right = fold_constants(e.left, consts), fold_constants(e.right, consts)
        if left is e.left and right is e.right:
            return e
        return Compare(e.op, left, right, pos=e.pos)
    if kind is IfStatus:
        cond = fold_constants(e.cond, consts)
        then, els = fold_constants(e.then, consts), fold_constants(e.els, consts)
        if cond is e.cond and then is e.then and els is e.els:
            return e
        return IfStatus(cond, then, els, pos=e.pos)
    raise ModelTypeError(f"cannot fold {e!r}")


_ZERO, _ONE = Num(0.0), Num(1.0)


def _is(e, value: float) -> bool:
    return isinstance(e, Num) and e.value == value


def _negate(a, pos):
    return Num(-a.value, pos=pos) if isinstance(a, Num) else Neg(a, pos=pos)


def _arith(op: str, a, b, pos):
    """Binary(op, a, b) with zero and one terms dropped and constants folded;
    a constant divided by zero stays, to raise where it is evaluated."""
    if op in "+-" and _is(b, 0.0) or op in "*/" and _is(b, 1.0):
        return a
    if op == "+" and _is(a, 0.0) or op == "*" and _is(a, 1.0):
        return b
    if op == "-" and _is(a, 0.0):
        return _negate(b, pos)
    if op in "*/" and _is(a, 0.0) or op == "*" and _is(b, 0.0):
        return _ZERO
    if isinstance(a, Num) and isinstance(b, Num) and not (op == "/" and b.value == 0.0):
        return Num(evaluate_expr(Binary(op, a, b), {}), pos=pos)
    return Binary(op, a, b, pos=pos)


def derivative(e, var: str):
    """d e / d var of a folded real expression, itself folded.

    sin, cos and sqrt take their usual derivatives, abs' is sgn, sgn' is 0,
    sat(v, L) follows v strictly inside [-L, L] and L outside (dsat), and a
    quotient takes the quotient rule.  Zero and one terms drop out, so an
    expression that does not read var gives Num(0.0).  New nodes carry the
    position of the operation they come from, so a division by zero in a
    derivative reports that line and column.
    """
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return _negate(derivative(e.operand, var), e.pos)
    pos = e.pos
    if isinstance(e, Binary):
        a, b = e.left, e.right
        da, db = derivative(a, var), derivative(b, var)
        if e.op in "+-":
            return _arith(e.op, da, db, pos)
        if e.op == "*":
            return _arith("+", _arith("*", da, b, pos), _arith("*", a, db, pos), pos)
        if _is(db, 0.0):
            return _arith("/", da, b, pos)
        return _arith("/", _arith("-", _arith("*", da, b, pos), _arith("*", a, db, pos), pos),
                      _arith("*", b, b, pos), pos)
    a, da = e.args[0], derivative(e.args[0], var)
    if e.func == "sat":
        dlimit = derivative(e.args[1], var)
        if _is(da, 0.0) and _is(dlimit, 0.0):
            return _ZERO
        return Call("dsat", (a, e.args[1], da, dlimit), pos=pos)
    if e.func == "sgn" or _is(da, 0.0):
        return _ZERO
    if e.func == "sqrt":
        return _arith("/", da, _arith("*", Num(2.0), e, pos), pos)
    outer = {"sin": Call("cos", (a,), pos=pos), "cos": _negate(Call("sin", (a,), pos=pos), pos),
             "abs": Call("sgn", (a,), pos=pos)}[e.func]
    return _arith("*", outer, da, pos)


# ------------------------------------------------------------ code generation
#
# lower() turns each plant field, leaf controller and leaf status into one
# flat Python function: the folded expression tree becomes a single Python
# expression over the locals x0.., u0...  The state arrives as a tuple of
# floats (any sequence works) and is unpacked in one line; the field returns
# a tuple.  Operands run left to right, except that a divisor is evaluated
# and tested for zero before its dividend; sgn and sat are written out as
# conditional expressions that pick what _sgn and _sat return, the argument
# before the limit; every value is bit-identical to evaluate_expr's.  A
# subexpression that occurs again in a function is computed once, at its
# first use in evaluation order, and read from a local after that (see
# _FunctionSource).  A leaf's closed-loop RK4 step is generated from the
# same expressions, one assignment per control and field component at each
# stage, the stage state in the locals y0.. .  A guard returns one
# comparison's g and the derivatives of g, the same way.  A sliding pair's
# slide step on a guard writes both leaves' controls and fields at each
# stage, then their weighted sum, with the guard's g and gradient at x
# before the weight and in its Newton loop after the step.  Numbers are
# bound by name, one name per value, so functions share their source
# within a model and across models: _compiled compiles each distinct source
# once per process, and each function gets its own copy of the code.
#
# The source text holds only what the generator makes itself: integer
# indices and positions, operator symbols from the fixed tables below, and
# names it creates.  Every number (inf, nan and -0.0 included) is bound by
# name in the function's namespace, which holds nothing but the helpers the
# function uses; no text from the .btm file reaches the source.

# an emitted piece of source binds as _BINDING says its expression does
_ARITH = {"+": " + ", "-": " - ", "*": " * "}
_COMPARE_SYMBOLS = {"<": " < ", "<=": " <= ", ">": " > ", ">=": " >= "}
_HELPER_NAMES = {"sin": "_sin", "cos": "_cos", "sqrt": "_sqrt", "abs": "_abs", "dsat": "_dsat"}


def _division_by_zero(line: int, col: int):
    raise DivisionByZero("division by zero", line, col)


@lru_cache(maxsize=256)
def _compiled(source: str, name: str):
    """The code of source's function, kept for the 256 sources used last."""
    return compile(source, f"<btm {name}>", "exec").co_consts[0]


class _FunctionSource:
    """Source text and namespace of one generated function of a model.

    Each compound value gets a number N from its key, its operation and its
    operands' keys; a constant's key is its name, one per value, a state
    variable's its name, a control's its name and how often u0.. have been
    assigned.  A known value, one computed on every path to the point being
    emitted, is read from the local _tN.  One computed in a branch of a
    status conditional or past a divisor's zero test is known only in that
    branch, and reassigning y0.. forgets all.  A value's source lies between
    the markers of its number, which function() turns into `(_tN := ` and
    `)` where a read of N is left, and drops elsewhere.
    """

    def __init__(self, sx: Mapping, su: Mapping):
        self.sx, self.su = sx, su
        self.ns: dict = {"__builtins__": {}}
        self.state = "x"  # name prefix of the locals holding the state
        self.uses_state = False
        self.controls_used: set = set()
        self.constants: dict = {}  # value -> name, a zero by its repr
        self.controls_set = 0  # assignments to the locals u0.. so far
        self.numbers: dict = {}  # key -> number of each compound value
        self.known: set = set()  # numbers of the values computed on every path to here
        self.reads: list = []  # numbers of the values read from their locals
        self.key = None  # key of the expression real() emitted last
        self.tops: list = []  # (source, position) of each whole expression
        self.source = ""

    def helper(self, name: str, value) -> str:
        self.ns[name] = value
        return name

    def constant(self, value: float) -> str:
        key = value or repr(value)  # 0.0 and -0.0 apart
        name = self.constants.get(key)
        if name is None:
            name = self.constants[key] = f"_k{len(self.constants):d}"
            self.ns[name] = value
        return name

    def assign(self, prefix: str) -> None:
        """The locals prefix0.. (y or u) take new values: no value read from
        them before is reused after."""
        if prefix == "y":
            self.known.clear()
        else:
            self.controls_set += 1

    def real(self, e, need: int = _COND) -> str:
        """Source of a folded real expression, parenthesized unless it
        binds at least as tightly as need; self.key is then its key."""
        kind = type(e)
        if kind is Num:
            self.key = text = self.constant(e.value)
            return text
        if kind is Var:
            if e.name in self.sx:
                self.uses_state = True
                self.key = text = f"{self.state}{self.sx[e.name]:d}"
            elif e.name in self.su:
                j = self.su[e.name]
                self.controls_used.add(j)
                text = f"u{j:d}"
                self.key = (text, self.controls_set)
            else:
                raise UnboundIdentifier(f"unbound identifier {e.name!r}", *e.pos)
            return text
        mark = len(self.reads)
        if kind is Binary and e.op != "/":
            symbol, strength = _ARITH[e.op], _BINDING[e.op]
            # the right operand binds one level tighter, so a - (b - c) and
            # a + (b + c) keep their grouping
            left, kl = self.real(e.left, strength), self.key
            text = left + symbol + self.real(e.right, strength + 1)
            key = (e.op, kl, self.key)
        elif kind is Binary:
            text, strength, key = self.divide(e)
        elif kind is Neg:
            text, strength = "-" + self.real(e.operand, _UNARY), _UNARY
            key = ("-", self.key)
        elif kind is Call and e.func in ("sgn", "sat"):
            (text, key), strength = getattr(self, e.func)(*e.args), _COND
        elif kind is Call:
            fn = self.helper(_HELPER_NAMES[e.func], _FUNC_IMPLS[e.func])
            args, key = [], [e.func]
            for a in e.args:
                args.append(self.real(a))
                key.append(self.key)
            text, strength, key = f"{fn}({', '.join(args)})", _ATOM, tuple(key)
        else:
            raise ModelTypeError(f"cannot compile {e!r} as a real expression")
        return self.value(key, text if strength >= need else f"({text})", mark)

    def value(self, key, text: str, mark: int) -> str:
        """text between the markers of key's number, or the local that holds
        the value when it is known, in place of text and of the reads made
        since mark; self.key becomes the number."""
        n = self.key = self.numbers.setdefault(key, len(self.numbers))
        if n in self.known:
            del self.reads[mark:]
            self.reads.append(n)
            return f"_t{n:d}"
        self.known.add(n)
        return f"\x01{n:d}\x01{text}\x02{n:d}\x02"

    def local(self, e) -> tuple:
        """(source of e, a name that reads its value after that source)."""
        text = self.real(e)
        if isinstance(self.key, int):  # a compound value: its local
            self.reads.append(self.key)
            return text, f"_t{self.key:d}"
        return text, text

    def divide(self, e: Binary) -> tuple:
        """(source, binding strength, key) of a division."""
        den = e.right
        if isinstance(den, Num) and den.value != 0.0:
            left = self.real(e.left, _MUL)
            key = ("/", self.key, self.constant(den.value))
            return f"{left} / {key[2]}", _MUL, key
        fail = (f"{self.helper('_divz', _division_by_zero)}"
                f"({int(e.pos[0]):d}, {int(e.pos[1]):d})")
        if isinstance(den, Num):
            return fail, _ATOM, fail
        test, name = self.local(den)
        divisor, known = self.key, self.known
        self.known = set(known)  # the dividend runs only past the test
        left = self.real(e.left, _MUL)
        self.known = known
        return f"{fail} if not {test} else {left} / {name}", _COND, ("/", self.key, divisor)

    def sgn(self, v) -> tuple:
        """(source, key) of sgn(v): what _sgn returns, -0.0 and nan giving 0.0."""
        test, name = self.local(v)
        one, zero, minus = self.constant(1.0), self.constant(0.0), self.constant(-1.0)
        return (f"{one} if {test} > {zero} else {minus} if {name} < {zero} else {zero}",
                ("sgn", self.key))

    def sat(self, v, limit) -> tuple:
        """(source, key) of sat(v, limit): the operand _sat's
        min(max(v, -limit), limit) returns, v evaluated first."""
        test, name = self.local(v)
        kv = self.key
        if isinstance(limit, Num):
            bound_test = bound = kl = self.constant(limit.value)
            low_test = low = self.constant(-limit.value)
        else:
            bound_test, bound = self.local(limit)
            kl, low_test, low = self.key, "-" + bound_test, "-" + bound
        high = self.value(("max", kv, kl), f"{low} if {test} < {low_test} else {name}",
                          len(self.reads))
        self.reads.append(self.key)
        return f"{bound} if {high} > {bound} else _t{self.key:d}", ("sat", kv, kl)

    def status(self, s, need: int = _COND) -> str:
        """Source of a folded status expression, parenthesized like real."""
        if type(s) is StatusLit:  # _R, _S or _F
            return self.helper(f"_{s.value.value}", s.value)
        c = s.cond
        test = f"{self.real(c.left, _ADD)}{_COMPARE_SYMBOLS[c.op]}{self.real(c.right, _ADD)}"
        # each branch runs only past the test; a literal computes nothing
        known = self.known
        self.known = set(known) if type(s.then) is IfStatus else known
        then = self.status(s.then, _ADD)
        self.known = set(known) if type(s.els) is IfStatus else known
        els = self.status(s.els)
        self.known = known
        text = f"{then} if {test} else {els}"
        return text if need == _COND else f"({text})"

    def top(self, e) -> str:
        """Source of one whole real or status expression of the function."""
        generate = self.status if isinstance(e, (StatusLit, IfStatus)) else self.real
        try:
            text = generate(e)
        except RecursionError:  # a division takes two frames per level
            raise ModelTypeError(
                "expression nests too deeply to compile", *e.pos) from None
        self.tops.append((text, e.pos))
        return text

    def prologue(self) -> list:
        """Lines binding the variables the expressions so far read from the
        parameters x and u."""
        lines = []
        if self.uses_state:
            lines.append(f"{_tuple_items([f'x{k:d}' for k in range(len(self.sx))])} = x")
        return lines + [f"u{j:d} = u[{j:d}]" for j in sorted(self.controls_used)]

    def function(self, name: str, params: str, body: list) -> Callable:
        """`def name(params):` over the body lines, compiled by _compiled."""
        source = "\n    ".join([f"def {name}({params}):", *body]) + "\n"
        # two passes per value read, on every function, compiled or not: 2.5 ms over
        # region_audit's bank (1,632 functions) against 4.4 ms for one re.sub pass
        for n in set(self.reads):
            source = source.replace(f"\x01{n:d}\x01", f"(_t{n:d} := ")
            source = source.replace(f"\x02{n:d}\x02", ")")
        for end in "\x01\x02":  # what is left is the markers \x01N\x01, \x02N\x02 no read needs
            source = "".join(source.split(end)[::2])
        self.source = source
        try:
            code = _compiled(source, name)
        except (SyntaxError, RecursionError, MemoryError) as err:
            # Python caps the nesting depth of one expression (200 open
            # parentheses in the tokenizer, and its parser's stack, which
            # overflows as a MemoryError); blame the most deeply nested one
            _, pos = max(self.tops, key=lambda top: max(
                accumulate((c == "(") - (c == ")") for c in top[0])))
            raise ModelTypeError(
                f"a {name} expression nests too deeply to compile", *pos) from err
        # a copy per function: functions that share one code object share
        # its inline caches, which thrash over different namespaces
        return FunctionType(code.replace(), self.ns, name)


def _tuple_items(items: list) -> str:
    """Comma-joined items, with the trailing comma a single item needs."""
    return items[0] + "," if len(items) == 1 else ", ".join(items)


def _tuple_function(name: str, params: str, exprs, sx: Mapping, su: Mapping) -> Callable:
    """A generated function returning the tuple of exprs: field or controller."""
    g = _FunctionSource(sx, su)
    result = _tuple_items([g.top(e) for e in exprs])
    return g.function(name, params, [*g.prologue(), f"return ({result})"])


def _status_function(s, sx: Mapping) -> Callable:
    g = _FunctionSource(sx, {})
    result = g.top(s)
    return g.function("status", "x", [*g.prologue(), f"return {result}"])


def _status_nodes(s):
    """The nodes of a status expression in pre-order, each then branch
    before its else branch: the order of its guards."""
    stack = [s]
    while stack:
        s = stack.pop()
        yield s
        if type(s) is IfStatus:
            stack += (s.els, s.then)


def _guard_function(c: Compare, sx: Mapping) -> Callable:
    """guard(x) -> (g, grad g) for the comparison c: g = left - right, whose
    sign gives c's truth, and its derivatives in x0.. order."""
    g = _arith("-", c.left, c.right, c.pos)
    gen = _FunctionSource(sx, {})
    try:
        value = gen.top(g)
        grad = _tuple_items([gen.top(derivative(g, name)) for name in sx])
    except RecursionError:
        raise ModelTypeError("comparison nests too deeply to differentiate",
                             *c.pos) from None
    return gen.function("guard", "x", [*gen.prologue(), f"return {value}, ({grad})"])


class _LeafGuards:
    """LeafBehavior.guards of a lowered leaf: one guard per comparison of
    its folded status, built by the first iteration, since many lowered
    trees never slide, and registered with its comparison for the model's
    slide steps; _compiled shares its code across models.  metadata is the
    status function lowered from that status, so a generated walk inlines
    the status of a leaf whose metadata it is."""

    __slots__ = ("status", "metadata", "sx", "comparisons", "compiled")

    def __init__(self, status, metadata, sx: Mapping, comparisons: dict):
        self.status, self.metadata, self.sx = status, metadata, sx
        self.comparisons = comparisons  # the model's, guard -> its comparison
        self.compiled = None

    def __iter__(self):
        if self.compiled is None:
            found = [s.cond for s in _status_nodes(self.status) if type(s) is IfStatus]
            self.compiled = tuple(_guard_function(c, self.sx) for c in found)
            self.comparisons.update(zip(self.compiled, found))
        return iter(self.compiled)


def _walk_function(bt: BehaviorTree) -> Callable:
    """walk(x) -> (root status, active leaf id), core._walk over bt's whole
    row table as one generated function, for a state of bt.state_dim floats.

    The rows follow in row order, since every jump goes forward.  A row
    that every path not yet ended jumps to runs unguarded, any other under
    `if n == row:`, so the nesting is the same at every tree depth.  A row
    whose metadata is, by identity, the status function lowered for that
    leaf evaluates the folded status inline, reusing each value computed
    on every path into the row; any other metadata is called by name.  The
    status then jumps, n = next row, or returns its prebuilt (status, leaf)
    tuple; a called status that is neither Success nor Failure is returned
    as it came, so a value that is not a Status ends the walk as in _walk.
    """
    rows, stop = bt._rows, len(bt._rows)
    sx = {f"x{k:d}": k for k in range(bt.state_dim)}
    g = _FunctionSource(sx, {})
    tests = {Status.SUCCESS: f"s is {g.helper('_S', Status.SUCCESS)}",
             Status.FAILURE: f"s is {g.helper('_F', Status.FAILURE)}"}
    entry = {0: set()}  # row jumped to -> values computed on every path into it
    body = []
    for row, (metadata, on_success, on_failure, leaf) in enumerate(rows):
        if row not in entry:  # no jump lands here
            continue
        g.known = entry.pop(row)
        guarded = bool(entry)  # a path not yet ended waits for a later row
        if guarded:
            body.append(f"if n == {row:d}:")
        guards = bt.nodes[leaf].behavior.guards
        inline = (type(guards) is _LeafGuards and guards.metadata is metadata
                  and guards.sx == sx)
        lines = []
        if not inline:
            lines.append(f"s = {g.helper(f'_m{row:d}', metadata)}(x)")
        elif type(guards.status) is IfStatus:
            lines.append(f"s = {g.top(guards.status)}")

        def act(status, target):
            if target >= stop:
                return f"return {g.helper(f'_r{row:d}{status.value}', (status, leaf))}"
            entry[target] = entry[target] & g.known if target in entry else set(g.known)
            return f"n = {target:d}"

        outcomes = ({s.value for s in _status_nodes(guards.status) if type(s) is StatusLit}
                    if inline else tests)
        cases = [(tests[status], act(status, target))
                 for status, target in ((Status.SUCCESS, on_success),
                                        (Status.FAILURE, on_failure)) if status in outcomes]
        if not inline:
            last = f"return s, {leaf:d}"
        elif Status.RUNNING in outcomes:
            last = act(Status.RUNNING, stop)
        else:
            last = cases.pop()[1]
        for k, (test, action) in enumerate(cases):
            lines += [f"{'el' if k else ''}if {test}:", f"    {action}"]
        lines += ["else:", f"    {last}"] if cases else [last]
        body += [f"    {line}" for line in lines] if guarded else lines
    return g.function("walk", "x", [*g.prologue(), *body])


def _rk4_lines(g: _FunctionSource, derivatives, control_sets, weigh=None) -> tuple:
    """(body lines, result component sources) of one RK4 step from x0..
    over h of the closed loop of one control set, or of the Filippov blend
    w*f(y, ua(y)) + (1 - w)*f(y, ub(y)) of two, whose weight w the lines
    weigh() returns set after stage 1's fields.  The arithmetic is
    executor._rk4's, in its order, so every value and error is the same:
    at each stage each set's controls, then its field components, then
    k = w*ka + v*kb with v = 1 - w; y = x + s*k; and
    x + (h/6)*(k1 + 2*k2 + 2*k3 + k4).  A value repeated within a stage,
    across the two sets of a blend too, is computed once; none read from
    y0.. or u0.. is reused past a reassignment of those locals."""
    n = range(len(g.sx))
    half, two, six = g.constant(0.5), g.constant(2.0), g.constant(6.0)
    body = [f"{_tuple_items([f'x{i:d}' for i in n])} = x", f"h2 = {half} * h"]
    blend = len(control_sets) == 2
    for stage, along in ((1, "h2"), (2, "h2"), (3, "h"), (4, None)):
        for part, controls in zip(("a", "b") if blend else ("",), control_sets):
            body += [f"u{j:d} = {g.top(e)}" for j, e in enumerate(controls)]
            g.assign("u")
            body += [f"k{part}{stage:d}_{i:d} = {g.top(e)}" for i, e in zip(n, derivatives)]
        if blend:
            if stage == 1:
                body += [*weigh(), f"v = {g.constant(1.0)} - w"]
            body += [f"k{stage:d}_{i:d} = w * ka{stage:d}_{i:d} + v * kb{stage:d}_{i:d}"
                     for i in n]
        if along is not None:
            body += [f"y{i:d} = x{i:d} + {along} * k{stage:d}_{i:d}" for i in n]
            g.state = "y"
            g.assign("y")
    body.append(f"h6 = h / {six}")
    return body, [f"x{i:d} + h6 * (k1_{i:d} + {two} * k2_{i:d} + {two} * k3_{i:d} + k4_{i:d})"
                  for i in n]


def _step_function(derivatives, control_sets, sx: Mapping, su: Mapping) -> Callable:
    """step(x, h): one classic RK4 step of a leaf's closed loop
    xdot = f(x, u(x)), its one control set inlined (see _rk4_lines)."""
    g = _FunctionSource(sx, su)
    body, result = _rk4_lines(g, derivatives, control_sets)
    return g.function("step", "x, h", [*body, f"return ({_tuple_items(result)})"])


def _slide_function(derivatives, control_sets, c: Compare, sx: Mapping,
                    su: Mapping) -> Callable:
    """slide(x, h, t, tol): executor._guarded_slide for the pair of leaves
    with these control expressions on the guard of the comparison c, the
    fields, the guard and its gradient inlined, with the same floats and
    errors: sum(map(mul, a, b)) is written 0.0 + a0*b0 + ..., and
    min(max(alpha, 0.0), 1.0) and check_finite's quick pass as
    conditionals."""
    # imported at the first build, not with this module: a module-level import
    # read about 1.3 MB more peak_rss_mb in bench/run.py, which imports ctbt
    # afresh for each of its set-ups
    from .executor import _NEWTON_STEPS, _OVERFLOW, _SLIDING_EPS, check_finite, slide_failure

    g = _FunctionSource(sx, su)
    n = range(len(sx))
    surface = _arith("-", c.left, c.right, c.pos)
    gradient = [derivative(surface, name) for name in sx]
    zero, one = g.constant(0.0), g.constant(1.0)
    hypot, fail = g.helper("_hypot", math.hypot), g.helper("_fail", slide_failure)

    def items(name: str) -> str:
        return _tuple_items([f"{name}{i:d}" for i in n])

    def dot(a: str, b: str) -> str:
        return " + ".join([zero, *(f"{a}{i:d} * {b}{i:d}" for i in n)])

    def guard(assign: str) -> list:  # g, then grad g in d0.., at the current state
        return [assign + g.top(surface), *(f"d{i:d} = {g.top(e)}" for i, e in zip(n, gradient))]

    def weigh() -> list:  # g at x only for its errors, as guard(x) evaluates it
        return guard("") + [
            f"norm = {hypot}({items('d')})", f"if norm == {zero}:", f"    {fail}(0, t)",
            *(f"n{i:d} = d{i:d} / norm" for i in n),
            f"nb = {dot('n', 'kb1_')}", f"den = nb - ({dot('n', 'ka1_')})",
            f"if {g.helper('_abs', abs)}(den) < {g.constant(1e-12)} * {g.helper('_max', max)}"
            f"({one}, {hypot}({items('ka1_')}), {hypot}({items('kb1_')})):", f"    {fail}(1, t)",
            "alpha = nb / den",
            f"if alpha < {g.constant(-_SLIDING_EPS)} or alpha > {g.constant(1.0 + _SLIDING_EPS)}:",
            "    return None",
            f"w = {zero} if {zero} > alpha else alpha", f"w = {one} if {one} < w else w"]

    body, result = _rk4_lines(g, derivatives, control_sets, weigh)
    quick = [f"if not {hypot}({items('y')}) <= {g.constant(_OVERFLOW)}:",
             f"    {g.helper('_check', check_finite)}(({items('y')}))"]
    body += [f"y{i:d} = {r}" for i, r in enumerate(result)] + quick
    g.assign("y")
    newton = guard("gv = ") + [
        f"gg = {dot('d', 'd')}", f"if gg == {zero}:", f"    {fail}(2, t + h)", "s = -gv / gg",
        *(f"y{i:d} = y{i:d} + s * d{i:d}" for i in n), "if gv * gv <= tol * tol * gg:", "    break"]
    body += [f"for _ in {g.helper('_newton', range(_NEWTON_STEPS))}:",
             *(f"    {line}" for line in newton), *quick, f"return ({items('y')})"]
    return g.function("slide", "x, h, t, tol", body)


class _ClosedLoopSteps:
    """Plant.steps of a lowered model: get((field, controller)) is that
    leaf's generated step and get((field, ca, cb, guard)) the sliding
    pair's slide step on a guard of the model, each built by the first get
    of its key, since many lowered trees are never integrated and most
    pairs never slide; _compiled shares its code across models.  controls
    holds every leaf controller's folded control expressions, comparisons
    the comparison of every guard."""

    def __init__(self, field, derivatives, sx: Mapping, su: Mapping):
        self.field, self.derivatives, self.sx, self.su = field, derivatives, sx, su
        self.controls: dict = {}  # leaf controller -> its control expressions
        self.comparisons: dict = {}  # guard -> the comparison it was compiled from
        self.compiled: dict = {}

    def get(self, key, default=None):
        step = self.compiled.get(key)
        if step is None:
            field, *controllers = key
            comparison = self.comparisons.get(controllers.pop()) if len(key) == 4 else None
            if (field is not self.field or len(controllers) != 1 + (comparison is not None)
                    or not all(c in self.controls for c in controllers)):
                return default
            sets = [self.controls[c] for c in controllers]
            step = self.compiled[key] = (
                _step_function(self.derivatives, sets, self.sx, self.su)
                if comparison is None else _slide_function(
                    self.derivatives, sets, comparison, self.sx, self.su))
        return step


@dataclass(frozen=True)
class LoweredModel:
    name: str
    bt: BehaviorTree
    plant: Plant
    model: ModelFile


def lower(m: ModelFile) -> LoweredModel:
    """Compile a parsed model into a BehaviorTree plus Plant.

    Node ids are assigned in pre-order from the root, matching the textbook
    figures.  Constants are folded, then the plant field, every leaf
    controller and every leaf status become one generated function each.
    """
    consts = dict(m.constants)
    sx = {f"x{k}": k for k in range(m.state_dim)}
    su = {f"u{k}": k for k in range(m.control_dim)}
    decls = {d.name: d for d in m.nodes}

    field_exprs = [fold_constants(e, consts) for _, e in m.plant]
    plant_field = _tuple_function("field", "x, u", field_exprs, sx, su)
    steps = _ClosedLoopSteps(plant_field, field_exprs, sx, su)
    plant = Plant(m.state_dim, m.control_dim, plant_field, steps)

    # names in pre-order from the root, which _validate makes a tree, so
    # the walk ends; a node's id is its place in that order.  Leaves are
    # built as they are reached, each composite after its children.
    order, built, stack = [], {}, [m.root]
    while stack:
        decl = decls[stack.pop()]
        if isinstance(decl, LeafDecl):
            if len(decl.controls) != m.control_dim:
                raise _ControlCountMismatch(
                    f"leaf {decl.name!r} defines {len(decl.controls)} control "
                    f"component(s), model declares {m.control_dim}", *decl.pos)
            controls = [fold_constants(e, consts) for e in decl.controls]
            controller = _tuple_function("controller", "x", controls, sx, {})
            steps.controls[controller] = controls
            status = fold_constants(decl.status, consts)
            metadata = _status_function(status, sx)
            behavior = LeafBehavior(
                controller=controller, metadata=metadata, label=decl.name,
                guards=_LeafGuards(status, metadata, sx, steps.comparisons))
            built[decl.name] = Leaf(len(order), behavior)
        else:
            stack += reversed(decl.children)
        order.append(decl)
    for nid in reversed(range(len(order))):
        decl = order[nid]
        if isinstance(decl, CompositeDecl):
            cls = Sequence if decl.kind == "seq" else Fallback
            built[decl.name] = cls(nid, tuple(built[c] for c in decl.children))
    bt = BehaviorTree(built[m.root], state_dim=m.state_dim)
    return LoweredModel(name=m.name, bt=bt, plant=plant, model=m)


def load(path) -> LoweredModel:
    """Lower the model file at path; a byte that is not UTF-8 is a LexError."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        source = fh.read()
    if bad := re.search("[\udc80-\udcff]", source):  # surrogateescape's bad bytes
        at = bad.start()
        raise LexError(f"byte 0x{ord(bad[0]) - 0xdc00:02x} is not UTF-8",
                       source.count("\n", 0, at) + 1, at - source.rfind("\n", 0, at))
    return lower(parse(source))


def bundled_model_dir() -> Path:
    return Path(__file__).resolve().parent / "models"


def resolve_model_path(arg) -> Path:
    """Resolve a model argument: an existing path, or the name of a bundled
    model, with or without its .btm."""
    p = Path(arg)
    if p.exists():
        return p
    if p.parent == Path("."):
        for name in (p.name, f"{p.name}.btm"):
            if (candidate := bundled_model_dir() / name).exists():
                return candidate
    raise FileNotFoundError(f"no such model file: {arg}")


# ------------------------------------------------------------ pretty printer

def format_model(m: ModelFile) -> str:
    """Canonical textual form; parse(format_model(m)) equals m structurally."""
    out = [f'model "{m.name}" {{']
    out.append(f"  state {m.state_dim};")
    out.append(f"  control {m.control_dim};")
    for name, value in m.constants:
        out.append(f"  const {name} = {_num(value)};")
    out.append("  plant {")
    for var, expr in m.plant:
        out.append(f"    d{var} = {format_expr(expr)};")
    out.append("  }")
    for d in m.nodes:
        if isinstance(d, LeafDecl):
            us = ", ".join(format_expr(e) for e in d.controls)
            out.append(f"  leaf {d.name} {{")
            out.append(f"    u = [{us}];")
            out.append(f"    status = {format_status(d.status)};")
            out.append("  }")
        else:
            kids = ", ".join(d.children)
            out.append(f"  {d.kind} {d.name} = [{kids}];")
    out.append(f"  root = {m.root};")
    out.append("}")
    return "\n".join(out) + "\n"


def _num(v: float) -> str:
    return repr(float(v))


def format_expr(e, parent_prec: int = _COND) -> str:
    """Source text of e, parenthesized unless it binds at least as tightly as
    parent_prec (the code generator's binding strengths)."""
    if isinstance(e, Num):
        return f"({_num(e.value)})" if e.value < 0 and parent_prec >= _UNARY else _num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        # a minus right under a minus needs no parentheses: --x0 parses as
        # two minuses
        nested = isinstance(e.operand, Neg)
        inner = f"-{format_expr(e.operand, _COND if nested else _UNARY)}"
        return f"({inner})" if parent_prec >= _UNARY else inner
    if isinstance(e, Binary):
        prec = _BINDING[e.op]
        left = format_expr(e.left, prec)
        # the right operand binds one level tighter, as in the code
        # generator, so a - (b - c) and a + (b + c) keep their grouping
        right = format_expr(e.right, prec + 1)
        text = f"{left} {e.op} {right}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(e, Call):
        return f"{e.func}({', '.join(format_expr(a) for a in e.args)})"
    raise ModelTypeError(f"cannot format {e!r}")


def format_status(s) -> str:
    if isinstance(s, StatusLit):
        return s.value.value
    cond = f"{format_expr(s.cond.left)} {s.cond.op} {format_expr(s.cond.right)}"
    return f"if {cond} then {format_status(s.then)} else {format_status(s.els)}"
