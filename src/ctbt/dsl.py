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
[-L, L].  Parsing is LL(1) recursive descent; every error carries the line
and column of the offending token.

lower() folds constants and compiles the plant field, each leaf controller
and each leaf status to one flat generated Python function (see "code
generation" below); evaluate_expr is the reference interpreter they match
bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
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


# One alternative per token class, tried in order; the lower-case classes
# are layout or errors.  Digits are ASCII only.
_LEXEME = re.compile(r"""
    (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<newline>\n)
  | (?P<malformed>[0-9]+(?:\.(?![0-9])|(?:\.[0-9]+)?[eE](?![+-]?[0-9])))
  | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | "(?P<STRING>[^"\n]*)"
  | (?P<unterminated>")
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<OP><=|>=|[<>=+\-*/()\[\]{},;])
  | (?P<unexpected>.)
""", re.VERBOSE)

_LEX_ERRORS = {"malformed": "malformed number", "unterminated": "unterminated string",
               "unexpected": "unexpected character {!r}"}


def tokenize(source: str) -> list:
    tokens = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(source):
        kind = m.lastgroup
        text, col = m[kind], m.start() - line_start + 1
        if kind == "IDENT" and not (text[0].isalpha() or text[0] == "_"):
            kind, text = "unexpected", text[0]  # a numeral such as '²'
        elif kind == "IDENT" and text in KEYWORDS:
            kind = "KEYWORD"
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind in _LEX_ERRORS:
            raise LexError(_LEX_ERRORS[kind].format(text), line, col)
        elif kind == "NUMBER":
            value = float(text)
            if value == math.inf:
                raise LexError("number out of range", line, col)
            tokens.append(Token(kind, text, line, col, value))
        elif kind != "skip":
            tokens.append(Token(kind, text, line, col))
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
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
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {tok.text or tok.kind!r}",
                tok.line, tok.col)
        return self.advance()

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
        return int(num.value)

    def plant_decl(self):
        self.advance()
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
            raise ParseError("plant block is empty", self.peek().line, self.peek().col)
        return entries

    def leaf_decl(self, seen):
        self.advance()
        name = self.name_token(seen, "leaf")
        self.expect("OP", "{")
        self.expect("KEYWORD", "u")
        self.expect("OP", "=")
        self.expect("OP", "[")
        controls = [self.expr()]
        while self.at("OP", ","):
            self.advance()
            controls.append(self.expr())
        self.expect("OP", "]")
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
        children = [self.expect("IDENT")]
        while self.at("OP", ","):
            self.advance()
            children.append(self.expect("IDENT"))
        self.expect("OP", "]")
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

    # ---- expressions (precedence: additive < multiplicative < unary < atom)

    def expr(self) -> Expr:
        left = self.term()
        while self.at("OP", "+") or self.at("OP", "-"):
            op = self.advance()
            left = Binary(op.text, left, self.term(), pos=op.pos)
        return left

    def term(self) -> Expr:
        left = self.unary()
        while self.at("OP", "*") or self.at("OP", "/"):
            op = self.advance()
            left = Binary(op.text, left, self.unary(), pos=op.pos)
        return left

    def unary(self) -> Expr:
        if self.at("OP", "-"):
            op = self.advance()
            return Neg(self.unary(), pos=op.pos)
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(tok.value, pos=tok.pos)
        if tok.kind == "IDENT":
            self.advance()
            if tok.text in FUNCTIONS and self.at("OP", "("):
                self.advance()
                args = [self.expr()]
                while self.at("OP", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect("OP", ")")
                if len(args) != FUNCTIONS[tok.text]:
                    raise ModelTypeError(
                        f"{tok.text} expects {FUNCTIONS[tok.text]} argument(s), "
                        f"got {len(args)}", tok.line, tok.col)
                return Call(tok.text, tuple(args), pos=tok.pos)
            return Var(tok.text, pos=tok.pos)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect("OP", ")")
            return inner
        if tok.kind == "KEYWORD" and tok.text in ("R", "S", "F"):
            raise ModelTypeError(
                f"status literal {tok.text!r} used in a real expression",
                tok.line, tok.col)
        if tok.kind == "KEYWORD" and tok.text == "if":
            raise ModelTypeError(
                "status conditional used in a real expression", tok.line, tok.col)
        raise ParseError(f"expected an expression, found {tok.text or tok.kind!r}",
                         tok.line, tok.col)

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

    # cap the tree's depth, walking it from the root on an explicit stack;
    # the check above makes the part reachable from the root a tree, so the
    # walk ends
    stack = [(m.root, 1)]
    while stack:
        name, depth = stack.pop()
        d = decls[name]
        if isinstance(d, CompositeDecl):
            if depth == _MAX_TREE_DEPTH:
                raise ModelTypeError(
                    f"tree nests more than {_MAX_TREE_DEPTH} levels deep",
                    *d.child_positions[0])
            stack += [(child, depth + 1) for child in d.children]

    return ModelFile(
        name=m.name, state_dim=m.state_dim, control_dim=m.control_dim,
        constants=m.constants, plant=tuple(plant_entries), nodes=m.nodes,
        root=m.root)


# Levels a model tree may have, root to deepest leaf: lower takes two Python
# frames per level, BehaviorTree and the delegation walk one each, and 200
# levels leave over half of Python's default recursion limit of 1000 to
# their callers.
_MAX_TREE_DEPTH = 200

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
        kids = ()
        if isinstance(e, Var):
            if e.name in su and not allow_control:
                raise UndeclaredIdentifier(
                    f"control variable {e.name!r} is only available in plant "
                    "equations", *e.pos)
            if not (e.name in sx or e.name in su or e.name in consts):
                raise UndeclaredIdentifier(f"undeclared identifier {e.name!r}", *e.pos)
        elif isinstance(e, Neg):
            kids = (e.operand,)
        elif isinstance(e, (Binary, Compare)):
            kids = (e.left, e.right)
        elif isinstance(e, Call):
            kids = e.args
        elif isinstance(e, IfStatus):
            kids = (e.cond, e.then, e.els)
        stack += [(k, depth + 1) for k in reversed(kids)]


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


_FUNC_IMPLS = {
    "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
    "abs": abs, "sgn": _sgn, "sat": _sat,
}

_COMPARE_IMPLS = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


def fold_constants(e, consts: Mapping):
    """Substitute declared constants and collapse constant subtrees."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        if e.name in consts:
            return Num(float(consts[e.name]), pos=e.pos)
        return e
    if isinstance(e, Neg):
        inner = fold_constants(e.operand, consts)
        if isinstance(inner, Num):
            return Num(-inner.value, pos=e.pos)
        return Neg(inner, pos=e.pos)
    if isinstance(e, Binary):
        left = fold_constants(e.left, consts)
        right = fold_constants(e.right, consts)
        if isinstance(left, Num) and isinstance(right, Num):
            if e.op == "/" and right.value == 0.0:
                raise DivisionByZero("division by zero in constant expression", *e.pos)
            return Num(evaluate_expr(Binary(e.op, left, right, pos=e.pos), {}), pos=e.pos)
        return Binary(e.op, left, right, pos=e.pos)
    if isinstance(e, Call):
        args = tuple(fold_constants(a, consts) for a in e.args)
        if all(isinstance(a, Num) for a in args):
            try:
                value = _FUNC_IMPLS[e.func](*(a.value for a in args))
            except ValueError as err:  # math domain error, e.g. sqrt(-1.0)
                raise ModelError(f"{e.func} of a constant outside its domain",
                                 *e.pos) from err
            return Num(float(value), pos=e.pos)
        return Call(e.func, args, pos=e.pos)
    if isinstance(e, Compare):
        return Compare(e.op, fold_constants(e.left, consts),
                       fold_constants(e.right, consts), pos=e.pos)
    if isinstance(e, StatusLit):
        return e
    if isinstance(e, IfStatus):
        return IfStatus(fold_constants(e.cond, consts),
                        fold_constants(e.then, consts),
                        fold_constants(e.els, consts), pos=e.pos)
    raise ModelTypeError(f"cannot fold {e!r}")


# ------------------------------------------------------------ code generation
#
# lower() turns each plant field, leaf controller and leaf status into one
# flat Python function: the folded expression tree becomes a single Python
# expression over the locals x0.., u0.., compiled once.  The state arrives
# as a tuple of floats (any sequence works) and is unpacked in one line;
# the field returns a tuple.  Operands run left to right, except that a
# divisor is evaluated and tested for zero before its dividend; every value
# is bit-identical to evaluate_expr's.
#
# The source text holds only what the generator makes itself: integer
# indices and positions, operator symbols from the fixed tables below, and
# names it creates.  Every number (inf, nan and -0.0 included) is bound by
# name in the function's namespace, which holds nothing but the helpers the
# function uses; no text from the .btm file reaches the source.

# binding strength of an emitted piece of source, loosest first
_COND, _ADD, _MUL, _UNARY, _ATOM = range(5)

_ARITH = {"+": (" + ", _ADD), "-": (" - ", _ADD), "*": (" * ", _MUL)}
_COMPARE_SYMBOLS = {"<": " < ", "<=": " <= ", ">": " > ", ">=": " >= "}
_HELPER_NAMES = {"sin": "_sin", "cos": "_cos", "sqrt": "_sqrt", "abs": "_abs",
                 "sgn": "_sgn", "sat": "_sat"}
_STATUS_NAMES = {Status.RUNNING: "_R", Status.SUCCESS: "_S", Status.FAILURE: "_F"}


def _division_by_zero(line: int, col: int):
    raise DivisionByZero("division by zero", line, col)


class _FunctionSource:
    """Source text and namespace of one generated function."""

    def __init__(self, sx: Mapping, su: Mapping):
        self.sx = sx
        self.su = su
        self.ns: dict = {"__builtins__": {}}
        self.uses_state = False
        self.controls_used: set = set()
        self.constants = 0
        self.temps = 0
        self.tops: list = []  # (source, position) of each whole expression
        self.source = ""

    def helper(self, name: str, value) -> str:
        self.ns[name] = value
        return name

    def constant(self, value: float) -> str:
        name = f"_k{self.constants:d}"
        self.constants += 1
        self.ns[name] = value
        return name

    def real(self, e, need: int = _COND) -> str:
        """Source of a folded real expression, parenthesized unless it
        binds at least as tightly as need."""
        if isinstance(e, Num):
            return self.constant(e.value)
        if isinstance(e, Var):
            if e.name in self.sx:
                self.uses_state = True
                return f"x{self.sx[e.name]:d}"
            if e.name in self.su:
                j = self.su[e.name]
                self.controls_used.add(j)
                return f"u{j:d}"
            raise UnboundIdentifier(f"unbound identifier {e.name!r}", *e.pos)
        if isinstance(e, Call):
            fn = self.helper(_HELPER_NAMES[e.func], _FUNC_IMPLS[e.func])
            return f"{fn}({', '.join(self.real(a) for a in e.args)})"
        if isinstance(e, Neg):
            text, strength = "-" + self.real(e.operand, _UNARY), _UNARY
        elif isinstance(e, Binary) and e.op == "/":
            text, strength = self.divide(e)
        elif isinstance(e, Binary):
            symbol, strength = _ARITH[e.op]
            # the right operand binds one level tighter, so a - (b - c) and
            # a + (b + c) keep their grouping
            text = (self.real(e.left, strength) + symbol
                    + self.real(e.right, strength + 1))
        else:
            raise ModelTypeError(f"cannot compile {e!r} as a real expression")
        return text if strength >= need else f"({text})"

    def divide(self, e: Binary) -> tuple:
        """(source, binding strength) of a division."""
        den = e.right
        if isinstance(den, Num) and den.value != 0.0:
            return self.real(e.left, _MUL) + " / " + self.constant(den.value), _MUL
        fail = (f"{self.helper('_divz', _division_by_zero)}"
                f"({int(e.pos[0]):d}, {int(e.pos[1]):d})")
        if isinstance(den, Num):
            return fail, _ATOM
        t = f"_t{self.temps:d}"
        self.temps += 1
        return (f"{fail} if not ({t} := {self.real(den)}) "
                f"else {self.real(e.left, _MUL)} / {t}"), _COND

    def status(self, s, need: int = _COND) -> str:
        """Source of a folded status expression, parenthesized like real."""
        if isinstance(s, StatusLit):
            return self.helper(_STATUS_NAMES[s.value], s.value)
        c = s.cond
        text = (f"{self.status(s.then, _ADD)} if {self.real(c.left, _ADD)}"
                f"{_COMPARE_SYMBOLS[c.op]}{self.real(c.right, _ADD)} "
                f"else {self.status(s.els)}")
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

    def function(self, name: str, params: str, result: str) -> Callable:
        """Compile `def name(params): <unpack used variables>; return result`."""
        lines = [f"def {name}({params}):"]
        if self.uses_state:
            names = _tuple_items([f"x{k:d}" for k in range(len(self.sx))])
            lines.append(f"    {names} = x")
        lines += [f"    u{j:d} = u[{j:d}]" for j in sorted(self.controls_used)]
        lines.append(f"    return {result}")
        self.source = "\n".join(lines) + "\n"
        try:
            code = compile(self.source, f"<btm {name}>", "exec")
        except (SyntaxError, RecursionError) as err:
            # Python caps the nesting depth of one expression (200 open
            # parentheses in the tokenizer); blame the most deeply nested one
            _, pos = max(self.tops, key=lambda top: max(
                accumulate((c == "(") - (c == ")") for c in top[0])))
            raise ModelTypeError(
                f"a {name} expression nests too deeply to compile", *pos) from err
        exec(code, self.ns)
        return self.ns[name]


def _tuple_items(items: list) -> str:
    """Comma-joined items, with the trailing comma a single item needs."""
    return items[0] + "," if len(items) == 1 else ", ".join(items)


def _tuple_function(name: str, params: str, exprs, sx: Mapping, su: Mapping) -> Callable:
    """A generated function returning the tuple of exprs: field or controller."""
    g = _FunctionSource(sx, su)
    return g.function(name, params, f"({_tuple_items([g.top(e) for e in exprs])})")


def _status_function(s, sx: Mapping) -> Callable:
    g = _FunctionSource(sx, {})
    return g.function("status", "x", g.top(s))


@dataclass(frozen=True)
class LoweredModel:
    name: str
    bt: BehaviorTree
    plant: Plant
    model: ModelFile


def lower(m: ModelFile) -> LoweredModel:
    """Compile a parsed model into a BehaviorTree plus Plant.

    Node ids are assigned depth-first from the root, matching the textbook
    figures.  Constants are folded, then the plant field, every leaf
    controller and every leaf status become one generated function each.
    """
    consts = dict(m.constants)
    sx = {f"x{k}": k for k in range(m.state_dim)}
    su = {f"u{k}": k for k in range(m.control_dim)}
    decls = {d.name: d for d in m.nodes}

    plant_field = _tuple_function(
        "field", "x, u", [fold_constants(e, consts) for _, e in m.plant], sx, su)
    plant = Plant(m.state_dim, m.control_dim, plant_field)

    counter = [0]

    def build(name: str):
        decl = decls[name]
        nid = counter[0]
        counter[0] += 1
        if isinstance(decl, LeafDecl):
            if len(decl.controls) != m.control_dim:
                raise _ControlCountMismatch(
                    f"leaf {decl.name!r} defines {len(decl.controls)} control "
                    f"component(s), model declares {m.control_dim}", *decl.pos)
            behavior = LeafBehavior(
                controller=_tuple_function("controller", "x", [
                    fold_constants(e, consts) for e in decl.controls], sx, {}),
                metadata=_status_function(fold_constants(decl.status, consts), sx),
                label=decl.name)
            return Leaf(nid, behavior)
        children = tuple(build(child) for child in decl.children)
        cls = Sequence if decl.kind == "seq" else Fallback
        return cls(nid, children)

    root = build(m.root)
    bt = BehaviorTree(root, state_dim=m.state_dim)
    return LoweredModel(name=m.name, bt=bt, plant=plant, model=m)


def load(path) -> LoweredModel:
    with open(path, "r", encoding="utf-8") as fh:
        return lower(parse(fh.read()))


def bundled_model_dir() -> Path:
    return Path(__file__).resolve().parent / "models"


def resolve_model_path(arg) -> Path:
    """Resolve a model argument: an existing path, or a bundled model name."""
    p = Path(arg)
    if p.exists():
        return p
    candidate = bundled_model_dir() / p.name
    if p.parent == Path(".") and candidate.exists():
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
    if v < 0:
        return f"-{_num(-v)}"
    text = repr(float(v))
    return text


def format_expr(e, parent_prec: int = _COND) -> str:
    """Source text of e, parenthesized unless it binds at least as tightly as
    parent_prec (the code generator's binding strengths)."""
    if isinstance(e, Num):
        if e.value < 0:
            inner = f"-{_num(-e.value)}"
            return f"({inner})" if parent_prec >= _UNARY else inner
        return _num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        # a minus right under a minus needs no parentheses: --x0 parses as
        # two minuses
        nested = isinstance(e.operand, Neg)
        inner = f"-{format_expr(e.operand, _COND if nested else _UNARY)}"
        return f"({inner})" if parent_prec >= _UNARY else inner
    if isinstance(e, Binary):
        prec = _MUL if e.op in "*/" else _ADD
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
