"""Symbolic expressions for Hamiltonian functions: parsing, exact
differentiation, and fast evaluation.

Grammar (EBNF)::

    expr     = term , { ( "+" | "-" ) , term } ;
    term     = factor , { ( "*" | "/" ) , factor } ;
    factor   = "-" , factor | power ;
    power    = atom , [ "^" , factor ] ;
    atom     = number | name | function , "(" , expr , ")" | "(" , expr , ")" ;
    function = "sin" | "cos" | "exp" | "log" ;
    number   = ( digits , [ "." , [ digits ] ] | "." , digits ) ,
               [ ( "e" | "E" ) , [ "+" | "-" ] , digits ] ;
    name     = letter , { letter | digit } ;
    digits   = digit , { digit } ;
    digit    = "0" | "1" | "2" | "3" | "4" | "5" | "6" | "7" | "8" | "9" ;
    letter   = "A" | ... | "Z" | "a" | ... | "z" | "_" ;

Digits and letters are ASCII: a point needs a digit, and an exponent needs
one after its sign (``1e5`` is a number, ``1e`` a number then a name).
Whitespace may separate tokens; any other character outside the grammar is
a syntax error.

Precedence is ``^`` above unary minus above ``*``/``/`` above ``+``/``-``;
``^`` is right-associative, the rest left-associative.  An exponent must fold
to a numeric constant at parse time (variable exponents are rejected), which
keeps differentiation closed over the node types below.

Compiled tapes (:func:`compile_tape`) do all of the package's numeric
evaluation, on one state or on a batch.  A tape compiles one expression or a
set of them into one generated straight-line Python function that computes
each distinct subterm once; on a batch it runs a grouped text from the same
walk, in which like operations on several roots are one numpy call.  One
scheduler emits every grouped text, the tapes' and ``geometry._Stage``'s
batch steps alike (``_schedule``).  The tree evaluator (:func:`evaluate`)
is the reference oracle: a tape in scalar mode performs the same operations
on every root and agrees with it bit for bit.  The tree evaluator alone
holds the domain messages; a tape whose scalar evaluation faults hands its
roots to it in order.  A tape alone owns the domain rule of a batch as
well.

Expression trees and compiled tapes are immutable and safe to share across
threads; evaluation contexts are caller-owned.  The only simplifications ever
applied are constant folding and the neutral-element rules (``x*1``, ``x*0``,
``x+0``, ``x-0``, ``x^0``, ``x^1``, ``0/x``, ``x/1``, double negation).
Derivatives are therefore correct but not canonical: compare them by
evaluation, not by shape.
"""
from __future__ import annotations

import functools
import linecache
import math
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

__all__ = [
    "Const", "Var", "BinOp", "Func", "Expr", "NODE_TYPES",
    "const", "var", "add", "sub", "mul", "div", "power", "negate",
    "sin", "cos", "exp", "log",
    "parse", "differentiate", "evaluate", "substitute", "free_variables",
    "to_source", "compile_tape", "EvalTape", "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "exp", "log")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Func:
    fn: str  # one of sin cos exp log neg
    arg: "Expr"


Expr = Union[Const, Var, BinOp, Func]
NODE_TYPES = (Const, Var, BinOp, Func)

_ZERO = Const(0.0)
_ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Constructors with light simplification
# ---------------------------------------------------------------------------

def const(value: float) -> Const:
    return Const(float(value))


def var(name: str) -> Var:
    return Var(name)


def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return negate(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def power(a: Expr, b: Expr) -> Expr:
    if not isinstance(b, Const):
        raise ExprSyntaxError("exponent must be a numeric constant", -1)
    if b.value == 0.0:
        return _ONE
    if b.value == 1.0:
        return a
    if _is_const(a):
        try:
            return Const(math.pow(a.value, b.value))
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return BinOp("^", a, b)


def negate(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Func) and a.fn == "neg":
        return a.arg
    return Func("neg", a)


def _fold_unary(fn: str, a: Expr) -> Expr:
    if _is_const(a):
        try:
            return Const(getattr(math, fn)(a.value))
        except (ValueError, OverflowError):
            pass
    return Func(fn, a)


def sin(a: Expr) -> Expr:
    return _fold_unary("sin", a)


def cos(a: Expr) -> Expr:
    return _fold_unary("cos", a)


def exp(a: Expr) -> Expr:
    return _fold_unary("exp", a)


def log(a: Expr) -> Expr:
    if _is_const(a) and a.value <= 0.0:
        return Func("log", a)
    return _fold_unary("log", a)


# The constructor of each operator and function name, for the parser and
# ``substitute``.
_BUILDERS = {"+": add, "-": sub, "*": mul, "/": div, "^": power,
             "neg": negate, "sin": sin, "cos": cos, "exp": exp, "log": log}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One token of the grammar above; ``bad`` is any other character that is not
# a space.  Whitespace matches nothing, so ``finditer`` skips it.
_TOKEN = re.compile(r"""(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\)) | (?P<bad>\S)""", re.VERBOSE)


def _tokenize(source: str):
    """The list of (kind, text, position) with kind in
    num|name|op|lparen|rparen|end; raises at the first ``bad`` character."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN.finditer(source)]
    for kind, text, i in tokens:
        if kind == "bad":
            raise ExprSyntaxError("malformed number" if text == "." else "unexpected character",
                                  i, text)
    return tokens + [("end", "", len(source))]


class _Parser:
    def __init__(self, tokens, declared):
        self.tokens = tokens
        self.pos = 0
        self.declared = declared

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None):
        k, t, p = self.current
        if k != kind or (text is not None and t != text):
            raise ExprSyntaxError(f"expected {text or kind}", p, t)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.current[0] == "op" and self.current[1] in "+-":
            op = self.advance()[1]
            node = _BUILDERS[op](node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.current[0] == "op" and self.current[1] in "*/":
            op = self.advance()[1]
            node = _BUILDERS[op](node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        if self.current[0] == "op" and self.current[1] == "-":
            self.advance()
            return negate(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.current[0] == "op" and self.current[1] == "^":
            _, _, p = self.advance()
            exponent = self.parse_factor()
            if not isinstance(exponent, Const):
                raise ExprSyntaxError("exponent must fold to a constant", p, "^")
            return power(base, exponent)
        return base

    def parse_atom(self) -> Expr:
        kind, text, p = self.current
        if kind == "num":
            self.advance()
            return Const(float(text))
        if kind == "name":
            self.advance()
            if self.current[0] == "lparen":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", p, text)
                self.advance()
                arg = self.parse_expr()
                self.expect("rparen")
                return _BUILDERS[text](arg)
            if text in FUNCTIONS:
                raise ExprSyntaxError(f"function {text!r} requires an argument list", p, text)
            if text not in self.declared:
                raise UnknownIdentifier(text, p)
            return Var(text)
        if kind == "lparen":
            self.advance()
            node = self.parse_expr()
            self.expect("rparen")
            return node
        raise ExprSyntaxError("expected a value", p, text)


def parse(source: str, declared_names: Sequence[str]) -> Expr:
    """Parse ``source`` into an expression tree.

    ``declared_names`` lists every identifier the expression may reference
    (chart coordinates plus constant parameters).  Raises
    :class:`ExprSyntaxError` on malformed input, nesting too deep for the
    recursive-descent parser included, and :class:`UnknownIdentifier` for
    undeclared names.
    """
    if not declared_names:
        raise ValueError("declared_names must be nonempty")
    bad = set(declared_names) & set(FUNCTIONS)
    if bad:
        raise ValueError(f"declared names shadow built-in functions: {sorted(bad)}")
    parser = _Parser(_tokenize(source), frozenset(declared_names))
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", parser.current[2]) from None
    kind, text, p = parser.current
    if kind != "end":
        raise ExprSyntaxError("unexpected trailing input", p, text)
    return node


# ---------------------------------------------------------------------------
# Calculus and evaluation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``name``.

    Closed over the node set: the result is again a valid expression, so
    second partials are obtained by differentiating twice.
    """
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == name else _ZERO
    if isinstance(e, BinOp):
        dl = differentiate(e.left, name)
        dr = differentiate(e.right, name)
        if e.op == "+":
            return add(dl, dr)
        if e.op == "-":
            return sub(dl, dr)
        if e.op == "*":
            return add(mul(dl, e.right), mul(e.left, dr))
        if e.op == "/":
            return div(sub(mul(dl, e.right), mul(e.left, dr)), power(e.right, Const(2.0)))
        # e.op == "^" with constant exponent c: d(f^c) = c f^(c-1) f'
        c = e.right.value
        return mul(mul(Const(c), power(e.left, Const(c - 1.0))), dl)
    # Func
    da = differentiate(e.arg, name)
    if e.fn == "neg":
        return negate(da)
    if e.fn == "sin":
        return mul(cos(e.arg), da)
    if e.fn == "cos":
        return mul(negate(sin(e.arg)), da)
    if e.fn == "exp":
        return mul(exp(e.arg), da)
    # log
    return div(da, e.arg)


def evaluate(e, ctx: Mapping[str, float]) -> float:
    """Evaluate an expression tree or a compiled tape at ``ctx``.

    Raises :class:`DomainError` (carrying the offending node) on division by
    zero, log of a non-positive value, an invalid power, or sin/cos of an
    infinite value.
    """
    if isinstance(e, EvalTape):
        try:
            values = tuple(ctx[name] for name in e.layout)
        except KeyError as missing:
            raise UnknownIdentifier(str(missing.args[0])) from None
        return e(values)
    return _eval_tree(e, ctx)


def _eval_tree(e: Expr, ctx: Mapping[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return ctx[e.name]
        except KeyError:
            raise UnknownIdentifier(e.name) from None
    if isinstance(e, BinOp):
        l = _eval_tree(e.left, ctx)
        r = _eval_tree(e.right, ctx)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "/":
            if r == 0.0:
                raise DomainError("division by zero", e)
            return l / r
        try:
            # math.pow rejects complex results (negative base, fractional exponent)
            return math.pow(l, r)
        except (ValueError, OverflowError, ZeroDivisionError):
            raise DomainError("invalid power", e) from None
    v = _eval_tree(e.arg, ctx)
    if e.fn == "neg":
        return -v
    if e.fn in ("sin", "cos"):
        try:
            return getattr(math, e.fn)(v)
        except ValueError:
            raise DomainError(f"{e.fn} of infinite value", e) from None
    if e.fn == "exp":
        try:
            return math.exp(v)
        except OverflowError:
            raise DomainError("exp overflow", e) from None
    # log
    if v <= 0.0:
        raise DomainError("log of non-positive value", e)
    return math.log(v)


def substitute(e: Expr, bindings: Mapping[str, float]) -> Expr:
    """Replace variables by numeric constants, refolding as it goes."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        if e.name in bindings:
            return Const(float(bindings[e.name]))
        return e
    if isinstance(e, BinOp):
        return _BUILDERS[e.op](substitute(e.left, bindings), substitute(e.right, bindings))
    return _BUILDERS[e.fn](substitute(e.arg, bindings))


def free_variables(e: Expr) -> frozenset:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    return free_variables(e.arg)


def to_source(e: Expr) -> str:
    """Render an expression as parseable source (fully parenthesized).

    ``parse(to_source(e), ...)`` evaluates identically to ``e``.
    """
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    if e.fn == "neg":
        return f"(-{to_source(e.arg)})"
    return f"{e.fn}({to_source(e.arg)})"


# ---------------------------------------------------------------------------
# Compiled evaluation tapes
# ---------------------------------------------------------------------------

_FORMATS = {
    "+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "^": "pow({}, {})",
    "neg": "-{}", "sin": "sin({})", "cos": "cos({})", "exp": "exp({})", "log": "log({})",
}
_SCALAR_FUNCTIONS = (math.pow, math.sin, math.cos, math.exp, math.log)
# The numpy function of each operation in array mode, by its name there.
_ARRAY_NAMES = {
    "+": "add", "-": "subtract", "*": "multiply", "/": "divide", "^": "power",
    "neg": "negative", "sin": "sin", "cos": "cos", "exp": "exp", "log": "log",
    "copy": "positive",
}
_ARRAY_FUNCTIONS = tuple(getattr(np, name) for name in _ARRAY_NAMES.values())


def _walk(roots, layout) -> tuple:
    """``(ops, results, consts)``: each distinct subterm of ``roots`` once, in
    tree-evaluator order.  ``ops[n]`` is ``(op, *operands)``; an operand or a
    result is a reference, ``("y", i)`` to slot i of ``layout``, ``("c", i)``
    to ``consts[i]`` or ``("t", n)`` to the value of ``ops[n]``.  Every text
    generated for a tape is formatted from its one walk.  A subtree shared
    by reference is walked once: its second visit would add no operation and
    return the same reference."""
    index = {name: i for i, name in enumerate(layout)}
    refs, consts, ops = {}, [], []
    done = {}  # id of a walked Const, BinOp or Func node -> its reference

    def walk(node):
        if isinstance(node, Var):
            if node.name not in index:
                raise UnknownIdentifier(node.name)
            return ("y", index[node.name])
        ref = done.get(id(node))
        if ref is not None:
            return ref
        if isinstance(node, Const):
            # Keyed by bits: 0.0 == -0.0, yet 0.0 - x and -0.0 - x differ at x = 0.
            key = struct.pack("<d", node.value)
        elif isinstance(node, BinOp):
            key = (node.op, walk(node.left), walk(node.right))
        else:
            key = (node.fn, walk(node.arg))
        if key not in refs:
            if isinstance(node, Const):
                refs[key] = ("c", len(consts))
                consts.append(node.value)
            else:
                refs[key] = ("t", len(ops))
                ops.append(key)
        done[id(node)] = refs[key]
        return refs[key]

    results = tuple(walk(root) for root in roots)
    return tuple(ops), results, consts


def _lines(walk, slots, prefix: str = "t") -> tuple:
    """``(lines, results)``: the per-root straight-line text of ``walk``, one
    line ``<prefix><n> = ...`` per operation, and per root the name that
    holds its value.  Slot i reads as ``slots[i]`` and constant i as the
    parameter ``c<i>`` of the enclosing ``make``, not as a literal
    (``1e400`` parses to ``inf``), so the text depends only on the shape of
    the roots."""
    ops, results, consts = walk
    names = {"y": slots, "c": [f"c{i}" for i in range(len(consts))],
             "t": [f"{prefix}{n}" for n in range(len(ops))]}
    temps = names["t"]
    lines = [f"{temps[n]} = {_FORMATS[op].format(*[names[k][i] for k, i in args])}"
             for n, (op, *args) in enumerate(ops)]
    return lines, [names[k][i] for k, i in results]


def _params(consts) -> str:
    """``make``'s constant parameters after its fixed ones: ``, c0, c1, ...``."""
    return "".join(f", c{i}" for i in range(len(consts)))


def _block(depth: int, lines) -> str:
    """``lines`` as text indented ``depth`` levels, a line with newlines split."""
    return "".join(f"{'    ' * depth}{t}\n" for line in lines for t in line.split("\n"))


# The compiled ``make`` of each distinct text, with the file name it was
# compiled under, oldest first; at most ``_FACTORY_TEXTS`` of them.
_FACTORIES: dict = {}
_FACTORY_TEXTS = 1024
_FACTORIES_LOCK = threading.Lock()


def _factory(source: str, role: str):
    """The ``make`` that ``source`` defines, compiled once per distinct text
    (tapes here, ``geometry._Stage``'s stepping forms).  It is compiled
    under the file name ``<contactsde ROLE DIGEST>``: ``role`` says what the
    text is, such as ``tape`` or ``augmented heun_run``, and ``DIGEST`` is
    the text's CRC-32 and Adler-32, 16 hex digits, so that two texts do not
    share a name and a profiler keeps their functions apart (``zlib`` is
    loaded with numpy already, where ``hashlib`` would add its import to
    every fresh interpreter).  A text that two roles generate, as SE's state
    and conformal stages do, is compiled once, under the role that asked
    for it first.  The text is registered with ``linecache`` under its name,
    so tracebacks and profilers show its lines.  Past ``_FACTORY_TEXTS``
    texts the oldest is dropped, with its lines."""
    entry = _FACTORIES.get(source)
    if entry is None:
        text = source.encode()
        name = f"<contactsde {role} {zlib.crc32(text):08x}{zlib.adler32(text):08x}>"
        namespace = {}
        exec(compile(source, name, "exec"), namespace)
        with _FACTORIES_LOCK:
            entry = _FACTORIES.get(source)
            if entry is None:
                if len(_FACTORIES) >= _FACTORY_TEXTS:
                    linecache.cache.pop(_FACTORIES.pop(next(iter(_FACTORIES)))[1], None)
                entry = _FACTORIES[source] = (namespace["make"], name)
                linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    return entry[0]


def _slice(source: str, start: int, step: int, count: int, size) -> str:
    """The basic slice of ``source`` that reads its rows ``start, start +
    step, ...``, ``count`` of them.  One row, or a step of 0, is a block of
    one row, which broadcasts; all ``size`` rows in order are ``source``."""
    if count == 1 or step == 0:
        return source if size == 1 else f"{source}[{start}:{start + 1}]"
    if (start, step, count) == (0, 1, size):
        return source
    stop = start + step * count
    return f"{source}[{start}:{'' if stop < 0 else stop}" + ("]" if step == 1 else f":{step}]")


def _step(a, b) -> tuple:
    return tuple(y - x for x, y in zip(a, b))


def _runs(members) -> list:
    """``members``, pairs ``(rows, item)``, sorted and split into runs whose
    rows, position by position, form an arithmetic progression."""
    runs = []
    for member in sorted(members):
        run = runs[-1] if runs else ()
        if len(run) == 1 or run and _step(run[-2][0], run[-1][0]) == _step(run[-1][0], member[0]):
            run.append(member)
        else:
            runs.append([member])
    return runs


def _scalar(kind, i) -> str:
    """The text of a scalar reference: ``("s", text)`` is a name or a
    literal of the enclosing text, any other ``(kind, i)`` reads ``<kind><i>``."""
    return i if kind == "s" else f"{kind}{i}"


def _schedule(ops, phases, inputs, sizes=(), targets=(), kept=(), check=None) -> tuple:
    """``((shared, bind, step), where)``: the grouped array-mode text of
    ``ops``, a walk's operations ``(op, *operands)``, as lines bound once
    and a step that only calls, and where each array operation's value
    lives, ``(source, row)``.  ``shared`` gives each group an array of its
    rows, ``empty((rows, width))``, or the dead buffer it reuses, gives
    each tested block an array for its absolute values and makes every
    basic slice of a group a view.  ``bind`` makes the slices of the inputs
    and targets views.  ``step`` runs the scalar lines, every call with its
    output last and positional, and the tests, which ``check`` formats from
    ``(block, array or None)`` pairs; it allocates no array.  A stage's
    batch form runs ``shared`` once per ``width`` and ``bind`` once per set
    of arrays; a tape runs all three on every call.

    ``phases`` is a list ``(members, tested)``: the operations of each phase
    run, in order, after those of the phases before it.  Within a phase an
    operation's level is one above its deepest array operand's, an input
    row's or an earlier phase's value being 0; an operation that reads no
    array computes a scalar, on a line of its own, first.  Operations of one
    level form a group when they share the op and their scalar operands, and
    each of their array operands, position by position, is a row of one
    source: an input (``inputs`` maps a reference kind to the array it reads
    rows of) or an earlier group.  Members are ordered by their operands'
    rows, and a group splits where those rows stop forming an arithmetic
    progression, so each operand is a basic slice, never a gather.  After a
    phase comes a test of the basic slices or scalars that hold the values
    ``tested`` (no test when it is empty).

    ``targets`` maps an operation to the row ``(array, r)`` of a caller's
    array that it writes; members of a group write rows that are a
    progression too.  Any other group reuses the buffer of an earlier group
    of as many rows that no later line reads, if there is one, so never an
    input, a target or a group that holds a value of ``kept``.  ``sizes``
    gives the rows of inputs and targets, so that a block of all of them
    reads as the bare name.  Every element goes through the operations of
    ``ops`` in the same order."""
    sizes, targets = dict(sizes), dict(targets)
    where, groups, entries = {}, set(), []  # entries: (line or call, groups it reads)
    calls = 0

    def place(kind, i):
        return (inputs[kind], i) if kind in inputs else where.get((kind, i))

    for members, tested in phases:
        depth, by_level = {}, {}  # depth: an array operation's level in this phase
        for n in members:
            op, *args = ops[n]
            levels = [0 if kind in inputs else depth.get(i, 0) for kind, i in args
                      if kind in inputs or kind == "t" and (i in depth or (kind, i) in where)]
            if levels:
                depth[n] = max(levels) + 1
                by_level.setdefault(depth[n], []).append(n)
            else:
                scalars = ", ".join(_scalar(*a) for a in args)
                entries.append((f"t{n} = {_ARRAY_NAMES[op]}({scalars})", ()))
        for level in sorted(by_level):
            buckets = {}  # (op, target, per operand its source, or (text,) if scalar) -> members
            for n in by_level[level]:
                op, *args = ops[n]
                placed = [place(*a) for a in args]
                target = targets.get(n)
                key = (op, target and target[0],
                       *(p[0] if p else (_scalar(*a),) for p, a in zip(placed, args)))
                rows = tuple(p[1] for p in placed if p) + (target[1:] if target else ())
                buckets.setdefault(key, []).append((rows, n))
            for (op, target, *sources), bucket in buckets.items():
                for run in _runs(bucket):
                    name, first, count = f"g{calls}", run[0][0], len(run)
                    calls += 1
                    starts = iter(zip(first, _step(first, run[1][0]) if count > 1
                                      else [0] * len(first)))
                    operands = [_slice(s, *next(starts), count, sizes.get(s))
                                if isinstance(s, str) else s[0] for s in sources]
                    if target:
                        out = _slice(target, *next(starts), count, sizes.get(target))
                        for _, n in run:
                            where[("t", n)] = targets[n]
                    else:
                        out = None
                        for j, (_, n) in enumerate(run):
                            where[("t", n)] = (name, j)
                        sizes[name] = count
                        groups.add(name)
                    reads = [s for s in sources if s in groups]
                    entries.append(((name, op, operands, out), reads))
        if tested:
            blocks, buckets = [], {}
            for ref in tested:
                p = place(*ref)
                if p:
                    buckets.setdefault(p[0], []).append(((p[1],), ref))
                else:
                    blocks.append(_scalar(*ref))
            for source, bucket in buckets.items():
                for run in _runs(bucket):
                    start, = run[0][0]
                    step = run[1][0][0] - start if len(run) > 1 else 0
                    blocks.append((_slice(source, start, step, len(run), sizes.get(source)),
                                   len(run) if step else 1))
            entries.append((blocks, list(buckets)))

    # A group's buffer is free after the last line that reads it, unless a
    # value of ``kept`` lives in it.
    kept = {where[r][0] for r in kept if r in where}
    last = {s: c for c, (_, reads) in enumerate(entries) for s in reads}
    dies = {}
    for s, c in last.items():
        if s in groups and s not in kept:
            dies.setdefault(c, []).append(s)
    shared, bind, step, views, free = [], [], [], {}, {}

    def view(text):
        source, bracket, _ = text.partition("[")
        if not bracket:
            return text
        if text not in views:
            views[text] = f"v{len(views)}"
            (shared if source in groups else bind).append(f"{views[text]} = {text}")
        return views[text]

    for c, (entry, _) in enumerate(entries):
        if isinstance(entry, str):
            step.append(entry)
        elif isinstance(entry, list):
            blocks = []
            for block, rows in entry:
                absolute = None
                if rows:
                    absolute = f"a{len(shared)}"
                    shared.append(f"{absolute} = empty(({rows}, width))")
                blocks.append((view(block), absolute))
            step.append(check(blocks))
        else:
            name, op, operands, out = entry
            if not out:
                out, spare = name, free.get(sizes[name])
                shared.append(f"{name} = " + (spare.pop() if spare
                                               else f"empty(({sizes[name]}, width))"))
            step.append(f"{_ARRAY_NAMES[op]}({', '.join(map(view, (*operands, out)))})")
        for s in dies.get(c, ()):
            free.setdefault(sizes[s], []).append(s)
    return (shared, bind, step), where


@functools.lru_cache(maxsize=256)
def _grouped_source(ops, results, many: bool, n_consts: int) -> str:
    """The array-mode text of the walk ``(ops, results)``, in which like
    operations on several roots run as one numpy call on a block of rows
    (``_schedule``), read from the input ``rows``.  Each call binds fresh
    buffers and views and then runs the step, so a returned row is a view
    into a buffer of that call; no group that holds one is written over.
    Every element goes through the operations of the per-root text in the
    same order."""
    (shared, bind, step), where = _schedule(ops, [(range(len(ops)), ())], {"y": "rows"},
                                            kept=results)
    values = ["{}[{}]".format(*where[r]) if r in where else
              f"rows[{r[1]}]" if r[0] == "y" else f"{r[0]}{r[1]}" for r in results]
    value = "(" + "".join(f"{v}, " for v in values) + ")" if many else values[0]
    return (f"def make({', '.join(_ARRAY_NAMES.values())}, empty{_params(range(n_consts))}):\n"
            "    def tape(rows):\n        width = rows.shape[1]\n"
            + _block(2, (*shared, *bind, *step))
            + f"        return {value}\n    return tape\n")


class EvalTape:
    """``exprs``, one expression or a tuple of them (a tape set), run as one
    generated straight-line Python function, compiled once per distinct
    shape.  A call returns the value, or the tuple of values in order;
    ``len(tape)`` counts the distinct operations the set runs.  Both of its
    texts are formatted from one walk of the roots (``_walk``), which the
    tape keeps for ``geometry._Stage`` to format its single-path run from.

    Scalar mode (slot values are Python floats; other scalars are converted)
    calls ``math`` functions and performs, for every root, exactly the
    operations of the tree evaluator, so results agree bit for bit.  Where
    Python raises (division by zero, a math domain error, an overflow), the
    tree evaluator, which alone holds the domain messages, evaluates the
    roots in order, so the first faulting root raises its ``DomainError``.

    When the first slot value is a numpy array the tape runs in array mode
    on a batch, an (n, B) array or n rows with one column per path, made
    one C-contiguous float64 array once.  Array mode runs the grouped text
    of ``_schedule``, built on its first call (``_grouped_source``): like
    operations on several roots, such as the same op on ``q1`` and ``q2``,
    run as one numpy ufunc call on a block of rows, each operand a view of
    a basic slice (no fancy-index gather), each output an array of the
    call or a dead one of its shape that it reuses.  Every element goes
    through the operations of the per-root text in the same order, so no
    bit depends on the grouping.  A returned row is a view into a buffer of
    the call.  Array mode runs under the one domain rule of a batch: it
    raises the ``DomainError`` that its first faulting path raises alone.
    It runs with numpy's floating-point flags raising; on a flag the paths
    are replayed in scalar mode, in order, and if none raises (an overflow,
    say) the batch is evaluated again with the flags ignored.  numpy may
    round ``exp``, ``log`` and ``pow`` apart from ``math`` in the last bit.
    A tape pickles as ``(exprs, layout)``.
    """

    __slots__ = ("exprs", "layout", "_walk", "_scalar", "_array")

    def __init__(self, exprs, layout):
        self.exprs = exprs if isinstance(exprs, NODE_TYPES) else tuple(exprs)
        self.layout = tuple(layout)
        many = isinstance(self.exprs, tuple)
        self._walk = _walk(self.exprs if many else (self.exprs,), self.layout)
        lines, results = _lines(self._walk, [f"values[{i}]" for i in range(len(self.layout))])
        value = "(" + "".join(f"{r}, " for r in results) + ")" if many else results[0]
        consts = self._walk[2]
        make = _factory(f"def make(pow, sin, cos, exp, log{_params(consts)}):\n"
                        "    def tape(values):\n"
                        + _block(2, lines)
                        + f"        return {value}\n    return tape\n", "tape")
        self._scalar = make(*_SCALAR_FUNCTIONS, *consts)
        self._array = None  # the grouped text, bound on the first array-mode call

    def __call__(self, values):
        if self.layout and type(values[0]) is not float:
            if isinstance(values[0], np.ndarray):
                return self._batch(np.ascontiguousarray(values, dtype=np.float64))
            values = [float(v) for v in values]
        try:
            return self._scalar(values)
        except (ZeroDivisionError, ValueError, OverflowError):
            pass
        ctx = dict(zip(self.layout, values))
        if isinstance(self.exprs, tuple):
            return tuple(_eval_tree(root, ctx) for root in self.exprs)
        return _eval_tree(self.exprs, ctx)

    def _batch(self, rows: np.ndarray):
        if self._array is None:
            ops, results, consts = self._walk
            make = _factory(_grouped_source(ops, results, isinstance(self.exprs, tuple),
                                            len(consts)), "tape array")
            self._array = make(*_ARRAY_FUNCTIONS, np.empty, *map(np.float64, consts))
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                return self._array(rows)
        except FloatingPointError:
            for path in zip(*rows):
                self(path)
            with np.errstate(all="ignore"):
                return self._array(rows)

    def __reduce__(self):
        return EvalTape, (self.exprs, self.layout)

    def __len__(self):
        return len(self._walk[0])

    def __repr__(self):
        return f"EvalTape({len(self)} operations, layout={self.layout})"


def compile_tape(e, layout: Sequence[str]) -> EvalTape:
    """Compile ``e``, one expression or a sequence of them, into an
    :class:`EvalTape` over the given slot layout.

    Raises :class:`UnknownIdentifier` if a free variable is missing from
    ``layout``.
    """
    return EvalTape(e, layout)
