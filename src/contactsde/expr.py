"""Symbolic expressions for Hamiltonian functions: parsing, exact
differentiation, and fast evaluation.

Grammar (EBNF)::

    expr     = term , { ( "+" | "-" ) , term } ;
    term     = factor , { ( "*" | "/" ) , factor } ;
    factor   = "-" , factor | power ;
    power    = atom , [ "^" , factor ] ;
    atom     = number | name | function , "(" , expr , ")" | "(" , expr , ")" ;
    function = "sin" | "cos" | "exp" | "log" ;

Precedence is ``^`` above unary minus above ``*``/``/`` above ``+``/``-``;
``^`` is right-associative, the rest left-associative.  An exponent must fold
to a numeric constant at parse time (variable exponents are rejected), which
keeps differentiation closed over the node types below.

Compiled tapes (:func:`compile_tape`) do all of the package's numeric
evaluation, on one state or on a batch.  The tree evaluator
(:func:`evaluate`) is the reference oracle: a tape in scalar mode performs
the same operations in the same order and agrees with it bit for bit.

Expression trees and compiled tapes are immutable and safe to share across
threads; evaluation contexts are caller-owned.  The only simplifications ever
applied are constant folding and the neutral-element rules (``x*1``, ``x*0``,
``x+0``, ``x-0``, ``x^0``, ``x^1``, ``0/x``, ``x/1``, double negation).
Derivatives are therefore correct but not canonical: compare them by
evaluation, not by shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

__all__ = [
    "Const", "Var", "BinOp", "Func", "Expr",
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


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_NUM_START = set("0123456789.")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789")


def _tokenize(source: str):
    """Yield (kind, text, position) with kind in num|name|op|lparen|rparen|end."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _NUM_START:
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                seen_dot = seen_dot or source[j] == "."
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            if text == ".":
                raise ExprSyntaxError("malformed number", i, text)
            tokens.append(("num", text, i))
            i = j
        elif c in _NAME_START:
            j = i
            while j < n and source[j] in _NAME_CONT:
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
        elif c in "+-*/^":
            tokens.append(("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        else:
            raise ExprSyntaxError("unexpected character", i, c)
    tokens.append(("end", "", n))
    return tokens


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
            rhs = self.parse_term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.current[0] == "op" and self.current[1] in "*/":
            op = self.advance()[1]
            rhs = self.parse_factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
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
                return {"sin": sin, "cos": cos, "exp": exp, "log": log}[text](arg)
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
    :class:`ExprSyntaxError` on malformed input and
    :class:`UnknownIdentifier` for undeclared names.
    """
    if not declared_names:
        raise ValueError("declared_names must be nonempty")
    bad = set(declared_names) & set(FUNCTIONS)
    if bad:
        raise ValueError(f"declared names shadow built-in functions: {sorted(bad)}")
    parser = _Parser(_tokenize(source), frozenset(declared_names))
    node = parser.parse_expr()
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
    zero, log of a non-positive value, or an invalid power.
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
    if e.fn == "sin":
        return math.sin(v)
    if e.fn == "cos":
        return math.cos(v)
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
        l = substitute(e.left, bindings)
        r = substitute(e.right, bindings)
        return {"+": add, "-": sub, "*": mul, "/": div, "^": power}[e.op](l, r)
    a = substitute(e.arg, bindings)
    if e.fn == "neg":
        return negate(a)
    return {"sin": sin, "cos": cos, "exp": exp, "log": log}[e.fn](a)


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

OP_CONST = 0
OP_LOAD = 1
OP_ADD = 2
OP_SUB = 3
OP_MUL = 4
OP_DIV = 5
OP_POW = 6
OP_NEG = 7
OP_SIN = 8
OP_COS = 9
OP_EXP = 10
OP_LOG = 11

_BINOP_CODE = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV, "^": OP_POW}
_FUNC_CODE = {"neg": OP_NEG, "sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP, "log": OP_LOG}


class EvalTape:
    """Flat postfix program compiled from an expression.

    Evaluating the tape performs exactly the same floating-point operations
    in exactly the same order as the tree evaluator, so scalar results agree
    bit for bit.  Slot values may also be equal-length numpy arrays, in which
    case the tape evaluates elementwise over the whole batch (domain checks
    are skipped in array mode; callers are expected to screen for non-finite
    results).
    """

    __slots__ = ("code", "layout")

    def __init__(self, code, layout):
        self.code = tuple(code)
        self.layout = tuple(layout)

    def __call__(self, values):
        stack = []
        push = stack.append
        pop = stack.pop
        for op, arg, node in self.code:
            if op == OP_LOAD:
                push(values[arg])
            elif op == OP_CONST:
                push(arg)
            elif op == OP_ADD:
                r = pop()
                stack[-1] = stack[-1] + r
            elif op == OP_SUB:
                r = pop()
                stack[-1] = stack[-1] - r
            elif op == OP_MUL:
                r = pop()
                stack[-1] = stack[-1] * r
            elif op == OP_DIV:
                r = pop()
                if isinstance(r, float):
                    if r == 0.0:
                        raise DomainError("division by zero", node)
                stack[-1] = stack[-1] / r
            elif op == OP_NEG:
                stack[-1] = -stack[-1]
            elif op == OP_SIN:
                v = stack[-1]
                stack[-1] = math.sin(v) if isinstance(v, float) else np.sin(v)
            elif op == OP_COS:
                v = stack[-1]
                stack[-1] = math.cos(v) if isinstance(v, float) else np.cos(v)
            elif op == OP_EXP:
                v = stack[-1]
                if isinstance(v, float):
                    try:
                        stack[-1] = math.exp(v)
                    except OverflowError:
                        raise DomainError("exp overflow", node) from None
                else:
                    stack[-1] = np.exp(v)
            elif op == OP_LOG:
                v = stack[-1]
                if isinstance(v, float):
                    if v <= 0.0:
                        raise DomainError("log of non-positive value", node)
                    stack[-1] = math.log(v)
                else:
                    stack[-1] = np.log(v)
            else:  # OP_POW
                r = pop()
                v = stack[-1]
                if isinstance(v, float):
                    try:
                        stack[-1] = math.pow(v, r)
                    except (ValueError, OverflowError, ZeroDivisionError):
                        raise DomainError("invalid power", node) from None
                else:
                    stack[-1] = v ** r
        return stack[0]

    def __len__(self):
        return len(self.code)

    def __repr__(self):
        return f"EvalTape({len(self.code)} instructions, layout={self.layout})"


def compile_tape(e: Expr, layout: Sequence[str]) -> EvalTape:
    """Compile ``e`` into an :class:`EvalTape` over the given slot layout.

    Raises :class:`UnknownIdentifier` if a free variable is missing from
    ``layout``.
    """
    slots = {name: i for i, name in enumerate(layout)}
    code = []

    def walk(node):
        if isinstance(node, Const):
            code.append((OP_CONST, node.value, node))
        elif isinstance(node, Var):
            if node.name not in slots:
                raise UnknownIdentifier(node.name)
            code.append((OP_LOAD, slots[node.name], node))
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
            code.append((_BINOP_CODE[node.op], None, node))
        else:
            walk(node.arg)
            code.append((_FUNC_CODE[node.fn], None, node))

    walk(e)
    return EvalTape(code, layout)
