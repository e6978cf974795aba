"""Symbolic scalar fields on R^n x time.

A tiny expression language for the coefficient fields the solvers consume:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] integer)?
    atom   := number | name '(' expr ')' | name | '(' expr ')'

Variables are ``x1`` .. ``x3`` (up to the declared dimension) and ``t``; functions are
``sin``, ``cos``, ``exp``, ``log``, ``tanh``; powers take integer exponents only, so
symbolic derivatives stay inside the language.  ``sin`` and ``cos`` are defined through
the tangent of the half angle, ``t = tan(u/2)``: ``sin u = 2t/(1 + t^2)`` and
``cos u = (1 - t^2)/(1 + t^2)``, within 2^-51 of numpy's ``sin`` and ``cos`` and never
above 1 in magnitude.  Every evaluator uses this definition, and the compiler takes
sin and cos of one argument from one ``tan``.

Trees are immutable and hash-consed, built of one node type with a ``tag``, a ``param``
and ``children``: constructing the same shape twice returns the same object, which makes
structural equality an identity check and lets evaluation share subtrees across many
fields evaluated at the same points.  Constant subtrees are folded at construction; the
trees are not otherwise rewritten, except that additive and multiplicative identities
with a literal 0/1 operand are dropped (``u*1 -> u``, ``u+0 -> u``) so derivative output
stays readable.  ``0*u`` stays in the tree: ``u`` may overflow or fail a domain check,
and only a bound on ``u`` can rule that out.

Evaluation is numpy-aware: variable slots may hold floats or same-shaped arrays.
:func:`eval_batch` walks a tree once per call.  For repeated evaluation, as in every
step of the Monte Carlo engine, :class:`ProgramCompiler` compiles many fields at once
into a straight-line program: shared subtrees are numbered once (``a*b`` and ``b*a``
included), constants and time-only subtrees become scalars, and every array operation
writes into a reused buffer, with the same bits as :func:`eval_batch`.  Given bounds on
the coordinates and on time, the compiler also encloses every value in an interval
(Moore 1966) and folds ``a - a`` and ``a*0`` to 0 and ``a + 0`` to ``a``
wherever ``a`` is provably finite; such a fold changes no value, except possibly the
sign of a zero.
"""

from __future__ import annotations

import functools
import operator
import re
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    ExprSyntaxError,
    SourceSpan,
    UnknownVariableError,
)

__all__ = [
    "FieldExpr",
    "parse_field",
    "differentiate",
    "eval_batch",
    "eval_points",
    "ProgramCompiler",
    "Program",
    "BoundProgram",
    "FIELD",
    "COLUMN",
    "constant_field",
    "FUNCTIONS",
    "MAX_DIMENSION",
]

MAX_DIMENSION = 3


def _tan_half(u):
    """``t, t*t, 1/(1 + t*t)`` for ``t = tan(u/2)``, the shared part of sin and cos.

    ``ProgramCompiler._sin_cos`` emits these same operations, in this order.
    """
    t = np.tan(u * 0.5)
    t2 = t * t
    return t, t2, 1.0 / (1.0 + t2)


def _sin(u):
    t, _, r = _tan_half(u)
    return (t + t) * r


def _cos(u):
    _, t2, r = _tan_half(u)
    return (1.0 - t2) * r


# sin u = 2t/(1 + t^2) and cos u = (1 - t^2)/(1 + t^2) with t = tan(u/2).  Where numpy
# runs float64 tan in a SIMD loop (it picks one from the CPU's features at import) and
# sin and cos in the C library, one tan and eight arithmetic ops give both in less time
# than np.sin and np.cos take together.  They lie within 2^-51 of np.sin and np.cos and
# never above 1 in magnitude.  tan itself is not a function of the language.
FUNCTIONS: dict[str, Callable] = {
    "sin": _sin,
    "cos": _cos,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
}

# ---------------------------------------------------------------------------
# AST nodes (interned)
# ---------------------------------------------------------------------------

_INTERN: dict = {}
_INTERN_LOCK = threading.Lock()


class Node:
    """One node of an expression tree.

    ``tag`` is one of const, var, neg, add, sub, mul, div, pow and call.  ``param``
    holds a constant's value, a variable's 0-based index (-1 for ``t``), a power's
    exponent or a call's function name, and is None otherwise.  ``children`` holds
    the operands.  Nodes are interned, so structurally equal trees are the same
    object and compare (and hash) by identity.
    """

    __slots__ = ("tag", "param", "children")

    def __init__(self, tag: str, param, children: tuple):
        self.tag = tag
        self.param = param
        self.children = children


def _node(tag: str, param=None, *children: Node) -> Node:
    key = (tag, param, children)  # children hash and compare by identity
    node = _INTERN.get(key)
    if node is None:
        with _INTERN_LOCK:
            node = _INTERN.get(key)
            if node is None:
                node = _INTERN[key] = Node(tag, param, children)
    return node


def const(value: float) -> Node:
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return _node("const", value)


def var(index: int) -> Node:
    return _node("var", index)


ZERO = const(0.0)
ONE = const(1.0)
T_VAR = var(-1)


def neg(u: Node) -> Node:
    if u.tag == "const":
        return const(-u.param)
    return _node("neg", None, u)


def add(l: Node, r: Node) -> Node:
    if l.tag == "const" and r.tag == "const":
        v = l.param + r.param
        if np.isfinite(v):
            return const(v)
    if l is ZERO:
        return r
    if r is ZERO:
        return l
    return _node("add", None, l, r)


def sub(l: Node, r: Node) -> Node:
    if l.tag == "const" and r.tag == "const":
        v = l.param - r.param
        if np.isfinite(v):
            return const(v)
    if r is ZERO:
        return l
    if l is ZERO:
        return neg(r)
    return _node("sub", None, l, r)


def mul(l: Node, r: Node) -> Node:
    if l.tag == "const" and r.tag == "const":
        v = l.param * r.param
        if np.isfinite(v):
            return const(v)
    if l is ONE:
        return r
    if r is ONE:
        return l
    # NOTE: 0*u is deliberately not folded away: u may carry a domain
    # restriction (log, division) that folding would silently erase.
    return _node("mul", None, l, r)


def div(l: Node, r: Node) -> Node:
    if l.tag == "const" and r.tag == "const" and r.param != 0.0:
        v = l.param / r.param
        if np.isfinite(v):
            return const(v)
    if r is ONE:
        return l
    return _node("div", None, l, r)


def power(base: Node, exponent: int) -> Node:
    exponent = operator.index(exponent)  # refuses 2.5 rather than truncating it
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if base.tag == "const" and (base.param != 0.0 or exponent > 0):
        v = base.param**exponent
        if np.isfinite(v):
            return const(v)
    return _node("pow", exponent, base)


def call(fn: str, child: Node) -> Node:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if child.tag == "const":
        with np.errstate(all="ignore"):
            v = float(FUNCTIONS[fn](child.param))
        if np.isfinite(v):
            return const(v)
    return _node("call", fn, child)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _check_divisor(den) -> None:
    if np.any(den == 0):
        raise DomainError("division by zero")


def _check_power_base(base) -> None:
    if np.any(base == 0):
        raise DomainError("zero raised to a negative power")


def _check_log_argument(arg) -> None:
    if np.any(arg <= 0):
        raise DomainError("log of a non-positive value")


def _apply(tag: str, param, *args):
    """One operation on evaluated operands, with the language's domain checks.

    Every evaluator applies operations through here (or, for arrays, through the
    ufunc that the same Python operator dispatches to), so all agree bit for bit.
    """
    if tag == "neg":
        return -args[0]
    if tag == "add":
        return args[0] + args[1]
    if tag == "sub":
        return args[0] - args[1]
    if tag == "mul":
        return args[0] * args[1]
    if tag == "div":
        _check_divisor(args[1])
        return args[0] / args[1]
    if tag == "pow":
        if param < 0:
            _check_power_base(args[0])
        return args[0] ** param
    # call
    if param == "log":
        _check_log_argument(args[0])
    return FUNCTIONS[param](args[0])


def _eval(node: Node, comps: tuple, tval, memo: dict):
    found = memo.get(id(node), _eval)  # sentinel: _eval itself
    if found is not _eval:
        return found
    tag = node.tag
    if tag == "const":
        out = node.param
    elif tag == "var":
        out = tval if node.param < 0 else comps[node.param]
    else:
        out = _apply(tag, node.param, *[_eval(c, comps, tval, memo) for c in node.children])
    memo[id(node)] = out
    return out


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def _deriv(node: Node, index: int, memo: dict) -> Node:
    """Derivative of ``node`` with respect to coordinate ``index`` (-1 for time).

    ``memo`` maps ``(node, index)`` to a derivative already taken, so a subtree that
    many fields share is differentiated once; nodes are interned, so a memoized
    derivative is the very object a fresh one would be.  The constructors of
    ``neg``, ``add`` and ``sub`` already fold a zero operand; a zero derivative is
    tested here only where a constructor keeps it (``0*u``, ``0/u``).
    """
    found = memo.get((node, index))
    if found is None:
        found = memo[node, index] = _derive(node, index, memo)
    return found


def _derive(node: Node, index: int, memo: dict) -> Node:
    tag = node.tag
    if tag == "const":
        return ZERO
    if tag == "var":
        return ONE if node.param == index else ZERO
    if tag == "neg":
        return neg(_deriv(node.children[0], index, memo))
    if tag == "add":
        l, r = node.children
        return add(_deriv(l, index, memo), _deriv(r, index, memo))
    if tag == "sub":
        l, r = node.children
        return sub(_deriv(l, index, memo), _deriv(r, index, memo))
    if tag == "mul":
        l, r = node.children
        dl = _deriv(l, index, memo)
        dr = _deriv(r, index, memo)
        if dl is ZERO:
            return ZERO if dr is ZERO else mul(l, dr)
        if dr is ZERO:
            return mul(dl, r)
        return add(mul(dl, r), mul(l, dr))
    if tag == "div":
        l, r = node.children
        dl = _deriv(l, index, memo)
        dr = _deriv(r, index, memo)
        if dr is ZERO:
            return ZERO if dl is ZERO else div(dl, r)
        if dl is ZERO:
            return neg(div(mul(l, dr), power(r, 2)))
        return div(sub(mul(dl, r), mul(l, dr)), power(r, 2))
    (u,) = node.children
    d = _deriv(u, index, memo)
    if d is ZERO:
        return ZERO
    param = node.param
    if tag == "pow":
        outer = mul(const(param), power(u, param - 1))
    elif param == "sin":
        outer = call("cos", u)
    elif param == "cos":
        outer = neg(call("sin", u))
    elif param == "exp":
        outer = call("exp", u)
    elif param == "log":
        return div(d, u)
    else:  # tanh
        outer = sub(ONE, power(call("tanh", u), 2))
    return mul(outer, d)


# ---------------------------------------------------------------------------
# Pretty printing (minimal parentheses, reparse-stable)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_INFIX = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def _prec(node: Node) -> int:
    tag = node.tag
    if tag in ("add", "sub"):
        return _PREC_ADD
    if tag in ("mul", "div"):
        return _PREC_MUL
    if tag == "neg":
        return _PREC_UNARY
    if tag == "pow":
        return _PREC_POW
    if tag == "const" and node.param < 0:
        return _PREC_UNARY  # prints with a leading minus
    return _PREC_ATOM


def _pp(node: Node, min_prec: int) -> str:
    tag, param, children = node.tag, node.param, node.children
    prec = _prec(node)
    if tag == "const":
        text = repr(int(param)) if param.is_integer() and abs(param) < 1e16 else repr(param)
    elif tag == "var":
        text = "t" if param < 0 else f"x{param + 1}"
    elif tag == "neg":
        text = "-" + _pp(children[0], _PREC_UNARY)
    elif tag == "pow":
        text = _pp(children[0], _PREC_ATOM) + "^" + str(param)
    elif tag == "call":
        return param + "(" + _pp(children[0], 0) + ")"
    else:
        text = _pp(children[0], prec) + _INFIX[tag] + _pp(children[1], prec + 1)
    if prec < min_prec:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)

_INT_RE = re.compile(r"\d+\Z")


# A token is a plain tuple (kind, text, start) with kind num | name | op | end; its
# span [start, start + len(text)) is built only when an error reports it.
def _span(tok: tuple) -> SourceSpan:
    return SourceSpan(tok[2], tok[2] + len(tok[1]))


def _tokenize(source: str) -> list[tuple]:
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        tok = (kind, m[kind], m.start(kind))
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {tok[1]!r}", _span(tok))
        tokens.append(tok)
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, dim: int):
        self.source = source
        self.dim = dim
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> tuple:
        tok = self.peek()
        if tok[0] != "op" or tok[1] != op:
            raise ExprSyntaxError(f"expected {op!r}", _span(tok))
        return self.advance()

    def parse(self) -> Node:
        tok = self.peek()
        if tok[0] == "end":
            raise ExprSyntaxError("empty expression", _span(tok))
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", _span(tok))
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = add(node, rhs) if text == "+" else sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = mul(node, rhs) if text == "*" else div(node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            sign = 1
            tok = self.peek()
            if tok[0] == "op" and tok[1] == "-":
                self.advance()
                sign = -1
                tok = self.peek()
            if tok[0] != "num" or not _INT_RE.match(tok[1]):
                raise ExprSyntaxError("exponent must be an integer literal", _span(tok))
            self.advance()
            return power(base, sign * int(tok[1]))
        return base

    def atom(self) -> Node:
        tok = self.advance()
        kind, text, _ = tok
        if kind == "num":
            return const(float(text))
        if kind == "name":
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", _span(tok))
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return call(text, arg)
            return self._variable(tok)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}", _span(tok))

    def _variable(self, tok: tuple) -> Node:
        name = tok[1]
        if name == "t":
            return T_VAR
        m = re.fullmatch(r"x([1-9]\d*)", name)
        if m:
            k = int(m.group(1))
            if 1 <= k <= self.dim:
                return var(k - 1)
            raise UnknownVariableError(
                f"variable {name!r} is out of range for dimension {self.dim}", _span(tok)
            )
        raise UnknownVariableError(f"unknown variable {name!r}", _span(tok))


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldExpr:
    """A parsed scalar field of a fixed spatial dimension.

    Supports ``+ - * /`` and ``**`` with other fields of the same dimension or
    plain numbers, which is how the coefficient layer builds derived fields.
    """

    root: Node
    dim: int

    def diff(self, variable) -> "FieldExpr":
        return differentiate(self, variable)

    def pretty(self) -> str:
        return _pp(self.root, 0)

    def __str__(self) -> str:
        return self.pretty()

    @property
    def is_constant(self) -> bool:
        return self.root.tag == "const"

    @property
    def constant_value(self) -> float:
        if self.root.tag != "const":
            raise ValueError("field is not constant")
        return self.root.param

    def depends_on_time(self) -> bool:
        return _mentions_time(self.root)

    # -- algebra ---------------------------------------------------------
    def _coerce(self, other) -> Node:
        if isinstance(other, FieldExpr):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch between fields")
            return other.root
        return const(float(other))

    def __add__(self, other):
        return FieldExpr(add(self.root, self._coerce(other)), self.dim)

    def __radd__(self, other):
        return FieldExpr(add(self._coerce(other), self.root), self.dim)

    def __sub__(self, other):
        return FieldExpr(sub(self.root, self._coerce(other)), self.dim)

    def __rsub__(self, other):
        return FieldExpr(sub(self._coerce(other), self.root), self.dim)

    def __mul__(self, other):
        return FieldExpr(mul(self.root, self._coerce(other)), self.dim)

    def __rmul__(self, other):
        return FieldExpr(mul(self._coerce(other), self.root), self.dim)

    def __truediv__(self, other):
        return FieldExpr(div(self.root, self._coerce(other)), self.dim)

    def __rtruediv__(self, other):
        return FieldExpr(div(self._coerce(other), self.root), self.dim)

    def __neg__(self):
        return FieldExpr(neg(self.root), self.dim)

    def __pow__(self, exponent: int):
        return FieldExpr(power(self.root, exponent), self.dim)


def _mentions_time(node: Node) -> bool:
    if node.tag == "var":
        return node.param < 0
    return any(_mentions_time(c) for c in node.children)


def parse_field(source: str, dimension: int) -> FieldExpr:
    """Parse ``source`` into a field over ``x1..x{dimension}`` and ``t``.

    Raises :class:`ExprSyntaxError` or :class:`UnknownVariableError`, each carrying
    the byte span of the offending token.
    """
    if not (1 <= dimension <= MAX_DIMENSION):
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {dimension}")
    return FieldExpr(_Parser(source, dimension).parse(), dimension)


def constant_field(value: float, dimension: int) -> FieldExpr:
    return FieldExpr(const(value), dimension)


def _variable_index(fe: FieldExpr, variable) -> int:
    if variable == "t":
        return -1
    if isinstance(variable, str):
        m = re.fullmatch(r"x([1-9]\d*)", variable)
        if not m:
            raise ValueError(f"unknown variable {variable!r}")
        k = int(m.group(1))
    else:
        k = operator.index(variable)  # refuses 1.7 rather than truncating it
    if not (1 <= k <= fe.dim):
        raise ValueError(f"variable index {k} out of range for dimension {fe.dim}")
    return k - 1


def differentiate(fe: FieldExpr, variable, memo: dict | None = None) -> FieldExpr:
    """Symbolic partial derivative with respect to ``"x1"``.. / 1-based index / ``"t"``.

    Passing one ``memo`` dict to the calls that differentiate fields with common
    subtrees takes each subtree's derivative once.
    """
    root = _deriv(fe.root, _variable_index(fe, variable), {} if memo is None else memo)
    return FieldExpr(root, fe.dim)


def eval_batch(fe: FieldExpr, comps: tuple, t: float, memo: dict | None = None):
    """Vectorized evaluation on coordinate arrays.

    ``comps`` holds one float-or-array per coordinate.  Passing a shared ``memo``
    across several fields evaluated at the same points deduplicates common
    subtrees.  Returns an array broadcast over the inputs, or a plain float when
    the field is constant.  Domain violations raise; non-finite overflow is the
    caller's concern.
    """
    if len(comps) != fe.dim:
        raise ValueError(f"expected {fe.dim} coordinate arrays, got {len(comps)}")
    return _eval(fe.root, comps, t, {} if memo is None else memo)


def eval_points(fe: FieldExpr, pts: np.ndarray, t: float = 0.0) -> np.ndarray:
    """``eval_batch`` at (P, n) points, as a fresh (P,) float array even for a constant."""
    vals = eval_batch(fe, tuple(pts.T), t)
    return np.broadcast_to(np.asarray(vals, dtype=float), (pts.shape[0],)).copy()


# ---------------------------------------------------------------------------
# Compiled evaluation: straight-line ufunc programs
# ---------------------------------------------------------------------------

# Shape classes of array slots, for a batch of R realizations and L labels.
FIELD = 2  # (R, L)
COLUMN = 1  # (R, 1): one value per realization

_UFUNCS = {
    "neg": np.negative,
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}
# ndarray ** e dispatches to these ufuncs for e = 2 and e = -1, and to np.power otherwise.
_POWER_UFUNCS = {2: np.square, -1: np.reciprocal}
_COMMUTATIVE = ("add", "mul")

# Every computed endpoint of an enclosure is widened outward by this relative amount
# (and by the smallest subnormal), which covers the rounding of the endpoint
# arithmetic and the few-ulp error of the transcendental ufuncs.
_WIDEN = 2.0**-40
_TINY = float(np.finfo(float).smallest_subnormal)


def _interval(lo, hi):
    """``[lo, hi]`` widened outward, or None unless it is finite."""
    lo = float(lo) - abs(float(lo)) * _WIDEN - _TINY
    hi = float(hi) + abs(float(hi)) * _WIDEN + _TINY
    return (lo, hi) if np.isfinite(lo) and np.isfinite(hi) else None


def _enclose(tag: str, param, args: list):
    """An interval holding ``tag(*args)`` for every value in the operand intervals.

    None where there is none that is finite: an operand without one, a possible
    overflow, or an operand range on which the domain check of :func:`_apply` could
    fail (a divisor or a negative power's base that may be 0, a log argument that
    may be <= 0).
    """
    if any(a is None for a in args):
        return None
    (lo, hi), other = args[0], args[1:]
    with np.errstate(all="ignore"):
        if tag == "neg":
            return (-hi, -lo)
        if tag == "add":
            return _interval(lo + other[0][0], hi + other[0][1])
        if tag == "sub":
            return _interval(lo - other[0][1], hi - other[0][0])
        if tag in ("mul", "div"):
            blo, bhi = other[0]
            if tag == "div" and blo <= 0.0 <= bhi:
                return None
            ends = [_apply(tag, None, x, y) for x in (lo, hi) for y in (blo, bhi)]
            return _interval(min(ends), max(ends))
        if tag == "pow":
            if param < 0 and lo <= 0.0 <= hi:
                return None
            ends = [np.float64(x) ** param for x in (lo, hi)]
            if param % 2 == 0 and lo < 0.0 < hi:
                return _interval(0.0, max(ends))
            return _interval(min(ends), max(ends))
        if param in ("sin", "cos"):
            return (-1.0, 1.0)
        if param == "log" and lo <= 0.0:
            return None
        return _interval(FUNCTIONS[param](lo), FUNCTIONS[param](hi))  # increasing


def _proves(check, bounds) -> bool:
    """True when every value in ``bounds`` passes the domain check ``check``."""
    if bounds is None:
        return False
    lo, hi = bounds
    if check is _check_log_argument:
        return lo > 0.0
    return lo > 0.0 or hi < 0.0


class ProgramCompiler:
    """Compiles field DAGs and arithmetic on them into one straight-line program.

    A slot (an int) names one value: a constant, a per-step scalar (it depends on
    ``t`` only), an array of shape class FIELD or COLUMN, or a named input array bound
    later.  Constants are folded while building.  Values are numbered by operation
    and operands, with the operands of ``+`` and ``*`` in a canonical order, so
    ``a*b`` and ``b*a`` share one slot (IEEE ``+`` and ``*`` commute bit for bit);
    the interned trees themselves are left as they are.  Every array operation
    writes into a buffer through ``out=``; :meth:`build` assigns the buffers by
    last use.  The domain checks of :func:`_apply` run as ops of their own.

    ``coord_bounds`` (one ``(lo, hi)`` per coordinate) and ``time_bounds`` promise
    that every run sees coordinates and a time inside them.  From them each slot gets
    an interval enclosure, and :meth:`op` folds ``a - a``, ``a*0`` and ``0*a`` to the
    constant 0 and ``a + 0``, ``a - 0`` to ``a`` when ``a`` has a finite enclosure, so
    an overflow or a failed check is never folded away.  A domain check is left out
    only when the enclosure of its operand proves it passes.
    Without bounds only constants have enclosures, and nothing but constants folds.
    """

    def __init__(self, dim: int, coord_bounds=None, time_bounds=None):
        self._kind: list = []  # per slot: "const" | "scalar" | "array" | "input"
        self._shape: list = []  # per slot: FIELD, COLUMN, or 0 for constants and scalars
        self._bounds: list = []  # per slot: finite (lo, hi) enclosure, or None
        self._value: dict = {}  # constant slot -> value
        self._name: dict = {}  # input slot -> name
        self._keys: dict = {}  # value number -> slot
        self._nodes: dict = {}  # id(node) -> slot
        self._scalar_ops: list = []  # (slot, fn, argument slots)
        self._ops: list = []  # (fn, argument slots, out slot or None for a check)
        self.time = self._new("scalar", 0)
        self.coords = tuple(self.input(("x", k)) for k in range(dim))
        if time_bounds is not None:
            self._bounds[self.time] = tuple(map(float, time_bounds))
        if coord_bounds is not None:
            for slot, bounds in zip(self.coords, coord_bounds, strict=True):
                self._bounds[slot] = tuple(map(float, bounds))

    def _new(self, kind: str, shape: int, bounds=None) -> int:
        self._kind.append(kind)
        self._shape.append(shape)
        self._bounds.append(bounds)
        return len(self._kind) - 1

    # -- values --------------------------------------------------------------

    def const(self, value) -> int:
        key = ("const", type(value), float(value).hex())
        slot = self._keys.get(key)
        if slot is None:
            v = float(value)
            slot = self._keys[key] = self._new("const", 0, (v, v) if np.isfinite(v) else None)
            self._value[slot] = value
        return slot

    def input(self, name, shape: int = FIELD) -> int:
        """An array bound by name in :meth:`Program.bind`; it may be written in place."""
        slot = self._new("input", shape)
        self._name[slot] = name
        return slot

    def is_zero(self, slot: int) -> bool:
        """True for a constant exact zero, the only value the engine may skip."""
        return self._kind[slot] == "const" and self._value[slot] == 0.0

    def enclosure(self, slot: int):
        """A finite ``(lo, hi)`` that holds every value of ``slot`` in the bounds, or None."""
        return self._bounds[slot]

    def field(self, fe: FieldExpr) -> int:
        """The slot holding ``fe`` evaluated at the coordinate inputs and time."""
        return self._node(fe.root)

    def _node(self, node: Node) -> int:
        slot = self._nodes.get(id(node))
        if slot is None:
            if node.tag == "const":
                slot = self.const(node.param)
            elif node.tag == "var":
                slot = self.time if node.param < 0 else self.coords[node.param]
            else:
                slot = self.op(node.tag, *[self._node(c) for c in node.children], param=node.param)
            self._nodes[id(node)] = slot
        return slot

    def op(self, tag: str, *args: int, param=None) -> int:
        """The slot of ``tag(*args)``, for the operations of the expression language."""
        key = (tag, param, tuple(sorted(args)) if tag in _COMMUTATIVE else args)
        slot = self._keys.get(key)
        if slot is None:
            slot = self._fold(tag, args)
            if slot is None:
                slot = self._compute(tag, param, args)
            self._keys[key] = slot
        return slot

    def add(self, a: int, b: int) -> int:
        return self.op("add", a, b)

    def mul(self, a: int, b: int) -> int:
        return self.op("mul", a, b)

    def _fold(self, tag: str, args: tuple):
        """The slot of an identity that holds for every finite operand, or None."""
        if tag not in ("add", "sub", "mul") or all(self._kind[a] == "const" for a in args):
            return None
        a, b = args
        finite = self._bounds  # a finite enclosure, or None
        if tag == "sub" and a == b and finite[a]:
            return self.const(0.0)
        if tag == "mul":
            if (self.is_zero(a) and finite[b]) or (self.is_zero(b) and finite[a]):
                return self.const(0.0)
            return None
        if self.is_zero(b) and finite[a]:
            return a
        if tag == "add" and self.is_zero(a) and finite[b]:
            return b
        return None

    def _compute(self, tag: str, param, args: tuple) -> int:
        shape = max(self._shape[a] for a in args)
        bounds = _enclose(tag, param, [self._bounds[a] for a in args])
        if shape and tag == "call" and param in ("sin", "cos"):
            slot = self._sin_cos(args[0], bounds)[param]
        elif shape:
            slot = self._new("array", shape, bounds)
            self._array_op(tag, param, args, slot)
        elif all(self._kind[a] == "const" for a in args):
            slot = self.const(_apply(tag, param, *[self._value[a] for a in args]))
        else:
            slot = self._new("scalar", 0, bounds)
            self._scalar_ops.append((slot, functools.partial(_apply, tag, param), args))
        return slot

    def _sin_cos(self, u: int, bounds) -> dict:
        """The slots of sin(u) and cos(u), emitted together through one tan.

        These are the operations of :func:`_tan_half`, :func:`_sin` and :func:`_cos`,
        so the bits are those of :func:`eval_batch`; ``build`` drops whichever of the
        two no op reads.  1 + t*t >= 1 needs no divisor check.  ``bounds`` encloses
        both: [-1, 1] when ``u`` has an enclosure, else None, as :func:`_enclose` says.
        """
        one = self.const(1.0)
        t = self._emit(np.tan, self.op("mul", u, self.const(0.5)), bounds=None)
        t2 = self.op("mul", t, t)
        r = self._emit(np.divide, one, self.op("add", one, t2), bounds=None)
        pair = {
            "sin": self._emit(np.multiply, self.op("add", t, t), r, bounds=bounds),
            "cos": self._emit(np.multiply, self.op("sub", one, t2), r, bounds=bounds),
        }
        for fn, slot in pair.items():
            self._keys["call", fn, (u,)] = slot
        return pair

    def _emit(self, fn, *args: int, bounds) -> int:
        """A new array slot holding ``fn(*args)``, with no check and no value number."""
        slot = self._new("array", max(self._shape[a] for a in args), bounds)
        self._ops.append((fn, args, slot))
        return slot

    # -- in-place writes -----------------------------------------------------

    def write(self, target: int, tag: str, *args: int) -> None:
        """``target = tag(*args)`` into the input ``target``.

        A write is not value-numbered: emit it after every read of the old value.
        """
        if self._kind[target] != "input":
            raise ValueError("only an input slot can be written")
        self._array_op(tag, None, args, target)

    def _array_op(self, tag: str, param, args: tuple, out: int) -> None:
        if tag == "div":
            self._check(_check_divisor, args[1])
        elif tag == "pow" and param < 0:
            self._check(_check_power_base, args[0])
        elif tag == "call" and param == "log":
            self._check(_check_log_argument, args[0])
        if tag == "call":
            fn = FUNCTIONS[param]
        elif tag == "pow":
            fn = _POWER_UFUNCS.get(param)
            if fn is None:
                fn, args = np.power, (args[0], self.const(param))
        else:
            fn = _UFUNCS[tag]
        self._ops.append((fn, tuple(args), out))

    def _check(self, check, slot: int) -> None:
        if self._kind[slot] == "const":
            check(self._value[slot])  # raises now, before any step
        elif not _proves(check, self._bounds[slot]):
            self._ops.append((check, (slot,), None))

    # -- buffers ---------------------------------------------------------------

    def build(self, outputs: Sequence[int] = ()) -> "Program":
        """Freeze the program; ``outputs`` stay readable after :meth:`BoundProgram.run`.

        Only live array ops are kept: a domain check, a write into an input, and an
        op whose value an output or a kept op reads.  A buffer returns to its pool
        at the last op that reads it, so that op's output may take it: an
        elementwise ufunc whose ``out=`` is one of its inputs gives the same bits.
        """
        live = set(outputs)
        ops = []
        for op in reversed(self._ops):
            _, args, out = op
            if out is None or self._kind[out] != "array" or out in live:
                ops.append(op)
                live.update(args)
        ops.reverse()
        end = len(ops)
        last = {}
        for i, (_, args, _) in enumerate(ops):
            for a in args:
                last[a] = i
        for s in outputs:
            last[s] = end
        free: dict = {FIELD: [], COLUMN: []}
        counts = {FIELD: 0, COLUMN: 0}
        buffers: dict = {}  # array slot -> (shape class, buffer index)
        for i, (_, args, out) in enumerate(ops):
            for a in set(args):
                if last[a] == i and a in buffers:
                    free[buffers[a][0]].append(buffers[a][1])
            if out is not None and self._kind[out] == "array":
                shape = self._shape[out]
                if free[shape]:
                    index = free[shape].pop()
                else:
                    index = counts[shape]
                    counts[shape] += 1
                buffers[out] = (shape, index)
        read = {a for _, args, _ in ops for a in args}
        return Program(
            kinds=tuple(self._kind),
            values=dict(self._value),
            names=dict(self._name),
            time=self.time,
            scalar_ops=tuple(self._scalar_ops),
            ops=tuple(ops),
            buffers=buffers,
            counts=counts,
            feeds=tuple(s for s in sorted(read) if self._kind[s] == "scalar"),
        )


@dataclass(frozen=True, eq=False)
class Program:
    """A built step program: scalar ops, then array ops into pooled buffers.

    It holds no arrays, so one program may be bound to several sets of inputs.
    """

    kinds: tuple
    values: dict
    names: dict
    time: int
    scalar_ops: tuple
    ops: tuple
    buffers: dict
    counts: dict  # shape class -> number of buffers
    feeds: tuple  # scalar slots that array ops read, through 0-d arrays

    def bind(self, inputs: dict, shape: tuple) -> "BoundProgram":
        """Allocate the buffers for (R, L) = ``shape`` and resolve every operand.

        ``inputs`` maps input names to arrays of their shape class; only the inputs
        that some op reads or writes must be present.
        """
        R, L = shape
        pools = {
            FIELD: [np.empty((R, L)) for _ in range(self.counts[FIELD])],
            COLUMN: [np.empty((R, 1)) for _ in range(self.counts[COLUMN])],
        }
        feeds = {s: np.zeros(()) for s in self.feeds}

        def ref(slot: int):
            kind = self.kinds[slot]
            if kind == "const":
                return self.values[slot]
            if kind == "input":
                return inputs[self.names[slot]]
            if kind == "array":
                shape_class, index = self.buffers[slot]
                return pools[shape_class][index]
            return feeds[slot]

        calls = []
        for fn, args, out in self.ops:
            operands = [ref(a) for a in args]
            if out is not None:
                operands.append(ref(out))
            calls.append(functools.partial(fn, *operands))
        return BoundProgram(self, calls, feeds, ref)


class BoundProgram:
    """A program bound to its inputs and to buffers that only it uses."""

    def __init__(self, program: Program, calls: list, feeds: dict, ref: Callable):
        self._program = program
        self._calls = calls
        self._feeds = tuple(feeds.items())
        self._ref = ref
        self._scalars = dict(program.values)

    def run(self, t: float) -> None:
        """Evaluate every op at time ``t``; domain violations raise DomainError."""
        scalars = self._scalars
        scalars[self._program.time] = t
        for slot, fn, args in self._program.scalar_ops:
            scalars[slot] = fn(*[scalars[a] for a in args])
        for slot, zero_d in self._feeds:
            zero_d[()] = scalars[slot]
        for call in self._calls:
            call()

    def value(self, slot: int):
        """The current value of ``slot``: a float, a numpy scalar, or an array."""
        if self._program.kinds[slot] == "scalar":
            return self._scalars[slot]
        return self._ref(slot)
