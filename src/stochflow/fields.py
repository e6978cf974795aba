"""Symbolic scalar fields on R^n x time.

A tiny expression language for the coefficient fields the solvers consume:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] integer)?
    atom   := number | name '(' expr ')' | name | '(' expr ')'

Variables are ``x1`` .. ``x3`` (up to the declared dimension) and ``t``; functions are
``sin``, ``cos``, ``exp``, ``log``, ``tanh``; powers take integer exponents only, so
symbolic derivatives stay inside the language.

Trees are immutable and hash-consed: constructing the same shape twice returns the same
object, which makes structural equality an identity check and lets evaluation share
subtrees across many fields evaluated at the same points.  Constant subtrees are folded
at construction; no other rewriting is done, except that additive/multiplicative
identities with a literal 0/1 operand are dropped (``u*1 -> u``, ``u+0 -> u``) so
derivative output stays readable.

Evaluation is numpy-aware: variable slots may hold floats or same-shaped arrays.
:func:`eval_batch` walks a tree once per call.  For repeated evaluation, as in every
step of the Monte Carlo engine, :class:`ProgramCompiler` compiles many fields at once
into a straight-line program: shared subtrees are numbered once (``a*b`` and ``b*a``
included), constants and time-only subtrees become scalars, and every array operation
writes into a reused buffer, with the same bits as :func:`eval_batch`.
"""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

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
    "evaluate",
    "eval_batch",
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

FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
}

# ---------------------------------------------------------------------------
# AST nodes (interned)
# ---------------------------------------------------------------------------

_INTERN: dict = {}
_INTERN_LOCK = threading.Lock()


def _intern(key, build):
    node = _INTERN.get(key)
    if node is None:
        with _INTERN_LOCK:
            node = _INTERN.get(key)
            if node is None:
                node = build()
                _INTERN[key] = node
    return node


class Node:
    __slots__ = ()
    param = None  # the exponent of a power, the function name of a call

    # identity-based equality/hash: interning guarantees structurally equal
    # trees are the same object.


class Const(Node):
    __slots__ = ("value",)
    tag = "const"
    children = ()

    def __init__(self, value: float):
        self.value = value


class Var(Node):
    __slots__ = ("index", "name")
    tag = "var"
    children = ()

    def __init__(self, index: int, name: str):
        self.index = index  # 0-based coordinate index; -1 means time
        self.name = name


class Neg(Node):
    __slots__ = ("child",)
    tag = "neg"

    def __init__(self, child: Node):
        self.child = child

    @property
    def children(self) -> tuple:
        return (self.child,)


class _Bin(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple:
        return (self.left, self.right)


class Add(_Bin):
    __slots__ = ()
    tag = "add"


class Sub(_Bin):
    __slots__ = ()
    tag = "sub"


class Mul(_Bin):
    __slots__ = ()
    tag = "mul"


class Div(_Bin):
    __slots__ = ()
    tag = "div"


class Pow(Node):
    __slots__ = ("base", "exponent")
    tag = "pow"

    def __init__(self, base: Node, exponent: int):
        self.base = base
        self.exponent = exponent

    @property
    def children(self) -> tuple:
        return (self.base,)

    @property
    def param(self) -> int:
        return self.exponent


class Call(Node):
    __slots__ = ("fn", "child")
    tag = "call"

    def __init__(self, fn: str, child: Node):
        self.fn = fn
        self.child = child

    @property
    def children(self) -> tuple:
        return (self.child,)

    @property
    def param(self) -> str:
        return self.fn


def const(value: float) -> Const:
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return _intern(("c", value), lambda: Const(value))


def var(index: int, name: str) -> Var:
    return _intern(("v", index), lambda: Var(index, name))


ZERO = const(0.0)
ONE = const(1.0)
T_VAR = var(-1, "t")


def neg(u: Node) -> Node:
    if isinstance(u, Const):
        return const(-u.value)
    return _intern(("n", id(u)), lambda: Neg(u))


def add(l: Node, r: Node) -> Node:
    if isinstance(l, Const) and isinstance(r, Const):
        v = l.value + r.value
        if np.isfinite(v):
            return const(v)
    if l is ZERO:
        return r
    if r is ZERO:
        return l
    return _intern(("a", id(l), id(r)), lambda: Add(l, r))


def sub(l: Node, r: Node) -> Node:
    if isinstance(l, Const) and isinstance(r, Const):
        v = l.value - r.value
        if np.isfinite(v):
            return const(v)
    if r is ZERO:
        return l
    if l is ZERO:
        return neg(r)
    return _intern(("s", id(l), id(r)), lambda: Sub(l, r))


def mul(l: Node, r: Node) -> Node:
    if isinstance(l, Const) and isinstance(r, Const):
        v = l.value * r.value
        if np.isfinite(v):
            return const(v)
    if l is ONE:
        return r
    if r is ONE:
        return l
    # NOTE: 0*u is deliberately not folded away: u may carry a domain
    # restriction (log, division) that folding would silently erase.
    return _intern(("m", id(l), id(r)), lambda: Mul(l, r))


def div(l: Node, r: Node) -> Node:
    if isinstance(l, Const) and isinstance(r, Const) and r.value != 0.0:
        v = l.value / r.value
        if np.isfinite(v):
            return const(v)
    if r is ONE:
        return l
    return _intern(("d", id(l), id(r)), lambda: Div(l, r))


def power(base: Node, exponent: int) -> Node:
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and (base.value != 0.0 or exponent > 0):
        v = float(base.value) ** exponent
        if np.isfinite(v):
            return const(v)
    return _intern(("p", id(base), exponent), lambda: Pow(base, exponent))


def call(fn: str, child: Node) -> Node:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if isinstance(child, Const):
        with np.errstate(all="ignore"):
            v = float(FUNCTIONS[fn](child.value))
        if np.isfinite(v):
            return const(v)
    return _intern(("f", fn, id(child)), lambda: Call(fn, child))


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
        out = node.value
    elif tag == "var":
        out = tval if node.index < 0 else comps[node.index]
    else:
        out = _apply(tag, node.param, *[_eval(c, comps, tval, memo) for c in node.children])
    memo[id(node)] = out
    return out


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def _deriv(node: Node, index: int) -> Node:
    """Derivative of ``node`` with respect to coordinate ``index`` (-1 for time)."""
    tag = node.tag
    if tag == "const":
        return ZERO
    if tag == "var":
        return ONE if node.index == index else ZERO
    if tag == "neg":
        d = _deriv(node.child, index)
        return ZERO if d is ZERO else neg(d)
    if tag == "add":
        dl = _deriv(node.left, index)
        dr = _deriv(node.right, index)
        if dl is ZERO:
            return dr
        if dr is ZERO:
            return dl
        return add(dl, dr)
    if tag == "sub":
        dl = _deriv(node.left, index)
        dr = _deriv(node.right, index)
        if dr is ZERO:
            return dl
        if dl is ZERO:
            return neg(dr)
        return sub(dl, dr)
    if tag == "mul":
        dl = _deriv(node.left, index)
        dr = _deriv(node.right, index)
        terms = []
        if dl is not ZERO:
            terms.append(mul(dl, node.right))
        if dr is not ZERO:
            terms.append(mul(node.left, dr))
        if not terms:
            return ZERO
        if len(terms) == 1:
            return terms[0]
        return add(terms[0], terms[1])
    if tag == "div":
        dl = _deriv(node.left, index)
        dr = _deriv(node.right, index)
        if dr is ZERO:
            return ZERO if dl is ZERO else div(dl, node.right)
        if dl is ZERO:
            return neg(div(mul(node.left, dr), power(node.right, 2)))
        return div(sub(mul(dl, node.right), mul(node.left, dr)), power(node.right, 2))
    if tag == "pow":
        db = _deriv(node.base, index)
        if db is ZERO:
            return ZERO
        factor = mul(const(node.exponent), power(node.base, node.exponent - 1))
        return mul(factor, db)
    # call
    d = _deriv(node.child, index)
    if d is ZERO:
        return ZERO
    u = node.child
    if node.fn == "sin":
        outer = call("cos", u)
    elif node.fn == "cos":
        outer = neg(call("sin", u))
    elif node.fn == "exp":
        outer = call("exp", u)
    elif node.fn == "log":
        return div(d, u)
    else:  # tanh
        outer = sub(ONE, power(call("tanh", u), 2))
    return mul(outer, d)


# ---------------------------------------------------------------------------
# Pretty printing (minimal parentheses, reparse-stable)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


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
    if tag == "const" and node.value < 0:
        return _PREC_UNARY  # prints with a leading minus
    return _PREC_ATOM


def _pp(node: Node, min_prec: int) -> str:
    tag = node.tag
    if tag == "const":
        v = node.value
        text = repr(int(v)) if float(v).is_integer() and abs(v) < 1e16 else repr(v)
    elif tag == "var":
        text = node.name
    elif tag == "neg":
        text = "-" + _pp(node.child, _PREC_UNARY)
    elif tag == "add":
        text = _pp(node.left, _PREC_ADD) + " + " + _pp(node.right, _PREC_ADD + 1)
    elif tag == "sub":
        text = _pp(node.left, _PREC_ADD) + " - " + _pp(node.right, _PREC_ADD + 1)
    elif tag == "mul":
        text = _pp(node.left, _PREC_MUL) + "*" + _pp(node.right, _PREC_MUL + 1)
    elif tag == "div":
        text = _pp(node.left, _PREC_MUL) + "/" + _pp(node.right, _PREC_MUL + 1)
    elif tag == "pow":
        text = _pp(node.base, _PREC_ATOM) + "^" + str(node.exponent)
    else:
        return node.fn + "(" + _pp(node.child, 0) + ")"
    if _prec(node) < min_prec:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_INT_RE = re.compile(r"\d+\Z")


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    span: SourceSpan


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace manually to locate the bad char
            stripped = pos
            while stripped < n and source[stripped].isspace():
                stripped += 1
            if stripped >= n:
                break
            raise ExprSyntaxError(
                f"unexpected character {source[stripped]!r}",
                SourceSpan(stripped, stripped + 1),
            )
        for kind in ("num", "name", "op"):
            text = m.group(kind)
            if text is not None:
                tokens.append(_Token(kind, text, SourceSpan(m.end() - len(text), m.end())))
                break
        pos = m.end()
    tokens.append(_Token("end", "", SourceSpan(n, n)))
    return tokens


class _Parser:
    def __init__(self, source: str, dim: int):
        self.source = source
        self.dim = dim
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.span)
        return self.advance()

    def parse(self) -> Node:
        tok = self.peek()
        if tok.kind == "end":
            raise ExprSyntaxError("empty expression", tok.span)
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.span)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = add(node, rhs) if tok.text == "+" else sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.unary()
                node = mul(node, rhs) if tok.text == "*" else div(node, rhs)
            else:
                return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            sign = 1
            tok = self.peek()
            if tok.kind == "op" and tok.text == "-":
                self.advance()
                sign = -1
                tok = self.peek()
            if tok.kind != "num" or not _INT_RE.match(tok.text):
                raise ExprSyntaxError("exponent must be an integer literal", tok.span)
            self.advance()
            return power(base, sign * int(tok.text))
        return base

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return const(float(tok.text))
        if tok.kind == "name":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.span)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return call(tok.text, arg)
            return self._variable(tok)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.span)

    def _variable(self, tok: _Token) -> Node:
        name = tok.text
        if name == "t":
            return T_VAR
        m = re.fullmatch(r"x([1-9]\d*)", name)
        if m:
            k = int(m.group(1))
            if 1 <= k <= self.dim:
                return var(k - 1, name)
            raise UnknownVariableError(
                f"variable {name!r} is out of range for dimension {self.dim}", tok.span
            )
        raise UnknownVariableError(f"unknown variable {name!r}", tok.span)


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------

Scalar = Union[int, float]


@dataclass(frozen=True)
class FieldExpr:
    """A parsed scalar field of a fixed spatial dimension.

    Supports ``+ - * /`` and ``**`` with other fields of the same dimension or
    plain numbers, which is how the coefficient layer builds derived fields.
    """

    root: Node
    dim: int

    def __call__(self, x: Sequence[float] | float, t: float = 0.0) -> float:
        return evaluate(self, x, t)

    def diff(self, variable) -> "FieldExpr":
        return differentiate(self, variable)

    def pretty(self) -> str:
        return _pp(self.root, 0)

    def __str__(self) -> str:
        return self.pretty()

    @property
    def is_constant(self) -> bool:
        return isinstance(self.root, Const)

    @property
    def constant_value(self) -> float:
        if not isinstance(self.root, Const):
            raise ValueError("field is not constant")
        return self.root.value

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
    tag = node.tag
    if tag == "var":
        return node.index < 0
    if tag == "const":
        return False
    if tag == "neg":
        return _mentions_time(node.child)
    if tag == "pow":
        return _mentions_time(node.base)
    if tag == "call":
        return _mentions_time(node.child)
    return _mentions_time(node.left) or _mentions_time(node.right)


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
        k = int(variable)
    if not (1 <= k <= fe.dim):
        raise ValueError(f"variable index {k} out of range for dimension {fe.dim}")
    return k - 1


def differentiate(fe: FieldExpr, variable) -> FieldExpr:
    """Symbolic partial derivative with respect to ``"x1"``.. / 1-based index / ``"t"``."""
    return FieldExpr(_deriv(fe.root, _variable_index(fe, variable)), fe.dim)


def evaluate(fe: FieldExpr, x: Sequence[float] | float, t: float = 0.0) -> float:
    """Evaluate at a single point; returns a finite float or raises DomainError."""
    if np.isscalar(x):
        x = (float(x),)
    if len(x) != fe.dim:
        raise ValueError(f"expected {fe.dim} coordinates, got {len(x)}")
    comps = tuple(float(c) for c in x)
    out = _eval(fe.root, comps, float(t), {})
    out = float(out)
    if not np.isfinite(out):
        raise DomainError("evaluation produced a non-finite value")
    return out


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


def _copy(src, out) -> None:
    np.copyto(out, src)


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
    """

    def __init__(self, dim: int):
        self._kind: list = []  # per slot: "const" | "scalar" | "array" | "input"
        self._shape: list = []  # per slot: FIELD, COLUMN, or 0 for constants and scalars
        self._value: dict = {}  # constant slot -> value
        self._name: dict = {}  # input slot -> name
        self._keys: dict = {}  # value number -> slot
        self._nodes: dict = {}  # id(node) -> slot
        self._scalar_ops: list = []  # (slot, fn, argument slots)
        self._ops: list = []  # (fn, argument slots, out slot or None for a check)
        self.time = self._new("scalar", 0)
        self.coords = tuple(self.input(("x", k)) for k in range(dim))

    def _new(self, kind: str, shape: int) -> int:
        self._kind.append(kind)
        self._shape.append(shape)
        return len(self._kind) - 1

    # -- values --------------------------------------------------------------

    def const(self, value) -> int:
        key = ("const", type(value), float(value).hex())
        slot = self._keys.get(key)
        if slot is None:
            slot = self._keys[key] = self._new("const", 0)
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

    def field(self, fe: FieldExpr) -> int:
        """The slot holding ``fe`` evaluated at the coordinate inputs and time."""
        return self._node(fe.root)

    def _node(self, node: Node) -> int:
        slot = self._nodes.get(id(node))
        if slot is None:
            if node.tag == "const":
                slot = self.const(node.value)
            elif node.tag == "var":
                slot = self.time if node.index < 0 else self.coords[node.index]
            else:
                slot = self.op(node.tag, *[self._node(c) for c in node.children], param=node.param)
            self._nodes[id(node)] = slot
        return slot

    def op(self, tag: str, *args: int, param=None) -> int:
        """The slot of ``tag(*args)``, for the operations of the expression language."""
        key = (tag, param, tuple(sorted(args)) if tag in _COMMUTATIVE else args)
        slot = self._keys.get(key)
        if slot is None:
            slot = self._keys[key] = self._compute(tag, param, args)
        return slot

    def add(self, a: int, b: int) -> int:
        return self.op("add", a, b)

    def mul(self, a: int, b: int) -> int:
        return self.op("mul", a, b)

    def _compute(self, tag: str, param, args: tuple) -> int:
        shape = max(self._shape[a] for a in args)
        if shape:
            slot = self._new("array", shape)
            self._array_op(tag, param, args, slot)
        elif all(self._kind[a] == "const" for a in args):
            slot = self.const(_apply(tag, param, *[self._value[a] for a in args]))
        else:
            slot = self._new("scalar", 0)
            self._scalar_ops.append((slot, functools.partial(_apply, tag, param), args))
        return slot

    # -- in-place writes -----------------------------------------------------

    def write(self, target: int, tag: str, *args: int) -> None:
        """``target = tag(*args)`` into the input ``target``; ``"copy"`` copies one slot.

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
        if tag == "copy":
            fn = _copy
        elif tag == "call":
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
        else:
            self._ops.append((check, (slot,), None))

    # -- buffers ---------------------------------------------------------------

    def build(self, outputs: Sequence[int] = ()) -> "Program":
        """Freeze the program; ``outputs`` stay readable after :meth:`BoundProgram.run`.

        A buffer returns to its pool after the last op that reads it, and an op's
        output never shares a buffer with its own operands.
        """
        end = len(self._ops)
        last = {}
        for i, (_, args, _) in enumerate(self._ops):
            for a in args:
                last[a] = i
        for s in outputs:
            last[s] = end
        free: dict = {FIELD: [], COLUMN: []}
        counts = {FIELD: 0, COLUMN: 0}
        buffers: dict = {}  # array slot -> (shape class, buffer index)
        for i, (_, args, out) in enumerate(self._ops):
            if out is not None and self._kind[out] == "array":
                shape = self._shape[out]
                if free[shape]:
                    index = free[shape].pop()
                else:
                    index = counts[shape]
                    counts[shape] += 1
                buffers[out] = (shape, index)
                if out not in last:
                    free[shape].append(index)
            for a in set(args):
                if last[a] == i and a in buffers:
                    free[buffers[a][0]].append(buffers[a][1])
        read = {a for _, args, _ in self._ops for a in args}
        return Program(
            kinds=tuple(self._kind),
            values=dict(self._value),
            names=dict(self._name),
            time=self.time,
            scalar_ops=tuple(self._scalar_ops),
            ops=tuple(self._ops),
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
