"""Scalar function DSL: parsing, printing, and forward-mode derivatives to order 3.

The DSL describes real functions of a single parameter ``s``.  It supports
numeric literals, the constant ``pi``, the operators ``+ - * / ^`` (with
``^`` right-associative and binding tighter than unary minus), and the
functions sin, cos, tan, atan, sqrt, exp, log, abs.  The grammar is in
``docs/grammar.ebnf``.

Evaluation returns a :class:`Jet3` carrying the value and the first three
derivatives with respect to ``s``, computed by truncated-Taylor arithmetic
(no finite differencing).  Two orders exist, and each caller asks for the one
it reads.  Order 3 serves the curve (:func:`curve.eval_curve`): torsion needs
the third derivative of the position.  Order 1 serves the director
coefficients (``RuledSurface.coefficients``) and an explicit theta
(``FrameField.theta_at``), which only X, X' and theta' read; its jet has d2 =
d3 = None, and its value and d1 equal those of order 3 bit for bit, since
forward mode never reads a higher derivative to make a lower one.  An
expression that is C^1 but not C^3 at a sample therefore fails there at order
3 only.  ``s`` may be a float or a 1-D grid of parameters; on a grid every
field of the jet is an array, and each element equals the jet evaluated at
that parameter alone, bit for bit.

Exponents must be constant expressions (no ``s``); a non-integer exponent
additionally requires a positive base.

Every grid evaluation in the package, from these jets up, keeps one rule,
the float path: a grid call does not raise for a failing sample; where the
float call would raise, the grid gives NaN, and the float call there decides,
naming the skip reason or ending the job with its own error; where it raises
nothing, the value overflowed, and a reported one ends the job naming it and s.
:func:`_float_path` is the one probe that makes those float calls.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Union

import numpy as np

from .record import Record, fields


# ---------------------------------------------------------------------------
# errors


class ExprError(Exception):
    """Base class for DSL errors."""


class ExprSyntaxError(ExprError):
    """Malformed source text.  Carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ExprSyntaxError):
    """Identifier other than `s`, `pi`, or a known function name."""


class ExprDomainError(ExprError):
    """Evaluation left the real domain (log of nonpositive, zero divide, ...)."""

    def __init__(self, message: str, subexpr: "Expr | None" = None):
        self.subexpr = subexpr
        if subexpr is not None:
            message = f"{message} in '{to_string(subexpr)}'"
        super().__init__(message)


# ---------------------------------------------------------------------------
# jets


class Jet3(Record):
    """Value and derivatives of orders 1..3 of a scalar function at a point,
    or (fields as arrays) at each point of a grid.  A jet of order 1 has
    ``d2 = d3 = None``, and arithmetic with one gives a jet of order 1."""

    __slots__ = ("value", "d1", "d2", "d3")

    def __init__(self, value, d1=0.0, d2=0.0, d3=0.0):
        # Spelled out: every arithmetic step builds one, and this is about
        # twice as fast as the generic constructor.
        _set = object.__setattr__
        _set(self, "value", value)
        _set(self, "d1", d1)
        _set(self, "d2", d2)
        _set(self, "d3", d3)

    def __add__(self, other):
        o = _as_jet(other)
        if self.d2 is None or o.d2 is None:
            return Jet3(self.value + o.value, self.d1 + o.d1, None, None)
        return Jet3(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __neg__(self):
        if self.d2 is None:
            return Jet3(-self.value, -self.d1, None, None)
        return Jet3(-self.value, -self.d1, -self.d2, -self.d3)

    def __sub__(self, other):
        o = _as_jet(other)
        if self.d2 is None or o.d2 is None:
            return Jet3(self.value - o.value, self.d1 - o.d1, None, None)
        return Jet3(self.value - o.value, self.d1 - o.d1, self.d2 - o.d2, self.d3 - o.d3)

    def __mul__(self, other):
        o = _as_jet(other)
        a, b = self, o
        if a.d2 is None or b.d2 is None:
            return Jet3(a.value * b.value, a.d1 * b.value + a.value * b.d1, None, None)
        return Jet3(
            a.value * b.value,
            a.d1 * b.value + a.value * b.d1,
            a.d2 * b.value + 2.0 * a.d1 * b.d1 + a.value * b.d2,
            a.d3 * b.value + 3.0 * a.d2 * b.d1 + 3.0 * a.d1 * b.d2 + a.value * b.d3,
        )

    __rmul__ = __mul__


def _as_jet(x) -> Jet3:
    if isinstance(x, Jet3):
        return x
    return Jet3(float(x))


def compose(g: Jet3, f0, f1, higher) -> Jet3:
    """Chain rule for f(g) given f and f' at g.value; ``higher()`` returns
    f'' and f''' there, and is called only when ``g`` is of order 3."""
    if g.d2 is None:
        return Jet3(f0, f1 * g.d1, None, None)
    f2, f3 = higher()
    return Jet3(
        f0,
        f1 * g.d1,
        f1 * g.d2 + f2 * g.d1 * g.d1,
        f1 * g.d3 + 3.0 * f2 * g.d1 * g.d2 + f3 * power(g.d1, 3),
    )


def _reciprocal(g: Jet3) -> Jet3:
    x = g.value
    sq = power(x, 2)
    if isinstance(x, np.ndarray):  # NaN, not -1/inf = -0, where the float x^2 raises
        sq[(sq == math.inf) & np.isfinite(x)] = math.nan
    return compose(g, 1.0 / x, -1.0 / sq,
                   lambda: (2.0 / power(x, 3), -6.0 / power(x, 4)))


# ---------------------------------------------------------------------------
# primitives: a float goes to ``math``; an array goes to a numpy ufunc where
# that rounds like ``math`` (sin, cos, sqrt, and ``np.float_power`` for
# ``**``), and otherwise through ``math`` element by element (numpy's tan,
# arctan, exp and log differ from it in the last ulp), so grid and per-point
# evaluation agree bit for bit.  Where ``math`` raises, an array element is
# NaN.

_UFUNCS = {math.sin: np.sin, math.cos: np.cos, math.sqrt: np.sqrt}


def _or_nan(fn, v: float) -> float:
    try:
        return fn(v)
    except (ArithmeticError, ValueError):  # math's range and domain errors
        return math.nan


def _apply(fn, x):
    if not isinstance(x, np.ndarray):
        return fn(x)
    ufunc = _UFUNCS.get(fn)
    return ufunc(x) if ufunc else np.array([_or_nan(fn, v) for v in x.tolist()])


def power(x, p: float):
    """``x ** p`` with the rounding of a float power, elementwise on an array.
    Where the float power raises (overflow, or zero to a negative power), the
    array element is +-inf."""
    if isinstance(x, np.ndarray):
        return np.float_power(x, p)
    return x ** p


def _on_float(cond) -> bool:
    """``cond`` at a float; False on a grid (its failing rows: :func:`_eval_grid`)."""
    return not isinstance(cond, np.ndarray) and cond


def _float_path(fn, s: np.ndarray, values, catch=(), quantity=None):
    """(ok, {index: error class name}) from ``fn(float(s[i]))`` at each row i
    of ``values`` that is not all finite, in index order; ``ok`` is False where
    it raised ``catch``.  Other errors propagate: with no ``catch``, the first.
    With a ``quantity``, a call raising nothing raises "<quantity> is not finite"."""
    ok, failed = np.ones(len(s), dtype=bool), {}
    finite = np.isfinite(values)  # one reduction where all are, as on most grids
    for i in [] if finite.all() else np.flatnonzero(
            ~finite.all(axis=tuple(range(1, finite.ndim)))).tolist():
        try:
            fn(float(s[i]))
        except catch as err:
            ok[i] = False
            failed[i] = type(err).__name__
        if quantity and ok[i]:
            raise FloatingPointError(f"{quantity} is not finite at s={float(s[i])}")
    return ok, failed


def _finite(quantity: str, s: np.ndarray, values):
    """``values``, through :func:`_float_path` with a float call raising nothing."""
    _float_path(lambda t: None, s, values, quantity=quantity)
    return values


def _stacked(fn, grids, axis=0) -> list:
    """``[fn(g) for g in grids]``, from one call of ``fn`` on the grids stacked
    end to end, each grid's piece cut along ``axis`` from every array of the
    result, tuples and records field by field; floats take one call each, in
    order, so that each can raise."""
    if not isinstance(grids[0], np.ndarray):
        return [fn(g) for g in grids]
    whole = fn(np.concatenate(grids))
    ends = list(itertools.accumulate(map(len, grids), initial=0))
    return [_cut(whole, (slice(None),) * axis + (slice(a, b),))
            for a, b in zip(ends, ends[1:])]


def _cut(value, cut):
    if value is None:  # d2 and d3 of a jet of order 1
        return None
    if isinstance(value, np.ndarray):
        return value[cut]
    if isinstance(value, tuple):
        return tuple(_cut(v, cut) for v in value)
    return type(value)(*(_cut(v, cut) for v in fields(value).values()))


# ---------------------------------------------------------------------------
# syntax tree


class Num(Record):
    __slots__ = ("value",)


class Var(Record):
    """The parameter ``s``."""

    __slots__ = ()


class Pi(Record):
    """The constant pi."""

    __slots__ = ()


class Neg(Record):
    __slots__ = ("operand",)


class BinOp(Record):
    __slots__ = ("op", "left", "right")  # op: one of + - * / ^


class Call(Record):
    __slots__ = ("func", "arg")


Expr = Union[Num, Var, Pi, Neg, BinOp, Call]

FUNCTIONS = ("sin", "cos", "tan", "atan", "sqrt", "exp", "log", "abs")


def contains_var(e: Expr) -> bool:
    match e:
        case Var():
            return True
        case Neg(operand):
            return contains_var(operand)
        case BinOp(_, left, right):
            return contains_var(left) or contains_var(right)
        case Call(_, arg):
            return contains_var(arg)
        case _:
            return False


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip leading whitespace before reporting
            stripped = len(text) - len(text[pos:].lstrip())
            if stripped >= len(text):
                break
            raise ExprSyntaxError(f"unexpected character {text[stripped]!r}", stripped)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ExprSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input",
                              off, expected=(repr(op),))

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {val!r}", off,
                                  expected=("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        return self.chain("+-", self.term)

    def term(self) -> Expr:
        return self.chain("*/", self.factor)

    def chain(self, ops: str, operand) -> Expr:
        """``operand`` (op ``operand``)*, for op in ``ops``, left-associative."""
        e = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            e = BinOp(self.advance()[1], e, operand())
        return e

    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            exponent = self.factor()
            if contains_var(exponent):
                raise ExprSyntaxError("exponent must be a constant expression", off)
            return BinOp("^", base, exponent)
        return base

    def atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            if val == "s":
                return Var()
            if val == "pi":
                return Pi()
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise UnknownIdentifierError(
                f"unknown identifier {val!r}", off,
                expected=("s", "pi") + FUNCTIONS)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            f"unexpected {val!r}" if val else "unexpected end of input", off,
            expected=("number", "identifier", "'('", "'-'"))


def parse(text: str) -> Expr:
    """Parse DSL source text into a syntax tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    match e:
        case BinOp("+" | "-", _, _):
            return _PREC_ADD
        case BinOp("*" | "/", _, _):
            return _PREC_MUL
        case BinOp("^", _, _):
            return _PREC_POW
        case Neg(_):
            return _PREC_NEG
        case Num(v) if v < 0:
            return _PREC_NEG
        case _:
            return _PREC_ATOM


def _wrap(e: Expr, min_prec: int) -> str:
    s = to_string(e)
    if _prec(e) < min_prec:
        return "(" + s + ")"
    return s


def to_string(e: Expr) -> str:
    """Print a tree so that re-parsing reproduces it structurally."""
    match e:
        case Num(v):
            return repr(v) if v >= 0 else "-" + repr(-v)
        case Var():
            return "s"
        case Pi():
            return "pi"
        case Neg(operand):
            return "-" + _wrap(operand, _PREC_NEG)
        case BinOp("+" as op, left, right) | BinOp("-" as op, left, right):
            return _wrap(left, _PREC_ADD) + op + _wrap(right, _PREC_ADD + 1)
        case BinOp("*" as op, left, right) | BinOp("/" as op, left, right):
            return _wrap(left, _PREC_MUL) + op + _wrap(right, _PREC_MUL + 1)
        case BinOp("^", left, right):
            return _wrap(left, _PREC_ATOM) + "^" + _wrap(right, _PREC_NEG)
        case Call(func, arg):
            return f"{func}({to_string(arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation


def _falling_pow(g: Jet3, p: float, node: Expr) -> Jet3:
    x = g.value
    if _on_float(x < 0) and p != round(p):
        raise ExprDomainError("negative base with non-integer exponent", node)
    zero = x == 0.0
    fs = []
    coef = 1.0
    for k in range(2 if g.d2 is None else 4):
        if k:
            coef *= p - (k - 1)
        if coef == 0.0:
            fs.append(0.0)
            continue
        q = p - k
        if q < 0 and _on_float(zero):
            raise ExprDomainError("zero base with negative exponent", node)
        f = coef * power(x, q)  # inf at a zero base of a grid if q < 0
        if not q < 0:  # a zero base takes the exact limit
            at_zero = coef if q == 0 else 0.0
            f = (np.where(zero, at_zero, f) if isinstance(x, np.ndarray)
                 else at_zero if zero else f)
        fs.append(f)
    return compose(g, fs[0], fs[1], lambda: fs[2:])


def _eval_call(name: str, g: Jet3, node: Expr) -> Jet3:
    x = g.value
    if name == "sin":
        s, c = _apply(math.sin, x), _apply(math.cos, x)
        return compose(g, s, c, lambda: (-s, -c))
    if name == "cos":
        s, c = _apply(math.sin, x), _apply(math.cos, x)
        return compose(g, c, -s, lambda: (-c, s))
    if name == "tan":
        t = _apply(math.tan, x)
        sec2 = 1.0 + t * t
        return compose(g, t, sec2,
                       lambda: (2.0 * t * sec2, 2.0 * sec2 * (1.0 + 3.0 * t * t)))
    if name == "atan":
        d = 1.0 + x * x
        return compose(g, _apply(math.atan, x), 1.0 / d,
                       lambda: (-2.0 * x / power(d, 2), (6.0 * x * x - 2.0) / power(d, 3)))
    if name == "sqrt":
        if _on_float(x <= 0.0):
            raise ExprDomainError("sqrt needs a positive argument for differentiation",
                                  node)
        r = _apply(math.sqrt, x)
        return compose(g, r, 0.5 / r, lambda: (-0.25 / (x * r), 0.375 / (x * x * r)))
    if name == "exp":
        v = _apply(math.exp, x)
        return compose(g, v, v, lambda: (v, v))
    if name == "log":
        if _on_float(x <= 0.0):
            raise ExprDomainError("log of a non-positive value", node)
        v = _apply(math.log, x)
        if isinstance(x, np.ndarray):  # NaN wherever the log is: x^0 drops a NaN
            x = np.where(np.isnan(v), np.nan, x)
        return compose(g, v, 1.0 / x, lambda: (-1.0 / power(x, 2), 2.0 / power(x, 3)))
    if name == "abs":
        sgn = 1.0 * (x > 0) - 1.0 * (x < 0)
        return compose(g, abs(x), sgn, lambda: (0.0, 0.0))
    raise ExprDomainError(f"unknown function {name}", node)


def eval_jet(e: "Expr | str", s, order: int = 3) -> Jet3:
    """Evaluate an expression (tree or source text) with derivatives at ``s``,
    a float or a 1-D numpy array (then every field of the jet is an array).
    ``order`` is 3, or 1 for a jet without d2 and d3 (both None), which skips
    their arithmetic and so fails only where the value or d1 does.

    A float raises :class:`ExprDomainError` where the expression is undefined
    or leaves the float range of ``math``; a grid does not raise, and its row
    is NaN in every field exactly where the float evaluation there raises.
    """
    if isinstance(e, str):
        e = parse(e)
    if isinstance(s, np.ndarray):
        return _eval_grid(e, s.astype(float), order)
    try:
        return _eval(e, Jet3(float(s), 1.0, *_HIGHER[order]))
    except (ArithmeticError, ValueError) as err:  # math range and domain errors
        raise ExprDomainError(f"{err} at s={s}") from err


# d2 and d3 of the jet of s itself, by order
_HIGHER = {3: (0.0, 0.0), 1: (None, None)}


def _eval_grid(e: Expr, grid: np.ndarray, order: int) -> Jet3:
    # With numpy's errors ignored, a row holds inf or NaN where the float call
    # raises (and where it overflows without raising: the float path tells them
    # apart).  A subexpression without ``s`` raises here, failing every row.
    fields = np.full((order + 1,) + grid.shape, np.nan)  # value, d1[, d2, d3]
    try:
        with np.errstate(all="ignore"):
            j = _eval(e, Jet3(grid, 1.0, *_HIGHER[order]))
    except (ExprError, ArithmeticError, ValueError):
        return Jet3(*fields, *(None,) * (3 - order))
    for row, f in zip(fields, (j.value, j.d1, j.d2, j.d3)):
        row[...] = f
    ok, _ = _float_path(lambda t: eval_jet(e, t, order), grid, fields.T, ExprError)
    fields[:, ~ok] = np.nan
    return Jet3(*fields, *(None,) * (3 - order))


def _eval(e: Expr, sj: Jet3) -> Jet3:
    match e:
        case Num(v):  # a constant's d2 and d3 are those of s: 0, or None at order 1
            return Jet3(float(v), 0.0, sj.d2, sj.d3)
        case Pi():
            return Jet3(math.pi, 0.0, sj.d2, sj.d3)
        case Var():
            return sj
        case Neg(operand):
            return -_eval(operand, sj)
        case BinOp("+", left, right):
            return _eval(left, sj) + _eval(right, sj)
        case BinOp("-", left, right):
            return _eval(left, sj) - _eval(right, sj)
        case BinOp("*", left, right):
            return _eval(left, sj) * _eval(right, sj)
        case BinOp("/", left, right):
            denom = _eval(right, sj)
            if _on_float(denom.value == 0.0):
                raise ExprDomainError("division by zero", right)
            return _eval(left, sj) * _reciprocal(denom)
        case BinOp("^", left, right):
            p = _eval(right, sj).value
            return _falling_pow(_eval(left, sj), p, e)
        case Call(func, arg):
            return _eval_call(func, _eval(arg, sj), e)
    raise TypeError(f"not an Expr node: {e!r}")
