"""Tiny expression language with exact derivative jets up to order 3.

Grammar (no implicit multiplication, ``pow`` takes a constant exponent):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-'? atom
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)? ')' | '(' expr ')'
    IDENT  := x | t | exp | log | sin | cos | abs | pow | a parameter name

``x`` and ``t`` are two spellings of the single free variable.  Numbers are
unsigned decimals with an optional exponent part; negative constants are
written with the unary minus, which folds into a number it directly
precedes.  ``parse`` may also declare named parameters, such as ``c`` and
``lam`` in ``c*exp(lam*x)``; ``value`` and ``jet3`` then bind each name to
a number or to an array that broadcasts against ``x``, so one tape serves
a whole batch of parameter draws.

The parser emits a flat tape: a tuple of ``(op, const)`` entries in
evaluation (postfix) order, where ``const`` holds a number, a ``pow``
exponent or a parameter's index.  Every result is read once, by the next
entry that needs it, so an entry's arguments are always the top of a
stack and the entries of any subexpression form a tape of their own.  One
loop runs the tape for values and for jets, and each primitive is written
once.

Evaluation is numpy-vectorised: passing an ndarray evaluates elementwise
and returns read-only arrays of the input shape, computed in slices of
EVAL_CHUNK points bit for bit as one run would, so callers never slice.
A number x runs as a one-point array and returns floats with its bits.
Jets propagate the value and first three derivatives through every
operation, so no finite differencing is involved anywhere.

A third lane runs the same tape and the same jet rules on Intervals:
``enclose3`` encloses the value and the first three derivatives over
whole intervals [lo, hi], rounding every result outward.  Where a point
run would raise DomainError, an interval that meets the domain edge
encloses as the whole line instead, so a caller can bisect it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .interval import ENTIRE, Interval, rows

__all__ = [
    "KINK_TOL",
    "ParseError",
    "DomainError",
    "Jet3",
    "Interval",
    "Expression",
    "parse",
]

# Jets of abs(u) refuse to evaluate when |u| is at or below this.
KINK_TOL = 1e-12
# Points per run of the tape.  A jet makes dozens of temporaries of the
# run's size; at this size they stay in cache and are reused from the heap
# instead of being mapped from the system, zeroed and unmapped each time.
EVAL_CHUNK = 1 << 13


class ParseError(ValueError):
    """Rejected input, carrying the character offset of the offense."""

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
        self.message = message


class DomainError(ValueError):
    """Evaluation left the smooth domain: log of a non-positive argument,
    division by zero, a fractional power of a non-positive base, or a
    derivative of abs within KINK_TOL of its kink."""


@dataclass(frozen=True, eq=False)
class Jet3:
    """Value and first three derivatives of a function at a point.

    Entries are floats for scalar evaluation points, ndarrays for
    vectorised ones and Intervals for enclosures.  Arithmetic follows the
    usual sum, Leibniz and quotient rules truncated at order three, and
    combines a jet with a jet only: a tape run lifts each constant and
    parameter into one (``constant``) before it meets a jet.
    """

    d0: object
    d1: object
    d2: object
    d3: object

    @staticmethod
    def constant(c):
        return Jet3(c, 0.0, 0.0, 0.0)

    @staticmethod
    def variable(x):
        return Jet3(x, 1.0, 0.0, 0.0)

    def __add__(self, o):
        return Jet3(self.d0 + o.d0, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    def __sub__(self, o):
        return Jet3(self.d0 - o.d0, self.d1 - o.d1, self.d2 - o.d2, self.d3 - o.d3)

    def __neg__(self):
        return Jet3(-self.d0, -self.d1, -self.d2, -self.d3)

    def __mul__(self, other):
        f, g = self, other
        return Jet3(
            f.d0 * g.d0,
            f.d1 * g.d0 + f.d0 * g.d1,
            f.d2 * g.d0 + 2.0 * f.d1 * g.d1 + f.d0 * g.d2,
            f.d3 * g.d0 + 3.0 * f.d2 * g.d1 + 3.0 * f.d1 * g.d2 + f.d0 * g.d3,
        )

    def __truediv__(self, other):
        f, g = self, other
        edge = _edge(g.d0, g.d0 == 0.0, "division by zero")
        # Solve f = q*g order by order.
        q0 = f.d0 / g.d0
        q1 = (f.d1 - q0 * g.d1) / g.d0
        q2 = (f.d2 - q0 * g.d2 - 2.0 * q1 * g.d1) / g.d0
        q3 = (f.d3 - q0 * g.d3 - 3.0 * q1 * g.d2 - 3.0 * q2 * g.d1) / g.d0
        return _unbounded(Jet3(q0, q1, q2, q3), edge)


def _chain(u: Jet3, f0, f1, f2, f3) -> Jet3:
    """Compose outer derivatives f0..f3 (evaluated at u.d0) with the jet u."""
    return Jet3(
        f0,
        f1 * u.d1,
        f2 * u.d1 * u.d1 + f1 * u.d2,
        f3 * u.d1 * u.d1 * u.d1 + 3.0 * f2 * u.d1 * u.d2 + f1 * u.d3,
    )


# ---------------------------------------------------------------------------
# Tape primitives.  Binary ones take their two arguments, unary ones their
# argument and the entry's constant.  An argument is a value (a float or an
# ndarray) on a value run and a Jet3 on a jet run, of numbers or of
# Intervals; domain checks look at the value part only, so the point runs
# refuse the same points and an interval run marks the intervals that
# possibly meet them.


def _edge(u0, bad, message: str):
    """Where the argument u0 meets a domain edge, ``bad``: a point lane
    raises DomainError at any; an interval lane returns the mask (None
    when empty) for _unbounded."""
    if isinstance(u0, Interval):
        return bad if bad.any() else None
    if np.any(bad):
        raise DomainError(message)
    return None


def _unbounded(r, edge):
    """r, a Jet3 or an Interval, with each component the whole line where
    ``edge`` holds."""
    if edge is None:
        return r
    if isinstance(r, Jet3):
        return Jet3(*(_unbounded(c, edge) for c in (r.d0, r.d1, r.d2, r.d3)))
    return Interval(np.where(edge, ENTIRE, rows(r)))


def _div(u, v):
    if not isinstance(v, Jet3):  # a jet's division checks its own divisor
        _edge(v, v == 0.0, "division by zero")
    return u / v


def _powi(u, n):
    """u ** n for an integer n by repeated squaring with the ``*`` of u (a
    float, an ndarray or a Jet3), so a value is its jet's d0 bit for bit;
    valid for any base, and a float overflows to +-inf rather than raising."""
    u0 = u.d0 if isinstance(u, Jet3) else u
    if n <= 0:
        if n < 0:  # on an interval lane, the division below marks the edge
            _edge(u0, u0 == 0.0, "zero base with negative exponent")
        one = (Interval.point(1.0) if isinstance(u0, Interval)
               else np.ones_like(np.asarray(u0, dtype=float)))
        one = Jet3.constant(one) if isinstance(u, Jet3) else one
        return one if n == 0 else one / _powi(u, -n)
    result = None
    while n:
        if n & 1:
            result = u if result is None else result * u
        n >>= 1
        if n:
            u = u * u
    return result


def _abs(u, c):
    # Values are fine everywhere; only derivatives mind the kink.
    if not isinstance(u, Jet3):
        return np.abs(u)
    edge = _edge(u.d0, np.abs(u.d0) <= KINK_TOL, "derivative of abs within 1e-12 of its kink")
    sgn = np.where(u.d0 > 0.0, 1.0, -1.0)
    return _unbounded(Jet3(np.abs(u.d0), sgn * u.d1, sgn * u.d2, sgn * u.d3), edge)


def _smooth(outer, refusal=None):
    """The primitive whose outer derivatives ``outer(u0, c)`` yields one at
    a time, f0 first, so a value run computes only f0.  ``refusal`` names
    the error for an argument that is not positive."""

    def primitive(u, c):
        jet = isinstance(u, Jet3)
        u0 = u.d0 if jet else u
        edge = None if refusal is None else _edge(u0, u0 <= 0.0, refusal)
        return _unbounded(_chain(u, *outer(u0, c)), edge) if jet else next(outer(u0, c))

    return primitive


def _exp(u0, c):
    e = np.exp(u0)
    yield from (e, e, e, e)


def _log(u0, c):
    yield np.log(u0)
    inv = 1.0 / u0
    yield from (inv, -inv * inv, 2.0 * inv * inv * inv)


def _sin(u0, c):
    s = np.sin(u0)
    yield s
    co = np.cos(u0)
    yield from (co, -s, -co)


def _cos(u0, c):
    co = np.cos(u0)
    yield co
    s = np.sin(u0)
    yield from (-s, -co, s)


def _pow(u0, r):
    """Fractional power with the constant exponent r.  A constant base is
    cast to a numpy float, whose pow gives inf where a float's raises
    OverflowError: pow(x, pow(10, 400.5)) is refused as a non-finite exponent.
    On an interval base, r is a point interval, so that r - 1.0 and the
    coefficients round outward too."""
    if isinstance(u0, Interval):
        r = Interval.point(r)
    elif np.ndim(u0) == 0:
        u0 = np.float64(u0)
    yield u0 ** r
    yield r * u0 ** (r - 1.0)
    yield r * (r - 1.0) * u0 ** (r - 2.0)
    yield r * (r - 1.0) * (r - 2.0) * u0 ** (r - 3.0)


# + - * and negation are operators that floats, arrays and Jet3 share.
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": _div}
_UNARY = {
    "neg": lambda u, c: -u,
    "powi": _powi,
    "abs": _abs,
    "exp": _smooth(_exp),
    "log": _smooth(_log, "log of a non-positive argument"),
    "sin": _smooth(_sin),
    "cos": _smooth(_cos),
    "pow": _smooth(_pow, "fractional power of a non-positive base"),
}


@np.errstate(all="ignore")
def _run(tape, x, lane: str, args=()):
    """Run the tape at x with the parameter values ``args`` on one lane:
    "value" returns the value, "jet" the jet's d0..d3, and "interval" the
    rows of the enclosures d0..d3 over the intervals whose rows x holds,
    each as a tuple.  Constants and parameters are exact points, so on the
    interval lane they are point intervals.  Overflow and invalid
    operations give inf and nan without a warning; the callers that need
    finite numbers check for them."""
    if lane == "value":
        var, lift = x, None
    elif lane == "jet":
        var, lift = Jet3.variable(x), Jet3.constant
    else:
        var, lift = Jet3.variable(Interval(x)), lambda v: Jet3.constant(Interval.point(v))
    stack = []
    for op, c in tape:
        if op in _BINARY:
            # No local keeps an operand: each result is freed once it is read.
            stack.append(_BINARY[op](stack.pop(-2), stack.pop()))
        elif op in _UNARY:
            stack.append(_UNARY[op](stack.pop(), c))
        elif op == "var":
            stack.append(var)
        else:
            value = args[c] if op == "param" else c
            stack.append(value if lift is None else lift(value))
    out = stack.pop()
    return (out,) if lift is None else tuple(rows(c) for c in (out.d0, out.d1, out.d2, out.d3))


# ---------------------------------------------------------------------------
# Tokenizer and recursive-descent parser.

# Tried in this order at each position, after any whitespace.
_TOKEN_RE = re.compile(
    r"(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[-+*/(),])"
)

_FUNCTIONS = {"exp": 1, "log": 1, "sin": 1, "cos": 1, "abs": 1, "pow": 2}
_VARIABLES = ("x", "t")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(i, f"unexpected character {text[i]!r}")
        # Punctuation is its own token kind.
        kind = m.group() if m.lastgroup == "punct" else m.lastgroup
        tokens.append(_Token(kind, m.group(), i))
        i = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    """Emits tape entries as it parses, each operation after its arguments."""

    def __init__(self, text: str, params: tuple):
        self.tokens = _tokenize(text)
        self.i = 0
        self.tape = []
        self.params = {name: k for k, name in enumerate(params)}

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def parse(self) -> tuple:
        self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            if tok.kind in ("number", "ident", "("):
                raise ParseError(tok.pos, "implicit multiplication is not allowed")
            raise ParseError(tok.pos, f"unexpected {tok.text!r}")
        return tuple(self.tape)

    def expr(self) -> None:
        self._left_assoc(self.term, {"+": "add", "-": "sub"})

    def term(self) -> None:
        self._left_assoc(self.factor, {"*": "mul", "/": "div"})

    def _left_assoc(self, operand, ops: dict) -> None:
        operand()
        while self.peek().kind in ops:
            op = ops[self.advance().kind]
            operand()
            self.tape.append((op, None))

    def factor(self) -> None:
        if self.peek().kind != "-":
            self.atom()
        elif self.tokens[self.i + 1].kind == "number":
            # A negative literal is one constant, so "(-1.5)" runs as a
            # parameter bound to -1.5 does, jets included.
            self.advance()
            self.tape.append(("const", -float(self.advance().text)))
        else:
            self.advance()
            self.atom()
            self.tape.append(("neg", None))

    def atom(self) -> None:
        tok = self.advance()
        if tok.kind == "number":
            self.tape.append(("const", float(tok.text)))
        elif tok.kind == "(":
            self.expr()
            closing = self.advance()
            if closing.kind != ")":
                raise ParseError(closing.pos, "expected ')'")
        elif tok.kind == "ident":
            self._ident(tok)
        else:
            raise ParseError(tok.pos, "expected a number, a name, or '('")

    def _ident(self, tok: _Token) -> None:
        name = tok.text
        if name in _VARIABLES or name in self.params:
            if self.peek().kind == "(":
                raise ParseError(self.peek().pos, f"'{name}' is not a function")
            self.tape.append(("var", None) if name in _VARIABLES else ("param", self.params[name]))
            return
        if name not in _FUNCTIONS:
            raise ParseError(tok.pos, f"unknown identifier '{name}'")
        opener = self.advance()
        if opener.kind != "(":
            raise ParseError(opener.pos, f"expected '(' after '{name}'")
        # Each argument's offset in the text and where its entries start.
        args = [(self.peek().pos, len(self.tape))]
        self.expr()
        while self.peek().kind == ",":
            self.advance()
            args.append((self.peek().pos, len(self.tape)))
            self.expr()
        closing = self.advance()
        if closing.kind != ")":
            raise ParseError(closing.pos, "expected ')'")
        arity = _FUNCTIONS[name]
        if len(args) != arity:
            raise ParseError(
                tok.pos, f"{name} expects {arity} argument(s), got {len(args)}"
            )
        if name == "pow":
            # Evaluate the exponent's entries once here and drop them.
            pos, start = args[1]
            exponent = tuple(self.tape[start:])
            del self.tape[start:]
            if any(op in ("var", "param") for op, _ in exponent):
                raise ParseError(pos, "pow exponent must be a constant")
            try:
                r = float(_run(exponent, 0.0, "value")[0])
                if not np.isfinite(r):
                    raise DomainError(f"{r} is not finite")
            except DomainError as exc:
                raise ParseError(pos, f"invalid pow exponent: {exc}")
            self.tape.append(("powi", int(r)) if r.is_integer() else ("pow", r))
        else:
            self.tape.append((name, None))


def _readonly(out, shape):
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        return np.broadcast_to(out, shape)
    # A read-only view is what np.broadcast_to returns, at a fifth of its cost.
    out = out.view()
    out.flags.writeable = False
    return out


def _evaluate(tape, lane: str, xs: tuple, args) -> list:
    """_run's components as read-only arrays of the broadcast shape of the
    variable's arrays ``xs`` (x, or the interval lane's lo and hi) and
    ``args``, run on flat slices of EVAL_CHUNK points when it holds more;
    as floats from a one-point run when none of them is an ndarray.  The
    interval lane always runs flat, with lo and hi as the rows of one
    array, and each of its components leads with an axis of lo and hi."""
    ins = (*xs, *args)
    shapes = [v.shape for v in ins if isinstance(v, np.ndarray)]
    if not shapes:
        one = tuple(np.array([x], dtype=float) for x in xs)
        return [float(c[0]) for c in _evaluate(tape, lane, one, args)]
    shape = shapes[0] if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    size = math.prod(shape)
    rows = (2,) if lane == "interval" else ()
    if size <= EVAL_CHUNK and not rows:
        return [_readonly(c, shape) for c in _run(tape, xs[0], lane, args)]
    flat = [(v if v.shape == shape else np.broadcast_to(v, shape)).ravel()
            if isinstance(v, np.ndarray) else v for v in ins]
    out = [np.empty((*rows, size)) for _ in range(1 if lane == "value" else 4)]
    for i in range(0, size, EVAL_CHUNK):
        part = [v[i : i + EVAL_CHUNK] if isinstance(v, np.ndarray) else v for v in flat]
        x = np.stack(part[:2]) if rows else part[0]
        for buf, c in zip(out, _run(tape, x, lane, part[len(xs):])):
            buf[..., i : i + EVAL_CHUNK] = c
    return [_readonly(buf.reshape(*rows, *shape), (*rows, *shape)) for buf in out]


class Expression:
    """A parsed expression of one variable and its named parameters, held
    as its tape and evaluable for values, jets and jet enclosures.

    ``value``, ``jet3`` and ``enclose3`` take each parameter as a keyword
    argument: a number, or an array that broadcasts against x (one entry
    per draw, say, with x holding each draw's points along the last axis).
    """

    __slots__ = ("source", "tape", "params")

    def __init__(self, tape: tuple, source: str, params: tuple = ()):
        self.tape = tape
        self.source = source
        self.params = params

    def _args(self, bound: dict) -> tuple:
        if len(bound) != len(self.params) or not all(k in bound for k in self.params):
            raise TypeError(
                f"{self!r} takes the parameters {list(self.params)}, got {sorted(bound)}"
            )
        return tuple([bound[name] for name in self.params])

    def value(self, x, **params):
        return _evaluate(self.tape, "value", (x,), self._args(params))[0]

    __call__ = value  # unused in the package; perfbench/tracer.py wraps it by name

    def jet3(self, x, **params) -> Jet3:
        return Jet3(*_evaluate(self.tape, "jet", (x,), self._args(params)))

    def enclose3(self, lo, hi, **params) -> Jet3:
        """Enclosures of the value and the first three derivatives over
        each interval [lo, hi], as a Jet3 of Intervals whose lo and hi are
        read-only arrays of the broadcast shape; parameters are points.
        An interval that meets a domain edge (a divisor that may be 0, a
        log or fractional pow base that may be <= 0, the abs kink) gets
        the whole line for every component; nothing is refused."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if not np.all(lo <= hi):
            raise ValueError("enclose3 needs lo <= hi, with neither NaN")
        return Jet3(*map(Interval, _evaluate(self.tape, "interval", (lo, hi), self._args(params))))

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse(text: str, params=()) -> Expression:
    """Parse ``text``, in which each name in ``params`` stands for a
    parameter; raises ParseError with the offending offset (0 for a bad
    parameter name)."""
    params = tuple(params)
    for name in params:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(0, f"parameter name {name!r} is not an identifier")
        if name in _VARIABLES or name in _FUNCTIONS:
            raise ParseError(0, f"parameter name {name!r} is taken by the language")
    if len(set(params)) != len(params):
        raise ParseError(0, f"parameter names {list(params)} repeat")
    return Expression(_Parser(text, params).parse(), text, params)
