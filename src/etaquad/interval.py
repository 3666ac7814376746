"""Closed intervals of floats, elementwise, with outward rounding: the
arithmetic of the enclosure lane that ``expr`` runs its tape on.

An ``Interval`` holds one array whose rows are the lower and upper
endpoints.  Every sum, product and quotient is moved outward by a
relative step of two ulps (a subnormal step near zero), so the result
contains the exact result of any points drawn from the operands.
numpy's exp, log, sin, cos and power are within one ulp of the true
value; their interval results are moved out by more than
TRANSCENDENTAL_ULPS.  sin and cos take +-1 wherever an extremum may lie
inside an interval.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["TRANSCENDENTAL_ULPS", "Interval"]

# exp, log, sin, cos and pow on an interval widen numpy's results by this
# many ulps each way; tests/test_expr_reference.py measures numpy's error
# against mpmath and keeps it below this.
TRANSCENDENTAL_ULPS = 4


# The whole line as rows lo and hi, and the outward direction of each row.
ENTIRE = np.array([[-np.inf], [np.inf]])
_SIGN = np.array([[-1.0], [1.0]])
_MAX = np.finfo(float).max


def _steps(ulps: int) -> tuple:
    """Outward steps per row of more than ``ulps`` ulps: (ulps + 1) ulps of
    |v| at most, which also covers the rounding of the step itself, and
    ``ulps`` of the smallest subnormal, for results that underflow."""
    return (ulps + 1) * 2.0 ** -52 * _SIGN, ulps * 2.0 ** -1074 * _SIGN


# An IEEE sum, product or quotient is within half an ulp of the exact one.
_ROUNDED = _steps(1)
_WIDENED = _steps(TRANSCENDENTAL_ULPS)
# Caps that turn an overflowed lo (hi) into the largest (lowest) float.
_CAP_LO = np.array([[_MAX], [np.inf]])
_CAP_HI = np.array([[-np.inf], [-_MAX]])


def _outward(b, steps=_ROUNDED):
    """b's rows moved outward in place by ``steps``, more than one ulp by
    default.  Overflowed rows are capped first, so that none turns NaN.
    (np.nextafter takes four times as long per endpoint, and rounding is
    the lane's largest cost.)"""
    np.minimum(b, _CAP_LO, out=b)
    np.maximum(b, _CAP_HI, out=b)
    step = np.abs(b)
    step *= steps[0]
    step += steps[1]
    b += step
    return b


def _ordered(v):
    """A new array of the rows min and max of v's two rows."""
    b = np.empty(v.shape)
    np.minimum(v[0], v[1], out=b[0])
    np.maximum(v[0], v[1], out=b[1])
    return b


def rows(v):
    """An operand as rows lo and hi: an Interval's array, or a point value
    (a number or an array), which broadcasts as both rows."""
    return v.b if isinstance(v, Interval) else v


def _hull(p, steps=_ROUNDED):
    """Hull of the candidate endpoints p[k] (one per leading index), moved
    out by ``steps``.  A NaN candidate is 0 times an infinite endpoint; it
    is skipped, and where every candidate is one the exact result is 0."""
    p = p.reshape(-1, p.shape[-1])
    b = np.empty((2, p.shape[-1]))
    np.fmin.reduce(p, out=b[0])
    np.fmax.reduce(p, out=b[1])
    b[np.isnan(b)] = 0.0
    return _outward(b, steps)


class Interval:
    """Closed intervals [lo, hi], elementwise: one array ``b`` whose rows
    are lo and hi.  Arithmetic with intervals, numbers and point arrays
    rounds outward, so the result contains every exact result of points
    drawn from the operands.  An infinite endpoint means the interval is
    unbounded on that side; it contains reals only, so 0 times it is 0.

    Comparisons answer "possibly": ``iv <= c`` holds where some point of
    the interval is at most c, and ``iv == c`` where the interval contains
    c.  That turns a point lane's domain check into an interval's.
    """

    __slots__ = ("b",)

    def __init__(self, b):
        self.b = b

    @staticmethod
    def point(v):
        """Degenerate intervals [v, v]; v is a number or a flat array."""
        v = np.asarray(v, dtype=float)
        return Interval(np.stack((v, v)).reshape(2, -1))

    @property
    def lo(self):
        return self.b[0]

    @property
    def hi(self):
        return self.b[1]

    def __add__(self, o):
        if isinstance(o, (int, float)) and o == 0.0:
            return self
        return Interval(_outward(self.b + rows(o)))

    __radd__ = __add__

    def __sub__(self, o):
        return self + (-o)  # negation is exact

    def __rsub__(self, o):
        return (-self) + o

    def __neg__(self):
        return Interval(-self.b[::-1])

    def __mul__(self, o):
        if o is self:  # a square is never negative
            b = _outward(_ordered(self.b * self.b))
            b[0][(self.b[0] <= 0.0) & (self.b[1] >= 0.0)] = 0.0
            return Interval(b)
        if isinstance(o, Interval):
            return Interval(_hull(self.b[:, None] * o.b))
        if isinstance(o, np.ndarray):
            return self * Interval.point(o)
        if o == 0.0 or o == 1.0:
            return 0.0 if o == 0.0 else self
        p = self.b * o
        return Interval(_outward(p if o > 0.0 else p[::-1]))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self * (o if isinstance(o, Interval) else Interval.point(o)).reciprocal()

    def __rtruediv__(self, o):
        return self.reciprocal() * o

    def reciprocal(self):
        """1/x over each interval; the whole line where it contains 0."""
        b = _outward(1.0 / self.b[::-1])
        return Interval(np.where((self.b[0] <= 0.0) & (self.b[1] >= 0.0), ENTIRE, b))

    def __pow__(self, p):
        """x ** p for x > 0 and p a number or an Interval: monotone in each,
        so the extremes are at the corners.  Other bases give meaningless
        rows, which the pow primitive replaces with the whole line."""
        return Interval(_hull(np.power(self.b[:, None], rows(p)), _WIDENED))

    def __abs__(self):
        b = _ordered(np.abs(self.b))
        b[0][(self.b[0] <= 0.0) & (self.b[1] >= 0.0)] = 0.0
        return Interval(b)

    def __le__(self, c):
        return self.b[0] <= c

    def __gt__(self, c):
        return self.b[1] > c

    def __eq__(self, c):
        return (self.b[0] <= c) & (self.b[1] >= c)

    __hash__ = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # np.exp(iv) and friends, and arithmetic with a numpy operand on
        # the left, which numpy would otherwise run on an object array.
        if method != "__call__" or kwargs:
            return NotImplemented
        if len(inputs) == 1 and ufunc in _INTERVAL_UFUNCS:
            return _INTERVAL_UFUNCS[ufunc](self)
        if len(inputs) == 2 and ufunc in _INTERVAL_OPERATORS:
            a, b = (v if isinstance(v, Interval) else Interval.point(v) for v in inputs)
            return _INTERVAL_OPERATORS[ufunc](a, b)
        return NotImplemented

    def __repr__(self):
        return f"Interval(lo={self.b[0]!r}, hi={self.b[1]!r})"


def _monotone(f):
    """The interval form of an increasing function f."""
    return lambda iv: Interval(_outward(f(iv.b), _WIDENED))


def _periodic(f, top):
    """The interval form of f, np.sin or np.cos, whose maxima lie at
    top + 2k*pi and minima half a period further on."""

    def interval(iv):
        b = _outward(_ordered(f(iv.b)), _WIDENED)
        # Periods from a maximum, each row moved out by a margin far above
        # the rounding of the subtraction, of the division and of 2*pi.
        k = (iv.b - top) / (2.0 * np.pi)
        k += (np.abs(k) + 1.0) * 2.0 ** -48 * _SIGN
        b[1][np.floor(k[1]) >= np.ceil(k[0])] = 1.0
        b[0][np.floor(k[1] - 0.5) >= np.ceil(k[0] - 0.5)] = -1.0
        return Interval(b)

    return interval


_INTERVAL_UFUNCS = {
    np.exp: _monotone(np.exp),
    np.log: _monotone(np.log),
    np.sin: _periodic(np.sin, 0.5 * np.pi),
    np.cos: _periodic(np.cos, 0.0),
    np.absolute: abs,
}
_INTERVAL_OPERATORS = {
    np.add: operator.add,
    np.subtract: operator.sub,
    np.multiply: operator.mul,
    np.true_divide: operator.truediv,
}
