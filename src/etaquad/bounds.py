"""Closed-form bounds on the corrected-trapezoid remainder.

Ten selectable variants, keyed T2.1..T3.3 and C2.1..C2.4.  All bound
|integral - Q| over the segment from b to b + h in terms of the endpoint
third-derivative magnitudes A = |f'''(a)| and B = |f'''(b)| and a power
h^4.  Each is one row of ``SELECTORS``: a hypothesis on |f'''|^r along the
path, which picks the endpoint term (a power mean or q-norm of (A, B) if
preinvex, max(A, B) if prequasiinvex), and one of three closed forms.  The
C2.x values are the straight-line corollaries; C2.1 is the mean form at r = 1.

``bound`` computes on arrays with one entry per segment; floats run as a
one-entry array, so a segment has the same bits alone as in any batch.

Every prefactor decomposes into moments of the weight w(t) = t(1-t)(2t-1)
that are also exposed individually, so each closed form can be cross-
checked against quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SELECTORS",
    "THEOREM_ORDER",
    "BoundSpec",
    "DerivativeData",
    "BoundValue",
    "moment_c1",
    "moment_c2",
    "holder_weighted_moment",
    "beta_moment",
    "abs_moment",
    "gamma_ratio",
    "bound",
]

# selector -> (hypothesis the bound assumes for |f'''|^r along the path,
# the exponent r: None for the spec's q, closed form: "mean" h^4/192*E for
# q >= 1, or "holder" or "beta", which need q > 1 for p = q/(q-1)).  The
# hypothesis picks the endpoint term E: max(A, B) if prequasiinvex; if
# preinvex, the power mean ((A^r + B^r)/2)^(1/r) in the mean form and the
# q-norm (A^q + B^q)^(1/q) in the others.  C2.1 is the mean form at r = 1,
# h^4/192*(A+B)/2 = h^4/384*(A+B), so it holds only where |f'''| itself is
# preinvex.
SELECTORS = {
    "T2.1": ("preinvex", None, "mean"),
    "T2.2": ("preinvex", None, "holder"),
    "T2.3": ("preinvex", None, "beta"),
    "T3.1": ("prequasiinvex", None, "mean"),
    "T3.2": ("prequasiinvex", None, "holder"),
    "T3.3": ("prequasiinvex", None, "beta"),
    "C2.1": ("preinvex", 1.0, "mean"),
    "C2.2": ("preinvex", None, "mean"),
    "C2.3": ("prequasiinvex", None, "mean"),
    "C2.4": ("prequasiinvex", None, "mean"),
}

# The six theorems, in the tournament's tie-break order.
THEOREM_ORDER = tuple(SELECTORS)[:6]


@dataclass(frozen=True)
class BoundSpec:
    """Which bound to evaluate, and at which exponent q."""

    theorem: str
    q: float = 1.0

    def __post_init__(self):
        if self.theorem not in SELECTORS:
            raise ValueError(f"unknown bound selector {self.theorem!r}")
        if not math.isfinite(self.q):
            raise ValueError("q must be finite")
        if SELECTORS[self.theorem][2] != "mean":  # p = q/(q-1) needs q > 1
            if self.q <= 1.0:
                raise ValueError(f"{self.theorem} requires q > 1")
        elif self.q < 1.0:
            raise ValueError(f"{self.theorem} requires q >= 1")

    @property
    def hypothesis(self) -> str:
        """What the bound assumes of |f'''|^r: preinvex or prequasiinvex."""
        return SELECTORS[self.theorem][0]

    @property
    def hypothesis_q(self) -> float:
        """The exponent r of the hypothesis on |f'''|^r: q, or 1 for C2.1."""
        return SELECTORS[self.theorem][1] or self.q

    @property
    def p(self) -> float:
        """Conjugate exponent q/(q-1); defined only for q > 1."""
        if self.q <= 1.0:
            raise ValueError("conjugate exponent needs q > 1")
        return self.q / (self.q - 1.0)

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "q": self.q}


@dataclass(frozen=True)
class DerivativeData:
    """Endpoint third-derivative magnitudes A = |f'''(a)|, B = |f'''(b)|,
    arrays with one entry per segment, or floats for one segment."""

    a3: float
    b3: float

    def __post_init__(self):
        ends = np.array(np.broadcast_arrays(self.a3, self.b3), dtype=float)
        if not (np.isfinite(ends) & (ends >= 0.0)).all():
            raise ValueError("derivative magnitudes must be finite and nonnegative")

    @classmethod
    def from_function(cls, f, a: float, b: float) -> "DerivativeData":
        return cls(*np.abs(f.jet3(np.array([a, b], dtype=float)).d3).tolist())


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation with the constants that entered it, for audit."""

    value: float
    spec: BoundSpec
    constants_used: dict

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "theorem": self.spec.theorem,
            "q": self.spec.q,
            "constants_used": dict(self.constants_used),
        }


def moment_c1() -> float:
    """integral_0^1 t(1-t)|2t-1| dt = 1/16."""
    return 1.0 / 16.0


def moment_c2() -> float:
    """integral_0^1 t^2(1-t)|2t-1| dt = integral_0^1 t(1-t)^2|2t-1| dt = 1/32."""
    return 1.0 / 32.0


def holder_weighted_moment(p: float) -> float:
    """integral_0^1 t(1-t)|2t-1|^p dt = 1 / (2(p+1)(p+3)) for p > 1."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    return 1.0 / (2.0 * (p + 1.0) * (p + 3.0))


def beta_moment(p: float) -> float:
    """integral_0^1 (t - t^2)^p dt = 2^(-1-2p) sqrt(pi) Gamma(1+p)/Gamma(3/2+p)."""
    if not p > 0.0:
        raise ValueError("p must be positive")
    log_val = (
        (-1.0 - 2.0 * p) * math.log(2.0)
        + 0.5 * math.log(math.pi)
        + math.lgamma(1.0 + p)
        - math.lgamma(1.5 + p)
    )
    return math.exp(log_val)


def abs_moment(q: float) -> float:
    """integral_0^1 t|2t-1|^q dt = integral_0^1 (1-t)|2t-1|^q dt = 1/(2(q+1))."""
    if not q > 0.0:
        raise ValueError("q must be positive")
    return 1.0 / (2.0 * (q + 1.0))


def gamma_ratio(p: float) -> float:
    """Gamma(1+p)/Gamma(3/2+p), computed stably via lgamma."""
    if not p > 0.0:
        raise ValueError("p must be positive")
    return math.exp(math.lgamma(1.0 + p) - math.lgamma(1.5 + p))


def scalar_pow(base: np.ndarray, exponent) -> np.ndarray:
    """base ** exponent element by element with Python's pow, the C
    library's: numpy's vectorised power can differ from it in the last
    place, and a batch must give each segment the bits of a batch of one.
    Too large a power is +-inf, as ``expr._powi`` gives."""
    if exponent == 1:  # x ** 1 is x exactly
        return base
    try:
        return np.array([v ** exponent for v in base.tolist()]).reshape(base.shape)
    except OverflowError:  # numpy's float64 calls the same pow, and returns its inf
        with np.errstate(over="ignore"):
            return np.array([np.float64(v) ** exponent for v in base.tolist()]).reshape(base.shape)


def bound(spec: BoundSpec, h, d: DerivativeData, tight: bool = False) -> BoundValue:
    """Evaluate the selected bound for displacement ``h`` and data ``d``.

    ``h``, ``d.a3`` and ``d.b3`` broadcast as arrays; the value is a float
    when all three are floats.  ``tight`` applies only to T3.3: the printed
    constant h^4/48*(...) can be sharpened by 2^(-1/p) by splitting the
    weight integral at t = 1/2; the default reproduces the printed form.
    """
    floats = not any(isinstance(v, np.ndarray) for v in (h, d.a3, d.b3))
    h, A, B = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (h, d.a3, d.b3))
    if not np.isfinite(h).all():
        raise ValueError("displacement h must be finite")
    if tight and spec.theorem != "T3.3":
        raise ValueError("tight variant exists only for T3.3")

    hypothesis, r, form = SELECTORS[spec.theorem]
    q = spec.q
    quasi = hypothesis == "prequasiinvex"
    if quasi:
        ends = np.maximum(A, B)
    elif form == "mean":  # exact at A == B, so T2.1 and T3.1 tie there to the bit
        r = r or q
        ends = np.where(A == B, A, scalar_pow((scalar_pow(A, r) + scalar_pow(B, r)) / 2.0, 1.0 / r))
    else:
        ends = scalar_pow(scalar_pow(A, q) + scalar_pow(B, q), 1.0 / q)
    h4 = scalar_pow(h, 4)
    k = 3.0 if quasi else 6.0  # in the holder form's 24 k^(1/q) and the beta form's 16 k

    if form == "mean":
        value = h4 / 192.0 * ends
        if spec.theorem == "C2.1":  # audited in its printed form h^4/384*(A+B)
            constants = {"weighted_kernel_moments": moment_c2(), "prefactor": 1.0 / 384.0}
        elif quasi:
            constants = {"kernel_moment": moment_c1(), "prefactor": 1.0 / 192.0}
        else:
            constants = {"kernel_moment": moment_c1(), "weighted_kernel_moments": moment_c2(),
                         "prefactor": 1.0 / 192.0}
        if spec.theorem == "C2.2":
            # The printed corollary constant 1/384 agrees with the power
            # mean form only at q = 1; the power mean form is what holds.
            constants["printed_q1_prefactor"] = 1.0 / 384.0
    elif form == "holder":
        p = spec.p
        prefactor = 1.0 / (24.0 * k ** (1.0 / q))
        value = h4 * prefactor * ((p + 1.0) * (p + 3.0)) ** (-1.0 / p) * ends
        constants = {"holder_weighted_moment": holder_weighted_moment(p), "prefactor": prefactor}
    else:  # beta
        p = spec.p
        gr = gamma_ratio(p)
        value = (h4 / (16.0 * k) * math.sqrt(math.pi) ** (1.0 / p) * gr ** (1.0 / p)
                 * (q + 1.0) ** (-1.0 / q) * ends)
        if quasi:
            constants = {"beta_moment": beta_moment(p), "kernel_abs_moment": 1.0 / (q + 1.0),
                         "gamma_ratio": gr, "prefactor": 1.0 / 48.0, "tight_factor": 2.0 ** (-1.0 / p)}
        else:
            constants = {"beta_moment": beta_moment(p), "abs_moment": abs_moment(q),
                         "gamma_ratio": gr, "prefactor": 1.0 / 96.0}
        if tight:
            value *= 2.0 ** (-1.0 / p)
    return BoundValue(float(value[0]) if floats else value, spec, constants)
