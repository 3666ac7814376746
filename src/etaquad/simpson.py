"""Adaptive Gauss–Kronrod (G7–K15) quadrature with interval bisection, over
many segments at once.

The rule is QUADPACK's ``qk15`` (Piessens et al., *QUADPACK*, 1983): an
interval's value is the 15-point Kronrod sum K, and its local error is the
raw |K - G| against the embedded 7-point Gauss sum, with no rescaling and
no Richardson term.  The module keeps the name ``simpson``, which it had
when the rule was Simpson's, because the benchmark wraps
``etaquad.simpson.integrate`` by that name.

The integrand must accept ndarray input (every function in this package
does).  One driver runs level by level over every pending interval of
every segment, so each refinement level is one vectorised pass of the
integrand however many segments there are.  A level's intervals go in
blocks of ``expr.EVAL_CHUNK // 15``, and a block's nodes are one call of
the integrand (any callable: a kernel, or a gather of per-segment
parameters), so no call within a level holds more than the EVAL_CHUNK
points an expression runs at once.  Each interval carries the index of its
segment.  A segment starts as ``2**MIN_DEPTH`` equal pieces, and every
interval pending at a level has been split as often as every other, so
they share one acceptance threshold: tol at the whole segment, halved at
each next level, which is tol*(width/total) to the bit.  An interval is
also accepted when |K - G| is within ROUNDING*eps of its Kronrod sum of
|f|, the rounding of K and G: that term shrinks with the width as the
threshold does, so without it a tolerance below about eps*int|f| could
never be met.  The accepted local errors of a segment so sum to at most
tol plus about ROUNDING*eps*int|f|.  Each interval's sums over its nodes
are one row reduction (``np.einsum``, never a BLAS product, whose blocking
depends on the batch), and ``np.bincount`` adds each segment's accepted
intervals in the order a run of that segment alone would, so its result
does not depend on the other segments.

The 15 nodes are interior, so each segment's two ends are evaluated once,
in one call for all segments, before the first level: an endpoint
singularity is refused, not missed.  A non-finite value is never
accepted, so it raises ConvergenceError at once, naming the segment when
there are several, as do more than MAX_LIVE pending intervals over all
segments and any interval still pending after MAX_DEPTH bisections.
"""

from __future__ import annotations

import numpy as np

from .expr import EVAL_CHUNK

__all__ = ["ConvergenceError", "integrate", "integrate_segments"]

TOL = 1e-12  # the oracle's default absolute tolerance
MIN_DEPTH = 2  # 2**MIN_DEPTH first pieces guard against a spuriously small |K - G|
MAX_DEPTH = 40
MAX_LIVE = 1 << 20
ROUNDING = 50.0  # QUADPACK's factor on eps*resabs in qk15's error

# QUADPACK qk15: the Kronrod nodes on [0, 1] (the odd-indexed ones and 0
# are the Gauss nodes), their Kronrod weights, and the 7-point Gauss
# weights of xgk[1], xgk[3], xgk[5] and 0.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# The 15 nodes on [-1, 1] in ascending order, with their weights; the
# Gauss nodes sit at the odd positions.
NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
KRONROD = np.array(_WGK[:-1] + _WGK[::-1])
GAUSS = np.array(_WG[:-1] + _WG[::-1])


class ConvergenceError(RuntimeError):
    """Tolerance not reached, or not reachable within the work caps."""


def integrate(fn, lo: float, hi: float, tol: float = TOL) -> tuple[float, float]:
    """Signed integral of ``fn`` over [lo, hi] by adaptive G7–K15.

    Returns ``(value, error_estimate)``: the sum of the accepted Kronrod
    values, and the sum of their |Kronrod - Gauss| differences, which is
    at most ``tol`` plus about ROUNDING*eps*int|f|.  The closed interval's
    ends are evaluated once, and a non-finite value there or at any node
    raises ConvergenceError.
    """
    value, estimate = integrate_segments(lambda x, seg: fn(x), lo, hi, tol)
    return float(value[0]), float(estimate[0])


def integrate_segments(fn, lo, hi, tol: float = TOL):
    """Signed integrals over [lo[k], hi[k]] for every segment k (floats
    for one segment), each to the absolute tolerance ``tol``.

    ``fn(x, seg)`` evaluates the integrand at the points ``x`` of the
    segments ``seg`` (an index array of x's shape).  Returns the arrays
    ``(values, error_estimates)``; see ``integrate``.
    """
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    n_seg = lo.size
    sign = np.sign(hi - lo)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    value = np.zeros(n_seg)
    estimate = np.zeros(n_seg)

    seg = np.flatnonzero(lo != hi)  # an empty segment integrates to 0
    _eval(fn, np.concatenate([lo[seg], hi[seg]]), np.concatenate([seg, seg]), n_seg)
    pieces = 1 << MIN_DEPTH
    _check_live(seg.size * pieces, n_seg)
    width = hi[seg] - lo[seg]
    part = np.repeat(np.arange(pieces) / pieces, seg.size)
    left = np.tile(lo[seg], pieces) + np.tile(width, pieces) * part
    half = np.tile(width * (0.5 / pieces), pieces)
    seg = np.tile(seg, pieces)
    thresh = tol / pieces

    for depth in range(MIN_DEPTH, MAX_DEPTH + 1):
        if seg.size == 0:
            break
        kronrod, error, floor = _rule(fn, seg, left, half, n_seg)
        ok = error <= np.maximum(thresh, floor)
        done = seg[ok]
        value += np.bincount(done, kronrod[ok], minlength=n_seg)
        estimate += np.bincount(done, error[ok], minlength=n_seg)
        keep = ~ok
        seg, left, half = seg[keep], left[keep], half[keep]
        if depth == MAX_DEPTH:
            break
        # Split what is left: all left halves, then all right halves.
        _check_live(2 * seg.size, n_seg)
        left = np.concatenate([left, left + half])
        half = np.concatenate([half, half]) * 0.5
        seg = np.concatenate([seg, seg])
        thresh *= 0.5
    if seg.size:
        raise ConvergenceError(
            f"{seg.size} interval(s) still above tolerance after depth {MAX_DEPTH}"
            + _where(seg[0], n_seg)
        )
    return sign * value, estimate


def _check_live(live: int, n_seg: int) -> None:
    if live > MAX_LIVE:
        raise ConvergenceError(f"{live} intervals pending over {n_seg} segment(s), above {MAX_LIVE}")


def _rule(fn, seg, left, half, n_seg):
    """The Kronrod value, |Kronrod - Gauss| and rounding floor of every
    interval [left, left + 2*half].

    Intervals go a block of EVAL_CHUNK // NODES.size at a time, so a
    block's nodes are one integrand call of at most EVAL_CHUNK points, and
    only one block's nodes and values are alive.
    """
    centre = left + half
    kronrod = np.empty(seg.size)
    gauss = np.empty(seg.size)
    resabs = np.empty(seg.size)
    step = EVAL_CHUNK // NODES.size
    for i in range(0, seg.size, step):
        block = slice(i, i + step)
        x = (centre[block, None] + half[block, None] * NODES).ravel()
        f = _eval(fn, x, np.repeat(seg[block], NODES.size), n_seg).reshape(-1, NODES.size)
        # One reduction per row, with no BLAS: an interval's bits do not
        # depend on its batch.
        kronrod[block] = half[block] * np.einsum("ij,j->i", f, KRONROD)
        gauss[block] = half[block] * np.einsum("ij,j->i", f[:, 1::2], GAUSS)
        resabs[block] = half[block] * np.einsum("ij,j->i", np.abs(f), KRONROD)
    return kronrod, np.abs(kronrod - gauss), ROUNDING * np.finfo(float).eps * resabs


def _where(seg: int, n_seg: int) -> str:
    """Names the segment, when there is more than one."""
    return f" in segment {seg}" if n_seg > 1 else ""


def _eval(fn, points: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """fn at the points, in one call (an integrand may return a scalar);
    ConvergenceError names the first point whose value is not finite."""
    values = np.broadcast_to(fn(points, seg), points.shape)
    finite = np.isfinite(values)
    if not finite.all():
        k = np.argmin(finite)
        raise ConvergenceError(
            f"integrand is {values[k]} at x = {points[k]}" + _where(seg[k], n_seg)
        )
    return values
