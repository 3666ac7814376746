"""Adaptive Simpson quadrature with interval bisection.

The integrand must accept ndarray input (every function in this package
does); all pending intervals at a refinement level are evaluated in one
vectorised call.  Acceptance is by the Richardson-extrapolated discrepancy
against a width-proportional share of the absolute tolerance, so the
accepted local errors sum to at most the requested tolerance under the
usual smoothness heuristics.  A non-finite value is never accepted, so it
raises ConvergenceError at once, as do more than MAX_LIVE pending intervals
and any interval still pending after MAX_DEPTH bisections.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ConvergenceError", "integrate"]

MAX_DEPTH = 40
MAX_LIVE = 1 << 20


class ConvergenceError(RuntimeError):
    """Tolerance not reached, or not reachable within the work caps."""


def integrate(
    fn,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    min_depth: int = 2,
) -> tuple[float, float]:
    """Signed integral of ``fn`` over [lo, hi].

    Returns ``(value, error_estimate)`` where the estimate is the sum of
    the per-interval Richardson terms.  ``min_depth`` forces at least that
    many bisection levels before any interval may be accepted, which guards
    against spuriously small discrepancies on symmetric integrands.
    """
    if lo == hi:
        return 0.0, 0.0
    sign = 1.0
    if hi < lo:
        lo, hi, sign = hi, lo, -1.0
    total = hi - lo

    ends = _eval(fn, np.array([lo, 0.5 * (lo + hi), hi]))
    left = np.array([lo])
    width = np.array([total])
    fl, fm, fr = ends[:1], ends[1:2], ends[2:]
    s = width * (fl + 4.0 * fm + fr) / 6.0

    value = 0.0
    estimate = 0.0
    for depth in range(MAX_DEPTH + 1):
        if left.size == 0:
            break
        n = left.size
        quarters = np.concatenate([left + 0.25 * width, left + 0.75 * width])
        fq = _eval(fn, quarters)
        f1, f3 = fq[:n], fq[n:]
        half = 0.5 * width
        sl = half * (fl + 4.0 * f1 + fm) / 6.0
        sr = half * (fm + 4.0 * f3 + fr) / 6.0
        s2 = sl + sr
        diff = s2 - s

        ok = np.abs(diff) <= 15.0 * tol * (width / total)
        if depth < min_depth:
            ok = np.zeros_like(ok)
        value += float(np.sum(s2[ok] + diff[ok] / 15.0))
        estimate += float(np.sum(np.abs(diff[ok]))) / 15.0

        keep = ~ok
        kh = half[keep]
        left = np.concatenate([left[keep], left[keep] + kh])
        width = np.concatenate([kh, kh])
        new_fl = np.concatenate([fl[keep], fm[keep]])
        new_fm = np.concatenate([f1[keep], f3[keep]])
        new_fr = np.concatenate([fm[keep], fr[keep]])
        fl, fm, fr = new_fl, new_fm, new_fr
        s = np.concatenate([sl[keep], sr[keep]])
        if left.size > MAX_LIVE:
            raise ConvergenceError(f"{left.size} intervals pending, above {MAX_LIVE}")
    if left.size:
        raise ConvergenceError(
            f"{left.size} interval(s) still above tolerance after depth {MAX_DEPTH}"
        )
    return sign * value, estimate


def _eval(fn, points: np.ndarray) -> np.ndarray:
    values = np.asarray(fn(points), dtype=float)
    if values.shape != points.shape:  # an integrand that collapses to a scalar, e.g. a constant
        values = np.broadcast_to(values, points.shape)
    finite = np.isfinite(values)
    if not finite.all():
        raise ConvergenceError(f"integrand is {values[~finite][0]} at x = {points[~finite][0]}")
    return values
