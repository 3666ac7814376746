"""Adaptive Simpson quadrature with interval bisection, over many segments
at once.

The integrand must accept ndarray input (every function in this package
does).  One driver runs level by level over every pending interval of
every segment, so each refinement level is one vectorised call of the
integrand however many segments there are.  The call is made in slices of
``expr.EVAL_CHUNK`` points, as expressions slice their own runs, since the
integrand may be any callable (a kernel, or a gather of per-segment
parameters).  Each interval carries the index of its segment.  Every
interval pending at a level has been split as often as every other, so
they share one acceptance threshold: 15*tol at the first level, halved at
each next one, which is 15*tol*(width/total) to the bit.  Acceptance is by
the Richardson-extrapolated discrepancy against that threshold, so the
accepted local errors of a segment sum to at most the requested tolerance
under the usual smoothness heuristics.  ``np.bincount`` adds each
segment's accepted intervals in the order a run of that segment alone
would, so its result does not depend on the other segments.

A non-finite value is never accepted, so it raises ConvergenceError at
once, naming the segment when there are several, as do more than MAX_LIVE
pending intervals over all segments and any interval still pending after
MAX_DEPTH bisections.
"""

from __future__ import annotations

import numpy as np

from .expr import EVAL_CHUNK

__all__ = ["ConvergenceError", "integrate", "integrate_segments"]

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
    value, estimate = integrate_segments(lambda x, seg: fn(x), lo, hi, tol, min_depth)
    return float(value[0]), float(estimate[0])


def integrate_segments(fn, lo, hi, tol: float = 1e-12, min_depth: int = 2):
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
    left = lo[seg]
    width = hi[seg] - left
    n = seg.size
    ends = np.concatenate([left, 0.5 * (left + hi[seg]), hi[seg]])
    ends = _eval(fn, ends, np.concatenate([seg] * 3), n_seg)
    fl, fm, fr = ends[:n], ends[n : 2 * n], ends[2 * n :]
    s = width * (fl + 4.0 * fm + fr) / 6.0
    thresh = 15.0 * tol

    for depth in range(MAX_DEPTH + 1):
        if seg.size == 0:
            break
        n = seg.size
        quarters = np.concatenate([left + 0.25 * width, left + 0.75 * width])
        fq = _eval(fn, quarters, np.concatenate([seg, seg]), n_seg)
        f1, f3 = fq[:n], fq[n:]
        half = 0.5 * width
        sl = half * (fl + 4.0 * f1 + fm) / 6.0
        sr = half * (fm + 4.0 * f3 + fr) / 6.0
        s2 = sl + sr
        diff = s2 - s

        ok = np.abs(diff) <= thresh
        if depth >= min_depth and ok.any():
            done = seg[ok]
            value += np.bincount(done, s2[ok] + diff[ok] / 15.0, minlength=n_seg)
            estimate += np.bincount(done, np.abs(diff[ok]), minlength=n_seg) / 15.0
            keep = ~ok
            seg, left, half, fl, f1, fm, f3, fr, sl, sr = (
                a[keep] for a in (seg, left, half, fl, f1, fm, f3, fr, sl, sr)
            )
        # Split what is left: all left halves, then all right halves.
        left = np.concatenate([left, left + half])
        width = np.concatenate([half, half])
        fl, fm, fr = np.concatenate([fl, fm]), np.concatenate([f1, f3]), np.concatenate([fm, fr])
        s = np.concatenate([sl, sr])
        seg = np.concatenate([seg, seg])
        thresh *= 0.5
        if seg.size > MAX_LIVE:
            raise ConvergenceError(
                f"{seg.size} intervals pending over {n_seg} segment(s), above {MAX_LIVE}"
            )
    if seg.size:
        raise ConvergenceError(
            f"{seg.size} interval(s) still above tolerance after depth {MAX_DEPTH}"
            + _where(seg[0], n_seg)
        )
    return sign * value, estimate


def _where(seg: int, n_seg: int) -> str:
    """Names the segment, when there is more than one."""
    return f" in segment {seg}" if n_seg > 1 else ""


def _eval(fn, points: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    values = np.empty(points.size)
    for i in range(0, points.size, EVAL_CHUNK):
        # Assignment also broadcasts an integrand that returns a scalar.
        values[i : i + EVAL_CHUNK] = fn(points[i : i + EVAL_CHUNK], seg[i : i + EVAL_CHUNK])
    finite = np.isfinite(values)
    if not finite.all():
        k = np.argmin(finite)
        raise ConvergenceError(
            f"integrand is {values[k]} at x = {points[k]}" + _where(seg[k], n_seg)
        )
    return values
