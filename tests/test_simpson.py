"""Adaptive quadrature oracle: exactness, tolerances, failure modes."""

import math
import tracemalloc

import numpy as np
import pytest

from etaquad import ConvergenceError, integrate, parse, simpson


def test_polynomial():
    value, est = integrate(lambda x: x ** 4, 0.0, 1.0)
    assert value == pytest.approx(0.2, abs=1e-12)
    assert est >= 0.0


def test_sin_over_half_period():
    value, _ = integrate(np.sin, 0.0, math.pi)
    assert value == pytest.approx(2.0, abs=1e-11)


def test_exp():
    value, _ = integrate(np.exp, 0.0, 1.0)
    assert value == pytest.approx(math.e - 1.0, abs=1e-11)


def test_orientation_and_degenerate_interval():
    fwd, _ = integrate(np.exp, 0.0, 1.0)
    rev, _ = integrate(np.exp, 1.0, 0.0)
    assert rev == -fwd
    assert integrate(np.exp, 0.7, 0.7) == (0.0, 0.0)


def test_scalar_returning_integrand():
    value, _ = integrate(lambda x: 2.0, 0.0, 3.0)
    assert value == pytest.approx(6.0, abs=1e-13)


def test_expression_integrand():
    f = parse("x*exp(x)")
    value, _ = integrate(f.value, 0.0, 2.0)
    assert value == pytest.approx(math.exp(2.0) + 1.0, rel=1e-11)


def test_kink_is_handled_by_bisection():
    value, _ = integrate(lambda x: np.abs(2.0 * x - 1.0), 0.0, 1.0, tol=1e-12)
    assert value == pytest.approx(0.5, abs=1e-11)


def test_tolerance_is_roughly_honoured():
    exact = math.e - 1.0
    for tol in (1e-6, 1e-9, 1e-12):
        value, est = integrate(np.exp, 0.0, 1.0, tol=tol)
        assert abs(value - exact) <= 5.0 * tol
        assert est <= 2.0 * tol


def test_tolerance_below_rounding_meets_the_rounding_floor():
    # eps * int|f| is 5.7e-12 for 1e4*sin(40x) on [0, 4], so 1e-12 is
    # below the rounding of K - G; without the floor the intervals stay
    # pending to MAX_DEPTH.
    exact = 1e4 * (1.0 - math.cos(160.0)) / 40.0
    size = 1e4 * (101.0 - math.cos(160.0 - 50.0 * math.pi)) / 40.0  # 50.9 half-periods
    value, est = integrate(lambda x: 1e4 * np.sin(40.0 * x), 0.0, 4.0, tol=1e-12)
    assert abs(value - exact) <= 1e-12 + 64 * np.finfo(float).eps * size
    assert est <= 1e-12 + simpson.ROUNDING * np.finfo(float).eps * size


def test_min_depth_forces_refinement():
    value, _ = integrate(lambda x: np.sin(2.0 * math.pi * x) + x, 0.0, 1.0)
    assert value == pytest.approx(0.5, abs=1e-11)
    # A degree-30 polynomial that vanishes at the 15 nodes of [0, 1] is zero
    # to the rule on the whole interval, with a zero error estimate; forced
    # depth makes the oracle look at pieces.  Scaled by its integral
    # (mpmath.quad at 50 digits) to integrate to 1.
    nodes = 0.5 + 0.5 * simpson.NODES
    scale = 1.0 / 1.6239132339189119839e-18

    def vanishing(x):
        return scale * np.prod((np.reshape(x, (-1, 1)) - nodes) ** 2, axis=1)

    assert integrate(vanishing, 0.0, 1.0, min_depth=0) == (0.0, 0.0)
    value, _ = integrate(vanishing, 0.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-11)


def test_step_discontinuity_does_not_converge():
    step = lambda x: np.where(x < 1.0 / math.pi, 0.0, 1.0)
    with pytest.raises(ConvergenceError):
        integrate(step, 0.0, 1.0, tol=1e-14)


def test_non_finite_integrand_stops_at_once():
    # A NaN never passes the acceptance test, so without the check every
    # level doubles the pending intervals until memory runs out.
    asked = [0]

    class Runaway(Exception):
        pass

    def nan_everywhere(x):
        asked[0] += np.size(x)
        if asked[0] > 10_000:
            raise Runaway(f"{asked[0]} points asked for")
        return np.full(np.shape(x), np.nan)

    with pytest.raises(ConvergenceError, match="integrand is nan"):
        integrate(nan_everywhere, 0.0, 1.0)
    assert asked[0] <= 3


def test_pending_intervals_are_capped(monkeypatch):
    monkeypatch.setattr(simpson, "MAX_LIVE", 16)
    with pytest.raises(ConvergenceError, match="pending"):
        integrate(lambda x: np.sin(50.0 * x), 0.0, 10.0, tol=1e-14)


# --- many segments at once ---------------------------------------------------


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_segments_equal_one_segment_calls_bit_for_bit():
    # Segment k integrates c[k]*sin(w[k]*x) + x over [lo[k], hi[k]]; reversed
    # and empty segments included.
    c = np.array([1.0, -2.5, 0.3, 4.0, 1.0, -1.0])
    w = np.array([1.0, 7.0, 0.2, 3.0, 2.0, 11.0])
    lo = np.array([0.0, 1.0, -2.0, 0.5, 0.7, -1.0])
    hi = np.array([1.0, -1.0, 2.0, 0.5, 2.0, 0.3])
    values, estimates = simpson.integrate_segments(
        lambda x, seg: c[seg] * np.sin(w[seg] * x) + x, lo, hi, 1e-11, min_depth=3
    )
    for k in range(lo.size):
        one = integrate(lambda x: c[k] * np.sin(w[k] * x) + x, lo[k], hi[k], 1e-11, min_depth=3)
        assert _bits([values[k], estimates[k]]) == _bits(one)
    assert values[3] == 0.0 and estimates[3] == 0.0


def test_max_live_counts_the_intervals_of_all_segments(monkeypatch):
    def fn(x, seg):
        sizes.append(x.size)
        return np.sin(50.0 * x)

    sizes = []
    simpson.integrate_segments(fn, [0.0], [2.0], tol=1e-9)
    # A level evaluates 15 nodes per pending interval, in one call while
    # they are fewer than EVAL_CHUNK.
    assert max(sizes) < simpson.EVAL_CHUNK
    assert max(sizes) % simpson.NODES.size == 0
    monkeypatch.setattr(simpson, "MAX_LIVE", max(sizes) // simpson.NODES.size)
    simpson.integrate_segments(fn, [0.0], [2.0], tol=1e-9)  # one segment fits
    with pytest.raises(ConvergenceError, match="pending over 2 segment"):
        simpson.integrate_segments(fn, [0.0, 0.0], [2.0, 2.0], tol=1e-9)


def test_max_live_counts_the_first_level_pieces(monkeypatch):
    # At min_depth 2 a segment starts as 4 pieces: 2 segments fill a cap
    # of 8, and 3 are refused before any node is evaluated.
    monkeypatch.setattr(simpson, "MAX_LIVE", 8)
    calls = []

    def fn(x, seg):
        calls.append(x.size)
        return x * x

    values, _ = simpson.integrate_segments(fn, [0.0, 0.0], [1.0, 3.0])
    assert values == pytest.approx([1.0 / 3.0, 9.0], abs=1e-14)
    calls.clear()
    with pytest.raises(ConvergenceError, match=r"^12 intervals pending over 3 segment\(s\), above 8$"):
        simpson.integrate_segments(fn, [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert calls == [6]  # the ends only


def test_integrand_is_called_in_slices_of_at_most_eval_chunk_points():
    # 600 segments start as 2400 pieces: 36,000 nodes in the first level.
    sizes = []

    def fn(x, seg):
        sizes.append(x.size)
        return np.sin(40.0 * x)

    simpson.integrate_segments(fn, np.zeros(600), np.linspace(0.5, 10.0, 600), tol=1e-11)
    assert max(sizes) == simpson.EVAL_CHUNK < sum(sizes)


def test_segment_bits_do_not_depend_on_a_batch_sliced_at_eval_chunk():
    # The batch's first level holds 600 * 4 * 15 nodes, so a segment's
    # nodes share blocks and slices with other segments' nodes.  The kink
    # leaves two intervals pending in the deep levels of a segment alone,
    # against hundreds in the batch.
    c = np.linspace(0.5, 2.0, 600)
    hi = np.linspace(0.5, 10.0, 600)
    values, estimates = simpson.integrate_segments(
        lambda x, seg: c[seg] * np.sin(40.0 * x) + np.abs(x - 0.3), np.zeros(600), hi, tol=1e-11
    )
    for k in (0, 137, 599):
        one = integrate(lambda x: c[k] * np.sin(40.0 * x) + np.abs(x - 0.3), 0.0, hi[k], tol=1e-11)
        assert _bits([values[k], estimates[k]]) == _bits(one)


def test_pole_is_refused_in_slices():
    # The intervals next to the pole stay above tolerance to MAX_DEPTH
    # (thousands of them, as the rounding of their nodes grows towards the
    # pole); every call stays within one slice, and what the oracle
    # allocates on the way stays under 16 MB.
    f = parse("1/(x-0.3)")
    sizes = []

    def fn(x):
        sizes.append(x.size)
        return f.value(x)

    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="still above tolerance after depth 40"):
            integrate(fn, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sizes) == simpson.EVAL_CHUNK
    assert peak <= 16 * 2**20


def test_rule_constants_match_an_independent_source():
    # The Gauss nodes and weights are numpy's 7-point Gauss-Legendre rule,
    # and the Kronrod rule integrates x^k exactly for k <= 22 (= 3*7 + 1).
    x, w = np.polynomial.legendre.leggauss(7)
    assert np.allclose(simpson.NODES[1::2], x, rtol=0, atol=1e-15)
    assert np.allclose(simpson.GAUSS, w, rtol=0, atol=1e-15)
    for k in range(23):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(simpson.KRONROD @ simpson.NODES ** k - exact) <= 1e-15


def test_non_finite_value_names_its_segment():
    def fn(x, seg):
        return np.where(seg == 2, np.log(x), x)

    with np.errstate(all="ignore"):
        with pytest.raises(ConvergenceError, match=r"integrand is nan at x = -1\.0 in segment 2$"):
            simpson.integrate_segments(fn, [0.0, 1.0, -1.0], [1.0, 2.0, 1.0])
