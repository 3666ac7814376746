"""Adaptive quadrature oracle: exactness, tolerances, failure modes."""

import math

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


def test_min_depth_forces_refinement():
    # One Simpson step sees sin(2*pi*x) as identically zero; forced depth
    # makes the oracle actually look.
    value, _ = integrate(lambda x: np.sin(2.0 * math.pi * x) + x, 0.0, 1.0)
    assert value == pytest.approx(0.5, abs=1e-11)


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
    # A level evaluates two quarter points per pending interval, in one
    # call while they are fewer than EVAL_CHUNK.
    assert max(sizes) < simpson.EVAL_CHUNK
    monkeypatch.setattr(simpson, "MAX_LIVE", max(sizes) // 2)
    simpson.integrate_segments(fn, [0.0], [2.0], tol=1e-9)  # one segment fits
    with pytest.raises(ConvergenceError, match="pending over 2 segment"):
        simpson.integrate_segments(fn, [0.0, 0.0], [2.0, 2.0], tol=1e-9)


def test_integrand_is_called_in_slices_of_at_most_eval_chunk_points():
    sizes = []

    def fn(x):
        sizes.append(x.size)
        return np.sin(40.0 * x)

    integrate(fn, 0.0, 10.0, tol=1e-11)
    assert max(sizes) == simpson.EVAL_CHUNK < sum(sizes)


def test_non_finite_value_names_its_segment():
    def fn(x, seg):
        return np.where(seg == 2, np.log(x), x)

    with np.errstate(all="ignore"):
        with pytest.raises(ConvergenceError, match=r"integrand is nan at x = -1\.0 in segment 2$"):
            simpson.integrate_segments(fn, [0.0, 1.0, -1.0], [1.0, 2.0, 1.0])
