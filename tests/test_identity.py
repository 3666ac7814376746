"""The corrected-trapezoid rule and its exact remainder identity."""

import math

import numpy as np
import pytest

from etaquad import (
    DifferenceMap,
    PiecewiseSignMap,
    PathSegment,
    corrected_trapezoid,
    integrate,
    kernel_integral,
    kernel_weight,
    parse,
    verify_identity,
)


def test_kernel_weight_shape():
    assert kernel_weight(0.25) == -0.09375
    assert kernel_weight(0.0) == 0.0
    assert kernel_weight(0.5) == 0.0
    assert kernel_weight(1.0) == 0.0
    t = np.linspace(0.0, 1.0, 101)
    assert np.allclose(kernel_weight(t), -kernel_weight(1.0 - t), atol=1e-16)
    total, _ = integrate(kernel_weight, 0.0, 1.0)
    assert total == pytest.approx(0.0, abs=1e-13)


def test_segment_validation():
    with pytest.raises(ValueError):
        PathSegment(b=0.0, h=0.0)
    with pytest.raises(ValueError):
        PathSegment(b=0.0, h=math.inf)
    with pytest.raises(ValueError):
        PathSegment(b=math.nan, h=1.0)
    seg = PathSegment(b=1.0, h=-2.0)
    assert seg.end == -1.0


def test_segment_from_map():
    seg = PathSegment.from_eta(DifferenceMap(), a=1.0, b=0.0)
    assert (seg.b, seg.h) == (0.0, 1.0)
    with pytest.raises(ValueError):
        PathSegment.from_eta(DifferenceMap(), a=2.0, b=2.0)
    # mixed signs flip the direction under the sign-split map
    seg = PathSegment.from_eta(PiecewiseSignMap(), a=1.0, b=-1.0)
    assert (seg.b, seg.h) == (-1.0, -2.0)
    assert seg.end == -3.0


def test_quartic_anchor():
    f = parse("pow(x,4)")
    seg = PathSegment(b=0.0, h=1.0)
    rep = verify_identity(f, seg)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0 / 30.0, abs=1e-10)
    assert rep.rhs == pytest.approx(1.0 / 30.0, abs=1e-10)
    assert kernel_integral(f, seg) == pytest.approx(0.4, abs=1e-11)


def test_exp_anchor():
    f = parse("exp(x)")
    seg = PathSegment(b=0.0, h=1.0)
    assert kernel_integral(f, seg) == pytest.approx(0.02797279921331608, abs=1e-11)
    rep = verify_identity(f, seg)
    assert rep.passed
    assert rep.rhs == pytest.approx(0.0023310666011096734, abs=1e-10)
    assert rep.abs_diff <= 1e-10
    assert rep.quadrature_error_estimate >= 0.0


def test_reversed_segment():
    rep = verify_identity(parse("exp(x)"), PathSegment(b=1.0, h=-1.0))
    assert rep.passed
    # reversing the path negates the remainder
    fwd = verify_identity(parse("exp(x)"), PathSegment(b=0.0, h=1.0))
    assert rep.lhs == pytest.approx(-fwd.lhs, abs=1e-10)


def test_identity_on_mixed_corpus():
    rng = np.random.Generator(np.random.Philox(5))
    sources = ["exp(x)*sin(x)", "1/(4+x)", "pow(x,5) - 2*pow(x,3)", "cos(3*x)"]
    for source in sources:
        f = parse(source)
        for _ in range(5):
            b = float(rng.uniform(-1.5, 1.5))
            h = float(rng.uniform(0.2, 1.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            rep = verify_identity(f, PathSegment(b=b, h=h))
            assert rep.passed, (source, b, h, rep.abs_diff)
            assert rep.abs_diff <= 1e-9 * max(1.0, abs(rep.lhs))


def test_cubics_have_zero_remainder():
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(20):
        c = [float(v) for v in rng.uniform(-5.0, 5.0, 4)]
        f = parse(f"({c[0]!r}) + ({c[1]!r})*x + ({c[2]!r})*pow(x,2) + ({c[3]!r})*pow(x,3)")
        b = float(rng.uniform(-2.0, 2.0))
        h = float(rng.uniform(0.1, 2.0))
        seg = PathSegment(b=b, h=h)
        q = corrected_trapezoid(f, seg)
        e = b + h
        exact = sum(
            float(c[k]) * (e ** (k + 1) - b ** (k + 1)) / (k + 1) for k in range(4)
        )
        assert abs(exact - q) <= 1e-12 * max(1.0, abs(exact), abs(q))


def test_corrected_trapezoid_needs_only_the_rule():
    # hand value: f=x^2 on [0,2]: h(f0+f1)/2 + h^2/12*(f0'-f1') = 4 + (4/12)(0-4) = 8/3
    q = corrected_trapezoid(parse("x*x"), PathSegment(b=0.0, h=2.0))
    assert q == pytest.approx(8.0 / 3.0, rel=1e-15)


def test_report_serialisation():
    rep = verify_identity(parse("exp(x)"), PathSegment(b=0.0, h=1.0))
    out = rep.to_json()
    assert list(out) == ["lhs", "rhs", "abs_diff", "quadrature_error_estimate", "passed"]
