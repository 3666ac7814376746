"""Moment constants and the ten closed-form remainder bounds.

The quadrature cross-checks integrate the defining weight integrals with
the package oracle and compare against the closed forms; the assembly
cross-checks rebuild every bound from the exposed moments, which ties the
prefactors to their derivations independently of the formulas in bound().
"""

import math

import numpy as np
import pytest

from etaquad import (
    BoundSpec,
    DerivativeData,
    SELECTORS,
    THEOREM_ORDER,
    abs_moment,
    beta_moment,
    bound,
    gamma_ratio,
    holder_weighted_moment,
    integrate,
    moment_c1,
    moment_c2,
    parse,
)


def quad01(fn):
    # split at the |2t-1| kink so the oracle is not asked to find it
    left, _ = integrate(fn, 0.0, 0.5, tol=1e-13)
    right, _ = integrate(fn, 0.5, 1.0, tol=1e-13)
    return left + right


# --- moments ---------------------------------------------------------------


def test_kernel_moments_against_quadrature():
    got = quad01(lambda t: t * (1 - t) * np.abs(2 * t - 1))
    assert got == pytest.approx(moment_c1(), abs=1e-12)
    assert moment_c1() == 1.0 / 16.0
    got = quad01(lambda t: t * t * (1 - t) * np.abs(2 * t - 1))
    assert got == pytest.approx(moment_c2(), abs=1e-12)
    got = quad01(lambda t: t * (1 - t) ** 2 * np.abs(2 * t - 1))
    assert got == pytest.approx(moment_c2(), abs=1e-12)
    assert moment_c2() == 1.0 / 32.0


@pytest.mark.parametrize("p", [2.0, 3.0, 7.5])
def test_holder_weighted_moment(p):
    got = quad01(lambda t: t * (1 - t) * np.abs(2 * t - 1) ** p)
    assert got == pytest.approx(holder_weighted_moment(p), abs=1e-12)
    assert holder_weighted_moment(p) == pytest.approx(
        1.0 / (2.0 * (p + 1.0) * (p + 3.0)), rel=1e-15
    )


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_beta_moment(p):
    got = quad01(lambda t: (t - t * t) ** p)
    assert got == pytest.approx(beta_moment(p), abs=1e-12)


def test_beta_moment_anchors():
    assert beta_moment(1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert beta_moment(2.0) == pytest.approx(1.0 / 30.0, rel=1e-14)
    assert beta_moment(3.5) == pytest.approx(0.00335558297349985, rel=1e-12)


@pytest.mark.parametrize("q", [1.0, 2.0, 5.0])
def test_abs_moment(q):
    got = quad01(lambda t: t * np.abs(2 * t - 1) ** q)
    assert got == pytest.approx(abs_moment(q), abs=1e-12)
    got = quad01(lambda t: (1 - t) * np.abs(2 * t - 1) ** q)
    assert got == pytest.approx(abs_moment(q), abs=1e-12)
    assert abs_moment(q) == pytest.approx(1.0 / (2.0 * (q + 1.0)), rel=1e-15)


def test_gamma_ratio_anchors():
    assert gamma_ratio(1.0) == pytest.approx(0.7522527780636747, rel=1e-13)
    assert gamma_ratio(2.0) == pytest.approx(0.6018022224509401, rel=1e-13)
    assert gamma_ratio(0.5) == pytest.approx(0.8862269254527578, rel=1e-13)
    # direct definition for a large p where naive Gamma would overflow
    assert gamma_ratio(300.0) == pytest.approx(
        math.exp(math.lgamma(301.0) - math.lgamma(301.5)), rel=1e-13
    )


def test_moment_domain_errors():
    for fn, bad in (
        (holder_weighted_moment, 1.0),
        (holder_weighted_moment, 0.5),
        (beta_moment, 0.0),
        (beta_moment, -1.0),
        (abs_moment, 0.0),
        (gamma_ratio, 0.0),
    ):
        with pytest.raises(ValueError):
            fn(bad)


# --- specs and data --------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        BoundSpec("T9.9", 2.0)
    with pytest.raises(ValueError):
        BoundSpec("T2.1", 0.5)
    with pytest.raises(ValueError):
        BoundSpec("T2.2", 1.0)
    with pytest.raises(ValueError):
        BoundSpec("T2.2", math.inf)
    assert BoundSpec("T2.1", 1.0).theorem == "T2.1"
    assert BoundSpec("T2.2", 2.0).p == 2.0
    assert BoundSpec("T2.2", 3.0).p == pytest.approx(1.5)
    with pytest.raises(ValueError):
        BoundSpec("T2.1", 1.0).p


def test_selectors_cover_the_ten_bounds():
    preinvex = ("T2.1", "T2.2", "T2.3", "C2.1", "C2.2")
    prequasiinvex = ("T3.1", "T3.2", "T3.3", "C2.3", "C2.4")
    assert set(SELECTORS) == set(preinvex + prequasiinvex)
    assert THEOREM_ORDER == ("T2.1", "T2.2", "T2.3", "T3.1", "T3.2", "T3.3")
    for thm in SELECTORS:
        want = "preinvex" if thm in preinvex else "prequasiinvex"
        assert BoundSpec(thm, 2.0).hypothesis == want
    refused_at_q1 = set()
    for thm in SELECTORS:
        try:
            BoundSpec(thm, 1.0)
        except ValueError as exc:
            assert str(exc) == f"{thm} requires q > 1"
            refused_at_q1.add(thm)
    assert refused_at_q1 == {"T2.2", "T2.3", "T3.2", "T3.3"}


def test_derivative_data():
    with pytest.raises(ValueError):
        DerivativeData(-1.0, 0.0)
    with pytest.raises(ValueError):
        DerivativeData(math.inf, 0.0)
    d = DerivativeData.from_function(parse("pow(x,4)"), 1.0, 0.0)
    assert (d.a3, d.b3) == (24.0, 0.0)


# --- bound values ----------------------------------------------------------


def test_t21_anchor():
    value = bound(BoundSpec("T2.1", 2.0), 1.0, DerivativeData(24.0, 0.0)).value
    assert value == pytest.approx(24.0 / math.sqrt(2.0) / 192.0, rel=1e-14)
    assert value == pytest.approx(0.08838834764831843, abs=1e-15)


def test_symmetric_unit_table():
    d = DerivativeData(1.0, 1.0)
    got = {thm: bound(BoundSpec(thm, 2.0), 1.0, d).value for thm in THEOREM_ORDER}
    assert got["T2.1"] == pytest.approx(1.0 / 192.0, rel=1e-15)
    assert got["T2.2"] == pytest.approx(0.006211299937499417, rel=1e-13)
    assert got["T2.3"] == pytest.approx(0.008784104611578832, rel=1e-13)
    assert got["T3.1"] == got["T2.1"]
    assert got["T3.2"] == pytest.approx(got["T2.2"], rel=1e-15)
    assert got["T3.3"] == pytest.approx(math.sqrt(2.0) * got["T2.3"], rel=1e-13)


def test_corollaries():
    d = DerivativeData(3.0, 1.0)
    h = 1.3
    assert bound(BoundSpec("C2.1", 1.0), h, d).value == pytest.approx(
        h ** 4 * 4.0 / 384.0, rel=1e-15
    )
    # C2.2 evaluates the q-dependent power mean form, not the printed /384
    for q in (1.0, 2.0, 3.0):
        assert bound(BoundSpec("C2.2", q), h, d).value == bound(
            BoundSpec("T2.1", q), h, d
        ).value
    assert bound(BoundSpec("C2.2", 1.0), h, d).value == pytest.approx(
        h ** 4 * 2.0 / 192.0, rel=1e-15
    )
    for thm in ("C2.3", "C2.4"):
        assert bound(BoundSpec(thm, 1.0), h, d).value == bound(
            BoundSpec("T3.1", 1.0), h, d
        ).value


def test_exact_symmetric_tie():
    d = DerivativeData(7.0, 7.0)
    for q in (1.0, 1.5, 2.0, 5.0):
        t21 = bound(BoundSpec("T2.1", q), 1.1, d).value
        t31 = bound(BoundSpec("T3.1", q), 1.1, d).value
        assert t21 == t31  # bitwise, by the power-mean shortcut


def test_one_zero_power_mean_ratio():
    d = DerivativeData(0.0, 1.0)
    t21 = bound(BoundSpec("T2.1", 2.0), 1.0, d).value
    t31 = bound(BoundSpec("T3.1", 2.0), 1.0, d).value
    assert t21 / t31 == pytest.approx(math.sqrt(0.5), rel=1e-14)


def test_h_enters_as_fourth_power():
    d = DerivativeData(2.0, 5.0)
    v1 = bound(BoundSpec("T2.2", 3.0), 0.7, d).value
    v2 = bound(BoundSpec("T2.2", 3.0), -0.7, d).value
    assert v1 == v2
    assert bound(BoundSpec("T2.2", 3.0), 1.4, d).value == pytest.approx(16.0 * v1, rel=1e-13)


def test_zero_cases():
    d0 = DerivativeData(0.0, 0.0)
    for thm in THEOREM_ORDER:
        q = 2.0
        assert bound(BoundSpec(thm, q), 1.0, d0).value == 0.0


def test_q_monotone_for_t21():
    d = DerivativeData(1.0, 3.0)
    qs = [1.0, 1.5, 2.0, 4.0, 8.0]
    values = [bound(BoundSpec("T2.1", q), 1.0, d).value for q in qs]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi * (1.0 + 1e-12)


def test_dominance_sample():
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(300):
        h = float(rng.uniform(0.1, 2.0))
        a3 = float(rng.uniform(0.0, 50.0))
        b3 = float(rng.uniform(0.0, 50.0))
        q = float(rng.uniform(1.001, 10.0))
        d = DerivativeData(a3, b3)
        for t2, t3 in (("T2.1", "T3.1"), ("T2.2", "T3.2"), ("T2.3", "T3.3")):
            lo = bound(BoundSpec(t2, q), h, d).value
            hi = bound(BoundSpec(t3, q), h, d).value
            assert lo <= hi * (1.0 + 1e-12)


def test_assembled_from_moments():
    """Rebuild each bound as h^4/12 * (weight moment)^(1/p) * (endpoint term)^(1/q)."""
    rng = np.random.Generator(np.random.Philox(29))
    for _ in range(50):
        h = float(rng.uniform(0.2, 1.8))
        a3 = float(rng.uniform(0.0, 30.0))
        b3 = float(rng.uniform(0.0, 30.0))
        q = float(rng.uniform(1.1, 8.0))
        p = q / (q - 1.0)
        d = DerivativeData(a3, b3)
        h4_12 = h ** 4 / 12.0
        mx = max(a3, b3)

        want = h4_12 * (1.0 / 16.0) ** (1.0 - 1.0 / q) * ((a3 ** q + b3 ** q) / 32.0) ** (1.0 / q)
        assert bound(BoundSpec("T2.1", q), h, d).value == pytest.approx(want, rel=1e-12, abs=1e-300)

        assert bound(BoundSpec("T3.1", q), h, d).value == pytest.approx(
            h4_12 * (1.0 / 16.0) * mx, rel=1e-12, abs=1e-300
        )

        want = h4_12 * holder_weighted_moment(p) ** (1.0 / p) * ((a3 ** q + b3 ** q) / 12.0) ** (1.0 / q)
        assert bound(BoundSpec("T2.2", q), h, d).value == pytest.approx(want, rel=1e-12, abs=1e-300)

        want = h4_12 * holder_weighted_moment(p) ** (1.0 / p) * (1.0 / 6.0) ** (1.0 / q) * mx
        assert bound(BoundSpec("T3.2", q), h, d).value == pytest.approx(want, rel=1e-12, abs=1e-300)

        want = h4_12 * beta_moment(p) ** (1.0 / p) * (abs_moment(q) * (a3 ** q + b3 ** q)) ** (1.0 / q)
        assert bound(BoundSpec("T2.3", q), h, d).value == pytest.approx(want, rel=1e-12, abs=1e-300)

        want = h4_12 * beta_moment(p) ** (1.0 / p) * (1.0 / (q + 1.0)) ** (1.0 / q) * mx
        tight = bound(BoundSpec("T3.3", q), h, d, tight=True).value
        assert tight == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan, np.array([1.0, math.nan])])
def test_non_finite_displacement_is_refused(h):
    with pytest.raises(ValueError, match="h must be finite"):
        bound(BoundSpec("T2.1", 2.0), h, DerivativeData(1.0, 1.0))


def test_t33_tight_variant():
    d = DerivativeData(2.0, 3.0)
    for q in (1.5, 2.0, 4.0):
        spec = BoundSpec("T3.3", q)
        printed = bound(spec, 1.2, d).value
        tight = bound(spec, 1.2, d, tight=True).value
        assert printed / tight == pytest.approx(2.0 ** (1.0 / spec.p), rel=1e-14)
    with pytest.raises(ValueError):
        bound(BoundSpec("T2.1", 2.0), 1.0, d, tight=True)


def test_constants_used_are_reported():
    bv = bound(BoundSpec("T2.2", 2.0), 1.0, DerivativeData(1.0, 1.0))
    assert bv.constants_used["holder_weighted_moment"] == pytest.approx(1.0 / 30.0)
    bv = bound(BoundSpec("T3.3", 2.0), 1.0, DerivativeData(1.0, 1.0))
    assert bv.constants_used["tight_factor"] == pytest.approx(2.0 ** -0.5)
    out = bv.to_json()
    assert list(out) == ["value", "theorem", "q", "constants_used"]
