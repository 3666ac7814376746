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


# --- pinned bits -----------------------------------------------------------

# Every report carries these values and constants, so they are pinned to the
# bit: three single segments (one with A == B, one with A = 0) and a batch of
# three, for each selector at two exponents and T3.3 with and without
# ``tight``.  (selector, q, tight) -> (constants_used in its order, the three
# single values then the batch's), all as float.hex().
PIN_CASES = ((1.3, 3.0, 1.0), (0.7, 2.5, 2.5), (-0.4, 0.0, 5.0))
PIN_BATCH = (np.array([0.5, -1.1, 1.9]), np.array([1.0, 0.0, 4.0]), np.array([2.0, 3.0, 4.0]))
PINNED = {
    ("T2.1", 1.0, False): (
        {"kernel_moment": "0x1.0000000000000p-4",
         "weighted_kernel_moments": "0x1.0000000000000p-5", "prefactor": "0x1.5555555555555p-8"},
        ("0x1.e770e9bebcb08p-6", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-12",
         "0x1.0000000000000p-11", "0x1.76cf41f212d79p-7", "0x1.1604a462d9a25p-2"),
    ),
    ("T2.1", 7.3, False): (
        {"kernel_moment": "0x1.0000000000000p-4",
         "weighted_kernel_moments": "0x1.0000000000000p-5", "prefactor": "0x1.5555555555555p-8"},
        ("0x1.4c7af6cca9fe6p-5", "0x1.99c54a6921734p-9", "0x1.3ddd3edda6e65p-11",
         "0x1.36aef321b7bbap-11", "0x1.54dbb1a83f9dfp-6", "0x1.1604a462d9a25p-2"),
    ),
    ("T2.2", 1.5, False): (
        {"holder_weighted_moment": "0x1.5555555555555p-6", "prefactor": "0x1.9d7ef262c1eabp-7"},
        ("0x1.594c99690c2dap-5", "0x1.112e319b6ba24p-8", "0x1.259537d6e510fp-11",
         "0x1.5ed13c5b7dee7p-11", "0x1.3ad20192923fcp-6", "0x1.72b0db2e77832p-2"),
    ),
    ("T2.2", 7.3, False): (
        {"holder_weighted_moment": "0x1.c83f7437a31e1p-5", "prefactor": "0x1.0b0b3c277ca2bp-5"},
        ("0x1.5846cf3ba5d17p-5", "0x1.a84f25ae8fd3ap-9", "0x1.492456189ab0fp-11",
         "0x1.41b4d186d0eeap-11", "0x1.60f3a232ff21ap-6", "0x1.1fe1d1c964e81p-2"),
    ),
    ("T2.3", 1.5, False): (
        {"beta_moment": "0x1.d41d41d41d421p-8", "abs_moment": "0x1.999999999999ap-3",
         "gamma_ratio": "0x1.081aeea4b86c9p-1", "prefactor": "0x1.5555555555555p-7"},
        ("0x1.b1380fd5d8995p-5", "0x1.56bcc679e0d44p-8", "0x1.7055ae707182ep-11",
         "0x1.b82461f284dfap-11", "0x1.8afac78d3d6c4p-6", "0x1.d113688955c87p-2"),
    ),
    ("T2.3", 7.3, False): (
        {"beta_moment": "0x1.06794be42f7ddp-3", "abs_moment": "0x1.ed7e75346f093p-5",
         "gamma_ratio": "0x1.711159521678dp-1", "prefactor": "0x1.5555555555555p-7"},
        ("0x1.5203dbb47fb6cp-4", "0x1.a097907cc68a7p-8", "0x1.4327da1be6484p-10",
         "0x1.3bdaf450c2b2cp-10", "0x1.5a884a849af28p-5", "0x1.1aa570dc4d357p-1"),
    ),
    ("T3.1", 1.0, False): (
        {"kernel_moment": "0x1.0000000000000p-4", "prefactor": "0x1.5555555555555p-8"},
        ("0x1.6d94af4f0d846p-5", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-11",
         "0x1.5555555555555p-11", "0x1.76cf41f212d79p-6", "0x1.1604a462d9a25p-2"),
    ),
    ("T3.1", 7.3, False): (
        {"kernel_moment": "0x1.0000000000000p-4", "prefactor": "0x1.5555555555555p-8"},
        ("0x1.6d94af4f0d846p-5", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-11",
         "0x1.5555555555555p-11", "0x1.76cf41f212d79p-6", "0x1.1604a462d9a25p-2"),
    ),
    ("T3.2", 1.5, False): (
        {"holder_weighted_moment": "0x1.5555555555555p-6", "prefactor": "0x1.48312081037f8p-6"},
        ("0x1.e770e9bebcb0ap-5", "0x1.112e319b6ba24p-8", "0x1.d208a5a912e34p-11",
         "0x1.c71c71c71c71ep-11", "0x1.f3bf0298191f8p-6", "0x1.72b0db2e77833p-2"),
    ),
    ("T3.2", 7.3, False): (
        {"holder_weighted_moment": "0x1.c83f7437a31e1p-5", "prefactor": "0x1.25a49a79ca391p-5"},
        ("0x1.7a8d2cad79ecdp-5", "0x1.a84f25ae8fd3bp-9", "0x1.69ed25945d410p-11",
         "0x1.617196b2e3117p-11", "0x1.841b920ab0c68p-6", "0x1.1fe1d1c964e81p-2"),
    ),
    ("T3.3", 1.5, False): (
        {"beta_moment": "0x1.d41d41d41d421p-8", "kernel_abs_moment": "0x1.999999999999ap-2",
         "gamma_ratio": "0x1.081aeea4b86c9p-1", "prefactor": "0x1.5555555555555p-6",
         "tight_factor": "0x1.965fea53d6e3dp-1"},
        ("0x1.81411132f0934p-4", "0x1.afd2732193136p-8", "0x1.7055ae707182ep-10",
         "0x1.67b3ac59ced9cp-10", "0x1.8afac78d3d6c4p-5", "0x1.24faba35a9437p-1"),
    ),
    ("T3.3", 1.5, True): (
        {"beta_moment": "0x1.d41d41d41d421p-8", "kernel_abs_moment": "0x1.999999999999ap-2",
         "gamma_ratio": "0x1.081aeea4b86c9p-1", "prefactor": "0x1.5555555555555p-6",
         "tight_factor": "0x1.965fea53d6e3dp-1"},
        ("0x1.31c6c487e8529p-4", "0x1.56bcc679e0d44p-8", "0x1.2458f1cc8114bp-10",
         "0x1.1d7edc21b60e3p-10", "0x1.397eda8a510b3p-5", "0x1.d113688955c88p-2"),
    ),
    ("T3.3", 7.3, False): (
        {"beta_moment": "0x1.06794be42f7ddp-3", "kernel_abs_moment": "0x1.ed7e75346f093p-4",
         "gamma_ratio": "0x1.711159521678dp-1", "prefactor": "0x1.5555555555555p-6",
         "tight_factor": "0x1.197fc27bc0898p-1"},
        ("0x1.51fff5f1865d2p-3", "0x1.7adb1893f5596p-7", "0x1.4327da1be6485p-9",
         "0x1.3b94eaff3ee29p-9", "0x1.5a884a849af29p-4", "0x1.010b141f95166p+0"),
    ),
    ("T3.3", 7.3, True): (
        {"beta_moment": "0x1.06794be42f7ddp-3", "kernel_abs_moment": "0x1.ed7e75346f093p-4",
         "gamma_ratio": "0x1.711159521678dp-1", "prefactor": "0x1.5555555555555p-6",
         "tight_factor": "0x1.197fc27bc0898p-1"},
        ("0x1.73aaa3b87bdf9p-4", "0x1.a097907cc68a9p-8", "0x1.635804ae3e170p-10",
         "0x1.5b03f49228a27p-10", "0x1.7d0c8aab5271cp-5", "0x1.1aa570dc4d358p-1"),
    ),
    ("C2.1", 1.0, False): (
        {"weighted_kernel_moments": "0x1.0000000000000p-5", "prefactor": "0x1.5555555555555p-9"},
        ("0x1.e770e9bebcb08p-6", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-12",
         "0x1.0000000000000p-11", "0x1.76cf41f212d79p-7", "0x1.1604a462d9a25p-2"),
    ),
    ("C2.1", 7.3, False): (
        {"weighted_kernel_moments": "0x1.0000000000000p-5", "prefactor": "0x1.5555555555555p-9"},
        ("0x1.e770e9bebcb08p-6", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-12",
         "0x1.0000000000000p-11", "0x1.76cf41f212d79p-7", "0x1.1604a462d9a25p-2"),
    ),
    ("C2.2", 1.0, False): (
        {"kernel_moment": "0x1.0000000000000p-4",
         "weighted_kernel_moments": "0x1.0000000000000p-5", "prefactor": "0x1.5555555555555p-8",
         "printed_q1_prefactor": "0x1.5555555555555p-9"},
        ("0x1.e770e9bebcb08p-6", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-12",
         "0x1.0000000000000p-11", "0x1.76cf41f212d79p-7", "0x1.1604a462d9a25p-2"),
    ),
    ("C2.2", 7.3, False): (
        {"kernel_moment": "0x1.0000000000000p-4",
         "weighted_kernel_moments": "0x1.0000000000000p-5", "prefactor": "0x1.5555555555555p-8",
         "printed_q1_prefactor": "0x1.5555555555555p-9"},
        ("0x1.4c7af6cca9fe6p-5", "0x1.99c54a6921734p-9", "0x1.3ddd3edda6e65p-11",
         "0x1.36aef321b7bbap-11", "0x1.54dbb1a83f9dfp-6", "0x1.1604a462d9a25p-2"),
    ),
    ("C2.3", 1.0, False): (
        {"kernel_moment": "0x1.0000000000000p-4", "prefactor": "0x1.5555555555555p-8"},
        ("0x1.6d94af4f0d846p-5", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-11",
         "0x1.5555555555555p-11", "0x1.76cf41f212d79p-6", "0x1.1604a462d9a25p-2"),
    ),
    ("C2.3", 7.3, False): (
        {"kernel_moment": "0x1.0000000000000p-4", "prefactor": "0x1.5555555555555p-8"},
        ("0x1.6d94af4f0d846p-5", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-11",
         "0x1.5555555555555p-11", "0x1.76cf41f212d79p-6", "0x1.1604a462d9a25p-2"),
    ),
    ("C2.4", 1.0, False): (
        {"kernel_moment": "0x1.0000000000000p-4", "prefactor": "0x1.5555555555555p-8"},
        ("0x1.6d94af4f0d846p-5", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-11",
         "0x1.5555555555555p-11", "0x1.76cf41f212d79p-6", "0x1.1604a462d9a25p-2"),
    ),
    ("C2.4", 7.3, False): (
        {"kernel_moment": "0x1.0000000000000p-4", "prefactor": "0x1.5555555555555p-8"},
        ("0x1.6d94af4f0d846p-5", "0x1.99c54a6921734p-9", "0x1.5d867c3ece2a7p-11",
         "0x1.5555555555555p-11", "0x1.76cf41f212d79p-6", "0x1.1604a462d9a25p-2"),
    ),
}


@pytest.mark.parametrize("thm, q, tight", PINNED)
def test_bound_bits_are_pinned(thm, q, tight):
    constants, values = PINNED[thm, q, tight]
    spec = BoundSpec(thm, q)
    singles = [bound(spec, h, DerivativeData(a3, b3), tight) for h, a3, b3 in PIN_CASES]
    batch = bound(spec, PIN_BATCH[0], DerivativeData(*PIN_BATCH[1:]), tight)
    assert all(type(bv.value) is float for bv in singles)
    got = [bv.value for bv in singles] + batch.value.tolist()
    assert [v.hex() for v in got] == list(values)
    for bv in singles + [batch]:
        assert [(k, v.hex()) for k, v in bv.constants_used.items()] == list(constants.items())


def test_c21_is_t21_at_q1_to_the_bit():
    rng = np.random.Generator(np.random.Philox(31))
    h = rng.uniform(-2.0, 2.0, 200)
    a3, b3 = rng.uniform(0.0, 50.0, (2, 200))
    a3[:20] = b3[:20]
    a3[20:40] = 0.0
    t21 = bound(BoundSpec("T2.1", 1.0), h, DerivativeData(a3, b3)).value
    for q in (1.0, 2.0, 7.3):  # C2.1 assumes |f'''| preinvex whatever its q
        c21 = bound(BoundSpec("C2.1", q), h, DerivativeData(a3, b3)).value
        assert c21.tobytes() == t21.tobytes()
        for k in range(0, 200, 7):
            d = DerivativeData(float(a3[k]), float(b3[k]))
            assert bound(BoundSpec("C2.1", q), float(h[k]), d).value.hex() == t21[k].hex()
