"""Certified corrected-trapezoid integration."""

import json
import math

import numpy as np
import pytest

from etaquad import (
    BudgetError,
    CertifiedResult,
    DomainError,
    PathSegment,
    integrate,
    integrate_certified,
    parse,
    true_error,
)
from etaquad import expr, quadrature


def exact_poly_x4(seg):
    lo, hi = seg.b, seg.end
    return hi ** 5 / 5.0 - lo ** 5 / 5.0


def test_single_interval_anchor():
    f = parse("pow(x,4)")
    seg = PathSegment(0.0, 2.0)
    res = integrate_certified(f, seg, fixed_n=1, mode="hypothesis")
    assert res.value == pytest.approx(16.0 / 3.0, rel=1e-15)
    # local endpoint bound: w^4/384 * (|f'''(0)| + |f'''(2)|) = 16/384 * 48
    assert res.certificate == pytest.approx(2.0, rel=1e-15)
    assert res.n == 1
    err = true_error(f, res)
    assert err == pytest.approx(16.0 / 15.0, rel=1e-12)
    assert err <= res.certificate


def test_cubic_is_exact():
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(20):
        c = [float(v) for v in rng.uniform(-4.0, 4.0, size=4)]
        src = f"({c[0]!r}) + ({c[1]!r})*x + ({c[2]!r})*pow(x,2) + ({c[3]!r})*pow(x,3)"
        f = parse(src)
        seg = PathSegment(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 1.5)))
        res = integrate_certified(f, seg, fixed_n=4)
        lo, hi = seg.b, seg.end
        exact = sum(c[k] * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k in range(4))
        scale = max(1.0, abs(exact))
        assert abs(res.value - exact) <= 1e-12 * scale
        assert res.certificate >= 0.0


@pytest.mark.parametrize("policy", [{"fixed_n": 7}, {"target": 1e-6}], ids=["fixed_n", "target"])
def test_partition_tiles_the_segment(policy):
    f = parse("exp(x)")
    seg = PathSegment(0.5, -1.25)
    res = integrate_certified(f, seg, **policy)
    assert len(res.left) == res.n == policy.get("fixed_n", res.n)
    assert not any(c.flags.writeable for c in (res.left, res.right, res.local_value, res.local_bound))
    assert res.left[0] == seg.b
    assert res.right[-1] == pytest.approx(seg.end, abs=1e-15)
    assert (res.left[1:] == res.right[:-1]).all()
    assert res.value == pytest.approx(math.fsum(res.local_value), rel=1e-15)
    assert res.certificate == pytest.approx(math.fsum(res.local_bound), rel=1e-15)


def test_certificate_fourth_order_decay():
    f = parse("exp(x)")
    seg = PathSegment(0.0, 1.0)
    for mode in quadrature.MODES:
        prev = None
        for n in (8, 16, 32, 64):
            res = integrate_certified(f, seg, fixed_n=n, mode=mode)
            assert true_error(f, res) <= res.certificate * (1.0 + 1e-9)
            if prev is not None:
                ratio = prev / res.certificate
                assert 7.0 <= ratio <= 9.0  # certificate scales like n^-3 per step sum
            prev = res.certificate


def test_adaptive_meets_target_and_is_deterministic():
    f = parse("exp(2*x)*sin(3*x)")
    seg = PathSegment(0.0, 1.5)
    r1 = integrate_certified(f, seg, target=1e-6)
    r2 = integrate_certified(f, seg, target=1e-6)
    assert r1.certificate <= 1e-6
    assert r1.value == r2.value
    assert r1.n == r2.n
    assert (r1.left == r2.left).all() and (r1.right == r2.right).all()
    exact, _ = integrate(lambda x: np.exp(2 * x) * np.sin(3 * x), 0.0, 1.5, tol=1e-13)
    assert abs(r1.value - exact) <= r1.certificate * (1.0 + 1e-9)


class CountingJets:
    """Delegates ``jet3`` and ``enclose3`` to an expression and counts the
    calls of each."""

    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.enclosures = 0

    def jet3(self, x):
        self.calls += 1
        return self.f.jet3(x)

    def enclose3(self, lo, hi):
        self.enclosures += 1
        return self.f.enclose3(lo, hi)


@pytest.mark.parametrize("mode, target", [("hypothesis", 1e-12), ("sup", 1e-9)])
def test_adaptive_accepts_width_shares_level_by_level(mode, target):
    # Each accepted bound is within its width's share of the target, so the
    # certificate cannot drift above it; one jet call per level (plus one
    # sup enclosure) keeps the bisection vectorised.
    f = CountingJets(parse("exp(x)*sin(3*x)+pow(x,6)"))
    seg = PathSegment(0.0, 2.0)
    res = integrate_certified(f, seg, mode=mode, target=target)
    assert res.certificate <= target
    assert np.all(res.local_bound <= target * np.abs(res.right - res.left) / abs(seg.h))
    assert f.calls <= 32
    assert f.enclosures == (f.calls if mode == "sup" else 0)


@pytest.mark.parametrize("policy", [{"target": 1e-6}, {"fixed_n": 8}], ids=["target", "fixed_n"])
def test_non_finite_local_rule_is_domain_error(policy):
    f = parse("exp(800*x)")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="non-finite .* on subinterval"):
            integrate_certified(f, PathSegment(0.0, 1.0), **policy)


def test_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", 64)
    f = parse("exp(x)")
    seg = PathSegment(0.0, 1.0)
    with pytest.raises(BudgetError):
        integrate_certified(f, seg, target=1e-30)


def test_fixed_n_above_the_budget_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", 64)
    f = parse("exp(x)")
    seg = PathSegment(0.0, 1.0)
    assert integrate_certified(f, seg, fixed_n=64).n == 64
    monkeypatch.setattr(quadrature, "_jets", None)  # work would call it
    with pytest.raises(BudgetError, match="fixed_n 65 is above the budget of 64"):
        integrate_certified(f, seg, fixed_n=65)


def test_negative_h_direction():
    f = parse("pow(x,3)")
    seg = PathSegment(2.0, -2.0)  # integrates from 2 down to 0
    res = integrate_certified(f, seg, fixed_n=8)
    assert res.value == pytest.approx(-4.0, rel=1e-12)
    assert res.certificate > 0.0
    assert true_error(f, res) <= res.certificate


def test_argument_validation():
    f = parse("x")
    seg = PathSegment(0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_certified(f, seg)  # neither fixed_n nor target
    with pytest.raises(ValueError):
        integrate_certified(f, seg, fixed_n=4, target=1e-6)
    with pytest.raises(ValueError):
        integrate_certified(f, seg, fixed_n=0)
    with pytest.raises(ValueError):
        integrate_certified(f, seg, target=0.0)
    with pytest.raises(ValueError):
        integrate_certified(f, seg, fixed_n=4, mode="exact")


def test_result_serialization():
    f = parse("sin(x)")
    res = integrate_certified(f, PathSegment(0.0, 1.0), fixed_n=2)
    out = res.to_json()
    assert list(out) == ["value", "certificate", "mode", "n", "partition"]
    assert out["n"] == 2
    assert len(out["partition"]) == 2
    assert list(out["partition"][1].items()) == [
        ("left", 0.5), ("right", 1.0), ("local_value", res.local_value[1]),
        ("local_bound", res.local_bound[1])]
    assert isinstance(res, CertifiedResult)


def test_hypothesis_mode_sound_on_exp_corpus():
    rng = np.random.Generator(np.random.Philox(37))
    for _ in range(15):
        c1 = float(rng.uniform(-2.0, 2.0))
        c0 = float(rng.uniform(-1.0, 1.0))
        f = parse(f"exp({c1!r}*x + {c0!r})")
        seg = PathSegment(float(rng.uniform(-1, 1)), float(rng.uniform(0.2, 1.8)))
        for n in (3, 9):
            res = integrate_certified(f, seg, fixed_n=n, mode="hypothesis")
            assert true_error(f, res) <= res.certificate * (1.0 + 1e-9)


def test_sup_mode_sound_and_not_smaller():
    f = parse("sin(4*x) + 0.25*pow(x,3)")
    seg = PathSegment(-0.5, 2.0)
    for n in (5, 17):
        hyp = integrate_certified(f, seg, fixed_n=n, mode="hypothesis")
        sup = integrate_certified(f, seg, fixed_n=n, mode="sup")
        assert sup.value == hyp.value
        assert true_error(f, sup) <= sup.certificate * (1.0 + 1e-9)
        assert sup.mode == "sup" and hyp.mode == "hypothesis"


@pytest.mark.parametrize("policy", [{"fixed_n": 4096}, {"target": 1e-9}])
def test_sup_certificate_does_not_depend_on_the_slice_size(monkeypatch, policy):
    # The node jets and the sup enclosures run in slices of EVAL_CHUNK
    # points; slices of 1000 and one run of the whole must give the same
    # report to the byte.
    f = parse("exp(x)*sin(3.03*x)+pow(x,6)")
    seg = PathSegment(0.0, 2.0)
    monkeypatch.setattr(expr, "EVAL_CHUNK", 1000)
    sliced = json.dumps(integrate_certified(f, seg, mode="sup", **policy).to_json())
    monkeypatch.setattr(expr, "EVAL_CHUNK", 1 << 30)
    whole = json.dumps(integrate_certified(f, seg, mode="sup", **policy).to_json())
    assert sliced == whole


# ROADMAP Defect 3's inputs, and a function whose first enclosure meets a
# spurious pole: x*x - x + 1 >= 3/4 on [0, 1], but its interval form over
# all of [0, 1] is [0, 2].
SUP_CORPUS = [
    ("exp(-200*x*x)", -3.0, 3.0, {"target": 1e-6}, [0.0]),
    ("exp(-100000000*(x-0.0123)*(x-0.0123))", -3.0, 3.0, {"target": 1e-6}, [0.0123]),
    ("1/(1+25*x*x)", -1.0, 1.0, {"target": 1e-6}, [0.0]),
    ("1/(1+25*x*x)", -1.0, 1.0, {"fixed_n": 2}, [0.0]),
    ("1/(x*x - x + 1)", 0.0, 1.0, {"target": 1e-8}, []),
    ("sin(4*x) + 0.25*pow(x,3)", -0.5, 2.0, {"fixed_n": 5}, []),
]


@pytest.mark.parametrize("source, lo, hi, policy, breaks", SUP_CORPUS)
def test_sup_certificate_bounds_the_mpmath_error(source, lo, hi, policy, breaks):
    mpmath = pytest.importorskip("mpmath")
    res = integrate_certified(parse(source), PathSegment(lo, hi - lo), mode="sup", **policy)
    names = {"exp": mpmath.exp, "sin": mpmath.sin, "pow": mpmath.power}
    with mpmath.workdps(30):
        exact = mpmath.quad(lambda x: eval(source, {"__builtins__": {}}, {**names, "x": x}),
                            [lo, *breaks, hi])
        assert abs(exact - res.value) <= res.certificate, (source, res.n, res.certificate)
    assert "target" not in policy or res.certificate <= policy["target"]


def test_sup_certifies_the_narrow_peak_the_samples_missed():
    # 33 samples per subinterval saw nothing of this peak and accepted n=1
    # with certificate 0; the whole integral, 1.77e-4, was the error.
    f = parse("exp(-100000000*(x-0.0123)*(x-0.0123))")
    res = integrate_certified(f, PathSegment(-3.0, 6.0), mode="sup", target=1e-6)
    assert res.n > 100 and res.certificate > 0.0
    assert abs(res.value - math.sqrt(math.pi) * 1e-4) <= res.certificate


def test_unbounded_sup_enclosure_is_bisected_or_refused(monkeypatch):
    seg = PathSegment(0.0, 1.0)
    spurious = parse("1/(x*x - x + 1)")
    with pytest.raises(DomainError, match="non-finite .* bound inf on subinterval"):
        integrate_certified(spurious, seg, mode="sup", fixed_n=1)
    assert math.isfinite(integrate_certified(spurious, seg, mode="sup", target=1e-8).certificate)
    # A true pole never resolves; the budget stops the bisection.
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", 64)
    with pytest.raises(BudgetError, match="has bound inf"):
        integrate_certified(parse("1/(x - 0.3)"), seg, mode="sup", target=1e-6)
    # An overflowed value is refused at once, under a target too.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="non-finite"):
            integrate_certified(parse("exp(800*x)"), seg, mode="sup", target=1e-6)
