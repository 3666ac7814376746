"""Jets and the quadrature oracle checked against an independent source:
the grammar is a subset of Python expression syntax, so ``eval`` of an
expression's source with the primitives bound to mpmath, differentiated by
``mpmath.diff`` at 40 digits or integrated by ``mpmath.quad``, gives a
reference that shares no code with the parser, the jet rules or the
oracle."""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from etaquad import DomainError, Interval, integrate, parse  # noqa: E402
from etaquad.interval import TRANSCENDENTAL_ULPS  # noqa: E402

from test_expr import CORPUS, SLICED, assert_sliced_matches_pieces  # noqa: E402

_NAMES = {
    "exp": mpmath.exp,
    "log": mpmath.log,
    "sin": mpmath.sin,
    "cos": mpmath.cos,
    "abs": abs,
    "pow": mpmath.power,
}


def _mp(source, v):
    return eval(source, {"__builtins__": {}}, {**_NAMES, "x": v, "t": v})


def reference_jet(source, x):
    with mpmath.workdps(40):
        return [mpmath.diff(lambda v: _mp(source, v), mpmath.mpf(x), k) for k in range(4)]


def _assert_jet_close(source, x, rel):
    j = parse(source).jet3(x)
    want = reference_jet(source, x)
    # Errors are measured against the largest jet component: an order
    # that cancels to near zero still carries the rounding of the others.
    scale = max(1.0, *(abs(float(w)) for w in want))
    for k, (got, w) in enumerate(zip((j.d0, j.d1, j.d2, j.d3), want)):
        assert abs(got - float(w)) <= rel * scale, (source, x, k, got, float(w))


@pytest.mark.parametrize("source,x", CORPUS)
def test_jets_match_mpmath(source, x):
    _assert_jet_close(source, x, rel=1e-13)


# Random expressions from the grammar.  Every node renders as an atom
# (parenthesised, a call, a name or an unsigned number), so a unary minus
# never meets another sign.  Each node also carries its guards: the
# arguments that must stay positive (log, fractional pow) or away from zero
# (divisors, abs, negative integer powers) for the point to be smooth.

_leaf = st.one_of(
    st.just(("x", ())),
    st.sampled_from(["0.5", "1.5", "2", "3", "0.25", "1e-1"]).map(lambda c: (c, ())),
)


def _grow(children):
    def binary(op):
        return st.tuples(children, children).map(
            lambda p: (f"({p[0][0]} {op} {p[1][0]})", p[0][1] + p[1][1])
        )

    def call(name, guard=None):
        return children.map(
            lambda c: (f"{name}({c[0]})", c[1] + (((guard, c[0]),) if guard else ()))
        )

    def power(exponents):
        def render(p):
            (src, guards), r = p
            if isinstance(r, float):
                guards += (("positive", src),)
            elif r < 0:
                guards += (("nonzero", src),)
            return f"pow({src}, {r})", guards

        return st.tuples(children, st.sampled_from(exponents)).map(render)

    return st.one_of(
        binary("+"),
        binary("-"),
        binary("*"),
        st.tuples(children, children).map(
            lambda p: (f"({p[0][0]} / {p[1][0]})", p[0][1] + p[1][1] + (("nonzero", p[1][0]),))
        ),
        children.map(lambda c: (f"(-{c[0]})", c[1])),
        call("exp"),
        call("sin"),
        call("cos"),
        call("log", "positive"),
        call("abs", "nonzero"),
        power([-2, -1, 0, 2, 3, 5]),
        power([0.5, 1.5, 2.5, -0.5]),
    )


expressions = st.recursive(_leaf, _grow, max_leaves=6)

# How far a guarded argument must stay from zero, in absolute terms.
MARGIN = 0.05


@hypothesis.settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.filter_too_much, hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(expressions, st.floats(-2.0, 2.0, allow_nan=False))
def test_random_expression_jets_match_mpmath(expr, x):
    source, guards = expr
    with mpmath.workdps(40):
        for kind, arg in guards:
            u = _mp(arg, mpmath.mpf(x))
            hypothesis.assume(u > MARGIN if kind == "positive" else abs(u) > MARGIN)
    try:
        j = parse(source).jet3(x)
    except DomainError:
        hypothesis.reject()
    hypothesis.assume(all(math.isfinite(c) for c in (j.d0, j.d1, j.d2, j.d3)))
    want = reference_jet(source, x)
    hypothesis.assume(all(mpmath.isfinite(w) and abs(w) < 1e300 for w in want))
    _assert_jet_close(source, x, rel=1e-9)


@hypothesis.settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(expressions, st.floats(-2.0, 2.0, allow_nan=False))
@hypothesis.example(("pow(x*x + 1, 2.5)", ()), -1.999)
def test_values_are_the_jets_d0_bit_for_bit(expr, x):
    # One tape loop and one primitive per operation serve both lanes, so
    # wherever a jet evaluates, the value is its d0 to the last bit; and a
    # float point runs as a one-point array, so its value and jet are entry
    # 0 of an array run to the last bit.
    f = parse(expr[0])
    points = x + np.linspace(0.0, 0.5, 5)
    points[0] = x  # x + 0.0 would turn -0.0 into 0.0
    runs = []
    for point in (x, points):
        try:
            jet = f.jet3(point)
        except DomainError:
            continue
        value = f.value(point)
        assert type(value) is type(jet.d0)
        assert np.asarray(value).tobytes() == np.asarray(jet.d0).tobytes(), (expr[0], point)
        runs.append([np.asarray(c).reshape(-1)[:1].tobytes()
                     for c in (value, jet.d0, jet.d1, jet.d2, jet.d3)])
    if len(runs) == 2:
        assert runs[0] == runs[1], (expr[0], x)


# A fractional pow of a positive base.  The grammar above seldom draws one
# that evaluates, and a last-bit difference between a float and an array
# run shows only at some points, so this strategy draws the primitive
# itself and the test reads it over many points.
_positive_bases = st.one_of(
    st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)).map(lambda p: f"{p[0]!r}*x*x + {p[1]!r}"),
    st.floats(-2.0, 2.0).map(lambda k: f"exp({k!r}*x)"),
    st.floats(1.5, 4.0).map(lambda c: f"{c!r} + sin(x)"),
)
fractional_pows = st.tuples(
    _positive_bases, st.floats(-4.0, 4.0).filter(lambda r: r != math.floor(r))
).map(lambda p: f"pow({p[0]}, {p[1]!r})")


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(fractional_pows, st.floats(-3.0, 3.0))
def test_fractional_pow_is_one_path_bit_for_bit(source, lo):
    f = parse(source)
    assert f.tape[-1][0] == "pow"
    points = lo + np.linspace(0.0, 2.0, 129)
    values, jet = f.value(points), f.jet3(points)
    assert values.tobytes() == jet.d0.tobytes(), source
    for i, x in enumerate(points.tolist()):
        one = f.jet3(x)
        got = [f.value(x), one.d0, one.d1, one.d2, one.d3]
        want = [c[i] for c in (values, jet.d0, jet.d1, jet.d2, jet.d3)]
        assert np.array(got).tobytes() == np.array(want).tobytes(), (source, x)


@hypothesis.settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(expressions, st.floats(-2.0, 2.0, allow_nan=False), st.booleans())
def test_sliced_runs_match_pieces_bit_for_bit(expr, x, jet):
    # An input with a point outside the domain is refused whole: nothing to compare.
    points = x + np.linspace(0.0, 0.5, SLICED)
    try:
        assert_sliced_matches_pieces(parse(expr[0]), points, jet)
    except DomainError:
        hypothesis.reject()


# Higham, Accuracy and Stability of Numerical Algorithms (2002), section 3.1:
# a product of n factors formed by any order of multiplications, so also
# x^n by repeated squaring, has relative error at most gamma_(n-1), and the
# reciprocal for a negative n adds one more rounding.
UNIT_ROUNDOFF = 2.0 ** -53


@pytest.mark.parametrize("n", [2, 3, 5, 7, 16, 31, -1, -2, -3, -8])
def test_integer_power_within_highams_bound(n):
    roundings = abs(n) - 1 + (n < 0)
    gamma = roundings * UNIT_ROUNDOFF / (1.0 - roundings * UNIT_ROUNDOFF)
    xs = np.random.default_rng(abs(n)).uniform(0.3, 3.0, 200) * np.resize([1.0, -1.0], 200)
    f = parse(f"pow(x, {n})")
    values = f.value(xs)
    assert values.tobytes() == f.jet3(xs).d0.tobytes()
    assert [f.value(x) for x in xs[:20]] == values[:20].tolist()
    with mpmath.workdps(40):
        for x, got in zip(xs.tolist(), values.tolist()):
            exact = mpmath.mpf(x) ** n
            assert abs(got - exact) <= gamma * abs(exact), (n, x, got)


# ---------------------------------------------------------------------------
# The interval lane against mpmath's interval arithmetic (mpmath.iv), which
# rounds outward at a precision far above double.

_IV_PREC = 120


def _ulps_off(got: float, exact) -> float:
    return float(abs(mpmath.mpf(got) - exact) / mpmath.mpf(float(np.spacing(abs(got)))))


def test_numpy_transcendentals_are_within_the_interval_widening():
    # enclose3 widens numpy's exp, log, sin, cos and power by
    # TRANSCENDENTAL_ULPS ulps each way; numpy must be at least that close.
    rng = np.random.default_rng(11)
    cases = {
        "exp": (np.exp, mpmath.exp, np.concatenate([rng.uniform(-700, 700, 300), rng.uniform(-3, 3, 300)])),
        "log": (np.log, mpmath.log, np.exp(rng.uniform(-700, 700, 600))),
        "sin": (np.sin, mpmath.sin, np.concatenate([rng.uniform(-10, 10, 400), rng.uniform(-1e8, 1e8, 200)])),
        "cos": (np.cos, mpmath.cos, np.concatenate([rng.uniform(-10, 10, 400), rng.uniform(-1e8, 1e8, 200)])),
    }
    with mpmath.workprec(_IV_PREC):
        for name, (ours, ref, xs) in cases.items():
            worst = max(_ulps_off(float(g), ref(mpmath.mpf(float(x)))) for g, x in zip(ours(xs), xs))
            assert worst <= TRANSCENDENTAL_ULPS, (name, worst)
        bases, exponents = np.exp(rng.uniform(-30, 30, 400)), rng.uniform(-4, 4, 400)
        worst = max(_ulps_off(float(g), mpmath.power(mpmath.mpf(float(b)), mpmath.mpf(float(p))))
                    for g, b, p in zip(np.power(bases, exponents), bases, exponents))
        assert worst <= TRANSCENDENTAL_ULPS, ("power", worst)


def _draw(rng, n, center, spread, width):
    """n intervals of widths up to ``width`` near ``center``; a tenth are points."""
    mid = center + rng.uniform(-spread, spread, n)
    half = width * rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.1)
    return mid - half, mid + half


_SAMPLES = {  # (center, spread, width) of the argument intervals
    "small": (0.0, 3.0, 1e-6),
    "wide": (0.0, 10.0, 4.0),
    "positive": (3.0, 2.9, 0.05),
    "large": (1e6, 1e3, 1.0),
}
# Each primitive: its Interval form, its mpmath.iv form, and where it is
# defined (argument intervals that leave the domain are not compared).
_PRIMITIVES = {
    "add": (lambda x, y: x + y, lambda x, y: x + y, None),
    "sub": (lambda x, y: x - y, lambda x, y: x - y, None),
    "mul": (lambda x, y: x * y, lambda x, y: x * y, None),
    "div": (lambda x, y: x / y, lambda x, y: x / y, "y nonzero"),
    "square": (lambda x, y: x * x, lambda x, y: x ** 2, None),
    "neg": (lambda x, y: -x, lambda x, y: -x, None),
    "scale": (lambda x, y: -3.0 * x, lambda x, y: -3 * x, None),
    "shift": (lambda x, y: 0.1 - x, lambda x, y: mpmath.iv.mpf(0.1) - x, None),
    "reciprocal": (lambda x, y: 1.0 / x, lambda x, y: 1 / x, "x nonzero"),
    "abs": (lambda x, y: np.abs(x), lambda x, y: abs(x), None),
    "exp": (lambda x, y: np.exp(x), lambda x, y: mpmath.iv.exp(x), None),
    "log": (lambda x, y: np.log(x), lambda x, y: mpmath.iv.log(x), "x positive"),
    "sin": (lambda x, y: np.sin(x), lambda x, y: mpmath.iv.sin(x), None),
    "cos": (lambda x, y: np.cos(x), lambda x, y: mpmath.iv.cos(x), None),
    "pow": (lambda x, y: x ** Interval.point(2.5), lambda x, y: x ** mpmath.iv.mpf(2.5), "x positive"),
    "pow interval exponent": (lambda x, y: x ** (Interval.point(0.7) - 1.0),
                              lambda x, y: x ** (mpmath.iv.mpf(0.7) - 1), "x positive"),
}


@pytest.mark.parametrize("sample", _SAMPLES)
@pytest.mark.parametrize("name", _PRIMITIVES)
def test_interval_primitives_enclose_mpmath_iv(name, sample):
    ours, ref, domain = _PRIMITIVES[name]
    rng = np.random.default_rng(len(name) * 7 + len(sample))
    x, y = _draw(rng, 150, *_SAMPLES[sample]), _draw(rng, 150, *_SAMPLES[sample])
    keep = np.ones(150, bool)
    if domain is not None:
        lo, hi = x if domain[0] == "x" else y
        keep = (lo > 0.0) | ((hi < 0.0) & domain.endswith("nonzero"))
    with np.errstate(all="ignore"):
        got = ours(Interval(np.stack(x)), Interval(np.stack(y)))
    iv, saved = mpmath.iv, mpmath.iv.prec
    iv.prec = _IV_PREC
    try:
        with mpmath.workprec(_IV_PREC):
            for k in np.flatnonzero(keep):
                want = ref(iv.mpf([x[0][k], x[1][k]]), iv.mpf([y[0][k], y[1][k]]))
                lo, hi = (mpmath.mpf(v) for v in want._mpi_)
                g_lo, g_hi = mpmath.mpf(float(got.lo[k])), mpmath.mpf(float(got.hi[k]))
                assert g_lo <= lo and hi <= g_hi, (name, k, got.lo[k], got.hi[k], want)
                # ... and, short of overflow, no wider than a few roundings outside it.
                scale = max(abs(lo), abs(hi))
                if scale < 1e300:
                    slack = 1e-13 * scale + mpmath.mpf(2) ** -1000
                    assert g_hi - g_lo <= hi - lo + slack, (name, k, got.lo[k], got.hi[k], want)
    finally:
        iv.prec = saved


# k*pi/2 for the k below lies between two adjacent floats that an extremum
# test without a rounding margin finds on the wrong side (4j + 1 for
# j = 276891204045371, found by search).
@pytest.mark.parametrize("k", [1, 2, 3, 1000, 12345, 10 ** 6, 10 ** 12 + 1, 1107564816181485])
def test_sin_and_cos_find_extrema_next_to_the_interval_ends(k):
    # Intervals that end an ulp or so before, at, or after the float
    # nearest k*pi/2 must take +-1 whenever the true extremum may be inside.
    with mpmath.workprec(200):
        x0 = float(k * mpmath.pi / 2)
    ends = [np.nextafter(x0, -math.inf), x0, np.nextafter(x0, math.inf)]
    lo = np.array([e - 1e-3 for e in ends] + ends[:2] + ends)
    hi = np.array(ends + ends[1:] + [e + 1e-3 for e in ends])
    iv, saved = mpmath.iv, mpmath.iv.prec
    iv.prec = _IV_PREC
    try:
        for fn, ref in ((np.sin, iv.sin), (np.cos, iv.cos)):
            got = fn(Interval(np.stack((lo, hi))))
            for j in range(lo.size):
                want = ref(iv.mpf([lo[j], hi[j]]))
                w_lo, w_hi = (mpmath.mpf(v) for v in want._mpi_)
                assert got.lo[j] <= w_lo and w_hi <= got.hi[j], (fn, k, j, lo[j], hi[j])
    finally:
        iv.prec = saved


@hypothesis.settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(expressions, st.floats(-2.0, 2.0, allow_nan=False),
                  st.sampled_from([0.0, 1e-9, 1e-4, 0.01, 0.3]))
def test_random_expression_enclosures_hold_the_point_jets(expr, lo, width):
    # The interval lane runs the jet lane's operations on intervals and
    # rounds each outward, so the enclosure over [lo, hi] holds the jet
    # computed at any point inside, rounding and all.
    f = parse(expr[0])
    hi = lo + width
    enc = f.enclose3(lo, hi)
    bounds = [(c.lo, c.hi) for c in (enc.d0, enc.d1, enc.d2, enc.d3)]
    assert not any(math.isnan(v) for pair in bounds for v in pair), (expr[0], lo, hi, bounds)
    for x in np.linspace(lo, hi, 9).tolist():
        try:
            j = f.jet3(x)
        except DomainError:
            continue
        for (c_lo, c_hi), v in zip(bounds, (j.d0, j.d1, j.d2, j.d3)):
            assert math.isnan(v) or c_lo <= v <= c_hi, (expr[0], lo, hi, x, bounds)


@pytest.mark.parametrize("r", [0.1, -0.3, 2.7, -2.5])
def test_fractional_pow_enclosures_hold_the_exact_derivatives(r):
    # d^k/dx^k x^r = r (r-1) ... (r-k+1) x^(r-k).  At x = 1e100 a rounded
    # exponent r - k would be off by dozens of ulps, so the exponents and
    # the coefficients must be enclosed too.
    xs = np.array([1e-100, 0.5, 3.0, 1e100])
    enc = parse(f"pow(x, {r!r})").enclose3(xs, xs * (1.0 + 2.0 ** -40))
    with mpmath.workprec(_IV_PREC):
        for i, x in enumerate(xs.tolist()):
            for k, c in enumerate((enc.d0, enc.d1, enc.d2, enc.d3)):
                coef = mpmath.fprod(mpmath.mpf(r) - j for j in range(k))
                at_lo = coef * mpmath.mpf(x) ** (mpmath.mpf(r) - k)
                assert c.lo[i] <= at_lo <= c.hi[i], (r, x, k, c.lo[i], c.hi[i], at_lo)


# --- the quadrature oracle against mpmath.quad -------------------------------

EPS = 2.0 ** -52


def _assert_oracle_close(source, lo, hi, tol, points=()):
    """|integrate - mpmath.quad| <= tol + 64*eps*integral of |f|."""
    got, _ = integrate(parse(source).value, lo, hi, tol=tol)
    nodes = [lo, *points, hi]
    with mpmath.workdps(30):
        want = mpmath.quad(lambda v: _mp(source, v), nodes)
        size = mpmath.quad(lambda v: abs(_mp(source, v)), nodes)
    assert abs(got - float(want)) <= tol + 64.0 * EPS * float(size), (source, lo, hi, got, want)


@pytest.mark.parametrize(
    "source,lo,hi,points",
    [("abs(2*x-1)", 0.0, 1.0, (0.5,)), ("1/(1+25*x*x)", -1.0, 1.0, ())],
    ids=["kink", "runge"],
)
def test_oracle_matches_mpmath_quad(source, lo, hi, points):
    _assert_oracle_close(source, lo, hi, 1e-12, points)


@hypothesis.settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.filter_too_much, hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(expressions, st.floats(-2.0, 2.0, allow_nan=False),
                  st.sampled_from([1e-3, 0.1, 0.5, 1.0, 2.0]))
def test_random_expression_integrals_match_mpmath_quad(expr, lo, width):
    # The guards hold on a grid of the segment, so the integrand is smooth
    # and of moderate size there; the tolerance scales with its size.
    source, guards = expr
    hi = lo + width
    grid = np.linspace(lo, hi, 65)
    try:
        values = parse(source).value(grid)
        for kind, arg in guards:
            u = parse(arg).value(grid)
            hypothesis.assume(np.all(u > MARGIN if kind == "positive" else np.abs(u) > MARGIN))
    except DomainError:
        hypothesis.reject()
    hypothesis.assume(np.all(np.abs(values) < 1e3))
    tol = 1e-11 * max(1.0, float(np.abs(values).max()))
    _assert_oracle_close(source, lo, hi, tol)
