"""Jets checked against an independent source: the grammar is a subset of
Python expression syntax, so ``eval`` of an expression's source with the
primitives bound to mpmath, differentiated by ``mpmath.diff`` at 40
digits, gives a reference for orders 0-3 that shares no code with the
parser or the jet rules."""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from etaquad import DomainError, parse  # noqa: E402

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
