"""Parser and jet arithmetic, checked against hand values and a
finite-difference oracle that shares no code with the jet rules."""

import math
import warnings

import numpy as np
import pytest

from etaquad import DomainError, Interval, Jet3, ParseError, parse
from etaquad.expr import EVAL_CHUNK


def fd_jet(fn, x):
    """Richardson-extrapolated central differences, orders 0..3.

    Step sizes are tuned per order: third differences divide by h^3, so
    they need a much larger base step than first differences before
    roundoff eats the quotient.
    """

    def d1(h):
        return (fn(x + h) - fn(x - h)) / (2.0 * h)

    def d2(h):
        return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / h ** 2

    def d3(h):
        return (fn(x + 2 * h) - 2.0 * fn(x + h) + 2.0 * fn(x - h) - fn(x - 2 * h)) / (
            2.0 * h ** 3
        )

    def rich(g, h):
        return (4.0 * g(h / 2) - g(h)) / 3.0

    def rich2(g, h):
        return (16.0 * rich(g, h / 2) - rich(g, h)) / 15.0

    return fn(x), rich(d1, 1e-4), rich(d2, 1e-3), rich2(d3, 2e-2)


# --- parsing ---------------------------------------------------------------


def test_numbers_and_precedence():
    assert parse("2+3*4").value(0.0) == 14.0
    assert parse("(2+3)*4").value(0.0) == 20.0
    assert parse("7-4-2").value(0.0) == 1.0
    assert parse("8/4/2").value(0.0) == 1.0
    assert parse("2.5e2").value(0.0) == 250.0
    assert parse(".5").value(0.0) == 0.5
    assert parse("-3").value(0.0) == -3.0
    assert parse("1 - -3").value(0.0) == 4.0


def test_x_and_t_are_the_same_variable():
    assert parse("x*x").value(3.0) == 9.0
    assert parse("t*t").value(3.0) == 9.0
    assert parse("x*t").value(3.0) == 9.0


def test_pow_examples():
    assert parse("pow(x,4)").value(2.0) == 16.0
    assert parse("pow(x, 1+1)").value(3.0) == 9.0  # constant exponent folds
    assert parse("pow(x, -2)").value(2.0) == 0.25
    assert parse("pow(x, 0)").value(5.0) == 1.0
    assert parse("pow(x, 2.5)").value(4.0) == 32.0


def test_kernel_weight_value():
    assert parse("t*(1-t)*(2*t-1)").value(0.25) == -0.09375


@pytest.mark.parametrize(
    "text,pos",
    [
        ("2x", 1),
        ("2 x", 2),
        ("(x)(x)", 3),
        ("x 3", 2),
    ],
)
def test_implicit_multiplication_rejected(text, pos):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == pos
    assert "implicit multiplication" in err.value.message


@pytest.mark.parametrize(
    "text",
    [
        "",
        "y",
        "foo(x)",
        "x(3)",
        "abs(x, 1)",
        "pow(x)",
        "(x",
        "x +",
        "1 # 2",
        "pow(x, x)",
        "pow(x, sin(x))",
        "x ** 2",
        "--x",
        "x )",
        "exp x",
        "exp(x",
    ],
)
def test_rejected_inputs(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("sin(x) + foo(x)")
    assert err.value.position == 9
    with pytest.raises(ParseError) as err:
        parse("pow(x, x)")
    assert err.value.position == 7


def test_tape_is_postfix_and_drops_the_pow_exponent():
    assert parse("2*x - 1").tape == (
        ("const", 2.0), ("var", None), ("mul", None), ("const", 1.0), ("sub", None)
    )
    # The var-free exponent is evaluated at parse time; an integer one
    # selects repeated squaring for jets.
    assert parse("pow(x, 1+1)").tape == (("var", None), ("powi", 2))
    assert parse("pow(-x, 0.5*3)").tape == (("var", None), ("neg", None), ("pow", 1.5))


# --- value evaluation ------------------------------------------------------


def test_vectorised_matches_scalar():
    # A float runs as a one-point array: its value has an entry's bits.
    f = parse("exp(x)*sin(2*x) + pow(x,3)/(1+x*x) + pow(x*x+1,3.7)")
    xs = np.linspace(-2.0, 2.0, 37)
    vec = f.value(xs)
    assert vec.shape == xs.shape
    for i, x in enumerate(xs):
        assert vec[i] == f.value(float(x))


def test_constant_broadcasts_to_input_shape():
    f = parse("3")
    xs = np.linspace(0.0, 1.0, 8)
    out = f.value(xs)
    assert out.shape == xs.shape
    assert np.all(out == 3.0)


def test_scalar_returns_python_float():
    v = parse("exp(x)").value(1.0)
    assert type(v) is float
    j = parse("exp(x)").jet3(1.0)
    assert all(type(c) is float for c in (j.d0, j.d1, j.d2, j.d3))


def test_value_domain_errors():
    with pytest.raises(DomainError):
        parse("log(x)").value(-1.0)
    with pytest.raises(DomainError):
        parse("1/x").value(0.0)
    with pytest.raises(DomainError):
        parse("pow(x, 0.5)").value(-4.0)
    with pytest.raises(DomainError):
        parse("pow(x, -2)").value(0.0)
    # abs values are fine at the kink; only jets refuse
    assert parse("abs(x)").value(0.0) == 0.0


def test_overflow_gives_inf_and_nan_without_warnings():
    f = parse("exp(800*x)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.value(1.0) == math.inf
        j = f.jet3(np.array([0.0, 1.0]))
    assert j.d0[1] == math.inf
    assert math.isnan(j.d2[1])  # inf * 0 inside the chain rule
    assert np.isfinite([j.d0[0], j.d1[0], j.d2[0], j.d3[0]]).all()


def test_scalar_integer_power_overflows_to_inf():
    # A Python float ** int raises OverflowError; the value must be the
    # one numpy gives for an array, and finite powers keep every bit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse("pow(x,400)").value(10.0) == math.inf
        assert parse("pow(x,401)").value(-10.0) == -math.inf
        assert parse("pow(x,-400)").value(1e-10) == math.inf
    assert parse("pow(x,400)").value(np.array([10.0]))[0] == math.inf
    assert parse("pow(x,7)").value(1.1) == 1.1 ** 7
    assert type(parse("pow(x,400)").value(10.0)) is float


def test_python_int_x_runs_in_float_arithmetic():
    # Integer arithmetic would raise OverflowError where a float gives inf.
    f = parse("pow(x,400)")
    assert f.value(10) == math.inf
    assert f.jet3(10).d0 == math.inf
    assert type(f.value(3)) is float and f.value(3) == f.value(3.0)


# Integer powers run one repeated-squaring routine on both lanes; each case
# is checked on the value and on the jet's d0, for a scalar and an array,
# with every warning turned into an error.
SCALAR_AND_ARRAY = pytest.mark.parametrize("shape", [None, (3,)], ids=["scalar", "array"])


def _at(x, shape):
    return x if shape is None else np.full(shape, x)


def _both_lanes(source, x):
    f = parse(source)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f.value(x), f.jet3(x).d0


@SCALAR_AND_ARRAY
@pytest.mark.parametrize("x", [2.0, -0.5, 0.0])
def test_integer_power_zero_is_one(shape, x):
    for got in _both_lanes("pow(x, 0)", _at(x, shape)):
        assert np.array_equal(got, _at(1.0, shape))
    j = parse("pow(x, 0)").jet3(_at(x, shape))
    assert all(np.array_equal(d, _at(0.0, shape)) for d in (j.d1, j.d2, j.d3))


@SCALAR_AND_ARRAY
@pytest.mark.parametrize("source,x,want", [
    ("pow(x, -1)", 4.0, 0.25),
    ("pow(x, -3)", 2.0, 0.125),
    ("pow(x, -3)", -0.5, -8.0),
    ("pow(x, -6)", 0.5, 64.0),
])
def test_integer_power_negative_is_reciprocal(shape, source, x, want):
    for got in _both_lanes(source, _at(x, shape)):
        assert np.array_equal(got, _at(want, shape))


@SCALAR_AND_ARRAY
@pytest.mark.parametrize("n", [-1, -2, -5])
def test_integer_power_zero_base_refused(shape, n):
    f = parse(f"pow(x, {n})")
    x = 0.0 if shape is None else np.array([1.0, 0.0, 2.0])
    with pytest.raises(DomainError, match="zero base with negative exponent"):
        f.value(x)
    with pytest.raises(DomainError, match="zero base with negative exponent"):
        f.jet3(x)


@SCALAR_AND_ARRAY
@pytest.mark.parametrize("source,x,want", [
    ("pow(x, 400)", 10.0, math.inf),
    ("pow(x, 401)", -10.0, -math.inf),
    ("pow(x, 1025)", 2.0, math.inf),
    ("pow(x, 3)", 1e200, math.inf),
])
def test_integer_power_overflows_to_inf(shape, source, x, want):
    for got in _both_lanes(source, _at(x, shape)):
        assert np.array_equal(got, _at(want, shape))


@SCALAR_AND_ARRAY
def test_integer_power_tiny_base_negative_exponent(shape):
    # The value lane divides by an underflowed zero and gives +inf; the
    # jet lane's quotient rule refuses the zero divisor.
    f = parse("pow(x, -400)")
    x = _at(1e-10, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(f.value(x), _at(math.inf, shape))
    with pytest.raises(DomainError, match="division by zero"):
        f.jet3(x)


def test_fractional_power_of_a_scalar_overflows_to_inf():
    # x^(r-3) overflows in the third derivative; a Python float power
    # would raise OverflowError where the array lane gives inf.
    x = 7.440868092319454e-106
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = parse("pow(x, -0.5)").jet3(x)
        assert j.d3 == -math.inf and type(j.d3) is float
        assert j.d0 == parse("pow(x, -0.5)").jet3(np.array([x])).d0[0]


@pytest.mark.parametrize("exponent", ["pow(10, 400.5)", "exp(1000)", "1e400", "exp(800) - exp(800)"])
def test_non_finite_pow_exponent_is_refused(exponent):
    with pytest.raises(ParseError, match="invalid pow exponent: (inf|nan) is not finite"):
        parse(f"pow(x, {exponent})")


def test_vectorised_domain_error_if_any_point_bad():
    f = parse("log(x)")
    with pytest.raises(DomainError):
        f.value(np.array([0.5, 2.0, -1.0]))


# --- jets ------------------------------------------------------------------


def test_sin_jet_anchor():
    j = parse("sin(x)").jet3(0.7)
    assert j.d0 == pytest.approx(0.644217687237691, abs=1e-15)
    assert j.d1 == pytest.approx(0.7648421872844885, abs=1e-15)
    assert j.d2 == pytest.approx(-0.644217687237691, abs=1e-15)
    assert j.d3 == pytest.approx(-0.7648421872844885, abs=1e-15)


def test_monomial_jet():
    j = parse("pow(x,4)").jet3(1.0)
    assert (j.d0, j.d1, j.d2, j.d3) == (1.0, 4.0, 12.0, 24.0)
    j0 = parse("pow(x,4)").jet3(0.0)
    assert (j0.d0, j0.d1, j0.d2, j0.d3) == (0.0, 0.0, 0.0, 0.0)


def test_exp_jet_all_orders_equal():
    j = parse("exp(x)").jet3(1.3)
    e = math.exp(1.3)
    for c in (j.d0, j.d1, j.d2, j.d3):
        assert c == pytest.approx(e, rel=1e-15)


CORPUS = [
    ("pow(x,6) - 3*pow(x,4) + x", 1.1),
    ("exp(2*x)*sin(3*x)", 0.4),
    ("1/(1+x*x)", 0.8),
    ("exp(x)", -1.2),
    ("sin(3*x)*x*x", 1.5),
    ("log(x)*cos(2*x)", 2.2),
    ("cos(x)/(2+sin(x))", 0.9),
    ("pow(x, 2.5)*exp(-x)", 1.7),
    ("pow(2+sin(x), -3)", 0.6),
    ("exp(cos(x))", 2.0),
]


@pytest.mark.parametrize("source,x", CORPUS)
def test_jets_match_finite_differences(source, x):
    f = parse(source)
    j = f.jet3(x)
    fd = fd_jet(f.value, x)
    for got, want in zip((j.d0, j.d1, j.d2, j.d3), fd):
        assert got == pytest.approx(want, abs=1e-5 * max(1.0, abs(want)))


def test_quotient_jet_exact():
    # 1/(1+x^2) has closed-form derivatives; check at x=1
    j = parse("1/(1+x*x)").jet3(1.0)
    assert j.d0 == pytest.approx(0.5, rel=1e-15)
    assert j.d1 == pytest.approx(-0.5, rel=1e-14)
    assert j.d2 == pytest.approx(0.5, rel=1e-14)
    assert j.d3 == pytest.approx(0.0, abs=1e-14)


def test_abs_jet_forwards_sign():
    j = parse("abs(x)").jet3(-0.5)
    assert (j.d0, j.d1, j.d2, j.d3) == (0.5, -1.0, 0.0, 0.0)
    j = parse("2*abs(sin(x))").jet3(2.0)  # sin(2) > 0
    s = parse("2*sin(x)").jet3(2.0)
    assert j.d0 == pytest.approx(s.d0)
    assert j.d3 == pytest.approx(s.d3)


def test_abs_jet_refuses_kink():
    with pytest.raises(DomainError):
        parse("abs(x)").jet3(0.0)
    with pytest.raises(DomainError):
        parse("abs(x)").jet3(5e-13)
    with pytest.raises(DomainError):
        parse("abs(x)").jet3(np.array([1.0, 1e-13]))
    # just outside the guard is fine
    assert parse("abs(x)").jet3(1e-11).d1 == 1.0


def test_fractional_pow_jet_domain():
    with pytest.raises(DomainError):
        parse("pow(x, 2.5)").jet3(-1.0)
    with pytest.raises(DomainError):
        parse("pow(x, 2.5)").jet3(0.0)


def test_negative_int_pow_jet():
    j = parse("pow(x, -2)").jet3(2.0)
    assert j.d0 == pytest.approx(0.25, rel=1e-15)
    assert j.d1 == pytest.approx(-2.0 * 2.0 ** -3, rel=1e-14)
    assert j.d2 == pytest.approx(6.0 * 2.0 ** -4, rel=1e-14)
    assert j.d3 == pytest.approx(-24.0 * 2.0 ** -5, rel=1e-14)


def test_vectorised_jets_match_scalar():
    f = parse("exp(x)*cos(2*x) + pow(x,5)")
    xs = np.linspace(-1.5, 1.5, 23)
    jv = f.jet3(xs)
    assert jv.d3.shape == xs.shape
    for i, x in enumerate(xs):
        js = f.jet3(float(x))
        assert jv.d0[i] == pytest.approx(js.d0, rel=1e-15, abs=1e-15)
        assert jv.d3[i] == pytest.approx(js.d3, rel=1e-13, abs=1e-13)


def test_jet3_algebra_helpers():
    a = Jet3.variable(2.0)
    b = (a * a + 1.0) / a  # (x^2+1)/x at 2: 2.5, d1 = 1 - 1/x^2 = 0.75
    assert b.d0 == pytest.approx(2.5)
    assert b.d1 == pytest.approx(0.75)
    c = 1.0 - a
    assert (c.d0, c.d1) == (-1.0, -1.0)
    with pytest.raises(DomainError):
        a / Jet3.constant(0.0)



# --- named parameters --------------------------------------------------------


def test_parameter_names_become_param_entries():
    f = parse("c*exp(lam*x)", ("c", "lam"))
    assert f.params == ("c", "lam")
    assert f.tape == (
        ("param", 0), ("param", 1), ("var", None), ("mul", None), ("exp", None), ("mul", None),
    )
    assert f.value(0.5, c=2.0, lam=-1.0) == 2.0 * math.exp(-0.5)


@pytest.mark.parametrize("name", ["x", "t", "exp", "log", "sin", "cos", "abs", "pow"])
def test_parameter_name_clashing_with_the_language_is_refused(name):
    with pytest.raises(ParseError, match="taken by the language"):
        parse("x", (name,))


@pytest.mark.parametrize("names", [("1c",), ("c d",), ("",), ("c", "c")])
def test_malformed_or_repeated_parameter_names_are_refused(names):
    with pytest.raises(ParseError):
        parse("x", names)


def test_parameter_is_no_function_and_no_pow_exponent():
    with pytest.raises(ParseError, match="'c' is not a function"):
        parse("c(x)", ("c",))
    with pytest.raises(ParseError, match="exponent must be a constant"):
        parse("pow(x, k)", ("k",))
    with pytest.raises(ParseError, match="unknown identifier 'c'"):
        parse("c*x")


def test_parameters_must_all_be_bound():
    f = parse("a*x + b", ("a", "b"))
    with pytest.raises(TypeError, match=r"\['a', 'b'\]"):
        f.value(1.0, a=1.0)
    with pytest.raises(TypeError):
        f.jet3(1.0, a=1.0, b=2.0, c=3.0)


def test_parameter_arrays_broadcast_against_x():
    # One row per draw, the draw's points along the last axis.
    f = parse("c*sin(w*x)", ("c", "w"))
    c = np.array([[1.0], [-2.0], [0.5]])
    w = np.array([[1.0], [3.0], [0.25]])
    x = np.linspace(-1.0, 1.0, 5)
    values = f.value(x, c=c, w=w)
    jets = f.jet3(x, c=c, w=w)
    assert values.shape == jets.d3.shape == (3, 5)
    for k in range(3):
        one = parse(f"{c[k, 0]}*sin({w[k, 0]}*x)")
        assert np.array_equal(values[k], one.value(x))
        assert np.array_equal(jets.d3[k], one.jet3(x).d3)
    # Scalar x with parameter arrays takes the arrays' shape.
    assert f.value(0.5, c=c[:, 0], w=w[:, 0]).shape == (3,)


def test_negative_literal_is_one_constant():
    assert parse("-1.5").tape == (("const", -1.5),)
    assert parse("(-2)*x").tape == (("const", -2.0), ("var", None), ("mul", None))
    assert parse("-(2)").tape == (("const", 2.0), ("neg", None))
    # Its jet has zero derivatives of positive sign, as a parameter's does.
    j = parse("(-1.5)*x").jet3(np.array([0.0, 1.0]))
    assert np.signbit(j.d2).tolist() == [False, False]


# --- sliced evaluation -----------------------------------------------------
# Inputs of more than EVAL_CHUNK points run the tape slice by slice; the
# reference runs each piece below that size as one call.

SLICED = 3 * EVAL_CHUNK + 5


def _components(f, x, jet, **params):
    """The value, the jet, or (for jet="interval") the enclosures over
    [x, x + 1/64] as their lo and hi arrays."""
    if jet == "interval":
        out = f.enclose3(x, x + 0.015625, **params)
        return tuple(r for c in (out.d0, out.d1, out.d2, out.d3) for r in (c.lo, c.hi))
    out = f.jet3(x, **params) if jet else f.value(x, **params)
    return (out.d0, out.d1, out.d2, out.d3) if jet else (out,)


def assert_sliced_matches_pieces(f, x, jet, **params):
    """Whole-input results equal, bit for bit, the concatenation of runs on
    pieces of EVAL_CHUNK - 1 points."""
    whole = _components(f, x, jet, **params)
    step = EVAL_CHUNK - 1
    pieces = [_components(f, x[i : i + step], jet, **params) for i in range(0, x.size, step)]
    for k, got in enumerate(whole):
        assert got.tobytes() == np.concatenate([p[k] for p in pieces]).tobytes(), (f, jet, k)


@pytest.mark.parametrize("source,x0", CORPUS + [("3", 0.0), ("abs(x-0.3)", 0.0)])
@pytest.mark.parametrize("jet", [False, True, "interval"])
def test_sliced_evaluation_matches_pieces(source, x0, jet):
    x = x0 + np.linspace(0.05, 0.5, SLICED)
    assert_sliced_matches_pieces(parse(source), x, jet)


def test_sliced_parameter_grid_matches_rows():
    # The (trials x grid) jet of the harness: column parameters broadcast
    # against path points, 150 * 65 points in all.
    f = parse("c*exp(lam*x)*sin(w*x)+pow(x,6)", ("c", "lam", "w"))
    rng = np.random.default_rng(3)
    b, h = rng.uniform(-1.0, 0.0, (150, 1)), rng.uniform(0.5, 2.0, (150, 1))
    params = {k: rng.uniform(0.5, 3.0, (150, 1)) for k in f.params}
    path = b + np.linspace(0.0, 1.0, 65) * h
    assert path.size > EVAL_CHUNK
    values = f.value(path, **params)
    jets = f.jet3(path, **params)
    for k in range(150):
        row = {name: v[k] for name, v in params.items()}
        assert values[k].tobytes() == f.value(path[k], **row).tobytes()
        one = f.jet3(path[k], **row)
        for got, want in zip((jets.d0, jets.d1, jets.d2, jets.d3), (one.d0, one.d1, one.d2, one.d3)):
            assert got[k].tobytes() == want.tobytes()
    boxes = _components(f, path, "interval", **params)
    for k in range(0, 150, 7):
        row = {name: v[k] for name, v in params.items()}
        for got, want in zip(boxes, _components(f, path[k], "interval", **row)):
            assert got[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("jet", [False, True, "interval"])
def test_sliced_non_contiguous_input_matches_rows(jet):
    f = parse("exp(x)*sin(3.03*x)+log(2+x)/(1+x*x)")
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (400, 200))[:, ::2]
    assert not x.flags.c_contiguous and x.size > EVAL_CHUNK
    whole = _components(f, x, jet)
    rows = [_components(f, x[k], jet) for k in range(x.shape[0])]
    for c, got in enumerate(whole):
        assert got.tobytes() == np.stack([r[c] for r in rows]).tobytes()
    for c, got in enumerate(_components(f, x.T, jet)):
        assert got.tobytes() == whole[c].T.tobytes()


@pytest.mark.parametrize("source", ["exp(x)*sin(x)", "3", "c*x"])
def test_sliced_outputs_are_read_only_float_arrays_of_the_broadcast_shape(source):
    f = parse(source, ("c",) if "c" in source else ())
    params = {"c": np.arange(3.0).reshape(3, 1)} if f.params else {}
    for x in (np.linspace(0.0, 1.0, SLICED), np.arange(SLICED)):
        shape = (3, SLICED) if f.params else (SLICED,)
        for out in (f.value(x, **params), *_components(f, x, True, **params),
                    *_components(f, x, "interval", **params)):
            assert out.shape == shape and out.dtype == np.float64
            assert not out.flags.writeable


@pytest.mark.parametrize(
    "source,bad,jet",
    [("log(x)", 0.0, False), ("log(x)", -1.0, True), ("1/x", 0.0, False), ("1/x", 0.0, True),
     ("abs(x)", 0.0, True)],
)
def test_sliced_domain_error_in_the_last_slice(source, bad, jet):
    x = np.linspace(1.0, 2.0, SLICED)
    x[-1] = bad
    assert x.size - 1 >= 3 * EVAL_CHUNK  # the bad point is alone in the last slice
    with pytest.raises(DomainError):
        _components(parse(source), x, jet)


# ---------------------------------------------------------------------------
# The interval lane: enclose3.


@pytest.mark.parametrize(
    "source,lo,hi",
    [("1/x", -1.0, 1.0), ("1/(x-0.5)", 0.0, 1.0), ("log(x)", -1.0, 1.0), ("log(x)", 0.0, 1.0),
     ("pow(x, 0.5)", -1.0, 1.0), ("pow(x, -2)", -0.5, 0.5), ("abs(x)", -1.0, 1.0),
     ("exp(x)*log(x - 0.25)", 0.0, 1.0)],
)
def test_enclosure_meeting_a_domain_edge_is_the_whole_line(source, lo, hi):
    f = parse(source)
    enc = f.enclose3(np.array([lo, 2.0]), np.array([hi, 3.0]))
    for c in (enc.d0, enc.d1, enc.d2, enc.d3):
        assert (c.lo[0], c.hi[0]) == (-math.inf, math.inf), source
        assert np.isfinite(c.lo[1]) and np.isfinite(c.hi[1]), source  # [2, 3] is inside the domain


def test_enclosure_of_a_point_holds_its_jet():
    f = parse("exp(x)*sin(3.03*x)+pow(x,6)")
    x = np.linspace(-1.0, 2.0, 7)
    enc, jet = f.enclose3(x, x), f.jet3(x)
    for c, want in zip((enc.d0, enc.d1, enc.d2, enc.d3), (jet.d0, jet.d1, jet.d2, jet.d3)):
        assert np.all(c.lo <= want) and np.all(want <= c.hi)
        assert np.all(c.hi - c.lo <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("lo,hi", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.nan)])
def test_enclosure_needs_ordered_endpoints(lo, hi):
    with pytest.raises(ValueError, match="lo <= hi"):
        parse("x").enclose3(np.array([0.0, lo]), np.array([1.0, hi]))


@pytest.mark.parametrize("fn", [np.add.reduce, np.tan], ids=["reduce", "tan"])
def test_interval_refuses_ufuncs_it_does_not_enclose(fn):
    # numpy would otherwise run them on an object array of bounds.
    with pytest.raises(TypeError):
        fn(Interval(np.array([[0.0, 1.0], [1.0, 2.0]])))


def test_scalar_enclosure_is_a_one_point_run():
    f = parse("sin(x)")
    one, many = f.enclose3(0.25, 0.5), f.enclose3(np.array([0.25]), np.array([0.5]))
    for a, b in zip((one.d0, one.d3), (many.d0, many.d3)):
        assert (a.lo, a.hi) == (b.lo[0], b.hi[0])
