"""Direction maps, their serialisation, and the sampled hypothesis checks."""

import json
import math

import numpy as np
import pytest

from etaquad import (
    DifferenceMap,
    DomainError,
    Domain,
    EtaMapError,
    PiecewiseSignMap,
    ScaledMap,
    TableMap,
    TablePiece,
    check_invex_set,
    check_preinvex,
    check_prequasiinvex,
    eta_from_json,
    parse,
)


# --- maps ------------------------------------------------------------------


def test_difference_map():
    m = DifferenceMap()
    assert m(3.0, 1.0) == 2.0
    assert m(1.0, 3.0) == -2.0
    out = m(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    assert np.allclose(out, [0.5, 1.5])


def test_scaled_map():
    m = ScaledMap(3.0)
    assert m(2.0, 1.0) == 3.0
    with pytest.raises(ValueError):
        ScaledMap(0.0)
    with pytest.raises(ValueError):
        ScaledMap(math.inf)


def test_piecewise_sign_map_branches():
    m = PiecewiseSignMap()
    assert m(1.0, 2.0) == -1.0       # both nonnegative: v - u
    assert m(-3.0, -1.0) == -2.0     # both nonpositive: v - u
    assert m(2.0, -1.0) == -3.0      # mixed: u - v
    assert m(-2.0, 1.0) == 3.0       # mixed: u - v
    # zero belongs to both sign classes; same-sign branch wins
    assert m(-3.0, 0.0) == -3.0
    assert m(0.0, -3.0) == 3.0
    assert m(0.0, 3.0) == -3.0


def test_table_map_eval_and_errors():
    pieces = (
        TablePiece(0.0, 1.0, 0.0, 1.0, 0.0, -1.0, 1.0),   # v - u on the unit box
        TablePiece(1.0, 2.0, 0.0, 1.0, 0.5, 0.0, 0.0),    # constant elsewhere
    )
    m = TableMap(pieces)
    assert m(0.75, 0.25) == 0.5
    assert m(0.25, 1.5) == 0.5
    with pytest.raises(EtaMapError):
        m(5.0, 5.0)
    with pytest.raises(ValueError):
        TableMap(
            (
                TablePiece(0.0, 1.0, 0.0, 1.0, 0.0, -1.0, 1.0),
                TablePiece(0.5, 1.5, 0.5, 1.5, 0.0, 0.0, 0.0),
            )
        )
    with pytest.raises(ValueError):
        TablePiece(1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        TableMap(())


def test_json_round_trip():
    maps = [
        DifferenceMap(),
        ScaledMap(0.5),
        PiecewiseSignMap(),
        TableMap((TablePiece(0.0, 1.0, 0.0, 1.0, 0.1, 0.2, 0.3),)),
    ]
    for m in maps:
        back = eta_from_json(m.to_json())
        assert back == m
    assert DifferenceMap().to_json() == {"kind": "difference"}
    assert ScaledMap(2.0).to_json() == {"kind": "scaled", "lambda": 2.0}
    assert PiecewiseSignMap().to_json() == {"kind": "paper_piecewise"}
    with pytest.raises(ValueError):
        eta_from_json({"kind": "nope"})


def test_one_reader_for_every_spelling():
    table = TableMap((TablePiece(0.0, 1.0, 0.0, 1.0, 0.1, 0.2, 0.3),))
    for m in (DifferenceMap(), ScaledMap(0.5), PiecewiseSignMap(), table):
        assert eta_from_json(json.dumps(m.to_json())) == m
    assert eta_from_json("difference") == DifferenceMap()
    assert eta_from_json("paper_piecewise") == PiecewiseSignMap()
    assert eta_from_json("scaled:0.5") == ScaledMap(0.5)
    for bad in ("scaled", "scaled:", "scaled:0", "spline", "{", "{} x", {},
                {"kind": "scaled", "lambda": None}, {"kind": "scaled", "lambda": 10**400},
                {"kind": "table", "pieces": 5}, {"kind": "table", "pieces": [{"u_lo": 0.0}]}):
        with pytest.raises(ValueError, match="; use difference "):
            eta_from_json(bad)


def test_domain_and_path_point():
    with pytest.raises(ValueError):
        Domain(1.0, 1.0)
    with pytest.raises(ValueError):
        Domain(2.0, 1.0)


# --- invex set check -------------------------------------------------------


def test_difference_paths_stay_in_interval():
    rep = check_invex_set(DifferenceMap(), Domain(-1.0, 4.0), grid_n=17)
    assert rep.passed
    assert rep.witness is None
    assert rep.checked == 17 ** 3
    assert rep.worst_slack <= 0.0 + 1e-12


def test_scaled_map_escapes_interval():
    rep = check_invex_set(ScaledMap(3.0), Domain(0.0, 1.0), grid_n=17)
    assert not rep.passed
    assert rep.witness == (0.0, 1.0, 1.0)
    assert rep.worst_slack == pytest.approx(2.0, abs=1e-12)


def test_contractive_scaled_map_passes():
    rep = check_invex_set(ScaledMap(0.5), Domain(0.0, 1.0), grid_n=17)
    assert rep.passed


def test_sample_box_for_unbounded_proxy():
    # paths sampled from a smaller box may stay inside a larger domain
    dom = Domain(-10.0, 10.0)
    rep = check_invex_set(ScaledMap(3.0), dom, grid_n=9, sample=Domain(-1.0, 1.0))
    assert rep.passed


# --- chord checks ----------------------------------------------------------


def test_convex_function_is_preinvex_for_difference():
    rep = check_preinvex(parse("x*x"), DifferenceMap(), Domain(-2.0, 2.0), grid_n=17)
    assert rep.passed
    rep = check_preinvex(parse("exp(x)"), DifferenceMap(), Domain(-1.0, 1.0), grid_n=17)
    assert rep.passed


def test_neg_abs_needs_the_sign_map():
    f = parse("-abs(x)")
    dom = Domain(-2.0, 2.0)
    good = check_preinvex(f, PiecewiseSignMap(), dom, grid_n=33)
    assert good.passed
    bad = check_preinvex(f, DifferenceMap(), dom, grid_n=33)
    assert not bad.passed
    assert bad.worst_slack == pytest.approx(1.0, abs=1e-12)
    u, v, t = bad.witness
    # the witness must certify itself on recomputation
    m = DifferenceMap()
    fu, fv = f.value(u), f.value(v)
    fp = f.value(u + t * m(v, u))
    chord = (1.0 - t) * fu + t * fv
    scale = max(1.0, abs(fu), abs(fv), abs(fp))
    assert (fp - chord) / scale > 1e-9


# inf within about 6e-4 of x = c (exp of more than 709.8), finite 1e-3 away.
SPIKE = "exp(0.001/((x-{c})*(x-{c})+0.000001))"


@pytest.mark.parametrize("check", [check_preinvex, check_prequasiinvex])
def test_non_finite_sample_is_refused(check):
    # On the grid 0, 0.25, ..., 1, x = 0.5 is an endpoint sample and
    # x = 0.1875 only a path point (u = 0, v = 0.75, t = 0.25).
    with pytest.raises(DomainError, match=r"f is nan at x = 0\.5$"):
        check(parse(f"{SPIKE.format(c=0.5)} - {SPIKE.format(c=0.5)}"), DifferenceMap(),
              Domain(0.0, 1.0), grid_n=5)
    with pytest.raises(DomainError, match=r"f is inf at x = 0\.1875$"):
        check(parse(SPIKE.format(c=0.1875)), DifferenceMap(), Domain(0.0, 1.0), grid_n=5)


def test_monotone_cubic_quasi_but_not_pre():
    f = parse("pow(x,3)")
    dom = Domain(-2.0, 2.0)
    assert not check_preinvex(f, DifferenceMap(), dom, grid_n=17).passed
    assert check_prequasiinvex(f, DifferenceMap(), dom, grid_n=17).passed


def test_sin_fails_prequasiinvex_on_long_interval():
    rep = check_prequasiinvex(
        parse("sin(x)"), DifferenceMap(), Domain(0.0, 1.5 * math.pi), grid_n=17
    )
    assert not rep.passed
    u, v, t = rep.witness
    path = u + t * (v - u)
    assert math.sin(path) > max(math.sin(u), math.sin(v))


def test_preinvex_implies_prequasiinvex_on_same_grid():
    dom = Domain(-1.5, 1.5)
    for source in ("x*x", "exp(x)", "abs(x)", "pow(x,4) - x"):
        f = parse(source)
        for m in (DifferenceMap(), PiecewiseSignMap()):
            pre = check_preinvex(f, m, dom, grid_n=13)
            quasi = check_prequasiinvex(f, m, dom, grid_n=13)
            if pre.passed:
                assert quasi.passed, (source, type(m).__name__)


def test_failure_is_monotone_under_grid_refinement():
    f = parse("-abs(x)")
    dom = Domain(-2.0, 2.0)
    # 9 -> 17 -> 33 point grids nest
    for n in (9, 17, 33):
        assert not check_preinvex(f, DifferenceMap(), dom, grid_n=n).passed


def test_slack_is_scale_normalised():
    # 1e6 * x^2 is convex; absolute roundoff would swamp an unnormalised test
    f = parse("1000000*x*x")
    rep = check_preinvex(f, DifferenceMap(), Domain(-2.0, 2.0), grid_n=17)
    assert rep.passed


def test_report_serialisation():
    rep = check_preinvex(parse("-abs(x)"), DifferenceMap(), Domain(-2.0, 2.0), grid_n=9)
    out = rep.to_json()
    assert list(out) == ["passed", "checked", "worst_slack", "witness"]
    assert out["passed"] is False
    assert len(out["witness"]) == 3


# --- the row-by-row sweep ----------------------------------------------------


def _full_grid_report(f, emap, dom, grid_n, tol, quasi):
    """The checks as one (u, v, t) array: the reference the sweep keeps."""
    from etaquad.invex import chord_slack

    u = dom.grid(grid_n)
    t = np.linspace(0.0, 1.0, grid_n)
    U, V, T = u[:, None, None], u[None, :, None], t[None, None, :]
    fu = f.value(u)
    slack = chord_slack(f.value(U + T * emap(V, U)), fu[:, None, None], fu[None, :, None], T, quasi)
    worst = float(np.max(slack))
    witness = None
    if not worst <= tol:
        i, j, k = np.unravel_index(int(np.argmax(slack)), slack.shape)
        witness = (float(u[i]), float(u[j]), float(t[k]))
    return (worst <= tol, slack.size, worst, witness)


@pytest.mark.parametrize("source", ["-abs(x)", "pow(x,3)", "sin(3*x)", "x*x", "exp(x) - 2*x"])
@pytest.mark.parametrize("emap", [DifferenceMap(), PiecewiseSignMap(), ScaledMap(0.5)])
def test_row_sweep_matches_the_full_grid(source, emap):
    f = parse(source)
    dom = Domain(-1.5, 1.0)
    for check, quasi in ((check_preinvex, False), (check_prequasiinvex, True)):
        rep = check(f, emap, dom, grid_n=17)
        got = (rep.passed, rep.checked, rep.worst_slack, rep.witness)
        assert repr(got) == repr(_full_grid_report(f, emap, dom, 17, 1e-9, quasi))


def test_nan_slack_fails_at_its_first_grid_triple():
    # lam*(v - u) overflows to inf, and t = 0 times inf is nan: those path
    # points are nowhere, and the check must say so at the first of them.
    emap, dom = ScaledMap(1e308), Domain(-10.0, 10.0)
    with np.errstate(all="ignore"):
        rep = check_invex_set(emap, dom, grid_n=5)
        u, t = dom.grid(5), np.linspace(0.0, 1.0, 5)
        points = u[:, None, None] + t[None, None, :] * emap(u[None, :, None], u[:, None, None])
    slack = np.maximum(np.maximum(dom.lo - points, points - dom.hi), 0.0)
    i, j, k = np.unravel_index(int(np.argmax(slack)), slack.shape)
    assert np.isnan(slack).any() and not np.isnan(slack).all()
    assert not rep.passed
    assert math.isnan(rep.worst_slack)
    assert rep.witness == (u[i], u[j], t[k])


def _block_cases():
    """Passing and failing checks at grid 17, and a refusal.  At an
    EVAL_CHUNK of 64 a u row runs as v blocks of 3, 3, 3, 3, 3 and 2
    values, and the two failing chord checks have their witness at v index
    16 and 15, in that last partial block; at 7 each block is one v value."""
    grid = {"grid_n": 17}
    return [
        (check_preinvex, (parse("sin(3*x)"), DifferenceMap(), Domain(-1.5, 1.0)), grid),
        (check_preinvex, (parse("exp(x) - 2*x"), PiecewiseSignMap(), Domain(-1.5, 1.0)), grid),
        (check_preinvex, (parse("x*x"), DifferenceMap(), Domain(-2.0, 2.0)), grid),
        (check_prequasiinvex, (parse("-abs(x)"), PiecewiseSignMap(), Domain(-2.0, 2.0)), grid),
        (check_prequasiinvex, (parse("sin(3*x)"), DifferenceMap(), Domain(-1.5, 1.0)), grid),
        (check_invex_set, (ScaledMap(3.0), Domain(0.0, 1.0)), grid),
        (check_invex_set, (ScaledMap(0.5), Domain(0.0, 1.0)), grid),
        (check_invex_set, (ScaledMap(1e308), Domain(-10.0, 10.0)), {"grid_n": 5}),
        (check_preinvex, (parse(SPIKE.format(c=0.1875)), DifferenceMap(), Domain(0.0, 1.0)),
         {"grid_n": 5}),
    ]


def _outcome(check, args, kwargs):
    try:
        with np.errstate(all="ignore"):
            return repr(check(*args, **kwargs))
    except DomainError as exc:
        return f"DomainError: {exc}"


@pytest.mark.parametrize("chunk", [7, 64, 2**30])
def test_block_size_does_not_change_any_report(monkeypatch, chunk):
    from etaquad import expr

    cases = _block_cases()
    expected = [_outcome(*case) for case in cases]
    assert expected[0].endswith("witness=(-0.40625, 1.0, 0.625))")  # v = u[16]
    assert expected[1].endswith("witness=(-1.5, 0.84375, 1.0))")  # v = u[15]
    monkeypatch.setattr(expr, "EVAL_CHUNK", chunk)
    assert [_outcome(*case) for case in cases] == expected
