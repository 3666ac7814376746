"""Campaign machinery: families, suites, tournaments, sharpness search."""

import math

import numpy as np
import pytest

from etaquad import (
    BoundSpec,
    ConvergenceError,
    DifferenceMap,
    FAMILIES,
    Family,
    Instance,
    THEOREM_ORDER,
    check_hh_classical,
    parse,
    run_inequality_suite,
    sharpness_search,
    tournament,
)
from etaquad import harness
from etaquad.harness import (
    _clamp_h,
    _evaluate,
    _pick,
    _safe_ratio,
    _segments,
)
from etaquad.invex import DEFAULT_GRID

SIX = [BoundSpec(t, 2.0) for t in THEOREM_ORDER]


# --- plumbing --------------------------------------------------------------


def test_safe_ratio_conventions():
    assert _safe_ratio(0.0, 0.0) == 0.0
    assert _safe_ratio(1e-11, 0.0) == 0.0
    assert _safe_ratio(1.0, 0.0) == math.inf
    assert _safe_ratio(3.0, 1.5) == 2.0


def test_rounding_noise_remainder_reads_as_zero():
    """exp seed 0, trial 1556: the oracle's integral and Q are both near 1.9
    and differ by one ulp, against bounds near 1e-18.  The row keeps its
    lhs, and its ratio is the clean 0 of ZERO_LHS_TOL, not 354."""
    fam = FAMILIES["exp"]
    draws = np.array([
        [4.092731998147315, -8.53853425875073e-06, -0.15683898238227956, 0.4663799784897402],
        [1.0, 0.02, 0.0, 0.5],  # R = 7e-12, some 8,000 times the rounding term
    ])
    a, b, h = _segments(draws)
    lhs, out = _evaluate(parse(fam.template, fam.names), fam.bind(draws), a, b, h, SIX, DEFAULT_GRID)
    assert lhs[0] == -(2.0 ** -52)
    for bnd, ratio, ok in out:
        assert bnd[0] < 1e-17 and ok[0]
        assert ratio[0] == 0.0
        assert ratio[1] == abs(lhs[1]) / bnd[1] > 0.0  # a true remainder keeps its ratio
    rep = run_inequality_suite("exp", SIX, 2000, 0)
    assert rep.violations == 0
    assert [r["ratio"] for r in rep.rows if r["trial"] == 1556] == [0.0] * 6
    assert [r["lhs"] for r in rep.rows if r["trial"] == 1556] == [-(2.0 ** -52)] * 6


def test_h_clamp():
    assert _clamp_h(0.01) == 0.1
    assert _clamp_h(-0.01) == -0.1
    assert _clamp_h(3.7) == 2.0
    assert _clamp_h(-5.0) == -2.0
    assert _clamp_h(0.5) == 0.5


def test_family_builders_round_trip():
    f, b, h = FAMILIES["exp"].build(np.array([1.5, -0.5, 0.3, 0.01]))
    assert (b, h) == (0.3, 0.1)
    assert f.value(0.0) == pytest.approx(1.5)
    f, b, h = FAMILIES["mono4"].build(np.array([2.0, 0.0, 1.0]))
    assert f.value(3.0) == pytest.approx(2.0 * 81.0)
    f, _, _ = FAMILIES["poly2"].build(np.array([1.0, 2.0, 3.0, 0.0, 1.0]))
    assert f.value(2.0) == pytest.approx(1.0 + 4.0 + 12.0)


def _bits(*arrays) -> bytes:
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_template_matches_built_source_bit_for_bit(name):
    # Each family's template bound to a draw runs as the source text its
    # build writes out; draws are mirrored through zero so that every
    # parameter is also negative.
    fam = FAMILIES[name]
    rng = np.random.Generator(np.random.Philox(4))
    draws = np.array([fam.sample(rng) for _ in range(4)])
    draws = np.concatenate([draws, -draws])
    template = parse(fam.template, fam.names)
    x = np.linspace(-2.0, 2.0, 33)
    params = fam.bind(draws)
    values = template.value(x, **{k: v[:, None] for k, v in params.items()})
    jets = template.jet3(x, **{k: v[:, None] for k, v in params.items()})
    for k, draw in enumerate(draws):
        f, _, _ = fam.build(draw)
        assert f.source == fam.source(draw)
        j = f.jet3(x)
        assert _bits(values[k]) == _bits(f.value(x))
        assert _bits(jets.d0[k], jets.d1[k], jets.d2[k], jets.d3[k]) == _bits(j.d0, j.d1, j.d2, j.d3)


def test_built_source_writes_each_value_in_parentheses():
    f, b, h = FAMILIES["trig"].build(np.array([-1.5, 0.25, 3.0, 0.5, -0.05]))
    assert f.source == "(-1.5)*sin((0.25)*x + (3.0))"
    assert (b, h) == (0.5, -0.1)
    f, _, _ = FAMILIES["poly2"].build(np.array([1.0, -2.0, 3.0, 0.0, 1.0]))
    assert f.source == "(1.0) + (-2.0)*x + (3.0)*pow(x,2)"


def test_instance_segment_and_summary():
    inst = Instance(parse("pow(x,3)"), DifferenceMap(), a=2.0, b=0.5, spec=SIX[0])
    seg = inst.segment()
    assert (seg.b, seg.h, seg.end) == (0.5, 1.5, 2.0)
    s = inst.summary()
    assert s["f"] == "pow(x,3)"
    assert s["eta"] == {"kind": "difference"}
    assert (s["theorem"], s["q"]) == ("T2.1", 2.0)
    assert "theorem" not in Instance(parse("x"), DifferenceMap(), 1.0, 0.0).summary()


# --- suites ----------------------------------------------------------------


def test_poly2_suite_all_zero():
    # quadratics have no third derivative: remainder 0, bounds 0, clean 0/0
    rep = run_inequality_suite("poly2", SIX, trials=25, seed=11)
    assert rep.trials == 25 * len(SIX)
    assert rep.hypothesis_passed == 25 * len(SIX)
    assert rep.violations == 0
    assert rep.max_ratio == 0.0
    assert rep.argmax is None
    assert all(r["ratio"] == 0.0 and r["bound"] == 0.0 for r in rep.rows)


def test_exp_suite_gates_always_pass():
    # |f'''|^q of c*exp(lam*x) is exp-convex along any path
    rep = run_inequality_suite("exp", SIX, trials=60, seed=3)
    assert rep.hypothesis_passed == 60 * len(SIX)
    assert rep.violations == 0
    assert 0.0 < rep.max_ratio <= 1.0 + 1e-9
    assert rep.argmax is not None
    assert rep.argmax["ratio"] == rep.max_ratio
    assert rep.argmax["theorem"] in THEOREM_ORDER


def test_suite_determinism_and_prefix():
    r1 = run_inequality_suite("poly6", SIX, trials=20, seed=7)
    r2 = run_inequality_suite("poly6", SIX, trials=20, seed=7)
    assert r1.rows == r2.rows
    assert r1.to_json() == r2.to_json()
    r3 = run_inequality_suite("poly6", SIX, trials=40, seed=7)
    assert r3.rows[: len(r1.rows)] == r1.rows
    assert r3.max_ratio >= r1.max_ratio
    # A trial's row has the same bits alone as inside a 2000-trial batch
    # (repr tells -0.0 from 0.0 and shows every bit of a float).
    big = run_inequality_suite("mixed", SIX, trials=2000, seed=7)
    alone = run_inequality_suite("mixed", SIX, trials=1, seed=7)
    assert repr(big.rows[: len(SIX)]) == repr(alone.rows)
    rng = np.random.Generator(np.random.Philox(7))
    for trial in range(2000):
        fam = _pick("mixed", rng)
        draw = fam.sample(rng)
        if trial in (1, 999, 1999):
            batch = draw[None, :]
            lhs, results = _evaluate(
                parse(fam.template, fam.names), fam.bind(batch), *_segments(batch), SIX, 65
            )
            rows = big.rows[trial * len(SIX) : (trial + 1) * len(SIX)]
            assert {r["family"] for r in rows} == {fam.name}
            for row, (bnd, ratio, ok) in zip(rows, results):
                assert repr(tuple(row[k] for k in ("lhs", "bound", "ratio", "hypothesis_pass"))) == repr(
                    (float(lhs[0]), float(bnd[0]), float(ratio[0]), bool(ok[0]))
                )


# A degree-13 polynomial whose |f'''|^2 is preinvex along [0, 1] while
# |f'''| is not; C2.1's value h^4/384*(A+B) undercuts its remainder.
C21_WITNESS = (
    "(-0.0)*pow(x,3) + (-0.0533519057144714)*pow(x,4) + (-1.4499612636956232)*pow(x,5)"
    " + (10.285072509404891)*pow(x,6) + (-35.91164523993245)*pow(x,7)"
    " + (73.10260158265228)*pow(x,8) + (-90.1780428486523)*pow(x,9)"
    " + (67.21709460482309)*pow(x,10) + (-28.597956330003008)*pow(x,11)"
    " + (5.866501927210863)*pow(x,12) + (-0.31721416545588094)*pow(x,13)"
)


def test_c21_is_gated_on_the_q1_hypothesis_at_every_q():
    # One draw: c = 1 on b = 0, h = 1.
    fam = Family("witness", f"c*({C21_WITNESS})", ("c",), (1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    specs = [BoundSpec("C2.1", 2.0), BoundSpec("C2.1", 1.0), BoundSpec("T2.1", 2.0)]
    rep = run_inequality_suite(fam, specs, trials=1, seed=0).to_json()
    c21_q2, c21_q1, t21 = rep["rows"]
    assert (c21_q2["a"], c21_q2["b"], c21_q2["h"]) == (1.0, 0.0, 1.0)
    assert c21_q2["ratio"] == pytest.approx(1.2456, abs=1e-4)
    assert not c21_q2["hypothesis_pass"] and not c21_q1["hypothesis_pass"]
    assert t21["hypothesis_pass"] and t21["ratio"] == pytest.approx(0.881, abs=1e-3)
    assert rep["violations"] == 0
    assert (rep["argmax"]["theorem"], rep["argmax"]["q"]) == ("T2.1", 2.0)


def test_per_spec_table_consistent():
    rep = run_inequality_suite("trig", SIX, trials=40, seed=5)
    assert sum(e["hypothesis_passed"] for e in rep.table) == rep.hypothesis_passed
    assert sum(e["violations"] for e in rep.table) == rep.violations
    assert rep.violations == 0
    for entry, spec in zip(rep.table, SIX):
        assert entry["theorem"] == spec.theorem
        assert entry["q"] == spec.q
        assert 0 <= entry["hypothesis_passed"] <= 40
        assert entry["max_ratio"] <= rep.max_ratio
    # oscillatory third derivatives do fail the chord gate somewhere
    assert rep.hypothesis_passed < 40 * len(SIX)
    # quasi gates (endpoint max) also fail when an interior peak exceeds both ends
    quasi = [e for e, s in zip(rep.table, SIX) if s.hypothesis == "prequasiinvex"]
    assert any(e["hypothesis_passed"] < 40 for e in quasi)


def test_repeated_spec_object_keeps_its_own_table_entry():
    s = SIX[3]
    once = run_inequality_suite("trig", [s], 40, 5)
    twice = run_inequality_suite("trig", [s, s], 40, 5)
    assert twice.table == [once.table[0], once.table[0]]
    assert twice.hypothesis_passed == 2 * once.hypothesis_passed
    assert sum(e["hypothesis_passed"] for e in twice.table) == twice.hypothesis_passed


def test_mixed_family_draws_from_pool():
    rep = run_inequality_suite("mixed", SIX[:1], trials=30, seed=2)
    names = {r["family"] for r in rep.rows}
    assert names <= {"poly6", "exp", "trig"}
    assert len(names) > 1


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sample_is_uniform_bit_for_bit(name):
    # Draws interleaved with integer draws, as the mixed family's are.
    fam = FAMILIES[name]
    for seed in range(4):
        ours, reference = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
        for _ in range(200):
            assert ours.integers(0, 3) == reference.integers(0, 3)
            assert fam.sample(ours).tobytes() == reference.uniform(fam.lo, fam.hi).tobytes()


def test_mixed_suite_is_unchanged_under_uniform_draws(monkeypatch):
    fast = run_inequality_suite("mixed", SIX, trials=60, seed=3)
    monkeypatch.setattr(Family, "sample", lambda fam, rng: rng.uniform(fam.lo, fam.hi))
    reference = run_inequality_suite("mixed", SIX, trials=60, seed=3)
    assert repr(fast.to_json()) == repr(reference.to_json())


def test_suite_rejects_negative_trials():
    with pytest.raises(ValueError):
        run_inequality_suite("exp", SIX, trials=-1, seed=0)


def test_ratios_never_violate_on_passing_gates():
    for fam, seed in (("poly6", 19), ("mono4", 23), ("exp", 29)):
        rep = run_inequality_suite(fam, SIX, trials=50, seed=seed)
        assert rep.violations == 0
        for row in rep.rows:
            if row["hypothesis_pass"]:
                assert row["ratio"] <= 1.0 + 1e-9


# --- tournament ------------------------------------------------------------


def test_tournament_constant_third_derivative():
    # f''' == 1: endpoints tie, power-mean and max forms coincide, T2.1 wins by order
    inst = Instance(parse("pow(x,3)/6"), DifferenceMap(), a=1.0, b=0.0)
    rows = tournament(inst, [1.0, 2.0, 4.0])
    assert [r["q"] for r in rows] == [1.0, 2.0, 4.0]
    for r in rows:
        assert r["winner"] == "T2.1"
        assert r["bounds"]["T2.1"] == pytest.approx(1.0 / 192.0, rel=1e-12)
        assert r["bounds"]["T3.1"] == r["bounds"]["T2.1"]
        assert r["preinvex_pass"] and r["prequasiinvex_pass"]
        assert r["lhs"] <= 1e-12  # cubic remainder is exactly zero
        assert r["ratio_winner"] <= 1e-9
    holder_only = ("T2.2", "T2.3", "T3.2", "T3.3")
    assert all(rows[0]["bounds"][t] is None for t in holder_only)
    assert all(rows[1]["bounds"][t] is not None for t in holder_only)


def test_tournament_one_sided_derivative():
    # f''' = x vanishes at a=0: power-mean bounds shrink by 2^(-1/q) vs max forms
    inst = Instance(parse("pow(x,4)/24"), DifferenceMap(), a=0.0, b=1.0)
    rows = tournament(inst, [2.0])
    r = rows[0]
    assert r["bounds"]["T2.1"] / r["bounds"]["T3.1"] == pytest.approx(
        2.0 ** -0.5, rel=1e-12
    )
    assert r["preinvex_pass"] and r["prequasiinvex_pass"]
    vals = {t: v for t, v in r["bounds"].items() if v is not None}
    assert r["winner"] == min(vals, key=lambda t: (vals[t], THEOREM_ORDER.index(t)))
    for t2, t3 in (("T2.1", "T3.1"), ("T2.2", "T3.2"), ("T2.3", "T3.3")):
        assert vals[t2] <= vals[t3] * (1.0 + 1e-12)
    assert r["ratio_winner"] <= 1.0 + 1e-9


def test_tournament_respects_eta():
    from etaquad import PiecewiseSignMap

    inst = Instance(parse("exp(x)"), PiecewiseSignMap(), a=1.0, b=-1.0)
    rows = tournament(inst, [2.0])
    # opposite signs flip the direction: path runs from -1 to -3
    assert rows[0]["lhs"] > 0.0
    assert rows[0]["bounds"]["T2.1"] > 0.0


# --- sharpness search ------------------------------------------------------


def test_sharpness_quadratics_score_zero():
    inst, ratio = sharpness_search(BoundSpec("T2.1", 2.0), "poly2", iterations=40, seed=1)
    assert ratio == 0.0
    assert inst is not None


def test_sharpness_mono4_reaches_corner():
    # sup of remainder/bound over this family is 8/15, at segments
    # straddling the origin; the search should get essentially there
    inst, ratio = sharpness_search(BoundSpec("C2.1", 1.0), "mono4", iterations=150, seed=3)
    assert ratio >= 8.0 / 15.0 - 1e-9
    assert ratio <= 1.0 + 1e-9
    assert inst is not None and inst.spec.theorem == "C2.1"


def _spied_search(monkeypatch, spec, fam, iterations, seed=0):
    """The search's result and its evaluator calls, each as [draw matrix,
    (bound, ratio, gate) or None where the evaluator refused the batch]."""
    calls = []

    def segments(draws):
        calls.append([draws.copy(), None])
        return _segments(draws)

    def evaluate(*args):
        lhs, out = _evaluate(*args)
        calls[-1][1] = out[0]
        return lhs, out

    monkeypatch.setattr(harness, "_segments", segments)
    monkeypatch.setattr(harness, "_evaluate", evaluate)
    inst, ratio = sharpness_search(spec, fam, iterations=iterations, seed=seed)
    if inst is not None:
        calls.pop()  # Family.build of the returned draw
    return inst, ratio, calls


def _alone(spec, fam, draw):
    """(bound, ratio, gate) of one draw evaluated as a batch of one."""
    batch = draw[None, :]
    f = parse(fam.template, fam.names)
    return _evaluate(f, fam.bind(batch), *_segments(batch), [spec], DEFAULT_GRID)[1][0]


@pytest.mark.parametrize("iterations", [1, 5, 40, 300])
def test_sharpness_scores_each_sweep_in_one_evaluator_call(monkeypatch, iterations):
    spec, fam = BoundSpec("T3.1", 2.0), FAMILIES["trig"]
    inst, ratio, calls = _spied_search(monkeypatch, spec, fam, iterations)
    assert sum(len(draws) for draws, _ in calls) == iterations
    rng = np.random.Generator(np.random.Philox(0))
    start = fam.sample(rng)
    restarts = 0
    for k, (draws, out) in enumerate(calls):
        if len(draws) == 1 and np.array_equal(draws[0], start):  # a restart's draw
            restarts += 1
            start = fam.sample(rng)
        else:  # one whole sweep, ± a step in each parameter; only the last is cut
            assert k > 0
            assert len(draws) == 2 * len(fam.lo) or k == len(calls) - 1
        for draw, in_batch in zip(draws, out[1]):
            assert _alone(spec, fam, draw)[1].tobytes() == in_batch.tobytes()
    assert len(calls[0][0]) == 1 and restarts >= 1
    assert (inst is None) == (ratio == -math.inf) and ratio <= 1.0 + 1e-9


def test_sharpness_refused_batch_scores_minus_inf(monkeypatch):
    # log(x + c) leaves its domain where a path reaches x <= -c, so some
    # sweeps hold a candidate for which the evaluator refuses the batch.
    spec = BoundSpec("T2.1", 2.0)
    fam = Family("log", "log(x + c)", ("c",), (0.5, -1.5, -1.5), (3.0, 1.5, 1.5))
    inst, ratio, calls = _spied_search(monkeypatch, spec, fam, 200)
    assert any(out is None for _, out in calls)
    scored = [(r, draw) for draws, out in calls if out is not None
              for draw, r, ok in zip(draws, out[1], out[2]) if ok and math.isfinite(r)]
    best, draw = max(scored, key=lambda pair: pair[0])
    assert inst is not None and ratio == best > 0.0
    _, alone, ok = _alone(spec, fam, draw)
    assert ok[0] and alone[0] == ratio
    _, b, h = _segments(draw[None, :])
    assert (inst.b, inst.a) == (b[0], b[0] + h[0])


# --- classical chain -------------------------------------------------------


def test_hh_classical_convex_passes():
    rep = check_hh_classical(parse("pow(x,2)"), 0.0, 2.0)
    assert rep.passed
    assert rep.checked == 2
    assert rep.witness is None
    assert rep.worst_slack == pytest.approx(-1.0 / 6.0, abs=1e-9)


def test_hh_classical_affine_is_tight():
    rep = check_hh_classical(parse("2*x + 1"), -1.0, 3.0)
    assert rep.passed
    assert abs(rep.worst_slack) <= 1e-9


def test_hh_classical_concave_fails():
    rep = check_hh_classical(parse("0 - pow(x,2)"), 0.0, 2.0)
    assert not rep.passed
    assert rep.worst_slack > 1e-9
    a, b, t = rep.witness
    assert (a, b) == (0.0, 2.0)
    assert t in (0.5, 1.0)


def test_hh_classical_with_int_ends_names_the_overflow():
    # The ends run as floats, so x^400 overflows to inf at x = 10 and the
    # oracle refuses it by name instead of raising OverflowError.
    with pytest.raises(ConvergenceError, match=r"integrand is inf at x = 10\.0"):
        check_hh_classical(parse("pow(x,400)"), 0, 10)


def test_hh_classical_needs_ordered_interval():
    with pytest.raises(ValueError):
        check_hh_classical(parse("x"), 1.0, 1.0)
    with pytest.raises(ValueError):
        check_hh_classical(parse("x"), 2.0, 1.0)


def test_hh_classical_accepts_plain_callables():
    rep = check_hh_classical(lambda x: np.exp(x), 0.0, 1.0)
    assert rep.passed


@pytest.mark.parametrize("grid_n", [0, 1])
def test_path_grid_below_two_is_refused(grid_n):
    # One sample puts t = 0 in place of the endpoint t = 1; the search
    # would otherwise score every candidate -inf and return nothing.
    with pytest.raises(ValueError, match=f"got {grid_n}"):
        sharpness_search(BoundSpec("T2.1", 2.0), "poly2", iterations=5, grid_n=grid_n)
    with pytest.raises(ValueError, match=f"got {grid_n}"):
        run_inequality_suite("poly6", [BoundSpec("T2.1", 2.0)], trials=1, seed=0, grid_n=grid_n)
