"""End-to-end CLI behaviour: flags, config files, formats, exit codes."""

import collections
import contextlib
import csv
import importlib.metadata
import io
import json
import math
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import etaquad
from etaquad.cli import COMMANDS, _emit, run
from etaquad.identity import Table


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out), err


# --- shared report shape ----------------------------------------------------


def test_report_key_order_and_envelope(capsys):
    code, out, _ = invoke(capsys, "verify-identity", "--f", "pow(x,4)", "--a", "1", "--b", "0")
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["command", "version", "config", "result", "passed"]
    assert report["command"] == "verify-identity"
    assert report["passed"] is True
    assert report["config"]["format"] == "json"
    assert report["config"]["eta"] == {"kind": "difference"}
    assert out.endswith("\n")


# --- verify-identity --------------------------------------------------------


def test_verify_identity_quartic_anchor(capsys):
    code, report, _ = invoke_json(
        capsys, "verify-identity", "--f", "pow(x,4)", "--a", "1", "--b", "0"
    )
    assert code == 0
    res = report["result"]
    assert res["lhs"] == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert res["rhs"] == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert res["abs_diff"] <= 1e-10
    assert res["eta_ab"] == 1.0
    assert res["eta_ba"] == -1.0
    assert res["passed"] is True


@pytest.mark.parametrize("f", ["1.0324*sin(40*x)*exp(-x/4)", "exp(3*x)"])
def test_verify_identity_below_the_rounding_of_its_integrals(capsys, f):
    # The kernel side integrates a weighted third derivative whose absolute
    # integral is about 1.7e3 and 1.8e4, so tol/10 = 1e-13 is below its
    # rounding (eps times that is 4e-13 and 4e-12); the oracle meets the
    # rounding floor instead of bisecting until it stops.
    code, report, err = invoke_json(
        capsys, "verify-identity", "--f", f, "--a", "4", "--b", "0", "--tol", "1e-12"
    )
    assert (code, err) == (0, "")
    assert report["result"]["passed"] is True


# Covers (u, v) = (b, a) = (0, 1), the path's pair, but not the reverse (1, 0).
FORWARD_ONLY_TABLE = json.dumps({"kind": "table", "pieces": [
    {"u_lo": -0.5, "u_hi": 0.5, "v_lo": 0.5, "v_hi": 1.5, "c0": 0, "cu": -1, "cv": 1}]})


@pytest.mark.parametrize("command", [("verify-identity",), ("bound", "--theorem", "T2.1")])
def test_table_map_that_covers_only_the_path(capsys, command):
    code, report, err = invoke_json(
        capsys, *command, "--f", "exp(x)", "--a", "1", "--b", "0", "--eta", FORWARD_ONLY_TABLE
    )
    assert (code, err) == (0, "")
    assert report["result"]["eta_ba"] is None
    assert report["result"]["eta_ab" if command[0] == "verify-identity" else "h"] == 1.0


def test_verify_identity_degenerate_pair_is_usage_error(capsys):
    code, out, err = invoke(capsys, "verify-identity", "--f", "x", "--a", "1", "--b", "1")
    assert code == 2
    assert out == ""
    assert "verify-identity" in err


# --- bound -------------------------------------------------------------------


def test_bound_anchor(capsys):
    code, report, _ = invoke_json(
        capsys,
        "bound", "--f", "pow(x,4)", "--a", "1", "--b", "0",
        "--theorem", "T2.1", "--q", "2",
    )
    assert code == 0
    res = report["result"]
    assert res["value"] == pytest.approx(0.08838834764831843, abs=1e-9)
    assert (res["a3"], res["b3"]) == (24.0, 0.0)
    assert (res["h"], res["eta_ba"]) == (1.0, -1.0)
    assert res["theorem"] == "T2.1"


def test_bound_tight_flag(capsys):
    base = ["bound", "--f", "pow(x,4)", "--a", "1", "--b", "0", "--theorem", "T3.3", "--q", "2"]
    _, printed, _ = invoke_json(capsys, *base)
    _, tight, _ = invoke_json(capsys, *base, "--tight")
    ratio = printed["result"]["value"] / tight["result"]["value"]
    assert ratio == pytest.approx(2.0 ** 0.5, rel=1e-12)


def test_bound_scaled_eta(capsys):
    code, report, _ = invoke_json(
        capsys,
        "bound", "--f", "pow(x,3)", "--a", "2", "--b", "1",
        "--theorem", "C2.1", "--eta", "scaled:2",
    )
    assert code == 0
    assert report["result"]["h"] == 2.0
    assert report["config"]["eta"] == {"kind": "scaled", "lambda": 2.0}


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--f", "x", "--a", "1", "--b", "0", "--theorem", "T9.9"),
        ("bound", "--f", "x", "--a", "1", "--b", "0", "--theorem", "T2.2", "--q", "1"),
        ("bound", "--f", "2x", "--a", "1", "--b", "0", "--theorem", "T2.1"),
        ("bound", "--f", "x", "--a", "1", "--b", "0", "--theorem", "T2.1", "--eta", "scaled:0"),
        ("bound", "--f", "x", "--a", "1", "--b", "0", "--theorem", "T2.1", "--eta", "spline"),
        ("bound", "--a", "1", "--b", "0", "--theorem", "T2.1"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("etaquad bound:")


MALFORMED_ETA = {
    "null-lambda": '{"kind": "scaled", "lambda": null}',
    "int-pieces": '{"kind": "table", "pieces": 5}',
    "int-piece": '{"kind": "table", "pieces": [5]}',
    "huge-lambda": '{"kind": "scaled", "lambda": 1' + "0" * 400 + "}",
    "deep-json": '{"a": ' * 100000,
    "no-lambda": '{"kind": "scaled"}',
    "unknown-kind": "spline",
    "zero-scale": "scaled:0",
    "bad-json": "{",
}


@pytest.mark.parametrize("eta", MALFORMED_ETA.values(), ids=list(MALFORMED_ETA))
@pytest.mark.parametrize("source", ["flag", "config"])
def test_malformed_eta_is_one_usage_line_listing_the_spellings(tmp_path, capsys, eta, source):
    argv = ["bound", "--f", "x", "--a", "1", "--b", "0", "--theorem", "T2.1"]
    if source == "flag":
        argv += ["--eta", eta]
    else:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"eta": eta}))
        argv += ["--config", str(path)]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("etaquad bound: bad eta: ")
    assert err.endswith("; use difference | paper_piecewise | scaled:<lam> | JSON object\n")
    assert err.count("\n") == 1


def test_fixed_n_above_the_budget_fails_without_work(capsys, monkeypatch):
    monkeypatch.setattr("etaquad.quadrature._jets", None)  # work would call it
    code, report, err = invoke_json(
        capsys, "integrate", "--f", "x", "--a", "1", "--b", "0", "--fixed-n", "2000000"
    )
    assert code == 1
    assert report["passed"] is False
    assert report["result"] == {"error": "fixed_n 2000000 is above the budget of 1048576"}
    assert err == "etaquad integrate: fixed_n 2000000 is above the budget of 1048576\n"


def test_missing_function_names_the_flag(capsys):
    _, _, err = invoke(capsys, "bound", "--a", "1", "--b", "0", "--theorem", "T2.1")
    assert "--f" in err


def test_argparse_rejections():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["bound", "--no-such-flag", "1"])
    assert exc.value.code == 2


# --- check-hypothesis ---------------------------------------------------------


def test_check_preinvex_pass(capsys):
    code, report, _ = invoke_json(
        capsys,
        "check-hypothesis", "--check", "preinvex", "--f", "pow(x,2)", "--dom", "-1", "1",
    )
    assert code == 0
    assert report["result"]["passed"] is True
    assert report["result"]["witness"] is None
    assert report["result"]["checked"] == 65 ** 3


def test_check_preinvex_fail_has_witness(capsys):
    code, report, _ = invoke_json(
        capsys,
        "check-hypothesis", "--check", "preinvex", "--f=-abs(x)", "--dom", "-2", "2",
    )
    assert code == 1
    res = report["result"]
    assert res["passed"] is False
    assert res["worst_slack"] == pytest.approx(1.0, rel=1e-12)
    assert res["witness"] == [-2.0, 2.0, 0.5]


def test_check_preinvex_sign_map_rescues(capsys):
    code, report, _ = invoke_json(
        capsys,
        "check-hypothesis", "--check", "preinvex", "--f=-abs(x)",
        "--dom", "-2", "2", "--eta", "paper_piecewise",
    )
    assert code == 0
    assert report["result"]["passed"] is True


def test_check_invex_set(capsys):
    code, report, _ = invoke_json(
        capsys,
        "check-hypothesis", "--check", "invex-set", "--dom", "0", "1", "--grid", "17",
    )
    assert code == 0
    assert report["result"]["checked"] == 17 ** 3
    code, report, _ = invoke_json(
        capsys,
        "check-hypothesis", "--check", "invex-set", "--dom", "0", "1",
        "--eta", "scaled:3", "--grid", "17",
    )
    assert code == 1
    assert report["result"]["witness"] == [0.0, 1.0, 1.0]


def test_check_prequasiinvex(capsys):
    code, report, _ = invoke_json(
        capsys,
        "check-hypothesis", "--check", "prequasiinvex", "--f", "pow(x,3)", "--dom", "-1", "1",
    )
    assert code == 0
    code, _, _ = invoke_json(
        capsys,
        "check-hypothesis", "--check", "preinvex", "--f", "pow(x,3)", "--dom", "-1", "1",
    )
    assert code == 1


@pytest.mark.parametrize("check", ["preinvex", "prequasiinvex"])
def test_check_hypothesis_non_finite_sample_is_usage_error(capsys, check):
    # exp(800) overflows inside [0, 1]: the slack would be NaN.
    code, out, err = invoke(
        capsys, "check-hypothesis", "--check", check, "--f", "exp(800*x)",
        "--dom", "0", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "etaquad check-hypothesis: f is inf at x = 0.890625\n"


# --- integrate ----------------------------------------------------------------


def test_integrate_fixed_n(capsys):
    code, report, _ = invoke_json(
        capsys,
        "integrate", "--f", "exp(x)", "--a", "1", "--b", "0",
        "--fixed-n", "16", "--with-true-error",
    )
    assert code == 0
    res = report["result"]
    assert res["n"] == 16
    assert len(res["partition"]) == 16
    assert res["certificate"] > 0.0
    assert abs(res["true_error"]) <= res["certificate"]
    assert res["value"] == pytest.approx(1.718281828459045, abs=res["certificate"])


def test_integrate_defaults_to_64(capsys):
    code, report, _ = invoke_json(capsys, "integrate", "--f", "sin(x)", "--a", "2", "--b", "0")
    assert code == 0
    assert report["result"]["n"] == 64
    assert report["config"]["fixed-n"] == 64


def test_integrate_adaptive_target(capsys):
    code, report, _ = invoke_json(
        capsys,
        "integrate", "--f", "exp(x)", "--a", "1", "--b", "0",
        "--target", "1e-8", "--mode", "sup",
    )
    assert code == 0
    assert report["result"]["certificate"] <= 1e-8
    assert report["result"]["mode"] == "sup"


def test_integrate_hypothesis_mode(capsys):
    # exp is convex with a monotone third derivative, so the endpoint
    # certificate holds.
    code, report, _ = invoke_json(
        capsys, "integrate", "--f", "exp(x)", "--a", "1", "--b", "0",
        "--fixed-n", "16", "--with-true-error", "--mode", "hypothesis",
    )
    assert code == 0
    res = report["result"]
    assert res["mode"] == "hypothesis" and res["n"] == 16
    assert 0.0 < abs(res["true_error"]) <= res["certificate"]


def test_integrate_default_mode_certificate_holds_the_true_error(capsys):
    # |f'''| of this Gaussian is tiny at both ends, so an endpoint
    # (hypothesis mode) certificate would claim far less than the error.
    code, report, _ = invoke_json(
        capsys, "integrate", "--f", "exp(-200*x*x)", "--a", "3", "--b", "-3",
        "--target", "1e-6", "--with-true-error",
    )
    assert code == 0
    assert report["config"]["mode"] == "sup"
    assert report["result"]["certificate"] >= report["result"]["true_error"]


def test_integrate_non_finite_is_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        code, out, err = invoke(
            capsys, "integrate", "--f", "exp(800*x)", "--a", "1", "--b", "0", "--target", "1e-6",
            "--mode", "hypothesis",
        )
    assert code == 2
    assert out == ""
    assert err.startswith("etaquad integrate: non-finite local value nan or bound nan")
    assert err.count("\n") == 1
    with pytest.raises(ValueError):
        _emit({"value": float("nan")}, None, "json")


# f''' = x^3 - x^2 vanishes at both ends, so every bound is 0 and each
# ratio_winner is inf.
ZERO_BOUNDS = ("tournament", "--f", "pow(x,6)/120 - pow(x,5)/60", "--a", "1", "--b", "0")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_report_is_refused_by_name(tmp_path, capsys, fmt):
    out = tmp_path / "report"
    code, stdout, err = invoke(capsys, *ZERO_BOUNDS, "--format", fmt, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == ("etaquad tournament: result.rows.0.ratio_winner is inf; "
                   "a report holds finite numbers only\n")
    assert not out.exists()
    out.write_text("kept")
    assert invoke(capsys, *ZERO_BOUNDS, "--format", fmt, "--out", str(out)) == (2, "", err)
    assert out.read_text() == "kept"


# |f'''(1)| of exp(460*x) is about 1e207: finite, but its square overflows.
@pytest.mark.parametrize("argv, key", [
    (("bound", "--theorem", "T2.1", "--q", "2"), "result.value"),
    (("tournament",), "result.rows.1.bounds.T2.1"),
], ids=["bound", "tournament"])
def test_overflowing_power_is_refused_by_name(capsys, argv, key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, argv[0], "--f", "exp(460*x)", "--a", "1", "--b", "0", *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"etaquad {argv[0]}: {key} is inf; a report holds finite numbers only\n"


def test_integrate_oracle_failure_is_reported(capsys):
    code, out, err = invoke(
        capsys, "integrate", "--f", "1/(x-0.3)", "--a", "1", "--b", "0",
        "--fixed-n", "2", "--with-true-error", "--mode", "hypothesis",
    )
    message = "22360 interval(s) still above tolerance after depth 40"
    assert code == 1
    assert err == f"etaquad integrate: {message}\n"
    report = json.loads(out)
    assert report["passed"] is False
    assert report["result"] == {"error": message}


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify-identity",), "integrand is inf at x = 1.0"),
        (("bound", "--theorem", "T2.1"), "derivative magnitudes must be finite"),
        (("tournament",), "integrand is inf at x = 1.0"),
    ],
    ids=["verify-identity", "bound", "tournament"],
)
def test_overflow_prints_no_numpy_warning(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, argv[0], "--f", "exp(800*x)", "--a", "1", "--b", "0", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"etaquad {argv[0]}: {message}")
    assert err.count("\n") == 1


# --- suite ---------------------------------------------------------------------

# The fields of a suite row, in order: the CSV header and each JSON row's keys.
CSV_COLUMNS = ("trial", "family", "a", "b", "h", "theorem", "q", "lhs", "bound", "ratio", "hypothesis_pass")


def test_suite_defaults_and_reproducibility(tmp_path, capsys):
    out = tmp_path / "campaign.json"
    argv = ["suite", "--trials", "10", "--seed", "7", "--out", str(out)]
    assert run(list(argv)) == 0
    first = out.read_bytes()
    assert run(list(argv)) == 0
    assert out.read_bytes() == first
    capsys.readouterr()
    report = json.loads(first)
    cfg = report["config"]
    assert (cfg["family"], cfg["q"], cfg["seed"]) == ("poly6", 2.0, 7)
    assert cfg["theorems"] == "T2.1,T2.2,T2.3,T3.1,T3.2,T3.3"
    assert report["result"]["violations"] == 0
    assert len(report["result"]["rows"]) == 60


def test_suite_csv_format(tmp_path, capsys):
    out = tmp_path / "campaign.csv"
    code = run(
        ["suite", "--family", "exp", "--trials", "5", "--seed", "1",
         "--format", "csv", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 5 * 6
    assert lines[1].split(",")[1] == "exp"


def test_suite_json_rows_follow_csv_columns(capsys):
    _, report, _ = invoke_json(capsys, "suite", "--family", "mixed", "--trials", "6", "--seed", "3",
                               "--theorems", "T2.1,C2.1")
    rows = report["result"]["rows"]
    assert len(rows) == 12
    assert all(tuple(row) == CSV_COLUMNS for row in rows)


def test_suite_unknown_family(capsys):
    code, out, err = invoke(capsys, "suite", "--family", "poly6", "--theorems", "T2.9")
    assert code == 2
    with pytest.raises(SystemExit):
        run(["suite", "--family", "cubic-splines"])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,config,names",
    [
        (("suite", "--trials", "-1"), None, "trials"),
        (("suite", "--family", "poly6", "--trials", "3", "--grid", "1"), None, "got 1"),
        (("suite", "--family", "poly6", "--trials", "3", "--grid", "0"), None, "got 0"),
        (("check-hypothesis", "--check", "preinvex", "--f", "x", "--dom", "0", "1", "--grid", "1"),
         None, "got 1"),
        (("check-hypothesis", "--check", "invex-set", "--dom", "0", "1", "--grid", "0"),
         None, "got 0"),
        (("verify-identity", "--f", "x", "--a", "1", "--b", "0"), {"tol": "abc"}, "'tol'"),
        (("suite",), {"trials": "abc"}, "'trials'"),
        (("suite",), {"trials": 2.5}, "'trials'"),
        (("bound", "--f", "x", "--a", "1", "--b", "0", "--theorem", "T3.3"),
         {"tight": "no"}, "'tight'"),
        (("check-hypothesis",), {"check": "nope", "dom": [0, 1]}, "'check'"),
        (("check-hypothesis", "--check", "invex-set"), {"dom": [0]}, "'dom'"),
        (("integrate", "--f", "x", "--a", "1", "--b", "0"), {"format": "xml"}, "'format'"),
        (("tournament", "--f", "exp(x)", "--a", "1", "--b", "0", "--q-grid", "0.5"),
         None, "q = 0.5"),
        (("integrate", "--f", "x", "--a", "1", "--b", "0"), {"fixed_n": 16}, "'fixed_n'"),
        (("bound", "--f", "x", "--a", "1", "--b", "0", "--theorem", "T2.1"),
         {"seed": 3}, "'seed'"),
        (("check-hypothesis", "--check", "preinvex", "--f", "x", "--dom", "0", "1",
          "--grid", "100000"), None, "got 100000"),
        (("suite", "--trials", "2", "--theorems", ","), None, "at least one bound"),
        (("bound", "--f", "x", "--a", "1", "--b", "0", "--theorem", "T2.1"),
         '{"a":' * 100000, "cannot read config file: maximum recursion depth"),
        (("suite", "--trials", "0", "--grid", "1"), None, "got 1"),
        (("hh-classical", "--f", "x*x", "--a", "0", "--b", "1"), {"grid": 9}, "'grid'"),
        (("tournament", "--f", "x", "--a", "1", "--b", "0", "--q-grid", "1,x"),
         None, "bad q grid"),
    ],
)
def test_bad_values_are_one_line_usage_errors(tmp_path, capsys, argv, config, names):
    if config is not None:  # a string is the file's text as it stands
        path = tmp_path / "run.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ("--config", str(path))
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"etaquad {argv[0]}: ")
    assert err.count("\n") == 1
    assert names in err


TOL_COMMANDS = {
    "verify-identity": ("--f", "exp(x)", "--a", "1", "--b", "0"),
    "check-hypothesis": ("--check", "preinvex", "--f", "x*x", "--dom", "0", "1"),
    "hh-classical": ("--f", "x*x", "--a", "0", "--b", "1"),
}


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("command", TOL_COMMANDS)
def test_bad_tol_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, tol):
    monkeypatch.setattr("etaquad.cli.parse", None)  # a handler that ran would call it
    argv = [command, *TOL_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        run(argv + [f"--tol={tol}"])
    assert exc.value.code == 2
    assert f"argument --tol: invalid tolerance value: '{tol}'" in capsys.readouterr().err
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tol": float(tol)}))
    code, out, err = invoke(capsys, *argv, "--config", str(path))
    assert (code, out) == (2, "")
    assert err == f"etaquad {command}: bad value for config key 'tol': {float(tol)!r}\n"


def test_config_values_convert_like_flags(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "function": "exp(x)", "a": 1, "b": 0, "tol": 1,
        "eta": {"kind": "scaled", "lambda": 2.0},
    }))
    code, report, _ = invoke_json(capsys, "verify-identity", "--config", str(path))
    assert code == 0
    cfg = report["config"]
    assert all(type(cfg[k]) is float for k in ("a", "b", "tol"))
    assert (cfg["a"], cfg["b"], cfg["tol"]) == (1.0, 0.0, 1.0)
    assert cfg["eta"] == {"kind": "scaled", "lambda": 2.0}
    assert report["result"]["eta_ab"] == 2.0
    path.write_text(json.dumps({
        "function": "pow(x,4)", "a": 1, "b": 0, "theorem": "T3.3", "q": 2, "tight": False,
    }))
    _, report, _ = invoke_json(capsys, "bound", "--config", str(path))
    assert report["config"]["tight"] is False
    _, report, _ = invoke_json(capsys, "bound", "--config", str(path), "--tight")
    assert report["config"]["tight"] is True


def test_check_hypothesis_takes_no_segment_endpoints():
    with pytest.raises(SystemExit) as exc:
        run(["check-hypothesis", "--check", "invex-set", "--dom", "0", "1", "--a", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "check,option,key,value",
    [("preinvex", ("--sample", "0", "0.5"), "sample", [0.0, 0.5]),
     ("prequasiinvex", ("--sample", "0", "0.5"), "sample", [0.0, 0.5]),
     ("invex-set", ("--f", "x*x"), "function", "x*x")],
)
def test_check_hypothesis_refuses_an_option_its_check_ignores(
    tmp_path, capsys, check, option, key, value
):
    # --sample is read by invex-set only, and --f by the chord checks only.
    function = () if check == "invex-set" else ("--f", "x*x")
    argv = ("check-hypothesis", "--check", check, *function, "--dom", "0", "1", "--grid", "5")
    refusal = (2, "", f"etaquad check-hypothesis: {option[0]} does not apply to --check {check}\n")
    assert invoke(capsys, *argv, *option) == refusal
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    assert invoke(capsys, *argv, "--config", str(path)) == refusal
    path.write_text(json.dumps({key: None}))  # as an ordinary report's config holds it
    assert invoke(capsys, *argv, "--config", str(path))[0] == 0


# --- tournament ------------------------------------------------------------------


def test_tournament_rows(capsys):
    code, report, _ = invoke_json(
        capsys,
        "tournament", "--f", "exp(x)", "--a", "1", "--b", "0", "--q-grid", "1,2",
    )
    assert code == 0
    rows = report["result"]["rows"]
    assert [r["q"] for r in rows] == [1.0, 2.0]
    for row in rows:
        assert set(row) == {
            "q", "bounds", "winner", "lhs", "ratio_winner",
            "preinvex_pass", "prequasiinvex_pass",
        }
        assert row["winner"] in row["bounds"]
        assert row["ratio_winner"] <= 1.0 + 1e-9
    assert rows[0]["bounds"]["T2.2"] is None


def test_tournament_empty_grid(capsys):
    code, _, err = invoke(
        capsys, "tournament", "--f", "x", "--a", "1", "--b", "0", "--q-grid", ","
    )
    assert code == 2


def test_bound_equals_tournament_to_the_bit(capsys):
    # One point runs as a batch of one, so a fractional pow of x gives
    # `bound` the bits `tournament` reads from its batch.
    segment = ("--f", "pow(x,3.7)", "--a", "1.1", "--b", "0.15")
    _, single, _ = invoke_json(capsys, "bound", *segment, "--theorem", "T3.1", "--q", "1")
    _, table, _ = invoke_json(capsys, "tournament", *segment, "--q-grid", "1")
    assert single["result"]["value"] == table["result"]["rows"][0]["bounds"]["T3.1"]


# --- hh-classical -------------------------------------------------------------


def test_hh_classical_scalar_overflow_is_usage_error(capsys):
    code, out, err = invoke(capsys, "hh-classical", "--f", "pow(x,400)", "--a", "0", "--b", "10")
    assert (code, out) == (2, "")
    assert err == "etaquad hh-classical: integrand is inf at x = 10.0\n"


def test_hh_classical_takes_no_grid(capsys):
    # The chain samples no grid, so neither the flag nor the key exists.
    with pytest.raises(SystemExit) as exc:
        run(["hh-classical", "--f", "x*x", "--a", "0", "--b", "1", "--grid", "9"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: unrecognized arguments: --grid 9\n")
    assert err.startswith("usage: etaquad hh-classical [-h] [--f FUNCTION]")
    # Given before the command, the flag is the top-level parser's.
    with pytest.raises(SystemExit) as exc:
        run(["--grid", "hh-classical", "--f", "x*x", "--a", "0", "--b", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: etaquad [-h] [--version]")
    assert err.endswith("etaquad: error: unrecognized arguments: --grid\n")


def test_unknown_flag_before_the_command_is_named(capsys):
    # Its value is not taken for the command.
    with pytest.raises(SystemExit) as exc:
        run(["--grid", "9", "hh-classical", "--f", "x", "--a", "0", "--b", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: etaquad [-h] [--version]")
    assert err.endswith("etaquad: error: unrecognized arguments: --grid 9\n")
    # Top-level flags, and their prefixes, still stand before the command.
    for flag in ("--version", "--vers"):
        with pytest.raises(SystemExit) as exc:
            run([flag, "hh-classical"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"etaquad {etaquad.__version__}\n"


def test_hh_classical_exit_codes(capsys):
    code, report, _ = invoke_json(capsys, "hh-classical", "--f", "pow(x,2)", "--a", "0", "--b", "2")
    assert code == 0
    assert report["result"]["worst_slack"] == pytest.approx(-1.0 / 6.0, abs=1e-9)
    code, report, _ = invoke_json(capsys, "hh-classical", "--f=-pow(x,2)", "--a", "0", "--b", "2")
    assert code == 1
    assert report["result"]["witness"] is not None


# --- config files ----------------------------------------------------------------


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "function": "pow(x,4)", "a": 1.0, "b": 0.0, "theorem": "T2.1", "q": 2.0,
    }))
    code, report, _ = invoke_json(capsys, "bound", "--config", str(cfg))
    assert code == 0
    assert report["result"]["value"] == pytest.approx(0.08838834764831843, abs=1e-9)
    code, report, _ = invoke_json(capsys, "bound", "--config", str(cfg), "--q", "1")
    assert code == 0
    assert report["config"]["q"] == 1.0
    assert report["result"]["value"] == pytest.approx(0.0625, rel=1e-12)


# One run of each command.
EVERY_COMMAND = [
    ("verify-identity", "--f", "pow(x,4)", "--a", "1", "--b", "0", "--eta", "scaled:2"),
    ("bound", "--f", "exp(x)", "--a", "1", "--b", "0", "--theorem", "T3.3", "--q", "3",
     "--tight"),
    ("check-hypothesis", "--check", "invex-set", "--eta", "scaled:3", "--dom", "0", "1",
     "--sample", "0", "0.5", "--grid", "9"),
    ("integrate", "--f", "sin(x)", "--a", "2", "--b", "0", "--with-true-error"),
    ("suite", "--family", "mixed", "--trials", "4", "--seed", "3", "--grid", "9"),
    ("tournament", "--f", "exp(2*x)", "--a", "1", "--b", "0"),
    ("hh-classical", "--f", "exp(x)", "--a", "0", "--b", "1"),
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_report_config_reruns_the_command(tmp_path, capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(json.loads(out)["config"]))
    assert invoke(capsys, argv[0], "--config", str(path)) == (code, out, "")
    # Older reports hold a tolerances block in their config; such a config
    # reruns its command all the same.
    config = json.loads(out)["config"]
    config["tolerances"] = {"identity_abs": 1e-10, "ratio_slack": 1e-9, "oracle": 1e-12}
    path.write_text(json.dumps(config))
    assert invoke(capsys, argv[0], "--config", str(path)) == (code, out, "")


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_report_config_holds_the_commands_keys(capsys, argv):
    _, out, _ = invoke(capsys, *argv)
    assert list(json.loads(out)["config"]) == list(COMMANDS[argv[0]][2])


@pytest.mark.parametrize("trials", ["0", "1", "7"])
def test_suite_csv_is_its_rows_table(capsys, trials):
    argv = ("suite", "--family", "mixed", "--trials", trials, "--seed", "5", "--grid", "9")
    _, text, _ = invoke(capsys, *argv)
    rows = json.loads(text)["result"]["rows"]
    _, out, _ = invoke(capsys, *argv, "--format", "csv")
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([row[k] for k in CSV_COLUMNS] for row in rows)
    assert out == expected.getvalue()
    assert len(out.splitlines()) == 1 + int(trials) * 6


@pytest.mark.parametrize("family", ["mixed", "exp"])
def test_suite_trials_counts_trials(capsys, family):
    code, report, _ = invoke_json(capsys, "suite", "--family", family, "--trials", "9", "--grid", "9")
    res = report["result"]
    assert (code, res["trials"], len(res["rows"])) == (0, 9, 9 * 6)
    assert res["hypothesis_passed"] == sum(row["hypothesis_pass"] for row in res["rows"])


def test_emit_without_a_result():
    assert _written({"value": 1.5}) == '{"value": 1.5}'
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit({"value": 1.5}, None, "csv")
    assert out.getvalue() == "key,value\nvalue,1.5\n"


def _report_and_text(monkeypatch, capsys, argv):
    """The report object a command hands to ``_emit``, and the text printed."""
    seen = []

    def emit(report, *args, **kwargs):
        seen.append(report)
        _emit(report, *args, **kwargs)

    monkeypatch.setattr(etaquad.cli, "_emit", emit)
    _, out, _ = invoke(capsys, *argv)
    return seen[0], out


def _assert_plain_json(obj, path="report"):
    if type(obj) is Table:
        assert len({len(column) for column in obj.columns.values()}) == 1, path
        for name, column in obj.columns.items():
            assert type(column) is list, path
            _assert_plain_json(column, f"{path}.{name}")
    elif type(obj) is dict:
        for k, v in obj.items():
            assert type(k) is str, path
            _assert_plain_json(v, f"{path}.{k}")
    elif type(obj) is list:
        for i, v in enumerate(obj):
            _assert_plain_json(v, f"{path}[{i}]")
    else:
        assert type(obj) in (str, int, float, bool, type(None)), (path, type(obj))


def _line_count(obj) -> int:
    """Lines of the layout: a container of containers opens and closes on
    lines of its own; a scalar or a flat container takes one line."""
    children = list(obj.values()) if isinstance(obj, dict) else obj
    if not isinstance(obj, (dict, list)) or not any(isinstance(c, (dict, list)) for c in children):
        return 1
    return 2 + sum(_line_count(c) for c in children)


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_json_report_layout(monkeypatch, capsys, argv):
    report, out = _report_and_text(monkeypatch, capsys, argv)
    # Only plain Python values reach the writer: no numpy scalar or array, no tuple.
    _assert_plain_json(report)
    parsed = json.loads(out)
    assert parsed == json.loads(json.dumps(report, ensure_ascii=False, allow_nan=False, default=_records))
    lines = out.splitlines()
    assert len(lines) == _line_count(parsed)
    assert all((len(line) - len(line.lstrip(" "))) % 2 == 0 for line in lines)
    if argv[0] == "suite":
        rows = parsed["result"]["rows"]
        row_lines = [line for line in lines if line.startswith('      {"trial": ')]
        assert [json.loads(line.rstrip(",")) for line in row_lines] == rows
        assert len(rows) == 4 * 6
        assert '"argmax": {"trial": ' in out


# Header and line count of each command's CSV report.
CSV_SHAPE = {
    "verify-identity": ("key,value", 19),
    "bound": ("key,value", 25),
    "check-hypothesis": ("key,value", 22),
    "integrate": ("key,value", 275),
    "suite": (",".join(CSV_COLUMNS), 25),
    "tournament": ("key,value", 48),
    "hh-classical": ("key,value", 14),
}


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_csv_report_shape(capsys, argv):
    _, out, _ = invoke(capsys, *argv, "--format", "csv")
    lines = out.splitlines()
    assert (lines[0], len(lines)) == CSV_SHAPE[argv[0]]


def _records(table: Table) -> list[dict]:
    """A Table's records, as its JSON text lists them."""
    return [dict(zip(table.columns, values)) for values in zip(*table.columns.values())]


def _written(obj) -> str:
    """obj's JSON text as ``_emit`` writes it, without the final newline."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit(obj, None, "json")
    return out.getvalue()[:-1]


def test_json_writer_puts_flat_containers_on_one_line():
    report = {"a": [1, 2.5], "b": {"c": [], "d": {"e": None}}, "f": [{"g": "é"}, [True]], "h": 0}
    assert _written(report) == (
        '{\n'
        '  "a": [1, 2.5],\n'
        '  "b": {\n'
        '    "c": [],\n'
        '    "d": {"e": null}\n'
        '  },\n'
        '  "f": [\n'
        '    {"g": "é"},\n'
        '    [true]\n'
        '  ],\n'
        '  "h": 0\n'
        '}'
    )
    assert _written([]) == "[]"
    empty = Table({"x": []})
    assert _written(empty) == "[]"
    assert _written({"rows": empty}) == '{\n  "rows": []\n}'


def _row_by_row_json(obj, pad="\n"):
    """The writer's layout with every list written item by item: the
    reference for the column-by-column path of a Table."""
    one_line = etaquad.cli._one_line
    items = obj.values() if isinstance(obj, dict) else obj
    if not isinstance(obj, (dict, list)) or not any(isinstance(v, (dict, list)) for v in items):
        return one_line(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        parts = [f"{one_line(k)}: {_row_by_row_json(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    return "[" + inner + ("," + inner).join(_row_by_row_json(v, inner) for v in obj) + pad + "]"


def _as_table(rows: list) -> Table | None:
    """rows as a Table when they are flat dicts with one order of str keys."""
    keys = tuple(rows[0]) if isinstance(rows[0], dict) else ()
    if not keys or not all(isinstance(k, str) for k in keys) or not all(
        isinstance(r, dict) and tuple(r) == keys and not any(isinstance(v, (dict, list)) for v in r.values())
        for r in rows
    ):
        return None
    return Table({k: [r[k] for r in rows] for k in keys})


_FLAT_ROWS = [
    {"trial": 2**53 + 1, "x": -0.0, "y": True, "s": "é\u2028", "100%": None, 'say "%s"': 0.1 + 0.2},
    {"trial": -(2**70), "x": 0.0, "y": False, "s": 'a"b\\c\n\t\x01', "100%": None, 'say "%s"': 0.1 + 0.2},
    {"trial": 0, "x": 5e-324, "y": True, "s": "", "100%": None, 'say "%s"': 1e16},
    {"trial": 7, "x": 1e308, "y": False, "s": "%(x)s %%", "100%": None, 'say "%s"': 0.1 + 0.2},
]


@pytest.mark.parametrize(
    "rows",
    [
        _FLAT_ROWS,
        _FLAT_ROWS[:1],
        [{"x": np.float64(0.5)}, {"x": np.float64(-1e-300)}],  # float subclass
        # Mixed columns.
        [{"x": 1, "y": "a"}, {"x": 1.5, "y": None}, {"x": True, "y": 2}, {"x": False, "y": 2.0}],
        [{"t": (1, 2.5)}, {"t": ()}],
        # Not flat or not one key order: no Table, a list written row by row.
        [{"x": 1, "y": [1, 2]}, {"x": 2, "y": []}],
        [{"x": {"z": 1}}, {"x": {"z": 2}}],
        [{"x": 1}, {"x": 2}, {"x": 3}, {"x": [4]}],  # nested only in the last row
        [{"x": 1, "y": 2}, {"y": 3, "x": 4}],
        [{"x": 1}, {"x": 2, "y": 3}],
        [{"x": 1}, [1]],
        [{}, {}],
        [{1: 2.5}, {1: 3.5}],
        [collections.OrderedDict(x=1), {"x": 2}],
    ],
)
@pytest.mark.parametrize("n", [3, 4096])
def test_json_writer_writes_rows_as_row_by_row(rows, n):
    # The rows repeated to at least n records: a short table and a long one.
    rows = rows * -(-n // len(rows))
    for obj in (rows, {"rows": rows, "n": len(rows)}, [rows]):
        assert _written(obj) == _row_by_row_json(obj)
    table = _as_table(rows)
    if table is None:
        return
    assert _records(table) == rows
    for obj, reference in ((table, rows), ({"rows": table, "n": len(rows)}, {"rows": rows, "n": len(rows)}),
                           ([table], [rows])):
        assert _written(obj) == _row_by_row_json(reference)
    assert _written(table) == "[\n  " + ",\n  ".join(map(etaquad.cli._one_line, rows)) + "\n]"
    assert json.loads(_written(table)) == json.loads(json.dumps(rows))


def _suite_rows(column: str, value: float) -> Table:
    """Three suite records; record 1 holds value in column."""
    values = ("exp", -1.5, 0.25, -1.75, "T2.1", 2.0, 1e-3, 2e-3, 0.5, True)
    rows = Table(dict(zip(CSV_COLUMNS, ([0, 1, 2], *([v] * 3 for v in values)))))
    rows.columns[column][1] = value
    return rows


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("column, value", [
    ("ratio", math.inf), ("lhs", math.nan), ("a", -math.inf),
    ("b", math.nan), ("h", math.inf), ("q", math.inf), ("bound", -math.inf),
])
def test_non_finite_suite_row_is_refused_by_name(tmp_path, fmt, column, value):
    rows = _suite_rows(column, value)
    out = tmp_path / "report"
    for _ in range(2):  # no file is made, and a file already there is kept
        with pytest.raises(ValueError, match=rf"^result\.rows\.1\.{column} is {value}; "):
            _emit({"result": {"trials": 3, "rows": rows}, "passed": True}, str(out), fmt)
        assert not out.exists() or out.read_text() == "kept"
        out.write_text("kept")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("column", ["left", "right", "local_value", "local_bound"])
def test_non_finite_partition_piece_is_refused_by_name(tmp_path, fmt, column):
    partition = Table({"left": [0.0, 0.5], "right": [0.5, 1.0], "local_value": [0.25, 0.5],
                       "local_bound": [1e-3, 2e-3]})
    partition.columns[column][1] = math.nan
    out = tmp_path / "report"
    out.write_text("kept")
    with pytest.raises(ValueError, match=rf"^result\.partition\.1\.{column} is nan; "):
        _emit({"result": {"n": 2, "partition": partition}}, str(out), fmt)
    assert out.read_text() == "kept"


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = invoke(capsys, "bound", "--config", str(bad))
    assert code == 2
    code, _, err = invoke(capsys, "bound", "--config", str(tmp_path / "missing.json"))
    assert code == 2


def test_csv_flatten_for_scalar_reports(capsys):
    code, out, _ = invoke(
        capsys,
        "bound", "--f", "pow(x,3)", "--a", "1", "--b", "0",
        "--theorem", "C2.1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "result.value" in keys
    assert "command" in keys


def test_readme_command_line_block_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("etaquad ")]
    assert len(commands) == 7
    for _, *argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert run(argv) == 0, argv
    capsys.readouterr()


# --- process-level entry points ---------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "etaquad", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "etaquad 0.1.0"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _project_table():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_installed():
    """The declared console script resolves and runs as an installer's
    wrapper would run it; no install is needed, only the importable package."""
    project = _project_table()
    scripts = project.get("scripts")
    assert scripts == {"etaquad": "etaquad.cli:main"}
    assert project["version"] == etaquad.__version__
    (name, spec), = scripts.items()
    module_name, _, attr = spec.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))
    # The body of the script pip generates for a console_scripts entry point.
    wrapper = (
        "import sys\n"
        f"from {module_name} import {attr}\n"
        f"sys.argv[0] = {name!r}\n"
        f"sys.exit({attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"etaquad {project['version']}"


@pytest.mark.skipif(
    not _distribution_installed("etaquad"),
    reason="the etaquad distribution is not installed",
)
def test_installed_console_script():
    exe = shutil.which("etaquad")
    assert exe is not None
    proc = subprocess.run(
        [exe, "--version"], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "etaquad 0.1.0"
    entry_points = importlib.metadata.distribution("etaquad").entry_points
    installed = {ep.name: ep.value for ep in entry_points.select(group="console_scripts")}
    assert installed == _project_table()["scripts"]
