"""Command-line front end.

Every subcommand writes a machine-readable report (JSON by default, CSV on
request) that embeds the fully resolved configuration and the package
version, so a report file alone is enough to rerun the computation.  Key
order in JSON output is fixed; the same argv and seed produce byte-
identical files.

Exit codes: 0 pass/success, 1 detected violation or failed check, 2
usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .bounds import BoundSpec, DerivativeData, THEOREM_ORDER, bound
from .expr import DomainError, ParseError, parse
from .harness import (
    CSV_COLUMNS,
    FAMILIES,
    Instance,
    check_hh_classical,
    run_inequality_suite,
    tournament,
)
from .identity import PathSegment, verify_identity
from .invex import (
    DifferenceMap,
    Domain,
    EtaMapError,
    PiecewiseSignMap,
    ScaledMap,
    check_invex_set,
    check_preinvex,
    check_prequasiinvex,
    eta_eval,
    eta_from_json,
)
from .quadrature import BudgetError, integrate_certified, true_error
from .simpson import ConvergenceError

DEFAULT_TOLERANCES = {
    "identity_abs": 1e-10,
    "ratio_slack": 1e-9,
    "oracle": 1e-12,
}

_FAMILY_CHOICES = tuple(FAMILIES) + ("mixed",)


class UsageError(Exception):
    """Bad flag/config values detected after argparse; exits with 2."""


def _parse_eta(text):
    if text == "difference":
        return DifferenceMap()
    if text == "paper_piecewise":
        return PiecewiseSignMap()
    if text.startswith("scaled:"):
        try:
            return ScaledMap(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise UsageError(f"bad scaled map: {exc}")
    if text.lstrip().startswith("{"):
        try:
            return eta_from_json(json.loads(text))
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise UsageError(f"bad eta JSON: {exc}")
    raise UsageError(
        f"unknown eta {text!r}: use difference | paper_piecewise | scaled:<lam> | a JSON object"
    )


def _parse_function(text):
    try:
        return parse(text)
    except ParseError as exc:
        raise UsageError(f"bad expression: {exc}")


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialise."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _report(command: str, config: dict, result: dict, passed: bool) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": _plain(config),
        "result": _plain(result),
        "passed": passed,
    }


def _emit(report: dict, out: str | None, fmt: str, csv_rows=None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        if csv_rows is not None:
            writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
            writer.writeheader()
            for row in csv_rows:
                writer.writerow(row)
        else:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["key", "value"])
            for key, value in _flatten(report):
                writer.writerow([key, value])
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _resolve(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """Flag value if given, else config-file value, else the flag default."""
    file_cfg = _load_config(getattr(args, "config", None))
    resolved = {}
    for key in keys:
        flag_val = getattr(args, key.replace("-", "_"), None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = None
    return resolved


def _require(cfg: dict, *keys: str) -> None:
    flag = {"function": "--f"}
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        names = ", ".join(flag.get(k, "--" + k) for k in missing)
        raise UsageError(f"missing required option(s): {names}")


def _eta_obj(cfg: dict):
    raw = cfg.get("eta") or "difference"
    if isinstance(raw, dict):
        try:
            emap = eta_from_json(raw)
        except (KeyError, ValueError) as exc:
            raise UsageError(f"bad eta config: {exc}")
    else:
        emap = _parse_eta(str(raw))
    cfg["eta"] = emap.to_json()
    return emap


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (exit_code, report, csv_rows).


def _cmd_verify_identity(args):
    cfg = _resolve(args, ("function", "eta", "a", "b", "tol", "format", "out"))
    _require(cfg, "function", "a", "b")
    emap = _eta_obj(cfg)
    f = _parse_function(cfg["function"])
    tol = cfg["tol"] if cfg["tol"] is not None else DEFAULT_TOLERANCES["identity_abs"]
    cfg["tol"] = tol
    try:
        seg = PathSegment.from_eta(emap, float(cfg["a"]), float(cfg["b"]))
        rep = verify_identity(f, seg, tol=tol)
    except (ValueError, ConvergenceError) as exc:
        raise UsageError(str(exc))
    result = rep.to_json()
    result["eta_ab"] = seg.h
    result["eta_ba"] = float(eta_eval(emap, float(cfg["b"]), float(cfg["a"])))
    return (0 if rep.passed else 1), cfg, result, rep.passed


def _cmd_bound(args):
    cfg = _resolve(args, ("function", "eta", "a", "b", "theorem", "q", "tight", "format", "out"))
    _require(cfg, "function", "a", "b", "theorem")
    emap = _eta_obj(cfg)
    f = _parse_function(cfg["function"])
    q = float(cfg["q"]) if cfg["q"] is not None else 1.0
    cfg["q"] = q
    tight = bool(cfg["tight"])
    cfg["tight"] = tight
    try:
        spec = BoundSpec(str(cfg["theorem"]), q)
        a, b = float(cfg["a"]), float(cfg["b"])
        seg = PathSegment.from_eta(emap, a, b)
        data = DerivativeData.from_function(f, a, b)
        bv = bound(spec, seg.h, data, tight=tight)
    except (ValueError, DomainError) as exc:
        raise UsageError(str(exc))
    result = bv.to_json()
    result["h"] = seg.h
    result["eta_ba"] = float(eta_eval(emap, b, a))
    result["a3"] = data.a3
    result["b3"] = data.b3
    return 0, cfg, result, True


def _cmd_check_hypothesis(args):
    cfg = _resolve(
        args, ("check", "function", "eta", "dom", "sample", "grid", "tol", "format", "out")
    )
    _require(cfg, "check", "dom")
    emap = _eta_obj(cfg)
    grid_n = int(cfg["grid"]) if cfg["grid"] is not None else 65
    cfg["grid"] = grid_n
    lo, hi = (float(v) for v in cfg["dom"])
    dom = Domain(lo, hi)
    kind = str(cfg["check"])
    try:
        if kind == "invex-set":
            sample = None
            if cfg["sample"] is not None:
                s_lo, s_hi = (float(v) for v in cfg["sample"])
                sample = Domain(s_lo, s_hi)
            tol = cfg["tol"] if cfg["tol"] is not None else 1e-12
            cfg["tol"] = tol
            rep = check_invex_set(emap, dom, grid_n=grid_n, sample=sample, tol=tol)
        else:
            _require(cfg, "function")
            f = _parse_function(cfg["function"])
            tol = cfg["tol"] if cfg["tol"] is not None else DEFAULT_TOLERANCES["ratio_slack"]
            cfg["tol"] = tol
            if kind == "preinvex":
                rep = check_preinvex(f, emap, dom, grid_n=grid_n, tol=tol)
            elif kind == "prequasiinvex":
                rep = check_prequasiinvex(f, emap, dom, grid_n=grid_n, tol=tol)
            else:
                raise UsageError(f"unknown check {kind!r}")
    except (EtaMapError, DomainError, ValueError) as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(str(exc))
    return (0 if rep.passed else 1), cfg, rep.to_json(), rep.passed


def _cmd_integrate(args):
    cfg = _resolve(
        args,
        ("function", "eta", "a", "b", "mode", "target", "fixed-n", "with-true-error", "format", "out"),
    )
    _require(cfg, "function", "a", "b")
    emap = _eta_obj(cfg)
    f = _parse_function(cfg["function"])
    mode = str(cfg["mode"]) if cfg["mode"] is not None else "hypothesis"
    cfg["mode"] = mode
    if cfg["target"] is None and cfg["fixed-n"] is None:
        cfg["fixed-n"] = 64
    try:
        seg = PathSegment.from_eta(emap, float(cfg["a"]), float(cfg["b"]))
        result_obj = integrate_certified(
            f,
            seg,
            mode=mode,
            target=cfg["target"],
            fixed_n=cfg["fixed-n"],
        )
        result = result_obj.to_json()
        if cfg["with-true-error"]:
            result["true_error"] = true_error(f, result_obj, tol=DEFAULT_TOLERANCES["oracle"])
    except (ValueError, DomainError) as exc:
        raise UsageError(str(exc))
    except (BudgetError, ConvergenceError) as exc:
        print(f"etaquad integrate: {exc}", file=sys.stderr)
        return 1, cfg, {"error": str(exc)}, False
    return 0, cfg, result, True


def _suite_specs(cfg) -> list[BoundSpec]:
    theorems = cfg["theorems"] if cfg["theorems"] is not None else ",".join(THEOREM_ORDER)
    cfg["theorems"] = theorems
    q = float(cfg["q"]) if cfg["q"] is not None else 2.0
    cfg["q"] = q
    try:
        return [BoundSpec(name.strip(), q) for name in str(theorems).split(",") if name.strip()]
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_suite(args):
    cfg = _resolve(
        args, ("family", "theorems", "q", "trials", "seed", "grid", "format", "out")
    )
    family = str(cfg["family"]) if cfg["family"] is not None else "poly6"
    cfg["family"] = family
    if family not in _FAMILY_CHOICES:
        raise UsageError(f"unknown family {family!r}; choose from {', '.join(_FAMILY_CHOICES)}")
    trials = int(cfg["trials"]) if cfg["trials"] is not None else 100
    cfg["trials"] = trials
    seed = int(cfg["seed"]) if cfg["seed"] is not None else 0
    cfg["seed"] = seed
    grid_n = int(cfg["grid"]) if cfg["grid"] is not None else 65
    cfg["grid"] = grid_n
    specs = _suite_specs(cfg)
    report = run_inequality_suite(family, specs, trials=trials, seed=seed, grid_n=grid_n)
    passed = report.violations == 0
    csv_rows = [row.to_json() for row in report.rows]
    return (0 if passed else 1), cfg, report.to_json(), passed, csv_rows


def _cmd_tournament(args):
    cfg = _resolve(args, ("function", "eta", "a", "b", "q-grid", "grid", "format", "out"))
    _require(cfg, "function", "a", "b")
    emap = _eta_obj(cfg)
    f = _parse_function(cfg["function"])
    grid_n = int(cfg["grid"]) if cfg["grid"] is not None else 65
    cfg["grid"] = grid_n
    raw = cfg["q-grid"] if cfg["q-grid"] is not None else "1,2,4"
    cfg["q-grid"] = raw
    if isinstance(raw, str):
        try:
            q_grid = [float(v) for v in raw.split(",") if v.strip()]
        except ValueError as exc:
            raise UsageError(f"bad q grid: {exc}")
    else:
        q_grid = [float(v) for v in raw]
    if not q_grid:
        raise UsageError("q grid is empty")
    inst = Instance(f, emap, float(cfg["a"]), float(cfg["b"]))
    try:
        rows = tournament(inst, q_grid, grid_n=grid_n)
    except (ValueError, DomainError, ConvergenceError) as exc:
        raise UsageError(str(exc))
    return 0, cfg, {"rows": rows}, True


def _cmd_hh_classical(args):
    cfg = _resolve(args, ("function", "a", "b", "grid", "tol", "format", "out"))
    _require(cfg, "function", "a", "b")
    f = _parse_function(cfg["function"])
    grid_n = int(cfg["grid"]) if cfg["grid"] is not None else 65
    cfg["grid"] = grid_n
    tol = cfg["tol"] if cfg["tol"] is not None else DEFAULT_TOLERANCES["ratio_slack"]
    cfg["tol"] = tol
    try:
        rep = check_hh_classical(f, float(cfg["a"]), float(cfg["b"]), grid_n=grid_n, tol=tol)
    except (ValueError, ConvergenceError, DomainError) as exc:
        raise UsageError(str(exc))
    return (0 if rep.passed else 1), cfg, rep.to_json(), rep.passed


# ---------------------------------------------------------------------------
# Argument wiring.


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default=None, help="report format")


def _add_segment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", dest="function", help="expression in x (or t)")
    p.add_argument("--a", type=float, help="endpoint fed to eta(a, b)")
    p.add_argument("--b", type=float, help="base point of the path")
    p.add_argument(
        "--eta",
        default=None,
        help="difference | paper_piecewise | scaled:<lam> | JSON object (default difference)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaquad",
        description="Corrected-trapezoid identities, bounds, certified quadrature, and campaigns.",
    )
    parser.add_argument("--version", action="version", version=f"etaquad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identity", help="check both sides of the remainder identity")
    _add_segment_flags(p)
    p.add_argument("--tol", type=float, help="absolute comparison tolerance (default 1e-10)")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_identity)

    p = sub.add_parser("bound", help="evaluate one closed-form remainder bound")
    _add_segment_flags(p)
    p.add_argument("--theorem", help="T2.1 T2.2 T2.3 T3.1 T3.2 T3.3 C2.1 C2.2 C2.3 C2.4")
    p.add_argument("--q", type=float, help="exponent q (default 1)")
    p.add_argument("--tight", action="store_const", const=True, default=None,
                   help="use the sharpened T3.3 constant")
    _add_common(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("check-hypothesis", help="grid-sampled invexity/chord checks")
    p.add_argument("--check", choices=("invex-set", "preinvex", "prequasiinvex"))
    _add_segment_flags(p)
    p.add_argument("--dom", type=float, nargs=2, metavar=("LO", "HI"), help="domain interval")
    p.add_argument("--sample", type=float, nargs=2, metavar=("LO", "HI"),
                   help="endpoint sampling box (invex-set only)")
    p.add_argument("--grid", type=int, help="points per axis (default 65)")
    p.add_argument("--tol", type=float, help="slack tolerance")
    _add_common(p)
    p.set_defaults(handler=_cmd_check_hypothesis)

    p = sub.add_parser("integrate", help="composite corrected-trapezoid with certificate")
    _add_segment_flags(p)
    p.add_argument("--mode", choices=("hypothesis", "sup"), help="certificate mode")
    p.add_argument("--target", type=float, help="adaptive certificate target")
    p.add_argument("--fixed-n", dest="fixed_n", type=int, help="uniform subinterval count")
    p.add_argument("--with-true-error", dest="with_true_error", action="store_const",
                   const=True, default=None, help="also report the oracle error")
    _add_common(p)
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("suite", help="seeded inequality campaign over a family")
    p.add_argument("--family", choices=_FAMILY_CHOICES, default=None)
    p.add_argument("--theorems", help="comma list of bound selectors (default all six T*)")
    p.add_argument("--q", type=float, help="exponent for every selector (default 2)")
    p.add_argument("--trials", type=int, help="instance count (default 100)")
    p.add_argument("--seed", type=int, help="campaign seed (default 0)")
    p.add_argument("--grid", type=int, help="hypothesis grid points (default 65)")
    _add_common(p)
    p.set_defaults(handler=_cmd_suite)

    p = sub.add_parser("tournament", help="compare all six bounds across a q grid")
    _add_segment_flags(p)
    p.add_argument("--q-grid", dest="q_grid", help="comma list of q values (default 1,2,4)")
    p.add_argument("--grid", type=int, help="hypothesis grid points (default 65)")
    _add_common(p)
    p.set_defaults(handler=_cmd_tournament)

    p = sub.add_parser("hh-classical", help="midpoint/mean/endpoint chain for f on [a, b]")
    p.add_argument("--f", dest="function", help="expression in x (or t)")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--grid", type=int, help="oracle refinement control (default 65)")
    p.add_argument("--tol", type=float, help="relative tolerance (default 1e-9)")
    _add_common(p)
    p.set_defaults(handler=_cmd_hh_classical)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        outcome = args.handler(args)
    except UsageError as exc:
        print(f"etaquad {args.command}: {exc}", file=sys.stderr)
        return 2
    if len(outcome) == 5:
        code, cfg, result, passed, csv_rows = outcome
    else:
        code, cfg, result, passed = outcome
        csv_rows = None
    cfg["tolerances"] = dict(DEFAULT_TOLERANCES)
    fmt = cfg.get("format") or "json"
    cfg["format"] = fmt
    report = _report(args.command, cfg, result, passed)
    _emit(report, cfg.get("out"), fmt, csv_rows=csv_rows)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
