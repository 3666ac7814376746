"""Command-line front end.

Every subcommand writes a machine-readable report (JSON by default, CSV on
request) that embeds the fully resolved configuration and the package
version, so a report file alone is enough to rerun the computation.  Key
order in JSON output is fixed; the same argv and seed produce byte-
identical files.  JSON is indented by 2, except that a dict or list
holding no dict or list takes one line, so each suite row is one line.
A list of such dicts is converted column by column, to the same bytes.

Each option is declared once, in ``OPTIONS``, and each command once, in
``COMMANDS``.  A key's value is its flag if given, else its value in the
``--config`` file, else its default.

Exit codes: 0 when the report's ``passed`` is true, 1 when it is false
(a detected violation or failed check), 2 on a usage or configuration
error, or a report holding a NaN or inf (no report is written then).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from . import __version__
from .bounds import SELECTORS, THEOREM_ORDER, BoundSpec, DerivativeData, bound
from .expr import ParseError, parse
from .harness import (
    CSV_COLUMNS,
    FAMILIES,
    RATIO_SLACK,
    Instance,
    check_hh_classical,
    run_inequality_suite,
    tournament,
)
from .identity import ABS_TOL, PathSegment, verify_identity
from .invex import CHORD_TOL, DEFAULT_GRID, ETA_SPELLINGS, SET_TOL, Domain, EtaMapError, eta_from_json
from .invex import check_invex_set, check_preinvex, check_prequasiinvex
from .quadrature import MODES, BudgetError, integrate_certified, true_error
from .simpson import TOL, ConvergenceError

DEFAULT_TOLERANCES = {
    "identity_abs": ABS_TOL,
    "ratio_slack": RATIO_SLACK,
    "oracle": TOL,
}


class UsageError(ValueError):
    """Bad flag/config values detected after argparse; exits with 2."""


def _eta_obj(cfg: dict):
    """The direction map cfg["eta"] names; the report keeps its JSON form."""
    try:
        emap = eta_from_json(cfg["eta"])
    except ValueError as exc:
        raise UsageError(f"bad eta: {exc}")
    cfg["eta"] = emap.to_json()
    return emap


def _segment(cfg: dict):
    """The expression and segment cfg names, and eta(b, a) or None if uncovered."""
    emap = _eta_obj(cfg)
    f = parse(cfg["function"])
    try:
        eta_ba = float(emap(cfg["b"], cfg["a"]))
    except EtaMapError:
        eta_ba = None
    return f, PathSegment.from_eta(emap, cfg["a"], cfg["b"]), eta_ba


# One line of JSON from the C encoder; NaN and inf raise ValueError.
_one_line = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode
_SCALAR_TEXT = {float: float.__repr__, int: int.__repr__, bool: {True: "true", False: "false"}.get}
_ROW_BLOCK = 4096  # rows converted at once; larger blocks raise the writer's peak resident memory


def _column_text(values: tuple, kinds: set) -> list[str]:
    """Each value's JSON text, converting each distinct object once (rows share a, b, h, lhs)."""
    to_text = _SCALAR_TEXT.get(next(iter(kinds))) if len(kinds) == 1 else None
    unique = dict(zip(map(id, values), values))
    if to_text is float.__repr__ and not all(map(math.isfinite, unique.values())):
        raise ValueError("a report holds finite numbers only")
    text = dict(zip(unique, map(to_text or _one_line, unique.values())))
    return list(map(text.__getitem__, map(id, values)))


def _flat_rows(rows: list) -> list[str] | None:
    """One line per row of a list of flat dicts that share one key order,
    written column by column; None for any other list."""
    keys = tuple(rows[0]) if set(map(type, rows)) == {dict} else ()
    if not keys or set(map(type, keys)) != {str} or not all(map(keys.__eq__, map(tuple, rows))):
        return None
    template = "{%s}" % ", ".join(_one_line(k).replace("%", "%%") + ": %s" for k in keys)
    lines = []
    for start in range(0, len(rows), _ROW_BLOCK):
        columns = list(zip(*map(dict.values, rows[start : start + _ROW_BLOCK])))
        kinds = [set(map(type, column)) for column in columns]
        if any(issubclass(kind, (dict, list)) for kind in set().union(*kinds)):
            return None
        lines += map(template.__mod__, zip(*map(_column_text, columns, kinds)))
    return lines


def _json(obj, pad: str = "\n") -> str:
    """JSON text indented by 2, except that a dict or list holding no dict
    or list is written on one line (a suite row, say)."""
    is_dict = isinstance(obj, dict)
    items = obj.values() if is_dict else obj
    if not isinstance(obj, (dict, list)) or not any(isinstance(v, (dict, list)) for v in items):
        return _one_line(obj)
    inner = pad + "  "
    if is_dict:
        parts = [f"{_one_line(k)}: {_json(v, inner)}" for k, v in obj.items()]
    else:
        parts = _flat_rows(obj) or [_json(v, inner) for v in obj]
    brackets = "{}" if is_dict else "[]"
    return brackets[0] + inner + ("," + inner).join(parts) + pad + brackets[1]


def _emit(report: dict, out: str | None, fmt: str, csv_rows=None) -> None:
    """Write the report; a NaN or inf in it is a ValueError that names its
    key, raised before anything is written."""
    if fmt == "json":
        try:
            text = _json(report) + "\n"
        except ValueError:  # the encoder refuses NaN and inf
            _refuse_non_finite(report)
            raise
    else:
        _refuse_non_finite(report)
        buf = io.StringIO()
        if csv_rows is not None:
            writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(csv_rows)
        else:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["key", "value"])
            writer.writerows(_flatten(report))
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse_non_finite(report: dict) -> None:
    for key, value in _flatten(report):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} is {value}; a report holds finite numbers only")


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def tolerance(text: str) -> float:
    """A finite nonnegative number; argparse names this function in a refusal."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise ValueError(text)
    return value


def _flag_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _from_file(key: str, raw):
    """A config-file value, converted and checked as the flag's text would be."""
    kwargs = OPTIONS[key][1]
    convert = kwargs.get("type", str)
    try:
        if kwargs.get("action") == "store_const":
            valid, value = isinstance(raw, bool), raw
        elif "nargs" in kwargs:
            valid = isinstance(raw, list) and len(raw) == kwargs["nargs"]
            value = [convert(_flag_text(v)) for v in raw] if valid else raw
        else:
            value = convert(_flag_text(raw))
            valid = "choices" not in kwargs or value in kwargs["choices"]
    except ValueError:
        valid = False
    if not valid:
        raise UsageError(f"bad value for config key {key!r}: {raw!r}")
    return value


def _require(cfg: dict, keys) -> None:
    missing = [OPTIONS[k][0] for k in keys if cfg[k] in (None, REQUIRED)]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Flag value if given, else config-file value, else the table default."""
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise UsageError(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
    # A report's config also records the fixed tolerances; it reruns as is.
    unknown = [k for k in file_cfg if k not in defaults and k != "tolerances"]
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    cfg = {}
    for key, default in defaults.items():
        value = getattr(args, key.replace("-", "_"))
        if value is None and file_cfg.get(key) is not None:
            value = _from_file(key, file_cfg[key])
        cfg[key] = default if value is None else value
    _require(cfg, [k for k, default in defaults.items() if default is REQUIRED])
    return cfg


# ---------------------------------------------------------------------------
# Subcommand handlers: (cfg) -> (result, passed, csv_rows).


def _cmd_verify_identity(cfg):
    f, seg, eta_ba = _segment(cfg)
    rep = verify_identity(f, seg, tol=cfg["tol"])
    result = rep.to_json()
    result["eta_ab"] = seg.h
    result["eta_ba"] = eta_ba
    return result, rep.passed, None


def _cmd_bound(cfg):
    f, seg, eta_ba = _segment(cfg)
    spec = BoundSpec(cfg["theorem"], cfg["q"])
    data = DerivativeData.from_function(f, cfg["a"], cfg["b"])
    result = bound(spec, seg.h, data, tight=cfg["tight"]).to_json()
    result.update(h=seg.h, eta_ba=eta_ba, a3=data.a3, b3=data.b3)
    return result, True, None


def _cmd_check_hypothesis(cfg):
    emap = _eta_obj(cfg)
    dom = Domain(*cfg["dom"])
    if cfg["tol"] is None:
        cfg["tol"] = SET_TOL if cfg["check"] == "invex-set" else CHORD_TOL
    if cfg["check"] == "invex-set":
        sample = Domain(*cfg["sample"]) if cfg["sample"] else None
        rep = check_invex_set(emap, dom, grid_n=cfg["grid"], sample=sample, tol=cfg["tol"])
    else:
        _require(cfg, ["function"])
        f = parse(cfg["function"])
        check = check_preinvex if cfg["check"] == "preinvex" else check_prequasiinvex
        rep = check(f, emap, dom, grid_n=cfg["grid"], tol=cfg["tol"])
    return rep.to_json(), rep.passed, None


def _cmd_integrate(cfg):
    f, seg, _ = _segment(cfg)
    if cfg["target"] is None and cfg["fixed-n"] is None:
        cfg["fixed-n"] = 64
    try:
        result_obj = integrate_certified(
            f, seg, mode=cfg["mode"], target=cfg["target"], fixed_n=cfg["fixed-n"]
        )
        result = result_obj.to_json()
        if cfg["with-true-error"]:
            result["true_error"] = true_error(f, result_obj)
    except (BudgetError, ConvergenceError) as exc:
        print(f"etaquad integrate: {exc}", file=sys.stderr)
        return {"error": str(exc)}, False, None
    return result, True, None


def _cmd_suite(cfg):
    specs = [BoundSpec(name.strip(), cfg["q"]) for name in cfg["theorems"].split(",") if name.strip()]
    report = run_inequality_suite(
        cfg["family"], specs, trials=cfg["trials"], seed=cfg["seed"], grid_n=cfg["grid"]
    )
    result = report.to_json()
    return result, report.violations == 0, result["rows"]


def _cmd_tournament(cfg):
    emap = _eta_obj(cfg)
    f = parse(cfg["function"])
    try:
        q_grid = [float(v) for v in cfg["q-grid"].split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad q grid: {exc}")
    if not q_grid:
        raise UsageError("q grid is empty")
    rows = tournament(Instance(f, emap, cfg["a"], cfg["b"]), q_grid, grid_n=cfg["grid"])
    return {"rows": rows}, True, None


def _cmd_hh_classical(cfg):
    f = parse(cfg["function"])
    rep = check_hh_classical(f, cfg["a"], cfg["b"], tol=cfg["tol"])
    return rep.to_json(), rep.passed, None


# ---------------------------------------------------------------------------
# The option table.  A config key is its flag without "--" (``function``
# for ``--f``); every command also takes ``--config``, which is no key.
# OPTIONS order is the flag order in every usage line.

REQUIRED = object()

OPTIONS = {
    "check": ("--check", {"choices": ("invex-set", "preinvex", "prequasiinvex"),
                          "help": "which hypothesis to check"}),
    "function": ("--f", {"help": "expression in x (or t)"}),
    "a": ("--a", {"type": float, "help": "endpoint a; paths run from b by eta(a, b)"}),
    "b": ("--b", {"type": float, "help": "endpoint b, the base point of the path"}),
    "eta": ("--eta", {"help": ETA_SPELLINGS}),
    "dom": ("--dom", {"type": float, "nargs": 2, "metavar": ("LO", "HI"),
                      "help": "domain interval"}),
    "sample": ("--sample", {"type": float, "nargs": 2, "metavar": ("LO", "HI"),
                            "help": "endpoint sampling box (invex-set only)"}),
    "mode": ("--mode", {"choices": MODES,
                        "help": "certificate mode: sup (an interval enclosure of f''') or "
                                "hypothesis (trusts |f'''| preinvex; reads the endpoints only)"}),
    "target": ("--target", {"type": float, "help": "adaptive certificate target"}),
    "fixed-n": ("--fixed-n", {"type": int, "help": "uniform subinterval count"}),
    "with-true-error": ("--with-true-error", {"action": "store_const", "const": True,
                                              "help": "also report the oracle error"}),
    "family": ("--family", {"choices": tuple(FAMILIES) + ("mixed",), "help": "instance family"}),
    "theorems": ("--theorems", {"help": "comma list of bound selectors"}),
    "theorem": ("--theorem", {"help": " ".join(SELECTORS)}),
    "q": ("--q", {"type": float, "help": "exponent q"}),
    "tight": ("--tight", {"action": "store_const", "const": True,
                          "help": "use the sharpened T3.3 constant"}),
    "trials": ("--trials", {"type": int, "help": "instance count"}),
    "seed": ("--seed", {"type": int, "help": "campaign seed"}),
    "q-grid": ("--q-grid", {"help": "comma list of q values"}),
    "grid": ("--grid", {"type": int, "help": "grid points per axis of the sampled checks"}),
    "tol": ("--tol", {"type": tolerance, "help": "comparison tolerance"}),
    "config": ("--config", {"help": "JSON config file; flags override its values"}),
    "out": ("--out", {"help": "write the report here instead of stdout"}),
    "format": ("--format", {"choices": ("json", "csv"), "help": "report format"}),
}

_SEGMENT = {"function": REQUIRED, "eta": "difference", "a": REQUIRED, "b": REQUIRED}
_OUTPUT = {"format": "json", "out": None}

# command -> (handler, help, {key: default | REQUIRED}); key order is the
# order of the report's config.
COMMANDS = {
    "verify-identity": (
        _cmd_verify_identity, "check both sides of the remainder identity",
        {**_SEGMENT, "tol": ABS_TOL, **_OUTPUT},
    ),
    "bound": (
        _cmd_bound, "evaluate one closed-form remainder bound",
        {**_SEGMENT, "theorem": REQUIRED, "q": 1.0, "tight": False, **_OUTPUT},
    ),
    "check-hypothesis": (
        _cmd_check_hypothesis, "grid-sampled invexity/chord checks",
        # tol: the handler picks SET_TOL for invex-set, else CHORD_TOL.
        {"check": REQUIRED, "function": None, "eta": "difference", "dom": REQUIRED,
         "sample": None, "grid": DEFAULT_GRID, "tol": None, **_OUTPUT},
    ),
    "integrate": (
        _cmd_integrate, "composite corrected-trapezoid with certificate",
        {**_SEGMENT, "mode": MODES[0], "target": None, "fixed-n": None,
         "with-true-error": None, **_OUTPUT},
    ),
    "suite": (
        _cmd_suite, "seeded inequality campaign over a family",
        {"family": "poly6", "theorems": ",".join(THEOREM_ORDER), "q": 2.0, "trials": 100,
         "seed": 0, "grid": DEFAULT_GRID, **_OUTPUT},
    ),
    "tournament": (
        _cmd_tournament, "compare all six bounds across a q grid",
        {**_SEGMENT, "q-grid": "1,2,4", "grid": DEFAULT_GRID, **_OUTPUT},
    ),
    "hh-classical": (
        _cmd_hh_classical, "midpoint/mean/endpoint chain for f on [a, b]",
        {"function": REQUIRED, "a": REQUIRED, "b": REQUIRED, "tol": CHORD_TOL, **_OUTPUT},
    ),
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser."""
    parser = argparse.ArgumentParser(
        prog="etaquad",
        description="Corrected-trapezoid identities, bounds, certified quadrature, and campaigns.",
    )
    parser.add_argument("--version", action="version", version=f"etaquad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (_, help_text, defaults) in COMMANDS.items():
        p = commands[command] = sub.add_parser(command, help=help_text)
        for key, (flag, kwargs) in OPTIONS.items():
            if key not in defaults and key != "config":
                continue
            default = defaults.get(key)
            shown = ""
            if default is not None and default is not REQUIRED and "action" not in kwargs:
                shown = f" (default {default})"
            p.add_argument(
                flag, dest=key.replace("-", "_"), **{**kwargs, "help": kwargs["help"] + shown}
            )
    return parser, commands


def run(argv: list[str]) -> int:
    parser, commands = _build_parser()
    start = next((i for i, token in enumerate(argv) if token in COMMANDS), 0)
    stray = [token for token in argv[:start] if token != "-h" and not (
        len(token) > 2 and ("--help".startswith(token) or "--version".startswith(token)))]
    if stray:  # else argparse would take the token after an unknown flag for the command
        parser.error(f"unrecognized arguments: {' '.join(stray)}")
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    handler, _, defaults = COMMANDS[args.command]
    try:
        cfg = _resolve(args, defaults)
        result, passed, csv_rows = handler(cfg)
        cfg["tolerances"] = dict(DEFAULT_TOLERANCES)
        report = {"command": args.command, "version": __version__, "config": cfg,
                  "result": result, "passed": passed}
        _emit(report, cfg["out"], cfg["format"], csv_rows=csv_rows)
    except (ValueError, ConvergenceError) as exc:  # UsageError, ParseError, DomainError, ...
        what = "bad expression: " if isinstance(exc, ParseError) else ""
        print(f"etaquad {args.command}: {what}{exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
