"""Command-line front end.

Every subcommand writes a machine-readable report (JSON by default, CSV on
request) that embeds the package version and, as ``config``, each option
of its command as resolved, so a report file alone is enough to rerun the
computation.  Key order in JSON output is fixed; the same argv and seed
produce byte-identical files.  JSON is indented by 2, except that a dict
or list holding no dict or list takes one line, as does each record of a
``Table`` (suite rows, a partition), written column by column.  A CSV
report is a suite's rows, or else one key,value line per value.

Each option is declared once, in ``OPTIONS``, and each command once, in
``COMMANDS``.  A key's value is its flag if given, else its value in the
``--config`` file, else its default.

Exit codes: 0 when the report's ``passed`` is true, 1 when it is false
(a detected violation or failed check), 2 on a usage or configuration
error, or a report holding a NaN or inf (no report is written then).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import sys

from . import __version__
from .bounds import SELECTORS, THEOREM_ORDER, BoundSpec, DerivativeData, bound
from .expr import ParseError, parse
from .harness import FAMILIES, Instance, check_hh_classical, run_inequality_suite, tournament
from .identity import ABS_TOL, PathSegment, Table, verify_identity
from .invex import CHORD_TOL, DEFAULT_GRID, ETA_SPELLINGS, SET_TOL, Domain, EtaMapError, eta_from_json
from .invex import check_invex_set, check_preinvex, check_prequasiinvex
from .quadrature import MODES, BudgetError, integrate_certified, true_error
from .simpson import ConvergenceError


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
# JSON text by the one type of a table column; any other column uses the encoder.
_TEXT = {float: float.__repr__, int: int.__repr__, str: json.encoder.encode_basestring,
         bool: {True: "true", False: "false"}.__getitem__}


def _table_lines(table: Table, pad: str):
    """A non-empty table as a JSON list of one line per record, made lazily
    column by column; a ValueError at once if it holds a NaN or inf."""
    texts = []
    for column in table.columns.values():
        kinds = set(map(type, column))
        to_text = _TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if to_text is None:
            _one_line(column)  # the encoder refuses NaN and inf
        elif to_text is float.__repr__ and not all(map(math.isfinite, column)):
            raise ValueError("a report holds finite numbers only")
        texts.append(map(to_text or _one_line, column))
    inner = pad + "  "
    template = "{%s}" % ", ".join(_one_line(k).replace("%", "%%") + ": %s" for k in table.columns)
    records = zip(*texts)
    first = template % next(records)
    rest = map(("," + inner + template).__mod__, records)
    return itertools.chain(("[", inner, first), rest, (pad, "]"))


def _json(obj, tables: list, pad: str = "\n") -> str:
    """JSON text indented by 2, except that a dict or list holding no dict,
    list or Table takes one line.  A non-empty Table is a NUL, which the
    encoder never writes; ``_emit`` writes its lines, added to ``tables``."""
    if isinstance(obj, Table):
        if not len(obj):
            return "[]"
        tables.append(_table_lines(obj, pad))
        return "\0"
    is_dict = isinstance(obj, dict)
    items = obj.values() if is_dict else obj
    if not isinstance(obj, (dict, list)) or not any(isinstance(v, (dict, list, Table)) for v in items):
        return _one_line(obj)
    inner = pad + "  "
    if is_dict:
        parts = [f"{_one_line(k)}: {_json(v, tables, inner)}" for k, v in obj.items()]
    else:
        parts = [_json(v, tables, inner) for v in obj]
    brackets = "{}" if is_dict else "[]"
    return brackets[0] + inner + ("," + inner).join(parts) + pad + brackets[1]


def _emit(report: dict, out: str | None, fmt: str) -> None:
    """Write the report, in CSV its ``result.rows`` if that is a Table; a
    NaN or inf in it is a ValueError that names its key, raised before
    anything is written."""
    tables = []
    try:  # the JSON text refuses a NaN or inf, so this checks either format
        head, *tails = (_json(report, tables) + "\n").split("\0")
    except ValueError:
        for key, value in _flatten(report):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} is {value}; a report holds finite numbers only")
        raise
    sink = open(out, "w", encoding="utf-8", newline="") if out else contextlib.nullcontext(sys.stdout)
    with sink as fh:
        if fmt == "json":
            fh.write(head)
            for lines, tail in zip(tables, tails):
                fh.writelines(lines)
                fh.write(tail)
        else:  # a suite's rows table, or else a key,value line per value
            writer = csv.writer(fh, lineterminator="\n")
            rows = report.get("result", {}).get("rows")
            if isinstance(rows, Table):
                writer.writerow(rows.columns)
                writer.writerows(zip(*rows.columns.values()))
            else:
                writer.writerow(["key", "value"])
                writer.writerows(_flatten(report))


def _flatten(obj, prefix=""):
    """(dotted key, value) of each value; a table's keys count its records."""
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(obj, Table):
        for i, record in enumerate(zip(*obj.columns.values())):
            yield from ((f"{prefix}{i}.{name}", v) for name, v in zip(obj.columns, record))
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
    # Older reports also hold a "tolerances" block in their config; it is
    # skipped, so that every report's config reruns its command.
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
# Subcommand handlers: (cfg) -> (result, passed).


def _cmd_verify_identity(cfg):
    f, seg, eta_ba = _segment(cfg)
    rep = verify_identity(f, seg, tol=cfg["tol"])
    result = rep.to_json()
    result["eta_ab"] = seg.h
    result["eta_ba"] = eta_ba
    return result, rep.passed


def _cmd_bound(cfg):
    f, seg, eta_ba = _segment(cfg)
    spec = BoundSpec(cfg["theorem"], cfg["q"])
    data = DerivativeData.from_function(f, cfg["a"], cfg["b"])
    result = bound(spec, seg.h, data, tight=cfg["tight"]).to_json()
    result.update(h=seg.h, eta_ba=eta_ba, a3=data.a3, b3=data.b3)
    return result, True


def _cmd_check_hypothesis(cfg):
    invex_set = cfg["check"] == "invex-set"
    unused = "function" if invex_set else "sample"  # a report's config names what ran
    if cfg[unused] is not None:
        raise UsageError(f"{OPTIONS[unused][0]} does not apply to --check {cfg['check']}")
    emap = _eta_obj(cfg)
    dom = Domain(*cfg["dom"])
    if cfg["tol"] is None:
        cfg["tol"] = SET_TOL if invex_set else CHORD_TOL
    if invex_set:
        sample = Domain(*cfg["sample"]) if cfg["sample"] else None
        rep = check_invex_set(emap, dom, grid_n=cfg["grid"], sample=sample, tol=cfg["tol"])
    else:
        _require(cfg, ["function"])
        f = parse(cfg["function"])
        check = check_preinvex if cfg["check"] == "preinvex" else check_prequasiinvex
        rep = check(f, emap, dom, grid_n=cfg["grid"], tol=cfg["tol"])
    return rep.to_json(), rep.passed


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
        return {"error": str(exc)}, False
    return result, True


def _cmd_suite(cfg):
    specs = [BoundSpec(name.strip(), cfg["q"]) for name in cfg["theorems"].split(",") if name.strip()]
    report = run_inequality_suite(
        cfg["family"], specs, trials=cfg["trials"], seed=cfg["seed"], grid_n=cfg["grid"]
    )
    return report.to_json(), report.violations == 0


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
    return {"rows": rows}, True


def _cmd_hh_classical(cfg):
    f = parse(cfg["function"])
    rep = check_hh_classical(f, cfg["a"], cfg["b"], tol=cfg["tol"])
    return rep.to_json(), rep.passed


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
        result, passed = handler(cfg)
        report = {"command": args.command, "version": __version__, "config": cfg,
                  "result": result, "passed": passed}
        _emit(report, cfg["out"], cfg["format"])
    except (ValueError, ConvergenceError) as exc:  # UsageError, ParseError, DomainError, ...
        what = "bad expression: " if isinstance(exc, ParseError) else ""
        print(f"etaquad {args.command}: {what}{exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
