"""Command-line front end: verify, sweep, limit and catalog commands.

Exit codes: 0 pass, 1 fail, 2 invalid parameters, 3 inconclusive
(convergence or quadrature failure), 64 usage error.  Stdout carries pure
data in the selected format; diagnostics go to stderr.  Floats print by
json or repr: the shortest text that reads back to the same value.  An
omitted parameter takes the library's default and is not in params.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from . import identities
from .classical import gamma_classical
from .errors import InvalidParams, QsincError
from .identities import IdentityId, IdentityReport
from .qcore import qgamma
from .util import format_complex, parse_complex

_PARAM_FLAGS = (
    "a", "b", "z", "q", "p", "y", "m", "l", "alpha", "theta", "c", "x",
    "a1", "b1", "a2", "b2", "p1", "p2", "alpha_sum", "ratio",
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose flag errors exit with the usage code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_scalar(text: str) -> float | complex:
    value = parse_complex(text)
    return value.real if value.imag == 0.0 else value


def _parse_grid(text: str) -> list[float | complex]:
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise UsageError(f"grid must be start:stop:count, got {text!r}")
        start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        if count < 1:
            raise UsageError(f"grid count must be >= 1, got {count}")
        return [float(v) for v in np.linspace(start, stop, count)]
    values = [_parse_scalar(t) for t in text.split(",") if t.strip()]
    if not values:
        raise UsageError(f"empty value list {text!r}")
    return values


def _identity_from_name(name: str) -> IdentityId:
    for ident in IdentityId:
        if ident.value == name:
            return ident
    raise UsageError(
        f"unknown identity {name!r}; run the catalog command for the list"
    )


# --- serialization ---------------------------------------------------------

def _param_value(value: Any) -> Any:
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def report_to_dict(report: IdentityReport, timing: bool) -> dict[str, Any]:
    diagnostics = {"lhs": report.lhs_diag, "rhs": report.rhs_diag,
                   "rule": report.rule}
    if "status" in report.lhs_diag:
        # A failed point has no sides; its status and reason go on top.
        diagnostics.update(lhs={}, **report.lhs_diag)
    return {
        "identity": report.id.value,
        "params": {k: _param_value(report.params[k])
                   for k in sorted(report.params)},
        "lhs": {"re": report.lhs.real, "im": report.lhs.imag},
        "rhs": {"re": report.rhs.real, "im": report.rhs.imag},
        "abs_err": report.abs_err,
        "rel_err": report.rel_err,
        "tol": report.tol,
        "pass": report.passed,
        "diagnostics": diagnostics,
        # Zeroed by default so reruns are byte-identical; --timing opts in.
        "elapsed_ms": report.elapsed * 1000.0 if timing else 0.0,
    }


def _csv_cell(value: Any) -> str:
    """A float prints as its repr, the shortest text that reads back to it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return format_complex(value)
    return str(value)


def _csv_text(header: Sequence[str], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _reports_to_csv(reports: Sequence[IdentityReport], timing: bool) -> str:
    param_keys = sorted({k for r in reports for k in r.params})
    rows = []
    for r in reports:
        row = [r.id.value]
        row += [_csv_cell(r.params[k]) if k in r.params else ""
                for k in param_keys]
        row += [_csv_cell(v) for v in
                (r.lhs.real, r.lhs.imag, r.rhs.real, r.rhs.imag,
                 r.abs_err, r.rel_err, r.passed,
                 r.elapsed * 1000.0 if timing else 0.0)]
        rows.append(row)
    return _csv_text(["identity", *param_keys, "lhs_re", "lhs_im", "rhs_re",
                      "rhs_im", "abs_err", "rel_err", "pass", "elapsed_ms"],
                     rows)


def _report_to_text(report: IdentityReport) -> str:
    params = ", ".join(f"{k}={_csv_cell(report.params[k])}"
                       for k in sorted(report.params))
    verdict = "PASS" if report.passed else "FAIL"
    lines = [
        f"{report.id.value} [{verdict}]",
        f"  params: {params}",
        f"  lhs = {format_complex(report.lhs)}",
        f"  rhs = {format_complex(report.rhs)}",
        f"  abs_err = {report.abs_err:.3e}  rel_err = {report.rel_err:.3e}"
        f"  tol = {report.tol:.1e}",
    ]
    reason = report.lhs_diag.get("reason")
    if reason:
        lines.append(f"  reason: {reason}")
    else:
        lines.append(f"  rule: {report.rule}")
        for name, diag in (("lhs", report.lhs_diag), ("rhs", report.rhs_diag)):
            fields = " ".join(f"{k}={_csv_cell(v)}" for k, v in diag.items())
            lines.append(f"  {name}: {fields}")
    return "\n".join(lines)


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _report_exit(report: IdentityReport) -> int:
    if report.passed:
        return EXIT_PASS
    status = report.lhs_diag.get("status")
    if status == "inconclusive":
        return EXIT_INCONCLUSIVE
    if status == "invalid_params":
        return EXIT_INVALID
    return EXIT_FAIL


# --- parameter assembly ----------------------------------------------------

def _collect_params(args: argparse.Namespace, grids: bool) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for name in _PARAM_FLAGS:
        raw = getattr(args, name)
        if raw is None:
            continue
        params[name] = _parse_grid(raw) if grids else _parse_scalar(raw)
    if args.allow_extreme:
        # As a grid, a one-value axis: every point of the sweep carries it.
        params["allow_extreme"] = [True] if grids else True
    return params


def _apply_ratio(point: dict[str, Any]) -> dict[str, Any]:
    # --ratio is CLI sugar for p as a fraction of q.
    if "ratio" not in point:
        return point
    point = dict(point)
    ratio = point.pop("ratio")
    if "q" not in point:
        raise UsageError("--ratio requires --q")
    point["p"] = ratio * point["q"]
    return point


# --- subcommands -----------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    ident = _identity_from_name(args.identity)
    params = _apply_ratio(_collect_params(args, grids=False))
    try:
        report = identities.verify(ident, params, tol=args.tol)
    except InvalidParams as exc:
        sys.stderr.write(f"invalid parameters: {exc}\n")
        return EXIT_INVALID
    if args.format == "json":
        _emit(json.dumps(report_to_dict(report, args.timing),
                         separators=(",", ":")), args.output)
    elif args.format == "csv":
        _emit(_reports_to_csv([report], args.timing), args.output)
    else:
        _emit(_report_to_text(report), args.output)
    return _report_exit(report)


def cmd_sweep(args: argparse.Namespace) -> int:
    ident = _identity_from_name(args.identity)
    grid = _collect_params(args, grids=True)
    if not grid.keys() - {"allow_extreme"}:
        raise UsageError("sweep requires at least one parameter grid")
    points = [_apply_ratio(p) for p in identities.expand_grid(grid)]
    reports, summary = identities.sweep_points(
        ident, points, tol=args.tol, threads=args.threads)
    if args.format == "json":
        doc = {
            "reports": [report_to_dict(r, args.timing) for r in reports],
            "summary": summary,
        }
        _emit(json.dumps(doc, separators=(",", ":")), args.output)
    elif args.format == "csv":
        _emit(_reports_to_csv(reports, args.timing), args.output)
        sys.stderr.write(f"summary: {summary}\n")
    else:
        body = "\n".join(_report_to_text(r) for r in reports)
        body += (f"\nsummary: total={summary['total']}"
                 f" passed={summary['passed']}"
                 f" max_rel_err={summary['max_rel_err']:.3e}")
        _emit(body, args.output)
    return EXIT_PASS if summary["passed"] == summary["total"] else EXIT_FAIL


def _limit_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    if args.identity != "qgamma":
        raise UsageError("limit supports identity qgamma")
    x = _collect_params(args, grids=False).get("x", 1.5)
    if isinstance(x, complex):
        raise InvalidParams(f"x must be real, got {format_complex(x)}")
    rhs = gamma_classical(x)
    rows: list[dict[str, Any]] = []
    for k in (2, 3, 4):
        q = 1.0 - 10.0 ** (-k)
        lhs = qgamma(x, q)
        rows.append({"parameter": q, "lhs": lhs, "rhs": rhs,
                     "error": abs(lhs - rhs)})
    return rows


def cmd_limit(args: argparse.Namespace) -> int:
    try:
        rows = _limit_rows(args)
    except InvalidParams as exc:
        sys.stderr.write(f"invalid parameters: {exc}\n")
        return EXIT_INVALID
    except QsincError as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE
    tol = args.tol if args.tol is not None else 1e-6
    if args.format == "json":
        doc = [{"parameter": r["parameter"],
                "lhs": {"re": complex(r["lhs"]).real,
                        "im": complex(r["lhs"]).imag},
                "rhs": {"re": complex(r["rhs"]).real,
                        "im": complex(r["rhs"]).imag},
                "error": r["error"]} for r in rows]
        _emit(json.dumps(doc, separators=(",", ":")), args.output)
    elif args.format == "csv":
        keys = ("parameter", "lhs", "rhs", "error")
        _emit(_csv_text(keys, ([_csv_cell(r[k]) for k in keys] for r in rows)),
              args.output)
    else:
        lines = [f"{'parameter':>12}  {'lhs':>24}  {'rhs':>24}  {'error':>10}"]
        for r in rows:
            lines.append(f"{_csv_cell(r['parameter']):>12}  "
                         f"{format_complex(complex(r['lhs'])):>24}  "
                         f"{format_complex(complex(r['rhs'])):>24}  "
                         f"{r['error']:>10.3e}")
        _emit("\n".join(lines), args.output)
    final_err = rows[-1]["error"]
    errors = [r["error"] for r in rows]
    shrinking = all(e2 <= e1 * 1.01 + 1e-300
                    for e1, e2 in zip(errors, errors[1:]))
    return EXIT_PASS if final_err <= tol or shrinking else EXIT_FAIL


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.format == "json":
        doc = {ident.value: identities.CATALOG[ident] for ident in IdentityId}
        _emit(json.dumps(doc, separators=(",", ":")), args.output)
    elif args.format == "csv":
        rows = ((i.value, identities.CATALOG[i]) for i in IdentityId)
        _emit(_csv_text(("identity", "description"), rows), args.output)
    else:
        width = max(len(ident.value) for ident in IdentityId)
        lines = [f"{ident.value:<{width}}  {identities.CATALOG[ident]}"
                 for ident in IdentityId]
        _emit("\n".join(lines), args.output)
    return EXIT_PASS


# --- entry point -----------------------------------------------------------

_COMMANDS = {"verify": cmd_verify, "sweep": cmd_sweep, "limit": cmd_limit,
             "catalog": cmd_catalog}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command is a positional, every flag is shared."""
    parser = _Parser(prog="qsinc",
                     description="verify bilateral q-series identities")
    parser.add_argument("command", choices=tuple(_COMMANDS),
                        help="verify one point, sweep a grid, tabulate a "
                             "q -> 1 limit or list the catalog")
    parser.add_argument("--identity", default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    parser.add_argument("--output", default=None, metavar="PATH")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--timing", action="store_true",
                        help="report wall-clock times (off for determinism)")
    parser.add_argument("--allow-extreme", dest="allow_extreme",
                        action="store_true")
    for name in _PARAM_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name,
                            default=None, metavar="VALUE")
    return parser


# Built once per process: its add_argument calls cost more than parsing a
# command line does.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "catalog":
            if args.allow_extreme or any(
                    getattr(args, name) is not None
                    for name in ("identity", *_PARAM_FLAGS)):
                _PARSER.error("catalog takes no identity or parameter flags")
        elif args.identity is None:
            _PARSER.error(f"{args.command} requires --identity")
        if args.tol is not None and not 0.0 < args.tol < math.inf:
            _PARSER.error("--tol must be positive and finite")
        if args.threads < 1:
            _PARSER.error("--threads must be >= 1")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
