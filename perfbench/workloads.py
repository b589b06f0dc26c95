"""Seeded inputs of the three benchmark workloads and the checks on each output.

catalog  every identity of the catalog at the parameter points of
         tests/test_acceptance.py, one in-process CLI ``verify`` per operation.
grid     main and symmetric points from the interior of the accepted domain,
         one ``identities.sweep_points`` call per point.
edge     main points from the boundary band of the domain ``QParams`` accepts,
         one ``identities.verify`` per point.

The seed is the only source of variation.  Every workload runs in cycles
with a fixed mix: catalog cycles hold each identity equally often, grid and
edge cycles one jittered point per cell of their region.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Iterator

@dataclass(frozen=True)
class Op:
    """One operation: an identity, its parameters and, if frozen, an oracle."""

    ident: str
    params: dict[str, Any]
    oracle: complex | None = None
    argv: tuple[str, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class Outcome:
    """Verdict of the checks on one operation's output.

    failure   why the operation did not pass (None when it passed)
    incorrect why the output is wrong, not merely failed (None when sound)
    margin    log10(tol / err) for a passed operation, err being the error
              the pass rule used
    value     the report values, compared between traced and untraced runs
    """

    failure: str | None
    incorrect: str | None
    margin: float | None
    value: str


# --- catalog: the acceptance-test parameter points -------------------------

def _acceptance_points() -> dict[str, list[dict[str, Any]]]:
    """The verify points of tests/test_acceptance.py, identity by identity."""
    pts: dict[str, list[dict[str, Any]]] = {}
    pts["triple-product"] = [{"z": z, "q": q} for q in (0.2, 0.5, 0.8)
                             for z in (0.5, 1.0, 1.5, 0.6 + 0.6j)]
    pts["base-integral"] = [{"q": q} for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
    pts["main"] = [{"a": 0.2, "b": 0.3, "z": z, "q": q, "p": ratio * q}
                   for q in (0.4, 0.6, 0.8) for ratio in (0.3, 0.5, 0.7)
                   for z in (1.0, 0.5 + 0.5j, 2.0)]
    pts["symmetric"] = [{"a": 0.1, "b": 0.2, "z": z, "q": q, "p": p}
                        for q, p, z in [(0.5, 0.2, 1.0), (0.5, 0.2, 0.3 + 0.4j),
                                        (0.6, 0.3, 1.0), (0.6, 0.3, 0.8),
                                        (0.7, 0.2, 1.2), (0.4, 0.15, 1.0)]]
    pts["qbinomial"] = [{"a": 2.0, "b": 1.0, "alpha": alpha, "p": p, "z": 1.0}
                        for alpha in (0.3, 0.5, 0.7) for p in (0.3, 0.5)]
    rng = random.Random(20260824)
    draws = []
    for _ in range(50):
        q = rng.uniform(0.3, 0.8)
        p = rng.uniform(0.1, 0.6) * q
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5)
        z = rng.uniform(0.5, 1.8)
        draws.append({"a": a, "b": b, "z": z, "q": q, "p": p})
    pts["functional-eq1"] = draws
    pts["functional-eq2"] = [dict(d) for d in draws]
    rng = random.Random(99)
    moves = []
    for _ in range(20):
        mag = rng.uniform(0.6, 1.5)
        ang = rng.uniform(-11 * math.pi / 12, 11 * math.pi / 12)
        moves.append(mag * complex(math.cos(ang), math.sin(ang)))
    pts["invariance"] = [{"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6, "p": 0.3,
                          "c": c} for c in moves]
    pts["fourier"] = [{"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "y": y}
                      for y in (0.5, 1.0, 2.0, 3.0)]
    pts["poisson"] = [{"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "m": m}
                      for m in (1, 2)]
    pts["weighted"] = [{"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "m": m}
                       for m in (-2, -1, 0, 1, 2)]
    rng = random.Random(4242)
    bailey = []
    for _ in range(7):
        q = rng.uniform(0.3, 0.8)
        bailey.append({
            "q": q, "p": rng.uniform(0.1, 0.6) * q,
            "a1": rng.uniform(-0.5, 0.5), "a2": rng.uniform(-0.5, 0.5),
            "b1": rng.uniform(-0.5, 0.5), "b2": rng.uniform(-0.5, 0.5),
            "z": rng.uniform(0.5, 1.6),
        })
    pts["bailey"] = bailey
    pts["bailey-binomial"] = [{"p": 0.5, "alpha": 0.4, "a1": 2.0, "b1": 1.0,
                               "a2": 3.0, "b2": 1.0, "theta": theta}
                              for theta in (-1.2, 0.0, 0.7)]
    pts["multibasic"] = [{"p1": p1, "p2": p2, "alpha_sum": alpha_sum,
                          "a1": 2.0, "b1": 1.0, "a2": 3.0, "b2": 1.0,
                          "z": 1.0}
                         for alpha_sum in (0.5, 0.8)
                         for p1, p2 in [(0.2, 0.3), (0.15, 0.35), (0.25, 0.3)]]
    pts["appell-lerch"] = [{"a": a, "q": q} for a, q in
                           [(0.5, 0.5), (2.0, 0.5), (0.7, 0.7),
                            (0.49 ** -0.5, 0.49)]]
    pts["osler"] = [{"a": a, "alpha": alpha, "theta": theta}
                    for a, alpha, theta in [(2.0, 0.5, 0.0), (2.0, 1.0, 0.0),
                                            (1.5, 0.5, 0.4), (3.0, 0.7, -0.8),
                                            (2.5, 1.0, 1.0)]]
    pts["classical-sum-int"] = [{"a": a, "l": l, "alpha": alpha}
                                for a, l, alpha in
                                [(2.0, 1, 1.0), (2.0, 2, 1.0), (3.0, 2, 1.0),
                                 (2.0, 4, 0.5), (2.5, 3, 2.0 / 3.0)]]
    return pts


def _cli_value(value: Any) -> str:
    """Shell-safe text that the CLI parses back to exactly the same number."""
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0.0 else "-"
        return f"{value.real!r}{sign}{abs(value.imag)!r}i"
    return repr(float(value))


def cli_argv(ident: str, params: dict[str, Any]) -> tuple[str, ...]:
    flags = [f"--{k.replace('_', '-')}={_cli_value(v)}"
             for k, v in params.items()]
    return ("verify", "--identity", ident, *flags)


def oracle_for(ident: str, params: dict[str, Any], oracles) -> complex | None:
    """The frozen mpmath value both sides must equal, where one exists."""
    p = params
    if ident == "main":
        key = (p["a"], p["b"], p["z"], p["q"], p["p"])
        return oracles.MAIN_SERIES.get(key)
    if ident == "symmetric":
        key = (p["a"], p["b"], p["z"], p["q"], p["p"])
        return oracles.SYMMETRIC_SERIES.get(key)
    if ident == "weighted":
        key = (p["a"], p["b"], p["q"], p["p"], p["m"])
        return oracles.WEIGHTED_SERIES.get(key)
    if ident == "appell-lerch":
        return oracles.APPELL_LERCH.get((p["a"], p["q"]))
    if ident == "multibasic":
        frozen = {"p1": 0.2, "p2": 0.3, "alpha_sum": 0.8, "a1": 2.0,
                  "b1": 1.0, "a2": 3.0, "b2": 1.0, "z": 1.0}
        if p == frozen:
            return oracles.MULTIBASIC_VALUE
    return None


class Catalog:
    """Seeded rounds that each visit all 17 identities once.

    The identity order is shuffled per round; each identity walks its
    acceptance points in a seeded order, so short runs still cover them.
    A cycle is four rounds, so that it also fills one batch of four points
    per identity for the multi-threaded sweep.
    """

    name = "catalog"
    cycle = 4 * 17
    batch = 4       # points per multi-threaded sweep call
    trace_ops = 34  # operations in the fixed set a traced run repeats

    def __init__(self, seed: int, oracles) -> None:
        self.rng = random.Random(seed)
        self.oracles = oracles
        self.points = _acceptance_points()
        self.order = {k: self.rng.sample(range(len(v)), len(v))
                      for k, v in self.points.items()}

    def _op(self, ident: str, params: dict[str, Any]) -> Op:
        return Op(ident, params, oracle_for(ident, params, self.oracles),
                  cli_argv(ident, params))

    def ops(self) -> Iterator[Op]:
        visits = {k: 0 for k in self.points}
        idents = sorted(self.points)
        while True:
            for ident in self.rng.sample(idents, len(idents)):
                order = self.order[ident]
                i = order[visits[ident] % len(order)]
                visits[ident] += 1
                yield self._op(ident, self.points[ident][i])

    def warmup(self) -> list[Op]:
        return [self._op(k, v[0]) for k, v in sorted(self.points.items())]


# --- grid and edge: seeded points of the q-parameter domain ----------------

class _Domain:
    """Jittered-grid points of a region of (q, p/q).

    The unit square is cut into n x n cells and the cells inside the region
    make up one cycle.  Each cycle visits every such cell once, in seeded
    order, at a seeded point in the middle third of the cell; the identity
    and z follow from the cell.  So every cycle has the same mix of cheap,
    expensive and failing points, and seeds differ only within cells.
    Operation times fall in clusters by region (small q, high p/q, high q,
    memory exhaustion on the edge) and steeply with q near 0.95; keeping
    points off cell borders keeps the median, the 90th percentile and the
    peak memory from jumping between runs.
    """

    n = 1
    warm: tuple[tuple[str, dict[str, Any]], ...] = ()

    def __init__(self, seed: int, oracles) -> None:
        self.rng = random.Random(seed)
        self.oracles = oracles
        self.cells = [(i, j) for i in range(self.n) for j in range(self.n)
                      if self.inside((i + 0.5) / self.n, (j + 0.5) / self.n)]

    @property
    def cycle(self) -> int:
        return len(self.cells)

    def inside(self, u: float, v: float) -> bool:
        return True

    def point(self, i: int, j: int, u: float,
              v: float) -> tuple[str, dict[str, Any]]:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        while True:
            for i, j in self.rng.sample(self.cells, len(self.cells)):
                u = (i + (1.0 + self.rng.random()) / 3.0) / self.n
                v = (j + (1.0 + self.rng.random()) / 3.0) / self.n
                ident, params = self.point(i, j, u, v)
                yield Op(ident, params, oracle_for(ident, params, self.oracles))

    def warmup(self) -> list[Op]:
        return [Op(i, dict(p), oracle_for(i, p, self.oracles))
                for i, p in self.warm]


class Grid(_Domain):
    """Interior: 0.3 <= q <= 0.95 and 0.2 <= p/q <= 0.75.

    Main and symmetric points, each with real and complex z.  a, b lie in
    [-0.5, 0.5]; |z| in [0.5, 2] and, when complex, arg z in [-pi/3, pi/3],
    so that Re z > 0 as the main identity requires.
    """

    name = "grid"
    n = 12
    batch = 8
    trace_ops = 36
    kinds = (("main", False), ("symmetric", False),
             ("main", True), ("symmetric", True))
    warm = (("main", {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6, "p": 0.3}),
            ("symmetric", {"a": 0.1, "b": 0.2, "z": 1.0, "q": 0.5, "p": 0.2}))

    def point(self, i, j, u, v):
        ident, complex_z = self.kinds[(i + j) % len(self.kinds)]
        q = 0.3 + 0.65 * u
        rng = self.rng
        z = rng.uniform(0.5, 2.0)
        if complex_z:
            z *= cmath.exp(1j * rng.uniform(-math.pi / 3.0, math.pi / 3.0))
        return ident, {"a": rng.uniform(-0.5, 0.5), "b": rng.uniform(-0.5, 0.5),
                       "z": z, "q": q, "p": (0.2 + 0.55 * v) * q}


class Edge(_Domain):
    """Boundary band: q < 0.3, or p/q > 0.8, or q >= 0.9.

    (q, p/q) ranges over [0.05, 0.95]^2, up to the limits |q| <= 0.95 and
    |p| <= 0.95|q| that QParams accepts; with 18 cells a side the band's
    edges fall on cell edges.  a and b are those of the acceptance main
    grid and z takes its three values, fixed per cell, so whether a point
    fails depends on its cell and the jitter alone.
    """

    name = "edge"
    n = 18
    batch = 8
    trace_ops = 18
    zs = (1.0, 0.5 + 0.5j, 2.0)
    warm = (("main", {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.92, "p": 0.46}),
            ("main", {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.2, "p": 0.1}))

    def inside(self, u, v):
        q, ratio = 0.05 + 0.9 * u, 0.05 + 0.9 * v
        return q < 0.3 or ratio > 0.8 or q >= 0.9

    def point(self, i, j, u, v):
        q, ratio = 0.05 + 0.9 * u, 0.05 + 0.9 * v
        return "main", {"a": 0.2, "b": 0.3, "z": self.zs[(i + j) % 3],
                        "q": q, "p": ratio * q}


def batches(ops: Iterator[Op], size: int) -> Iterator[list[Op]]:
    """Group an operation stream into lists of one identity's points."""
    pending: dict[str, list[Op]] = {}
    for op in ops:
        group = pending.setdefault(op.ident, [])
        group.append(op)
        if len(group) == size:
            yield pending.pop(op.ident)


WORKLOADS = {"catalog": Catalog, "grid": Grid, "edge": Edge}


# --- checks ----------------------------------------------------------------

def _close(value: complex, expected: complex, tol: float) -> bool:
    diff = abs(complex(value) - complex(expected))
    return diff <= tol or diff <= tol * abs(expected)


def judge(op: Op, lhs: complex, rhs: complex, abs_err: float, rel_err: float,
          tol: float, passed: bool, status: str | None,
          reason: str | None) -> Outcome:
    """Check one report: its verdict, its pass rule and any frozen oracle."""
    value = repr((lhs, rhs, abs_err, rel_err, tol, passed, status, reason))
    if status is not None and not passed:
        kind = (reason or "").split(":", 1)[0] if status == "inconclusive" \
            else ""
        label = f"{status}:{kind}" if kind else status
        return Outcome(label, None, None, value)
    incorrect = None
    scale = max(abs(lhs), abs(rhs))
    diff = abs(lhs - rhs)
    rule = diff <= tol or (scale > tol and diff / scale <= tol)
    if rule != passed or diff != abs_err:
        incorrect = "pass_rule_mismatch"
    elif op.oracle is not None and not (_close(lhs, op.oracle, tol)
                                        and _close(rhs, op.oracle, tol)):
        incorrect = "oracle_mismatch"
    if incorrect is not None:
        return Outcome(incorrect, incorrect, None, value)
    if not passed:
        return Outcome("not_passed", None, None, value)
    err = abs_err if abs_err <= tol else rel_err
    margin = math.log10(tol / err) if err > 0.0 else None
    return Outcome(None, None, margin, value)


def judge_report(op: Op, report) -> Outcome:
    return judge(op, report.lhs, report.rhs, report.abs_err, report.rel_err,
                 report.tol, report.passed, report.lhs_diag.get("status"),
                 report.lhs_diag.get("reason"))


def judge_cli(op: Op, code: int, stdout: str) -> Outcome:
    """Check a CLI verify: its JSON report and that the exit code agrees."""
    # No report: exit 2 is invalid parameters, 64 a usage error, which is
    # what an escaped ValueError becomes.
    if code != 0 and not stdout:
        return Outcome(f"exit_{code}", None, None, repr(code))
    try:
        doc = json.loads(stdout)
    except ValueError:
        return Outcome("unparsable_output", "unparsable_output", None,
                       stdout)
    diag = doc["diagnostics"]
    lhs = complex(doc["lhs"]["re"], doc["lhs"]["im"])
    rhs = complex(doc["rhs"]["re"], doc["rhs"]["im"])
    out = judge(op, lhs, rhs, doc["abs_err"], doc["rel_err"], doc["tol"],
                doc["pass"], diag.get("status"), diag.get("reason"))
    if doc["pass"] != (code == 0):
        return Outcome("cli_exit_mismatch", "cli_exit_mismatch", None,
                       out.value)
    # The whole JSON document is the value: the CLI output is deterministic.
    return Outcome(out.failure, out.incorrect, out.margin, stdout)


def judge_exception(exc: BaseException) -> Outcome:
    """An exception that escaped the program fails the operation."""
    name = type(exc).__name__
    return Outcome(name, None, None, name)
