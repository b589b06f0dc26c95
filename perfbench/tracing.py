"""Spans around the calls into each qsinc module, recorded from outside.

The tracer replaces a module's public functions, as bound in the modules that
call them, with wrappers that record a span per call: layer name, start, end,
parent span, operation id, a work count and the exception that escaped, if
any.  Spans stay in memory until the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable

import numpy as np

from qsinc import bilateral, classical, cli, identities, quadrature


def _terms(args, result) -> int:
    return getattr(result, "terms_used", 0)


def _nodes(args, result) -> int:
    return result.nodes_used


def _vec_args(args, result) -> int:
    return int(np.size(args[0]))


# (layer, module the name is bound in, names, work count)
LAYERS: list[tuple[str, Any, tuple[str, ...], Callable | None]] = [
    ("cli", cli, ("main",), None),
    ("identities.verify", identities, ("verify",), None),
    ("identities.sweep", identities, ("sweep_points",), None),
    ("bilateral.series", bilateral,
     ("main_series", "symmetric_series", "weighted_series",
      "fourier_series_side", "bailey_series", "appell_lerch_rhs",
      "multibasic_series"), _terms),
    ("bilateral.series", identities, ("_sum_pairs",), _terms),
    ("qcore.scalar", bilateral, ("qpoch_inf", "qpoch_inf_large"), None),
    ("qcore.scalar", identities, ("qpoch_inf", "theta_product"), None),
    ("qcore.scalar", quadrature, ("qpoch_inf", "qpoch_inf_large"), None),
    ("qcore.vec", quadrature, ("qpoch_inf_vec",), _vec_args),
    ("quadrature.integral", quadrature,
     ("base_integral", "main_integral", "symmetric_integral",
      "fourier_integral", "weighted_integral", "multibasic_integral"),
     _nodes),
    ("util.fsum", quadrature, ("fsum_complex",), None),
    ("util.fsum", classical, ("fsum_complex",), None),
    ("classical", classical,
     ("osler_sum", "classical_sum", "classical_integral"), None),
]

# Span fields, kept as lists for cheap recording.
NAME, START, END, PARENT, OP, WORK, ERROR = range(7)


class Tracer:
    """Single-threaded span recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, fn: Callable, work: Callable | None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer, module, names, work in LAYERS:
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, fn, work))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def dump(self, path, ops: int) -> None:
        """Write the spans of operations 0 .. ops-1 as JSON lines, times in
        seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                if s[OP] >= ops:
                    break
                out.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0,
                    "end": s[END] - t0, "parent": s[PARENT], "op": s[OP],
                    "work": s[WORK], "error": s[ERROR]}) + "\n")


def layer_totals(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per layer: calls, self and inclusive seconds, work sums and failures.

    Inclusive time, work and failures count only spans whose parent is in
    another layer, so a layer that calls itself is not counted twice.

    "refinements" counts, per span, its direct util.fsum children beyond the
    first two.  The trapezoid rule sums the starting nodes and the first
    midpoints before its first convergence check, and one more set of
    midpoints per refinement, so for a quadrature span that returns this
    equals refinements_used; for one that raises, it still counts the
    refinements whose sums completed.
    """
    child = [0.0] * len(spans)
    sums = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
            if s[NAME] == "util.fsum":
                sums[s[PARENT]] += 1
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        t = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                     "work": 0, "refinements": 0,
                                     "max_work": 0, "failures": 0})
        dur = s[END] - s[START]
        t["calls"] += 1
        t["self_s"] += dur - child[i]
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == s[NAME]:
            continue
        t["incl_s"] += dur
        t["refinements"] += max(sums[i] - 2, 0)
        if s[ERROR] is not None:
            t["failures"] += 1
        if s[WORK] is not None:
            t["work"] += s[WORK]
            t["max_work"] = max(t["max_work"], s[WORK])
    return out
