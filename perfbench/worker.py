"""Benchmark worker: one fresh process per set-up sample and per measured run.

run.py starts it; it is not meant to be run by hand.  The worker caps its own
address space, imports qsinc from the checkout's src/, builds the seeded
workload, runs the warm-up pass and prints a READY line.  In the measure and
trace modes it then runs the timed phases and prints a RESULT line.  Only
these two lines go to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import resource
import statistics
import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from time import perf_counter

from workloads import (WORKLOADS, batches, judge_cli, judge_exception,
                       judge_report)

ROOT = Path(__file__).resolve().parent.parent

MEM_LIMIT_MB = 512
# Operation floor of the single-threaded phase, so that verify_p90_ms always
# has at least ten samples beyond it; the two-thread phase does half of it.
MIN_OPS = 100
SPANS_DIR = Path(__file__).resolve().parent / "spans"
# Longest single-threaded phase, whatever the operation floor asks for.
PHASE_LIMIT_S = 90.0
# Speed calibration: the kernel's time on the reference machine (2-vCPU
# Intel Xeon, Python 3.11, numpy 2.4) and the interval between samples.
REF_KERNEL_MS = 1.2
CALIBRATE_EVERY_S = 0.25


def cap_address_space(mb: int) -> None:
    limit = mb * 2 ** 20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("qsinc_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Runner:
    """Runs one operation the way its workload defines it, and checks it."""

    def __init__(self, workload: str) -> None:
        from qsinc import cli, identities

        self.cli, self.identities = cli, identities
        self.run = {"catalog": self._cli, "grid": self._sweep,
                    "edge": self._verify}[workload]

    def _cli(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception as exc:  # counted by type, never raised
                return perf_counter() - t0, judge_exception(exc)
            dt = perf_counter() - t0
        return dt, judge_cli(op, code, out.getvalue())

    def _sweep(self, op):
        ident = self.identities.IdentityId(op.ident)
        t0 = perf_counter()
        try:
            reports, _ = self.identities.sweep_points(ident, [op.params])
        except Exception as exc:
            return perf_counter() - t0, judge_exception(exc)
        return perf_counter() - t0, judge_report(op, reports[0])

    def _verify(self, op):
        ident = self.identities.IdentityId(op.ident)
        t0 = perf_counter()
        try:
            report = self.identities.verify(ident, op.params)
        except Exception as exc:
            return perf_counter() - t0, judge_exception(exc)
        return perf_counter() - t0, judge_report(op, report)

    def batch(self, ops, threads: int):
        """One sweep_points call over points of one identity.

        An exception escaping the sweep fails every point of the call.
        """
        ident = self.identities.IdentityId(ops[0].ident)
        try:
            reports, _ = self.identities.sweep_points(
                ident, [op.params for op in ops], threads=threads)
        except Exception as exc:
            return [judge_exception(exc)] * len(ops)
        return [judge_report(op, r) for op, r in zip(ops, reports)]


def _tally(outcomes, failures: Counter, incorrect: Counter) -> None:
    for out in outcomes:
        if out.failure is not None:
            failures[out.failure] += 1
        if out.incorrect is not None:
            incorrect[out.incorrect] += 1


class ScaledClock:
    """Wall time scaled to a reference machine speed.

    Shared machines drift in speed by tens of percent over seconds.  A fixed
    kernel runs between operations at most every CALIBRATE_EVERY_S: complex
    arithmetic in Python and a numpy product, the two kinds of work qsinc
    does.  Intervals are multiplied by REF_KERNEL_MS over the median of the
    kernel's last five times.  On a machine running the kernel in
    REF_KERNEL_MS, scaled time is wall time.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._a = np.linspace(-0.9, 0.9, 256) * (0.6 + 0.3j)
        self._p = (0.7 + 0.1j) ** np.arange(128)
        self.samples: list[float] = []
        self.factor = 1.0
        self._last = -CALIBRATE_EVERY_S
        self.tick()

    def _kernel(self) -> complex:
        np = self._np
        acc, w, z = 0j, 1.0 + 0j, 0.31 + 0.17j
        for k in range(4000):
            w *= z
            acc += w / (1.0 + k)
        product = np.prod(1.0 - self._a[:, None] * self._p, axis=-1)
        return acc + complex(product.sum())

    def tick(self) -> None:
        if perf_counter() - self._last < CALIBRATE_EVERY_S:
            return
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        self.samples.append(1000.0 * best)
        self.factor = REF_KERNEL_MS / statistics.median(self.samples[-5:])
        self._last = perf_counter()


def measure(wl, runner: Runner, seconds: float, threads: int) -> dict:
    """Closed loop, one caller, whole cycles of the workload.

    The single-threaded phase runs until 3/5 of the time and the operation
    floor are both reached; then batches go through sweep_points on threads
    until the last 2/5 of the time and half the floor are reached.  Times
    are scaled by a ScaledClock; the raw wall time of the first phase is
    kept.  The two-thread phase records the throughput of each whole cycle:
    a second thread competes for the machine's other CPU, so single cycles
    can run far slower, and the median of cycles resists them.
    """
    clock = ScaledClock()
    ops = wl.ops()
    latency, margins = [], []  # margins of passed operations
    failures, incorrect = Counter(), Counter()
    phase_s = phase_raw_s = 0.0
    t_one = 0.6 * seconds
    start = perf_counter()
    while True:
        for op in islice(ops, wl.cycle):
            clock.tick()
            t0 = perf_counter()
            dt, out = runner.run(op)
            latency.append(1000.0 * dt * clock.factor)
            if out.margin is not None:
                margins.append(out.margin)
            _tally([out], failures, incorrect)
            step = perf_counter() - t0
            phase_raw_s += step
            phase_s += step * clock.factor
        elapsed = perf_counter() - start
        if elapsed >= PHASE_LIMIT_S or (elapsed >= t_one
                                        and len(latency) >= MIN_OPS):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures_2t = Counter()
    ops_2t = cycle_ops = 0
    cycle_s = 0.0
    rates_2t = []
    start = perf_counter()
    for ops_batch in batches(wl.ops(), wl.batch):
        clock.tick()
        t0 = perf_counter()
        outs = runner.batch(ops_batch, threads)
        ops_2t += len(outs)
        _tally(outs, failures_2t, incorrect)
        cycle_s += (perf_counter() - t0) * clock.factor
        cycle_ops += len(outs)
        if ops_2t % wl.cycle != 0:
            continue
        rates_2t.append(cycle_ops / cycle_s)
        cycle_ops, cycle_s = 0, 0.0
        if (ops_2t >= MIN_OPS // 2
                and perf_counter() - start >= seconds - t_one):
            break
    return {
        "ops": len(latency), "phase_s": phase_s, "phase_raw_s": phase_raw_s,
        "latency_ms": latency, "passed": len(latency) - sum(failures.values()),
        "failures": dict(failures), "incorrect": dict(incorrect),
        "margins": margins, "peak_rss_mb": peak_rss_mb, "ops_2t": ops_2t,
        "rates_2t": rates_2t,
        "failures_2t": dict(failures_2t), "threads": threads,
        "kernel_ms": statistics.median(clock.samples),
    }


def _pass(ops, runner: Runner, tracer=None, first: int = 0):
    """One pass over the fixed operations: outcomes, wall and op seconds."""
    outs, op_s = [], 0.0
    start = perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first + k
        dt, out = runner.run(op)
        op_s += dt
        outs.append(out)
    return outs, perf_counter() - start, op_s


def trace(wl, runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Untraced and traced passes over the same fixed operations, in turn.

    Alternating the passes exposes both to the same machine speed, so their
    throughputs differ by the tracing overhead alone.  The spans of the
    first traced pass are written to spans_path at the end.
    """
    from tracing import Tracer, layer_totals

    ops = list(islice(wl.ops(), wl.trace_ops))
    tracer = Tracer()
    plain_s = traced_s = op_s = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        plain, dt, _ = _pass(ops, runner)
        plain_s += dt
        tracer.install()
        try:
            outs, dt, dt_ops = _pass(ops, runner, tracer, passes * len(ops))
        finally:
            tracer.uninstall()
        traced_s += dt
        op_s += dt_ops
        if passes == 0:
            first_plain, traced = plain, outs
        passes += 1
    spans_path.parent.mkdir(exist_ok=True)
    tracer.dump(spans_path, ops=len(ops))

    failures, incorrect = Counter(), Counter()
    _tally(traced, failures, incorrect)
    changed = sum(a.value != b.value for a, b in zip(first_plain, traced))
    if changed:
        incorrect["trace_changed_values"] += changed

    t = layer_totals(tracer.spans)
    blank = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0,
             "refinements": 0, "max_work": 0, "failures": 0}

    def get(layer: str, key: str) -> float:
        return t.get(layer, blank)[key] / passes

    def ratio(num: float, den: float, scale: float) -> float:
        return scale * num / den if den else 0.0

    op_ms = 1000.0 * op_s / passes
    self_ms = 1000.0 * sum(v["self_s"] for v in t.values()) / passes
    n = len(ops)
    plain_pps = n * passes / plain_s
    traced_pps = n * passes / traced_s
    series_terms = get("bilateral.series", "work")
    vec_args = get("qcore.vec", "work")
    nodes = get("quadrature.integral", "work")
    metrics = {
        "cli.calls": get("cli", "calls"),
        "cli.self_share": ratio(get("cli", "self_s") * 1000.0, op_ms, 1.0),
        "identities.verify.calls": get("identities.verify", "calls"),
        "identities.self_ms": 1000.0 * (get("identities.verify", "self_s")
                                        + get("identities.sweep", "self_s")),
        "bilateral.series.calls": get("bilateral.series", "calls"),
        "bilateral.series.self_ms": 1000.0 * get("bilateral.series", "self_s"),
        "bilateral.series.terms": series_terms,
        "bilateral.series.us_per_term":
            ratio(get("bilateral.series", "incl_s"), series_terms, 1e6),
        "bilateral.failures": get("bilateral.series", "failures"),
        "qcore.scalar.calls": get("qcore.scalar", "calls"),
        "qcore.scalar.ms": 1000.0 * get("qcore.scalar", "self_s"),
        "qcore.scalar.us_per_call": ratio(get("qcore.scalar", "self_s"),
                                          get("qcore.scalar", "calls"), 1e6),
        "qcore.vec.calls": get("qcore.vec", "calls"),
        "qcore.vec.ms": 1000.0 * get("qcore.vec", "self_s"),
        "qcore.vec.args": vec_args,
        "qcore.vec.ns_per_arg": ratio(get("qcore.vec", "self_s"), vec_args,
                                      1e9),
        "qcore.vec.max_args": t.get("qcore.vec", blank)["max_work"],
        "quadrature.integral.calls": get("quadrature.integral", "calls"),
        "quadrature.integral.self_ms":
            1000.0 * get("quadrature.integral", "self_s"),
        "quadrature.nodes": nodes,
        "quadrature.refinements": get("quadrature.integral", "refinements"),
        "quadrature.ns_per_node": ratio(get("quadrature.integral", "incl_s"),
                                        nodes, 1e9),
        "quadrature.failures": get("quadrature.integral", "failures"),
        "util.fsum.calls": get("util.fsum", "calls"),
        "util.fsum.ms": 1000.0 * get("util.fsum", "self_s"),
        "classical.calls": get("classical", "calls"),
        "classical.share": ratio(get("classical", "self_s") * 1000.0, op_ms,
                                 1.0),
        "trace.ops": float(n),
        "trace.op_ms": op_ms,
        "trace.self_coverage": ratio(self_ms, op_ms, 1.0),
        "trace.points_per_s": plain_pps,
        "trace.points_per_s_traced": traced_pps,
        "trace.overhead_pct": 100.0 * (1.0 - traced_pps / plain_pps),
    }
    return {"ops": n, "passed": n - sum(failures.values()),
            "failures": dict(failures), "incorrect": dict(incorrect),
            "passes": passes, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--threads", type=int, required=True)
    args = parser.parse_args(argv)

    cap_address_space(MEM_LIMIT_MB)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import qsinc  # noqa: F401  (the import is what is timed)
    import_ms = 1000.0 * (perf_counter() - t0)

    wl = WORKLOADS[args.workload](args.seed, load_oracles())
    runner = Runner(args.workload)
    t0 = perf_counter()
    for op in wl.warmup():
        runner.run(op)
    warmup_ms = 1000.0 * (perf_counter() - t0)
    numpy, scipy = sys.modules["numpy"], sys.modules.get("scipy")
    ready = {"import_ms": import_ms, "warmup_ms": warmup_ms,
             "numpy": numpy.__version__,
             "scipy": scipy.__version__ if scipy else None}
    print("READY " + json.dumps(ready), flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        result = measure(wl, runner, args.seconds, args.threads)
    else:
        spans = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        result = trace(wl, runner, args.seconds, spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
