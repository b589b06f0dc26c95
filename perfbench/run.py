"""qsinc benchmark: end-to-end and per-layer metrics of `verify`.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Each run starts fresh worker processes (worker.py), one caller, closed loop.
Every worker imports qsinc and runs the warm-up pass, so that set-up time is
the median of SETUPS samples; the middle one also runs the timed phases.  With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run over a fixed set of operations.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give the metrics as a table, the run
metadata and the failure types.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from worker import MEM_LIMIT_MB

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "grid", "edge")
RUN_LIMIT_S = 170.0
# Fresh workers per run; set-up time is the median of their set-up times.
SETUPS = 7


class WorkerFailed(RuntimeError):
    pass


class Worker:
    """A worker process whose stdout carries READY and RESULT lines.

    Its stderr is drained by a thread: import-time profile lines are kept,
    anything else is passed on.  The process is killed at the deadline.
    """

    def __init__(self, argv: list[str], env: dict[str, str],
                 deadline: float) -> None:
        self.import_lines: list[str] = []
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        self._timer = threading.Timer(max(deadline - perf_counter(), 0.0),
                                      self.proc.kill)
        self._timer.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            if line.startswith("import time:"):
                self.import_lines.append(line)
            else:
                sys.stderr.write(line)

    def read(self, tag: str) -> dict:
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
        raise WorkerFailed(f"worker exited without a {tag} line "
                           f"(code {self.proc.wait()})")

    def close(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._drain.join()
        self.proc.stdout.close()
        self.proc.stderr.close()


def scipy_import_ms(lines: list[str]) -> float:
    """Cumulative import time of every scipy package not imported by scipy.

    -X importtime prints children before their parent, one indent level
    deeper, so a line's parent is the next line with a smaller indent.
    """
    rows = []
    for line in lines:
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip("\n")
        stripped = name.lstrip(" ")
        rows.append((len(name) - len(stripped), stripped,
                     int(parts[1].strip())))
    total = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            total += cumulative
    return total / 1000.0


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsinc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QSINC_MAX_TERMS", None)
    env.pop("PYTHONPROFILEIMPORTTIME", None)
    # Native thread pools stay at one thread; the sweep sets its own count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(args, workload: str, deadline: float) -> dict:
    """Start SETUPS fresh workers; the middle one measures."""
    threads = min(2, os.cpu_count() or 1)
    env = worker_env()
    if args.trace:
        env["PYTHONPROFILEIMPORTTIME"] = "1"
    setups, readies, scipy_ms = [], [], []
    result = None
    # The measuring worker runs in the middle, so that set-up samples come
    # from both before and after the measurement.
    middle = SETUPS // 2
    for i in range(SETUPS):
        measuring = i == middle
        mode = "setup"
        if measuring:
            mode = "trace" if args.trace else "measure"
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--mode", mode,
                "--threads", str(threads)]
        t0 = perf_counter()
        worker = Worker(argv, env, deadline)
        try:
            readies.append(worker.read("READY"))
            setups.append(perf_counter() - t0)
            if measuring:
                result = worker.read("RESULT")
            if worker.proc.wait() != 0:
                raise WorkerFailed(f"worker exited with {worker.proc.returncode}")
        finally:
            worker.close()
        scipy_ms.append(scipy_import_ms(worker.import_lines))
    ready = readies[-1]
    meta = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups": SETUPS, "nproc": os.cpu_count(),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": ready["numpy"], "scipy": ready["scipy"],
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "mem_limit_mb": MEM_LIMIT_MB, "sweep_threads": threads,
        "ops": result["ops"],
    }
    return {"meta": meta, "setup_s": setups, "readies": readies,
            "scipy_ms": scipy_ms, "result": result}


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: dict) -> dict[str, tuple[float, str]]:
    r = run["result"]
    lat = r["latency_ms"]
    margins = r["margins"]
    return {
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "verify_p50_ms": (statistics.median(lat), "ms"),
        "verify_p90_ms": (quantile(lat, 0.9), "ms"),
        "points_per_s": (r["ops"] / r["phase_s"], "1/s"),
        "points_per_s_2t": (statistics.median(r["rates_2t"]), "1/s"),
        "pass_share": (r["passed"] / r["ops"], "ratio"),
        "err_margin_digits": (quantile(margins, 0.1) if margins else math.nan,
                              "digits"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def per_layer(run: dict, units: dict[str, str]) -> dict[str, tuple[float, str]]:
    metrics = {k: (v, units[k]) for k, v in run["result"]["metrics"].items()}
    readies = run["readies"]
    metrics["setup.import_ms"] = (
        statistics.median(x["import_ms"] for x in readies), "ms")
    metrics["setup.scipy_import_ms"] = (statistics.median(run["scipy_ms"]),
                                        "ms")
    metrics["setup.warmup_ms"] = (
        statistics.median(x["warmup_ms"] for x in readies), "ms")
    return metrics


def declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def summarize(run: dict, units: dict[str, str] | None) -> dict:
    """Metrics of one run; per-layer ones when `units` is given."""
    metrics = per_layer(run, units) if units else end_to_end(run)
    r = run["result"]
    attempted = r["ops"] + r.get("ops_2t", 0)
    failures = dict(r["failures"])
    for k, v in r.get("failures_2t", {}).items():
        failures[k + "@2t"] = v
    return {
        "correct": not r["incorrect"] and all(math.isfinite(v)
                                              for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "details": {"failures": failures, "incorrect": r["incorrect"],
                    "fail_share": 1.0 - r["passed"] / r["ops"],
                    "latency_samples": len(r.get("latency_ms", ())),
                    "err_margin_min": min(r.get("margins") or [math.nan]),
                    "setup_s": run["setup_s"],
                    "kernel_ms": r.get("kernel_ms"),
                    "raw_points_per_s": r["ops"] / r["phase_raw_s"]
                    if "phase_raw_s" in r else None},
    }


def print_table(workload: str, summary: dict) -> None:
    for name, m in summary["metrics"].items():
        print(f"{workload:8s} {name:28s} {m['value']:14.6g} {m['unit']}")
    d = summary["details"]
    print(f"{workload:8s} {'fail_share':28s} {d['fail_share']:14.6g} ratio"
          f"  failures={json.dumps(d['failures'], sort_keys=True)}")
    if d["latency_samples"]:
        print(f"{workload:8s} {'latency samples':28s} "
              f"{d['latency_samples']:14d} count")
    if d["incorrect"]:
        print(f"{workload:8s} INCORRECT {json.dumps(d['incorrect'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the full record, metadata included")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/qsinc/__init__.py", "tests/oracles.py",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"qsinc checkout incomplete, missing: {missing}\n")
        return 2
    units = declared_units(bool(args.trace))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries, records = {}, {}
    for workload in names:
        try:
            run = run_workload(args, workload, perf_counter() + RUN_LIMIT_S)
        except WorkerFailed as exc:
            sys.stderr.write(f"{workload}: {exc}\n")
            return 1
        summary = summarize(run, units if args.trace else None)
        emitted = {k: m["unit"] for k, m in summary["metrics"].items()}
        if emitted != units:
            sys.stderr.write("metrics differ from BENCHMARK.json\n")
            return 1
        print_table(workload, summary)
        print("META " + json.dumps(run["meta"]))
        print("DETAILS " + json.dumps(summary["details"]))
        summaries[workload] = summary
        records[workload] = {"meta": run["meta"], **summary}
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    if len(names) == 1:
        s = summaries[names[0]]
    else:
        s = {"correct": all(x["correct"] for x in summaries.values()),
             "attempted": sum(x["attempted"] for x in summaries.values()),
             "failed": sum(x["failed"] for x in summaries.values()),
             "metrics": {f"{w}.{k}": v for w, x in summaries.items()
                         for k, v in x["metrics"].items()}}
    print(json.dumps({k: s[k] for k in ("correct", "attempted", "failed",
                                         "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
