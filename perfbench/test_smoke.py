"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that tracing leaves every report value unchanged, that the span arithmetic
counts what it claims, and that the benchmark refuses to run without the
qsinc sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in DECLARED["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_keeps_report_values(workload):
    wl = WORKLOADS[workload](5, worker.load_oracles())
    # Warm-up points pass quickly on every workload, edge included.
    ops = wl.warmup() + list(islice(wl.ops(), 4 if workload != "edge" else 0))
    runner = worker.Runner(workload)
    plain = [runner.run(op)[1] for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [runner.run(op)[1] for op in ops]
    finally:
        tracer.uninstall()
    assert [o.value for o in traced] == [o.value for o in plain]
    assert all(o.incorrect is None for o in plain)
    names = {s[0] for s in tracer.spans}
    assert {"identities.verify", "bilateral.series", "qcore.scalar",
            "qcore.vec", "quadrature.integral", "util.fsum"} <= names
    # uninstall() restored every wrapped function.
    assert [runner.run(op)[1].value for op in ops] == [o.value for o in plain]


def test_layer_totals_self_time_and_refinements():
    # name, start, end, parent, op, work, error
    spans = [
        ["identities.verify", 0.0, 10.0, -1, 0, None, None],
        ["quadrature.integral", 1.0, 9.0, 0, 0, 400, None],
        ["qcore.vec", 1.0, 3.0, 1, 0, 100, None],
        ["util.fsum", 3.0, 4.0, 1, 0, None, None],
        ["util.fsum", 4.0, 5.0, 1, 0, None, None],
        ["util.fsum", 5.0, 6.0, 1, 0, None, None],
        ["quadrature.integral", 11.0, 12.0, -1, 1, None, "MemoryError"],
    ]
    t = layer_totals(spans)
    assert t["identities.verify"]["self_s"] == pytest.approx(2.0)
    assert t["quadrature.integral"]["self_s"] == pytest.approx(4.0)
    assert t["quadrature.integral"]["refinements"] == 1
    assert t["quadrature.integral"]["failures"] == 1
    assert t["quadrature.integral"]["work"] == 400
    assert t["qcore.vec"]["max_work"] == 100


def test_scipy_import_time_counts_top_level_scipy_imports():
    import run

    lines = [
        "import time: self [us] | cumulative | imported package\n",
        "import time:       100 |        100 |     scipy._lib\n",
        "import time:       200 |        300 |   scipy\n",
        "import time:        50 |         50 |     numpy.linalg\n",
        "import time:       400 |        450 |   scipy.special\n",
        "import time:        10 |        760 | qsinc.classical\n",
    ]
    assert run.scipy_import_ms(lines) == pytest.approx(0.75)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "grid", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
