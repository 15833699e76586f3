"""The benchmark's own test: the smoke-size harness runs, checks and reports.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    record = json.loads(lines[-2].removeprefix("record "))
    assert record["fail_ratio"] == 0.0
    assert record["host_speed"] > 0.0
    if not trace:  # end-to-end times come scaled and as wall time
        assert set(record["wall_metrics"]) == set(result["metrics"])
    assert record["checks"]["pinned_counts"].startswith("checked")
    assert {"git_sha", "numpy", "have_numba", "nproc", "cpu_model",
            "workload_seed"} <= set(record["environment"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_excludes_child_spans():
    sys.path.insert(0, str(HERE))
    import tracing

    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()  # inactive: not recorded
    tracer.active = True
    t0 = perf_counter()
    outer()
    wall = perf_counter() - t0
    layers = tracer.layers()
    assert layers["outer"]["calls"] == 1 and layers["inner"]["calls"] == 3
    assert layers["outer"]["self_s"] >= 0.0
    assert layers["outer"]["self_s"] + layers["inner"]["self_s"] <= wall


def test_scaled_time_is_wall_time_at_nominal_speed():
    sys.path.insert(0, str(HERE))
    import run

    speed = run.HostSpeed()
    speed.times = [run.REF_NOMINAL_S, 3 * run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S]
    assert speed.scale(0) == pytest.approx(0.5)  # reference ran at half speed
    assert speed.scale(1) == pytest.approx(0.4)
    assert run.reference_s() > 0.0


def test_missing_entry_point_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from spdcqkd import _kernels, protocol

    monkeypatch.delattr(_kernels, "fnv1a64")
    original = protocol.run_session
    restore, absent = tracing.install(tracing.Tracer())
    try:
        assert absent == ["kernels.fnv1a64"]
        assert protocol.run_session is not original
    finally:
        restore()
    assert protocol.run_session is original
