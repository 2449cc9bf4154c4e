"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest perfbench

They are outside the library's test paths, so the tier-1 suite does not
run them.
"""

import cmath
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1"]
    cmd += ["--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("kernel-stream", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_binding_and_restores_it():
    from hartogs import kernels, specfun
    from hartogs.geometry import HartogsPoint
    from tracer import Tracer, summarize

    original = specfun.gauss_2f1
    z = HartogsPoint(0.1 + 0.0j, 0.5 * cmath.exp(0.3j))
    tracer = Tracer()
    tracer.install()
    try:
        assert kernels.gauss_2f1 is not original and specfun.gauss_2f1 is not original
        kernels.kernel(0.7, z, z)
    finally:
        tracer.uninstall()
    assert kernels.gauss_2f1 is original and specfun.gauss_2f1 is original
    names, name_id, parent, start, end = tracer.arrays()
    labels = [names[i] for i in name_id]
    assert labels[0] == "kernels.kernel" and parent[0] == -1
    hyp = labels.index("specfun.gauss_2f1")
    assert labels[parent[hyp]] == "kernels.kernel_nu"
    summary = summarize(list(names), name_id, parent, start, end)
    top = summary["kernels.kernel"]
    assert top["calls"] == 1
    children = sum(end[i] - start[i] for i in range(len(labels)) if parent[i] == 0) * 1e-9
    assert top["self_s"] == pytest.approx(top["total_s"] - children, abs=1e-12)


def test_clock_charges_program_time_not_calibrations():
    from calibration import Clock

    clock = Clock("interp", period=0.5)
    clock(time.sleep, 1.2)
    assert len(clock.calibrations) >= 3  # the first, then one per period
    assert clock.last_s == pytest.approx(1.2, abs=0.05)
    clock.mark()
    assert clock.seconds == pytest.approx(clock.last_s)
    assert clock.cost > 0
