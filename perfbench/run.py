"""Benchmark of the hartogs library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-battery --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): ``verify-battery``, ``kernel-stream`` and
``oracle-callable``.  Every input is generated from ``--seed``; the program
is imported from the checkout's ``src`` directory.  With ``--trace 0`` the
last line of standard output is a JSON object carrying the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the workload runs once
untraced and once traced (spans recorded around every public function of
the package) and the JSON carries the per-layer metrics.  ``--smoke``
shrinks every input so the whole run takes a few seconds.

Lines before the JSON report every metric by name with its unit and
sample count, including the workload-specific ones (``verify_s``,
``kernel_batch_p90_ms``, ...).  A full record with provenance is written
to ``.perfbench/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

# Variables that would change what the program computes or how many
# threads it runs; HARTOGS_QUAD_ORDER silently changes the default rule.
SCRUBBED_VARS = ("HARTOGS_QUAD_ORDER",)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 7


def pin_environment():
    """Scrub and cap the environment of this process and its children.

    Runs before numpy is imported, so the thread caps bind here as well.
    """
    nproc = len(os.sched_getaffinity(0))
    scrubbed = {var: os.environ.pop(var) for var in SCRUBBED_VARS if var in os.environ}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= nproc):
            os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return {
        "nproc": nproc,
        "scrubbed": scrubbed,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "PYTHONPATH": str(SRC),
    }


def _check_program(module_file):
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: hartogs was imported from {module_file}, not from {SRC}")


def measure_setup(count):
    """Seconds from starting a fresh interpreter until hartogs and its CLI
    are imported and ready, for ``count`` probes after one warm-up probe
    (which also writes the bytecode caches)."""
    times = []
    for _ in range(count + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "ready"], stdout=subprocess.PIPE, text=True
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or not line.startswith("ready "):
            raise SystemExit("error: set-up probe failed to import hartogs")
        _check_program(line.split(" ", 1)[1].strip())
    return times[1:]


def provenance(args, env_info):
    import mpmath
    import numpy
    import scipy

    sha = None  # an exported checkout has no .git; git must not search above it
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "hartogs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **env_info,
    }


def end_to_end(outcome, setup):
    """The gated metrics, set-up seconds and the calibrated operation cost,
    then the raw timings the cost is based on: name -> (value, unit, n)."""
    ops = outcome.op_s
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_p50_cal": (statistics.median(outcome.op_cal), "cal", len(ops)),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms", len(ops)),
        "calibration_ms": (1e3 * statistics.median(outcome.cal_s), "ms", len(outcome.cal_s)),
        "items_per_s": (outcome.items / sum(ops), "1/s", outcome.items),
    }


def per_layer(names, spans, untraced, traced):
    """Per-layer metrics, by name, from the traced run's spans.

    ``verify.<suite>.s``         inclusive seconds of that suite
    ``<module>.self_s``          self seconds of all the module's spans
    ``<module>.<fn>.<stat>``     calls, self_s, or p50_us / p99_us of one
                                 call's inclusive duration
    ``quadrature.grid_points``   sum of n1*n2*m^2 over the tensor integrals,
                                 computed from the rule sizes
    ``trace.*``                  span count and tracing overhead
    """
    import numpy as np
    import tracer

    arrays, counters = tracer.load(spans)
    summary = tracer.summarize(*arrays)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations_s": np.zeros(0)}
    grid_points = counters["quadrature.grid_points"]
    grid_s = sum(summary.get(fn, empty)["total_s"] for fn in tracer.GRID_FUNCTIONS)
    out = {}
    for name in names:
        parts = name.split(".")
        if name == "trace.spans":
            value = int(len(arrays[1]))
        elif name == "trace.overhead_op_p50_cal":
            value = statistics.median(traced.op_cal) - statistics.median(untraced.op_cal)
        elif name == "quadrature.grid_points":
            value = grid_points
        elif name == "quadrature.grid_points_per_s":
            value = grid_points / grid_s if grid_s > 0 else 0.0
        elif len(parts) == 2 and parts[1] == "self_s":
            value = sum(v["self_s"] for k, v in summary.items() if k.startswith(parts[0] + "."))
        elif parts[0] == "verify" and parts[-1] == "s":
            value = summary.get(".".join(parts[:-1]), empty)["total_s"]
        else:
            entry = summary.get(".".join(parts[:-1]), empty)
            stat = parts[-1]
            if stat in ("calls", "self_s"):
                value = entry[stat]
            elif stat in ("p50_us", "p99_us"):
                d = entry["durations_s"]
                value = float(np.percentile(d, int(stat[1:3]))) * 1e6 if d.size else 0.0
            else:
                raise SystemExit(f"error: no rule computes per-layer metric {name!r}")
        out[name] = value
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not (SRC / "hartogs" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no hartogs sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    env_info = pin_environment()

    import hartogs
    import hartogs.cli  # noqa: F401  (the same import set-up as child.py)

    _check_program(hartogs.__file__)
    import calibration
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUTDIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, dict(os.environ), OUTDIR)

    if args.trace:
        spans = OUTDIR / f"spans-{args.workload}-seed{args.seed}.npz"
        # both halves calibrate only between operations, so that the
        # overhead compares like with like and no calibration is traced
        untraced = workload.run(args.seconds / 2)
        traced = workload.run(args.seconds / 2, spans=spans)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, spans, untraced, traced)
        report = {n: (values[n], units[n], None) for n in names}
        overhead = {
            "op_p50_ms": (1e3 * statistics.median(traced.op_s), 1e3 * statistics.median(untraced.op_s)),
            "op_p50_cal": (statistics.median(traced.op_cal), statistics.median(untraced.op_cal)),
        }
        outcomes = (untraced, traced)
        metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    else:
        setup = measure_setup(SETUP_PROBES)
        outcome = workload.run(args.seconds, period=calibration.PERIOD_S)
        report = {**end_to_end(outcome, setup), **workload.report(outcome)}
        overhead = None
        outcomes = (outcome,)
        metrics = {}
        for m in spec["end_to_end"]:
            value, unit, _ = report[m["name"]]
            if unit != m["unit"]:
                raise SystemExit(f"error: {m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": unit}

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    report["fail_ratio"] = (failed / attempted, "ratio", attempted)
    for name, (value, unit, n) in report.items():
        count = "" if n is None else f"  (n={n})"
        print(f"{args.workload}  {name:36s} {value:.6g} {unit}{count}")
    for name, (with_trace, without) in (overhead or {}).items():
        print(f"{args.workload}  tracing overhead: {name} {with_trace:.6g} traced vs {without:.6g} untraced")
    for outcome in outcomes:
        for message in outcome.errors:
            print(f"{args.workload}  FAILED: {message}")

    record = {
        "provenance": provenance(args, env_info),
        "report": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in report.items()},
        "attempted": attempted,
        "failed": failed,
        "errors": [m for o in outcomes for m in o.errors],
    }
    (OUTDIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
