"""Layer microbenchmarks and end-to-end times, written to one JSON file.

Run from the root of a checkout:

    python3 bench/layers.py --out BENCH_<n>.json

The library is imported from the checkout's ``src/``.  The file holds:

- ``layers_us``: the minimum over repeats of the microseconds per call of
  the black-box quadrature paths (a callable ``integrate_mu`` on the
  default 64 x 65 rule both for a Gaussian in z2 times |z1|^2 and for
  |z1^3 z2^-1|^2 at nu = 0.7), the Monte Carlo oracle alone (at
  nu = 0.7 and at each nu of ``MC_NUS``, since the cost of its Beta draws
  depends on nu) and right after a default-rule callable ``integrate_mu``
  (so a slowdown that one integral leaves to the next shows beside the
  lone call), the one-point
  kernel, the sup of the kernel-estimate suite's boundary-ratio profile on
  the circle |y| = 0.998 (its five nu, four refining grids of 257 angles
  each) and its majorant constant C* at the same five nu, the series
  oracle on one pair, the torus sampling of the Szego suite, one
  sharp-norm witness ratio of it (N = 64, a 512 x 512 grid), the Szego
  FFT projection,
  one signed Gamma ratio of a coefficient weight, the 2F1 on 128 points (on
  the batch layers' pairs and on kernel-stream's distribution of y) and its
  Euler transform G on the profile's 257-angle circle |y| = 0.998,
  one point pair of the suites' draw (per pair of a 100-pair
  ``_random_pairs`` call), one factored automorphism row of the
  tau-invariance suite (its two disc sums on the suite's rule, beside the
  full-grid ``integrate_tau`` of the same automorphism), the isometry rows
  of one nu (10 draws at nu = -1.5, each read by a 16 x 16 FFT of its
  values), the default 64 x 65 rule for mu_nu built cold (right after its
  Gauss rules are dropped from their per-process memo) and warm, one
  Gauss-Jacobi rule of 64 and of 256 nodes built cold, the
  Bergman coefficient rule on a four-term mixed polynomial (warm: its
  Gamma weights are memoized after the first call), the separable path
  per inner product of two five-term polynomials on a 32 x 33 rule (the
  size the t-split and isometries suites use), the star norm of one
  six-term polynomial of the t-split suite's range draws (warm, as the
  Bergman coefficient rule), and the microseconds per point of the kernel
  on a 128-pair batch;
- ``layers_minflt_per_call``: beside each black-box quadrature layer, the
  minor page faults of this process per call over all its repeats.  A
  layer that faults far more than usual is timed in another allocator
  state (glibc's heap trimming and mmap threshold move with what ran
  before), which can move its time by more than the code does;
- ``layers_ms``: the milliseconds of one ``hartogs kernel --in`` call on a
  128-pair file, run in process through ``cli.main``, on the batch layers'
  pairs at nu = 0.7 and on a kernel-stream-like batch (``stream_pairs``) at
  nu = 0.7 and 0, and of one kernel
  call on the 115,600 pullback points of a 20 x 17 rule against one fixed
  w near the origin (the kernel grid of a kernel-integral oracle) at
  nu = 0, 0.7 and 3.5;
- ``import_s``: the median, over 7 fresh interpreters after one warm-up,
  of the seconds from starting the interpreter until
  ``import hartogs, hartogs.cli`` has finished (the set-up every
  ``hartogs`` command pays);
- ``suites_s``: the wall time of each suite in one pass over the
  ``verify`` registry at seed 0, run in a fresh interpreter as
  ``hartogs verify all`` is.  Each Gauss rule and Gamma weight is built
  once per process, so a suite's time depends on the suites before it:
  the first suite to need a rule or a weight pays for it;
- ``tier1``: the wall time and summary line of the tier-1 test command;
- ``provenance``: git SHA (``-dirty`` when the tree has uncommitted
  changes), Python, numpy and scipy versions, nproc, the precision of
  ``np.longdouble``, ``PYTHONDONTWRITEBYTECODE`` and
  ``OPENBLAS_NUM_THREADS`` as found, whether every module of the
  package had up-to-date bytecode before this run imported it, and the
  number of threads that evaluate the chunks of a black-box integral
  (the caller and its helpers), the SciPy package and subpackages that
  ``import hartogs, hartogs.cli`` loads, and ``src_lines``, the number of
  lines of ``src/hartogs/*.py``.

Raw times drift by tens of percent on a shared host, so compare two
commits only by files written back to back on one machine, and run
``python -m compileall -q src`` in both checkouts first: a fresh
interpreter that has to compile the package pays for it in every timing.
"""

import argparse
import importlib.util
import cmath
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def best_us(fn, calls, repeats, before=None):
    """Minimum over ``repeats`` of the mean microseconds per call of fn(),
    each repeat timed right after an untimed before() when it is given."""
    best = float("inf")
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return 1e6 * best


def best_us_faults(fn, calls, repeats):
    """``best_us`` of fn and the minor page faults per call over all its calls."""
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    us = best_us(fn, calls, repeats)
    return us, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / (calls * repeats)


def layer_times():
    """The ``layers_us`` of the single-threaded layers and the black-box
    ones, and the minor faults per call of the black-box ones."""
    import numpy as np

    from hartogs import coeffspace, geometry, kernels, projections, quadrature, specfun, verify
    from hartogs.coeffspace import MixedPoly
    from hartogs.geometry import HartogsPoint

    # the tau-invariance suite's rule and integrand, composed with one of its automorphisms
    tau_rule = quadrature.build_tau_rule(
        radial_order=56, angular_count=24, shell_eps=0.05, r1_range=verify._TAU_R1_RANGE, r2_range=verify._TAU_R2_RANGE
    )
    psi = geometry.random_automorphism(np.random.default_rng(0), max_center=verify._TAU_CENTER_CAP)
    mu_rule = quadrature.build_rule(0.7)  # the default 64 x 65 rule
    gaussian = lambda z1, z2: np.exp(-0.8 * np.abs(z2) ** 2) * np.abs(z1) ** 2
    # |z1^3 z2^-1|^2, a monomial of the oracle-callable workload
    monomial = lambda z1, z2: np.abs(z1) ** 6 * np.abs(z2) ** -2
    z = HartogsPoint(0.2 + 0.1j, 0.5 - 0.3j)
    w = HartogsPoint(-0.1 + 0.25j, 0.4 + 0.45j)
    grid = np.random.default_rng(1).normal(size=(133, 133)) + 0j
    # a degree-32 series on the N = 133 grid of the torus sampling layer
    series = verify._random_torus(np.random.default_rng([0, 642]), 32, n_terms=16)
    # the seven Gamma arguments of the weight of z1^2 z2^-3 at nu = -1.5; the last is -0.25
    w_nu, j, k = -1.5, 2, -3
    weight_args = (
        [w_nu + 2.0, 1.5 * w_nu + 3.0, j + 1.0, j + k + 0.5 * w_nu + 2.0],
        [0.5 * w_nu + 2.0, j + w_nu + 2.0, j + k + 1.5 * w_nu + 3.0],
    )
    # the kernel's 2F1 at nu = 0.7 on 128 points of the batch layers' pairs
    pts = random_pairs(BATCH)
    y128 = pts[:, 1] * np.conj(pts[:, 3])
    alpha, gam = 1.5 * 0.7 - 1 + 2.0, 0.5 * 0.7 - 1 + 1.0
    q = (alpha + 1.0) - gam  # as the kernel forms it
    # kernel-stream's y (1 - |y| log-uniform on [1e-3, 0.75]) and the profile's circle |y| = 0.998
    stream_rng = np.random.default_rng(3)
    y_stream = (1.0 - 10.0 ** stream_rng.uniform(-3.0, np.log10(0.75), BATCH)) * np.exp(2j * np.pi * stream_rng.random(BATCH))
    y_circle = 0.998 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 257))
    point_rng = np.random.default_rng(2)
    # four terms of the projection self-test corpus, and two polynomials of the t-split suite's size
    mixed = MixedPoly({key: 1.0 + 0.5j * i for i, key in enumerate(projections._SELF_TEST_TERMS[:4])})
    pair_rule = quadrature.build_rule(0.7, radial_order=32, angular_count=33)
    pair = [verify._random_laurent(np.random.default_rng([0, i]), 0.7, n_terms=5) for i in (1, 2)]
    six = verify._random_laurent(np.random.default_rng([0, 3]), 0.7, n_terms=6, jmax=6, kmax=6)
    black_box = {
        "quadrature.integrate_tau.tau_invariance_rule.suite_bump": best_us_faults(
            lambda: quadrature.integrate_tau(verify._bump, tau_rule, automorphism=psi), 3, 5
        ),
        "quadrature.integrate_mu.callable_64x65": best_us_faults(
            lambda: quadrature.integrate_mu(0.7, gaussian, mu_rule), 2, 5
        ),
        "quadrature.integrate_mu.monomial_64x65": best_us_faults(
            lambda: quadrature.integrate_mu(0.7, monomial, mu_rule), 2, 5
        ),
        "quadrature.mc_integrate_mu.1e6_samples": best_us_faults(
            lambda: quadrature.mc_integrate_mu(0.7, gaussian, 1_000_000, 3), 1, 5
        ),
    }
    # the Beta sampler's cost depends on nu; the layer above is at nu = 0.7
    for nu in MC_NUS:
        black_box[f"quadrature.mc_integrate_mu.1e6_samples.nu={nu:g}"] = best_us_faults(
            lambda: quadrature.mc_integrate_mu(nu, gaussian, 1_000_000, 3), 1, 5
        )
    layers = {name: us for name, (us, _) in black_box.items()}
    layers.update({
        "quadrature.mc_integrate_mu.1e6_after_integrate_mu_64x65": best_us(
            lambda: quadrature.mc_integrate_mu(0.7, gaussian, 1_000_000, 3),
            1,
            5,
            before=lambda: quadrature.integrate_mu(0.7, gaussian, mu_rule),
        ),
        "kernels.kernel.nu=0.7": best_us(lambda: kernels.kernel(0.7, z, w), 2000, 5),
        "kernels.kernel.nu=3.5": best_us(lambda: kernels.kernel(3.5, z, w), 2000, 5),
        "verify._circle_sup.5nu": best_us(lambda: [verify._circle_sup(nu) for nu in (-1.5, -0.5, 0.7, 1.3, 3.5)], 5, 5),
        "kernels.bound_constant.5nu": best_us(
            lambda: [kernels.bound_constant(nu) for nu in (-1.5, -0.5, 0.7, 1.3, 3.5)], 20, 5
        ),
        "kernels.kernel_series.one_pair.nu=0.7": best_us(lambda: kernels.kernel_series(0.7, z, w), 500, 5),
        "specfun.gamma_ratio_signed.weight_7_args": best_us(lambda: specfun.gamma_ratio_signed(*weight_args), 20000, 5),
        f"specfun.gauss_2f1.{BATCH}_points": best_us(lambda: specfun.gauss_2f1(q, gam, y128), 2000, 5),
        f"specfun.gauss_2f1.kernel_stream_{BATCH}_points": best_us(lambda: specfun.gauss_2f1(q, gam, y_stream), 2000, 5),
        # bound_ratio_profile's G at nu = 0.7, q = nu + 2
        "specfun.gauss_2f1.G.circle_257_points": best_us(lambda: specfun.gauss_2f1(0.7 + 2.0, gam, y_circle, euler=True), 1000, 5),
        "verify._random_pairs.per_pair": best_us(lambda: verify._random_pairs(point_rng, 100), 2000, 5) / 100,
        "verify.tau-invariance.factored_row": best_us(lambda: verify._factored_tau_mass(tau_rule, psi), 200, 5),
        "verify.isometries.fft_rows": best_us(
            lambda: verify._isometry_rows(verify.SuiteResult("isometries", True), np.random.default_rng([0, 802]), -1.5, 1),
            50,
            5,
        ),
        "verify._torus_samples.degree32_n133": best_us(lambda: verify._torus_samples(series, 133), 200, 5),
        "verify.szego.witness.N=64": best_us(lambda: verify._szego_witness(1.5, 0.6, 64), 20, 5),
        "projections.project_szego_grid.N=133": best_us(lambda: projections.project_szego_grid(grid), 200, 5),
        "quadrature.build_rule.64x65.cold": best_us(
            lambda: quadrature.build_rule(0.7), 1, 20, before=quadrature._jacobi01.cache_clear
        ),
        "quadrature.build_rule.64x65.warm": best_us(lambda: quadrature.build_rule(0.7), 2000, 5),
        "quadrature._jacobi01.64.cold": best_us(lambda: quadrature._jacobi01.__wrapped__(64, 1.7, 0.35), 50, 5),
        "quadrature._jacobi01.256.cold": best_us(lambda: quadrature._jacobi01.__wrapped__(256, 1.7, 0.35), 5, 5),
        "projections.project_bergman.4_terms": best_us(lambda: projections.project_bergman(0.7, mixed), 2000, 5),
        "quadrature.inner_product_quad.32x33.5x5_terms": best_us(
            lambda: quadrature.inner_product_quad(0.7, *pair, pair_rule), 500, 5
        ),
        "coeffspace.star_norm.6_terms": best_us(lambda: coeffspace.star_norm(0.7, six), 2000, 5),
    })
    return layers, {name: faults for name, (_, faults) in black_box.items()}


MC_NUS = (-0.9, 20.0)  # the Monte Carlo layer's further nu, beside 0.7
BATCH = 128
# Dirichlet, weighted Dirichlet, Hardy, Bergman with one 2F1 step, Bergman with four
BATCH_NUS = (-2.0, -1.5, -1.0, 0.7, 3.5)


def random_pairs(count):
    """count seeded point pairs, |z2|, |w2| in [0.3, 0.95), |z1/z2|, |w1/w2| below 0.9,
    as an (count, 4) complex array of z1, z2, w1, w2."""
    import numpy as np

    rng = np.random.default_rng(7)
    z2, w2 = (rng.uniform(0.3, 0.95, count) * np.exp(2j * np.pi * rng.uniform(size=count)) for _ in range(2))
    z1, w1 = (v * rng.uniform(0.0, 0.9, count) * np.exp(2j * np.pi * rng.uniform(size=count)) for v in (z2, w2))
    return np.stack([z1, z2, w1, w2], axis=1)


def stream_pairs(count):
    """count seeded point pairs drawn as perfbench's kernel-stream draws them, as an
    (count, 4) complex array of z1, z2, w1, w2: 1 - |y| log-uniform on [1e-3, 0.75],
    y = z2 conj(w2), |y| split between |z2| and |w2| by a uniform power in [0.05, 0.95],
    |z1/z2| and |w1/w2| uniform below 0.95, uniform angles."""
    import numpy as np

    rng = np.random.default_rng(3)
    abs_y, split = 1.0 - 10.0 ** rng.uniform(-3.0, np.log10(0.75), count), rng.uniform(0.05, 0.95, count)
    z2, w2 = (abs_y**e * np.exp(2j * np.pi * rng.random(count)) for e in (split, 1.0 - split))
    z1, w1 = (v * rng.uniform(0.0, 0.95, count) * np.exp(2j * np.pi * rng.random(count)) for v in (z2, w2))
    return np.stack([z1, z2, w1, w2], axis=1)


def batch_layers():
    """The batched kernel in microseconds per point and one ``kernel --in``
    CLI batch in milliseconds, all on BATCH pairs."""
    from hartogs import cli, kernels
    from hartogs.geometry import HartogsPoint

    pts = random_pairs(BATCH)
    z, w = HartogsPoint(pts[:, 0], pts[:, 1]), HartogsPoint(pts[:, 2], pts[:, 3])
    per_point = {
        f"kernels.kernel.batch{BATCH}_per_point.nu={nu:g}": best_us(lambda: kernels.kernel(nu, z, w), 200, 5) / BATCH
        for nu in BATCH_NUS
    }
    point = lambda a, b: {"z1": [a.real, a.imag], "z2": [b.real, b.imag]}
    cli_ms = {}
    with tempfile.TemporaryDirectory() as tmp:
        outfile = Path(tmp) / "out.csv"
        stream = stream_pairs(BATCH)
        for name, batch, nu in (("batch", pts, 0.7), ("stream", stream, 0.7), ("stream", stream, 0.0)):
            infile = Path(tmp) / f"{name}.json"
            infile.write_text(json.dumps([{"z": point(z1, z2), "w": point(w1, w2)} for z1, z2, w1, w2 in batch.tolist()]))
            argv = ["kernel", "--nu", repr(nu), "--in", str(infile), "--out", str(outfile)]
            cli_ms[f"cli.main.kernel_in_{name}{BATCH}.nu={nu:g}"] = best_us(lambda: cli.main(argv), 50, 5) / 1e3
    return per_point, cli_ms


# the kernel grid: a rule's radial order and angular count, the nu, and the
# fixed w, with |w2| = 0.2 and |w1/w2| = 0.15
GRID_RULE = (20, 17)
GRID_NUS = (0.0, 0.7, 3.5)
GRID_W = (cmath.rect(0.03, 1.5), cmath.rect(0.2, 0.4))


def grid_layers():
    """Milliseconds of one kernel call on the pullback points (w1 w2, w2) of a
    GRID_RULE rule against GRID_W, per nu of GRID_NUS."""
    import numpy as np

    from hartogs import kernels, quadrature
    from hartogs.geometry import HartogsPoint

    w = HartogsPoint(*GRID_W)
    times = {}
    for nu in GRID_NUS:
        rule = quadrature.build_rule(nu, *GRID_RULE)
        e = np.exp(2j * np.pi * np.arange(rule.angular) / rule.angular)
        w1 = (rule.r1_nodes[:, None] * e)[:, :, None, None]
        w2 = (rule.r2_nodes[:, None] * e)[None, None, :, :]
        z = HartogsPoint(w1 * w2, np.broadcast_to(w2, np.broadcast(w1, w2).shape))
        name = f"kernels.kernel.grid_{GRID_RULE[0]}x{GRID_RULE[1]}_{z.z1.size}_points.nu={nu:g}"
        times[name] = best_us(lambda: kernels.kernel(nu, z, w), 3, 5) / 1e3
    return times


IMPORT_PROBES = 7
# prints the SciPy package and subpackages loaded once the package and its CLI are imported (none)
_IMPORT_PROBE = (
    "import sys\n"
    "import hartogs, hartogs.cli\n"
    "names = [m for m, mod in sys.modules.items() if m == 'scipy' or m.count('.') == 1 and m.startswith('scipy.')"
    " and hasattr(mod, '__path__')]\n"
    "print(' '.join(sorted(names)), flush=True)\n"
)


def import_time():
    """The median seconds from starting a fresh interpreter until
    ``import hartogs, hartogs.cli`` has finished, over IMPORT_PROBES probes
    after one warm-up, and the SciPy package and subpackages that import loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _IMPORT_PROBE], env=env, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0:
            raise SystemExit("error: the import probe failed")
    return statistics.median(times[1:]), line.split()


def suite_pass():
    """Time each suite of one seed-0 pass in this process; print the JSON."""
    from hartogs import verify

    times, passed = {}, {}
    for name in verify.SUITES:
        start = time.perf_counter()
        res = verify.run_suite(name, seed=0)
        times[name] = time.perf_counter() - start
        passed[name] = res.passed
    print(json.dumps({"suites_s": times, "suites_passed": passed}))


def suite_times():
    """The per-suite times and verdicts of ``suite_pass`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--suite-pass"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["suites_s"], record["suites_passed"]


def tier1_time():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def bytecode_cached():
    """Whether every module of the package has bytecode at least as new as
    its source, so that importing it compiles nothing."""
    for source in (SRC / "hartogs").glob("*.py"):
        cached = Path(importlib.util.cache_from_source(str(source)))
        if not (cached.exists() and cached.stat().st_mtime >= source.stat().st_mtime):
            return False
    return True


def provenance():
    import numpy as np
    import scipy

    cached = bytecode_cached()  # before the import below compiles the package
    from hartogs import quadrature

    try:
        # "-dirty" marks a measurement of uncommitted changes on top of that commit
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "hartogs_bytecode_cached": cached,
        "quadrature_threads": quadrature._helper_threads()[1] + 1,
        "src_lines": sum(len(path.read_text().splitlines()) for path in (SRC / "hartogs").glob("*.py")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="path of the JSON file to write")
    parser.add_argument("--suite-pass", action="store_true", help="time one suite pass, print it as JSON and exit")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.suite_pass:
        suite_pass()
        return 0
    if args.out is None:
        parser.error("--out is required")
    record = {"provenance": provenance()}  # first: it checks the bytecode before any import writes it
    record["import_s"], record["provenance"]["scipy_modules_at_import"] = import_time()
    record["layers_us"], record["layers_minflt_per_call"] = layer_times()
    per_point, record["layers_ms"] = batch_layers()
    record["layers_us"].update(per_point)
    record["layers_ms"].update(grid_layers())
    record["suites_s"], record["suites_passed"] = suite_times()
    record["run_all_s"] = sum(record["suites_s"].values())
    record["tier1"] = tier1_time()
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for section in ("layers_us", "layers_minflt_per_call", "layers_ms", "suites_s"):
        for name, value in record[section].items():
            print(f"{section:10s} {name:48s} {value:12.4g}")
    print(f"import_s   {record['import_s']:.3f}   run_all_s  {record['run_all_s']:.3f}", end="   ")
    print(f"tier1 {record['tier1']['wall_s']:.2f} s: {record['tier1']['summary']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
