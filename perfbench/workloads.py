"""The three benchmark workloads.

Each workload's constructor generates every input and reference from the
seed (not timed); ``run`` is a closed loop of operations:
the next operation starts when the previous one has finished, and the
loop stops once starting another would overrun the run's seconds (at
least one operation always runs).  Outputs are checked between
operations, outside the timed regions.

    verify-battery   operation = one ``verify.run_all(seed)`` pass in a
                     fresh interpreter (child.py); attempts are suites
    kernel-stream    operation = one round of ``hartogs kernel --in`` CLI
                     calls over the same 16 batches of 128 pairs, two per
                     nu; attempts are pairs
    oracle-callable  operation = one round of one automorphism-composed
                     ``integrate_tau``, two black-box ``integrate_mu`` (a
                     monomial |.|^2 and a Gaussian in |z2|) and one
                     1e6-sample ``mc_integrate_mu``; attempts are integrals
"""

import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from calibration import Clock
from tracer import traced

HERE = Path(__file__).resolve().parent

# The nu values of the verify suites' regimes: Dirichlet, weighted
# Dirichlet, Hardy, and weighted Bergman on both sides of the even integers.
KERNEL_NUS = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.7, 2.0, 3.5)
KERNEL_TOL = 1e-10  # documented relative accuracy of the closed kernels
# One generic weight for the black-box integrals: the tensor path's cost
# does not depend on nu but the Monte Carlo Beta sampler's does, so a fixed
# nu keeps rounds comparable across seeds.
ORACLE_NU = 0.7
ORACLE_ROUNDS = 64
# |z1^j z2^k|^2 with these exponents raises |z| to the powers 4, 6 and -2,
# which all take numpy's general pow path (2 would take the squaring fast
# path), so every draw costs the same; all have finite fourth moments
# against mu_nu, so the Monte Carlo variance is finite.
MONOMIAL_J = (2, 3)
MONOMIAL_K = (-1, 2, 3)
MC_SAMPLES = 1_000_000
MC_SIGMAS = 5.0
TAU_TOL = 1e-6
MU_TOL = 1e-8
# The trimmed rule of the tau-invariance suite, and its Moebius centre cap
# that keeps automorphism images of the bump inside the brackets.
TAU_RULE = dict(radial_order=56, angular_count=24, shell_eps=0.05, r1_range=(0.08, 0.80), r2_range=(0.24, 0.91))
TAU_CENTER_CAP = 0.2


@dataclass
class Outcome:
    """What a closed loop did: per-operation seconds and calibrated cost,
    the calibration times, attempts and failures."""

    op_s: list = field(default_factory=list)
    op_cal: list = field(default_factory=list)
    cal_s: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)  # named per-call timings
    errors: list = field(default_factory=list)

    def sample(self, name, seconds):
        self.samples.setdefault(name, []).append(seconds)

    def error(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok, message):
        """Count one attempt, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.error(message)


def median_ms(values):
    return (1e3 * statistics.median(values), "ms", len(values))


def closed_loop(op, seconds, clock):
    """Run ``op(i, outcome, clock)`` until another would overrun ``seconds``.

    ``op`` makes its calls into the program through ``clock`` (a
    calibration.Clock), which is marked after every operation, so an
    operation's seconds and calibrated cost are what the clock gained
    during it.  The budget is counted in wall time, checks and
    calibrations included.  ``run(seconds, spans, period)`` of each
    workload traces into ``spans`` when given and calibrates every
    ``period`` seconds inside long calls when given; run.py never asks
    for both, so no calibration lands inside a span.
    """
    outcome = Outcome()
    t_start = time.perf_counter()
    while True:
        seconds0, cost0 = clock.seconds, clock.cost
        op(len(outcome.op_s), outcome, clock)
        clock.mark()
        outcome.op_s.append(clock.seconds - seconds0)
        outcome.op_cal.append(clock.cost - cost0)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(outcome.op_s) > seconds:
            outcome.cal_s = clock.calibrations
            return outcome


# ----------------------------------------------------------------------
# verify-battery
# ----------------------------------------------------------------------


class VerifyBattery:
    name = "verify-battery"
    calibration = "stream"  # child.py calibrates the pass with it

    def __init__(self, seed, smoke, env, outdir):
        self.seed, self.smoke, self.env = seed, smoke, env

    def run(self, seconds, spans=None, period=None):
        def op(i, out, clock):
            cmd = [sys.executable, str(HERE / "child.py"), "verify", "--seed", str(self.seed)]
            if self.smoke:
                cmd.append("--smoke")
            if period:
                cmd += ["--period", str(period)]
            if spans is not None:
                cmd += ["--spans", str(spans)]
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise RuntimeError(f"verify pass exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            for suite in result["suites"]:
                out.check(suite["passed"], f"{suite['name']}: {suite['message']}")
            out.items += len(result["suites"])
            out.sample("verify_pass", result["pass_s"])
            clock.add(result["pass_s"], result["pass_cal"])

        return closed_loop(op, seconds, Clock(self.calibration))

    def report(self, outcome):
        """Workload-specific metrics: name -> (value, unit, n)."""
        passes = outcome.samples["verify_pass"]
        return {"verify_s": (statistics.median(passes), "s", len(passes))}


# ----------------------------------------------------------------------
# kernel-stream
# ----------------------------------------------------------------------


def _polar(r, angle):
    return r * complex(math.cos(angle), math.sin(angle))


def random_batch(rng, size):
    """Point pairs with 1-|y| log-uniform on [1e-3, 0.75], y = z2 conj(w2),
    and |z1/z2|, |w1/w2| uniform below 0.95.

    1-|y| is drawn by strata, one pair per 1/size-quantile of its law in a
    shuffled order: the 2F1 series cost grows like 1/(1-|y|), so iid draws
    would let a seed's few pairs nearest the boundary set its batch cost.
    """
    strata = (rng.permutation(size) + rng.uniform(size=size)) / size
    pairs = []
    for u in strata:
        abs_y = 1.0 - math.exp(math.log(1e-3) + u * math.log(0.75 / 1e-3))
        split = rng.uniform(0.05, 0.95)
        z2 = _polar(abs_y**split, rng.uniform(0.0, 2.0 * math.pi))
        w2 = _polar(abs_y ** (1.0 - split), rng.uniform(0.0, 2.0 * math.pi))
        z1 = z2 * _polar(rng.uniform(0.0, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        w1 = w2 * _polar(rng.uniform(0.0, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        pairs.append((z1, z2, w1, w2))
    return pairs


def _pair_json(z1, z2, w1, w2):
    def point(a, b):
        return {"z1": [a.real, a.imag], "z2": [b.real, b.imag]}

    return {"z": point(z1, z2), "w": point(w1, w2)}


class KernelStream:
    name = "kernel-stream"
    calibration = "interp"

    def __init__(self, seed, smoke, env, outdir):
        batch = 4 if smoke else 128
        rng = np.random.default_rng([seed, 2])
        # Every round sends the same batches, so rounds cost the same; the
        # pairs repeat because each one needs an mpmath reference.
        self.inputs = {}  # (nu, b) -> (json path, references)
        self.out_path = outdir / "kernel-out.csv"
        for b in range(1 if smoke else 2):
            for nu in KERNEL_NUS:
                pairs = random_batch(rng, batch)
                path = outdir / f"kernel-in-{nu:g}-{b}.json"
                path.write_text(json.dumps([_pair_json(*p) for p in pairs]))
                self.inputs[(nu, b)] = (path, [reference.kernel(nu, *p) for p in pairs])

    def run(self, seconds, spans=None, period=None):
        from hartogs import cli

        def op(i, out, clock):
            for (nu, _), (path, refs) in self.inputs.items():
                if self.out_path.exists():
                    self.out_path.unlink()
                argv = ["kernel", "--nu", repr(nu), "--in", str(path), "--out", str(self.out_path)]
                code = clock(cli.main, argv)
                out.sample("kernel_batch", clock.last_s)
                out.attempted += len(refs)
                out.items += len(refs)
                out.failed += self._check(nu, code, refs, out)

        with traced(spans):
            return closed_loop(op, seconds, Clock(self.calibration, period))

    def report(self, outcome):
        """Workload-specific metrics: name -> (value, unit, n)."""
        batches = outcome.samples["kernel_batch"]
        return {
            "kernel_pairs_per_s": (outcome.items / sum(outcome.op_s), "1/s", outcome.items),
            "kernel_batch_p50_ms": median_ms(batches),
            "kernel_batch_p90_ms": (1e3 * statistics.quantiles(batches, n=10)[-1], "ms", len(batches)),
        }

    def _check(self, nu, code, refs, out):
        """Number of wrong pairs in one batch's CSV output."""
        if code != 0:
            out.error(f"kernel --nu {nu} exited {code}")
            return len(refs)
        rows = self.out_path.read_text().splitlines()[1:]
        if len(rows) != len(refs):
            out.error(f"kernel --nu {nu}: {len(rows)} rows for {len(refs)} pairs")
            return len(refs)
        bad = 0
        for row, ref in zip(rows, refs):
            fields = row.split(",")
            val = complex(float(fields[5]), float(fields[6]))
            err = abs(val - ref) / abs(ref)
            if not (float(fields[0]) == nu and err <= KERNEL_TOL):
                bad += 1
                out.error(f"kernel --nu {nu}: {row} vs reference {ref} (rel err {err:.2e})")
        return bad


# ----------------------------------------------------------------------
# oracle-callable
# ----------------------------------------------------------------------


def bump(z1, z2):
    """Compactly supported power-window bump on 0.3 < |z1/z2| < 0.55,
    0.25 < |z2| < 0.9 (the integrand of the tau-invariance suite)."""
    x = np.abs(z1 / z2) ** 2
    y = np.abs(z2)
    w1 = np.clip((x - 0.09) * (0.3025 - x), 0.0, None) / (0.5 * (0.3025 - 0.09)) ** 2
    w2 = np.clip((y - 0.25) * (0.9 - y), 0.0, None) / (0.5 * (0.9 - 0.25)) ** 2
    return w1**12 * w2**12


def monomial_sq(scale, j, k):
    return lambda z1, z2: scale * np.abs(z1) ** (2 * j) * np.abs(z2) ** (2 * k)


def gaussian_z2(scale):
    return lambda z1, z2: np.exp(-scale * np.abs(z2) ** 2)


class OracleCallable:
    name = "oracle-callable"
    calibration = "stream"

    def __init__(self, seed, smoke, env, outdir):
        from hartogs import coeffspace, geometry, quadrature

        rng = np.random.default_rng([seed, 3])
        self.smoke = smoke
        self.mc_samples = 10_000 if smoke else MC_SAMPLES
        self.rule_size = (16, 17) if smoke else (64, 65)  # (64, 65) is the default rule
        self.mu_rule = quadrature.build_rule(ORACLE_NU, *self.rule_size) if smoke else None
        self.tau_rule = quadrature.build_tau_rule(**TAU_RULE)
        self.tau_mass = quadrature.integrate_tau(bump, self.tau_rule).real
        self.rounds = []
        for _ in range(ORACLE_ROUNDS):
            psi = geometry.random_automorphism(rng, max_center=TAU_CENTER_CAP)
            j, k = int(rng.choice(MONOMIAL_J)), int(rng.choice(MONOMIAL_K))
            c, g = rng.uniform(0.5, 2.0, size=2)
            monomial = (f"{c:.3f} |z1^{j} z2^{k}|^2", monomial_sq(c, j, k), c * coeffspace.monomial_norm_sq(ORACLE_NU, j, k))
            gaussian = (f"exp(-{g:.3f} |z2|^2)", gaussian_z2(g), reference.gaussian_z2_moment(ORACLE_NU, g))
            self.rounds.append((psi, monomial, gaussian, int(rng.integers(0, 2**31))))

    def run(self, seconds, spans=None, period=None):
        from hartogs import quadrature

        rule = self.tau_rule
        tau_points = rule.r1_nodes.size * rule.r2_nodes.size * rule.angular**2
        mu_points = self.rule_size[0] ** 2 * self.rule_size[1] ** 2

        def op(i, out, clock):
            psi, monomial, gaussian, mc_seed = self.rounds[i % len(self.rounds)]
            moved = clock(quadrature.integrate_tau, bump, rule, automorphism=psi).real
            out.sample("tau_integral", clock.last_s)
            out.check(abs(moved - self.tau_mass) <= TAU_TOL, f"tau mass {moved} vs {self.tau_mass}")

            for label, fn, expected in (monomial, gaussian):
                val = clock(quadrature.integrate_mu, ORACLE_NU, fn, self.mu_rule)
                out.sample("mu_integral", clock.last_s)
                ok = abs(val - expected) <= MU_TOL * abs(expected)
                out.check(ok, f"integrate_mu({label}) = {val} vs {expected}")

            label, fn, expected = monomial
            est, err = clock(quadrature.mc_integrate_mu, ORACLE_NU, fn, self.mc_samples, mc_seed)
            out.sample("mc_integral", clock.last_s)
            ok = abs(est - expected) <= MC_SIGMAS * err
            out.check(ok, f"mc_integrate_mu({label}) = {est} +- {err} vs {expected}")
            out.items += tau_points + 2 * mu_points + self.mc_samples

        with traced(spans):
            return closed_loop(op, seconds, Clock(self.calibration, period))

    def report(self, outcome):
        """Workload-specific metrics: name -> (value, unit, n)."""
        mc = outcome.samples["mc_integral"]
        return {
            "tau_integral_ms": median_ms(outcome.samples["tau_integral"]),
            "mu_integral_ms": median_ms(outcome.samples["mu_integral"]),
            "mc_samples_per_s": (self.mc_samples * len(mc) / sum(mc), "1/s", len(mc)),
        }


WORKLOADS = {w.name: w for w in (VerifyBattery, KernelStream, OracleCallable)}
