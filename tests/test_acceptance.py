"""Acceptance battery: the thirteen exit criteria at their stated tolerances.

Each test drives the corresponding cross-validation suite with the
documented parameters, prints one PASS/FAIL line (visible under
``pytest -s`` or in the captured output of a failing run) and asserts
the suite verdict.  Run the whole battery with

    pytest tests/test_acceptance.py -v -s
"""

import time

from hartogs import verify


def _drive(number, label, suite_name, **kwargs):
    start = time.time()
    res = verify.run_suite(suite_name, **kwargs)
    elapsed = time.time() - start
    status = "PASS" if res.passed else "FAIL"
    detail = f" [{res.message}]" if res.message else ""
    print(f"ACCEPTANCE {number:2d} {status} ({elapsed:5.1f}s) {label}{detail}")
    assert res.passed, f"criterion {number} ({label}): {res.message}"
    return res


def test_criterion_01_normalization():
    # mu_nu is a probability measure: quadrature reproduces mass 1 to 1e-10
    _drive(1, "normalization of mu_nu", "normalization",
           tol=1e-10, nus=(-0.5, -0.1, 0.0, 0.7, 2.0, 3.5))


def test_criterion_02_monomial_norms():
    # Gamma closed form vs quadrature (1e-8); nu = 0 closed form exact (1e-12)
    _drive(2, "monomial norms vs quadrature", "monomials",
           tol=1e-8, nus=(-0.5, 0.0, 0.7, 2.0), jmax=4, kmax=4, nu0_tol=1e-12)


def test_criterion_03_kernels():
    # series vs closed form (1e-8, 100 pairs x 8 regimes), even reduction
    # (1e-10), reproducing identity (1e-8, 20 polynomials x 20 points)
    _drive(3, "kernel series agreement", "kernel-agreement", tol=1e-8, pairs=100)
    _drive(3, "reproducing identity", "reproducing", tol=1e-8, n_funcs=20, n_points=20)


def test_criterion_03_kernels_seed_31():
    # seed 31 draws a nu = 3.5 pair whose series terms cancel by nine
    # digits; a double-precision series oracle misses 1e-8 there
    _drive(3, "kernel series agreement, seed 31", "kernel-agreement", seed=31, tol=1e-8, pairs=100)


def test_criterion_04_kernel_estimate():
    # boundary ratio under the derived constant on 1e4 samples; exact
    # constants 1/2 and 1 at nu = 0 and nu = -1
    _drive(4, "kernel boundary estimate", "kernel-estimate", samples=10_000)


def test_criterion_05_critical_ranges():
    # case form vs unified ceiling form (1e-12, 1000 random nu + evens),
    # spot values (4/3,4), (3/2,3), (1.4,3.5)
    _drive(5, "critical exponent ranges", "critical-range", tol=1e-12, count=1000)


def test_criterion_06_schur_feasibility():
    # Schur windows nonempty iff p inside the range: zero disagreements
    _drive(6, "Schur feasibility iff range", "schur-feasibility", grid=50)


def test_criterion_07_blowup():
    # fitted truncation exponents within 5%, interior exponents convergent
    _drive(7, "endpoint blow-up scan", "blowup", rel_tol=0.05)


def test_criterion_08_projection():
    # P_nu fixes monomials exactly; d_nu matches quadrature (1e-7);
    # self-adjointness on 50 random mixed pairs (1e-7)
    _drive(8, "Bergman projection", "projection", tol=1e-7, pairs=50)


def test_criterion_09_szego():
    # idempotence and contraction exact; FFT grid agreement (1e-11);
    # p-norm ratios do not grow from degree 8 to 32 (factor <= 1.2)
    _drive(9, "Szego projection", "szego",
           grid_tol=1e-11, degrees=(8, 32), ps=(1.5, 3.0), n_polys=200, growth_cap=1.2)


def test_criterion_10_hardy_limit():
    # Bergman norms converge to the Hardy norm along nu -> -1 (1e-3 at
    # nu = -1 + 1e-4, decreasing along m = 1..4)
    _drive(10, "Hardy norm as Bergman limit", "hardy-limit", tol=1e-3, n_funcs=20)


def test_criterion_11_isometries():
    # exact norm equality (1e-15) on 100 random inputs per isometry;
    # pullback norm vs quadrature (1e-8); image support for nu <= 0
    _drive(11, "bidisc isometries", "isometries",
           count=100, quad_tol=1e-8, quad_nus=(-0.5, 0.0, 1.0))


def test_criterion_12_t_split_norms():
    # Beta closed forms vs quadrature (1e-7, 20 polynomials per nu);
    # star-norm/Bergman-norm ratio spread below 1e3 over 200 polynomials
    _drive(12, "T-split norms and equivalence", "t-split",
           tol=1e-7, nus=(-0.5, 0.0, 1.0), n_funcs=20, ratio_funcs=200, ratio_cap=1e3)


def test_criterion_13_tau_invariance():
    # automorphism invariance of K(z,z) dz within 1e-6 on 20 random maps
    _drive(13, "tau invariance", "tau-invariance", tol=1e-6, n_autos=20)
