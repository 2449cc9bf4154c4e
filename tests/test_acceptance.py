"""Acceptance battery: the thirteen exit criteria at their stated tolerances.

Each test runs the corresponding cross-validation suite as
``hartogs verify all`` does, at the bounds the suite ships with, prints
one PASS/FAIL line (visible under ``pytest -s`` or in the captured
output of a failing run) and asserts the suite verdict.  Run the whole
battery with

    pytest tests/test_acceptance.py -v -s
"""

import time

from hartogs import verify


def _drive(number, label, suite_name, seed=0):
    start = time.time()
    res = verify.run_suite(suite_name, seed=seed)
    elapsed = time.time() - start
    status = "PASS" if res.passed else "FAIL"
    detail = f" [{res.message}]" if res.message else ""
    print(f"ACCEPTANCE {number:2d} {status} ({elapsed:5.1f}s) {label}{detail}")
    assert res.passed, f"criterion {number} ({label}): {res.message}"
    return res


def test_criterion_01_normalization():
    # mu_nu is a probability measure: quadrature reproduces mass 1 to 1e-10
    # at nu = -0.5, -0.1, 0, 0.7, 2 and 3.5
    _drive(1, "normalization of mu_nu", "normalization")


def test_criterion_02_monomial_norms():
    # Gamma closed form vs quadrature (1e-8) for j <= 4, |k| <= 4 at
    # nu = -0.5, 0, 0.7, 2; nu = 0 closed form exact (1e-12)
    _drive(2, "monomial norms vs quadrature", "monomials")


def test_criterion_03_kernels():
    # series vs closed form (1e-8, 100 pairs x 8 regimes), the closed form at
    # nu = 0, 2, 4, where F reduces to (1-y)^(-nu-2), vs the series (1e-10, 40
    # pairs each), reproducing identity (1e-8, 20 polynomials x 20 points)
    _drive(3, "kernel series agreement", "kernel-agreement")
    _drive(3, "reproducing identity", "reproducing")


def test_criterion_03_kernels_seed_31():
    # seed 31 draws a nu = 3.5 pair whose series terms cancel by nine
    # digits; a double-precision series oracle misses 1e-8 there
    _drive(3, "kernel series agreement, seed 31", "kernel-agreement", seed=31)


def test_criterion_04_kernel_estimate():
    # boundary ratio under the derived constant, its sup over |y| <= 0.998 taken
    # on the circle |y| = 0.998 (maximum modulus); exact constants 1/2 and 1 at
    # nu = 0 and nu = -1
    _drive(4, "kernel boundary estimate", "kernel-estimate")


def test_criterion_05_critical_ranges():
    # ceiling form against (2 - 2/(3+n), 2 + 2/(1+n)) at nu = 2n (1e-12),
    # spot values (4/3,4), (3/2,3), (1.4,3.5)
    _drive(5, "critical exponent ranges", "critical-range")


def test_criterion_06_schur_feasibility():
    # the mode w2^(-1-ceil(nu/2)) at nu = 0, 0.7, 2, 3.5: its Hoelder norm at
    # p+(1 - delta) and p-(1 + delta), delta = 1e-2, 1e-3, 1e-4, by Beta
    # moments vs quadrature (1e-12); log-log slope vs -1/p+ (2e-2)
    _drive(6, "mode norm finite inside the range", "schur-feasibility")


def test_criterion_07_blowup():
    # log-log slope of the truncated mode integral _tail_integral over
    # eps = 1e-4, 1e-5, 1e-6: s + 1 within 5% beyond the endpoint, 0 within
    # 0.02 inside it
    _drive(7, "endpoint blow-up", "blowup")


def test_criterion_08_projection():
    # P_nu fixes monomials exactly; d_nu matches quadrature (1e-7);
    # self-adjointness on 50 random mixed pairs (1e-7)
    _drive(8, "Bergman projection", "projection")


def test_criterion_09_szego():
    # idempotence and contraction exact; FFT grid agreement (1e-11);
    # P_S conjugate to P+ x P+ on the grid (1e-12); sharp-norm witnesses at
    # p = 1.5 and 3, N = 16, 32, 64: 2-D ratio = 1-D ratio squared (1e-12),
    # inside (1, csc^2(pi/p)) and rising with N
    _drive(9, "Szego projection", "szego")


def test_criterion_10_hardy_limit():
    # Bergman norms of 20 random polynomials converge to the Hardy norm
    # along nu -> -1: one worst row, 1e-3 at nu = -1 + 1e-4; every gap
    # decreasing along m = 1..4
    _drive(10, "Hardy norm as Bergman limit", "hardy-limit")


def test_criterion_11_isometries():
    # map and norm read by a 2-D FFT of function values (1e-13) on 10
    # random inputs at each of nu = -2, -1.9, -1.5, -1.2, -1; exact round
    # trips; pullback norm vs quadrature (1e-8) at nu = -0.5, 0, 1; image
    # support for nu <= 0
    _drive(11, "bidisc isometries", "isometries")


def test_criterion_12_t_split_norms():
    # Beta closed forms vs quadrature (1e-7, 20 polynomials per nu at
    # nu = -0.5, 0, 1); the sharp star/Bergman constants c^2 and C^2 in
    # closed form against the library at z1 (1e-12), at depth 1e4 (1e-9)
    # and extrapolated from depths 1e4-4e4 (1e-6); 20 random ratios in
    # [c, C] to 1e-12
    _drive(12, "T-split norms and equivalence", "t-split")


def test_criterion_13_tau_invariance():
    # automorphism invariance of the tau mass of a bump within 1e-6 on 20
    # random maps, each mass a product of a w1-disc sum and a w2 sum;
    # that product tied to the 4-D integrate_tau (1e-12) at the identity
    # and at the first map
    _drive(13, "tau invariance", "tau-invariance")
