"""Special-function layer: values, properties, failure modes."""

import math

import numpy as np
import pytest
import mpmath
from scipy.integrate import quad

from hartogs.coeffspace import SpaceParam
from hartogs.specfun import (
    DomainError,
    gamma_ratio_signed,
    gauss_2f1,
)


def _mp_2f1(a, b, g, z):
    """40-digit mpmath reference for 2F1(a, b; g; z)."""
    with mpmath.workdps(40):
        return complex(mpmath.hyp2f1(a, b, g, z))


def beta(a, b):
    """B(a, b) through the one Gamma-ratio routine."""
    return gamma_ratio_signed([a, b], [a + b])


class TestGammaRatio:
    def test_trivial_values(self):
        assert gamma_ratio_signed([3.0], [1.0, 2.0]) == pytest.approx(2.0, rel=1e-13)
        assert gamma_ratio_signed([1.0], [1.0]) == pytest.approx(1.0, rel=1e-14)
        assert gamma_ratio_signed([5.0, 1.0], [3.0, 3.0]) == pytest.approx(6.0, rel=1e-13)

    def test_reciprocal_property(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            nums = list(rng.uniform(0.1, 50.0, size=3))
            dens = list(rng.uniform(0.1, 50.0, size=2))
            prod = gamma_ratio_signed(nums, dens) * gamma_ratio_signed(dens, nums)
            assert prod == pytest.approx(1.0, rel=1e-12)

    def test_no_overflow_for_large_arguments(self):
        # Gamma(9000)/Gamma(9001) would overflow termwise; the log route is fine
        assert gamma_ratio_signed([9000.0], [9001.0]) == pytest.approx(1.0 / 9000.0, rel=1e-11)

    def test_ratio_beyond_the_double_range_is_a_domain_error(self):
        # Gamma(171.5) is about 9.5e307, below the largest double 1.8e308
        assert math.isfinite(gamma_ratio_signed([171.5], []))
        with pytest.raises(DomainError, match="leaves the double range"):
            gamma_ratio_signed([172.0], [])
        with pytest.raises(DomainError, match="leaves the double range"):
            gamma_ratio_signed([-0.5, 300.0], [])  # a negative ratio too

    def test_log_gamma_beyond_the_double_range_is_a_domain_error(self):
        # math.lgamma raises OverflowError past about 2.55e305, though the ratio here is 1
        assert gamma_ratio_signed([2e305], [2e305]) == 1.0
        for nums, dens in (([3e305], [3e305]), ([1.0], [1e308]), ([-0.5, 3e305], [])):
            with pytest.raises(DomainError, match="leaves the double range: a log-Gamma overflows"):
                gamma_ratio_signed(nums, dens)

    def test_ratio_that_underflows_is_a_domain_error(self):
        # 1/Gamma(500) is about 1e-1132, which exp rounds to 0; 1/Gamma(178), 6.6e-323, is subnormal
        with pytest.raises(DomainError, match="leaves the double range"):
            gamma_ratio_signed([1.0], [500.0])
        with pytest.raises(DomainError, match="leaves the double range"):
            gamma_ratio_signed([-0.5], [500.0])  # a negative ratio too
        assert 0.0 < gamma_ratio_signed([1.0], [178.0]) < 1e-322

    def test_signed_ratio_matches_positive_route(self):
        # against the Gamma values themselves, which do not overflow here
        rng = np.random.default_rng(3)
        for _ in range(100):
            nums = list(rng.uniform(0.1, 20.0, size=2))
            dens = list(rng.uniform(0.1, 20.0, size=2))
            direct = math.prod(map(math.gamma, nums)) / math.prod(map(math.gamma, dens))
            assert gamma_ratio_signed(nums, dens) == pytest.approx(direct, rel=1e-12)

    def test_signed_pole_in_denominator_gives_zero(self):
        assert gamma_ratio_signed([1.0], [-1.0]) == 0.0


def _is_pole(x):
    return x <= 0.0 and x == math.floor(x)


def loop_gamma_ratio_signed(numerators, denominators):
    """The Gamma ratio as a loop of 40-digit mpmath Gamma values, one per
    argument, rounded once at the end.  A pole in a denominator gives 0.0,
    one in a numerator the signed infinity, one on each side DomainError."""
    num_pole = any(map(_is_pole, numerators))
    den_pole = any(map(_is_pole, denominators))
    if num_pole and den_pole:
        raise DomainError("gamma_ratio_signed: pole over pole is ambiguous")
    if den_pole:
        return 0.0
    with mpmath.workdps(40):
        value = mpmath.mpf(1)
        for a in numerators:
            if not _is_pole(a):
                value *= mpmath.gamma(a)
        for b in denominators:
            value /= mpmath.gamma(b)
        return math.copysign(math.inf, value) if num_pole else float(value)


def assert_matches_the_loop(nums, dens):
    """1e-13 relative against the loop; a pole's 0.0 or infinity exactly."""
    got, ref = gamma_ratio_signed(nums, dens), loop_gamma_ratio_signed(nums, dens)
    if ref == 0.0 or math.isinf(ref):
        assert got == ref
    else:
        assert abs(got - ref) <= 1e-13 * abs(ref), (nums, dens, got, ref)


class TestGammaRatioSignedReference:
    def test_equals_the_loop_on_random_arguments(self):
        rng = np.random.default_rng(14)
        for _ in range(3000):
            n_num, n_den = rng.integers(0, 5, size=2)
            args = rng.uniform(-12.0, 30.0, size=n_num + n_den)
            assert_matches_the_loop(args[:n_num].tolist(), args[n_num:].tolist())

    def test_equals_the_loop_on_the_weight_arguments(self):
        """The seven arguments of a coefficient weight, positive and negative."""
        for nu in (-1.9, -1.5, -4.0 / 3.0 + 1e-3, -0.5, 0.7, 3.5, 41.3):
            for j in range(4):
                for k in range(-j - 3, 4):
                    nums = [nu + 2.0, 1.5 * nu + 3.0, j + 1.0, j + k + 0.5 * nu + 2.0]
                    dens = [0.5 * nu + 2.0, j + nu + 2.0, j + k + 1.5 * nu + 3.0]
                    assert_matches_the_loop(nums, dens)

    @pytest.mark.parametrize("n", [-1.0, -2.0, -3.0])
    def test_next_to_a_negative_integer(self, n):
        # 1.5 nu + 2 and the weight's j + k + 1.5 nu + 3 at j + k = -1 tend to -1 as nu -> -2
        for m in range(2, 13):
            for x in (n + 10.0**-m, n - 10.0**-m):
                assert_matches_the_loop([x], [])
                assert_matches_the_loop([2.5], [x])

    def test_sign_between_the_first_poles(self):
        # Gamma is negative on (-1, 0) and positive on (-2, -1)
        for x in np.linspace(-1.0, 0.0, 51)[1:-1].tolist():
            assert gamma_ratio_signed([x], []) < 0.0 and gamma_ratio_signed([1.0], [x]) < 0.0
        for x in np.linspace(-2.0, -1.0, 51)[1:-1].tolist():
            assert gamma_ratio_signed([x], []) > 0.0 and gamma_ratio_signed([1.0], [x]) > 0.0

    @pytest.mark.parametrize(
        "nums, dens",
        [([-2.0, 1.5], [0.5]), ([1.5], [-3.0, 2.5]), ([0.0], [2.0]), ([2.5], [0.0, -0.5]), ([-1.5, 3.0], [-0.5, 4.0])],
    )
    def test_same_value_at_poles(self, nums, dens):
        assert_matches_the_loop(nums, dens)

    @pytest.mark.parametrize("nums, dens", [([-1.0], [0.0]), ([2.5, -3.0], [1.5, -2.0])])
    def test_pole_over_pole_raises_as_the_loop(self, nums, dens):
        with pytest.raises(DomainError, match="pole over pole"):
            loop_gamma_ratio_signed(nums, dens)
        with pytest.raises(DomainError, match="pole over pole"):
            gamma_ratio_signed(nums, dens)


class TestBeta:
    def test_trivial_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta(2.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_against_integral_oracle(self):
        # B(1.5, 2.5) = int_0^1 x^0.5 (1-x)^1.5 dx, evaluated independently
        oracle, _ = quad(lambda x: x**0.5 * (1.0 - x) ** 1.5, 0.0, 1.0, epsabs=1e-14)
        val = beta(1.5, 2.5)
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(math.pi / 16.0, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = rng.uniform(0.05, 30.0, size=2)
            assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-13)


def _kernel_triples(rng, count):
    """(nu, q, gamma) of the kernel family at random nu in (-2, 20/3): q = (alpha + 1) - gamma
    as the kernel forms it, alpha = 3nu/2 - c + 2, gamma = b1."""
    for nu in rng.uniform(-1.999, 20.0 / 3.0, size=count):
        sp = SpaceParam(float(nu))
        yield sp.nu, (1.5 * sp.nu - sp.ceil + 3.0) - sp.b1, sp.b1


def _mp_family(q, gam, z, euler):
    """40-digit mpmath F(q+gamma-1, 1; gamma; z), or G = F(1-q, gamma-1; gamma; z), its
    parameters formed exactly from the doubles q and gamma."""
    with mpmath.workdps(40):
        q, gam = mpmath.mpf(q), mpmath.mpf(gam)
        return _mp_2f1(1 - q, gam - 1, gam, z) if euler else _mp_2f1(q + gam - 1, 1, gam, z)


class TestGauss2F1:
    def test_binomial_identity(self):
        # F(a, 1; 1; z) = (1-z)^(-a), q = a at gamma = 1
        assert gauss_2f1(3.0, 1.0, 0.5) == pytest.approx(8.0, rel=1e-12)

    def test_value_at_zero(self):
        rng = np.random.default_rng(5)
        for _, q, gam in _kernel_triples(rng, 50):
            assert gauss_2f1(q, gam, 0.0) == pytest.approx(1.0)
            assert gauss_2f1(q, gam, 0.0, euler=True) == pytest.approx(1.0)

    def test_even_weight_reduction(self):
        # the nu = 2 kernel factor: F(4, 1; 1; z) = (1-z)^(-4)
        val = gauss_2f1(4.0, 1.0, 0.3)
        assert val == pytest.approx(0.7**-4, rel=1e-12)
        assert val == pytest.approx(4.16493128, rel=1e-8)

    def test_at_gamma_one_f_is_numpys_power_and_g_is_one(self):
        """The collapse is decided on the whole array: every q > 0, also above 9."""
        rng = np.random.default_rng(10)
        z = rng.uniform(0.0, 0.999, 300) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 300))
        for q in (0.5, 2.0, 9.0, 10.0, 42.0, 102.0):
            np.testing.assert_array_equal(gauss_2f1(q, 1.0, z), (1.0 - z) ** -q)
            np.testing.assert_array_equal(gauss_2f1(q, 1.0, z, euler=True), np.ones_like(z))

    @pytest.mark.parametrize("gam", [0.05, 0.35, 0.5, 0.999])
    def test_at_q_one_g_is_one_on_a_dense_circle(self, gam):
        # G = F(0, gamma-1; gamma; z) = 1 exactly; the series read 1 + 6.7e-16 at nu = -1
        y = 0.998 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 4097))
        np.testing.assert_array_equal(gauss_2f1(1.0, gam, y, euler=True), np.ones_like(y))
        np.testing.assert_array_equal(gauss_2f1(1.0, gam, y), (1.0 - y) ** -1.0)

    def test_parameter_symmetry(self):
        """Euler's map of the parameters (a, b; c) -> (c-a, c-b; c) takes F's triple
        to G's, with F = (1-z)^(-q) G, q = a + b - c: one identity per region."""
        rng = np.random.default_rng(6)
        for nu, q, gam in _kernel_triples(rng, 100):
            z = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.3, 0.3)
            lhs = gauss_2f1(q, gam, z)
            rhs = (1.0 - z) ** (-(nu + 2.0)) * gauss_2f1(q, gam, z, euler=True)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_against_mpmath(self):
        rng = np.random.default_rng(8)
        for _, q, gam in _kernel_triples(rng, 100):
            for euler in (False, True):
                z = rng.uniform(-0.95, 0.95)
                mine = gauss_2f1(q, gam, z, euler)
                ref = _mp_family(q, gam, z, euler)
                assert abs(mine - ref) <= 1e-9 * max(abs(ref), 1.0)

    def test_near_boundary_accuracy(self):
        # kernel-shaped parameters stay accurate out to |z| = 0.999
        nu = 0.7
        c = math.ceil(nu / 2)
        gam = 0.5 * nu - c + 1.0
        q = (1.5 * nu - c + 3.0) - gam
        for z in (0.95, 0.99, 0.999):
            mine = gauss_2f1(q, gam, z)
            ref = _mp_family(q, gam, z, False)
            assert abs(mine - ref) <= 1e-10 * abs(ref)

    def test_domain_errors(self):
        for z in (1.0 + 0.0j, np.array([0.5, -1.0]), 0.8 + 0.6j):
            with pytest.raises(DomainError, match=r"\|z\| < 1"):
                gauss_2f1(2.0, 0.5, z)

    # q <= 0, q > 9 at gamma < 1, gamma outside (0, 1]
    @pytest.mark.parametrize("params", [(0.0, 0.5), (-1.0, 0.5), (9.5, 0.5), (1.0, 0.0), (1.0, 1.5), (1.0, -3.0)])
    def test_a_triple_outside_the_kernel_family_is_refused(self, params):
        for euler in (False, True):
            with pytest.raises(DomainError, match="resolved for"):
                gauss_2f1(*params, np.array([0.5, 0.9j]), euler)

    @pytest.mark.parametrize("nu", [-1.5, 0.7, 3.5])
    def test_every_series_region_against_mpmath(self, nu):
        """One point batch per series: the Maclaurin series (|y| small), the
        incomplete-Beta form (y next to 1), G's and F's Pfaff series (|w| below and
        above 0.55) and the Taylor series about z0 (next to e^(+-i pi/3)), each in
        its mirror image below the axis too: 1e-13 relative to 40-digit mpmath at the
        same double parameters, F and G alike.  A mirrored point is the conjugate."""
        sp = SpaceParam(nu)
        y = np.array([0.3 + 0.1j, -0.5 + 0.2j, 0.999 + 0.02j, 0.9 - 0.3j, -0.9, -0.6 + 0.75j, -0.2 + 0.95j])
        y = np.concatenate([y, 0.99 * np.exp(1j * np.pi / 3) * np.array([1.0, 0.95, 0.9j ** 0.1])])
        q = (1.5 * nu - sp.ceil + 3.0) - sp.b1
        for euler in (False, True):
            got = gauss_2f1(q, sp.b1, np.concatenate([y, y.conj()]), euler)
            np.testing.assert_array_equal(got[y.size :], got[: y.size].conj())
            for v, mine in zip(y, got):
                ref = _mp_family(q, sp.b1, v, euler)
                assert abs(mine - ref) <= 1e-13 * abs(ref), (v, mine, ref)

    def test_a_point_is_the_same_alone_and_in_any_batch(self):
        """Every chunk's product with the coefficients runs at the full chunk width, so
        no point's value depends on the others it is evaluated with, bit for bit."""
        rng = np.random.default_rng(9)
        y = rng.uniform(0.0, 0.999, 300) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 300))
        for euler in (False, True):
            batch = gauss_2f1(2.7, 0.35, y, euler)
            assert [complex(v) for v in batch[::20]] == [gauss_2f1(2.7, 0.35, v, euler) for v in y[::20]]
            np.testing.assert_array_equal(batch[37:200], gauss_2f1(2.7, 0.35, y[37:200], euler))
