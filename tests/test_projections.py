"""Bergman and Szego projections, critical ranges, mode moments, truncated integrals."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import cli, projections, quadrature
from hartogs.coeffspace import LaurentCoeffs, MixedPoly, SpaceParam, TorusSeries
from hartogs.projections import (
    CriticalRange,
    IntegrabilityError,
    critical_range,
    lp_norm_torus,
    project_bergman,
    project_szego,
    project_szego_grid,
    szego_multiplier,
)
from hartogs.specfun import DomainError
from hartogs.verify import (
    _SZEGO_WITNESSES,
    _mode_moments,
    _random_torus,
    _szego_by_conjugation,
    _szego_witness,
    _torus_samples,
)


class TestProjectBergman:
    def test_fixes_basis_monomials(self):
        # the coefficient is one weight over the same weight: exactly 1.0
        for nu in (-0.5, 0.0, 0.7, 2.0, 3.5, 20.7, 41.3):
            for j in range(5):
                for k in range(-j - 25, 5):
                    if SpaceParam(nu).member(j, k):
                        assert project_bergman(nu, MixedPoly({(j, 0, k, 0): 1.0})).terms == {(j, k): 1.0}

    def test_conjugate_z2_power(self):
        # P_nu(conj(z2)^(1+ceil(nu/2))) = d_nu z2^(-1-ceil(nu/2)), d_nu > 0,
        # with the Beta-formula coefficient matching the quadrature oracle
        for nu in (-0.5, 0.0, 0.7, 2.0):
            m = 1 + math.ceil(0.5 * nu)
            image = project_bergman(nu, MixedPoly({(0, 0, 0, m): 1.0}))
            assert set(image.terms) == {(0, -m)}
            d_nu = image.get((0, -m))
            assert abs(d_nu.imag) < 1e-15 and d_nu.real > 0.0
            rule = quadrature.build_rule(nu, radial_order=32, angular_count=17)
            basis = LaurentCoeffs({(0, -m): 1.0})
            num = quadrature.inner_product_quad(nu, MixedPoly({(0, 0, 0, m): 1.0}), basis, rule)
            den = quadrature.inner_product_quad(nu, basis, basis, rule).real
            assert d_nu.real == pytest.approx((num / den).real, rel=1e-7)

    def test_kills_conjugate_z1(self):
        out = project_bergman(0.0, MixedPoly({(0, 1, 0, 0): 1.0}))
        assert len(out) == 0
        # brute force: the input is orthogonal to every basis monomial
        rule = quadrature.build_rule(0.0, radial_order=24, angular_count=21)
        f = MixedPoly({(0, 1, 0, 0): 1.0})
        for j in range(5):
            for k in range(-4, 5):
                if not SpaceParam(0.0).member(j, k):
                    continue
                basis = LaurentCoeffs({(j, k): 1.0})
                assert abs(quadrature.inner_product_quad(0.0, f, basis, rule)) <= 1e-12

    def test_idempotent_on_holomorphic_output(self):
        f = MixedPoly({(1, 0, 1, 0): 2.0, (0, 0, 0, 1): 1.0, (2, 1, 0, 0): 1.0j})
        once = project_bergman(0.7, f)
        again = project_bergman(0.7, MixedPoly({(j, 0, k, 0): a for (j, k), a in once.items()}))
        assert again == once

    def test_integrability_errors(self):
        with pytest.raises(IntegrabilityError):
            project_bergman(0.0, MixedPoly({(0, 0, -5, 0): 1.0}))
        # angular survivor (j, k) = (2, -3) whose pairing moment diverges
        with pytest.raises(IntegrabilityError, match="divergent moment"):
            project_bergman(0.0, MixedPoly({(2, 0, -4, -1): 1.0}))
        with pytest.raises(DomainError):
            project_bergman(-1.5, MixedPoly({(0, 0, 0, 0): 1.0}))

    def test_self_test_passes(self):
        assert projections.projection_self_test(0.3)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.7, 2.0, 3.5, 20.7])
    def test_coefficient_matches_the_beta_ratio(self, nu):
        """Against a 40-digit mpmath reference: the C_nu 2^(nu/2) pi^2 of the
        moment cancels against the squared norm of the surviving monomial,

            lambda = B(a+1, nu+1) B(a+c+nu/2+2, nu+1) / (B(j+1, nu+1) B(j+k+nu/2+2, nu+1)).
        """
        sp = SpaceParam(nu)
        with mpmath.workdps(40):
            v = mpmath.mpf(nu)
            for a in range(4):
                for b in range(a + 1):
                    for c in range(-1 - sp.ceil, 4):
                        for d in range(4):
                            j, k = a - b, c - d
                            if not sp.member(j, k):
                                continue
                            ref = (mpmath.beta(a + 1, v + 1) * mpmath.beta(a + c + v / 2 + 2, v + 1)) / (
                                mpmath.beta(j + 1, v + 1) * mpmath.beta(j + k + v / 2 + 2, v + 1)
                            )
                            lam = project_bergman(nu, MixedPoly({(a, b, c, d): 1.0})).get((j, k))
                            assert lam.imag == 0.0 and abs(lam.real - float(ref)) <= 1e-12 * float(ref)


class TestSzego:
    def test_multiplier_examples(self):
        assert szego_multiplier(0, -1) == 1
        assert szego_multiplier(0, -2) == 0
        assert szego_multiplier(-1, 5) == 0
        assert szego_multiplier(0, 0) == 1  # sgn(0) := +1 convention

    def test_idempotence_and_masking(self):
        f = TorusSeries({(0, -1): 1.0, (0, -2): 2.0, (-1, 5): 3.0, (2, 0): 4.0})
        sf = project_szego(f)
        assert sf == TorusSeries({(0, -1): 1.0, (2, 0): 4.0})
        assert project_szego(sf) == sf

    def test_kills_antiholomorphic_mode(self):
        assert len(project_szego(TorusSeries({(-1, 0): 1.0}))) == 0

    def test_contraction(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            terms = {
                (int(rng.integers(-6, 7)), int(rng.integers(-6, 7))): complex(
                    rng.normal(), rng.normal()
                )
                for _ in range(10)
            }
            f = TorusSeries(terms)
            sf = project_szego(f)
            assert sum(abs(a) ** 2 for _, a in sf.items()) <= sum(
                abs(a) ** 2 for _, a in f.items()
            ) + 1e-15


class TestSzegoGrid:
    @staticmethod
    def samples(f, n):
        theta = 2 * np.pi * np.arange(n) / n
        e1 = np.exp(1j * theta)[:, None]
        e2 = np.exp(1j * theta)[None, :]
        out = np.zeros((n, n), dtype=complex)
        for (j, k), a in f.items():
            out += a * e1**j * e2**k
        return out

    def test_matches_coefficient_projection(self):
        rng = np.random.default_rng(51)
        n = 17
        for _ in range(10):
            terms = {
                (int(rng.integers(-5, 6)), int(rng.integers(-5, 6))): complex(
                    rng.normal(), rng.normal()
                )
                for _ in range(8)
            }
            f = TorusSeries(terms)
            direct = self.samples(project_szego(f), n)
            grid = project_szego_grid(self.samples(f, n))
            assert float(np.max(np.abs(direct - grid))) <= 1e-11

    @pytest.mark.parametrize("degree, n", [(8, 37), (32, 133)])
    def test_matches_coefficient_projection_at_the_ratio_study_sizes(self, degree, n):
        """FFT route against the coefficient projection on 16-term series
        of degree 8 and 32, on odd grids of N = 37 and 133 that barely
        exceed 4 * degree."""
        rng = np.random.default_rng(53 + degree)
        for _ in range(5):
            f = _random_torus(rng, degree, n_terms=16)
            direct = self.samples(project_szego(f), n)
            grid = project_szego_grid(self.samples(f, n))
            assert float(np.max(np.abs(direct - grid))) <= 1e-11

    @pytest.mark.parametrize("m", [32, 33, 48])
    def test_conjugation_to_the_riesz_tensor_square(self, m):
        """P_S through z2 f(z1 z2, z2), the Riesz mask on each axis and back
        equals the 2-D FFT route for degree below M / 4."""
        rng = np.random.default_rng(55 + m)
        for _ in range(5):
            f = _random_torus(rng, (m - 1) // 4, n_terms=16)
            assert 0 < len(project_szego(f)) < len(f)
            samples = _torus_samples(f, m)
            assert float(np.max(np.abs(_szego_by_conjugation(samples) - project_szego_grid(samples)))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 255, 256, 257, 512])
    def test_bit_identical_to_masking_a_fresh_spectrum(self, n):
        """The 1-D passes into one grid, the inverse row pass on the (n + 1) // 2
        rows j >= 0 alone, give the bits of ifft2(fft2(x) * mask), with the
        Hardy mask j >= 0, j + k >= -1, and leave the input as it was; odd and
        tiny n move the boundary of the kept rows."""
        rng = np.random.default_rng([57, n])
        samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        before = samples.copy()
        freq = np.fft.fftfreq(n, d=1.0 / n)
        mask = (freq[:, None] >= 0) & (freq[:, None] + freq[None, :] >= -1)
        expected = np.fft.ifft2(np.fft.fft2(samples) * mask)
        assert np.array_equal(project_szego_grid(samples).view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(samples.view(np.uint64), before.view(np.uint64))

    def test_one_call_allocates_one_grid(self):
        """On a 512 x 512 grid (4 MiB) the call peaks at 1.25 grids at most:
        its result, the mask and 1-D buffers, and no spectrum grid beside it."""
        n = 512
        samples = np.random.default_rng(58).normal(size=(n, n)) + 0j
        tracemalloc.start()
        try:
            project_szego_grid(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * samples.nbytes, peak

    def test_constant_grid_unchanged(self):
        grid = np.full((8, 8), 2.5 + 0.5j)
        np.testing.assert_allclose(project_szego_grid(grid), grid, atol=1e-13)

    def test_pure_rejected_mode_zeroed(self):
        n = 16
        out = project_szego_grid(self.samples(TorusSeries({(0, -2): 1.0}), n))
        assert float(np.max(np.abs(out))) <= 1e-13

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            project_szego_grid(np.zeros((4, 5)))

    def test_empty_grid_is_refused(self):
        # 1 / N in the frequencies and (2 pi / N)^2 in the norm divided by zero
        with pytest.raises(DomainError, match="non-empty"):
            project_szego_grid(np.zeros((0, 0)))
        with pytest.raises(DomainError, match="non-empty"):
            lp_norm_torus(2.0, np.zeros((0, 0)))


# the 2-D witness ratios at M = 8N, N = 16, 32, 64, from an independent prototype
_WITNESS_TABLE = {1.5: (1.074682, 1.087826, 1.099254), 3.0: (1.002851, 1.030340, 1.054407)}


class TestSzegoSharpNorm:
    @pytest.mark.parametrize("p, gamma", _SZEGO_WITNESSES)
    def test_witness_ratio_is_the_one_variable_ratio_squared(self, p, gamma):
        ratios = []
        for n, expected in zip((16, 32, 64), _WITNESS_TABLE[p]):
            ratio_1d, ratio = _szego_witness(p, gamma, n)
            assert abs(ratio - ratio_1d**2) <= 1e-12 * ratio_1d**2
            assert abs(ratio - expected) <= 5e-7
            ratios.append(ratio)
        assert 1.0 < ratios[0] < ratios[1] < ratios[2] < 1.0 / math.sin(math.pi / p) ** 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0),
            min_size=1,
            max_size=12,
        ),
        st.floats(1.1, 6.0, exclude_min=True),
    )
    def test_ratio_stays_under_the_sharp_norm(self, terms, drawn_p):
        """||P_S f||_p <= csc^2(pi/p) ||f||_p for polynomials of degree 6 read
        on a 64 x 64 grid; the tolerance, 1e-12 relative, covers the rounding
        of the two sums."""
        samples = _torus_samples(TorusSeries(terms), 64)
        projected = project_szego_grid(samples)
        for p in (1.5, 3.0, drawn_p):
            bound = 1.0 / math.sin(math.pi / p) ** 2
            assert lp_norm_torus(p, projected) <= bound * lp_norm_torus(p, samples) * (1.0 + 1e-12)


class TestLpNorm:
    def test_constant(self):
        grid = np.ones((12, 12))
        for p in (1.5, 2.0, 3.0):
            assert lp_norm_torus(p, grid) == pytest.approx(
                (4 * math.pi**2) ** (1.0 / p), rel=1e-12
            )

    def test_single_modes_equal(self):
        n = 16
        theta = 2 * np.pi * np.arange(n) / n
        vals = []
        for j, k in ((1, 0), (0, -3), (2, 5)):
            grid = np.exp(1j * j * theta)[:, None] * np.exp(1j * k * theta)[None, :]
            vals.append(lp_norm_torus(1.5, grid))
        assert max(vals) - min(vals) <= 1e-12


def floor_form_range(nu):
    """The case-dispatched floor form of the range, a reference for the
    ceiling form of ``critical_range``:

    (i)   nu > 0, nu != 2n:  (2 - x/(2+nu-floor(nu/2)), 2 + x/(2+floor(nu/2))),
          x = nu - 2 floor(nu/2);
    (ii)  nu = 2n, n >= 0:   (2 - 2/(3+n), 2 + 2/(1+n));
    (iii) -1 < nu < 0:       (2 - (2+nu)/(3+nu), 4 + nu).
    """
    nu = SpaceParam(nu).require("bergman", "floor_form_range").nu
    n = round(0.5 * nu)
    if nu == 2.0 * n:
        return CriticalRange(2.0 - 2.0 / (3.0 + n), 2.0 + 2.0 / (1.0 + n))
    if nu > 0.0:
        fl = math.floor(0.5 * nu)
        x = nu - 2.0 * fl
        return CriticalRange(2.0 - x / (2.0 + nu - fl), 2.0 + x / (2.0 + fl))
    return CriticalRange(2.0 - (2.0 + nu) / (3.0 + nu), 4.0 + nu)


class TestCriticalRange:
    def test_spot_values(self):
        r = critical_range(0.0)
        assert (r.p_minus, r.p_plus) == pytest.approx((4.0 / 3.0, 4.0), rel=1e-15)
        r = critical_range(2.0)
        assert (r.p_minus, r.p_plus) == pytest.approx((1.5, 3.0), rel=1e-15)
        r = critical_range(-0.5)
        assert (r.p_minus, r.p_plus) == pytest.approx((1.4, 3.5), rel=1e-15)

    def test_unified_form_examples(self):
        r = critical_range(2.6)
        assert (r.p_minus, r.p_plus) == pytest.approx((11.0 / 6.0, 2.2), rel=1e-12)
        case = floor_form_range(2.6)
        assert (case.p_minus, case.p_plus) == pytest.approx((r.p_minus, r.p_plus), rel=1e-13)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            nu = float(rng.uniform(-0.99, 15.0))
            r = critical_range(nu)
            assert 1.0 < r.p_minus < 2.0 < r.p_plus
            assert 1.0 / r.p_minus + 1.0 / r.p_plus == pytest.approx(1.0, rel=1e-12)

    def test_forms_agree_randomly(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            nu = float(rng.uniform(-0.999, 25.0))
            if abs(nu - 2.0 * round(nu / 2.0)) < 1e-9:
                continue
            a, b = floor_form_range(nu), critical_range(nu)
            assert abs(a.p_minus - b.p_minus) <= 1e-12
            assert abs(a.p_plus - b.p_plus) <= 1e-12

    def test_cli_prints_the_floor_form_digits(self, capsys):
        # every printed %.12f string of the ceiling form is the floor form's
        rng = np.random.default_rng(55)
        nus = [float(nu) for nu in rng.uniform(-1.0, 100.0, 500)] + [2.0 * n for n in range(31)]
        for nu in nus:
            assert cli.main(["critical-range", "--nu", repr(nu)]) == 0
            ref = floor_form_range(nu)
            assert capsys.readouterr().out == f"{ref.p_minus:.12f} {ref.p_plus:.12f}\n", nu


class TestModeMoments:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 8.0).filter(lambda nu: SpaceParam(nu).kind == "bergman"), st.floats(1e-4, 0.3))
    def test_quadrature_matches_the_beta_moment(self, nu, delta):
        """The q-th moment of the mode w2^(-N) at q = p+(1 - delta) and at the
        conjugate of p-(1 + delta), both inside the range: _tail_integral plus
        its head against B((s+1)/2, nu+1)/2.  The bound is 5e-14 relative: a
        sweep of 2,700 nu and two delta each reached 8.8e-15.  It was 1e-11 on
        SciPy's Gauss-Jacobi rule (1-v)^nu, which reached 3.8e-12 as nu -> -1."""
        r = critical_range(nu)
        p = r.p_minus * (1.0 + delta)
        for q in (r.p_plus * (1.0 - delta), p / (p - 1.0)):
            closed, quad = _mode_moments(SpaceParam(nu), q)
            assert 0.0 < closed < math.inf
            assert abs(quad - closed) <= 5e-14 * closed

    @pytest.mark.parametrize("gap", [1e-3, 1e-6])
    def test_next_to_nu_minus_1(self, gap):
        """At nu + 1 = 1e-3 and 1e-6, over 25 delta from 1e-4 to 0.3 at both ends,
        the moments held 2.7e-15 and 4.0e-15 (SciPy's rule: 1.5e-12, 3.5e-12)."""
        nu = -1.0 + gap
        r = critical_range(nu)
        for delta in np.geomspace(1e-4, 0.3, 25):
            p = r.p_minus * (1.0 + delta)
            for q in (r.p_plus * (1.0 - delta), p / (p - 1.0)):
                closed, quad = _mode_moments(SpaceParam(nu), q)
                assert abs(quad - closed) <= 1e-14 * closed, (delta, q)

    def test_diverges_outside_the_range(self):
        r = critical_range(0.7)
        assert _mode_moments(SpaceParam(0.7), r.p_plus * (1.0 + 1e-9)) == (math.inf, math.inf)


class TestTailIntegral:
    """T(eps) = int_eps^1 rho^s (1-rho^2)^nu drho, s = _mode_exponent(nu, p),
    grows like eps^(s+1) when s < -1, like log(1/eps) at s = -1, and settles
    when s > -1."""

    @staticmethod
    def slope(nu, p, eps):
        s = projections._mode_exponent(SpaceParam(nu), p)
        tails = [projections._tail_integral(s, nu, e) for e in eps]
        return s, float(np.polyfit(np.log(eps), np.log(tails), 1)[0])

    def test_divergent_slopes(self):
        for nu, p in ((0.0, 5.0), (0.7, 5.0), (2.0, 4.0)):
            s, slope = self.slope(nu, p, [1e-4, 1e-5, 1e-6])
            assert s < -1.0
            assert slope == pytest.approx(s + 1.0, rel=0.05)

    def test_marginal_case_detected(self):
        # nu = 0, p = 4 sits exactly on the endpoint: T(eps) ~ log(1/eps)
        s = projections._mode_exponent(SpaceParam(0.0), 4.0)
        assert s == -1.0
        eps = [10.0**-m for m in range(1, 7)]
        growth = np.diff([projections._tail_integral(s, 0.0, e) for e in eps])
        ratios = growth / np.diff([math.log(1.0 / e) for e in eps])
        assert np.allclose(ratios, ratios[0], rtol=0.05)

    def test_convergent_case(self):
        s, slope = self.slope(0.0, 2.0, [1e-4, 1e-5, 1e-6])
        assert s > -1.0
        assert abs(slope) <= 1e-4

    def test_tail_integral_exact_case(self):
        # s = -2, nu = 0: T(eps) = 1/eps - 1 exactly
        for eps in (0.1, 0.01):
            assert projections._tail_integral(-2.0, 0.0, eps) == pytest.approx(1.0 / eps - 1.0, rel=1e-10)
