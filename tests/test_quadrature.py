"""The integration oracle itself: exactness, normalization, Monte Carlo."""

import math
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import beta, roots_legendre

from hartogs import quadrature
from hartogs.coeffspace import LaurentCoeffs, MixedPoly, SpaceParam, monomial_norm_sq
from hartogs.geometry import DiscAutomorphism, HartogsAutomorphism, normalization_C
from hartogs.specfun import DomainError
from hartogs.verify import _bump


class TestBuildRule:
    """``build_rule`` holds plain radii r1 = sqrt(u), r2 = sqrt(v) and the
    final weights: the u weights, and the v weights times v^(1 + ceil(nu/2))."""

    def test_flat_case_is_legendre(self):
        rule = quadrature.build_rule(0.0, radial_order=16, angular_count=8)
        x, w = roots_legendre(16)
        np.testing.assert_allclose(rule.r1_nodes**2, 0.5 * (x + 1.0), atol=1e-14)
        np.testing.assert_allclose(rule.r1_weights, 0.5 * w, atol=1e-14)

    def test_axes_are_the_jacobi_rules_with_the_integer_power_folded_in(self):
        for nu in (-0.5, 0.0, 0.7, 2.0, 3.5):
            rule = quadrature.build_rule(nu, radial_order=16, angular_count=4)
            ceil = math.ceil(0.5 * nu)
            u, u_weights = quadrature._jacobi01(16, nu + 1.0, 1.0)
            v, v_weights = quadrature._jacobi01(16, nu + 1.0, SpaceParam(nu).b1)
            np.testing.assert_array_equal(rule.r1_nodes, np.sqrt(u))
            assert rule.r1_weights is u_weights
            np.testing.assert_array_equal(rule.r2_nodes, np.sqrt(v))
            np.testing.assert_array_equal(rule.r2_weights, v_weights * v ** (1 + ceil))

    def test_gauss_exactness_against_beta(self):
        """sum W1 r1^(2m) = B(m+1, nu+1) and sum W2 r2^(2m) = B(m + nu/2 + 2, nu+1):
        the w2 weights carry the whole power v^(nu/2 + 1) of |w2|^(nu+2) dA."""
        for nu in (-0.5, 0.7, 2.0):
            rule = quadrature.build_rule(nu, radial_order=16, angular_count=4)
            for m in range(0, 31, 5):
                val = float(np.dot(rule.r1_weights, rule.r1_nodes ** (2 * m)))
                assert val == pytest.approx(beta(m + 1.0, nu + 1.0), rel=1e-13)
                val = float(np.dot(rule.r2_weights, rule.r2_nodes ** (2 * m)))
                assert val == pytest.approx(beta(m + 0.5 * nu + 2.0, nu + 1.0), rel=1e-12)

    def test_singular_weight_mass(self):
        rule = quadrature.build_rule(-0.5, radial_order=8, angular_count=4)
        assert float(np.sum(rule.r1_weights)) == pytest.approx(2.0, rel=1e-13)

    def test_nodes_interior_weights_positive(self):
        for rule in (quadrature.build_rule(0.7, radial_order=32, angular_count=8), quadrature.build_tau_rule()):
            for nodes, weights in ((rule.r1_nodes, rule.r1_weights), (rule.r2_nodes, rule.r2_weights)):
                assert np.all(nodes > 0.0) and np.all(nodes < 1.0)
                assert np.all(weights > 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            quadrature.build_rule(-1.0)
        with pytest.raises(DomainError):
            quadrature.build_rule(0.0, radial_order=0)

    def test_environment_does_not_change_the_default_rule(self, monkeypatch):
        monkeypatch.setenv("HARTOGS_QUAD_ORDER", "12")
        rule = quadrature.build_rule(0.0)
        assert (rule.nu, rule.r1_nodes.size, rule.r2_nodes.size, rule.angular) == (0.0, 64, 64, 65)

    def test_tau_rule_folds_the_tau_density_into_the_legendre_weights(self):
        rule = quadrature.build_tau_rule(radial_order=12, angular_count=8, shell_eps=0.1, r2_range=(0.3, 0.6))
        t, h = quadrature._jacobi01(12, 1.0, 1.0)
        assert rule.nu is None and rule.angular == 8
        for (lo, hi), nodes, weights in (
            ((0.1, 0.9), rule.r1_nodes, rule.r1_weights),
            ((0.3, 0.6), rule.r2_nodes, rule.r2_weights),
        ):
            r = lo + (hi - lo) * t
            np.testing.assert_array_equal(nodes, r)
            np.testing.assert_array_equal(weights, h * (hi - lo) * r * (1.0 - r * r) ** -2)


class TestOneRuleType:
    """One rule type serves all three integrals; each refuses a rule of another measure."""

    def test_integrate_tau_refuses_a_mu_rule(self):
        with pytest.raises(DomainError, match="tau rule"):
            quadrature.integrate_tau(_bump, quadrature.build_rule(0.0, 8, 8))

    @pytest.mark.parametrize("integrate", [quadrature.integrate_mu, quadrature.integrate_bidisc])
    def test_mu_and_bidisc_refuse_a_tau_rule(self, integrate):
        one = LaurentCoeffs({(0, 0): 1.0})
        with pytest.raises(DomainError, match="nu = None"):
            integrate(0.0, one, quadrature.build_tau_rule())
        with pytest.raises(DomainError, match="nu = None"):
            integrate(0.0, lambda z1, z2: np.ones_like(z2), quadrature.build_tau_rule())

    def test_bidisc_weight_is_the_mu_weight_over_the_jacobian(self):
        """integrate_bidisc of |w2|^2 g is integrate_mu of g pulled through Phi:
        the bidisc w2 weights are the rule's over r2^2."""
        for nu in (-0.5, 0.0, 0.7, 3.5):
            rule = quadrature.build_rule(nu, radial_order=24, angular_count=9)
            bidisc = quadrature.integrate_bidisc(nu, lambda w1, w2: abs(w2) ** 2 * abs(w1) ** 2, rule)
            mu = quadrature.integrate_mu(nu, lambda z1, z2: abs(z1 / z2) ** 2, rule)
            assert bidisc == pytest.approx(mu, rel=1e-13)


class TestRuleMemo:
    """Each Gauss rule is solved once per process and handed out read-only."""

    def test_cached_rules_are_the_fresh_mappings_bit_for_bit(self):
        # (a1, b1) = (alpha + 1, beta + 1); the flat (1, 1) is the Gauss-Legendre rule
        # that the tau shell rule and the blow-up tail read
        cases = [(64, 1.7, 1.0), (64, 1.7, 0.35), (32, 0.5, 1.75), (16, 4.5, 0.75)] + [(n, 1.0, 1.0) for n in (48, 56, 64)]
        for order, a1, b1 in cases:
            for _ in range(2):  # a miss, then a hit
                nodes, weights = quadrature._jacobi01(order, a1, b1)
                fresh_nodes, fresh_weights = quadrature._jacobi01.__wrapped__(order, a1, b1)
                np.testing.assert_array_equal(nodes, fresh_nodes)
                np.testing.assert_array_equal(weights, fresh_weights)

    def test_writing_into_a_rule_raises(self):
        for rule in (quadrature.build_rule(0.7, radial_order=16, angular_count=5), quadrature.build_tau_rule()):
            for array in (rule.r1_nodes, rule.r1_weights, rule.r2_nodes, rule.r2_weights):
                with pytest.raises(ValueError):
                    array[0] = 0.5
                with pytest.raises(ValueError):
                    array *= 2.0

    def test_angular_counts_share_the_radial_rule(self):
        a = quadrature.build_rule(0.7, radial_order=32, angular_count=25)
        info = quadrature._jacobi01.cache_info()
        b = quadrature.build_rule(0.7, radial_order=32, angular_count=33)
        after = quadrature._jacobi01.cache_info()
        assert (a.angular, b.angular) == (25, 33)
        assert (after.hits, after.misses) == (info.hits + 2, info.misses)
        assert a.r1_weights is b.r1_weights
        for name in ("r1_nodes", "r1_weights", "r2_nodes", "r2_weights"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_an_out_of_range_scale_is_refused_every_time(self):
        # the mass B(2001, 2001) of the weight underflows; an exception is not memoized
        for _ in range(2):
            with pytest.raises(DomainError, match="double range"):
                quadrature._jacobi01(8, 2001.0, 2001.0)


def _worst_moment_error(order, a1, b1, degrees):
    """Worst relative error of sum w t^k, k in degrees, of the (a1, b1) rule against
    B(b1 + k, a1), all at 40 digits."""
    nodes, weights = quadrature._jacobi01(order, a1, b1)
    with mpmath.workdps(40):
        a1, b1 = mpmath.mpf(a1), mpmath.mpf(b1)
        pairs = [(mpmath.mpf(w), mpmath.mpf(x)) for w, x in zip(weights.tolist(), nodes.tolist())]
        return max(float(abs(mpmath.fsum(w * x**k for w, x in pairs) / mpmath.beta(b1 + k, a1) - 1)) for k in degrees)


class TestRuleMoments:
    @pytest.mark.parametrize("order", [32, 64])
    @pytest.mark.parametrize("nu", [-0.99, -0.5, 0.0, 0.7, 2.0, 3.5])
    def test_low_moments_against_the_beta_function(self, order, nu):
        """sum w t^k of the u rule (nu, 0) and the v rule (nu, b1 - 1) of
        ``build_rule`` against B(b1 + k, nu + 1), k = 0..3, 40 digits.

        The weights are scaled to sum to the mass, so the weight sums hold
        4.4e-16.  The bounds, 1e-15 for k = 0, 2e-14 with both exponents
        integers and 2e-11 with a fractional one, were set on the SciPy rules
        this one replaced, whose moments drifted at fractional exponents
        (2.3e-12 at order 64 and (0.7, -0.65)); the numpy rule holds 3.4e-15
        there."""
        b1 = SpaceParam(nu).b1
        for a1, b1 in ((nu + 1.0, 1.0), (nu + 1.0, b1)):
            exact = a1 == int(a1) and b1 == int(b1)
            assert _worst_moment_error(order, a1, b1, [0]) <= 1e-15, (a1, b1)
            assert _worst_moment_error(order, a1, b1, [1, 2, 3]) <= (2e-14 if exact else 2e-11), (a1, b1)

    @pytest.mark.parametrize("order", [20, 64])
    @pytest.mark.parametrize(
        "a1, b1",
        [(1.0, 1e-12), (1.0 + 1e-9, 5e-10), (3.0 + 1e-9, 5e-10), (1.7, 1e-6), (21.0, 1e-3)]
        + [(1e-12, 1.0), (1e-9, 1.0), (1e-3, 1.0), (301.0, 1.0), (301.0, 0.5)],
    )
    def test_moments_next_to_the_degenerate_exponents(self, order, a1, b1):
        """Moments t^k, k = 0, 3, ..., 60 below 2 order, against the Beta function at 40 digits,
        with beta + 1 or alpha + 1 down to 1e-12 (the w2 axis just above an even nu,
        the tail rule as nu -> -1) and alpha = 300: within 1e-13, and 3e-13 at
        alpha = 300.  SciPy's roots_jacobi, which this rule replaced, was off by a
        factor of 17 at beta + 1 = 1e-12."""
        bound = 3e-13 if a1 > 100.0 else 1e-13
        assert _worst_moment_error(order, a1, b1, range(0, min(61, 2 * order), 3)) <= bound


class TestIntegrateMu:
    def test_normalization(self):
        for nu in (-0.5, -0.1, 0.0, 0.7, 2.0, 3.5):
            rule = quadrature.build_rule(nu, radial_order=48, angular_count=4)
            val = quadrature.integrate_mu(nu, lambda z1, z2: np.ones_like(z2), rule)
            assert val.real == pytest.approx(1.0, rel=1e-10)
            assert abs(val.imag) <= 1e-14

    def test_monomial_norms(self):
        for nu in (-0.5, 0.7):
            rule = quadrature.build_rule(nu, radial_order=48, angular_count=4)
            for j, k in ((0, 0), (1, -1), (3, 2), (0, -1)):
                mono = LaurentCoeffs({(j, k): 1.0})
                val = quadrature.inner_product_quad(nu, mono, mono, rule).real
                assert val == pytest.approx(monomial_norm_sq(nu, j, k), rel=1e-12)

    def test_angular_orthogonality_exact(self):
        rule = quadrature.build_rule(0.0, radial_order=24, angular_count=17)
        a = LaurentCoeffs({(1, 0): 1.0})
        b = LaurentCoeffs({(2, -1): 1.0})
        val = quadrature.inner_product_quad(0.0, a, b, rule)
        assert abs(val) <= 1e-12

    def test_polynomial_exactness(self):
        # pullback polynomial times trig monomial within the rule budget
        rule = quadrature.build_rule(0.7, radial_order=24, angular_count=17)

        def integrand(z1, z2):
            return np.abs(z1 * z2) ** 2 + 0.3 * (z1 / z2) ** 2 * np.conj(z2)

        # the trig parts integrate to zero; the radial part is a monomial norm
        expected = quadrature.inner_product_quad(
            0.7, LaurentCoeffs({(1, 1): 1.0}), LaurentCoeffs({(1, 1): 1.0}), rule
        ).real
        val = quadrature.integrate_mu(0.7, integrand, rule)
        assert val.real == pytest.approx(expected, rel=1e-12)
        assert abs(val.imag) <= 1e-13

    def test_rule_mismatch_rejected(self):
        rule = quadrature.build_rule(0.0)
        with pytest.raises(DomainError):
            quadrature.integrate_mu(0.7, lambda z1, z2: z2, rule)


def _full_grid_pullback(nu, fn, rule):
    """integrate_mu of a callable as a serial loop over r1 rows of the full
    (theta, r2, gamma) grid, fn evaluated at (w1 w2, w2) point by point, with
    the rule's weights and mu_nu's constant."""
    m = rule.angular
    e = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    w2 = rule.r2_nodes[None, :, None] * e[None, None, :]
    total = 0.0
    for r1, weight in zip(rule.r1_nodes, rule.r1_weights):
        vals = np.broadcast_to(fn((r1 * e[:, None, None]) * w2, w2), (m, rule.r2_nodes.size, m))
        total += weight * np.sum(vals.sum(axis=(0, 2)) * rule.r2_weights)
    return normalization_C(nu) * 2.0 ** (0.5 * nu) / 4.0 * (2.0 * np.pi / m) ** 2 * total


class TestReindexedPullback:
    """A callable integrate_mu gets z1 = (r1 r2) e[c] on the re-indexed
    angle c = (theta + gamma) mod 2 pi, not w1 w2 on the full grid; the sum
    is the full-grid sum over the same points."""

    RULES = ((64, 65), (20, 24), (16, 16))  # odd and even angular counts
    FULL = ((64, 65), 0.7)  # the one 64 x 65 case on every r1 row; the others on FEW_ROWS of theirs
    FEW_ROWS = slice(None, None, 21)  # r1 rows 0, 21, 42, 63
    LAURENT = LaurentCoeffs({(1, -1): 1.0 - 0.5j, (0, 2): 2.0, (3, 0): 0.25j})
    INTEGRANDS = {
        "mixes z1 and z2": lambda z1, z2: z1 / z2 + np.conj(z1) * z2**2 + np.abs(z1 * z2) ** 2,
        "ignores z1": lambda z1, z2: np.exp(z2) * (2.0 + np.conj(z2)),
        "python scalar": lambda z1, z2: 2.5,
        "non-polynomial": lambda z1, z2: np.exp(np.abs(z1)),
        "laurent grid fn": quadrature.as_grid_fn(LAURENT),
    }

    @pytest.mark.parametrize("nu", [-0.5, 0.7, 3.5])
    @pytest.mark.parametrize("size", RULES)
    def test_matches_the_full_grid_sum(self, nu, size):
        rule = quadrature.build_rule(nu, *size)
        if size == self.FULL[0] and nu != self.FULL[1]:
            # the re-indexing is a bijection within each (r1, r2) row, so whole r1 rows of the rule test it
            rule = replace(rule, r1_nodes=rule.r1_nodes[self.FEW_ROWS], r1_weights=rule.r1_weights[self.FEW_ROWS])
        for name, fn in self.INTEGRANDS.items():
            # relative to the integral of |fn|: the angular terms of some integrate to 0
            scale = quadrature.integrate_mu(nu, lambda z1, z2: np.abs(fn(z1, z2)), rule).real
            error = abs(quadrature.integrate_mu(nu, fn, rule) - _full_grid_pullback(nu, fn, rule))
            assert error <= 1e-13 * scale, name

    def test_z1_never_spans_the_gamma_axis(self):
        rule = quadrature.build_rule(0.7)
        n2, m = rule.r2_nodes.size, rule.angular
        rows = max(1, quadrature._MAX_BLOCK // (m * m * n2))
        shapes = []

        def recording(z1, z2):
            shapes.append((z1.shape, z2.shape))
            return np.abs(z1) ** 2 * np.abs(z2)

        quadrature.integrate_mu(0.7, recording, rule)
        assert len(shapes) == -(-rule.r1_nodes.size // rows)
        for z1_shape, z2_shape in shapes:
            assert z1_shape[3] == 1 and math.prod(z1_shape) <= rows * m * n2
            assert z2_shape == (1, 1, n2, m)


class TestIntegrateBidisc:
    def test_integrand_ignoring_w2_sums_over_w2(self):
        rule = quadrature.build_rule(0.0, radial_order=16, angular_count=4)
        cases = ((lambda w1, w2: 1.0, 2.0), (lambda w1, w2: np.abs(w1) ** 2, 1.0))
        for g, expected in cases:

            def full(w1, w2, g=g):
                return g(w1, w2) * np.ones(np.broadcast(w1, w2).shape)

            val = quadrature.integrate_bidisc(0.0, g, rule)
            assert val == quadrature.integrate_bidisc(0.0, full, rule)
            assert val.real == pytest.approx(expected, rel=1e-12)

    def test_shares_the_mu_core(self):
        # the bidisc weight is the mu_nu weight divided by |w2|^2 = |z2|^2
        def g(w1, w2):
            return np.exp(w1 * np.conj(w2)) * np.cos(np.abs(w1) + np.abs(w2) ** 3) / (2.0 - w2)

        for nu in (-0.5, 0.0, 1.0):
            rule = quadrature.build_rule(nu, radial_order=24, angular_count=9)
            bidisc = quadrature.integrate_bidisc(nu, g, rule)
            mu = quadrature.integrate_mu(nu, lambda z1, z2: g(z1 / z2, z2) / np.abs(z2) ** 2, rule)
            assert abs(bidisc - mu) <= 1e-13 * abs(bidisc)


class TestInnerProduct:
    def test_conjugate_pairing_example(self):
        # <conj(z2), z2^(-1)> integrates the constant 1
        rule = quadrature.build_rule(0.0, radial_order=24, angular_count=9)
        f = MixedPoly({(0, 0, 0, 1): 1.0})
        g = LaurentCoeffs({(0, -1): 1.0})
        val = quadrature.inner_product_quad(0.0, f, g, rule)
        assert val.real == pytest.approx(1.0, rel=1e-12)

    def test_orthogonality_and_positivity(self):
        rule = quadrature.build_rule(0.0, radial_order=24, angular_count=17)
        a = LaurentCoeffs({(0, 1): 1.0})
        b = LaurentCoeffs({(0, 2): 1.0})
        assert abs(quadrature.inner_product_quad(0.0, a, b, rule)) <= 1e-13
        assert quadrature.inner_product_quad(0.0, a, a, rule).real > 0.0

    def test_refuses_a_callable(self):
        a = LaurentCoeffs({(0, 1): 1.0})
        with pytest.raises(DomainError, match="pairs two"):
            quadrature.inner_product_quad(0.0, a, lambda z1, z2: z2)
        with pytest.raises(DomainError, match="pairs two"):
            quadrature.inner_product_quad(0.0, lambda z1, z2: z2, a)


def _random_poly(rng, nu, on_triangle, n_terms=8, max_exp=5):
    """Random MixedPoly whose terms are integrable: negative c and d, and
    angular frequencies up to 2 max_exp + 3."""
    terms = {}
    while len(terms) < n_terms:
        a, b = (int(x) for x in rng.integers(0, max_exp + 1, size=2))
        c, d = (int(x) for x in rng.integers(-3, max_exp + 1, size=2))
        # the radial power of |w2| must keep the w2 integral finite
        p2 = a + b + c + d if on_triangle else c + d
        if p2 + nu + (4.0 if on_triangle else 2.0) > 0.0:
            terms[(a, b, c, d)] = complex(rng.normal(), rng.normal())
    return MixedPoly(terms)


def _modulus_fn(poly, on_triangle):
    """The black-box integrand sum |coef| |first|^(a+b) |second|^(c+d)."""

    def fn(x1, x2):
        return sum(
            abs(coef) * np.abs(x1) ** (a + b) * np.abs(x2) ** (c + d)
            for (a, b, c, d), coef in poly.items()
        )

    return fn


class TestSeparablePath:
    """Coefficient objects take the separable sum, callables the tensor
    sum; on one rule the two agree to rounding."""

    INTEGRATORS = ((quadrature.integrate_mu, True), (quadrature.integrate_bidisc, False))

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.7, 2.0, 3.5])
    @pytest.mark.parametrize("angular", [4, 9])
    def test_agrees_with_tensor_sum(self, nu, angular):
        rng = np.random.default_rng([24, angular, int(10 * nu) + 10])
        rule = quadrature.build_rule(nu, radial_order=12, angular_count=angular)
        for integrate, on_triangle in self.INTEGRATORS:
            for _ in range(4):
                poly = _random_poly(rng, nu, on_triangle)
                separable = integrate(nu, poly, rule)
                black_box = integrate(nu, quadrature.as_grid_fn(poly), rule)
                scale = integrate(nu, _modulus_fn(poly, on_triangle), rule).real
                assert abs(separable - black_box) <= 1e-13 * scale

    @pytest.mark.parametrize("nu", [-0.5, 0.7, 3.5])
    def test_aliased_frequencies(self, nu):
        # with m = 4, the frequencies 4 and -8 alias onto 0 and survive
        rule = quadrature.build_rule(nu, radial_order=12, angular_count=4)
        cases = (
            (quadrature.integrate_mu, MixedPoly({(4, 0, 2, 6): 1.0, (1, 1, 5, -3): 1.0j})),
            (quadrature.integrate_bidisc, MixedPoly({(5, 1, -2, 2): 1.0, (2, 2, -1, 7): 1.0j})),
        )
        for integrate, poly in cases:
            separable = integrate(nu, poly, rule)
            black_box = integrate(nu, quadrature.as_grid_fn(poly), rule)
            assert abs(separable.real) > 1e-3 and abs(separable.imag) > 1e-3
            assert abs(separable - black_box) <= 1e-13 * (abs(separable.real) + abs(separable.imag))

    def test_laurent_integrand(self):
        rule = quadrature.build_rule(0.7, radial_order=12, angular_count=4)
        f = LaurentCoeffs({(1, -2): 1.0, (4, 0): 0.5j, (0, 3): -2.0})
        for integrate in (quadrature.integrate_mu, quadrature.integrate_bidisc):
            black_box = integrate(0.7, quadrature.as_grid_fn(f), rule)
            assert abs(integrate(0.7, f, rule) - black_box) <= 1e-13 * abs(black_box)

    def test_inner_product_pairs_coefficient_objects(self):
        rng = np.random.default_rng(26)
        rule = quadrature.build_rule(0.7, radial_order=24, angular_count=9)
        f = _random_poly(rng, 0.7, True, n_terms=4, max_exp=3)
        g = LaurentCoeffs({(0, 0): 1.0, (1, -1): 2.0j, (2, 1): -0.5, (0, -1): 1.5})
        ff, gg = quadrature.as_grid_fn(f), quadrature.as_grid_fn(g)
        for left, right, lf, rf in ((f, g, ff, gg), (g, f, gg, ff), (g, g, gg, gg)):
            paired = quadrature.inner_product_quad(0.7, left, right, rule)
            black_box = quadrature.integrate_mu(
                0.7, lambda z1, z2: lf(z1, z2) * np.conj(rf(z1, z2)), rule
            )
            assert abs(paired - black_box) <= 1e-12 * max(abs(black_box), 1.0)


class TestTensorSum:
    """The chunked black-box sum against a one-shot full-grid einsum."""

    # (n1, n2, m): 4096 points per r1 row gives 16-row chunks, so 37 rows
    # leave a short last chunk; 81920 points per row exceed the budget, so
    # every chunk is one row; 512 points per row fit all 50 rows in one
    RULES = ((37, 16, 16), (5, 20, 64), (50, 8, 8))
    INTEGRANDS = {
        "python scalar": lambda w1, w2: 2.5,
        "real array": lambda w1, w2: np.abs(w1) ** 2 * np.abs(w2) + 1.0,
        "ignores w1": lambda w1, w2: np.exp(w2) * (2.0 + np.conj(w2)),
        "full complex": lambda w1, w2: np.exp(w1) * (2.0 + np.conj(w2)) + 1j * np.abs(w1 * w2),
    }

    @staticmethod
    def _full_grid_sum(fn, r1, w1, r2, w2, m):
        e = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
        g1 = r1[:, None, None, None] * e[None, :, None, None]
        g2 = r2[None, None, :, None] * e[None, None, None, :]
        vals = np.asarray(fn(g1, g2)) + np.zeros(np.broadcast(g1, g2).shape, dtype=complex)
        # exactly rounded sum of the weighted grid, so the reference carries
        # no accumulation error of its own
        terms = np.einsum("i,k,ijkl->ijkl", w1, w2, vals).ravel()
        return complex(math.fsum(terms.real), math.fsum(terms.imag)) * (2.0 * np.pi / m) ** 2

    @pytest.mark.parametrize("shape", RULES)
    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    def test_matches_full_grid_einsum(self, shape, name):
        n1, n2, m = shape
        rng = np.random.default_rng([27, n1, n2, m])
        r1, r2 = np.sort(rng.uniform(0.05, 0.95, size=n1)), np.sort(rng.uniform(0.05, 0.95, size=n2))
        w1, w2 = rng.uniform(0.1, 1.0, size=n1), rng.uniform(0.1, 1.0, size=n2)
        fn = self.INTEGRANDS[name]
        sizes = []

        def recording(a, b):
            sizes.append(np.broadcast(a, b).size)
            return fn(a, b)

        chunked = quadrature._tensor_sum(recording, r1, w1, r2, w2, m)
        reference = self._full_grid_sum(fn, r1, w1, r2, w2, m)
        assert abs(chunked - reference) <= 1e-14 * abs(reference)
        assert sum(sizes) == n1 * m * m * n2
        assert max(sizes) <= max(2**16, m * m * n2)


class TestMonteCarlo:
    def test_normalization_within_error(self):
        est, se = quadrature.mc_integrate_mu(0.7, lambda z1, z2: np.ones_like(z2), 20_000, seed=5)
        assert abs(est.real - 1.0) <= max(3.0 * se, 1e-12)

    def test_cross_oracle(self):
        rule = quadrature.build_rule(0.0, radial_order=32, angular_count=4)
        fn = lambda z1, z2: np.abs(z1) ** 2
        tensor = quadrature.integrate_mu(0.0, fn, rule).real
        est, se = quadrature.mc_integrate_mu(0.0, fn, 40_000, seed=6)
        assert abs(est.real - tensor) <= 3.0 * se

    def test_deterministic_repeat(self):
        a = quadrature.mc_integrate_mu(0.0, lambda z1, z2: np.abs(z2), 2000, seed=7)
        b = quadrature.mc_integrate_mu(0.0, lambda z1, z2: np.abs(z2), 2000, seed=7)
        assert a == b

    def test_sample_count_guard(self):
        with pytest.raises(DomainError):
            quadrature.mc_integrate_mu(0.0, lambda z1, z2: z2, 100, seed=1)

    @pytest.mark.parametrize("count", [True, 10_000.0])
    def test_sample_count_must_be_an_integer_of_at_least_1000(self, count):
        with pytest.raises(DomainError, match="sample_count"):
            quadrature.mc_integrate_mu(0.7, lambda z1, z2: z2, count, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, False])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DomainError, match="seed"):
            quadrature.mc_integrate_mu(0.7, lambda z1, z2: z2, 10_000, seed)

    def test_numpy_integers_are_accepted(self):
        fn = lambda z1, z2: np.abs(z2)
        assert quadrature.mc_integrate_mu(0.7, fn, np.int64(2000), np.uint32(7)) == quadrature.mc_integrate_mu(
            0.7, fn, 2000, 7
        )

    @pytest.mark.parametrize("count", [200_003, 1_000_000])
    def test_repr_identical_to_per_chunk_streams(self, count):
        """The estimate is that of a serial loop over the chunks, each
        drawing from its own spawned stream and reducing its own values;
        the chunk moments combine in chunk order."""
        integrands = (lambda z1, z2: np.abs(z1) ** 2 * np.exp(-np.abs(z2)) + z1 * np.conj(z2), lambda z1, z2: 1.5)
        for fn in integrands:
            assert repr(quadrature.mc_integrate_mu(0.7, fn, count, 12)) == repr(_serial_mc(0.7, fn, count, 12))

    def test_chunk_moments_combine_to_the_whole_sample_moments(self):
        """200,003 samples are four chunks of unequal size; the combined
        moments are the mean and the unbiased variance of all the values."""
        fn = lambda z1, z2: np.abs(z1) ** 2 * np.exp(-np.abs(z2)) + z1 * np.conj(z2)
        chunks = list(_serial_values(0.7, fn, 200_003, 13))
        assert len({vals.size for vals in chunks}) > 1
        vals = np.concatenate(chunks)
        est, se = quadrature.mc_integrate_mu(0.7, fn, 200_003, 13)
        var = np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)
        assert abs(est - np.mean(vals)) <= 1e-12 * abs(np.mean(vals))
        assert abs(se**2 * vals.size - var) <= 1e-12 * var

    @pytest.mark.parametrize("nu", [-0.99, -0.9, 0.0, 3.5, 20.0])
    def test_sample_law_matches_closed_forms(self, nu):
        """|z1^j z2^k|^2 averages to its closed-form norm, and a monomial of
        nonzero angular frequency to 0, each within 5 standard errors.  The
        second monomial has even frequencies (2, -2) in the product angles,
        so angles confined to a line would not average it to 0."""
        for seed, (j, k) in enumerate([(1, -1), (3, -1), (2, 1), (1, 3)]):
            fn = lambda z1, z2: np.abs(z1**j * z2**k) ** 2
            est, se = quadrature.mc_integrate_mu(nu, fn, 200_000, seed)
            assert abs(est - monomial_norm_sq(nu, j, k)) <= 5.0 * se
        for seed, fn in enumerate([lambda z1, z2: z1 * np.conj(z2) ** 2, lambda z1, z2: z1**2 * np.conj(z2) ** 4]):
            est, se = quadrature.mc_integrate_mu(nu, fn, 200_000, 90 + seed)
            assert abs(est) <= 5.0 * se


def _serial_tensor_sum(fn, radial_nodes_1, radial_w1, radial_nodes_2, radial_w2, angular):
    """``quadrature._tensor_sum`` as a plain loop over its chunks, in order."""
    m = angular
    e = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    n1 = radial_nodes_1.size
    rows = max(1, quadrature._MAX_BLOCK // (m * m * radial_nodes_2.size))
    w2 = radial_nodes_2[None, None, :, None] * e[None, None, None, :]
    sums = np.empty((n1, radial_nodes_2.size), dtype=complex)
    for start in range(0, n1, rows):
        w1 = radial_nodes_1[start : start + rows, None, None, None] * e[None, :, None, None]
        vals = np.broadcast_to(fn(w1, w2), np.broadcast(w1, w2).shape)
        sums[start : start + rows] = vals.sum(axis=(1, 3))
    return complex(((sums * radial_w2).sum(axis=1) * radial_w1).sum()) * (2.0 * np.pi / m) ** 2


def _serial_values(nu, fn, sample_count, seed):
    """The integrand values of ``quadrature.mc_integrate_mu``, one array per
    chunk, as a plain loop over its chunks in order: chunk i draws v, then
    w1's and w2's Gaussians, from an SFC64 generator seeded by child i of
    the seed's SeedSequence, and takes u from the modulus of w1's Gaussian."""
    chunks = -(-sample_count // quadrature._MAX_BLOCK)
    bounds = [sample_count * i // chunks for i in range(chunks + 1)]
    streams = np.random.SeedSequence(seed).spawn(chunks)
    for stream, lo, hi in zip(streams, bounds, bounds[1:]):
        rng = np.random.Generator(np.random.SFC64(stream))
        n = hi - lo
        v = rng.beta(0.5 * nu + 2.0, nu + 1.0, size=n)
        g = rng.standard_normal(4 * n).view(complex)
        s = np.abs(g) ** 2
        w1 = g[:n] * np.sqrt(np.expm1(s[:n] * (-0.5 / (nu + 1.0))) / -s[:n])
        w2 = g[n:] * np.sqrt(v / s[n:])
        yield np.broadcast_to(fn(w1 * w2, w2), (n,))


def _serial_mc(nu, fn, sample_count, seed):
    """``quadrature.mc_integrate_mu`` as a plain loop: each chunk's count,
    mean and sum of squared deviations, combined in chunk order."""
    count, est, m2 = 0, 0j, 0.0
    for vals in _serial_values(nu, fn, sample_count, seed):
        mean = vals.mean()
        n, chunk_m2 = vals.size, float(np.sum(np.abs(vals - mean) ** 2))
        delta, total = complex(mean) - est, count + n
        est += delta * (n / total)
        m2 += chunk_m2 + abs(delta) ** 2 * (count * n / total)
        count = total
    return est, math.sqrt(m2 / (sample_count - 1) / sample_count)


def _finishes(call, timeout=120.0):
    """Run call() on a daemon thread; fail instead of hanging if it does not return."""
    out = []
    worker = threading.Thread(target=lambda: out.append(call()), daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"did not finish within {timeout} s"
    assert out, "raised instead of returning"
    return out[0]


class TestThreadedChunks:
    """Black-box chunks run on every CPU and still give the serial loop's
    bits, errors, errstate and nested calls."""

    HELPERS = quadrature._helper_threads()[1]

    @pytest.mark.parametrize("shape", TestTensorSum.RULES)
    @pytest.mark.parametrize("name", sorted(TestTensorSum.INTEGRANDS))
    def test_tensor_sum_repr_identical_to_serial_loop(self, shape, name):
        n1, n2, m = shape
        rng = np.random.default_rng([28, n1, n2, m])
        r1, r2 = np.sort(rng.uniform(0.05, 0.95, size=n1)), np.sort(rng.uniform(0.05, 0.95, size=n2))
        w1, w2 = rng.uniform(0.1, 1.0, size=n1), rng.uniform(0.1, 1.0, size=n2)
        fn = TestTensorSum.INTEGRANDS[name]
        threaded = quadrature._tensor_sum(fn, r1, w1, r2, w2, m)
        assert repr(threaded) == repr(_serial_tensor_sum(fn, r1, w1, r2, w2, m))

    @pytest.mark.parametrize("shape", [(64, 64, 65), (37, 16, 16)])
    def test_tensor_sum_repr_identical_without_helper_threads(self, monkeypatch, shape):
        """With the helper pool off the caller sums every chunk alone; the
        default rule's 64 x 64 table and a non-square one give the same bits."""
        n1, n2, m = shape
        rng = np.random.default_rng([29, n1, n2, m])
        r1, r2 = np.sort(rng.uniform(0.05, 0.95, size=n1)), np.sort(rng.uniform(0.05, 0.95, size=n2))
        w1, w2 = rng.uniform(0.1, 1.0, size=n1), rng.uniform(0.1, 1.0, size=n2)
        fn = TestTensorSum.INTEGRANDS["full complex"]
        threaded = quadrature._tensor_sum(fn, r1, w1, r2, w2, m)
        monkeypatch.setattr(quadrature, "_helper_threads", lambda: (None, 0))
        alone = quadrature._tensor_sum(fn, r1, w1, r2, w2, m)
        assert repr(alone) == repr(threaded) == repr(_serial_tensor_sum(fn, r1, w1, r2, w2, m))

    def test_mc_repr_identical_to_serial_loop(self):
        fn = lambda z1, z2: np.abs(z1) ** 2 * np.exp(-np.abs(z2)) + z1 * np.conj(z2)
        assert repr(quadrature.mc_integrate_mu(0.7, fn, 200_003, 13)) == repr(_serial_mc(0.7, fn, 200_003, 13))

    def test_mc_repr_identical_without_helper_threads(self, monkeypatch):
        """With the helper pool off the caller draws every chunk alone, and the
        value does not depend on the number of threads."""
        fn = lambda z1, z2: np.abs(z1) ** 2 * np.exp(-np.abs(z2)) + z1 * np.conj(z2)
        threaded = quadrature.mc_integrate_mu(0.7, fn, 200_003, 13)
        monkeypatch.setattr(quadrature, "_helper_threads", lambda: (None, 0))
        alone = quadrature.mc_integrate_mu(0.7, fn, 200_003, 13)
        assert repr(alone) == repr(threaded) == repr(_serial_mc(0.7, fn, 200_003, 13))

    @pytest.mark.parametrize("outer, inner", [((64, 65), (8, 9)), ((4, 65), (8, 65))])
    def test_nested_call_finishes(self, outer, inner):
        # (4, 65) is two chunks and (8, 65) eight, so a helper busy with an
        # outer chunk makes an inner call that also asks for helpers
        inner_rule = quadrature.build_rule(0.7, *inner)
        outer_rule = quadrature.build_rule(0.7, *outer)
        ones = lambda z1, z2: np.ones_like(z2)
        mass = quadrature.integrate_mu(0.7, ones, inner_rule)

        def nested(z1, z2):
            return np.abs(z2) ** 2 * quadrature.integrate_mu(0.7, ones, inner_rule)

        value = _finishes(lambda: quadrature.integrate_mu(0.7, nested, outer_rule))
        assert value == quadrature.integrate_mu(0.7, lambda z1, z2: np.abs(z2) ** 2 * mass, outer_rule)

    def test_errstate_raise_reaches_the_caller(self):
        rule = quadrature.build_rule(0.7, 16, 65)  # 16 one-row chunks
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                quadrature.integrate_mu(0.7, lambda z1, z2: 1.0 / (0.0 * np.abs(z2)), rule)

    @pytest.mark.parametrize("mode", ["raise", "ignore"])
    def test_errstate_applies_in_every_chunk(self, mode):
        rule = quadrature.build_rule(0.7, 16, 65)
        seen, threads = [], set()

        def divide(z1, z2):
            threads.add(threading.get_ident())
            time.sleep(0.02)  # hold each chunk long enough for a helper to take the next
            try:
                np.divide(1.0, np.zeros(z2.shape))
                seen.append("passed")
            except FloatingPointError:
                seen.append("raised")
            return z2

        with warnings.catch_warnings(record=True) as caught, np.errstate(divide=mode):
            warnings.simplefilter("always")
            quadrature.integrate_mu(0.7, divide, rule)
        assert seen == ["raised" if mode == "raise" else "passed"] * 16
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(threads) == min(1 + self.HELPERS, 16)

    def test_error_stops_the_loop(self):
        """An integrand that raises on its third chunk: the error reaches the
        caller and each other thread finishes at most the chunk it holds."""
        integrals = (
            (lambda fn: quadrature.integrate_mu(0.7, fn, quadrature.build_rule(0.7)), 64),
            (lambda fn: quadrature.mc_integrate_mu(0.7, fn, 1_000_000, 3), 16),
            (lambda fn: quadrature.integrate_tau(fn, quadrature.build_tau_rule(56, 24)), 28),
        )
        for integrate, chunks in integrals:
            calls = []
            lock = threading.Lock()

            def third_fails(z1, z2):
                if np.ndim(z2) == 2:  # the tau rule's support probe, not a chunk
                    return np.zeros(np.broadcast(z1, z2).shape)
                with lock:
                    calls.append(None)
                    count = len(calls)
                if count == 3:
                    raise ValueError("third chunk")
                time.sleep(0.02)  # the failing thread sets the stop flag meanwhile
                return z2

            with pytest.raises(ValueError, match="third chunk"):
                integrate(third_fails)
            assert 3 <= len(calls) <= 3 + self.HELPERS < chunks

    def test_previous_value_held_until_the_next_call_returns(self):
        # as the variables of a plain loop are, so the heap is not trimmed between chunks
        last, stale = {}, []

        def fn(item):
            previous = last.get(threading.get_ident())
            if previous is not None and previous() is None:
                stale.append(item)
            value = np.empty(1000)
            last[threading.get_ident()] = weakref.ref(value)
            time.sleep(0.001)
            return value

        quadrature._each(fn, range(40))
        assert not stale

    def test_concurrent_callers_each_see_every_item_once(self):
        """More calling threads than CPUs share the one helper pool, with a
        short switch interval: no item is lost or run twice."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [[] for _ in range(4)]
            callers = [
                threading.Thread(target=quadrature._each, args=(seen.append, range(500)), daemon=True)
                for seen in results
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
            assert not any(caller.is_alive() for caller in callers)
        finally:
            sys.setswitchinterval(interval)
        for seen in results:
            assert sorted(seen) == list(range(500))


def _full_grid_tau(fn, rule, automorphism):
    """integrate_tau of a callable composed with an automorphism, as a serial
    loop over r1 rows of the full (theta, r2, gamma) grid, fn evaluated at
    (disc_map(w1) w2, c w2) point by point, with the rule's weights."""
    m = rule.angular
    e = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    w2 = rule.r2_nodes[None, :, None] * e[None, None, :]
    total = 0.0
    for r1, weight in zip(rule.r1_nodes, rule.r1_weights):
        vals = fn(automorphism.disc_map(r1 * e[:, None, None]) * w2, automorphism.c * w2)
        total += weight * np.sum(vals.sum(axis=(0, 2)) * rule.r2_weights)
    return (2.0 * np.pi / m) ** 2 * total


class TestTau:
    ROTATION = HartogsAutomorphism(DiscAutomorphism(0.0j, np.exp(0.9j)), np.exp(0.4j))

    @pytest.mark.parametrize("automorphism", [None, HartogsAutomorphism(DiscAutomorphism(0.0j, 1.0), 1.0), ROTATION])
    def test_origin_fixing_maps_never_span_the_gamma_axis(self, automorphism):
        """No automorphism, the identity and a rotation run on integrate_mu's
        re-indexed grid: z1 has no gamma axis (the support-leak probe's 2-D
        calls aside)."""
        rule = quadrature.build_tau_rule(radial_order=32, angular_count=16)
        n2, m = rule.r2_nodes.size, rule.angular
        rows = max(1, quadrature._MAX_BLOCK // (m * m * n2))
        shapes = []

        def recording(z1, z2):
            shapes.append((z1.shape, z2.shape))
            return _bump(z1, z2)

        quadrature.integrate_tau(recording, rule, automorphism=automorphism)
        grid_calls = [shape for shape in shapes if len(shape[1]) == 4]
        assert len(grid_calls) == -(-rule.r1_nodes.size // rows)
        for z1_shape, z2_shape in grid_calls:
            assert z1_shape[3] == 1 and math.prod(z1_shape) <= rows * m * n2
            assert z2_shape == (1, 1, n2, m)

    def test_rotation_matches_the_full_grid_sum(self):
        rule = quadrature.build_tau_rule(radial_order=32, angular_count=16)

        def fn(z1, z2):  # frequency 16 aliases on the 16 angles, so lam^16 and c^16 move the sum
            return _bump(z1, z2) * (2.0 + (z1 / np.abs(z1)) ** 16 + np.conj(z2 / np.abs(z2)) ** 16 + z1.real * z2.imag)

        scale = quadrature.integrate_tau(lambda z1, z2: np.abs(fn(z1, z2)), rule, automorphism=self.ROTATION).real
        moved = quadrature.integrate_tau(fn, rule, automorphism=self.ROTATION)
        assert abs(moved - quadrature.integrate_tau(fn, rule)) > 1e-3 * scale
        assert abs(moved - _full_grid_tau(fn, rule, self.ROTATION)) <= 1e-13 * scale

    def test_identity_automorphism_exact(self):
        rule = quadrature.build_tau_rule(radial_order=32, angular_count=16)
        ident = HartogsAutomorphism(DiscAutomorphism(0.0j, 1.0), 1.0)
        base = quadrature.integrate_tau(_bump, rule).real
        moved = quadrature.integrate_tau(_bump, rule, automorphism=ident).real
        assert moved == base

    def test_rotation_exact(self):
        rule = quadrature.build_tau_rule(radial_order=32, angular_count=16)
        rot = HartogsAutomorphism(DiscAutomorphism(0.0j, np.exp(0.9j)), np.exp(0.4j))
        base = quadrature.integrate_tau(_bump, rule).real
        moved = quadrature.integrate_tau(_bump, rule, automorphism=rot).real
        assert moved == pytest.approx(base, rel=1e-12)

    def test_moebius_invariance_sample(self):
        rule = quadrature.build_tau_rule(
            radial_order=56, angular_count=24, r1_range=(0.08, 0.8), r2_range=(0.24, 0.91)
        )
        psi = HartogsAutomorphism(DiscAutomorphism(0.15 + 0.1j, np.exp(0.3j)), np.exp(1.2j))
        base = quadrature.integrate_tau(_bump, rule).real
        moved = quadrature.integrate_tau(_bump, rule, automorphism=psi).real
        assert abs(moved - base) <= 1e-6

    def test_shell_validation(self):
        with pytest.raises(DomainError):
            quadrature.build_tau_rule(shell_eps=0.7)
        with pytest.raises(DomainError):
            quadrature.build_tau_rule(r1_range=(0.0, 0.99))

    def test_support_leak_warning(self):
        rule = quadrature.build_tau_rule(radial_order=16, angular_count=8)
        with pytest.warns(UserWarning, match="shell edge"):
            quadrature.integrate_tau(lambda z1, z2: np.ones(np.broadcast(z1, z2).shape), rule)

    def test_support_leak_warning_names_the_axis(self):
        rule = quadrature.build_tau_rule(radial_order=16, angular_count=8)

        def window(t):
            return np.clip((t - 0.3) * (0.6 - t), 0.0, None) ** 4

        cases = (
            (lambda z1, z2: window(np.abs(z1 / z2)), "|w2|"),
            (lambda z1, z2: window(np.abs(z2)), "|w1|"),
        )
        for integrand, axis in cases:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                quadrature.integrate_tau(integrand, rule)
            messages = [str(w.message) for w in caught]
            assert len(messages) == 1 and f"{axis} = " in messages[0], messages
