"""The bidisc isometry f -> w2^s (f o Phi) of every space of the family."""

import numpy as np
import pytest

from hartogs import quadrature
from hartogs.coeffspace import LaurentCoeffs, SpaceParam, evaluate_grid
from hartogs.isometries import from_bidisc, to_bidisc
from hartogs.specfun import DomainError
from hartogs.verify import _random_laurent


def values_on_torus(f, s, n=16):
    """w2^s f(w1 w2, w2) on the n x n torus grid, entry (p, q) at
    w1 = e^(2 pi i p/n), w2 = e^(2 pi i q/n)."""
    w = np.exp(2j * np.pi * np.arange(n) / n)
    w1, w2 = w[:, None], w[None, :]
    return w2**s * evaluate_grid(f, w1 * w2, w2)


def dirichlet_norm_from_values(f, n=16):
    """sum (j+1)(k+1) |c_jk|^2 over the Taylor coefficients c of f(w1 w2, w2),
    read by a 2-D FFT of its values: the Dirichlet norm of the bidisc."""
    c = np.fft.fft2(values_on_torus(f, 0, n)) / n**2
    m = np.arange(n) + 1.0
    return float(np.sum(np.outer(m, m) * np.abs(c) ** 2))


class TestBothMaps:
    # (nu, a term of I_nu, its image): s = 0 at nu = -2 and 1 above it
    EXAMPLES = [
        (-2.0, (0, 0), (0, 0)),
        (-2.0, (1, -1), (1, 0)),
        (-2.0, (2, 3), (2, 5)),
        (-1.0, (0, -1), (0, 0)),
        (-1.0, (1, -1), (1, 1)),
        (-1.0, (1, 0), (1, 2)),
        (0.0, (0, -1), (0, 0)),
        (0.0, (2, -3), (2, 0)),
        (2.0, (0, -2), (0, -1)),
        (2.0, (3, -5), (3, -1)),
    ]

    @pytest.mark.parametrize("nu, term, image", EXAMPLES)
    def test_examples(self, nu, term, image):
        f = LaurentCoeffs({term: 1.0 - 2.0j})
        g = LaurentCoeffs({image: 1.0 - 2.0j})
        assert to_bidisc(nu, f) == g
        assert from_bidisc(nu, g) == f

    @pytest.mark.parametrize("nu, s", [(-2.0, 0), (-1.5, 1), (-1.0, 1), (0.0, 1), (2.0, 1)])
    def test_is_the_composition_with_phi(self, nu, s):
        # g(w1, w2) = w2^s f(w1 w2, w2) at points of D x D*
        rng = np.random.default_rng(66)
        w1 = np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
        w2 = (0.2 + 0.7 * rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
        for _ in range(10):
            f = _random_laurent(rng, nu, n_terms=6)
            g = to_bidisc(nu, f)
            np.testing.assert_allclose(evaluate_grid(g, w1, w2), w2**s * evaluate_grid(f, w1 * w2, w2), rtol=1e-12)

    def test_snapped_nu_takes_the_power_of_its_regime(self):
        f = LaurentCoeffs({(1, -1): 1.0})
        assert to_bidisc(-2.0 + 1e-13, f) == LaurentCoeffs({(1, 0): 1.0})
        assert to_bidisc(-1.0 - 1e-13, f) == LaurentCoeffs({(1, 1): 1.0})

    @pytest.mark.parametrize("nu", [-1.9, -1.5, -4.0 / 3.0, -1.1])
    def test_weighted_dirichlet_takes_s_1(self, nu):
        for term, image in [((0, -1), (0, 0)), ((1, -1), (1, 1)), ((2, 0), (2, 3))]:
            f = LaurentCoeffs({term: 1.0 - 2.0j})
            g = LaurentCoeffs({image: 1.0 - 2.0j})
            assert to_bidisc(nu, f) == g
            assert from_bidisc(nu, g) == f

    @pytest.mark.parametrize("nu", [-2.5, float("nan"), float("inf")])
    def test_nu_outside_the_family(self, nu):
        with pytest.raises(DomainError):
            to_bidisc(nu, LaurentCoeffs({(0, 0): 1.0}))


class TestHardyIsometry:
    def test_examples(self):
        assert to_bidisc(-1.0, LaurentCoeffs({(0, -1): 1.0})) == LaurentCoeffs({(0, 0): 1.0})
        assert to_bidisc(-1.0, LaurentCoeffs({(1, 0): 1.0})) == LaurentCoeffs({(1, 2): 1.0})
        assert from_bidisc(-1.0, LaurentCoeffs({(0, 0): 1.0})) == LaurentCoeffs({(0, -1): 1.0})
        assert from_bidisc(-1.0, LaurentCoeffs({(1, 1): 1.0})) == LaurentCoeffs({(1, -1): 1.0})

    def test_norm_preserved_exactly(self):
        # the torus mean of |w2 f(w1 w2, w2)|^2 is the Hardy norm of the bidisc,
        # exact on the grid for degrees below 16 up to rounding
        rng = np.random.default_rng(60)
        for _ in range(100):
            f = _random_laurent(rng, -1.0, n_terms=7)
            mean = np.mean(np.abs(values_on_torus(f, 1)) ** 2)
            assert mean == pytest.approx(SpaceParam(-1.0).norm_sq(f), rel=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            f = _random_laurent(rng, -1.0, n_terms=6)
            assert from_bidisc(-1.0, to_bidisc(-1.0, f)) == f

    def test_support_violation(self):
        with pytest.raises(DomainError, match=r"term \(0, -2\) lies outside I_nu"):
            to_bidisc(-1.0, LaurentCoeffs({(0, -2): 1.0}))
        with pytest.raises(DomainError, match=r"term \(2, -1\) does not come from I_nu"):
            from_bidisc(-1.0, LaurentCoeffs({(2, -1): 1.0}))

    def test_inverse_refuses_negative_indices(self):
        # H^2 of the bidisc holds only j, k >= 0: a negative k has no preimage
        # in I_{-1}, and a negative j is no Laurent key at all
        for k in (-1, -2):
            with pytest.raises(DomainError):
                from_bidisc(-1.0, LaurentCoeffs({(0, k): 1.0}))
        with pytest.raises(DomainError):
            LaurentCoeffs({(-1, 0): 1.0})


class TestDirichletIsometry:
    def test_examples(self):
        g = to_bidisc(-2.0, LaurentCoeffs({(0, 0): 1.0}))
        assert g == LaurentCoeffs({(0, 0): 1.0})
        assert dirichlet_norm_from_values(LaurentCoeffs({(0, 0): 1.0})) == pytest.approx(1.0)
        g = to_bidisc(-2.0, LaurentCoeffs({(1, -1): 1.0}))
        assert g == LaurentCoeffs({(1, 0): 1.0})
        assert dirichlet_norm_from_values(LaurentCoeffs({(1, -1): 1.0})) == pytest.approx(2.0)

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            f = _random_laurent(rng, -2.0, n_terms=7)
            norm = dirichlet_norm_from_values(f)
            assert norm == pytest.approx(SpaceParam(-2.0).norm_sq(f), rel=1e-13)
            assert from_bidisc(-2.0, to_bidisc(-2.0, f)) == f

    def test_support_violation(self):
        with pytest.raises(DomainError):
            to_bidisc(-2.0, LaurentCoeffs({(2, -3): 1.0}))
        with pytest.raises(DomainError):
            from_bidisc(-2.0, LaurentCoeffs({(2, -1): 1.0}))


class TestBergmanPullback:
    def test_image_holomorphic_for_small_nu(self):
        rng = np.random.default_rng(63)
        for nu in (-0.9, -0.5, 0.0):
            for _ in range(50):
                f = _random_laurent(rng, nu, n_terms=6)
                g = to_bidisc(nu, f)
                assert all(k >= 0 for (_, k), _ in g.items())

    def test_negative_powers_for_positive_nu(self):
        f = LaurentCoeffs({(0, -2): 1.0})  # in I_2
        g = to_bidisc(2.0, f)
        assert g == LaurentCoeffs({(0, -1): 1.0})

    def test_constant_image_example(self):
        # z2^(-1) pulls back to the constant 1; both norms equal 2 at nu = 0
        f = LaurentCoeffs({(0, -1): 1.0})
        g = to_bidisc(0.0, f)
        assert g == LaurentCoeffs({(0, 0): 1.0})
        assert SpaceParam(0.0).norm_sq(f) == pytest.approx(2.0, rel=1e-12)
        rule = quadrature.build_rule(0.0, radial_order=16, angular_count=4)
        quad = quadrature.integrate_bidisc(
            0.0, lambda w1, w2: np.ones(np.broadcast(w1, w2).shape), rule
        ).real
        assert quad == pytest.approx(2.0, rel=1e-10)

    def test_norm_matches_quadrature(self):
        rng = np.random.default_rng(64)
        for nu in (-0.5, 0.0, 1.0):
            rule = quadrature.build_rule(nu, radial_order=32, angular_count=25)
            for _ in range(5):
                f = _random_laurent(rng, nu, n_terms=5)
                g = to_bidisc(nu, f)
                gf = quadrature.as_grid_fn(g)
                quad = quadrature.integrate_bidisc(
                    nu, lambda w1, w2: np.abs(gf(w1, w2)) ** 2, rule
                ).real
                assert quad == pytest.approx(SpaceParam(nu).norm_sq(f), rel=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(65)
        for nu in (-0.5, 0.7, 2.0):
            for _ in range(50):
                f = _random_laurent(rng, nu, n_terms=6)
                assert from_bidisc(nu, to_bidisc(nu, f)) == f

    def test_support_violation(self):
        with pytest.raises(DomainError):
            to_bidisc(0.0, LaurentCoeffs({(0, -2): 1.0}))
        with pytest.raises(DomainError):
            from_bidisc(0.0, LaurentCoeffs({(0, -1): 1.0}))
