"""Triangle geometry: maps, automorphisms, measure densities."""

import cmath
import math

import numpy as np
import pytest

from hartogs.geometry import (
    DiscAutomorphism,
    HartogsAutomorphism,
    HartogsPoint,
    ProductPoint,
    apply_automorphism,
    contains,
    normalization_C,
    phi,
    phi_inverse,
    random_automorphism,
    weight_mu,
    weight_tau,
)
from hartogs.specfun import DomainError


def random_product_point(rng):
    w1 = rng.uniform(0.0, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    w2 = rng.uniform(0.05, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return ProductPoint(w1, w2)


class TestBiholomorphism:
    def test_forward_examples(self):
        assert phi(ProductPoint(0.0, 0.5)) == HartogsPoint(0.0, 0.5)
        assert phi(ProductPoint(0.5, 0.5)) == HartogsPoint(0.25, 0.5)
        q = phi(ProductPoint(0.3j, 0.9))
        assert q.z1 == pytest.approx(0.27j) and q.z2 == 0.9

    def test_inverse_examples(self):
        p = phi_inverse(HartogsPoint(0.25, 0.5))
        assert p.w1 == pytest.approx(0.5) and p.w2 == 0.5
        assert phi_inverse(HartogsPoint(0.0, 0.7)).w1 == 0.0
        assert phi_inverse(HartogsPoint(0.27j, 0.9)).w1 == pytest.approx(0.3j)

    def test_mutually_inverse_on_random_points(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(10_000):
            p = random_product_point(rng)
            q = phi(p)
            back = phi_inverse(q)
            worst = max(worst, abs(back.w1 - p.w1), abs(back.w2 - p.w2))
        assert worst <= 1e-14

    def test_membership(self):
        assert contains(0.1, 0.5)
        assert not contains(0.5, 0.5)
        assert not contains(0.1, 1.0)

    def test_point_validation(self):
        with pytest.raises(DomainError):
            HartogsPoint(0.5, 0.5)
        with pytest.raises(DomainError):
            ProductPoint(0.2, 0.0)


class TestMeasures:
    def test_normalization_constant_values(self):
        assert normalization_C(0.0) == pytest.approx(2.0 / math.pi**2, rel=1e-13)
        # 3 Gamma(6) / (2 pi^2 Gamma(3)^2) = 45 / pi^2
        assert normalization_C(2.0) == pytest.approx(45.0 / math.pi**2, rel=1e-13)
        with pytest.raises(DomainError):
            normalization_C(-1.0)

    def test_weight_mu_flat_at_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = phi(random_product_point(rng))
            assert weight_mu(0.0, q) == pytest.approx(2.0 / math.pi**2, rel=1e-13)

    def test_weight_mu_substitution(self):
        q = HartogsPoint(0.0, 0.5)
        expected = normalization_C(2.0) * 2.0 * 0.25 * 1.0 * 0.75**2
        assert weight_mu(2.0, q) == pytest.approx(expected, rel=1e-13)

    def test_weight_mu_edge_behavior(self):
        near = HartogsPoint(0.499999, 0.5)
        far = HartogsPoint(0.25, 0.5)
        assert weight_mu(2.0, near) < weight_mu(2.0, far)  # vanishes for nu > 0
        assert weight_mu(-0.5, near) > weight_mu(-0.5, far)  # blows up for nu < 0

    def test_weight_tau_values(self):
        assert weight_tau(HartogsPoint(0.0, 0.5)) == pytest.approx(4.0 / 0.5625, rel=1e-12)
        assert weight_tau(HartogsPoint(0.25, 0.5)) == pytest.approx(12.6419753086, rel=1e-10)

    def test_weight_tau_algebraic_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            q = phi(random_product_point(rng))
            a1 = abs(q.z1 / q.z2)
            a2 = abs(q.z2)
            prod = weight_tau(q) * a2**2 * (1 - a1**2) ** 2 * (1 - a2**2) ** 2
            assert prod == pytest.approx(1.0, rel=1e-12)


class TestAutomorphisms:
    def test_identity(self):
        psi = HartogsAutomorphism(DiscAutomorphism(0.0j, 1.0), 1.0)
        q = HartogsPoint(0.1 + 0.05j, 0.4)
        img = apply_automorphism(psi, q)
        assert img.z1 == pytest.approx(q.z1) and img.z2 == pytest.approx(q.z2)

    def test_pure_rotation(self):
        lam = cmath.exp(0.7j)
        psi = HartogsAutomorphism(DiscAutomorphism(0.0j, lam), 1.0)
        q = HartogsPoint(0.2, 0.5)
        img = apply_automorphism(psi, q)
        assert img.z1 == pytest.approx(lam * 0.2)
        assert img.z2 == pytest.approx(0.5)

    def test_membership_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            psi = random_automorphism(rng)
            q = phi(random_product_point(rng))
            img = apply_automorphism(psi, q)  # constructor re-validates
            assert contains(img.z1, img.z2)

    def test_composition_law(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            psi1 = random_automorphism(rng, max_center=0.6)
            psi2 = random_automorphism(rng, max_center=0.6)
            q = phi(random_product_point(rng))
            two_steps = apply_automorphism(psi2, apply_automorphism(psi1, q))
            one_step = apply_automorphism(psi2.compose(psi1), q)
            assert abs(two_steps.z1 - one_step.z1) <= 1e-12
            assert abs(two_steps.z2 - one_step.z2) <= 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            DiscAutomorphism(1.2, 1.0)
        with pytest.raises(DomainError):
            DiscAutomorphism(0.0j, 0.5)
        with pytest.raises(DomainError):
            HartogsAutomorphism(DiscAutomorphism(0.0j, 1.0), 2.0)

    def test_json_round_trip(self):
        psi = HartogsAutomorphism(DiscAutomorphism(0.1 + 0.2j, cmath.exp(0.3j)), cmath.exp(1.1j))
        back = HartogsAutomorphism.from_json(psi.to_json())
        assert back.disc_map.a == psi.disc_map.a
        assert back.disc_map.lam == psi.disc_map.lam
        assert back.c == psi.c
