"""Triangle geometry: points, automorphisms, the normalizing constant."""

import cmath
import math

import numpy as np
import pytest

from hartogs.geometry import (
    DiscAutomorphism,
    HartogsAutomorphism,
    HartogsPoint,
    contains,
    normalization_C,
    random_automorphism,
)
from hartogs.specfun import DomainError


class TestBiholomorphism:
    def test_membership(self):
        assert contains(0.1, 0.5)
        assert not contains(0.5, 0.5)
        assert not contains(0.1, 1.0)

    def test_point_validation(self):
        with pytest.raises(DomainError):
            HartogsPoint(0.5, 0.5)


class TestMeasures:
    def test_normalization_constant_values(self):
        assert normalization_C(0.0) == pytest.approx(2.0 / math.pi**2, rel=1e-13)
        # 3 Gamma(6) / (2 pi^2 Gamma(3)^2) = 45 / pi^2
        assert normalization_C(2.0) == pytest.approx(45.0 / math.pi**2, rel=1e-13)
        with pytest.raises(DomainError):
            normalization_C(-1.0)


def image(psi, z1, z2):
    """psi(z1, z2), composed in product coordinates as ``integrate_tau`` does."""
    return z2 * psi.disc_map(z1 / z2), psi.c * z2


class TestAutomorphisms:
    def test_identity(self):
        psi = HartogsAutomorphism(DiscAutomorphism(0.0j, 1.0), 1.0)
        z1, z2 = image(psi, 0.1 + 0.05j, 0.4)
        assert z1 == pytest.approx(0.1 + 0.05j) and z2 == pytest.approx(0.4)

    def test_pure_rotation(self):
        lam = cmath.exp(0.7j)
        psi = HartogsAutomorphism(DiscAutomorphism(0.0j, lam), 1.0)
        z1, z2 = image(psi, 0.2, 0.5)
        assert z1 == pytest.approx(lam * 0.2)
        assert z2 == pytest.approx(0.5)

    def test_membership_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            psi = random_automorphism(rng)
            w1 = rng.uniform(0.0, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            w2 = rng.uniform(0.05, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert contains(*image(psi, w1 * w2, w2))

    def test_validation(self):
        with pytest.raises(DomainError):
            DiscAutomorphism(1.2, 1.0)
        with pytest.raises(DomainError):
            DiscAutomorphism(0.0j, 0.5)
        with pytest.raises(DomainError):
            HartogsAutomorphism(DiscAutomorphism(0.0j, 1.0), 2.0)
