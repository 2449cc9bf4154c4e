"""The Hartogs triangle, its points, automorphisms and normalizing constant.

The triangle H = {(z1, z2) : |z1| < |z2| < 1} is biholomorphic to the
product D x D* (disc times punctured disc) through

    Phi(w1, w2) = (w1 * w2, w2),

and every computation in this package that involves an integral routes
through that map; ``quadrature`` applies it to grids and writes the
densities of mu_nu and of the invariant measure tau.  This module holds
the point type, the automorphisms of H (a Moebius map of the ratio z1/z2
and a rotation of z2) and the constant C_nu that normalizes mu_nu.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coeffspace import _space
from .specfun import DomainError, gamma_ratio_signed

__all__ = [
    "HartogsPoint",
    "DiscAutomorphism",
    "HartogsAutomorphism",
    "contains",
    "normalization_C",
]

_UNIT_TOL = 1e-12


def contains(z1, z2):
    """True iff (z1, z2) lies in the open triangle |z1| < |z2| < 1;
    elementwise for arrays."""
    return (abs(z1) < abs(z2)) & (abs(z2) < 1.0)


@dataclass(frozen=True)
class HartogsPoint:
    """A point of the triangle, or a batch of points as two complex arrays
    of one shape; construction enforces membership of every entry."""

    z1: complex
    z2: complex

    def __post_init__(self):
        inside = np.asarray(contains(self.z1, self.z2))
        if inside.all():
            return
        if inside.ndim == 0:
            raise DomainError(f"({self.z1}, {self.z2}) is not in the Hartogs triangle")
        i = int(np.flatnonzero(~inside)[0])
        z1, z2 = np.ravel(self.z1)[i], np.ravel(self.z2)[i]
        raise DomainError(f"entry {i}: ({z1}, {z2}) is not in the Hartogs triangle")


def normalization_C(nu):
    """The constant C_nu that normalizes mu_nu to a probability measure.

    C_nu = (nu+1) Gamma(3nu/2 + 3) / (2^(nu/2) pi^2 Gamma(nu+1) Gamma(nu/2 + 2)),
    defined for nu > -1.  ``nu`` is a float or its SpaceParam.
    """
    nu = _space(nu).require("bergman", "normalization_C").nu
    ratio = gamma_ratio_signed([1.5 * nu + 3.0], [nu + 1.0, 0.5 * nu + 2.0])
    return (nu + 1.0) * ratio / (2.0 ** (0.5 * nu) * math.pi**2)


@dataclass(frozen=True)
class DiscAutomorphism:
    """Moebius automorphism of the unit disc, eta -> lam (eta - a)/(1 - conj(a) eta)."""

    a: complex
    lam: complex

    def __post_init__(self):
        if not abs(self.a) < 1.0:
            raise DomainError(f"Moebius center must satisfy |a| < 1, got {abs(self.a)}")
        if abs(abs(self.lam) - 1.0) > _UNIT_TOL:
            raise DomainError(f"rotation factor must be unimodular, got |lam| = {abs(self.lam)}")

    def __call__(self, eta):
        return self.lam * (eta - self.a) / (1.0 - self.a.conjugate() * eta)


@dataclass(frozen=True)
class HartogsAutomorphism:
    """Automorphism of H: (z1, z2) -> (z2 phi(z1/z2), c z2) with |c| = 1."""

    disc_map: DiscAutomorphism
    c: complex

    def __post_init__(self):
        if abs(abs(self.c) - 1.0) > _UNIT_TOL:
            raise DomainError(f"second-coordinate factor must be unimodular, got |c| = {abs(self.c)}")


def random_automorphism(rng, max_center=0.8):
    """Draw an automorphism with |a| <= max_center, uniform rotations."""
    a = max_center * math.sqrt(rng.uniform(0.0, 1.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    lam = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    c = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return HartogsAutomorphism(DiscAutomorphism(a, lam), c)
