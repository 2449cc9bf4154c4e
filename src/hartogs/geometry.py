"""The Hartogs triangle, its product model, automorphisms and weights.

The triangle H = {(z1, z2) : |z1| < |z2| < 1} is biholomorphic to the
product D x D* (disc times punctured disc) through

    Phi(w1, w2) = (w1 * w2, w2),

and every computation in this package that involves an integral routes
through that map.  This module holds the point types, the map and its
inverse, the automorphism group of H and the two measure densities used
throughout (the normalized family mu_nu and the invariant density tau).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, gamma_ratio

__all__ = [
    "HartogsPoint",
    "ProductPoint",
    "DiscAutomorphism",
    "HartogsAutomorphism",
    "contains",
    "phi",
    "phi_inverse",
    "normalization_C",
    "weight_mu",
    "weight_tau",
    "apply_automorphism",
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


@dataclass(frozen=True)
class ProductPoint:
    """A point of D x D*: |w1| < 1 and 0 < |w2| < 1."""

    w1: complex
    w2: complex

    def __post_init__(self):
        if not abs(self.w1) < 1.0:
            raise DomainError(f"|w1| must be < 1, got {abs(self.w1)}")
        if not 0.0 < abs(self.w2) < 1.0:
            raise DomainError(f"w2 must lie in the punctured disc, got {self.w2}")


def phi(p):
    """Biholomorphism D x D* -> H, (w1, w2) -> (w1 w2, w2)."""
    return HartogsPoint(p.w1 * p.w2, p.w2)


def phi_inverse(q):
    """Inverse map H -> D x D*, (z1, z2) -> (z1/z2, z2)."""
    return ProductPoint(q.z1 / q.z2, q.z2)


def normalization_C(nu):
    """The constant C_nu that normalizes mu_nu to a probability measure.

    C_nu = (nu+1) Gamma(3nu/2 + 3) / (2^(nu/2) pi^2 Gamma(nu+1) Gamma(nu/2 + 2)),
    defined for nu > -1.
    """
    if not nu > -1.0:
        raise DomainError(f"normalization_C requires nu > -1, got {nu}")
    ratio = gamma_ratio([1.5 * nu + 3.0], [nu + 1.0, 0.5 * nu + 2.0])
    return (nu + 1.0) * ratio / (2.0 ** (0.5 * nu) * math.pi**2)


def weight_mu(nu, q):
    """Density of mu_nu against Lebesgue measure at a point of H.

    mu_nu = C_nu 2^(nu/2) |z2|^nu (1 - |z1/z2|^2)^nu (1 - |z2|^2)^nu dz;
    for nu = 0 this is the constant 2/pi^2.
    """
    c = normalization_C(nu)
    a1 = abs(q.z1 / q.z2)
    a2 = abs(q.z2)
    return c * 2.0 ** (0.5 * nu) * a2**nu * (1.0 - a1 * a1) ** nu * (1.0 - a2 * a2) ** nu


def weight_tau(q):
    """Density of the automorphism-invariant measure tau at a point of H.

    tau = |z2|^(-2) (1 - |z1/z2|^2)^(-2) (1 - |z2|^2)^(-2) dz; the total
    mass is infinite, so tau is only ever integrated against compactly
    supported functions.
    """
    a1 = abs(q.z1 / q.z2)
    a2 = abs(q.z2)
    return 1.0 / (a2 * a2 * (1.0 - a1 * a1) ** 2 * (1.0 - a2 * a2) ** 2)


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

    def _matrix(self):
        # (alpha eta + beta) / (gamma eta + delta)
        return (self.lam, -self.lam * self.a, -self.a.conjugate(), 1.0 + 0.0j)

    @classmethod
    def _from_matrix(cls, alpha, beta, gamma, delta):
        # a composed matrix is proportional to (lam, -lam a, -conj(a), 1)
        ratio = alpha / delta
        return cls(-beta / alpha, ratio / abs(ratio))

    def compose(self, other):
        """The automorphism self o other."""
        a1, b1, c1, d1 = other._matrix()
        a2, b2, c2, d2 = self._matrix()
        return DiscAutomorphism._from_matrix(
            a2 * a1 + b2 * c1,
            a2 * b1 + b2 * d1,
            c2 * a1 + d2 * c1,
            c2 * b1 + d2 * d1,
        )

    def to_json(self):
        return {
            "a": [self.a.real, self.a.imag],
            "lambda": [self.lam.real, self.lam.imag],
        }


@dataclass(frozen=True)
class HartogsAutomorphism:
    """Automorphism of H: (z1, z2) -> (z2 phi(z1/z2), c z2) with |c| = 1."""

    disc_map: DiscAutomorphism
    c: complex

    def __post_init__(self):
        if abs(abs(self.c) - 1.0) > _UNIT_TOL:
            raise DomainError(f"second-coordinate factor must be unimodular, got |c| = {abs(self.c)}")

    def compose(self, other):
        """self o other, again in the (disc map, rotation) normal form.

        If self = (phi2, c2) and other = (phi1, c1), the composition acts
        on the ratio z1/z2 as eta -> c1 * phi2(phi1(eta) / c1) and on z2
        as multiplication by c2 c1.
        """
        c1 = other.c
        rot_pre = DiscAutomorphism(0.0j, 1.0 / c1)
        rot_post = DiscAutomorphism(0.0j, c1)
        disc = rot_post.compose(self.disc_map.compose(rot_pre.compose(other.disc_map)))
        return HartogsAutomorphism(disc, self.c * c1)

    def to_json(self):
        obj = self.disc_map.to_json()
        obj["c"] = [self.c.real, self.c.imag]
        return obj

    @classmethod
    def from_json(cls, obj):
        disc = DiscAutomorphism(complex(*obj["a"]), complex(*obj["lambda"]))
        return cls(disc, complex(*obj["c"]))


def apply_automorphism(psi, q):
    """Image of a point of H under an automorphism."""
    ratio = q.z1 / q.z2
    return HartogsPoint(q.z2 * psi.disc_map(ratio), psi.c * q.z2)


def random_automorphism(rng, max_center=0.8):
    """Draw an automorphism with |a| <= max_center, uniform rotations."""
    r = max_center * math.sqrt(rng.uniform(0.0, 1.0))
    th = rng.uniform(0.0, 2.0 * math.pi)
    a = r * cmath.exp(1j * th)
    lam = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    c = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return HartogsAutomorphism(DiscAutomorphism(a, lam), c)
