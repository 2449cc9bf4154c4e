"""Exact coefficient re-indexing isometries onto bidisc spaces.

All three isometries of the family are pure integer re-indexings of
Laurent coefficients (never numerical integrations), which makes the
"surjective isometry" statements machine-checkable exactly:

  * Hardy:     f -> Jac(Phi) * (f o Phi) sends a_{jk} to the bidisc
               coefficient at (j, j+k+1); the Hardy norms are equal sums.
  * Dirichlet: f -> f o Phi sends a_{jk} to (j, j+k); the weight
               (j+1)(j+k+1) becomes the bidisc Dirichlet weight (j+1)(k+1).
  * Bergman:   same re-indexing as Hardy, landing in the pullback space
               on D x D*; for nu <= 0 the image is holomorphic across
               w2 = 0 (all w2 exponents nonnegative), for nu > 0 finitely
               many negative powers survive.
"""

from .coeffspace import LaurentCoeffs, SpaceParam, _CoeffMap
from .specfun import DomainError

__all__ = [
    "BidiscCoeffs",
    "hardy_to_bidisc",
    "bidisc_to_hardy",
    "dirichlet_to_bidisc",
    "bidisc_to_dirichlet",
    "bergman_pullback",
    "bergman_pullback_inverse",
    "hardy_bidisc_norm_sq",
    "dirichlet_bidisc_norm_sq",
]


class BidiscCoeffs(_CoeffMap):
    """Finite map (j >= 0, k >= 0) -> Taylor coefficient on the bidisc."""

    def _check_key(self, key):
        if len(key) != 2 or key[0] < 0 or key[1] < 0:
            raise DomainError(f"bidisc key needs j, k >= 0, got {key}")


def hardy_to_bidisc(f):
    """Hardy-space isometry onto H^2 of the bidisc: (j, k) -> (j, j+k+1)."""
    out = {}
    for (j, k), a in f.items():
        if not j + k + 1 >= 0:
            raise DomainError(f"term ({j}, {k}) lies outside the Hardy index set")
        out[(j, j + k + 1)] = a
    return BidiscCoeffs(out)


def bidisc_to_hardy(g):
    """Inverse of :func:`hardy_to_bidisc`: (j, k) -> (j, k - j - 1)."""
    return LaurentCoeffs({(j, k - j - 1): a for (j, k), a in g.items()})


def dirichlet_to_bidisc(f):
    """Dirichlet-space isometry onto the bidisc: (j, k) -> (j, j+k)."""
    out = {}
    for (j, k), a in f.items():
        if not j + k >= 0:
            raise DomainError(f"term ({j}, {k}) lies outside the Dirichlet index set")
        out[(j, j + k)] = a
    return BidiscCoeffs(out)


def bidisc_to_dirichlet(g):
    """Inverse of :func:`dirichlet_to_bidisc`: (j, k) -> (j, k - j)."""
    return LaurentCoeffs({(j, k - j): a for (j, k), a in g.items()})


def bergman_pullback(nu, f):
    """Pullback isometry A^2_nu(H) -> A^2_nu(D x D*): (j, k) -> (j, j+k+1).

    The image is returned as a Laurent map in the product coordinates
    (w2 exponents may be negative when nu > 0).
    """
    sp = SpaceParam(nu)
    out = {}
    for (j, k), a in f.items():
        if not sp.member(j, k):
            raise DomainError(f"term ({j}, {k}) lies outside I_nu for nu = {nu}")
        out[(j, j + k + 1)] = a
    return LaurentCoeffs(out)


def bergman_pullback_inverse(nu, g):
    """Inverse pullback: (j, k) -> (j, k - j - 1), landing back in I_nu."""
    sp = SpaceParam(nu)
    out = {}
    for (j, k), a in g.items():
        if not sp.member(j, k - j - 1):
            raise DomainError(f"term ({j}, {k}) does not come from I_nu for nu = {nu}")
        out[(j, k - j - 1)] = a
    return LaurentCoeffs(out)


def hardy_bidisc_norm_sq(g):
    """Squared Hardy norm on the bidisc: the plain Parseval sum."""
    return sum(abs(a) ** 2 for _, a in g.items())


def dirichlet_bidisc_norm_sq(g):
    """Squared Dirichlet norm on the bidisc: sum (j+1)(k+1)|a|^2."""
    return sum((j + 1.0) * (k + 1.0) * abs(a) ** 2 for (j, k), a in g.items())
