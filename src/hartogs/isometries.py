"""The bidisc isometry of the family, an exact re-indexing of coefficients.

Phi(w1, w2) = (w1 w2, w2) maps D x D* onto the Hartogs triangle, and its
complex Jacobian is det Phi' = w2.  Every isometry of the paper is

    f -> w2^s (f o Phi),

which takes z1^j z2^k to w1^j w2^(j+k+s): the coefficient a_jk moves to
(j, j+k+s) and nothing is integrated, so the "surjective isometry"
statements are machine-checkable exactly.

  * s = 1 for nu > -2.  For nu > -1, Phi changes the measure by |w2|^2,
    the square of its Jacobian, so w2 (f o Phi) has the norm of f in
    A^2_nu(D x D*); the image is holomorphic across w2 = 0 when nu <= 0
    (all w2 exponents nonnegative) and keeps finitely many negative powers
    of w2 when nu > 0.  The Hardy norm at nu = -1, the nu -> -1 limit of
    these norms, carries the same factor: the image lies in H^2 of the
    bidisc and both norms are the same Parseval sum.  For -2 < nu < -1 the
    weight of a_jk is C u(j) v(j+k+1), C = Gamma(nu+2) Gamma(3nu/2+3) /
    Gamma(nu/2+2), u(j) = Gamma(j+1) / Gamma(j+nu+2) and v(n) =
    Gamma(n+nu/2+1) / Gamma(n+3nu/2+2): a tensor product of a weight in w1
    and one in w2, indefinite below nu = -4/3, where v(0) < 0; ``SpaceParam.weight``
    is this product for nu > -1 too (``coeffspace._pochhammer_weight``).
  * s = 0 at nu = -2.  The Dirichlet weight (j+1)(j+k+1) of a_jk becomes
    the bidisc Dirichlet weight (j+1)(k+1) under (j, k) -> (j, j+k) with no
    Jacobian factor.
"""

from .coeffspace import LaurentCoeffs, SpaceParam
from .specfun import DomainError

__all__ = ["to_bidisc", "from_bidisc"]


def _jacobian_power(sp):
    """The power s of the Jacobian w2 in f -> w2^s (f o Phi): 0 at nu = -2, else 1."""
    return 0 if sp.kind == "dirichlet" else 1


def to_bidisc(nu, f):
    """w2^s (f o Phi) of a Laurent polynomial in the nu space: (j, k) -> (j, j+k+s).

    A term outside I_nu raises DomainError.
    """
    sp = SpaceParam(nu)
    s = _jacobian_power(sp)
    for (j, k), _ in f.items():
        if not sp.member(j, k):
            raise DomainError(f"term ({j}, {k}) lies outside I_nu for nu = {nu}")
    return LaurentCoeffs({(j, j + k + s): a for (j, k), a in f.items()})


def from_bidisc(nu, g):
    """Inverse of :func:`to_bidisc`: (j, k) -> (j, k-j-s).

    A term that no term of I_nu maps to raises DomainError.
    """
    sp = SpaceParam(nu)
    s = _jacobian_power(sp)
    for (j, k), _ in g.items():
        if not sp.member(j, k - j - s):
            raise DomainError(f"term ({j}, {k}) does not come from I_nu for nu = {nu}")
    return LaurentCoeffs({(j, k - j - s): a for (j, k), a in g.items()})
