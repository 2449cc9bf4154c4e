"""Projection operators and the critical L^p exponent machinery.

The weighted Bergman projection P_nu acts on finite mixed polynomials
z1^a conj(z1)^b z2^c conj(z2)^d exactly: angular selection keeps only the
holomorphic monomial z1^(a-b) z2^(c-d), and the surviving coefficient is
the Gamma moment at the exponents (a, c) over the squared norm of the
survivor.  The coefficient rule is a derived formula, so a mandatory
self-test against the quadrature oracle guards its first use in any CLI run.

The Szego projection is a Fourier multiplier on the torus with symbol the
indicator of {j >= 0, j + k + 1 >= 0} (sgn(0) := +1, which the series
definition of the projection forces; the literal sgn(0) = 0 reading would
break idempotence).  A spectral grid realization via the FFT doubles it.

The boundedness range of P_nu on L^p_nu is computed in the ceiling form
of the necessity argument.  In (w1, w2) = (z1/z2, z2) it is where the mode
w2^(-N), N = 1 + ceil(nu/2), lies in L^p and L^p' of the radial weight
|w2|^(nu+2) (1-|w2|^2)^nu; ``_mode_exponent`` gives the radial power of that
mode's q-th moment, and ``_tail_integral`` its truncated integral, which the
mode-norm and blow-up rows of ``verify`` read.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .coeffspace import LaurentCoeffs, MixedPoly, SpaceParam, TorusSeries, _gamma_weight
from .specfun import DomainError, VerificationFailure

__all__ = [
    "IntegrabilityError",
    "CriticalRange",
    "project_bergman",
    "projection_self_test",
    "szego_multiplier",
    "project_szego",
    "project_szego_grid",
    "lp_norm_torus",
    "critical_range",
]

class IntegrabilityError(DomainError):
    """A mixed-polynomial term is not integrable for the requested weight."""


def project_bergman(nu, f):
    """Weighted Bergman projection of a finite mixed polynomial.

    Each term z1^a conj(z1)^b z2^c conj(z2)^d maps to

        lambda * z1^(a-b) z2^(c-d),
        lambda = C_nu 2^(nu/2) pi^2 B(a+1, nu+1) B(a+c+nu/2+2, nu+1)
                 / || z1^(a-b) z2^(c-d) ||^2_{A^2_nu}

    when a >= b and (a-b, c-d) lies in I_nu, and to zero otherwise.  The
    numerator is ``_gamma_weight(nu, a, c)``, so on a basis monomial the
    two weights are one computation and lambda is exactly 1.0.
    Raises IntegrabilityError, naming the term, when a term is not in
    L^1(dmu_nu) or its surviving Beta moment diverges.
    """
    sp = SpaceParam(nu).require("bergman", "the Bergman projection")
    nu = sp.nu
    if not isinstance(f, MixedPoly):
        raise DomainError("project_bergman expects a MixedPoly input")
    out = {}
    for (a, b, c, d), coef in f.items():
        if not 2 * a + 2 * b + c + d + nu + 4.0 > 0.0:
            raise IntegrabilityError(f"term (a={a}, b={b}, c={c}, d={d}) is not in L^1(dmu_{nu})")
        j, k = a - b, c - d
        if not sp.member(j, k):
            continue
        if not a + c + 0.5 * nu + 2.0 > 0.0:
            raise IntegrabilityError(
                f"term (a={a}, b={b}, c={c}, d={d}) has a divergent moment against z1^{j} z2^{k}"
            )
        lam = _gamma_weight(nu, a, c) / sp.weight(j, k)
        out[(j, k)] = out.get((j, k), 0.0j) + coef * lam
    return LaurentCoeffs(out)


_SELF_TEST_TERMS = (
    (1, 0, 0, 0),
    (0, 0, 0, 1),
    (1, 1, 2, 0),
    (2, 1, -1, 0),
    (0, 0, 2, 3),
    (1, 0, 0, 2),
)


def projection_self_test(nu):
    """Compare the Gamma-weight coefficient rule against the quadrature oracle.

    Runs at the snapped nu of :class:`SpaceParam` on a fixed corpus of
    mixed monomials: for each term the oracle coefficient is
    <term, e> / ||e||^2 with e the surviving basis monomial, both sides
    by tensor quadrature with 33 angles and the fewest radial nodes, at
    least 32, that sum the corpus exactly.
    Raises VerificationFailure on a relative disagreement beyond 1e-7.
    """
    sp = SpaceParam(nu)
    nu = sp.nu
    terms = [(a, b, c, d) for a, b, c, d in _SELF_TEST_TERMS if sp.member(a - b, c - d)]
    # <term, e> pulls back to u^a v^(a+c) times the rule's v^(1 + ceil(nu/2)),
    # and ||e||^2 to no higher powers; n Gauss nodes are exact to degree 2n - 1
    degree = max(a + c for a, _, c, _ in terms) + 1 + sp.ceil
    rule = quadrature.build_rule(sp, max(32, degree // 2 + 1), 33)
    for a, b, c, d in terms:
        term = MixedPoly({(a, b, c, d): 1.0})
        j, k = a - b, c - d
        basis = LaurentCoeffs({(j, k): 1.0})
        num = quadrature.inner_product_quad(nu, term, basis, rule)
        den = quadrature.inner_product_quad(nu, basis, basis, rule).real
        lam_quad = num / den
        lam_rule = project_bergman(nu, term).get((j, k))
        if abs(lam_quad - lam_rule) > 1e-7 * max(1.0, abs(lam_rule)):
            raise VerificationFailure(
                f"projection self-test failed at nu={nu}, term ({a},{b},{c},{d}): "
                f"rule {lam_rule}, quadrature {lam_quad}"
            )
    return True


_HARDY = SpaceParam(-1.0)


def szego_multiplier(j, k):
    """Multiplier symbol: 1 on the Hardy index set I_-1 = {j >= 0, j + k + 1 >= 0}, else 0."""
    return int(_HARDY.member(j, k))


def project_szego(f):
    """Coefficient-wise Szego projection of a torus Fourier series."""
    return TorusSeries({key: a for key, a in f.items() if szego_multiplier(*key)})


def project_szego_grid(samples):
    """Spectral realization of the Szego projection on an N x N torus grid.

    Forward FFT, multiplier mask in the signed frequency convention
    (frequencies in [-floor(N/2), ceil(N/2) - 1]), inverse FFT.  Exact on
    trigonometric polynomials of degree below N/2.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2 or samples.shape[0] != samples.shape[1] or samples.size == 0:
        raise DomainError(f"expected a non-empty square grid, got shape {samples.shape}")
    n = samples.shape[0]
    freq = np.fft.fftfreq(n, d=1.0 / n)
    spectrum = np.fft.fft2(samples)
    spectrum *= _HARDY.member(freq[:, None], freq[None, :])
    return np.fft.ifft2(spectrum, out=spectrum)


def lp_norm_torus(p, samples):
    """Discrete L^p norm on the torus: (sum |v|^p (2 pi / N)^2)^(1/p); DomainError on an empty grid."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise DomainError(f"the L^p norm needs a non-empty grid, got shape {samples.shape}")
    n = samples.shape[0]
    return float(np.sum(np.abs(samples) ** p) * (2.0 * np.pi / n) ** 2) ** (1.0 / p)


@dataclass(frozen=True)
class CriticalRange:
    """Open interval (p_minus, p_plus) of L^p boundedness, conjugate-symmetric."""

    p_minus: float
    p_plus: float


def critical_range(nu):
    """Boundedness range of P_nu, nu > -1, in the ceiling form used by the
    necessity argument: with A = 1 + ceil(nu/2) and B = nu - ceil(nu/2) + 3,

        ( (A+B)/B, (A+B)/A ) = ( 2 - (B-A)/B, 2 + (B-A)/A ).

    The upper end is where z2^(-A), the projection of conj(z2)^A, leaves
    L^p_nu; at nu = 0 the range is Chakrabarti-Zeytuncu's (4/3, 4).
    """
    sp = SpaceParam(nu).require("bergman", "critical_range")
    c = sp.ceil
    a = 1.0 + c
    b = sp.nu - c + 3.0
    return CriticalRange(2.0 - (b - a) / b, 2.0 + (b - a) / a)


def _mode_exponent(sp, q):
    """s = nu - N q + 3, N = 1 + ceil(nu/2): |w2^(-N)|^q |w2|^(nu+2) (1-|w2|^2)^nu dA
    is 2 pi rho^s (1-rho^2)^nu drho, rho = |w2|, finite exactly when s > -1."""
    return sp.nu - (1.0 + sp.ceil) * q + 3.0


def _tail_integral(s, nu, eps):
    """T(eps) = int_eps^1 rho^s (1 - rho^2)^nu drho, split at 1/2.

    The inner piece goes through rho = e^x (handles strongly negative s),
    the outer piece through v = rho^2 against a Jacobi (1-v)^nu rule that
    absorbs the endpoint singularity for nu < 0.
    """
    t, h = quadrature._jacobi01(64, 1.0, 1.0)  # Gauss-Legendre on (0, 1)
    total = 0.0
    cut = max(eps, 0.5)
    if eps < 0.5:
        lo, hi = math.log(eps), math.log(0.5)
        xs = lo + (hi - lo) * t
        vals = np.exp((s + 1.0) * xs) * (1.0 - np.exp(2.0 * xs)) ** nu
        total += float(np.dot(h, vals)) * (hi - lo)
    a = cut * cut
    xj, wj = quadrature._jacobi01(64, nu + 1.0, 1.0)
    v = a + (1.0 - a) * xj
    vals = 0.5 * v ** (0.5 * (s - 1.0))
    total += float(np.dot(wj, vals)) * (1.0 - a) ** (nu + 1.0)
    return total
