"""Real/complex special functions used by every closed form in the library.

Provides one Gamma-ratio routine, summed in log space with sign tracking
(``math.lgamma`` on every argument but the poles, negative ones
included), and the Gauss hypergeometric function 2F1 on the open unit
disc (SciPy's complex ``hyp2f1`` ufunc behind a domain check, for a
scalar or an array).  Every Beta integral of the package is
a ratio of Gamma values and goes through the one routine.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

__all__ = [
    "DomainError",
    "VerificationFailure",
    "HypergeometricParams",
    "gamma_ratio_signed",
    "gauss_2f1",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class VerificationFailure(ArithmeticError):
    """A closed form disagreed with its independent check beyond tolerance."""


# log of the largest double; math.exp overflows above it
_LOG_MAX = math.log(np.finfo(float).max)


def gamma_ratio_signed(numerators, denominators):
    """prod Gamma(n_i) / prod Gamma(d_j), evaluated in log space.

    Only the log-Gamma values are summed, so the arguments may be large as
    long as the ratio is a double; a ratio that overflows, or underflows to 0,
    or an argument whose log-Gamma overflows (beyond about 2.55e305) raises
    DomainError.  Every argument but a pole goes through ``math.lgamma``,
    which reduces sin(pi x) exactly and so keeps its digits next to a
    negative integer; Gamma(x) has the sign (-1)^floor(x) for negative x.
    The result is a signed float; a pole (a non-positive integer) in a
    denominator yields 0.0 and a pole in a numerator a signed infinity.
    """
    sign, acc, poles = 1.0, 0.0, set()
    try:
        for side, args in ((1.0, numerators), (-1.0, denominators)):
            for a in args:
                if a <= 0.0:
                    if a == math.floor(a):
                        poles.add(side)
                        continue
                    if math.floor(a) % 2:
                        sign = -sign
                acc += side * math.lgamma(a)
    except OverflowError as exc:  # math.lgamma past about 2.55e305
        raise DomainError("the Gamma ratio leaves the double range: a log-Gamma overflows") from exc
    if len(poles) == 2:
        raise DomainError("gamma_ratio_signed: pole over pole is ambiguous")
    if poles:
        return sign * math.inf if 1.0 in poles else 0.0
    if acc > _LOG_MAX or (value := math.exp(acc)) == 0.0:
        raise DomainError(f"the Gamma ratio exp({acc:.6g}) leaves the double range")
    return sign * value


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameter triple (alpha, beta; gamma) of the Gauss series.

    gamma must not be zero or a negative integer, otherwise the defining
    series is undefined.  alpha may be an array of values; gauss_2f1
    broadcasts it against z.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        g = self.gamma
        if g <= 0.0 and g == math.floor(g):
            raise DomainError(f"gamma must not be a non-positive integer, got {g}")


def gauss_2f1(params, z):
    """Gauss hypergeometric function F(alpha, beta; gamma; z) for |z| < 1.

    Evaluated by SciPy's complex ``hyp2f1`` ufunc, which picks the series
    or a transformation of it by region; for the kernel's triples
    (alpha, 1; gamma) the value matches mpmath to 1e-12 relative error out
    to |z| = 1 - 1e-6 (``kernels.bound_ratio_profile`` states its own).
    An array z is evaluated in one ufunc call and returns an array; a
    scalar z returns a complex.  An array alpha broadcasts against z as the
    ufunc's arguments do, so an (m, 1) column of alphas gives m rows.
    """
    z = np.asarray(z, dtype=complex)
    if not (np.abs(z) < 1.0).all():
        raise DomainError(f"gauss_2f1 requires |z| < 1, got |z| = {np.max(np.abs(z))}")
    val = hyp2f1(params.alpha, params.beta, params.gamma, z)
    return complex(val) if val.ndim == 0 else val
