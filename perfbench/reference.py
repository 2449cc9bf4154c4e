"""Independent references the benchmark checks the program's outputs against.

The kernel reference evaluates each regime's closed form in mpmath
(``hyp2f1`` and ``gamma`` at 30 digits), sharing no code with
``hartogs.specfun``.  ``gaussian_z2_moment`` is the closed form of the
non-polynomial oracle-callable integrand.
"""

import math

import mpmath

mpmath.mp.dps = 30


def kernel(nu, z1, z2, w1, w2):
    """K_nu(z, w) for nu in [-2, inf) as a Python complex."""
    nu = mpmath.mpf(nu)
    y = mpmath.mpc(z2) * mpmath.conj(mpmath.mpc(w2))
    x = mpmath.mpc(z1) * mpmath.conj(mpmath.mpc(w1)) / y
    if nu == -2:
        val = _log1over(x) * _log1over(y)
    elif nu == -1:
        val = 1 / (y * (1 - x) * (1 - y))
    elif nu < -1:
        c_nu = (nu / 2 + 1) / (3 * nu / 2 + 2)
        hyp = mpmath.hyp2f1(3 * nu / 2 + 2, 1, nu / 2 + 1, y)
        val = c_nu * (1 - x) ** (-(nu + 2)) * hyp / y
    else:
        c = math.ceil(float(nu) / 2)
        alpha, gamma = 3 * nu / 2 - c + 2, nu / 2 - c + 1
        front = mpmath.gamma(nu / 2 + 2) * mpmath.gamma(alpha) / (
            mpmath.gamma(3 * nu / 2 + 3) * mpmath.gamma(gamma)
        )
        hyp = mpmath.hyp2f1(alpha, 1, gamma, y)
        val = front * y ** (-1 - c) * (1 - x) ** (-(nu + 2)) * hyp
    return complex(val)


def _log1over(t):
    return -mpmath.log(1 - t) / t if t != 0 else mpmath.mpf(1)


def gaussian_z2_moment(nu, scale):
    """int exp(-scale |z2|^2) dmu_nu.  Under mu_nu, |z2|^2 ~ Beta(nu/2+2, nu+1),
    so this is the Beta moment generating function 1F1(a; a+b; -scale)."""
    a = mpmath.mpf(nu) / 2 + 2
    b = mpmath.mpf(nu) + 1
    return float(mpmath.hyp1f1(a, a + b, -mpmath.mpf(scale)))
