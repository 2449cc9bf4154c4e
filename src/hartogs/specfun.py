"""Real/complex special functions used by every closed form in the library: one
Gamma-ratio routine, summed in log space with sign tracking (``math.lgamma`` on every
argument but the poles), through which every Beta integral goes; and the kernel
family's Gauss function F(q+gamma-1, 1; gamma; z) and its Euler transform G = (1-z)^q F
on the open unit disc, in numpy (``gauss_2f1``)."""

import functools
import math

import numpy as np

__all__ = [
    "DomainError",
    "VerificationFailure",
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


# Over the disc the smallest of |y|, |1-y|, |y/(y-1)| and |y - z0|/|z0| stays below 0.65
# (0.65^112 = 1e-21).  42 x 16 x 2 _SERIES_CHUNK = 172,032 < 262,144, OpenBLAS's bound for
# one thread: a complex product that it split over two threads stalled for 15 ms a call.
_CENTRE, _G_PFAFF_RADIUS = 0.5 + 0.95j, 0.55
_SERIES_BLOCK, _SERIES_BLOCKS, _SERIES_CHUNK = 16, 7, 128


def gauss_2f1(q, gam, z, euler=False):
    """The kernel family's F(alpha, 1; gamma; z), alpha = q + gamma - 1, or with ``euler`` its
    Euler transform G = F(1-q, gamma-1; gamma; z) = (1-z)^q F, for |z| < 1, 0 < gamma <= 1
    and 0 < q <= 9 (every kernel triple up to alpha = 8 and every profile triple up to nu =
    7), else DomainError.  At gamma = 1 (any q > 0) or q = 1, G = 1 and F = (1-z)^(-q),
    numpy's power, on the whole array; otherwise each point sums one series:

        z        G's Maclaurin series;
        1-z      the incomplete-Beta symmetry (DLMF 8.17.4), F = z^(1-gamma) [K (1-z)^(-q)
                 + (1-gamma) S(1-z) / q], K = Gamma(gamma) Gamma(q) / Gamma(alpha),
                 S = F(q, 2-gamma; q+1; .);
        w        Pfaff: G = (1-z)^(1-gamma) F(alpha, gamma-1; gamma; w) up to |w| = 0.55,
                 its terms of one sign next to G's zeros on (-1, 0); F = F(1-q, 1;
                 gamma; w) / (1-z) beyond;
        z - z0   G's Taylor series about z0 (``_centre_taylor``).

    Against 40-digit mpmath at the same parameters F holds 5e-15 relative for -2 < nu < 4,
    5.2e-14 up to alpha = 8.  An array z gives an array of its shape, a scalar a complex;
    a point's value does not depend on its batch."""
    z = np.asarray(z, dtype=complex)
    if not (np.abs(z) < 1.0).all():
        raise DomainError(f"gauss_2f1 requires |z| < 1, got |z| = {np.max(np.abs(z))}")
    if not (0.0 < gam <= 1.0 and 0.0 < q and (q <= 9.0 or gam == 1.0)):
        raise DomainError(f"gauss_2f1 is resolved for 0 < gamma <= 1 and 0 < q <= 9, got q = {q}, gamma = {gam}")
    if gam == 1.0 or q == 1.0:  # G = F(1-q, 0; 1; z) or F(0, gamma-1; gamma; z)
        val = np.ones_like(z) if euler else (1.0 - z) ** -q
        return complex(val) if z.ndim == 0 else val
    parts = [_kernel_family(q, gam, z.ravel()[i : i + _SERIES_CHUNK], euler) for i in range(0, z.size, _SERIES_CHUNK)]
    val = parts[0] if len(parts) == 1 else np.concatenate([z.ravel()[:0]] + parts)
    return complex(val[0]) if z.ndim == 0 else val.reshape(z.shape)


def _polar_power(r, theta, p):
    """(r e^(i theta))^p by a real power and a real angle, for r > 0."""
    return r**p * np.exp(1j * (p * theta))


def _powers(v, count):
    """Rows v^0 .. v^(count-1), by doubling, and v^m for the first power m >= count."""
    out = np.empty((count, v.size), dtype=complex)
    out[0], filled, p = 1.0, 1, v
    while filled < count:
        np.multiply(out[: min(filled, count - filled)], p, out=out[filled : 2 * filled])
        filled, p = 2 * filled, p * p
    return out, p


@functools.lru_cache(maxsize=64)
def _family_constants(q, gam):
    """Coefficients, in rows of _SERIES_BLOCK, of the series of G, S, G (Pfaff), F (Pfaff)
    and G (Taylor, real then imaginary parts); and K, as Gamma(gamma) Gamma(q) alpha /
    Gamma(q + gamma), 0 at alpha = 0 (nu = -4/3).  gamma - 1 + n is (n - 1) + gamma."""
    n = np.arange(_SERIES_BLOCK * _SERIES_BLOCKS - 1.0)
    ratios = (
        ((n + 1.0) - q) * ((n - 1.0) + gam) / ((n + gam) * (n + 1.0)),
        (n + q) * ((n + 1.0) + (1.0 - gam)) / ((n + 1.0 + q) * (n + 1.0)),
        ((n + q) + (gam - 1.0)) * ((n - 1.0) + gam) / ((n + gam) * (n + 1.0)),
        ((n + 1.0) - q) / (n + gam),
    )
    coeffs, taylor = np.cumprod(np.concatenate([np.ones((4, 1)), ratios], axis=1), axis=1), _centre_taylor(q, gam, n.size + 1)
    coeffs = np.concatenate([coeffs, [taylor.real, taylor.imag]]).reshape(-1, _SERIES_BLOCK)
    coeffs.flags.writeable = False
    return coeffs, gamma_ratio_signed([gam, q], [q + gam]) * ((q + gam) - 1.0)


def _centre_taylor(q, gam, count):
    """G's Taylor coefficients about z0 = _CENTRE in powers of (z - z0)/|z0|: G(z0) = 1 +
    (gamma-1) int_0^1 s^(gamma-2) [(1 - z0 s)^(q-1) - 1] ds (from real functions) and G'(z0)
    = (1-q)(gamma-1) int_0^1 s^(gamma-1) (1 - z0 s)^(q-2) ds on ``quadrature._jacobi01``'s
    20 nodes, then z0 (1-z0) (m+2)(m+1) c_{m+2} = (m+1-q)(m-1+gamma) c_m - (m+1) [(1-2 z0) m
    + gamma - (gamma+1-q) z0] c_{m+1}, forward: both solutions' coefficients shrink alike."""
    from .quadrature import _jacobi01  # quadrature imports this module

    nodes, weights = _jacobi01(20, 1.0, gam)
    z0, scale, t = _CENTRE, abs(_CENTRE), _CENTRE * nodes
    a = (0.5 * (q - 1.0)) * np.log1p(t.real * (t.real - 2.0) + t.imag * t.imag)
    b = (0.5 * (q - 1.0)) * np.arctan2(-t.imag, 1.0 - t.real)
    e, sb = np.expm1(a), np.sin(b)
    h = (e - 2.0 * (1.0 + e) * sb * sb + 2j * (1.0 + e) * sb * np.cos(b)) / nodes
    c = [1.0 + (gam - 1.0) * np.dot(weights, h), (1.0 - q) * (gam - 1.0) * np.dot(weights, (1.0 - t) ** (q - 2.0)) * scale]
    for m in range(count - 2):
        lead = (m + 1.0) * ((1.0 - 2.0 * z0) * m + gam - ((gam + 1.0) - q) * z0)
        c.append((((m + 1.0) - q) * ((m - 1.0) + gam) * scale * c[-2] - lead * c[-1]) * scale / (z0 * (1.0 - z0) * (m + 2.0) * (m + 1.0)))
    return np.array(c)


def _kernel_family(q, gam, y, euler):
    """F(q + gamma - 1, 1; gamma; y), or with ``euler`` G = (1-y)^q F, on a 1-D array,
    gamma < 1, summed in the upper half plane: F(conj y) = conj F(y)."""
    coeffs, k = _family_constants(q, gam)
    mirror, y = y.imag < 0.0, y.real + 1j * np.abs(y.imag)
    one_minus = 1.0 - y
    w, at = y / -one_minus, np.arange(y.size)
    variables = np.stack([y, one_minus, w, w, (y - _CENTRE) / abs(_CENTRE)])
    moduli = np.abs(variables)
    moduli[2] += moduli[2] > _G_PFAFF_RADIUS  # Pfaff's series of G up to |w| = 0.55, of F beyond
    region = moduli.argmin(axis=0)  # 0 Maclaurin, 1 Beta, 2 and 3 Pfaff, 4 Taylor
    inner, top = _powers(variables[region, at], _SERIES_BLOCK)
    outer, _ = _powers(top, _SERIES_BLOCKS)
    # at the full chunk width every column is summed alike: a narrower product is not
    table = np.zeros((_SERIES_BLOCK, _SERIES_CHUNK), dtype=complex)
    table[:, : y.size] = inner
    sums = (coeffs @ table.view(float)).view(complex)[:, : y.size].reshape(6, _SERIES_BLOCKS, -1)
    sums[4] += 1j * sums[5]
    series = np.einsum("pb,bp->p", sums[region, :, at], outer)
    # out = m series + a: G's series times (1-y)^(-q) for F, F's over it for G
    beta, angles = region == 1, np.angle(variables[:2])
    x = _polar_power(np.where(beta, moduli[0], moduli[1]), np.where(beta, angles[0], angles[1]), 1.0 - gam)
    power = _polar_power(moduli[1], angles[1], -q)
    if euler:
        ones = np.ones_like(y)
        m, a = np.stack([ones, (1.0 - gam) / q * x / power, x, 1.0 / (power * one_minus), ones]), k * x
    else:
        m, a = np.stack([power, (1.0 - gam) / q * x, x * power, 1.0 / one_minus, power]), k * x * power
    out = m[region, at] * series + np.where(beta, a, 0.0)
    return np.conjugate(out, out=out, where=mirror)
