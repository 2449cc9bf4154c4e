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


# Over the disc the smallest of |y|, |1-y|, |y/(y-1)| and |y - z0|/|z0| (or |y - conj z0|/|z0|)
# stays below 0.65 (0.65^112 = 1e-21).  42 x 16 x 2 _SERIES_CHUNK = 172,032 < 262,144,
# OpenBLAS's bound for one thread: a complex product that it split over two threads stalled
# for 15 ms a call.
_CENTRE, _F_PFAFF_FROM = 0.5 + 0.95j, np.nextafter(0.55, 1.0)
_SERIES_BLOCK, _SERIES_BLOCKS, _SERIES_CHUNK, _SERIES_ROW = 16, 7, 128, 8
# y minus these is each region's variable before its last step: y, y-1, y (twice; w = y/(y-1)
# goes there), y - z0 and y - conj z0 (over |z0|)
_POLES = np.array([[0.0], [1.0], [0.0], [0.0], [_CENTRE], [_CENTRE.conjugate()]])
# the flat index, in the product of a chunk, of block b of region 0's sums at point p
_BLOCK_AT = np.arange(_SERIES_BLOCKS)[:, None] * _SERIES_CHUNK + np.arange(_SERIES_CHUNK)
# a chunk's powers are rows v^0 .. v^15, then t^0 .. t^6, t = v^16, filled from v by doubling:
# rows out .. out+hi-lo-1 are rows lo .. hi-1 times row r, (lo, hi, r, out) for v^2, v^3 v^4,
# v^5 .. v^8, v^9 .. v^15, then t = v^8 v^8, t^2, t^3 t^4, t^5 t^6
_POWER_PRODUCTS = ((1, 2, 1, 2), (1, 3, 2, 3), (1, 5, 4, 5), (1, 8, 8, 9), (8, 9, 8, 17), (17, 18, 17, 18), (17, 19, 18, 19), (17, 19, 20, 21))


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
        z - z0   G's Taylor series about z0 (``_centre_taylor``), below the real axis about
                 conj z0 with the conjugate coefficients.

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
    # zero-padded to whole rows of _SERIES_ROW: no numpy loop runs over one column, where it
    # would run strided and round some complex products otherwise, so a value is its batch's
    flat = np.zeros(-(-z.size // _SERIES_ROW) * _SERIES_ROW, dtype=complex)
    flat[: z.size] = z.ravel()
    parts = [_kernel_family(q, gam, flat[i : i + _SERIES_CHUNK], euler) for i in range(0, flat.size, _SERIES_CHUNK)]
    val = np.concatenate([flat[:0]] + parts)[: z.size]
    return complex(val[0]) if z.ndim == 0 else val.reshape(z.shape)


@functools.lru_cache(maxsize=64)
def _family_constants(q, gam):
    """Coefficients, in rows of _SERIES_BLOCK, of the series of G, S, F (Pfaff), G (Pfaff) and
    G (Taylor, real then imaginary parts), K = Gamma(gamma) Gamma(q) alpha / Gamma(q + gamma)
    (0 at alpha = 0, nu = -4/3) among them; and, for F and for G, each region's (s, a, b) of
    the factor s y^a (1-y)^b of its series and of the term it adds, in the order the regions
    of ``_kernel_family`` take them.  gamma - 1 + n is (n - 1) + gamma."""
    n = np.arange(_SERIES_BLOCK * _SERIES_BLOCKS - 1.0)
    ratios = (
        ((n + 1.0) - q) * ((n - 1.0) + gam) / ((n + gam) * (n + 1.0)),
        (n + q) * ((n + 1.0) + (1.0 - gam)) / ((n + 1.0 + q) * (n + 1.0)),
        ((n + 1.0) - q) / (n + gam),
        ((n + q) + (gam - 1.0)) * ((n - 1.0) + gam) / ((n + gam) * (n + 1.0)),
    )
    coeffs, taylor = np.cumprod(np.concatenate([np.ones((4, 1)), ratios], axis=1), axis=1), _centre_taylor(q, gam, n.size + 1)
    coeffs = np.concatenate([coeffs, [taylor.real, taylor.imag]]).reshape(-1, _SERIES_BLOCK)
    k, s, e, none = gamma_ratio_signed([gam, q], [q + gam]) * ((q + gam) - 1.0), (1.0 - gam) / q, 1.0 - gam, (0.0, 0.0, 0.0)
    # F = (1-y)^(-q) G about 0 and z0; y^(1-gam) [s S + K (1-y)^(-q)]; F(w) / (1-y); (1-y)^(1-gam-q) G(w)
    f = [((1.0, 0.0, -q), none), ((s, e, 0.0), (k, e, -q)), ((1.0, 0.0, -1.0), none), ((1.0, 0.0, e - q), none)]
    # G about 0 and z0; y^(1-gam) [s (1-y)^q S + K]; (1-y)^(q-1) F(w); (1-y)^(1-gam) G(w)
    g = [((1.0, 0.0, 0.0), none), ((s, e, q), (k, e, 0.0)), ((1.0, 0.0, q - 1.0), none), ((1.0, 0.0, e), none)]
    # indexed [euler][s, a, b][series, added term][region]
    factors = np.array([f + f[:1] * 2, g + g[:1] * 2]).transpose(0, 3, 2, 1).copy()
    for table in (coeffs, factors):
        table.flags.writeable = False
    return coeffs, factors


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
    """F(q + gamma - 1, 1; gamma; y), or with ``euler`` G = (1-y)^q F, on a chunk of whole rows,
    at most _SERIES_CHUNK points, gamma < 1.  Each point sums one series, of the region whose variable
    has the smallest modulus (``gauss_2f1``); its value is s y^a (1-y)^b times that series plus
    s' y^a' (1-y)^b', with its region's factors (``_family_constants``), each power in polar
    form.  Only the variable of each point's own region enters the powers."""
    coeffs, factors = _family_constants(q, gam)
    v = y - _POLES
    np.divide(v[0], v[1], out=v[2:4])
    np.negative(v[1], out=v[1])
    v[4:] /= abs(_CENTRE)
    moduli = np.abs(v)
    # F's Pfaff series beyond |w| = 0.55, G's up to it: row 2 ties row 3 only beyond, and a tie
    # goes to the first row
    np.maximum(moduli[2], _F_PFAFF_FROM, out=moduli[2])
    region = moduli.argmin(axis=0)  # 0 Maclaurin, 1 Beta, 2 and 3 Pfaff, 4 and 5 Taylor
    # the product runs at the full chunk width, where every column is summed alike
    powers = np.zeros((_SERIES_BLOCK + _SERIES_BLOCKS, _SERIES_CHUNK), dtype=complex)
    powers[::_SERIES_BLOCK] = 1.0  # v^0 and t^0
    table = powers[:, : y.size]
    table[1] = v[region, _BLOCK_AT[0, : y.size]]
    for lo, hi, r, out in _POWER_PRODUCTS:
        np.multiply(table[lo:hi], table[r], out=table[out : out + hi - lo])
    sums = (coeffs @ powers[:_SERIES_BLOCK].view(float)).view(complex).reshape(6, _SERIES_BLOCKS, _SERIES_CHUNK)
    imag = 1j * sums[5]  # rows 4 and 5 become the Taylor sums about z0 and conj z0
    np.subtract(sums[4], imag, out=sums[5])
    sums[4] += imag
    series = (sums.reshape(-1).take(region * sums[0].size + _BLOCK_AT[:, : y.size]) * table[_SERIES_BLOCK:]).sum(axis=0)
    per_point = factors[int(euler)].take(region, axis=-1)
    scale, exponents = per_point[0], per_point[1:]
    size = moduli[:2, None] ** exponents
    m = scale * size[0] * size[1] * np.exp(1j * (exponents * np.arctan2(v[:2].imag, v[:2].real)[:, None]).sum(axis=0))
    return m[0] * series + m[1]
