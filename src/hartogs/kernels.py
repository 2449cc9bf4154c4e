"""Reproducing kernels of the whole family, closed forms and a series oracle.

Every space in the family is a reproducing kernel Hilbert space on the
triangle, and ``kernel(nu, z, w)`` is the one entry for all of them; the
regime is read from ``SpaceParam``.  All kernels share the shape

    K(z, w) = (prefactor) * y^(-1-ceil(nu/2)) * (1 - x)^(-(nu+2)) * F(y),

where x = z1 conj(w1) / (z2 conj(w2)), y = z2 conj(w2) and F is a Gauss
hypergeometric factor.  For every -2 < nu != -1 one hypergeometric body
evaluates it:

    nu > -1        weighted Bergman kernels (at nu = 2n, F collapses to
                   (1-y)^(-2n-2)),
    -2 < nu < -1   weighted Dirichlet kernels (signed coefficients), the
                   same form at ceil(nu/2) = 0.

The two remaining regimes have their own closed forms:

    nu = -1        the Hardy kernel 1 / ((y - x y)(1 - y)),
    nu = -2        the Dirichlet kernel, a product of logarithms.

The closed forms take a single pair of points or a batch, a HartogsPoint
whose coordinates are complex arrays, so ``kernel(nu, z, w)`` is one call
per nu however many pairs it evaluates.  The coordinates of z and w
broadcast together, and each regime is one body of numpy ufuncs over the
flattened arrays of x and y.  A single pair runs through that body as a
batch of one and returns a complex; a batch returns an array of the
broadcast shape.  The hypergeometric body is resolved to 1e-12 relative
for nu <= 100, except within 0.1 of an even integer above 8, and raises
DomainError outside that range.  Near the real zeros of F on the negative
y axis the error is instead at most 1e-14 |a_nu| |y|^(-1-ceil(nu/2))
|1-x|^(-(nu+2)).

Alongside the closed forms the module carries the brute-force basis-series
oracle ``kernel_series`` (per pair or batch; it enters neither the
prefactor a_nu nor the 2F1 of the closed-form bodies),
the Laurent coefficients of each kernel read off its closed form (the
reciprocals of the monomial weights ``SpaceParam.weight``, reached by
another route), and the boundary-estimate checker with its profile in y
(one 2F1 call) and its majorant constant, summed exactly by Gauss's
theorem.
"""

import math

import numpy as np

from .coeffspace import SpaceParam, _space
from .quadrature import _MAX_BLOCK
from .specfun import DomainError, gamma_ratio_signed, gauss_2f1

__all__ = [
    "kernel_nu",
    "kernel",
    "kernel_coeff_closed",
    "kernel_series",
    "kernel_bound_ratio",
    "bound_constant",
    "bound_ratio_profile",
]


# Largest nu at which the hypergeometric body was checked against mpmath
# to 1e-12 relative; above it the kernel raises DomainError.
_MAX_NU = 100.0


def _batch_xy(z, w):
    """x and y as flat complex arrays, and the batch shape, that of the
    coordinates of z and w broadcast together (() for a single pair).  Any
    batch, a single pair included, runs flattened through the same array
    loops, so it gets the values of the flattened batch bit for bit."""
    coords = [np.asarray(v, dtype=complex) for v in (z.z1, z.z2, w.z1, w.z2)]
    shape = np.broadcast(*coords).shape
    # np.broadcast_to costs about 1 us a call, which the common case of equal shapes skips
    z1, z2, w1, w2 = (v.ravel() if v.shape == shape else np.broadcast_to(v, shape).ravel() for v in coords)
    y = z2 * np.conj(w2)
    return z1 * np.conj(w1) / y, y, shape


def _result(val, shape):
    """A complex for a single pair, the array of the batch's shape for a batch."""
    return complex(val[0]) if shape == () else val.reshape(shape)


def prefactor_a(nu):
    """The constant a_nu of the hypergeometric closed form:

    a_nu = Gamma(nu/2+2) Gamma(3nu/2 - ceil(nu/2) + 2)
           / (Gamma(3nu/2+3) Gamma(nu/2 - ceil(nu/2) + 1)).

    Positive for nu > -1; below that the ratio is evaluated with sign
    tracking, and its modulus scales the boundary-estimate majorant.
    ``nu`` is a float or its SpaceParam; DomainError at nu = -4/3, a pole.
    """
    sp = _space(nu).nondegenerate()
    nu, c = sp.nu, sp.ceil
    return gamma_ratio_signed(
        [0.5 * nu + 2.0, 1.5 * nu - c + 2.0],
        [1.5 * nu + 3.0, sp.b1],
    )


# Largest alpha of one gauss_2f1 call (resolved for q <= 9).  Against 30-digit mpmath at
# nu in steps of 0.05 over (2/3, 20/3] and at 2n +- 1e-4 (|y| from 1e-4 to 1 - 1e-6, 13
# angles in [0, pi]) it held 4.8e-14 relative where |F| >= 1e-2, 7e-17 absolute below.
_MAX_DIRECT_ALPHA = 8.0


def _kernel_2f1(alpha, gam, y):
    """F(alpha, 1; gam; y) over an array of y, gam in (0, 1].

    At gam = 1 (even nu) and up to alpha = 8 (every weighted Dirichlet nu and every
    Bergman nu <= 20/3) one ``gauss_2f1`` call.  Above, gauss_2f1 is called at the two
    seeds a - 1 and a, with a in (1, 2] and alpha - a an integer, and a is stepped up to
    alpha by the contiguous relation (DLMF 15.5.11)

        (gam - a) F(a-1) + (2a - gam + (1-a) y) F(a) + a (y-1) F(a+1) = 0.

    F is a part like (1-y)^(-a) with weight Gamma(gam) plus an algebraic part
    with weight 1 - gam (Gil, Segura & Temme, Math. Comp. 76, 2007).  Where
    |1-y| > 1 the first part is the minimal solution, so the recursion amplifies
    rounding by up to about 1/min(gam, 1-gam): F held 3e-13 relative for nu <=
    100 where min(gam, 1-gam) >= 0.05 or at most 8 steps are taken, and more
    steps at min(gam, 1-gam) < 0.05 (within 0.1 of an even nu) raise DomainError.
    gauss_2f1's q is (alpha + 1) - gam: alpha + 1 is exact next to alpha = -1.
    """
    if gam == 1.0 or alpha <= _MAX_DIRECT_ALPHA:
        return gauss_2f1((alpha + 1.0) - gam, gam, y)
    steps = math.ceil(alpha) - 2
    if steps > 8 and min(gam, 1.0 - gam) < 0.05:
        raise DomainError(
            f"the kernel's 2F1 recursion (alpha = {alpha:g}, gamma = {gam:g}) is not resolved "
            "to 1e-12 within 0.1 of an even nu above 8"
        )
    a = alpha - steps
    f_prev, f = (gauss_2f1((b + 1.0) - gam, gam, y) for b in (a - 1.0, a))
    for _ in range(steps):
        f_prev, f = f, ((gam - a) * f_prev + (2.0 * a - gam + (1.0 - a) * y) * f) / (a * (1.0 - y))
        a += 1.0
    return f


def _hypergeometric_kernel(sp, z, w):
    """a_nu y^(-1-c) (1-x)^(-(nu+2)) F(3nu/2-c+2, 1; nu/2-c+1; y), c = ceil(nu/2).

    Raises DomainError when a value leaves the double range (large nu with
    |y| or |1-x| small), rather than returning inf or nan.
    """
    nu, c = sp.nu, sp.ceil
    if nu > _MAX_NU:
        raise DomainError(f"the kernel is resolved to 1e-12 only for nu <= {_MAX_NU:g}, got {nu}")
    a = prefactor_a(sp)  # first: it refuses nu = -4/3, where the 2F1's K has a pole
    x, y, shape = _batch_xy(z, w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # reported just below
        hyp = _kernel_2f1(1.5 * nu - c + 2.0, sp.b1, y)
        # (1-x)^p: numpy's power at an integer p (products), else |t|^p e^(i p arg t), twice as fast as
        # numpy's complex power: 1.4e-15 from 40-digit mpmath on kernel-stream's 1 - x (numpy's 9.7e-16)
        t, p = 1.0 - x, -(nu + 2.0)
        power = t**p if p.is_integer() else np.abs(t) ** p * np.exp(1j * (p * np.arctan2(t.imag, t.real)))
        val = a * y ** (-1 - c) * power * hyp
    finite = np.isfinite(val)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"the nu = {nu} kernel leaves the double range at entry {i}")
    return _result(val, shape)


def kernel_nu(nu, z, w):
    """Weighted Bergman kernel for nu > -1 in hypergeometric closed form.

    For nu = 2n the hypergeometric factor reduces to (1 - y)^(-2n-2).
    ``nu`` is a float or its SpaceParam.
    """
    return _hypergeometric_kernel(_space(nu).require("bergman", "kernel_nu"), z, w)


def _log1over(t):
    """log(1/(1-t)) / t with the removable singularity filled by series.

    Below |t| = 1e-3 a 12-term Taylor polynomial is used; the truncation
    error there is under 1e-36, far below cancellation noise.  Elementwise
    over an array: the mask picks the branch.
    """
    t = np.array(t, dtype=complex, ndmin=1)
    small = np.abs(t) < 1e-3
    far = np.where(small, 0.5, t)  # keeps log(1-t)/t away from 0/0 on the series entries
    out = -np.log(1.0 - far) / far
    if small.any():
        ts = t[small]
        acc = 1.0 / 13.0
        for n in range(11, -1, -1):
            acc = acc * ts + 1.0 / (n + 1.0)
        out[small] = acc
    return out


def kernel(nu, z, w):
    """The kernel of the nu space for every nu in [-2, inf), the regime read
    from its SpaceParam.

    nu > -1 goes to ``kernel_nu``; -2 < nu < -1 takes the same body at
    ceil(nu/2) = 0, whose constant a_nu = (nu/2+1)/(3nu/2+2) changes sign at
    nu = -4/3, where the pairing degenerates and DomainError is raised
    (within SNAP_TOL).  The Hardy kernel is 1/(y (1-x)(1-y)); the Dirichlet
    kernel, sum x^j y^k / ((j+1)(j+k+1)) over {j >= 0, k >= -j}, is
    L(x) L(y) with L(t) = log(1/(1-t))/t, which fills in the z1 conj(w1) = 0
    slice.  z and w are single points or batches, a batch evaluated in one
    array pass; ``nu`` is a float or its SpaceParam.
    """
    sp = _space(nu)
    kind = sp.kind
    if kind == "bergman":
        return kernel_nu(sp, z, w)
    if kind == "weighted-dirichlet":
        return _hypergeometric_kernel(sp, z, w)
    x, y, shape = _batch_xy(z, w)
    if kind == "hardy":
        return _result(1.0 / (y * (1.0 - x) * (1.0 - y)), shape)
    return _result(_log1over(x) * _log1over(y), shape)


def kernel_coeff_closed(nu, j, k):
    """Laurent coefficient of the kernel read off the closed form.

    Expands (1 - x)^(-(nu+2)) binomially and the hypergeometric factor
    through its Pochhammer recurrence, a coding of the factors separate from
    the tables of 1 / ``SpaceParam.weight`` (it enters neither); the two agree
    to rounding and the reproducing identity tests pair them
    deliberately.  ``nu`` is a float or its SpaceParam.
    """
    sp = _space(nu)
    nu, kind = sp.nu, sp.kind
    if not sp.member(j, k):
        return 0.0
    if kind == "dirichlet":
        return 1.0 / ((j + 1.0) * (j + k + 1.0))
    if kind == "hardy":
        # y^(-1) (1-x)^(-1) (1-y)^(-1): every surviving coefficient is 1
        return 1.0
    a, c = prefactor_a(sp), sp.ceil  # first: a nu it refuses would run ceil(nu/2) products before it
    alpha, gam = 1.5 * nu - c + 2.0, sp.b1
    n = j + k + 1 + c
    binom = math.prod((nu + 2.0 + i) / (i + 1.0) for i in range(j))
    ratio = math.prod((alpha + i) / (gam + i) for i in range(n))
    return a * binom * ratio


def _series_extent(q, growth):
    """Per entry of q, as an int array: the first N from max(8, log(1e-12 (1-q)^2) / log q)
    on, in steps of max(8, N // 8), with q^N (N+1)^growth / (1-q)^2 below 1e-12."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    n = np.maximum(8, (np.log(1e-12 * (1.0 - q) ** 2) / np.log(q)).astype(int))
    while (short := (q**n * (n + 1.0) ** growth / (1.0 - q) ** 2 > 1e-12) & (n < 5000)).any():
        n = n + short * np.maximum(8, n // 8)
    if (n >= 5000).any():
        raise DomainError(f"series truncation too deep for q = {q[np.argmax(n >= 5000)]}")
    return n


def _power_sum(t, first, depth, coeffs):
    """sum_(i < depth) coeffs_i first t^i per entry of t in np.clongdouble: a running
    product along a row of factors first, t, t, ..., ended by a 0 at the depth."""
    table = np.repeat(t.astype(np.clongdouble)[:, None], coeffs.size, axis=1)
    table[:, 0] = first
    cut = (depth < coeffs.size).nonzero()[0]
    table[cut, depth[cut]] = 0.0
    return np.cumprod(table, axis=1, out=table) @ coeffs


def kernel_series(nu, z, w):
    """Brute-force kernel value: truncated sum of basis terms over I_nu.

    Independent oracle for the closed forms, sharing no arithmetic with them,
    for a single pair (a complex) or batches (an array of their broadcast
    shape).  Each pair keeps its own truncation, the geometric tail bound in
    q = max(|x|, |y|) < 1 with a polynomial-growth allowance, cut below 1e-12.
    The table is rank one in (j, m = j + k), front * a_j * b_m: a product of
    two power series, whose terms cancel by up to nine digits near the
    boundary, so both are summed in np.longdouble (80-bit on x86-64 Linux;
    as plain double, about 1e-12 instead of 1e-15 at nu = 3.5) over power
    tables of at most about _MAX_BLOCK entries."""
    sp = SpaceParam(nu).nondegenerate()
    nu = sp.nu
    x, y, shape = _batch_xy(z, w)
    q = np.maximum(np.abs(x), np.abs(y))
    if (outside := ~(q < 1.0)).any():
        raise DomainError(f"kernel series needs |x|, |y| < 1, entry {np.argmax(outside)} has {q[outside][0]:g}")
    extent = _series_extent(q, 2.0 * max(nu + 1.0, 0.0) + 1.0)
    n = int(extent.max(initial=8))  # 8 for an empty batch
    m_min = -1 - sp.ceil
    jj = np.arange(0, n, dtype=np.longdouble)
    mm = np.arange(m_min, m_min + 2 * n, dtype=np.longdouble)
    if nu == -2.0:
        front, a_j, b_m = 1.0, 1.0 / (jj + 1.0), 1.0 / (mm + 1.0)
    else:
        # Gamma(j+nu+2)/Gamma(j+1) and Gamma(m+3nu/2+3)/Gamma(m+nu/2+2),
        # each scaled to 1 at its first index (b_m may change sign once)
        a_j = np.cumprod(np.concatenate(([1.0], (jj[:-1] + nu + 2.0) / (jj[:-1] + 1.0))))
        b_m = np.cumprod(np.concatenate(([1.0], (mm[:-1] + 1.5 * nu + 3.0) / (mm[:-1] + 0.5 * nu + 2.0))))
        front = gamma_ratio_signed(
            [0.5 * nu + 2.0, m_min + 1.5 * nu + 3.0], [1.5 * nu + 3.0, m_min + 0.5 * nu + 2.0]
        )
    val = np.empty(x.size, dtype=complex)
    step = _MAX_BLOCK // (2 * n)  # rows per block of tables, each as wide as its deepest pair needs
    for rows in (slice(s, s + step) for s in range(0, x.size, step)):
        width = int(extent[rows].max())
        sum_x = _power_sum(x[rows], 1.0, extent[rows], a_j[:width])
        sum_y = _power_sum(y[rows], y[rows].astype(np.clongdouble) ** m_min, 2 * extent[rows], b_m[: 2 * width])
        val[rows] = front * sum_x * sum_y
    return _result(val, shape)


def kernel_bound_ratio(nu, z, w):
    """|K_nu| stripped of the boundary-estimate shape:

        |K| * |y|^(1+ceil(nu/2)) * |1-x|^(nu+2) * |1-y|^(nu+2).

    Bounded by the derived constant of :func:`bound_constant` for every
    nu in (-2, inf); identically 1/2 at nu = 0 and 1 at nu = -1.  The
    nu = -2 kernel is logarithmic and has no bound of this shape, so it
    is excluded.  A float for one pair, an array of the batch's shape.
    """
    sp = SpaceParam(nu)
    if sp.kind == "dirichlet":
        raise DomainError(f"the kernel estimate concerns nu > -2, got {nu}")
    nu, c = sp.nu, sp.ceil
    x, y, shape = _batch_xy(z, w)
    val = np.abs(kernel(sp, z, w)).ravel()
    ratio = val * np.abs(y) ** (1 + c) * np.abs(1.0 - x) ** (nu + 2.0) * np.abs(1.0 - y) ** (nu + 2.0)
    return float(ratio[0]) if shape == () else ratio.reshape(shape)


def bound_constant(nu):
    """The majorant C*(nu) = |a_nu| sum_n |c_n|, exact, not padded: c_n are
    the Taylor coefficients of F(-nu-1, b; b+1; y), b = nu/2 - ceil(nu/2),
    the Euler transform of the kernel's 2F1.  c_(n+1)/c_n =
    (n-nu-1)(b+n)/((b+1+n)(n+1)) >= 0 once n >= max(1, nu+1) = N, so the
    tail from N is |F(1) - sum_(n<N) c_n|, F(1) = Gamma(b+1) Gamma(nu+2) /
    Gamma(b+nu+2) by Gauss's theorem (DLMF 15.4.20; nu > -2)."""
    sp = SpaceParam(nu)
    if sp.kind == "dirichlet":
        raise DomainError(f"bound_constant requires nu > -2, got {nu}")
    nu, b1 = sp.nu, sp.b1
    a = abs(prefactor_a(sp))  # first: a nu it refuses would run ceil(nu + 1) steps before it
    c, head, signed = 1.0, 0.0, 0.0
    for n in range(max(1, math.ceil(nu + 1.0))):
        head, signed = head + abs(c), signed + c
        c *= (n - nu - 1.0) * (b1 - 1.0 + n) / ((b1 + n) * (n + 1.0))
    gauss = gamma_ratio_signed([b1, nu + 2.0], [b1 + nu + 1.0])
    return a * (head + abs(gauss - signed))


def bound_ratio_profile(nu, y):
    """Vectorized kernel_bound_ratio as a function of y = z2 conj(w2) alone.

    The (1 - x) factors of the kernel cancel exactly against the estimate
    shape, so the ratio is |a_nu| |F(-nu-1, b; b+1; y)|, b = nu/2 - ceil(nu/2),
    the Euler transform (DLMF 15.8.1) of the kernel's 2F1: one gauss_2f1 call,
    q = nu + 2, over an array of y, returning y's shape.

    Resolved to 1e-12 relative for |y| < 1 and -2 < nu <= 7 (exact at even nu,
    where F = 1), except near the real zeros of F on (-1, 0) (at nu = 0.57, 1.5
    and 3.86, for instance), where |F| falls below 1e-2 and the error is
    1e-14 |a_nu| instead.  Raises DomainError at nu = -2 (no estimate of this
    shape), at nu = -4/3 (a pole of a_nu) and above nu = 7 but at even nu
    (gauss_2f1's q <= 9).
    """
    sp = SpaceParam(nu)
    if sp.kind == "dirichlet":
        raise DomainError(f"bound_ratio_profile requires nu > -2, got {nu}")
    return abs(prefactor_a(sp)) * np.abs(gauss_2f1(sp.nu + 2.0, sp.b1, y, euler=True))
