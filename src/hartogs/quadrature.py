"""Independent numerical oracle: integration over the triangle.

Every integral over H is computed in pullback coordinates on D x D*,
where the triangle constraint disappears and the measure mu_nu becomes

    C_nu 2^(nu/2) |w2|^(nu+2) (1 - |w1|^2)^nu (1 - |w2|^2)^nu dw.

Radial directions use Gauss-Jacobi rules in the squared radii u = r^2,
v = rho^2, which absorb the (1-u)^nu endpoint singularity exactly; the
w2 rule additionally carries the fractional power v^(nu/2 - ceil(nu/2))
so that every monomial of the family's index set pulls back to a plain
polynomial.  One rule type, :class:`QuadRule`, serves mu_nu, the bidisc
weight and tau: each radial axis holds plain radii and the final weights
of its measure, the leftover power v^(1 + ceil(nu/2)) or the tau density
folded in.  Angular directions use uniform trapezoid grids, exact for
trigonometric polynomials below the grid frequency.  ``_jacobi01`` solves
each Gauss rule once per process (Legendre is its flat case), keeps the
last ``_RULES_KEPT``, builds none at import and hands out read-only arrays.

Integrands are summed one of two ways, chosen by their type.  A
coefficient object (``LaurentCoeffs`` / ``MixedPoly``) goes to
``_separable_sum``: on the pullback grid each monomial is a radial power
times a pure angular frequency, the trapezoid sums are aliasing
indicators, and the 4D sum is a product of two 1D radial moments per
term -- the same nodes, weights and aliasing as the point-by-point sum,
with no closed form in the loop.  ``inner_product_quad`` first pairs two
coefficient objects into one MixedPoly f conj(g).  Every other integrand
is a numpy-vectorized callable (z1_array, z2_array) -> values, summed
by ``_tensor_sum`` over the grid of the product coordinates (w1, w2).
The callable receives two arrays that broadcast to the grid, not two
full-grid arrays.  ``integrate_mu`` re-indexes the angles: the two axes
share one angular grid, so z1 = w1 w2 varies along (r1, r2, c) with
c = theta + gamma on that grid, and z2 along (r2, gamma); what the
callable does to z1 alone runs on m times fewer points.
``integrate_tau`` and ``mc_integrate_mu`` instead form the triangle's
points at every grid point or sample, by ``_on_triangle``, and
``integrate_tau`` composes an automorphism of H in product coordinates.
All evaluate the callable in chunks of about ``_MAX_BLOCK`` points, so
temporaries stay near cache size; a ``_tensor_sum`` chunk is whole rule
rows, so it can be larger.  A Monte Carlo importance sampler doubles as
a second, structurally different oracle.

Threading: ``_each`` runs the chunks of a black-box integral on every CPU
the process may use, concurrently and in any order, the calling thread
among them.  Each chunk writes only its own slot of the result and the
last reductions run after the last chunk, in chunk order, so the value
is bit for bit that of a serial loop.  Those reductions are numpy's, not
BLAS's, so no OpenBLAS worker thread is left spinning on a CPU that the
chunks of the next integral need.  A Monte Carlo chunk also draws its own
samples, from its own generator spawned from the seed, and reduces them
to their count, mean and sum of squared deviations, so the draws and the
sums run on every CPU too and the estimate does not depend on the number
of threads.  A callable integrand must be thread-safe; a pure numpy
function is.  A callable that calls threaded BLAS runs it from several
threads at once.  A callable may itself integrate, and numpy's
``errstate`` around the outer call applies in every chunk.
"""

import contextvars
import functools
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .coeffspace import LaurentCoeffs, MixedPoly, SpaceParam, _space, as_mixed, conj_product, evaluate_grid
from .geometry import normalization_C
from .specfun import DomainError, gamma_ratio_signed

__all__ = [
    "QuadRule",
    "build_rule",
    "build_tau_rule",
    "integrate_mu",
    "integrate_tau",
    "integrate_bidisc",
    "mc_integrate_mu",
    "inner_product_quad",
    "as_grid_fn",
]

_MAX_BLOCK = 65_536  # integrand evaluations per chunk
_RULES_KEPT = 64  # Gauss rules memoized per process; one verify pass builds 25
_COEFF_TYPES = (LaurentCoeffs, MixedPoly)  # integrands summed by _separable_sum


@dataclass(frozen=True)
class QuadRule:
    """Tensor rule on D x D*: two radial axes, each of plain radii and the
    final weights of the rule's measure (read-only), x an angular trapezoid.

    ``nu`` is the snapped nu of a mu_nu rule, or None for a tau rule, whose
    radial intervals need only cover the integrand's support off |w_i| = 1.
    """

    nu: float | None
    r1_nodes: np.ndarray
    r1_weights: np.ndarray
    r2_nodes: np.ndarray
    r2_weights: np.ndarray
    angular: int


@functools.lru_cache(maxsize=_RULES_KEPT)
def _jacobi01(order, a1, b1):
    """Gauss rule (ascending, read-only) of ``order`` nodes for the weight (1-t)^(a1-1)
    t^(b1-1) on (0, 1), the exponents plus one, so that b1 = beta + 1 (``SpaceParam.b1``)
    comes unrounded.  Golub & Welsch (Math. Comp. 23, 1969): the eigenvalues of the
    Jacobi matrix, its entries formed as (n-1) + b1, never n + beta, and the Christoffel
    numbers 1 / sum_k p_k(t)^2 of one recurrence pass, scaled to sum to B(a1, b1); for
    a1 < b1 the mirror rule, t = 1 - s.  DomainError for exponents <= -1, or a mass or
    weight out of range."""
    if order < 1 or not (a1 > 0.0 and b1 > 0.0):
        raise DomainError(f"a Gauss-Jacobi rule needs order >= 1 and exponents above -1, got {order}, {a1 - 1.0}, {b1 - 1.0}")
    try:  # math.gamma holds a few ulps, the summed log-Gammas 1.4e-15 at B(4.5, 0.75)
        mass = math.gamma(a1) * math.gamma(b1) / math.gamma(a1 + b1)
    except OverflowError:
        mass = math.inf
    if not 0.0 < mass < math.inf:  # the log route, which refuses a mass out of range
        mass = gamma_ratio_signed([a1, b1], [a1 + b1])
    flip, (a1, b1), ab = a1 < b1, sorted((a1, b1), reverse=True), a1 + b1
    n = np.arange(1.0, order)
    m = 2.0 * (n - 1.0) + ab  # 2n + alpha + beta
    diag = np.concatenate([[b1 / ab], 0.5 + (b1 - a1) * (ab - 2.0) / (2.0 * m * (m + 2.0))])
    # n (n+alpha) (n+beta) (n+alpha+beta) / ((2n+alpha+beta)^2 (2n+alpha+beta+1) (2n+alpha+beta-1)),
    # whose factors (n+alpha+beta) / (2n+alpha+beta-1) cancel at n = 1
    last = np.concatenate([[1.0], ((n[1:] - 2.0) + ab) / (m[1:] - 1.0)])
    off = np.sqrt(n * ((n - 1.0) + a1) * ((n - 1.0) + b1) * last / (m * m * (m + 1.0)))
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))  # it reads the lower triangle
    p_prev, p, norm = np.zeros(order), np.ones(order), np.ones(order)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        for k in range(order - 1):
            p_prev, p = p, ((nodes - diag[k]) * p - (off[k - 1] if k else 0.0) * p_prev) / off[k]
            norm += p * p
    weights = 1.0 / norm
    if not (weights > 0.0).all():  # a sum of squares overflowed
        raise DomainError(f"a Gauss-Jacobi weight of order {order} at ({a1 - 1.0}, {b1 - 1.0}) leaves the double range")
    if flip:
        nodes, weights = 1.0 - nodes[::-1], weights[::-1]
    weights = weights * (mass / weights.sum())
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def build_rule(nu, radial_order=64, angular_count=65):
    """Gauss-Jacobi x trapezoid rule for integrals against mu_nu.

    r1 = sqrt(u) with the u weights, r2 = sqrt(v) with the v weights times
    v^(1 + ceil(nu/2)).  The rule carries the snapped nu of
    :class:`SpaceParam`; ``nu`` is a float or its SpaceParam.
    """
    sp = _space(nu).require("bergman", "build_rule")
    nu = sp.nu
    if radial_order < 1 or angular_count < 1:
        raise DomainError("rule orders must be positive")
    u, u_weights = _jacobi01(radial_order, nu + 1.0, 1.0)
    v, v_weights = _jacobi01(radial_order, nu + 1.0, sp.b1)
    r1, r2, r2_weights = np.sqrt(u), np.sqrt(v), v_weights * v ** (1 + sp.ceil)
    r1.flags.writeable = r2.flags.writeable = r2_weights.flags.writeable = False
    return QuadRule(nu, r1, u_weights, r2, r2_weights, angular_count)


def as_grid_fn(obj):
    """Adapt a coefficient object or callable to a vectorized integrand."""
    if isinstance(obj, LaurentCoeffs):
        return lambda z1, z2: evaluate_grid(obj, z1, z2)
    if isinstance(obj, MixedPoly):

        def mixed(z1, z2):
            total = 0.0
            for (a, b, c, d), coef in obj.items():
                total = total + coef * z1**a * np.conj(z1) ** b * z2**c * np.conj(z2) ** d
            return total

        return mixed
    if callable(obj):
        return obj
    raise DomainError(f"cannot integrate object of type {type(obj)!r}")


def _on_triangle(fn):
    """Pull an integrand on H back to D x D* through Phi(w1, w2) = (w1 w2, w2)."""
    return lambda w1, w2: fn(w1 * w2, w2)


@functools.cache
def _helper_threads():
    """The helper pool of ``_each`` and its size: one thread fewer than the
    CPUs this process may run on, so that with the caller every CPU drains
    chunks, and no pool on a single CPU.  Built on the first black-box
    integral, not at import."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API outside Linux
        cpus = os.cpu_count() or 1
    pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="hartogs-quadrature") if cpus > 1 else None
    return pool, cpus - 1


def _each(fn, items):
    """Call fn(item) for every item of a sequence, on the calling thread
    and the helper threads at once, in any order.

    The caller drains the shared iterator too, then cancels the helper
    tasks that never started and joins the rest.  So a callable that
    itself integrates finishes: while the helpers are busy, its inner call
    drains alone.  Each helper runs in a copy of the caller's context,
    which carries numpy's ``errstate``.  Once an item raises, no thread
    starts another, and the first exception raised is re-raised here.

    Each thread holds what fn returned until its next call returns, as
    the variables of a plain loop do; a chunk stores its result in its own
    slot and returns an array to hold: ``_tensor_sum``'s its values, the
    Monte Carlo chunk its Gaussian draws.  A chunk that frees all its memory
    lets glibc trim the heap, and the next chunk page-faults its
    temporaries afresh: in a fresh process, 20,000 faults per
    tau-invariance integral against 850 with the previous values held.
    """
    pool, helpers = _helper_threads()
    todo = iter(items)
    done = object()
    lock = threading.Lock()
    stop = threading.Event()
    errors = []

    def drain():
        held = None
        while not stop.is_set():
            with lock:
                item = next(todo, done)
            if item is done:
                return
            try:
                held = fn(item)  # the previous value is released only now
            except BaseException as exc:  # re-raised by the caller below
                errors.append(exc)
                stop.set()

    futures = [pool.submit(contextvars.copy_context().run, drain) for _ in range(min(helpers, len(items) - 1))]
    try:
        drain()
    finally:
        stop.set()  # an interrupted caller leaves the helpers no new item
        # a cancelled task counts as done only once a helper dequeues it,
        # so wait for the started ones alone
        wait([future for future in futures if not future.cancel()])
    if errors:
        raise errors[0]


def _tensor_sum(fn, radial_nodes_1, radial_w1, radial_nodes_2, radial_w2, angular, on_triangle=False):
    """Deterministic weighted sum of fn(w1, w2) over the 4D tensor grid of
    product coordinates w1 = r1 e^(i theta), w2 = r2 e^(i gamma), or with
    ``on_triangle`` of fn(z1, z2) at their images (w1 w2, w2) under Phi.

    Both angles run over the same m-point grid, so z1 = r1 r2 e^(2 pi i c/m)
    with c = (a + b) mod m at theta_a, gamma_b, and for each b the map
    a -> c is a bijection: the sum over (theta, gamma) is the same sum over
    (c, gamma), at the same points.  On that grid z1 is the (rows, m, n2, 1)
    array (r1 r2) e[c], built without the angle gamma, and z2 = w2 the
    (1, 1, n2, m) array r2 e[b]; what fn computes on z1 alone runs on m times
    fewer points than the full grid.

    fn is evaluated on chunks of whole r1 rows, as many rows as fit in
    _MAX_BLOCK points and at least one, so a row larger than the budget is
    a chunk of its own: on the default 64 x 65 rule that is 270,400
    points.  The chunks run through ``_each``.  Values are broadcast to
    each chunk's grid, so an integrand that ignores a coordinate still
    sums over it.  Plain angular sums fill an (n1, n2) table, and the
    radial weights come last, by numpy products and reductions: the table
    times radial_w2 summed along its rows, times radial_w1, summed.  No
    BLAS call: OpenBLAS splits the complex vector-matrix product of the
    default 64 x 64 table over two threads, whose worker stays busy after
    the call and slows the next black-box integral.
    """
    m = angular
    e = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    n1 = radial_nodes_1.size
    rows = max(1, _MAX_BLOCK // (m * m * radial_nodes_2.size))
    # axes: (i1, theta, i2, gamma), or (i1, c, i2, gamma) on the triangle
    w2 = radial_nodes_2[None, None, :, None] * e[None, None, None, :]
    sums = np.empty((n1, radial_nodes_2.size), dtype=complex)

    def chunk(start):
        r1 = radial_nodes_1[start : start + rows]
        if on_triangle:
            w1 = (r1[:, None] * radial_nodes_2)[:, None, :, None] * e[None, :, None, None]
        else:
            w1 = r1[:, None, None, None] * e[None, :, None, None]
        vals = np.broadcast_to(fn(w1, w2), np.broadcast(w1, w2).shape)
        sums[start : start + rows] = vals.sum(axis=(1, 3))
        return vals

    _each(chunk, range(0, n1, rows))
    return complex(((sums * radial_w2).sum(axis=1) * radial_w1).sum()) * (2.0 * np.pi / m) ** 2


def _separable_sum(poly, radial_nodes_1, radial_w1, radial_nodes_2, radial_w2, angular, on_triangle):
    """The ``_tensor_sum`` of a coefficient object, one monomial at a time.

    In product coordinates the term z1^a conj(z1)^b z2^c conj(z2)^d is
    r1^p1 r2^p2 e^(i f1 theta) e^(i f2 gamma) with (p1, f1) = (a+b, a-b)
    and (p2, f2) = (a+b+c+d, a-b+c-d) through Phi (``on_triangle``) or
    (c+d, c-d) on the bidisc.  Each angular trapezoid sum is 2 pi when
    ``angular`` divides the frequency and 0 otherwise, so a surviving term
    contributes coef * (sum_i w1_i r1_i^p1) (sum_k w2_k r2_k^p2) (2 pi)^2.
    """
    items = as_mixed(poly).items()
    keys = np.array([key for key, _ in items], dtype=int).reshape(-1, 4)
    coefs = np.array([coef for _, coef in items], dtype=complex)
    a, b, c, d = keys.T
    p1, f1 = a + b, a - b
    p2, f2 = (a + b + c + d, a - b + c - d) if on_triangle else (c + d, c - d)
    alive = (f1 % angular == 0) & (f2 % angular == 0)
    moment_1 = radial_w1 @ radial_nodes_1[:, None] ** p1[alive]
    moment_2 = radial_w2 @ radial_nodes_2[:, None] ** p2[alive]
    return complex(np.sum(coefs[alive] * moment_1 * moment_2)) * (2.0 * np.pi) ** 2


def _integrate_pullback(nu, integrand, rule, on_triangle):
    """c_nu/4 times the rule's sum of the integrand over D x D*, pulled
    through Phi when ``on_triangle``.  The bidisc weight lacks the |w2|^2
    of Phi's Jacobian, so its w2 weights are the rule's over r2^2."""
    sp = SpaceParam(nu)
    nu = sp.nu
    if rule is None:
        rule = build_rule(sp)
    if rule.nu != nu:
        raise DomainError(f"rule was built for nu = {rule.nu}, asked for {nu}")
    r2_weights = rule.r2_weights if on_triangle else rule.r2_weights / rule.r2_nodes**2
    radial = (rule.r1_nodes, rule.r1_weights, rule.r2_nodes, r2_weights)
    if isinstance(integrand, _COEFF_TYPES):
        total = _separable_sum(integrand, *radial, rule.angular, on_triangle)
    else:
        total = _tensor_sum(as_grid_fn(integrand), *radial, rule.angular, on_triangle)
    return normalization_C(sp) * 2.0 ** (0.5 * nu) / 4.0 * total


def integrate_mu(nu, integrand, rule=None):
    """Integral of a coefficient object or black-box function against the
    probability measure mu_nu.

    A callable gets the points (z1, z2) of the triangle as two arrays
    that broadcast to the pullback grid, z1 varying along (r1, r2, c) and
    z2 along (r2, gamma) (see ``_tensor_sum``), so it needs no knowledge of
    the parametrization; a coefficient object is summed separably.
    """
    return _integrate_pullback(nu, integrand, rule, True)


def integrate_bidisc(nu, integrand, rule=None):
    """Weighted integral over D x D* used by the pullback spaces:

        c_nu * int |w2|^nu (1-|w1|^2)^nu (1-|w2|^2)^nu integrand(w1, w2) dw

    with c_nu = 2^(nu/2) C_nu.  The integrand gets the product-domain
    coordinates (w1, w2) directly: a coefficient object is a polynomial
    in w1, w2 and their conjugates.
    """
    return _integrate_pullback(nu, integrand, rule, False)


def build_tau_rule(radial_order=48, angular_count=40, shell_eps=0.05, r1_range=None, r2_range=None):
    """Legendre x trapezoid rule for tau on the shell eps <= |w_i| <= 1 - eps,
    the tau density r (1-r^2)^(-2) folded into each radial weight.

    ``r1_range`` / ``r2_range`` optionally trim the radial intervals to a
    tighter bracket of the integrand's support (the defaults cover the
    whole shell).
    """
    if not 0.0 < shell_eps < 0.5:
        raise DomainError(f"shell epsilon must lie in (0, 1/2), got {shell_eps}")
    t, h = _jacobi01(radial_order, 1.0, 1.0)  # Gauss-Legendre on (0, 1)

    def mapped(rng):
        lo, hi = rng
        if not shell_eps <= lo < hi <= 1.0 - shell_eps:
            raise DomainError(f"radial range {rng} leaves the shell")
        r = lo + (hi - lo) * t
        return r, h * (hi - lo) * r * (1.0 - r * r) ** -2

    full = (shell_eps, 1.0 - shell_eps)
    r1, w1 = mapped(r1_range or full)
    r2, w2 = mapped(r2_range or full)
    r1.flags.writeable = w1.flags.writeable = r2.flags.writeable = w2.flags.writeable = False
    return QuadRule(None, r1, w1, r2, w2, angular_count)


def integrate_tau(integrand, rule=None, automorphism=None):
    """Shell integral of a compactly supported function against tau.

    tau pulls back to the product of the two disc-invariant densities
    (1-|w1|^2)^(-2) (1-|w2|^2)^(-2) dw; the integrand must vanish near
    the shell edges for the result to mean anything.  When
    ``automorphism`` is given, integrand o automorphism is integrated
    instead; it acts in product coordinates as (w1, w2) ->
    (disc_map(w1), c w2), so the composition never divides z1 by z2.
    """
    if rule is None:
        rule = build_tau_rule()
    if rule.nu is not None:
        raise DomainError(f"integrate_tau needs a tau rule, got one for nu = {rule.nu}")
    fn = as_grid_fn(integrand)
    if automorphism is None:
        pulled = _on_triangle(fn)
    else:
        disc_map, c = automorphism.disc_map, automorphism.c

        def pulled(w1, w2):  # disc_map(w1) * w2, as _on_triangle's w1 * w2: numpy's complex product is not commutative bit for bit
            return fn(disc_map(w1) * w2, c * w2)

    _warn_if_support_leaks(pulled, rule.r1_nodes, rule.r2_nodes, rule.angular)
    return _tensor_sum(pulled, rule.r1_nodes, rule.r1_weights, rule.r2_nodes, rule.r2_weights, rule.angular)


def _warn_if_support_leaks(fn, r1, r2, angular):
    """Warn when the product-coordinate integrand is non-negligible at the
    radial edges of the shell (its mass there would be silently dropped)."""
    ang = np.exp(2j * np.pi * np.arange(angular) / angular)
    mid1 = r1[r1.size // 2]
    mid2 = r2[r2.size // 2]

    def peak(s1, s2):
        return float(np.max(np.abs(fn(s1 * ang[:, None], s2 * ang[None, :]))))

    scale = max(peak(mid1, mid2), 1e-30)
    for edge1 in (r1[0], r1[-1]):
        if peak(edge1, mid2) > 1e-9 * scale:
            warnings.warn(f"tau integrand is non-negligible at the |w1| = {edge1:.3f} shell edge")
            break
    for edge2 in (r2[0], r2[-1]):
        if peak(mid1, edge2) > 1e-9 * scale:
            warnings.warn(f"tau integrand is non-negligible at the |w2| = {edge2:.3f} shell edge")
            break


def _is_integer(value):
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed):
    """Refuse, with DomainError, a seed that is not a non-negative integer."""
    if not _is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def mc_integrate_mu(nu, integrand, sample_count, seed):
    """Monte Carlo importance-sampled integral against mu_nu.

    The squared radii are drawn from the exact radial laws of the
    pullback weight, u ~ Beta(1, nu+1) and v ~ Beta(nu/2+2, nu+1), and
    each angle is that of a standard complex Gaussian g, uniform on the
    circle.  u comes from w1's own Gaussian g1: |g1|^2/2 ~ Exp(1) is
    independent of g1/|g1|, so u = 1 - exp(-|g1|^2/(2(nu+1))) has the
    law of u exactly, and w1 = g1 sqrt(u/|g1|^2), w2 = g2 sqrt(v/|g2|^2).
    Since mu_nu is a probability measure the estimator is the plain
    sample mean.

    The samples come in near-equal chunks of at most ``_MAX_BLOCK``,
    which depend on ``sample_count`` alone.  Chunk i draws its v, then
    its 2n Gaussians (w1's before w2's), from an SFC64 generator seeded
    by child i of ``SeedSequence(seed).spawn(chunks)``, so the chunks draw
    on every CPU at once.  Each chunk reduces its values to their count,
    mean and sum of squared deviations M2; these are combined in chunk
    order by the pairwise update of Chan, Golub & LeVeque (1979), and the
    standard error is sqrt(M2/(N-1)/N).  ``sample_count`` is an integer
    of at least 1000 and ``seed`` a non-negative integer.  Returns
    (estimate, standard_error); bit-identical under a fixed seed,
    whatever the number of threads.
    """
    if not _is_integer(sample_count) or sample_count < 1000:
        raise DomainError(f"sample_count must be an integer of at least 1000, got {sample_count!r}")
    _check_seed(seed)
    nu = SpaceParam(nu).require("bergman", "mc_integrate_mu").nu
    fn = _on_triangle(as_grid_fn(integrand))
    chunks = -(-sample_count // _MAX_BLOCK)
    bounds = [sample_count * i // chunks for i in range(chunks + 1)]
    streams = np.random.SeedSequence(seed).spawn(chunks)
    moments = [None] * chunks

    def chunk(i):
        n = bounds[i + 1] - bounds[i]
        rng = np.random.Generator(np.random.SFC64(streams[i]))
        v = rng.beta(0.5 * nu + 2.0, nu + 1.0, size=n)
        g = rng.standard_normal(4 * n).view(complex)
        scale = np.square(np.abs(g))
        scale[:n] = np.expm1(scale[:n] * (-0.5 / (nu + 1.0))) / -scale[:n]  # u / |g1|^2
        scale[n:] = v / scale[n:]
        g *= np.sqrt(scale, out=scale)
        vals = np.broadcast_to(fn(g[:n], g[n:]), (n,))
        mean = vals.mean()
        moments[i] = n, complex(mean), float(np.sum(np.square(np.abs(vals - mean))))
        return g

    _each(chunk, range(chunks))
    count, est, m2 = 0, 0j, 0.0
    for n, mean, chunk_m2 in moments:
        delta, total = mean - est, count + n
        est += delta * (n / total)
        m2 += chunk_m2 + abs(delta) ** 2 * (count * n / total)
        count = total
    return est, math.sqrt(m2 / (sample_count - 1) / sample_count)


def inner_product_quad(nu, f, g, rule=None):
    """L^2_nu pairing <f, g> = int f conj(g) dmu_nu by tensor quadrature.

    f and g are coefficient objects, paired into one MixedPoly and summed
    separably; anything else raises DomainError.
    """
    if not (isinstance(f, _COEFF_TYPES) and isinstance(g, _COEFF_TYPES)):
        raise DomainError("inner_product_quad pairs two LaurentCoeffs / MixedPoly objects")
    return integrate_mu(nu, conj_product(f, g), rule)
