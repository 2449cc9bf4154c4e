"""Cross-validation suites: every closed form against an independent route.

Each suite compares a family of exact values (Gamma/Beta closed forms,
coefficient algebra, interval arithmetic) against an independent oracle
(tensor quadrature, brute-force series, FFT grids) and
returns a :class:`SuiteResult` whose rows all share the CSV schema

    (case, closed_form, quadrature, abs_err, rel_err).

The suites double as the acceptance battery: the CLI ``verify`` command
and the acceptance test module both run them, each at the fixed bounds
written in it.  All randomness is drawn from seeds derived from a single
base seed, so repeated runs are byte-identical.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import coeffspace, isometries, kernels, projections, quadrature
from .coeffspace import LaurentCoeffs, MixedPoly, TorusSeries
from .geometry import HartogsPoint, random_automorphism
from .specfun import gamma_ratio_signed

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_all"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    rows: list = field(default_factory=list)
    message: str = ""

    def row(self, case, closed_form, oracle, tol=None):
        a = abs(closed_form - oracle)
        r = a / max(abs(closed_form), abs(oracle), 1e-300)
        self.rows.append((case, closed_form, oracle, a, r))
        if tol is not None and not r <= tol:
            self.fail(f"{case}: rel err {r:.3e} exceeds {tol:.1e}")
        return r

    def worst(self, case, errors, tol, message):
        """Record the row (case, 0, worst, worst, worst), worst = np.max(errors), NaN if one is; fail unless <= tol."""
        worst = float(np.max(errors))
        self.rows.append((case, 0.0, worst, worst, worst))
        self.check(worst <= tol, f"{message}: {worst:.3e} exceeds {tol:.1e}")

    def check(self, ok, message):
        if not ok:
            self.fail(message)

    def fail(self, message):
        self.passed = False
        if self.message:
            self.message += "; "
        self.message += message


def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


def _random_coords(rng, count, r2_range=(0.25, 0.9), ratio_max=0.85):
    """z1, z2 of count points as complex arrays, the suites' one point draw: |z2| uniform in
    r2_range, |z1/z2| = ratio_max sqrt(u), uniform angles.  Each point maps four uniforms of one
    rng.random(4 count) call as ``Generator.uniform`` does, low + (high - low) u."""
    u_rho, u_ratio, u_ang1, u_ang2 = rng.random(4 * count).reshape(count, 4).T
    lo, hi = r2_range
    z2 = (lo + (hi - lo) * u_rho) * np.exp(1j * (2.0 * math.pi * u_ang2))
    return np.sqrt(u_ratio) * ratio_max * z2 * np.exp(1j * (2.0 * math.pi * u_ang1)), z2


def _random_pairs(rng, count):
    """count pairs (z, w) as two batched points from one ``_random_coords`` draw of
    2 count points, z the even and w the odd ones: z then w, pair by pair."""
    z1, z2 = _random_coords(rng, 2 * count)
    return HartogsPoint(z1[::2], z2[::2]), HartogsPoint(z1[1::2], z2[1::2])


def _random_laurent(rng, nu, n_terms=6, jmax=4, kmax=4):
    """Random polynomial supported in I_nu with unit coefficient energy."""
    terms = {}
    space = coeffspace.SpaceParam(nu)
    kmin_base = -1 - space.ceil
    while len(terms) < n_terms:
        j = int(rng.integers(0, jmax + 1))
        k = int(rng.integers(max(kmin_base - j, -jmax - 4), kmax + 1))
        if space.member(j, k):
            terms[(j, k)] = complex(rng.normal(), rng.normal())
    scale = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return LaurentCoeffs({key: a / scale for key, a in terms.items()})


def _random_mixed(rng):
    """Random mixed polynomial of 4 terms, exponents at most 3 and c >= -2.

    For nu > -1, c >= -2 keeps the Beta moment a + c + nu/2 + 2 of every
    term that P_nu keeps positive: a moment <= 0 needs a = b = 0 and
    c = -2, and then z2^(-2-d) is outside I_nu.
    """
    terms = {}
    while len(terms) < 4:
        key = tuple(int(rng.integers(low, 4)) for low in (0, 0, -2, 0))
        terms[key] = complex(rng.normal(), rng.normal())
    return MixedPoly(terms)


# ----------------------------------------------------------------------
# individual suites
# ----------------------------------------------------------------------


def suite_normalization(seed=0, nus=(-0.5, -0.1, 0.0, 0.7, 2.0, 3.5)):
    """integral of 1 against mu_nu must be exactly 1."""
    res = SuiteResult("normalization", True)
    for nu in nus:
        rule = quadrature.build_rule(nu, radial_order=48, angular_count=4)
        val = quadrature.integrate_mu(nu, lambda z1, z2: np.ones_like(z2), rule)
        res.row(f"nu={nu}", 1.0, val.real, 1e-10)
    return res


def suite_monomials(seed=0, nus=(-0.5, 0.0, 0.7, 2.0)):
    """Gamma closed form of the monomial norms against tensor quadrature,
    over 0 <= j <= 4 and |k| <= 4."""
    res = SuiteResult("monomials", True)
    for nu in nus:
        rule = quadrature.build_rule(nu, radial_order=48, angular_count=4)
        space = coeffspace.SpaceParam(nu)
        for j in range(5):
            for k in range(-4, 5):
                if not space.member(j, k):
                    continue
                closed = coeffspace.monomial_norm_sq(nu, j, k)
                mono = LaurentCoeffs({(j, k): 1.0})
                quad = quadrature.inner_product_quad(nu, mono, mono, rule).real
                res.row(f"nu={nu},j={j},k={k}", closed, quad, 1e-8)
                if nu == 0.0:
                    exact = 2.0 / ((j + 1.0) * (j + k + 2.0))
                    res.row(f"nu=0 exact,j={j},k={k}", closed, exact, 1e-12)
    return res


_REGIMES = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.7, 2.0, 3.5)


def suite_kernel_agreement(seed=0, nus=_REGIMES):
    """Closed kernels against the brute-force basis series, all regimes, one batched call each per nu."""
    res = SuiteResult("kernel-agreement", True)
    for nu in nus:
        rng = _rng(seed, 101 + _REGIMES.index(nu) if nu in _REGIMES else 100)
        z, w = _random_pairs(rng, 100)
        closed = kernels.kernel(nu, z, w)
        series = kernels.kernel_series(nu, z, w)
        worst = float(np.max(np.abs(closed - series) / np.maximum(np.abs(closed), 1e-300)))
        res.worst(f"nu={nu} worst pair", worst, 1e-8, f"kernel series mismatch at nu={nu}")
    # at even nu the kernel's F reduces to (1-y)^(-nu-2): that closed form against the series oracle
    rng = _rng(seed, 160)
    for nu in (0.0, 2.0, 4.0):
        z, w = _random_pairs(rng, 40)
        closed = kernels.kernel_nu(nu, z, w)
        worst = float(np.max(np.abs(closed - kernels.kernel_series(nu, z, w)) / np.abs(closed)))
        res.worst(f"even reduction nu={nu}", worst, 1e-10, f"even reduction failed at nu={nu}")
    return res


def suite_reproducing(seed=0, nus=_REGIMES):
    """<f, K(., w)> = f(w) through the coefficient pairing, all regimes.

    The kernel side is expanded from the closed form (binomial times
    hypergeometric recurrences), the weights come from the Gamma-ratio
    norms; the identity holds exactly when weight * coefficient = 1, so
    the pairing cross-checks the two routes.
    """
    res = SuiteResult("reproducing", True)
    for salt, nu in enumerate(nus):
        rng = _rng(seed, 200 + salt)
        space = coeffspace.SpaceParam(nu)
        errors = []
        for _ in range(20):
            f = _random_laurent(rng, nu)
            # the 20 points w of f, each pairing and value one array over them
            w1, w2 = _random_coords(rng, 20, r2_range=(0.3, 0.8), ratio_max=0.8)
            inner = 0.0j
            for (j, k), a in f.items():
                # Laurent coefficient of K(., w) at (j, k)
                kern = kernels.kernel_coeff_closed(space, j, k) * np.conj(w1**j * w2**k)
                inner = inner + space.weight(j, k) * a * np.conj(kern)
            direct = coeffspace.evaluate_grid(f, w1, w2)
            errors.append(np.max(np.abs(inner - direct) / np.maximum(np.abs(direct), 1.0)))
        res.worst(f"nu={nu} reproducing worst", errors, 1e-8, f"reproducing identity failed at nu={nu}")
    return res


def _circle_sup(nu):
    """(sup, the sup one level before) of ``kernels.bound_ratio_profile`` on |y| = 0.998, 0 <= arg y <= pi."""
    lo, hi, sup = 0.0, math.pi, 0.0
    for _ in range(4):
        theta = np.linspace(lo, hi, 257)
        ratio = kernels.bound_ratio_profile(nu, 0.998 * np.exp(1j * theta))
        i, step = int(np.argmax(ratio)), theta[1] - theta[0]
        before, sup = sup, max(sup, float(ratio[i]))
        lo, hi = max(theta[i] - step, 0.0), min(theta[i] + step, math.pi)
    return sup, before


def suite_kernel_estimate(seed=0, nus=(-1.5, -0.5, 0.7, 1.3, 3.5)):
    """Boundary ratio of every kernel under its derived majorant constant.

    The ratio is |a_nu| |F(y)|, F = F(-nu-1, b; b+1; y) holomorphic with real Taylor
    coefficients, so by the maximum modulus principle its sup over |y| <= 0.998 is taken on
    |y| = 0.998, at an angle in [0, pi] as F(conj y) = conj F(y): 257 angles there, then 3
    levels of 257 over +-1 step around the best, whose last two must agree to 1e-12."""
    res = SuiteResult("kernel-estimate", True)
    # five spot pairs: z_i drawn from salt 310 + i, w_i from salt 320 + i
    spot = lambda base: np.hstack([_random_coords(_rng(seed, base + i), 1, (0.8, 0.95), 0.95) for i in range(5)])
    z, w = HartogsPoint(*spot(310)), HartogsPoint(*spot(320))
    for nu in nus:
        sup, before = _circle_sup(nu)
        res.check(sup - before <= 1e-12 * sup, f"circle sup unresolved at nu={nu}: {before!r} -> {sup!r}")
        profiles = kernels.bound_ratio_profile(nu, z.z2 * np.conj(w.z2))
        cstar = kernels.bound_constant(nu)
        res.row(f"nu={nu} sup ratio vs C*", cstar, sup)
        res.check(sup <= cstar, f"kernel estimate violated at nu={nu}: {sup:.6f} > {cstar:.6f}")
        # spot-check the profile against the full kernel on the five pairs
        for i, ratio in enumerate(kernels.kernel_bound_ratio(nu, z, w)):
            res.row(f"nu={nu} ratio path {i}", float(ratio), float(profiles[i]), 1e-9)
    z, w = _random_pairs(_rng(seed, 330), 200)
    for nu, const in ((0.0, 0.5), (-1.0, 1.0)):
        worst = float(np.max(np.abs(kernels.kernel_bound_ratio(nu, z, w) - const)))
        res.row(f"nu={nu} constant ratio", const, const + worst, 1e-12)
    return res


def suite_critical_range(seed=0):
    """The ceiling-form range against its closed values at the even nu = 2n,
    (2 - 2/(3+n), 2 + 2/(1+n)), and at three spot nu."""
    res = SuiteResult("critical-range", True)
    for n in range(6):
        nu = 2.0 * n
        r = projections.critical_range(nu)
        res.row(f"even nu={nu} p-", 2.0 - 2.0 / (3.0 + n), r.p_minus, 1e-12)
        res.row(f"even nu={nu} p+", 2.0 + 2.0 / (1.0 + n), r.p_plus, 1e-12)
    for nu, lo, hi in ((0.0, 4.0 / 3.0, 4.0), (2.0, 1.5, 3.0), (-0.5, 1.4, 3.5)):
        r = projections.critical_range(nu)
        res.row(f"spot nu={nu} p-", lo, r.p_minus, 1e-12)
        res.row(f"spot nu={nu} p+", hi, r.p_plus, 1e-12)
    return res


def _mode_moments(sp, q):
    """M = int_0^1 rho^s (1-rho^2)^nu drho, s = projections._mode_exponent(sp, q), as
    (closed, quadrature): B((s+1)/2, nu+1) / 2, and ``_tail_integral`` from eps = 1e-4
    plus the head eps^(s+1)/(s+1) - nu eps^(s+3)/(s+3), whose first dropped term is
    nu (nu-1)/2 eps^(s+5)/(s+5).  (inf, inf) when s <= -1, where M diverges."""
    nu, s, eps = sp.nu, projections._mode_exponent(sp, q), 1e-4
    if not s > -1.0:
        return math.inf, math.inf
    head = eps ** (s + 1.0) / (s + 1.0) - nu * eps ** (s + 3.0) / (s + 3.0)
    closed = 0.5 * gamma_ratio_signed([0.5 * (s + 1.0), nu + 1.0], [0.5 * (s + 1.0) + nu + 1.0])
    return closed, projections._tail_integral(s, nu, eps) + head


def suite_mode_norm(seed=0):
    """In (w1, w2) = (z1/z2, z2), P_nu is a tensor product; on the mode w2^(-N),
    N = 1 + ceil(nu/2), its second factor is the rank-one map of L^p norm
    H = ||w2^-N||_p ||w2^-N||_p' / ||w2^-N||_2^2 (Hoelder, sharp; each norm's 2 pi
    cancels), finite exactly inside the range.  At p+(1 - delta) and p-(1 + delta)
    a row ties H from the Beta moments to H from quadrature (1e-12); one row per
    end ties the log-log slope of H over the last two delta to -1/p+ (2e-2)."""
    res = SuiteResult("schur-feasibility", True)  # perfbench's SMOKE_SUITES names this key until a benchmark change
    deltas = (1e-2, 1e-3, 1e-4)
    for nu in (0.0, 0.7, 2.0, 3.5):
        sp, r = coeffspace.SpaceParam(nu), projections.critical_range(nu)
        for end, p_at in (("p+", lambda d: r.p_plus * (1.0 - d)), ("p-", lambda d: r.p_minus * (1.0 + d))):
            logs = []
            for delta in deltas:
                p = p_at(delta)
                moments = [_mode_moments(sp, q) for q in (p, p / (p - 1.0), 2.0)]
                closed, quad = (a ** (1.0 / p) * b ** (1.0 - 1.0 / p) / c for a, b, c in zip(*moments))
                res.check(closed < math.inf, f"nu={nu}: w2^-{1 + sp.ceil} leaves L^p or L^p' at p={p!r}")
                res.row(f"nu={nu} {end} delta={delta} mode norm", closed, quad, 1e-12)
                logs.append(math.log(closed))
            slope = (logs[2] - logs[1]) / math.log(deltas[2] / deltas[1])
            res.row(f"nu={nu} {end} log-log slope", -1.0 / r.p_plus, slope, 2e-2)
    return res


def suite_blowup(seed=0):
    """The truncated integral T(eps) of the mode w2^(-N) (``projections._tail_integral``)
    grows like eps^(s+1) when s = ``projections._mode_exponent`` < -1, p beyond the endpoint,
    and settles when s > -1: its log-log slope over eps = 1e-6..1e-4 is s + 1 (5%) or 0 (0.02)."""
    res = SuiteResult("blowup", True)
    eps = np.array([1e-4, 1e-5, 1e-6])
    for nu, p in ((0.0, 5.0), (0.7, 5.0), (2.0, 4.0), (0.0, 2.0), (0.7, 2.0), (2.0, 2.5)):
        s = projections._mode_exponent(coeffspace.SpaceParam(nu), p)
        tails = [projections._tail_integral(s, nu, e) for e in eps]
        slope = float(np.polyfit(np.log(eps), np.log(tails), 1)[0])
        if s < -1.0:
            res.row(f"nu={nu},p={p} slope", s + 1.0, slope)
            res.check(abs(slope - (s + 1.0)) <= 0.05 * abs(s + 1.0), f"(nu={nu}, p={p}) slope {slope} vs {s + 1.0}")
        else:
            res.row(f"nu={nu},p={p} convergent slope", 0.0, slope)
            res.check(abs(slope) < 0.02, f"(nu={nu}, p={p}) slope {slope}")
    return res


def suite_projection(seed=0, nus=(-0.5, 0.0, 0.7, 2.0)):
    """P_nu fixes the basis, maps conj(z2)-powers per the necessity
    computation, and is self-adjoint under the quadrature pairing."""
    res = SuiteResult("projection", True)
    for nu in nus:
        projections.projection_self_test(nu)
        rule = quadrature.build_rule(nu, radial_order=32, angular_count=25)
        space = coeffspace.SpaceParam(nu)
        for j, k in ((0, 0), (1, -1), (2, 1), (0, 2)):
            if not space.member(j, k):
                continue
            out = projections.project_bergman(nu, MixedPoly({(j, 0, k, 0): 1.0}))
            res.row(f"nu={nu} fixes ({j},{k})", 1.0, out.get((j, k)).real, 1e-12)
            res.check(len(out) == 1, f"unexpected support at nu={nu}")
        # the conj(z2)^(1+ceil(nu/2)) test input and its d_nu
        m = 1 + space.ceil
        f = MixedPoly({(0, 0, 0, m): 1.0})
        image = projections.project_bergman(nu, f)
        d_beta = image.get((0, -m))
        res.check(abs(d_beta.imag) < 1e-14 and d_beta.real > 0.0, f"d_nu not positive at nu={nu}")
        basis = LaurentCoeffs({(0, -m): 1.0})
        num = quadrature.inner_product_quad(nu, f, basis, rule)
        den = quadrature.inner_product_quad(nu, basis, basis, rule).real
        res.row(f"nu={nu} d_nu", d_beta.real, (num / den).real, 1e-7)
    rng = _rng(seed, 500)
    nu = 0.7
    rule = quadrature.build_rule(nu, radial_order=24, angular_count=33)
    errors = []
    for _ in range(50):
        f, g = _random_mixed(rng), _random_mixed(rng)
        lhs = quadrature.inner_product_quad(nu, projections.project_bergman(nu, f), g, rule)
        rhs = quadrature.inner_product_quad(nu, f, projections.project_bergman(nu, g), rule)
        errors.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    res.worst(f"self-adjointness nu={nu}", errors, 1e-7, "self-adjointness broke")
    return res


def _random_torus(rng, degree, n_terms=12):
    terms = {}
    while len(terms) < n_terms:
        key = tuple(int(rng.integers(-degree, degree + 1)) for _ in range(2))
        terms[key] = complex(rng.normal(), rng.normal())
    return TorusSeries(terms)


def _torus_samples(f, n):
    """f on the n x n torus grid: entry (p, q) is sum a_jk e^(2 pi i (j p + k q) / n),
    ``coeffspace.evaluate_grid`` at the n-th roots of unity (all zeros, read-only,
    for an empty series)."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    return np.broadcast_to(coeffspace.evaluate_grid(f, roots[:, None], roots), (n, n))


def _szego_by_conjugation(samples):
    """P_S on an M x M grid through its conjugate P+ x P+.

    g(z1, z2) = z2 f(z1 z2, z2) moves z1^j z2^k to z1^j z2^(j+k+1), so the
    index set I_-1 of P_S becomes the quadrant of P+ x P+.  On the grid the
    map is the index permutation (p, q) -> (p + q mod M, q) times z2.  The
    Riesz mask is applied along each axis by 1-D FFTs, then the map is undone.
    Exact for trigonometric polynomials of degree below M / 4.
    """
    m = samples.shape[0]
    idx = np.arange(m)
    p, q = idx[:, None], idx
    twist = np.exp(2j * np.pi * idx / m)
    g = samples[(p + q) % m, q] * twist
    keep = np.fft.fftfreq(m, d=1.0 / m) >= 0
    g = np.fft.ifft(np.fft.fft(g, axis=0) * keep[:, None], axis=0)
    g = np.fft.ifft(np.fft.fft(g, axis=1) * keep, axis=1)
    return g[(p - q) % m, q] / twist


def _szego_witness(p, gamma, n):
    """The ratios ||P f||_p / ||f||_p of the sharp witness of degree n, in one
    variable (P = P+) and in two (P = P_S), on grids of M = 8n points a side.

    F = ((1+z)/(1-z))^gamma truncated at degree n convolves the binomial
    series of (1+z)^gamma and (1-z)^(-gamma).  f1 = F - cos(gamma pi) conj(F)
    has P+ f1 = F - cos(gamma pi), and as n grows and gamma -> 1/p the ratio
    tends to csc(pi/p).  The 2-D witness f = z2^-1 f1(z1/z2) f1(z2) is mapped
    by the conjugation of ``_szego_by_conjugation`` to f1 x f1, so its ratio
    is the 1-D ratio squared; grid entry (r, s) reads f1 at (r - s) mod M and s.
    """
    k = np.arange(n)
    plus = np.cumprod(np.r_[1.0, (gamma - k) / (k + 1)])
    minus = np.cumprod(np.r_[1.0, (gamma + k) / (k + 1)])
    m = 8 * n
    big_f = np.fft.ifft(np.convolve(plus, minus)[: n + 1], m) * m
    shift = math.cos(gamma * math.pi)
    f1 = big_f - shift * big_f.conj()
    ratio_1d = (np.sum(np.abs(big_f - shift) ** p) / np.sum(np.abs(f1) ** p)) ** (1.0 / p)
    # row r of the circulant is f1 reversed from index r: a strided view of two copies
    doubled = np.concatenate([f1, f1])[::-1]
    circulant = np.lib.stride_tricks.sliding_window_view(doubled, m)[m - 1 :: -1]
    f = circulant * (f1 * np.exp(-2j * np.pi * np.arange(m) / m))
    ratio_2d = projections.lp_norm_torus(p, projections.project_szego_grid(f)) / projections.lp_norm_torus(p, f)
    return float(ratio_1d), ratio_2d


# (p, gamma) of the witness rows: gamma just below 1/p keeps f1 in L^p
_SZEGO_WITNESSES = ((1.5, 0.6), (3.0, 0.317))


def suite_szego(seed=0):
    """Idempotence, L^2 contraction, FFT/grid agreement and the sharp L^p norm.

    g(z1, z2) = z2 f(z1 z2, z2) is an isometry of every L^p(T^2) that maps
    I_-1 onto the quadrant, so P_S is conjugate to P+ x P+ and
    ||P_S||_(p->p) = csc^2(pi/p), csc(pi/p) being the norm of the Riesz
    projection P+ (Hollenbeck and Verbitsky, J. Funct. Anal. 175 (2000)).
    One row checks the conjugation on the grid.  Each witness row prints
    that bound against the 2-D ratio of ``_szego_witness``, which must be
    the 1-D ratio squared (rel. 1e-12), lie in (1, csc^2(pi/p)) and rise
    strictly with N.
    """
    res = SuiteResult("szego", True)
    rng = _rng(seed, 600)
    for trial in range(20):
        f = _random_torus(rng, 6)
        sf = projections.project_szego(f)
        res.check(projections.project_szego(sf) == sf, "idempotence failed")
        mass_in = sum(abs(a) ** 2 for _, a in f.items())
        mass_out = sum(abs(a) ** 2 for _, a in sf.items())
        res.check(mass_out <= mass_in + 1e-15, "L2 contraction failed")
    errors = []
    for trial in range(10):
        f = _random_torus(rng, 6)
        n = 2 * 6 + 3
        direct = _torus_samples(projections.project_szego(f), n)
        via_grid = projections.project_szego_grid(_torus_samples(f, n))
        errors.append(np.max(np.abs(direct - via_grid)))
    res.worst("grid vs coefficients", errors, 1e-11, "grid projection mismatch")
    rng = _rng(seed, 610)
    errors = []
    for trial in range(10):
        f = _random_torus(rng, 7)
        while not 0 < len(projections.project_szego(f)) < len(f):
            f = _random_torus(rng, 7)
        samples = _torus_samples(f, 32)
        errors.append(np.max(np.abs(_szego_by_conjugation(samples) - projections.project_szego_grid(samples))))
    res.worst("conjugation to P+ x P+", errors, 1e-12, "conjugated projection mismatch")
    for p, gamma in _SZEGO_WITNESSES:
        bound = 1.0 / math.sin(math.pi / p) ** 2
        ratios = []
        for n in (16, 32, 64):
            ratio_1d, ratio = _szego_witness(p, gamma, n)
            res.row(f"witness p={p} gamma={gamma} N={n}", bound, ratio)
            squared = ratio_1d**2
            res.check(abs(ratio - squared) <= 1e-12 * squared, f"witness p={p} N={n}: {ratio!r} != {squared!r}")
            res.check(1.0 < ratio < bound, f"witness p={p} N={n}: ratio {ratio:.6f} outside (1, {bound:.6f})")
            ratios.append(ratio)
        res.check(ratios[0] < ratios[1] < ratios[2], f"witness p={p}: ratios {ratios} do not rise with N")
    return res


def suite_hardy_limit(seed=0):
    """Bergman norms of 20 random polynomials converge to the Hardy norm:
    each gap falls along nu = -1 + 10^-m, m = 1..4, and the largest at m = 4
    is at most 1e-3."""
    res = SuiteResult("hardy-limit", True)
    rng = _rng(seed, 700)
    gaps = []
    for idx in range(20):
        f = _random_laurent(rng, -1.0, n_terms=5, jmax=4, kmax=4)
        target = coeffspace.SpaceParam(-1.0).norm_sq(f)
        diffs = [abs(coeffspace.SpaceParam(-1.0 + 10.0**-m).norm_sq(f) - target) for m in (1, 2, 3, 4)]
        res.check(all(b < a for a, b in zip(diffs, diffs[1:])), f"function {idx}: differences not decreasing {diffs}")
        gaps.append(diffs[-1])
    res.worst("worst gap at nu=-1+1e-4", gaps, 1e-3, "Hardy limit gap")
    return res


def _isometry_rows(res, rng, nu, s):
    """Rows of f -> w2^s f(w1 w2, w2) at nu over 10 draws f, from the 2-D FFT c
    of its values on the 16 x 16 torus (no image has degree above 9, so none
    aliases): the worst max |c - to_bidisc(nu, f)| and the worst
    |sum W |c|^2 - ||f||^2_nu| / sum |W| |c|^2 for the bidisc weight W[j, n] =
    weight(j, n - j - s_nu), s_nu the Jacobian power of ``isometries``, not s;
    and the relative distance of W from W[:, 1] W[0, :] / W[0, 1] (its n = 0
    column is 0 at nu = -4/3): the bidisc weight is a product in (j, n)."""
    sp, m = coeffspace.SpaceParam(nu), np.arange(16.0)
    s_nu = isometries._jacobian_power(sp)
    weight = np.array([[sp.weight(j, n - j - s_nu) for n in range(16)] for j in range(16)])
    w = np.exp(2j * np.pi * m / 16)
    map_errors, norm_errors = [], []
    for _ in range(10):
        f = _random_laurent(rng, nu)
        g = isometries.to_bidisc(nu, f)
        res.check(isometries.from_bidisc(nu, g) == f, f"nu={nu} round trip failed")
        c = np.fft.fft2(w**s * coeffspace.evaluate_grid(f, np.outer(w, w), w)) / 256
        energy = np.abs(c) ** 2
        gap = abs(np.sum(weight * energy) - sp.norm_sq(f))
        norm_errors.append(gap / np.sum(np.abs(weight) * energy))
        for key, a in g.items():
            c[key] -= a
        map_errors.append(np.max(np.abs(c)))
    res.worst(f"nu={nu} map from values", map_errors, 1e-13, f"nu={nu} map from values")
    res.worst(f"nu={nu} norm from values", norm_errors, 1e-13, f"nu={nu} norm from values")
    rank_one = np.outer(weight[:, 1], weight[0, :]) / weight[0, 1]
    rank_errors = np.abs(weight - rank_one) / np.maximum(np.abs(weight), 1e-300)
    res.worst(f"nu={nu} bidisc weight rank one", rank_errors, 1e-13, f"nu={nu} bidisc weight rank one")


_ISOMETRY_CASES = ((-2.0, 0), (-1.9, 1), (-1.5, 1), (-1.2, 1), (-1.0, 1))


def suite_isometries(seed=0):
    """The isometry at the (nu, s) of _ISOMETRY_CASES from function values
    (the power s of the Jacobian w2 is 0 at nu = -2), by quadrature for nu > -1."""
    res = SuiteResult("isometries", True)
    for salt, (nu, s) in enumerate(_ISOMETRY_CASES):
        _isometry_rows(res, _rng(seed, 800 + salt), nu, s)
    for nu in (-0.5, 0.0, 1.0):
        rng_nu = _rng(seed, 810 + int(10 * nu))
        rule = quadrature.build_rule(nu, radial_order=32, angular_count=25)
        for idx in range(8):
            f = _random_laurent(rng_nu, nu, n_terms=5)
            g = isometries.to_bidisc(nu, f)
            if nu <= 0.0:
                res.check(all(k >= 0 for (j, k), _ in g.items()), f"pullback support dips below zero at nu={nu}")
            quad = quadrature.integrate_bidisc(nu, coeffspace.conj_product(g, g), rule).real
            res.row(f"nu={nu} pullback norm {idx}", coeffspace.SpaceParam(nu).norm_sq(f), quad, 1e-8)
            res.check(isometries.from_bidisc(nu, g) == f, "pullback round trip")
    return res


def _t_multiplier_rule(rule):
    """``rule`` with |T|^2 folded into its radial weights: T multiplies by
    |z2| (1 - |z1/z2|^2)(1 - |z2|^2), which pulls back to r2 (1 - r1^2)(1 - r2^2),
    so |T f|^2 integrates as |f|^2 against the copy."""
    u, v = rule.r1_nodes**2, rule.r2_nodes**2
    return replace(rule, r1_weights=rule.r1_weights * (1.0 - u) ** 2, r2_weights=rule.r2_weights * v * (1.0 - v) ** 2)


def suite_tsplit(seed=0, nus=(-0.5, 0.0, 1.0)):
    """Gamma closed form of the T-split norms against quadrature (1e-7), and the sharp
    constants c^2 <= R(f) = star(f)^2 / ||f||^2 <= C^2 of ``_star_constants``
    against the library's R: at z1 (1e-12); for nu <= 20 the closed R of a
    near-extremal f at depth 1e4 (1e-9, the digits log-Gamma keeps near 1e5),
    below C^2, and C^2 against (8 R(4e4) - 6 R(2e4) + R(1e4)) / 3 (1e-6; the
    remainder is below 6e-8); and the excess of 20 random sqrt(R) beyond
    [c, C], negative inside (1e-12)."""
    res = SuiteResult("t-split", True)
    for nu in nus:
        rng = _rng(seed, 900 + int(10 * nu))
        rule = _t_multiplier_rule(quadrature.build_rule(nu, radial_order=32, angular_count=33))
        errors = [0.0]  # a part that is zero on both sides counts 0
        for _ in range(20):
            f = _random_laurent(rng, nu, n_terms=5)
            for part in coeffspace.split_f123(f)[:3]:
                closed = coeffspace.t_norm_sq(nu, part)
                quad = quadrature.integrate_mu(nu, coeffspace.conj_product(part, part), rule).real
                if not (abs(closed) < 1e-14 and abs(quad) < 1e-12):
                    errors.append(abs(closed - quad) / max(abs(closed), abs(quad)))
        res.worst(f"nu={nu} T-norm worst rel err", errors, 1e-7, f"T-norm mismatch at nu={nu}")
        space, (c2, *s) = coeffspace.SpaceParam(nu), coeffspace._star_constants(nu)
        ratio, big = lambda f: coeffspace.star_norm(nu, f) ** 2 / space.norm_sq(f), 1.0 + sum(s)
        res.row(f"nu={nu} c^2 = ratio at z1", c2, ratio(LaurentCoeffs({(1, 0): 1.0})), 1e-12)
        if nu <= 20.0:  # depth-4e4 coefficients, weights leave the double range from nu = 45
            # one monomial per piece at depth J; f1 and f2 at the n < 0 that attains S2, if one does
            n = max((math.inf, *range(-1, -2 - space.ceil, -1)), key=lambda n: coeffspace._star_ratio(nu, 0, n))
            far = []
            for J in (10_000, 20_000, 40_000):
                keys = ((J, min(n, J) - J), (0, min(n, J)), (J, -J))
                rho = [coeffspace._star_ratio(nu, j, j + k) for j, k in keys]
                f = {(0, 0): 1.0, **{key: math.sqrt(r / space.weight(*key)) for key, r in zip(keys, rho)}}
                far.append((1.0 + sum(rho), ratio(LaurentCoeffs(f))))
            res.row(f"nu={nu} near-extremal ratio at 1e4", *far[0], 1e-9)
            res.check(far[0][0] < big, f"near-extremal ratio above C^2 at nu={nu}")
            extrapolated = (8.0 * far[2][1] - 6.0 * far[1][1] + far[0][1]) / 3.0
            res.row(f"nu={nu} C^2 extrapolated from 1e4 2e4 4e4", big, extrapolated, 1e-6)
        r = [ratio(_random_laurent(rng, nu, n_terms=6, jmax=6, kmax=6)) ** 0.5 for _ in range(20)]
        excess = np.max([math.sqrt(c2) / np.min(r), np.max(r) / math.sqrt(big)]) - 1.0
        res.worst(f"nu={nu} star/norm excess outside c to C", excess, 1e-12, f"star/norm outside c to C at nu={nu}")
    return res


def _window(s, lo, hi):
    """[(s - lo)(hi - s)]_+ / ((hi - lo)/2)^2: 1 at the centre of (lo, hi), 0 off it."""
    return np.maximum((s - lo) * (hi - s), 0.0) / (0.5 * (hi - lo)) ** 2


def _twelfth(t):
    """t^12 by multiplication: t^3, squared twice."""
    t = t * t * t
    t = t * t
    return t * t


_BUMP_X, _BUMP_Y = (0.09, 0.3025), (0.25, 0.9)  # the bump's windows in |z1/z2|^2 and in |z2|


def _bump(z1, z2):
    """Fixed compactly supported bump in pullback coordinates, documented
    for reproducibility: with x = |z1/z2|^2 and y = |z2|,

        b = [4 (x - 0.09)(0.3025 - x) / 0.2125^2]_+^12
          * [4 (y - 0.25)(0.9  - y) / 0.65^2  ]_+^12,

    i.e. power windows supported on 0.3 < |z1/z2| < 0.55 and
    0.25 < |z2| < 0.9 with C^11 contact at the edges (the flat-edge
    exponential bump defeats Gauss rules; a high-order power window
    reaches the same tolerances at a fraction of the nodes).
    """
    r2 = z2.real**2 + z2.imag**2
    x = (z1.real**2 + z1.imag**2) / r2
    return _twelfth(_window(x, *_BUMP_X) * _window(np.sqrt(r2), *_BUMP_Y))


def _factored_tau_mass(rule, automorphism=None):
    """``integrate_tau(_bump, rule, automorphism).real`` as the product
    S1(phi) S2 (2 pi/m)^2 of ``suite_tau_invariance``; c drops out."""
    r1, r2, m = rule.r1_nodes, rule.r2_nodes, rule.angular
    w1 = r1[:, None] * np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    t = w1 if automorphism is None else automorphism.disc_map(w1)
    s1 = (rule.r1_weights[:, None] * _twelfth(_window(t.real**2 + t.imag**2, *_BUMP_X))).sum()
    s2 = m * (rule.r2_weights * _twelfth(_window(r2, *_BUMP_Y))).sum()
    return float(s1 * s2) * (2.0 * np.pi / m) ** 2


# Moebius centers are capped at 0.2 so that automorphism images of the
# bump stay inside the trimmed integration brackets below.
_TAU_CENTER_CAP = 0.2
_TAU_R1_RANGE = (0.08, 0.80)
_TAU_R2_RANGE = (0.24, 0.91)


def suite_tau_invariance(seed=0):
    """The tau mass of a bump is unchanged by every automorphism of H.

    In (w1, w2) = (z1/z2, z2), tau is the product (1-|w1|^2)^-2 (1-|w2|^2)^-2 dw
    of the disc-invariant densities, an automorphism is (phi(w1), c w2) and
    the bump is b1(|w1|^2) b2(|w2|).  So on a rule of m angles and tau
    weights W1, W2 the mass is S1(phi) S2 (2 pi/m)^2, S2 = m sum_r2 W2 b2(r2),
    S1(phi) = sum_(r1, theta) W1 b1(|phi(r1 e^(i theta))|^2).  Two rows tie
    it to the 4-D ``integrate_tau`` to 1e-12 relative, at the identity and
    at automorphism 0; 1e-6 bounds the change over 20 automorphisms.
    """
    res = SuiteResult("tau-invariance", True)
    # Moebius harmonics of the composed integrand decay like 0.2^n, so a
    # small angular grid suffices; radial resolution is the binding side.
    rule = quadrature.build_tau_rule(
        radial_order=56, angular_count=24, shell_eps=0.05, r1_range=_TAU_R1_RANGE, r2_range=_TAU_R2_RANGE
    )
    rng = _rng(seed, 1000)
    automorphisms = [random_automorphism(rng, max_center=_TAU_CENTER_CAP) for _ in range(20)]
    for case, psi in (("bump mass", None), ("automorphism 0 tie", automorphisms[0])):
        full = quadrature.integrate_tau(_bump, rule, automorphism=psi).real
        res.row(case, _factored_tau_mass(rule, psi), full, 1e-12)  # one grid, two summation orders
    base = _factored_tau_mass(rule)
    moved = [_factored_tau_mass(rule, psi) for psi in automorphisms]
    for idx, mass in enumerate(moved):
        res.row(f"automorphism {idx}", base, mass)
    worst = float(np.max(np.abs(np.subtract(moved, base))))
    res.check(worst <= 1e-6, f"tau invariance discrepancy {worst:.2e}")
    return res


SUITES = {
    "normalization": suite_normalization,
    "monomials": suite_monomials,
    "kernel-agreement": suite_kernel_agreement,
    "reproducing": suite_reproducing,
    "kernel-estimate": suite_kernel_estimate,
    "critical-range": suite_critical_range,
    "schur-feasibility": suite_mode_norm,
    "blowup": suite_blowup,
    "projection": suite_projection,
    "szego": suite_szego,
    "hardy-limit": suite_hardy_limit,
    "isometries": suite_isometries,
    "t-split": suite_tsplit,
    "tau-invariance": suite_tau_invariance,
}


def run_suite(name, seed=0, **kwargs):
    """Run one suite; DomainError for a seed not a non-negative integer."""
    quadrature._check_seed(seed)
    return SUITES[name](seed=seed, **kwargs)


def run_all(seed=0):
    """Run every suite at its own fixed bounds; returns the list of
    results in registry order.  A seed that is not a non-negative integer
    raises DomainError before any suite runs."""
    quadrature._check_seed(seed)
    results = []
    for name in SUITES:
        try:
            results.append(run_suite(name, seed=seed))
        except Exception as exc:  # surface the failure, keep going
            results.append(SuiteResult(name, False, [], f"crashed: {exc}"))
    return results
