"""Coefficient-space representation of functions on the triangle and all norms.

Holomorphic functions on the Hartogs triangle expand as Laurent series

    f(z1, z2) = sum_{j >= 0} sum_k a_{jk} z1^j z2^k,

and membership in every space of the one-parameter family is a weighted
square-summability condition on the coefficients.  This module holds the
family parameter (SpaceParam, which decides the regime of nu for the
whole library and whose ``norm_sq`` is the norm of every space of the
family), the coefficient containers, the index set I_nu, the
Gamma moment of a monomial that every closed norm and projection
coefficient reads (two Pochhammer tables per space, ``_pochhammer_weight``), and
the three-way split feeding the multiplier T, with its star norm's sharp constants.

Out-of-space inputs produce the +inf sentinel rather than an error: the
divergence of a norm is a mathematical outcome that callers test for.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError

__all__ = [
    "SpaceParam",
    "LaurentCoeffs",
    "MixedPoly",
    "TorusSeries",
    "as_mixed",
    "conj_product",
    "monomial_norm_sq",
    "split_f123",
    "t_norm_sq",
    "star_norm",
]


SNAP_TOL = 1e-12
_DEPTH = 1 << 17  # entries of a weight table, 1 MiB of doubles; t-split reads j = 40,000
_RANGES = {"bergman": "nu > -1", "weighted-dirichlet": "-2 < nu < -1"}


@dataclass(frozen=True)
class SpaceParam:
    """The family parameter nu in [-2, inf), the one place its regime is decided.

    Construction snaps nu within SNAP_TOL = 1e-12 onto -2, -1 and the
    even integers, so that float inputs such as 2.0000000000001 land in
    one regime for every module; ``nu`` holds the snapped value.  Every regime branch
    (``kind``), every shift ceil(nu/2) (``ceil``), the index set I_nu
    (``member``) and the coefficient weight of the space (``weight``,
    ``norm_sq``) are read from here.  Raises DomainError for nu below -2
    or not finite.
    """

    nu: float

    def __post_init__(self):
        nu = self.nu
        if math.isfinite(nu):
            for special in (-2.0, -1.0, 2.0 * round(0.5 * nu)):
                if abs(nu - special) < SNAP_TOL:
                    object.__setattr__(self, "nu", special)
                    break
        if not (math.isfinite(self.nu) and self.nu >= -2.0):
            raise DomainError(f"the space family needs finite nu >= -2, got {nu}")

    @property
    def kind(self):
        if self.nu > -1.0:
            return "bergman"
        if self.nu == -1.0:
            return "hardy"
        if self.nu > -2.0:
            return "weighted-dirichlet"
        return "dirichlet"

    @property
    def ceil(self):
        """ceil(nu/2); every closed form carries the shift 1 + ceil(nu/2)."""
        return math.ceil(0.5 * self.nu)

    @property
    def b1(self):
        """nu/2 + 1 - ceil(nu/2) in (0, 1], the kernel 2F1's gamma and the w2 axis's beta + 1, once
        rounded: (nu/2 - ceil(nu/2)) + 1 drops a small nu's digits, nu/2 + (1 - ceil(nu/2)) reads 0 at 2^54."""
        return math.fsum((0.5 * self.nu, 1.0, -self.ceil))

    def require(self, kind, who):
        """Return self, or raise DomainError naming ``who`` if nu is not in
        the ``kind`` regime."""
        if self.kind != kind:
            raise DomainError(f"{who} requires {_RANGES[kind]}, got {self.nu}")
        return self

    def nondegenerate(self):
        """Return self, or raise DomainError at nu = -4/3 (within SNAP_TOL), where
        the weighted Dirichlet pairing degenerates: every weight at j + k = -1
        is 0 there (a pole of Gamma(j+k+3nu/2+3)), and the kernel's Gamma
        constant a_nu has a pole."""
        if abs(self.nu + 4.0 / 3.0) < SNAP_TOL:
            raise DomainError(f"the weighted Dirichlet pairing degenerates at nu = -4/3, got {self.nu}")
        return self

    def member(self, j, k):
        """Membership of (j, k) in I_nu = {j >= 0, j + k + nu/2 + 2 > 0},
        i.e. j >= 0 and j + k >= -1 - ceil(nu/2); elementwise on arrays."""
        return (j >= 0) & (j + k >= -1 - self.ceil)

    def weight(self, j, k):
        """Coefficient weight of z1^j z2^k in the pairing of the space.

        The Gamma form u(j) R(j+k+1) of ``_pochhammer_weight`` for nu > -2 (1 at
        nu = -1; DomainError beyond the double range or past depth _DEPTH) and
        (j+1)(j+k+1) at nu = -2; +inf outside I_nu.  Below nu = -4/3 the weights
        at j + k = -1 are negative and the pairing is indefinite; at nu = -4/3
        (within SNAP_TOL) it degenerates and DomainError is raised
        (``nondegenerate``).  The kernel's Laurent coefficient of
        (z1 conj(w1))^j (z2 conj(w2))^k is 1 / weight(j, k), signed alike.

        nu = -2 is not a continuity point: Gamma(nu+2) Gamma(3nu/2+3) has a
        double pole there, and (3/2) eps^2 weight(j, k) at nu = -2 + eps
        tends to j(j+k), not to (j+1)(j+k+1) (to 0 when j = 0 or j+k = 0,
        and to -3j at j+k = -1).
        """
        if self.kind == "dirichlet":
            return (j + 1.0) * (j + k + 1.0) if self.member(j, k) else math.inf
        if "_weight" not in self.__dict__:  # the space's table read, looked up once per instance
            self.__dict__["_weight"] = _pochhammer_weight(self.nondegenerate().nu + 2.0, self.ceil, self.b1)
        return self.__dict__["_weight"](j, k)

    def norm_sq(self, f):
        """The squared norm sum weight(j, k) |a_jk|^2 of a Laurent polynomial
        in the space: the Gamma moments for nu > -1, the Parseval sum at
        nu = -1, the Dirichlet sum at nu = -2, and for -2 < nu < -1 the
        signed D_nu pairing, which is negative on some supports below
        nu = -4/3.  +inf if the support leaks outside I_nu; DomainError at
        nu = -4/3, where the pairing degenerates, or if an |a|^2 or the sum overflows."""
        return _weighted_sum(self.nondegenerate().weight, f)


def _weighted_sum(weight, f):
    """sum weight(j, k) |a_jk|^2 of ``norm_sq``: +inf at the first +inf weight."""
    total = 0.0
    try:
        for (j, k), a in f.items():
            w = weight(j, k)
            if math.isinf(w):
                return math.inf
            total += w * abs(a) ** 2
    except OverflowError as exc:
        raise DomainError("a squared coefficient |a|^2 leaves the double range") from exc
    if not math.isfinite(total):  # +inf is the sentinel of a support outside I_nu
        raise DomainError("a weighted sum of |a|^2 leaves the double range")
    return total


def _space(nu):
    """nu as its SpaceParam; a SpaceParam passes through, so a caller that
    has already built one does not build it again."""
    return nu if isinstance(nu, SpaceParam) else SpaceParam(nu)


class _CoeffMap:
    """Finite complex coefficient map on integer pairs, value semantics."""

    __slots__ = ("terms",)
    _key_names = ("j", "k")

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, val in dict(terms).items():
                key = tuple(map(int, key))
                self._check_key(key)
                val = complex(val)
                if not cmath.isfinite(val):
                    raise DomainError(f"coefficient {dict(zip(self._key_names, key))} is not finite: {val}")
                if val != 0.0:
                    data[key] = val
        self.terms = data

    def items(self):
        """Deterministic (sorted) iteration over (key, coefficient)."""
        return sorted(self.terms.items())

    def get(self, key, default=0.0j):
        return self.terms.get(tuple(key), default)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"{type(self).__name__}({{{body}}})"

    def to_json(self):
        return {"terms": [{**dict(zip(self._key_names, key)), "re": v.real, "im": v.imag} for key, v in self.items()]}

    @classmethod
    def from_json(cls, obj):
        """The map of a {"terms": [{<index names>, "re", "im"}, ...]} document.

        A missing key raises KeyError and a container of the wrong kind
        (``terms`` not a list, say) TypeError or AttributeError; an index
        that is not an integral number or a coefficient part that is not a
        finite number, a boolean included, raises DomainError.
        """
        names = cls._key_names
        terms = {}
        rows = obj["terms"]
        if not isinstance(rows, list):
            raise TypeError(f"terms must be a list, got {type(rows).__name__}")
        for row in rows:
            index, re, im = [row[name] for name in names], row["re"], row.get("im", 0.0)
            try:
                if any(isinstance(x, bool) for x in (*index, re, im)):
                    raise ValueError("true and false are not numbers")  # int() and complex() read them as 1, 0
                key = tuple(int(x) for x in index)
                if key != tuple(index):  # 1.5 or "1" would pass int() silently
                    raise ValueError(f"index {index} is not integral")
                coef = complex(re, im)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DomainError(f"term {row}: indices must be integers and re, im numbers ({exc})") from exc
            terms[key] = terms.get(key, 0.0j) + coef
        return cls(terms)


class LaurentCoeffs(_CoeffMap):
    """Finite map (j >= 0, k in Z) -> coefficient of z1^j z2^k."""

    def _check_key(self, key):
        if len(key) != 2 or key[0] < 0:
            raise DomainError(f"Laurent key needs j >= 0, got {key}")


class TorusSeries(_CoeffMap):
    """Finite map (j, k) in Z^2 -> Fourier coefficient on the 2-torus."""

    def _check_key(self, key):
        if len(key) != 2:
            raise DomainError(f"torus key must be a pair, got {key}")


class MixedPoly(_CoeffMap):
    """Finite sum of monomials z1^a conj(z1)^b z2^c conj(z2)^d.

    a, b >= 0 while c, d range over Z; these are the natural
    non-holomorphic test inputs for the projection operators.
    """

    _key_names = ("a", "b", "c", "d")

    def _check_key(self, key):
        if len(key) != 4 or key[0] < 0 or key[1] < 0:
            raise DomainError(f"mixed key needs a, b >= 0, got {key}")


def as_mixed(f):
    """A Laurent or mixed polynomial as a MixedPoly: z1^j z2^k is the mixed
    monomial (j, 0, k, 0)."""
    if isinstance(f, LaurentCoeffs):
        return MixedPoly({(j, 0, k, 0): a for (j, k), a in f.items()})
    return f


def conj_product(f, g):
    """The product f conj(g) of two Laurent or mixed polynomials as one MixedPoly.

    conj(z1^a conj(z1)^b z2^c conj(z2)^d) swaps a with b and c with d, so
    the pair of terms (a, b, c, d), (a', b', c', d') lands on the key
    (a + b', b + a', c + d', d + c').
    """
    terms, g_terms = {}, as_mixed(g).items()
    for (a, b, c, d), x in as_mixed(f).items():
        for (a2, b2, c2, d2), y in g_terms:
            key = (a + b2, b + a2, c + d2, d + c2)
            terms[key] = terms.get(key, 0.0j) + x * y.conjugate()
    return MixedPoly(terms)


@functools.lru_cache(maxsize=64)
def _pochhammer_weight(d, ceil, b1):
    """The Gamma-form weight (j, k) -> u(j) R(n), n = j+k+1, of the space d = nu + 2, ceil = ceil(nu/2), b1 =
    ``SpaceParam.b1``; +inf outside I_nu.  u(j) = j! / (d)_j, R(1) = 1, R(n+1) / R(n) = ((n + ceil) + b1) / ((n-1) + 1.5 d):
    read-only running-product tables, each continued when a read goes deeper, so no value depends on earlier reads.
    R runs up from n = 1 and down to n = -ceil, where (n + ceil) + b1 = b1 keeps the digits d drops next to Gamma's
    pole.  DomainError if j or 1 - n reaches _DEPTH, or if u(j) or the weight is not a normal double."""
    c, t, tables = float(ceil), 1.5 * d, [memoryview(np.ones(1))] * 3  # the tables of u(i), R(1 + i), R(1 - i)
    ratios = (lambda i: i / ((i - 1.0) + d), lambda i: ((i + c) + b1) / ((i - 1.0) + t), lambda i: (t - i) / (((1.0 + c) - i) + b1))

    def entry(which, i):
        table = tables[which]
        if i >= len(table):
            if i >= _DEPTH:
                raise DomainError(f"a monomial weight needs a table of depth {i} >= {_DEPTH}")
            grown = np.empty(min(max(i + 1, 2 * len(table), 64), _DEPTH))
            grown[: len(table)] = table
            with np.errstate(all="ignore"):  # R(1 - i) past i = 1 + ceil is never read
                grown[len(table) :] = ratios[which](np.arange(len(table), grown.size, dtype=float))
                np.multiply.accumulate(grown[len(table) - 1 :], out=grown[len(table) - 1 :])
            table = tables[which] = memoryview(grown).toreadonly()
        return table[i]

    def weight(j, k):
        n = j + k + 1
        if j < 0 or n < -ceil:
            return math.inf
        u = entry(0, j)
        w = u * (entry(1, n - 1) if n > 0 else entry(2, 1 - n))
        if not (2.0**-1022 <= min(u, abs(w)) and abs(w) < math.inf):  # u and w normal doubles
            raise DomainError(f"the weight of z1^{j} z2^{k} leaves the double range")
        return w

    return weight


def monomial_norm_sq(nu, j, k):
    """Squared A^2_nu norm of z1^j z2^k for nu > -1; +inf outside I_nu.

    At nu = 0 this reduces to 2 / ((j+1)(j+k+2)).
    """
    return SpaceParam(nu).require("bergman", "monomial_norm_sq").weight(j, k)


def split_f123(f):
    """Three-way coefficient split feeding the multiplier operator T.

    Returns (f1, f2, f3, a00) where

        f1 = sum_{j>=1, k != -j} j (j+k) a_{jk} z1^j z2^(k-1),
        f2 = sum_{k != 0}        k a_{0k}      z2^(k-1),
        f3 = sum_{j>=1}          j a_{j,-j}    z1^j z2^(-j-1),

    and a00 is the constant coefficient, returned separately.
    """
    t1, t2, t3 = {}, {}, {}
    a00 = 0.0j
    for (j, k), a in f.items():
        if j == 0 and k == 0:
            a00 = a
        elif j == 0:
            t2[(0, k - 1)] = k * a
        elif k == -j:
            t3[(j, -j - 1)] = j * a
        else:
            t1[(j, k - 1)] = j * (j + k) * a
    return LaurentCoeffs(t1), LaurentCoeffs(t2), LaurentCoeffs(t3), a00


def t_norm_sq(nu, f_i):
    """Exact squared L^2_nu norm of T f_i, any of the three split parts.

    T multiplies by |z2| (1 - |z1/z2|^2)(1 - |z2|^2), and in pullback
    coordinates |T|^2 dmu_nu = r_nu dmu_{nu+2}, with c_nu = 2^(nu/2) C_nu
    the density constant of mu_nu and the rational ratio

        r_nu = c_nu / c_{nu+2} = (2/3) (nu+1)^2 (nu/2+2) / ((nu+3)(3nu/2+4)(3nu/2+5)),

    1/3 at nu = -2 and 0 at nu = -1.  So ||T f_i||^2 is r_nu times the
    squared A^2_{nu+2} norm, +inf if the support leaks outside I_{nu+2}.
    ``nu`` is a float or its SpaceParam; nu < -2, nu > 1e102 on a nonempty
    part, or a |c|^2 or a sum outside the double range, raises DomainError.
    """
    sp = _space(nu)
    nu, total = sp.nu, _weighted_sum(_pochhammer_weight((sp.nu + 2.0) + 2.0, sp.ceil + 1, sp.b1), f_i)
    if total in (0.0, math.inf):  # an empty part or the sentinel, read before r_nu
        return total
    if nu > 1e102:  # the denominator of r_nu overflows from nu = 4.3e102
        raise DomainError(f"the T-norm of a nonempty part needs nu <= 1e102, got {nu:g}")
    r = (2.0 / 3.0) * (nu + 1.0) ** 2 * (0.5 * nu + 2.0) / ((nu + 3.0) * (1.5 * nu + 4.0) * (1.5 * nu + 5.0))
    return r * total


def star_norm(nu, f):
    """|a00| + sum_i || T f_i ||_{L^2_nu}; +inf on any divergent part.

    For nu > -1 this is the equivalent Bergman-space norm (``_star_constants``),
    for -2 < nu < -1 it defines the weighted Dirichlet space and at nu = -2
    the Dirichlet space.  The Hardy space nu = -1 has no such norm: r_nu
    = 0 there (see ``t_norm_sq``), so the sum would read |a00| for every
    f.  nu = -1 and nu < -2 raise DomainError.
    """
    sp = SpaceParam(nu)
    if sp.kind == "hardy":
        raise DomainError("star_norm has no T-split form at nu = -1, the Hardy space")
    f1, f2, f3, a00 = split_f123(f)
    total = abs(a00)
    for part in (f1, f2, f3):
        sq = t_norm_sq(sp, part)
        if math.isinf(sq):
            return math.inf
        total += math.sqrt(max(sq, 0.0))
    return total


def _star_ratio(nu, j, n):
    """star^2 / ||.||^2 of z1^j z2^(n-j), nu > -1, or its limit as j or n -> inf: 1 at the constant,
    else ((nu+1)(nu+2))^2 g(j, nu+2) g(n, 3nu/2+3), g(x, s) = max(x^2, 1) / ((x+s)(x+s+1))."""
    g = lambda x, s: 1.0 / ((1.0 + s / x) * (1.0 + (s + 1.0) / x)) if x else 1.0 / (s * (s + 1.0))
    return 1.0 if j == n == 0 else ((nu + 1.0) * (nu + 2.0)) ** 2 * g(j, nu + 2.0) * g(n, 1.5 * nu + 3.0)


def _star_constants(nu):
    """(c^2, S1, S2, S3), sharp in c ||f|| <= star(f) <= (1 + S1 + S2 + S3)^(1/2) ||f|| for nu > -1.

    c^2 is the least ``_star_ratio``, at z1.  S_p is its supremum on the piece f_p
    of ``split_f123`` (Cauchy-Schwarz over a00, f1, f2, f3 gives C): g tends to 1
    from below, but may exceed 1 at an n < 0 of I_nu, as (0, -2) attains S2 at nu = 0.1."""
    sp = SpaceParam(nu).require("bergman", "the T-split equivalence")
    ns = (math.inf, *range(-1, -2 - sp.ceil, -1))  # the limit and every n < 0 of I_nu
    s1, s2 = (max(_star_ratio(sp.nu, j, n) for n in ns) for j in (math.inf, 0))
    return _star_ratio(sp.nu, 1, 1), s1, s2, _star_ratio(sp.nu, math.inf, 0)


def evaluate_grid(f, z1, z2):
    """Laurent evaluation at scalar coordinates or elementwise over numpy arrays."""
    total = 0.0
    for (j, k), a in f.items():
        total = total + a * z1**j * z2**k
    return total
