"""The numerical helpers of the verify suites against their plain definitions."""

import cmath
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hartogs import cli, coeffspace, isometries, kernels, projections, quadrature, verify
from hartogs.coeffspace import LaurentCoeffs, MixedPoly, TorusSeries
from hartogs.geometry import DiscAutomorphism, HartogsAutomorphism, HartogsPoint, random_automorphism
from hartogs.specfun import DomainError
from hartogs.verify import (
    _REGIMES,
    _TAU_CENTER_CAP,
    _TAU_R1_RANGE,
    _TAU_R2_RANGE,
    _bump,
    _circle_sup,
    _factored_tau_mass,
    _random_coords,
    _random_laurent,
    _random_mixed,
    _random_pairs,
    _torus_samples,
)


def three_call_point(rng, r2_range=(0.25, 0.9), ratio_max=0.85):
    """A point by three Generator.uniform calls: the reference that the one-call
    draws of _random_coords and _random_pairs must equal, draw for draw."""
    rho = rng.uniform(*r2_range)
    ratio = math.sqrt(rng.uniform(0.0, 1.0)) * ratio_max
    ang1, ang2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    z2 = rho * cmath.exp(1j * ang2)
    return HartogsPoint(ratio * z2 * cmath.exp(1j * ang1), z2)


def member_per_candidate_laurent(rng, nu, n_terms=6, jmax=4, kmax=4):
    """_random_laurent building a SpaceParam for each candidate: the
    reference for the hoisted SpaceParam."""
    terms = {}
    kmin_base = -1 - coeffspace.SpaceParam(nu).ceil
    while len(terms) < n_terms:
        j = int(rng.integers(0, jmax + 1))
        k = int(rng.integers(max(kmin_base - j, -jmax - 4), kmax + 1))
        if coeffspace.SpaceParam(nu).member(j, k):
            terms[(j, k)] = complex(rng.normal(), rng.normal())
    scale = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return LaurentCoeffs({key: a / scale for key, a in terms.items()})


def member_per_candidate_mixed(rng, nu, n_terms=4, max_exp=3):
    """_random_mixed testing each candidate for integrability and for
    membership, by a SpaceParam built per candidate."""
    terms = {}
    while len(terms) < n_terms:
        a = int(rng.integers(0, max_exp + 1))
        b = int(rng.integers(0, max_exp + 1))
        c = int(rng.integers(-2, max_exp + 1))
        d = int(rng.integers(0, max_exp + 1))
        if not 2 * a + 2 * b + c + d + nu + 4.0 > 0.0:
            continue
        if a >= b and coeffspace.SpaceParam(nu).member(a - b, c - d):
            if not a + c + 0.5 * nu + 2.0 > 0.0:
                continue
        terms[(a, b, c, d)] = complex(rng.normal(), rng.normal())
    return MixedPoly(terms)


class TestRandomPairs:
    @pytest.mark.parametrize("seed", [0, 31])
    def test_equals_z_then_w_three_call_draws(self, seed):
        """_random_pairs(rng, n) reads the uniforms of n z-then-w point draws, in order."""
        got_rng, ref_rng = np.random.default_rng([seed, 101]), np.random.default_rng([seed, 101])
        for count in (1, 7, 100):
            z, w = _random_pairs(got_rng, count)
            ref = [three_call_point(ref_rng) for _ in range(2 * count)]
            for got, points in ((z, ref[::2]), (w, ref[1::2])):
                assert np.max(np.abs(got.z1 - np.array([p.z1 for p in points]))) <= 1e-15
                assert np.max(np.abs(got.z2 - np.array([p.z2 for p in points]))) <= 1e-15
        # both streams end at the same state
        assert got_rng.random() == ref_rng.random()


class TestRandomPoint:
    """One-point draws _random_coords(rng, 1, ...), as the kernel-estimate
    spots take them, point by point."""

    # the three argument sets of the suites: kernel-agreement, reproducing, kernel-estimate
    ARGUMENTS = [{}, {"r2_range": (0.3, 0.8), "ratio_max": 0.8}, {"r2_range": (0.8, 0.95), "ratio_max": 0.95}]

    @pytest.mark.parametrize("kwargs", ARGUMENTS)
    @pytest.mark.parametrize("seed", [0, 31])
    def test_equals_the_three_call_draw(self, kwargs, seed):
        got_rng, ref_rng = np.random.default_rng([seed, 101]), np.random.default_rng([seed, 101])
        for _ in range(1000):
            (z1,), (z2,) = _random_coords(got_rng, 1, **kwargs)
            ref = three_call_point(ref_rng, **kwargs)
            assert abs(z1 - ref.z1) <= 1e-15 and abs(z2 - ref.z2) <= 1e-15
        # both streams end at the same state
        assert got_rng.random() == ref_rng.random()


class TestRandomCoords:
    """The reproducing suite reads its points as arrays, 20 a call."""

    ARGUMENTS = [{"r2_range": (0.25, 0.9), "ratio_max": 0.85}] + TestRandomPoint.ARGUMENTS[1:]

    @pytest.mark.parametrize("kwargs", ARGUMENTS)
    @pytest.mark.parametrize("seed", [0, 31])
    def test_equals_the_three_call_draws(self, kwargs, seed):
        got_rng, ref_rng = np.random.default_rng([seed, 200]), np.random.default_rng([seed, 200])
        for _ in range(50):
            z1, z2 = _random_coords(got_rng, 20, **kwargs)
            ref = [three_call_point(ref_rng, **kwargs) for _ in range(20)]
            assert np.max(np.abs(z1 - np.array([p.z1 for p in ref]))) <= 1e-15
            assert np.max(np.abs(z2 - np.array([p.z2 for p in ref]))) <= 1e-15
        assert got_rng.random() == ref_rng.random()


class TestRandomPolynomials:
    @pytest.mark.parametrize("nu", _REGIMES + (-1.0 + 1e-4, 1.0))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_laurent_equals_the_per_candidate_reference(self, nu, seed):
        for kwargs in ({}, {"n_terms": 5}, {"n_terms": 6, "jmax": 6, "kmax": 6}):
            got_rng, ref_rng = np.random.default_rng([seed, 200]), np.random.default_rng([seed, 200])
            for _ in range(10):
                got = _random_laurent(got_rng, nu, **kwargs)
                assert got.terms == member_per_candidate_laurent(ref_rng, nu, **kwargs).terms
            assert got_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_mixed_equals_the_per_candidate_reference(self, seed):
        got_rng, ref_rng = np.random.default_rng([seed, 500]), np.random.default_rng([seed, 500])
        for nu in (-0.5, 0.0, 0.7, 2.0):
            for _ in range(20):
                assert _random_mixed(got_rng).terms == member_per_candidate_mixed(ref_rng, nu).terms
        assert got_rng.random() == ref_rng.random()


def plain_bump(z1, z2):
    """The plain array expression of _bump, one temporary per operation:
    the reference its in-place evaluation must equal bit for bit."""
    r2 = z2.real**2 + z2.imag**2
    x = (z1.real**2 + z1.imag**2) / r2
    y = np.sqrt(r2)
    w1 = np.maximum((x - 0.09) * (0.3025 - x), 0.0) / (0.5 * (0.3025 - 0.09)) ** 2
    w2 = np.maximum((y - 0.25) * (0.9 - y), 0.0) / (0.5 * (0.9 - 0.25)) ** 2
    t = w1 * w2
    t = t * t * t
    t = t * t
    return t * t


def bump_formula(z1, z2):
    """The formula of _bump's docstring in np.longdouble, and its condition
    number: the relative change of the bump per relative change of x or y."""
    ld = np.longdouble
    r2 = np.asarray(z2.real, dtype=ld) ** 2 + np.asarray(z2.imag, dtype=ld) ** 2
    x = (np.asarray(z1.real, dtype=ld) ** 2 + np.asarray(z1.imag, dtype=ld) ** 2) / r2
    y = np.sqrt(r2)
    w1 = np.clip(4 * (x - ld("0.09")) * (ld("0.3025") - x) / ld("0.2125") ** 2, 0, None)
    w2 = np.clip(4 * (y - ld("0.25")) * (ld("0.9") - y) / ld("0.65") ** 2, 0, None)
    with np.errstate(divide="ignore"):
        cond = 12 * (
            np.abs(x * (1 / (x - ld("0.09")) - 1 / (ld("0.3025") - x)))
            + np.abs(y * (1 / (y - ld("0.25")) - 1 / (ld("0.9") - y)))
        )
    return (w1**12 * w2**12).astype(float), cond.astype(float)


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    z2 = rng.uniform(0.05, 0.99, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    ratio = rng.uniform(0.0, 0.99, count)
    return z2 * ratio * np.exp(2j * np.pi * rng.uniform(size=count)), z2, ratio


class TestBump:
    def test_matches_its_formula(self):
        """1e-14 relative, times the condition number, which grows without
        bound at the edges of the support, where the factors (x - 0.09) etc.
        cancel and an ulp of x is amplified 12-fold per power."""
        z1, z2, _ = random_pairs(3, 20_000)
        ref, cond = bump_formula(z1, z2)
        inside = ref > 0.0
        assert inside.sum() > 3000
        got = _bump(z1, z2)
        assert np.all(np.abs(got[inside] - ref[inside]) <= 1e-14 * (1.0 + cond[inside]) * ref[inside])

    def test_exactly_zero_off_its_support(self):
        z1, z2, ratio = random_pairs(4, 4000)
        outside = (ratio <= 0.3) | (ratio >= 0.55) | (np.abs(z2) <= 0.25) | (np.abs(z2) >= 0.9)
        assert outside.sum() > 2000
        assert np.all(_bump(z1, z2)[outside] == 0.0)


    def test_equals_the_plain_expression(self):
        z1, z2, ratio = random_pairs(6, 20_000)
        z1[:50] = 0.0
        inside = (ratio > 0.3) & (ratio < 0.55) & (np.abs(z2) > 0.25) & (np.abs(z2) < 0.9)
        assert inside.sum() > 3000 and (~inside).sum() > 3000
        assert np.array_equal(_bump(z1, z2), plain_bump(z1, z2))

    @staticmethod
    def chunk_grids(rows=3, m=8, n2=5):
        """A chunk of r1 rows and the shared w2 grid, on _tensor_sum's axes
        (i1, theta, i2, gamma)."""
        e = np.exp(2j * np.pi * np.arange(m) / m)
        w1 = np.linspace(0.1, 0.8, rows)[:, None, None, None] * e[None, :, None, None]
        w2 = np.linspace(0.3, 0.85, n2)[None, None, :, None] * e[None, None, None, :]
        return w1, w2

    def test_broadcasts_a_chunk_grid_against_the_w2_grid(self):
        w1, w2 = self.chunk_grids()
        for z1, z2 in ((w1 * w2, w2), (w1, w2)):
            got = _bump(z1, z2)
            assert got.shape == (3, 8, 5, 8) and got.dtype == np.float64
            assert np.array_equal(got, plain_bump(z1, z2))

    def test_leaves_its_inputs_unchanged(self):
        w1, w2 = self.chunk_grids()
        z1, z2, _ = random_pairs(7, 1000)
        for a, b in ((w1 * w2, w2), (w1, w2), (z1, z2)):
            a_before, b_before = a.copy(), b.copy()
            _bump(a, b)
            assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    def test_tau_integrals_repr_identical_to_the_plain_expression(self):
        rule = quadrature.build_tau_rule(
            radial_order=56, angular_count=24, shell_eps=0.05, r1_range=_TAU_R1_RANGE, r2_range=_TAU_R2_RANGE
        )
        for seed in range(3):
            psi = random_automorphism(np.random.default_rng(seed), max_center=_TAU_CENTER_CAP)
            got = quadrature.integrate_tau(_bump, rule, automorphism=psi)
            assert repr(got) == repr(quadrature.integrate_tau(plain_bump, rule, automorphism=psi))


def suite_tau_rule():
    return quadrature.build_tau_rule(
        radial_order=56, angular_count=24, shell_eps=0.05, r1_range=_TAU_R1_RANGE, r2_range=_TAU_R2_RANGE
    )


class TestFactoredTau:
    """The tau-invariance suite's product of two disc sums against the
    black-box 4-D sum of ``integrate_tau`` on the same rule: the same
    grid summed in another order, so 1e-12 relative."""

    @staticmethod
    def assert_ties(rule, psi):
        full = quadrature.integrate_tau(_bump, rule, automorphism=psi).real
        assert _factored_tau_mass(rule, psi) == pytest.approx(full, rel=1e-12, abs=0.0)

    def test_identity(self):
        rule = suite_tau_rule()
        self.assert_ties(rule, None)
        self.assert_ties(rule, HartogsAutomorphism(DiscAutomorphism(0.0j, 1.0), 1.0))

    def test_pure_rotation(self):
        self.assert_ties(suite_tau_rule(), HartogsAutomorphism(DiscAutomorphism(0.0j, np.exp(0.9j)), np.exp(0.4j)))

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_automorphism(self, seed):
        psi = random_automorphism(np.random.default_rng([seed, 27]), max_center=_TAU_CENTER_CAP)
        self.assert_ties(suite_tau_rule(), psi)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(0.0, _TAU_CENTER_CAP),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_any_automorphism_in_the_cap(self, radius, center_angle, lam_angle, c_angle):
        psi = HartogsAutomorphism(
            DiscAutomorphism(radius * cmath.exp(1j * center_angle), cmath.exp(1j * lam_angle)), cmath.exp(1j * c_angle)
        )
        self.assert_ties(suite_tau_rule(), psi)

    def test_suite_fails_when_the_factored_route_skips_the_disc_map(self, monkeypatch):
        factored = verify._factored_tau_mass
        monkeypatch.setattr(verify, "_factored_tau_mass", lambda rule, automorphism=None: factored(rule))
        res = verify.run_suite("tau-invariance", seed=0)
        assert not res.passed and "automorphism 0 tie" in res.message


class TestTorusSamples:
    def test_monomials_match_the_root_table(self):
        """z1^j z2^k, |j|, |k| <= 32, on the 133-point grid against the exact
        table roots[(j p) % n] roots[(k q) % n]."""
        degree, n = 32, 133
        roots, grid = np.exp(2j * np.pi * np.arange(n) / n), np.arange(n)
        for j in range(-degree, degree + 1):
            for k in range(-degree, degree + 1):
                ref = roots[(j * grid[:, None]) % n] * roots[(k * grid) % n]
                assert np.max(np.abs(_torus_samples(TorusSeries({(j, k): 1.0}), n) - ref)) <= 1e-12

    def test_empty_series_is_zero(self):
        assert np.all(_torus_samples(TorusSeries({}), 7) == 0.0)


def shift_w2(g, by):
    """g times w2^by, on its coefficients."""
    return LaurentCoeffs({(j, k + by): a for (j, k), a in g.items()})


class TestIsometryRows:
    """The isometry suite reads w2^s f(w1 w2, w2) from its values on the torus:
    a map row per nu ties those coefficients to ``to_bidisc``, a norm row ties
    their bidisc weight to the norm of f."""

    def test_map_row_catches_s_0_at_nu_minus_1_where_the_norm_cannot(self, monkeypatch):
        # both maps with s = 0 at nu = -1: their round trip holds, and |w2| = 1
        # on the torus, so the norm row cannot see the missing factor w2
        to_bidisc, from_bidisc = isometries.to_bidisc, isometries.from_bidisc
        monkeypatch.setattr(
            isometries, "to_bidisc", lambda nu, f: shift_w2(to_bidisc(nu, f), -1) if nu == -1.0 else to_bidisc(nu, f)
        )
        monkeypatch.setattr(
            isometries, "from_bidisc", lambda nu, g: from_bidisc(nu, shift_w2(g, 1)) if nu == -1.0 else from_bidisc(nu, g)
        )
        res = verify.run_suite("isometries", seed=0)
        assert not res.passed and "nu=-1.0 map from values" in res.message
        assert "norm from values" not in res.message
        worst = {case: err for case, _, err, _, _ in res.rows}
        assert worst["nu=-1.0 norm from values"] <= 1e-13

    def test_norm_row_catches_s_0_at_nu_minus_1_5(self, monkeypatch):
        # f o Phi without the factor w2 is no isometry of the weighted Dirichlet space
        cases = tuple((nu, 0 if nu == -1.5 else s) for nu, s in verify._ISOMETRY_CASES)
        monkeypatch.setattr(verify, "_ISOMETRY_CASES", cases)
        res = verify.run_suite("isometries", seed=0)
        assert not res.passed and "nu=-1.5 norm from values" in res.message

    def test_rank_one_row_catches_a_weight_that_does_not_factor(self, monkeypatch):
        # the norm row pairs the table with norm_sq, which reads the same weight,
        # so only the rank-one row sees a weight that is no product in (j, n)
        exact = coeffspace._gamma_weight
        monkeypatch.setattr(coeffspace, "_gamma_weight", lambda nu, j, k: exact(nu, j, k) * (1.0 + 1e-11 * j * (j + k + 1)))
        res = verify.run_suite("isometries", seed=0)
        assert not res.passed and "nu=-1.5 bidisc weight rank one" in res.message
        assert "norm from values" not in res.message

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-2.0, -1.0, exclude_min=True), st.integers(0, 2**32 - 1))
    def test_any_nu_from_minus_2_to_minus_1(self, nu, seed):
        # exact round trips, map and norm from values within 1e-13; nu within
        # 1e-12 of -2 is the Dirichlet space, s = 0
        res = verify.SuiteResult("isometries", True)
        s = 0 if coeffspace.SpaceParam(nu).kind == "dirichlet" else 1
        verify._isometry_rows(res, np.random.default_rng(seed), nu, s)
        assert res.passed, res.message


@pytest.mark.parametrize("shift, reason", [(1e-3, "leaves L^p"), (-1e-3, "log-log slope")])
def test_mode_norm_suite_fails_when_the_endpoint_moves(monkeypatch, shift, reason):
    """p+ moved by 1e-3 relative, and p- = p+' with it: outward the mode leaves
    L^p at delta = 1e-4, inward the slope flattens, so the rows test the
    endpoint instead of restating it."""
    exact = projections.critical_range
    assert verify.run_suite("schur-feasibility").passed

    def moved(nu):
        p_plus = exact(nu).p_plus * (1.0 + shift)
        return projections.CriticalRange(p_plus / (p_plus - 1.0), p_plus)

    monkeypatch.setattr(projections, "critical_range", moved)
    res = verify.run_suite("schur-feasibility")
    assert not res.passed and reason in res.message


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
@pytest.mark.parametrize("index, reason", [(0, "c^2 = ratio at z1"), (1, "C^2 extrapolated")])
def test_t_split_fails_when_a_star_constant_moves(monkeypatch, index, reason, shift):
    """c^2 or S1 scaled by 1 +- 1e-3: the c^2 row and the extrapolated C^2 row
    each catch their constant both ways, so the rows pin the sharp constants
    rather than merely bound the random ratios."""
    exact = coeffspace._star_constants
    assert verify.run_suite("t-split").passed

    def moved(nu):
        constants = list(exact(nu))
        constants[index] *= 1.0 + shift
        return tuple(constants)

    monkeypatch.setattr(coeffspace, "_star_constants", moved)
    res = verify.run_suite("t-split")
    assert not res.passed and reason in res.message


def dense_circle_sup(nu):
    """The max of the profile over 2^16 + 1 angles of |y| = 0.998 in [0, pi], and
    that max refined by 257 angles over +-1 step around its angle: the step,
    4.8e-5, alone leaves 2.2e-10 relative at nu = 3.5, where the sup is interior."""
    theta = np.linspace(0.0, math.pi, 2**16 + 1)
    ratio = kernels.bound_ratio_profile(nu, 0.998 * np.exp(1j * theta))
    i, step = int(np.argmax(ratio)), theta[1] - theta[0]
    near = np.linspace(max(theta[i] - step, 0.0), min(theta[i] + step, math.pi), 257)
    return float(ratio[i]), max(float(ratio[i]), float(np.max(kernels.bound_ratio_profile(nu, 0.998 * np.exp(1j * near)))))


def old_sampled_sup(nu):
    """The sup over the 10^4 boundary-concentrated samples the suite drew at seed 0."""
    rng = verify._rng(0, 300)
    mod = 1.0 - 10.0 ** rng.uniform(-6.0, -0.3, size=10_000)
    y = np.clip(mod, 0.0, 0.998) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=10_000))
    return float(np.max(kernels.bound_ratio_profile(nu, y)))


class TestCircleSup:
    """The kernel-estimate sup, taken on |y| = 0.998 by the maximum modulus principle."""

    def test_at_nu_minus_one_the_profile_is_one_everywhere(self):
        assert _circle_sup(-1.0) == (1.0, 1.0) and kernels.bound_constant(-1.0) == 1.0

    @pytest.mark.parametrize("nu", [-1.5, -0.5, 0.7, 1.3, 3.5, -1.9, -1.0, 0.0, 2.0, 4.0, 5.95, 6.99])
    def test_against_a_dense_circle_and_the_old_samples(self, nu):
        sup, before = _circle_sup(nu)
        grid, refined = dense_circle_sup(nu)
        assert abs(sup - refined) <= 1e-12 * refined, (sup, refined)
        assert grid <= sup * (1.0 + 1e-12) and sup - before <= 1e-12 * sup
        assert old_sampled_sup(nu) <= sup

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-2.0 + 1e-9, 7.0).filter(lambda nu: abs(nu + 4.0 / 3.0) > 1e-3),  # -2 + 1e-12 snaps to -2
        st.floats(0.0, 0.998),
        st.floats(-math.pi, math.pi),
    )
    @example(-1.0, 0.0, 0.0)  # G = 1 exactly at q = nu + 2 = 1; its series read 1 + 6.7e-16 above C* = 1
    def test_no_point_of_the_disc_beats_the_circle(self, nu, modulus, angle):
        sup, _ = _circle_sup(nu)
        inside = float(kernels.bound_ratio_profile(nu, np.array([modulus * cmath.exp(1j * angle)]))[0])
        assert inside <= sup * (1.0 + 1e-12)
        assert sup <= kernels.bound_constant(nu)


def test_kernel_estimate_fails_when_the_constant_shrinks(monkeypatch):
    """C* scaled by 1 - 1e-3 falls below the sup at nu = -0.5, 4.9e-4 under C*."""
    exact = kernels.bound_constant
    assert verify.run_suite("kernel-estimate").passed
    monkeypatch.setattr(kernels, "bound_constant", lambda nu: exact(nu) * (1.0 - 1e-3))
    res = verify.run_suite("kernel-estimate")
    assert not res.passed and "kernel estimate violated at nu=-0.5" in res.message


def test_a_nan_error_fails_its_worst_row():
    """Python's max(0.0, nan) is 0.0, so a worst-of fold dropped a NaN error."""
    res = verify.SuiteResult("any", True)
    res.worst("case", [1e-16, math.nan, 2e-16], 1e-12, "worst row")
    assert not res.passed and math.isnan(res.rows[0][2])


def test_nan_values_fail_the_reproducing_suite(monkeypatch):
    monkeypatch.setattr(coeffspace, "evaluate_grid", lambda f, z1, z2: np.full_like(z1, np.nan))
    res = verify.run_suite("reproducing", nus=(0.7,))
    assert not res.passed and "reproducing identity failed at nu=0.7" in res.message


def test_blowup_rows_are_pinned():
    """The quadrature column of the six blowup rows at 12 significant digits,
    as ``hartogs verify blowup`` prints it.  The two convergent slopes at
    nu = 0 and 2 moved in their last digits when the Gauss-Legendre rule of
    ``_tail_integral`` came from numpy's eigensolver instead of SciPy."""
    res = verify.run_suite("blowup")
    assert res.passed
    assert [(case, cli._fmt(quad)) for case, _, quad, *_ in res.rows] == [
        ("nu=0.0,p=5.0 slope", "-1.00002149866"),
        ("nu=0.7,p=5.0 slope", "-5.30000000244"),
        ("nu=2.0,p=4.0 slope", "-2.00000007999"),
        ("nu=0.0,p=2.0 convergent slope", "-2.17125527806e-09"),
        ("nu=0.7,p=2.0 convergent slope", "-0.000417587683288"),
        ("nu=2.0,p=2.5 convergent slope", "-4.03117734669e-05"),
    ]


def test_suites_take_only_the_seed_and_what_a_verify_flag_sets():
    # --seed and --nu; every bound is a constant of its suite
    for name, suite in verify.SUITES.items():
        assert set(inspect.signature(suite).parameters) <= {"seed", "nus"}, name


class TestSeed:
    """The library refuses a base seed that is not a non-negative integer
    before any suite draws from it."""

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, "0"])
    def test_run_all_refuses_before_any_suite_runs(self, monkeypatch, seed):
        ran = []
        monkeypatch.setattr(verify, "SUITES", {name: lambda seed, name=name: ran.append(name) for name in verify.SUITES})
        with pytest.raises(DomainError, match="non-negative integer"):
            verify.run_all(seed)
        assert ran == []

    @pytest.mark.parametrize("name", sorted(verify.SUITES))
    def test_run_suite_refuses_a_negative_seed(self, name):
        with pytest.raises(DomainError, match="non-negative integer"):
            verify.run_suite(name, seed=-1)

    def test_numpy_integer_seed_is_taken(self):
        assert verify.run_suite("critical-range", seed=np.int64(3)).passed
