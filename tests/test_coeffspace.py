"""Coefficient containers, index sets and all space norms."""

import math
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import coeffspace, kernels, projections, quadrature
from hartogs.coeffspace import (
    LaurentCoeffs,
    MixedPoly,
    SpaceParam,
    TorusSeries,
    _pochhammer_weight,
    _star_constants,
    _star_ratio,
    as_mixed,
    conj_product,
    evaluate_grid,
    monomial_norm_sq,
    split_f123,
    star_norm,
    t_norm_sq,
)
from hartogs.geometry import HartogsPoint
from hartogs.specfun import DomainError
from hartogs.verify import _random_laurent, _random_mixed, _t_multiplier_rule


def _t_sq(f):
    """The black-box |T f|^2: the T multiplier evaluated point by point."""
    fn = quadrature.as_grid_fn(f)

    def t_sq(z1, z2):
        ratio2 = np.abs(z1 / z2) ** 2
        mod2 = np.abs(z2)
        return (mod2 * (1 - ratio2) * (1 - mod2**2) * np.abs(fn(z1, z2))) ** 2

    return t_sq


class TestSpaceParam:
    def test_regime_classification(self):
        assert SpaceParam(0.5).kind == "bergman"
        assert SpaceParam(-1.0).kind == "hardy"
        assert SpaceParam(-1.5).kind == "weighted-dirichlet"
        assert SpaceParam(-2.0).kind == "dirichlet"
        with pytest.raises(DomainError):
            SpaceParam(-2.5)

    def test_snap_window(self):
        assert SpaceParam(2.0 + 1e-13).nu == 2.0 and SpaceParam(2.0 + 1e-13).ceil == 1
        assert SpaceParam(2.0 + 1e-11).ceil == 2
        assert SpaceParam(-2.0 - 1e-13).kind == "dirichlet"
        assert math.isinf(SpaceParam(0.0).weight(0, -2))
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                SpaceParam(bad)

    def test_nu_minus_two_is_not_a_continuity_point(self):
        """Gamma(nu+2) Gamma(3nu/2+3) has a double pole at nu = -2, and the
        weight renormalized by it tends to j(j+k) (and -3j at j+k = -1),
        not to the Dirichlet weight (j+1)(j+k+1).  Tolerances fixed before
        the run: 1e-5 relative, or 1e-5 absolute where the limit is 0, at
        eps = 1e-7 (the deviation is O(eps))."""
        eps = 1e-7
        sp = SpaceParam(-2.0 + eps)
        for j in range(4):
            for k in range(-1 - j, 5):
                assert sp.member(j, k)
                renormalized = 1.5 * eps * eps * sp.weight(j, k)
                limit = -3.0 * j if j + k == -1 else float(j * (j + k))
                assert abs(renormalized - limit) <= 1e-5 * max(abs(limit), 1.0)

    def test_gamma_weight_against_mpmath_next_to_minus_two(self):
        """Every Pochhammer ratio of ``_pochhammer_weight`` is formed from d = nu + 2,
        which is exact for nu in [-2, -1], so none is rounded twice next to a pole.
        The bound 5e-14 relative was fixed before the run."""
        with mpmath.workdps(50):
            for nu in (-2.0 + 2e-12, -2.0 + 1e-9, -2.0 + 1e-6, -2.0 + 1e-4, -1.9, -1.5, -1.2, -0.5, 0.7, 3.5):
                x = mpmath.mpf(nu)
                front = mpmath.gamma(x + 2) * mpmath.gamma(1.5 * x + 3) / mpmath.gamma(0.5 * x + 2)
                for j in range(7):
                    for k in range(-1 - j, 7):
                        ref = front * mpmath.gamma(j + 1) * mpmath.gamma(j + k + 0.5 * x + 2)
                        ref /= mpmath.gamma(j + x + 2) * mpmath.gamma(j + k + 1.5 * x + 3)
                        assert abs(SpaceParam(nu).weight(j, k) - ref) <= 5e-14 * abs(ref), (nu, j, k)

    def test_gamma_weight_against_mpmath_just_above_an_even_nu(self):
        """At nu = 2m + 10^-p the Gamma argument j+k+nu/2+2 of the lowest members sits 10^-p / 2
        above a pole; R's lowest ratio reads b1, which keeps the digits that nu + 2 drops:
        5e-14 relative over every member with j, k <= 3, m = 0..4 and p = 3..11."""
        with mpmath.workdps(50):
            for nu in (2.0 * m + 10.0**-p for m in range(5) for p in range(3, 12)):
                x = mpmath.mpf(nu)
                front = mpmath.gamma(x + 2) * mpmath.gamma(1.5 * x + 3) / mpmath.gamma(0.5 * x + 2)
                for j in range(4):
                    for k in range(-1 - math.ceil(nu / 2) - j, 4):
                        ref = front * mpmath.gamma(j + 1) * mpmath.gamma(j + k + 0.5 * x + 2)
                        ref /= mpmath.gamma(j + x + 2) * mpmath.gamma(j + k + 1.5 * x + 3)
                        assert abs(SpaceParam(nu).weight(j, k) - ref) <= 5e-14 * abs(ref), (nu, j, k)

    def test_weight_against_mpmath_up_to_nu_1e15(self):
        """The weight of every member with j <= 6 and n = j + k + 1 from max(1 - N, -6)
        to 7, N = 1 + ceil(nu/2), against 60-digit mpmath, from nu = -2 + 2e-12 to 1e15
        and at the 2m + 10^-p points above: 1e-14 relative, fixed before the run.  The
        log-Gamma route read 3.44e-14 for 3.33e-14 at nu = 1e13, j = 1, and was a factor
        of 900 off at nu = 1e15."""
        nus = [-2.0 + 2e-12, -2.0 + 1e-9, -2.0 + 1e-6, -1.9, -1.5, -1.2, -1.0 + 1e-9, -0.5, 1e-11, 1e-6, 0.7]
        nus += [2.0 + 1e-9, 3.5, 8.0001, 20.7, 100.0, 1e4, 1e6, 1e10, 1e13, 1e15]
        nus += [2.0 * m + 10.0**-p for m in range(5) for p in range(3, 12)]
        with mpmath.workdps(60):
            for nu in nus:
                sp, x = SpaceParam(nu), mpmath.mpf(nu)
                front = mpmath.gamma(x + 2) * mpmath.gamma(1.5 * x + 3) / mpmath.gamma(0.5 * x + 2)
                for j in range(7):
                    for n in range(max(-sp.ceil, -6), 8):
                        ref = front * mpmath.gamma(j + 1) * mpmath.gamma(n + 0.5 * x + 1)
                        ref /= mpmath.gamma(j + x + 2) * mpmath.gamma(n + 1.5 * x + 2)
                        assert abs(sp.weight(j, n - j - 1) - ref) <= 1e-14 * abs(ref), (nu, j, n)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(-2.0, 1e300), st.sampled_from([1e-9, 1e-6, 0.3, 2.0**54 + 4.0, 1e300])))
    def test_b1_is_the_correctly_rounded_difference(self, nu):
        # (nu/2 - ceil(nu/2)) + 1 misses it at nu = 1e-9, nu/2 + (1 - ceil(nu/2)) at 2^54 + 4
        sp = SpaceParam(nu)
        assert sp.b1 == float(Fraction(sp.nu) / 2 + 1 - sp.ceil)
        assert 0.0 < sp.b1 <= 1.0

    def test_one_regime_decision_near_special_nu(self):
        """Kernel, oracle, index set, rule, mode exponent and critical range all
        see the same snapped nu and the same ceil(nu/2)."""
        z = HartogsPoint(0.1 + 0.2j, 0.5 + 0.1j)
        w = HartogsPoint(0.05 - 0.1j, 0.6 - 0.2j)
        p = 5.0
        for special in (-2.0, -1.0, 0.0, 2.0, 4.0):
            for nu in (special - 1e-13, special + 1e-13):
                sp = SpaceParam(nu)
                assert sp.nu == special
                closed = kernels.kernel(nu, z, w)
                assert abs(closed - kernels.kernel_series(nu, z, w)) <= 1e-10 * abs(closed)
                assert sp.member(0, -1 - sp.ceil) and not sp.member(0, -2 - sp.ceil)
                if special > -1.0:
                    rule, exact = quadrature.build_rule(nu, 4, 4), quadrature.build_rule(special, 4, 4)
                    assert rule.nu == special
                    for name in ("r1_nodes", "r1_weights", "r2_nodes", "r2_weights"):
                        np.testing.assert_array_equal(getattr(rule, name), getattr(exact, name))
                    exponent = special - (1.0 + math.ceil(special / 2.0)) * p + 3.0
                    assert projections._mode_exponent(SpaceParam(nu), p) == exponent
                    assert projections.critical_range(nu) == projections.critical_range(special)


class TestWeightMemo:
    """Each space's two Pochhammer tables are built once per process and
    continued when a read goes deeper; a memoized read equals a read of
    fresh tables, whatever was read before and for every spelling of a key."""

    def test_memo_equals_the_function_bit_for_bit(self):
        _pochhammer_weight.cache_clear()
        bits = lambda x: struct.pack("<d", x)
        for nu in (0.0, -0.0, -1.5, -2.0 + 2e-12, 0.7, 3.5):
            sp = SpaceParam(nu)
            fresh = _pochhammer_weight.__wrapped__(sp.nu + 2.0, sp.ceil, sp.b1)
            for deep in ((0, 0), (200, 0), (0, 200), (1000, 0)):  # the tables grow between passes
                fresh(*deep), sp.weight(*deep)
                for j in range(4):
                    for k in range(-1 - sp.ceil - j, 4):
                        for key in ((j, k), (np.int64(j), np.int64(k))):
                            assert bits(sp.weight(*key)) == bits(_pochhammer_weight.__wrapped__(sp.nu + 2.0, sp.ceil, sp.b1)(*key))
                            assert bits(sp.weight(*key)) == bits(fresh(*key))
        assert _pochhammer_weight.cache_info().misses == 5  # one table set per space: 0.0 and -0.0 are one

    def test_an_out_of_range_weight_is_refused_every_time(self):
        sp = SpaceParam(1000.0)
        for _ in range(2):
            with pytest.raises(DomainError, match="double range"):
                sp.weight(0, -501)
        assert sp.weight(0, 0) == 1.0 and math.isfinite(sp.weight(0, -60))

    def test_a_table_deeper_than_its_cap_is_refused(self):
        sp = SpaceParam(0.7)
        with pytest.raises(DomainError, match="depth"):
            sp.weight(coeffspace._DEPTH, 0)
        assert math.isfinite(sp.weight(coeffspace._DEPTH - 1, 0))

    def test_a_weight_that_underflows_is_refused(self):
        # the weight of z1^10000 at nu = 100 is about exp(-1031); it read 0.0, so the norm of z1^10000 was 0
        with pytest.raises(DomainError, match="double range"):
            SpaceParam(100.0).weight(10000, 0)
        with pytest.raises(DomainError, match="double range"):
            SpaceParam(100.0).norm_sq(LaurentCoeffs({(10000, 0): 1.0}))


class TestContainers:
    def test_laurent_validation(self):
        with pytest.raises(DomainError):
            LaurentCoeffs({(-1, 0): 1.0})
        f = LaurentCoeffs({(0, -3): 2.0, (1, 0): 0.0})
        assert len(f) == 1  # zero coefficients dropped

    def test_mixed_validation(self):
        with pytest.raises(DomainError):
            MixedPoly({(0, -1, 0, 0): 1.0})
        MixedPoly({(1, 2, -3, 0): 1.0})  # negative c is allowed

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.parametrize("cls, key", [(LaurentCoeffs, (0, -1)), (TorusSeries, (-2, 5)), (MixedPoly, (1, 0, -2, 3))])
    def test_non_finite_coefficient_is_refused(self, cls, key, value):
        # a NaN coefficient gave star_norm nan; an infinite one reached the JSON output
        named = dict(zip(cls._key_names, key))
        with pytest.raises(DomainError) as info:
            cls({key: value})
        assert f"coefficient {named} is not finite" in str(info.value)
        with pytest.raises(DomainError, match="is not finite"):
            cls.from_json({"terms": [{**named, "re": value.real, "im": value.imag}]})

    def test_json_round_trip(self):
        f = LaurentCoeffs({(0, -1): 1.0 + 2.0j, (3, 2): -0.5})
        assert LaurentCoeffs.from_json(f.to_json()) == f
        p = MixedPoly({(1, 0, -2, 3): 1.5j})
        assert MixedPoly.from_json(p.to_json()) == p
        t = TorusSeries({(-2, 5): 1.0})
        assert TorusSeries.from_json(t.to_json()) == t

    def test_as_mixed(self):
        f = LaurentCoeffs({(0, -1): 1.0 + 2.0j, (3, 2): -0.5})
        assert as_mixed(f) == MixedPoly({(0, 0, -1, 0): 1.0 + 2.0j, (3, 0, 2, 0): -0.5})
        p = MixedPoly({(1, 0, -2, 3): 1.5j})
        assert as_mixed(p) is p

    def test_conj_product_pointwise(self):
        rng = np.random.default_rng(22)
        z2 = 0.8 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=20))
        z1 = z2 * 0.7 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=20))
        f = _random_mixed(rng)
        g = _random_laurent(rng, 0.0)
        for left, right in ((f, g), (g, f), (f, f), (g, g)):
            prod = quadrature.as_grid_fn(conj_product(left, right))(z1, z2)
            lhs = quadrature.as_grid_fn(left)(z1, z2)
            rhs = quadrature.as_grid_fn(right)(z1, z2)
            np.testing.assert_allclose(prod, lhs * np.conj(rhs), rtol=1e-12, atol=1e-12)


class TestIndexSet:
    def test_bergman_examples(self):
        assert not SpaceParam(0.0).member(0, -2)
        assert SpaceParam(0.0).member(0, -1)

    def test_hardy_example(self):
        assert SpaceParam(-1.0).member(0, -1)
        assert not SpaceParam(-1.0).member(0, -2)

    def test_dirichlet_examples(self):
        assert SpaceParam(-2.0).member(3, -3)
        assert not SpaceParam(-2.0).member(3, -4)

    def test_min_total_degree(self):
        # the smallest j + k over I_nu is -1 - ceil(nu/2)
        for nu, expected in ((0.0, -1), (-1.0, -1), (-2.0, 0), (2.0, -2), (0.7, -2), (-1.5, -1)):
            sp = SpaceParam(nu)
            assert min(j + k for j in range(3) for k in range(-8, 3) if sp.member(j, k)) == expected

    def test_elementwise_on_arrays(self):
        jj, kk = np.meshgrid(np.arange(-2, 4), np.arange(-6, 3), indexing="ij")
        for nu in (-2.0, -1.5, -1.0, 0.7, 3.5):
            sp = SpaceParam(nu)
            expected = [[sp.member(j, k) for j, k in zip(rj, rk)] for rj, rk in zip(jj.tolist(), kk.tolist())]
            assert sp.member(jj, kk).tolist() == expected


class TestMonomialNorms:
    def test_flat_case_formula(self):
        assert monomial_norm_sq(0.0, 0, 0) == pytest.approx(1.0, rel=1e-13)
        assert monomial_norm_sq(0.0, 1, -1) == pytest.approx(0.5, rel=1e-13)
        for j in range(4):
            for k in range(-j - 1, 4):
                expected = 2.0 / ((j + 1.0) * (j + k + 2.0))
                assert monomial_norm_sq(0.0, j, k) == pytest.approx(expected, rel=1e-12)

    def test_against_quadrature(self):
        # independent oracle: tensor quadrature of |z1^2 z2|^2 dmu_0.7
        rule = quadrature.build_rule(0.7, radial_order=48, angular_count=4)
        mono = LaurentCoeffs({(2, 1): 1.0})
        quad = quadrature.inner_product_quad(0.7, mono, mono, rule).real
        assert monomial_norm_sq(0.7, 2, 1) == pytest.approx(quad, rel=1e-8)

    def test_outside_index_set(self):
        assert math.isinf(monomial_norm_sq(0.0, 0, -2))

    def test_domain(self):
        with pytest.raises(DomainError):
            monomial_norm_sq(-1.0, 0, 0)


class TestSpaceNorms:
    def test_constant_has_unit_norm(self):
        one = LaurentCoeffs({(0, 0): 1.0})
        for nu in (-0.5, 0.0, 0.7, 2.0, 3.5):
            assert SpaceParam(nu).norm_sq(one) == pytest.approx(1.0, rel=1e-12)

    def test_bergman_example(self):
        f = LaurentCoeffs({(0, 0): 1.0, (1, 1): 1.0})
        assert SpaceParam(0.0).norm_sq(f) == pytest.approx(1.25, rel=1e-12)

    def test_bergman_divergent(self):
        assert math.isinf(SpaceParam(0.0).norm_sq(LaurentCoeffs({(0, -2): 1.0})))

    def test_hardy_examples(self):
        assert SpaceParam(-1.0).norm_sq(LaurentCoeffs({(2, -1): 1.0})) == 1.0
        f = LaurentCoeffs({(1, 0): 2.0, (0, -1): 1.0j})
        assert SpaceParam(-1.0).norm_sq(f) == pytest.approx(5.0)
        assert math.isinf(SpaceParam(-1.0).norm_sq(LaurentCoeffs({(0, -2): 1.0})))

    def test_dirichlet_examples(self):
        assert SpaceParam(-2.0).norm_sq(LaurentCoeffs({(0, 0): 1.0})) == pytest.approx(1.0)
        assert SpaceParam(-2.0).norm_sq(LaurentCoeffs({(1, -1): 1.0})) == pytest.approx(2.0)
        f = LaurentCoeffs({(1, 0): 1.0, (0, 1): 1.0})
        assert SpaceParam(-2.0).norm_sq(f) == pytest.approx(6.0)
        assert math.isinf(SpaceParam(-2.0).norm_sq(LaurentCoeffs({(1, -2): 1.0})))

    def test_weighted_dirichlet_constant(self):
        one = LaurentCoeffs({(0, 0): 1.0})
        for nu in (-1.9, -1.5, -1.1):
            val = SpaceParam(nu).norm_sq(one)
            assert val == pytest.approx(1.0, rel=1e-12)
            assert val > 0.0

    def test_weighted_dirichlet_single_monomial(self):
        w = SpaceParam(-1.5).weight(1, 2)
        f = LaurentCoeffs({(1, 2): 2.0j})
        assert SpaceParam(-1.5).norm_sq(f) == pytest.approx(4.0 * w, rel=1e-12)

    def test_weighted_dirichlet_signed_weight(self):
        # below nu = -4/3 the pairing is indefinite at total degree -1;
        # the kernel coefficient is the reciprocal (cross-checked in the
        # kernels module tests)
        assert SpaceParam(-1.5).weight(0, -1) == pytest.approx(-1.0, rel=1e-12)
        assert math.isinf(SpaceParam(-1.5).norm_sq(LaurentCoeffs({(0, -2): 1.0})))

    @pytest.mark.parametrize("nu", [-4.0 / 3.0, -4.0 / 3.0 + 1e-13, -4.0 / 3.0 - 1e-13])
    def test_weighted_dirichlet_refuses_nu_minus_four_thirds(self, nu):
        # the weight at j + k = -1 is 0 there; the empty polynomial is refused too
        sp = SpaceParam(nu)
        for call in (lambda: sp.weight(0, -1), lambda: sp.weight(2, 3), lambda: sp.norm_sq(LaurentCoeffs())):
            with pytest.raises(DomainError, match="-4/3"):
                call()
        assert SpaceParam(nu - 1e-11).weight(0, -1) < 0.0 < SpaceParam(nu + 1e-11).weight(0, -1)

    def test_a_weighted_sum_beyond_the_double_range_is_refused(self):
        # each |a|^2 is finite; the weighted sum is not, and read +inf, the
        # sentinel of a support outside I_nu, though z2^-1 lies in the space
        for nu, f in (
            (0.0, {(0, -1): 1e154}),  # weight 2
            (0.0, {(0, 0): 1.3e154, (0, 1): 1.3e154}),  # two finite terms
            (-1.5, {(0, -1): 1.3e154, (1, -2): 1.3e154}),  # negative weights, -inf
        ):
            with pytest.raises(DomainError, match="weighted sum of"):
                SpaceParam(nu).norm_sq(LaurentCoeffs(f))
        assert SpaceParam(0.0).norm_sq(LaurentCoeffs({(0, -1): 1e153})) == pytest.approx(2e306, rel=1e-12)

    def test_parseval_additivity(self):
        f = LaurentCoeffs({(0, 0): 1.0, (2, 1): 0.5j})
        g = LaurentCoeffs({(1, 0): -2.0})
        fg = LaurentCoeffs({(0, 0): 1.0, (2, 1): 0.5j, (1, 0): -2.0})
        for nu in (0.7, -1.0, -2.0, -1.5):
            norm = SpaceParam(nu).norm_sq
            assert norm(fg) == pytest.approx(norm(f) + norm(g), rel=1e-12)


class TestSplitAndTNorms:
    def test_split_constant(self):
        f1, f2, f3, a00 = split_f123(LaurentCoeffs({(0, 0): 1.0}))
        assert len(f1) == len(f2) == len(f3) == 0
        assert a00 == 1.0

    def test_split_examples(self):
        f1, f2, f3, _ = split_f123(LaurentCoeffs({(1, 1): 1.0}))
        assert f1 == LaurentCoeffs({(1, 0): 2.0}) and len(f2) == len(f3) == 0
        f1, f2, f3, _ = split_f123(LaurentCoeffs({(1, -1): 1.0}))
        assert f3 == LaurentCoeffs({(1, -2): 1.0}) and len(f1) == len(f2) == 0
        f1, f2, f3, _ = split_f123(LaurentCoeffs({(0, 3): 2.0}))
        assert f2 == LaurentCoeffs({(0, 2): 6.0})

    def test_split_partition(self):
        # every index lands in exactly one component
        f = LaurentCoeffs({(0, 0): 1.0, (0, 2): 1.0, (1, 1): 1.0, (2, -2): 1.0, (3, 0): 1.0})
        f1, f2, f3, a00 = split_f123(f)
        assert len(f1) + len(f2) + len(f3) + 1 == len(f)

    def test_t_norm_zero(self):
        assert t_norm_sq(0.0, LaurentCoeffs()) == 0.0

    def test_t_norm_value_and_quadrature(self):
        # f = z1 z2 gives f1 = 2 z1; closed Beta value is
        # pi^2 C_0 * 4 * B(2,3) B(4,3) = 1/90
        f1 = split_f123(LaurentCoeffs({(1, 1): 1.0}))[0]
        closed = t_norm_sq(0.0, f1)
        assert closed == pytest.approx(1.0 / 90.0, rel=1e-12)
        rule = quadrature.build_rule(0.0, radial_order=32, angular_count=9)
        val = quadrature.integrate_mu(0.0, _t_sq(f1), rule).real
        assert val == pytest.approx(closed, rel=1e-10)

    def test_radial_weight_t_norm_matches_black_box(self):
        # |T f|^2 folded into the rule's radial weights, as the t-split
        # suite integrates it, against the black-box multiplier callable
        rng = np.random.default_rng(23)
        for nu in (-0.5, 0.0, 1.0):
            rule = quadrature.build_rule(nu, radial_order=32, angular_count=33)
            t_rule = _t_multiplier_rule(rule)
            for _ in range(4):
                f = _random_laurent(rng, nu, n_terms=5)
                for part in split_f123(f)[:3]:
                    black_box = quadrature.integrate_mu(nu, _t_sq(part), rule).real
                    radial = quadrature.integrate_mu(nu, conj_product(part, part), t_rule).real
                    assert abs(radial - black_box) <= 1e-12 * max(abs(black_box), 1e-300)

    def test_t_norm_accepts_nu_minus_two(self):
        f1 = split_f123(LaurentCoeffs({(1, 1): 1.0}))[0]
        at_two = t_norm_sq(-2.0, f1)
        # f1 = 2 z1, and the Beta form's removable 0/0 at nu = -2 gives
        # 4 pi^2 (2 / (3 pi^2)) B(2, 1) B(3, 1) = 4/9
        assert at_two == pytest.approx(4.0 / 9.0, rel=1e-14)
        for nu in (-2.0 + 1e-13, -2.0 - 1e-13):
            assert t_norm_sq(nu, f1) == at_two
        assert t_norm_sq(-2.0 + 1e-7, f1) == pytest.approx(at_two, rel=1e-6)

    @pytest.mark.parametrize("nu", [-2.0, -2.0 + 1e-13, -2.0 - 1e-13, -1.9, -1.5, -1.0, -0.5, 0.0, 0.7, 3.5, 20.7])
    def test_t_norm_matches_the_beta_form(self, nu):
        """Against a 40-digit mpmath reference of the Beta form

            |T f_i|^2 = pi^2 c_nu sum |c|^2 B(J+1, nu+3) B(J+K+nu/2+3, nu+3),
            pi^2 c_nu = (2/3) (nu+1)^2 Gamma(3nu/2+4) / (Gamma(nu+3) Gamma(nu/2+2)),

        with the removable 0/0 of c_nu at nu = -2 cancelled by hand.
        """
        rng = np.random.default_rng(16)
        with mpmath.workdps(40):
            v = mpmath.mpf(nu)
            front = mpmath.mpf(2) / 3 * (v + 1) ** 2 * mpmath.gamma(1.5 * v + 4) / (mpmath.gamma(v + 3) * mpmath.gamma(v / 2 + 2))
            for _ in range(8):
                for part in split_f123(_random_laurent(rng, nu, n_terms=5, jmax=5, kmax=5))[:3]:
                    ref = front * mpmath.fsum(
                        abs(mpmath.mpc(c)) ** 2 * mpmath.beta(J + 1, v + 3) * mpmath.beta(J + K + v / 2 + 3, v + 3)
                        for (J, K), c in part.items()
                    )
                    closed = t_norm_sq(nu, part)
                    assert abs(closed - float(ref)) <= 1e-12 * abs(float(ref))

    def test_t_split_refuses_nu_below_minus_two(self):
        # (-3, -2) is outside the family even though the Beta integrals converge there
        f1 = split_f123(LaurentCoeffs({(1, 1): 1.0}))[0]
        for nu in (-2.5, -2.0 - 1e-9):
            with pytest.raises(DomainError):
                t_norm_sq(nu, f1)
            with pytest.raises(DomainError):
                star_norm(nu, LaurentCoeffs({(0, 0): 1.0}))

    def test_t_norm_finiteness_characterization(self):
        # a term with J + K + nu/2 + 3 <= 0 diverges, others converge
        nu = -0.5
        bad = LaurentCoeffs({(0, -3): 1.0})  # 0 - 3 - 0.25 + 3 = -0.25
        good = LaurentCoeffs({(0, -2): 1.0})  # 0 - 2 - 0.25 + 3 = 0.75
        assert math.isinf(t_norm_sq(nu, bad))
        assert math.isfinite(t_norm_sq(nu, good))

    def test_a_t_norm_beyond_the_double_range_is_refused(self):
        # z2^-1 at nu = 0: its f2 part -1e154 z2^-2 has a finite |c|^2 and an
        # overflowing T-norm, which read +inf, the divergence sentinel
        f = LaurentCoeffs({(0, -1): 1e154})
        with pytest.raises(DomainError, match="weighted sum of"):
            t_norm_sq(0.0, split_f123(f)[1])
        with pytest.raises(DomainError, match="weighted sum of"):
            star_norm(0.0, f)
        assert math.isfinite(star_norm(0.0, LaurentCoeffs({(0, -1): 1e150})))

    def test_t_norm_at_a_huge_nu(self):
        # an empty part is 0 before r_nu, whose (nu + 1)^2 overflowed; a nonempty one is refused
        assert t_norm_sq(1e306, LaurentCoeffs()) == 0.0
        assert star_norm(1e306, LaurentCoeffs({(0, 0): 1.0})) == 1.0
        with pytest.raises(DomainError, match="needs nu <= 1e102"):
            t_norm_sq(1e150, LaurentCoeffs({(0, 0): 1.0}))

    def test_star_norm_and_projection_build_space_param_once(self, monkeypatch):
        built = []

        class Counting(SpaceParam):
            def __post_init__(self):
                built.append(self.nu)
                super().__post_init__()

        f = LaurentCoeffs({(0, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0, (2, -2): 1.0})
        g = MixedPoly({(1, 1, 2, 0): 1.0, (2, 1, -1, 0): 1.0})
        expected = star_norm(0.7, f), projections.project_bergman(0.7, g)
        monkeypatch.setattr(coeffspace, "SpaceParam", Counting)
        monkeypatch.setattr(projections, "SpaceParam", Counting)
        assert star_norm(0.7, f) == expected[0]
        assert built == [0.7]
        assert projections.project_bergman(0.7, g) == expected[1]
        assert built == [0.7, 0.7]

    def test_star_norm_refuses_the_hardy_space(self):
        # r_nu = 0 at nu = -1: each T-split part has norm 0, so the sum would be |a00|
        f = LaurentCoeffs({(1, 0): 1.0, (0, 2): 1.0})
        for part in split_f123(f)[:3]:
            assert t_norm_sq(-1.0, part) == 0.0
        for nu in (-1.0, -1.0 + 1e-13):
            with pytest.raises(DomainError, match="nu = -1"):
                star_norm(nu, f)

    def test_star_norm_examples(self):
        assert star_norm(0.0, LaurentCoeffs({(0, 0): 1.0})) == pytest.approx(1.0)
        val = star_norm(0.0, LaurentCoeffs({(1, 1): 1.0}))
        assert val == pytest.approx(math.sqrt(1.0 / 90.0), rel=1e-12)
        assert math.isinf(star_norm(-0.5, LaurentCoeffs({(0, -2): 1.0, (1, -3): 1.0})))


def _piece_ratio(nu, j, k):
    """star^2 / ||.||^2 of z1^j z2^k written piece by piece: sigma = ((nu+1)(nu+2))^2,
    a = 3nu/2 + 3, n = j + k."""
    sigma, a, n = ((nu + 1.0) * (nu + 2.0)) ** 2, 1.5 * nu + 3.0, j + k
    if j == 0 and k == 0:
        return 1.0
    if j == 0:  # f2
        return sigma / ((nu + 2.0) * (nu + 3.0)) * k * k / ((k + a) * (k + a + 1.0))
    j_factor = j * j / ((j + nu + 2.0) * (j + nu + 3.0))
    if n == 0:  # f3
        return sigma / (a * (a + 1.0)) * j_factor
    return sigma * j_factor * n * n / ((n + a) * (n + a + 1.0))  # f1


def _piece(j, k):
    """The index of the split_f123 piece of z1^j z2^k, 0 for the constant."""
    return 0 if j == k == 0 else 2 if j == 0 else 3 if j + k == 0 else 1


_STAR_NUS = (-0.95, -0.5, 0.0, 0.1, 0.7, 1.0, 2.0, 3.5)


class TestStarConstants:
    """The sharp constants c ||f|| <= star(f) <= C ||f|| of ``_star_constants``."""

    @pytest.mark.parametrize("nu", _STAR_NUS)
    def test_product_forms_over_a_monomial_box(self, nu):
        space = SpaceParam(nu)
        c2, *s = _star_constants(nu)
        ratios = {}
        for j in range(25):
            for k in range(-j - 1 - space.ceil, 25):
                f = LaurentCoeffs({(j, k): 1.0})
                library = star_norm(nu, f) ** 2 / space.norm_sq(f)
                closed = _piece_ratio(nu, j, k)
                assert abs(library - closed) <= 1e-12 * closed, (j, k)
                assert abs(_star_ratio(nu, j, j + k) - closed) <= 1e-14 * closed, (j, k)
                ratios[(j, k)] = closed
                if _piece(j, k):
                    assert closed <= s[_piece(j, k) - 1] * (1.0 + 1e-15), (j, k)
        a = 1.5 * nu + 3.0
        assert min(ratios, key=ratios.get) == (1, 0)
        assert c2 == pytest.approx(ratios[(1, 0)], rel=1e-15)
        assert c2 == pytest.approx(((nu + 1.0) * (nu + 2.0)) ** 2 / ((nu + 3.0) * (nu + 4.0) * (a + 1.0) * (a + 2.0)), rel=1e-15)

    def test_closed_values(self):
        c2, *s = _star_constants(0.0)
        assert c2 == pytest.approx(1.0 / 60.0, rel=1e-15) and 1.0 + sum(s) == pytest.approx(6.0, rel=1e-15)
        c2, *s = _star_constants(1.0)
        assert c2 == pytest.approx(36.0 / 715.0, rel=1e-15) and 1.0 + sum(s) == pytest.approx(456.0 / 11.0, rel=1e-15)
        # the plain prefactors sigma, sigma / ((nu+2)(nu+3)), sigma / (a(a+1)) at nu = 1
        assert s == pytest.approx([36.0, 3.0, 36.0 / (4.5 * 5.5)], rel=1e-15)

    def test_a_negative_index_attains_s2(self):
        # at nu = 0.1, n = -2 gives the k-factor 4 / ((a-2)(a-1)) = 1.62 > 1
        space, (_, s1, s2, _) = SpaceParam(0.1), _star_constants(0.1)
        f = LaurentCoeffs({(0, -2): 1.0})
        assert star_norm(0.1, f) ** 2 / space.norm_sq(f) == pytest.approx(s2, rel=1e-12)
        assert s2 / _star_ratio(0.1, 0, math.inf) == pytest.approx(1.618, abs=1e-3)
        assert s1 == _star_ratio(0.1, math.inf, -2)

    def test_refused_outside_the_bergman_range(self):
        for nu in (-1.0, -1.5, -2.0):
            with pytest.raises(DomainError, match="T-split equivalence"):
                _star_constants(nu)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-1.0, 4.0).filter(lambda nu: SpaceParam(nu).kind == "bergman"),
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(-16, 12), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_equivalence_holds_for_random_polynomials(self, nu, terms):
        """c ||f|| <= star(f) <= C ||f|| to 1e-12 relative on each side."""
        space = SpaceParam(nu)
        f = LaurentCoeffs({(j, k): complex(re, im) for j, k, re, im in terms if space.member(j, k)})
        norm = math.sqrt(space.norm_sq(f))
        if norm == 0.0:
            return
        c2, *s = _star_constants(nu)
        star = star_norm(nu, f)
        assert math.sqrt(c2) * norm * (1.0 - 1e-12) <= star <= math.sqrt(1.0 + sum(s)) * norm * (1.0 + 1e-12)


class TestEvaluationAndTorus:
    def test_evaluate_examples(self):
        assert evaluate_grid(LaurentCoeffs({(0, 0): 1.0}), 0.1, 0.5) == pytest.approx(1.0)
        assert evaluate_grid(LaurentCoeffs({(0, -1): 1.0}), 0.1, 0.5) == pytest.approx(2.0)
        assert evaluate_grid(LaurentCoeffs({(1, -1): 1.0}), 0.25, 0.5) == pytest.approx(0.5)

