"""Closed-form constants, thresholds, and singular-limit geometry.

Reference values were frozen from a 30-digit mpmath evaluation of the same
closed forms (independent of the float implementation under test).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fhn_pulse import (
    Params,
    compute_constants,
    equal_area_level,
    gamma0,
    gamma1_direct,
    gamma1_via_potential,
    interface_width,
    linearize,
    negative_tail_cutoff,
    nullcline_branch,
    potential_F,
    predicted_head_length,
    reaction_f,
    reaction_knees,
)
from fhn_pulse import model
from fhn_pulse.model import head_geometry, potential_roots, regime_report

# mpmath oracles at beta = 0.4, gamma = 0.3
M_REF = 1.2134196146486691387
A_Q0_REF = 8.0161978232489102672e-7
B_Q0_REF = 8.1498011203030587717e-7
D0_REF = 1.7849840983739046448e-16
M0_REF = 3.3400824263537126113e-9
M1_REF = 96.551666613632470039
M2_REF = 6846.390905330302421
m2_REF = 1.0020247279061137834e-7

GAMMA1_REF = {
    0.35: 0.211790625,
    0.40: 0.31706666666666667,
    0.45: 0.423540625,
}


class TestReaction:
    def test_roots(self):
        assert reaction_f(0.0, 0.4) == 0.0
        assert reaction_f(1.0, 0.4) == 0.0
        assert reaction_f(0.4, 0.4) == 0.0

    def test_hand_value(self):
        # 0.7 * 0.3 * 0.3
        assert reaction_f(0.7, 0.4) == pytest.approx(0.063, abs=1e-15)

    def test_sign_pattern(self):
        assert reaction_f(0.2, 0.4) < 0.0
        assert reaction_f(0.7, 0.4) > 0.0
        assert reaction_f(1.5, 0.4) < 0.0
        assert reaction_f(-0.5, 0.4) > 0.0

    @pytest.mark.parametrize("n", [65, 32769])
    def test_array_path_bit_equal(self, n):
        # the product in the order u (1 - u) (u - beta), on fresh arrays
        u = np.random.default_rng(n).uniform(-1.5, 1.5, n)
        before = u.copy()
        f = reaction_f(u, 0.4)
        assert f is not u and not np.shares_memory(f, u)
        assert np.array_equal(f, u * (1 - u) * (u - 0.4))
        assert np.array_equal(u, before)

    @given(st.floats(-3.0, 3.0), st.floats(0.05, 0.95))
    def test_potential_is_antiderivative(self, xi, beta):
        # analytic derivative of the quartic vs -f
        dF = xi**3 - (1.0 + beta) * xi**2 + beta * xi
        assert abs(dF + reaction_f(xi, beta)) < 1e-10

    def test_potential_values(self):
        assert potential_F(0.0, 0.4) == 0.0
        # F(beta) = (2 beta^3 - beta^4) / 12
        assert potential_F(0.4, 0.4) == pytest.approx(
            (2 * 0.4**3 - 0.4**4) / 12.0, rel=1e-14
        )
        # F(1) = -(1 - 2 beta) / 12
        assert potential_F(1.0, 0.4) == pytest.approx(-0.2 / 12.0, rel=1e-14)


class TestPotentialRoots:
    def test_at_04(self):
        b1, b2 = potential_roots(0.4)
        assert b1 == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert b2 == pytest.approx(1.2, rel=1e-14)

    def test_at_035(self):
        b1, b2 = potential_roots(0.35)
        assert b1 == pytest.approx(0.56833752096446001509, rel=1e-14)
        assert b2 == pytest.approx(1.2316624790355399849, rel=1e-14)

    @given(st.floats(0.05, 0.45))
    def test_defining_property(self, beta):
        b1, b2 = potential_roots(beta)
        assert 0.0 < b1 < 1.0 < b2
        assert abs(potential_F(b1, beta)) < 1e-12
        assert abs(potential_F(b2, beta)) < 1e-12

    def test_no_real_pair(self):
        # discriminant 4(1+b)^2 - 18 b < 0 in the middle of (0, 1)
        with pytest.raises(ValueError):
            potential_roots(0.7)


def loop_tail_cutoff(beta: float, gamma: float) -> float:
    """Oracle for negative_tail_cutoff: the bisection on [0, 10] to 1e-12
    that computed M before the closed form. Its bracket holds the root only
    down to gamma ~ 1/1100."""
    target = 1.0 + 1.0 / gamma

    def g(m: float) -> float:
        return m * (1.0 + m) * (m + beta) - target

    lo, hi = 0.0, 10.0
    if g(hi) <= 0.0:
        raise ValueError(f"tail cutoff bracket exhausted at gamma={gamma}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tail_residual(beta: float, gamma: float) -> float:
    """Relative residual of M (1 + M)(M + beta) = 1 + 1/gamma, in eps."""
    M = negative_tail_cutoff(beta, gamma)
    target = 1.0 + 1.0 / gamma
    return abs(M * (1.0 + M) * (M + beta) - target) / (target * np.finfo(float).eps)


class TestTailCutoff:
    def test_frozen_value(self):
        assert negative_tail_cutoff(0.4, 0.3) == pytest.approx(M_REF, abs=1e-11)

    def test_agrees_with_loop(self):
        # within the loop's own tolerance over the beta window and six
        # decades of gamma (measured 2.8e-13)
        for beta in np.linspace(0.01, 0.99, 49):
            for gamma in np.geomspace(1e-3, 1e3, 49):
                m, ref = negative_tail_cutoff(beta, gamma), loop_tail_cutoff(beta, gamma)
                assert abs(m - ref) <= 1e-12

    def test_solves_its_equation_to_roundoff(self):
        # to 64 eps relative over the beta window, down to gamma = 1e-10
        # (measured 17.6 eps; the loop's 1e-12 in M left up to ~4400 eps)
        for beta in np.linspace(0.01, 0.99, 49):
            for gamma in np.geomspace(1e-10, 1e3, 79):
                assert tail_residual(beta, gamma) <= 64.0

    @pytest.mark.parametrize("gamma", [1e-4, 8e-4])
    def test_small_gamma(self, gamma):
        # below gamma ~ 1/1100 the root leaves the loop's bracket [0, 10];
        # the closed form holds there too
        with pytest.raises(ValueError, match="tail cutoff bracket exhausted"):
            loop_tail_cutoff(0.4, gamma)
        assert negative_tail_cutoff(0.4, gamma) > 10.0
        assert tail_residual(0.4, gamma) <= 64.0

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0, 0.0, -0.0])
    def test_rejects_gamma_not_positive_finite(self, gamma):
        # nan used to bisect to 10 and a negative gamma to 0
        with pytest.raises(ValueError, match="gamma > 0 and finite"):
            negative_tail_cutoff(0.4, gamma)

    @given(st.floats(0.05, 0.95), st.floats(0.01, 10.0))
    def test_defining_equation(self, beta, gamma):
        M = negative_tail_cutoff(beta, gamma)
        target = 1.0 + 1.0 / gamma
        assert M * (1.0 + M) * (M + beta) == pytest.approx(target, rel=1e-9)
        # f(xi) - target is still positive a bit further out (monotone tail)
        probe = M + 0.1
        assert probe * (1.0 + probe) * (probe + beta) > target


class TestThresholds:
    def test_gamma0_exact(self):
        assert gamma0(0.4) == pytest.approx(1.4, rel=1e-15)

    def test_gamma0_domain(self):
        with pytest.raises(ValueError):
            gamma0(0.3)
        with pytest.raises(ValueError):
            gamma0(0.5)

    @pytest.mark.parametrize("beta", [0.3, 0.5])
    @pytest.mark.parametrize("path", [gamma1_direct, gamma1_via_potential])
    def test_gamma1_domain(self, path, beta):
        # beta = 1/2 is the pole of gamma0's formula: the range test comes first
        with pytest.raises(ValueError):
            path(beta)

    @pytest.mark.parametrize("beta,ref", sorted(GAMMA1_REF.items()))
    def test_gamma1_both_paths(self, beta, ref):
        assert gamma1_direct(beta) == pytest.approx(ref, abs=1e-12)
        assert gamma1_via_potential(beta) == pytest.approx(ref, abs=1e-12)

    @given(st.floats(1.0 / 3.0 + 1e-6, 0.5 - 1e-6))
    def test_paths_agree_and_min_relation(self, beta):
        g1 = gamma1_direct(beta)
        assert g1 == pytest.approx(gamma1_via_potential(beta), rel=1e-12, abs=1e-15)
        assert g1 <= gamma0(beta) + 1e-15
        assert g1 == pytest.approx(
            min(gamma0(beta), 2.0 * (beta + potential_F(beta, beta)) - 0.5),
            rel=1e-15,
        )


class TestConstants:
    def test_frozen_report(self):
        c = compute_constants(0.4, 0.3)
        assert c.gamma0 == pytest.approx(1.4, rel=1e-15)
        assert c.gamma1 == pytest.approx(GAMMA1_REF[0.40], rel=1e-14)
        assert c.beta1 == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert c.beta2 == pytest.approx(1.2, rel=1e-14)
        assert c.M == pytest.approx(M_REF, abs=1e-11)
        assert c.c0_competitor == pytest.approx(0.5, rel=1e-15)
        assert c.a_q0 == pytest.approx(A_Q0_REF, rel=1e-13)
        assert c.b_q0 == pytest.approx(B_Q0_REF, rel=1e-13)
        assert c.d0 == pytest.approx(D0_REF, rel=1e-12)
        assert c.M0 == pytest.approx(M0_REF, rel=1e-13)
        assert c.M1 == pytest.approx(M1_REF, rel=1e-12)
        assert c.M2 == pytest.approx(M2_REF, rel=1e-12)
        assert c.m2 == pytest.approx(m2_REF, rel=1e-12)
        assert c.d1 == pytest.approx(min(D0_REF, 0.4**2 / (4 * 1.12)), rel=1e-12)

    def test_breakpoint_ordering(self):
        c = compute_constants(0.4, 0.3)
        assert 0.0 < c.a_q0 < c.b_q0
        assert c.d0 == pytest.approx((c.b_q0 - c.a_q0) ** 2, rel=1e-14)

    def test_m2_degenerates(self):
        # gamma above gamma0 flips the denominator sign
        assert compute_constants(0.4, 2.0).M2 == math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            compute_constants(0.3, 0.3)
        with pytest.raises(ValueError):
            compute_constants(0.4, -1.0)


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            {"d": -1.0},
            {"d": 0.0},
            {"tau": 0.0},
            {"gamma": -0.1},
            {"beta": 0.0},
            {"beta": 1.0},
            {"beta": 1.5},
        ],
    )
    def test_validation(self, kw):
        base = {"d": 0.005, "tau": 1.0, "gamma": 0.1, "beta": 0.4}
        base.update(kw)
        with pytest.raises(ValueError):
            Params(**base)


class TestRegime:
    def test_gamma_gate(self):
        ok = regime_report(Params(d=1e-5, tau=1.0, gamma=0.1, beta=0.4))
        assert ok.beta_ok and ok.gamma_ok
        bad = regime_report(Params(d=1e-5, tau=1.0, gamma=0.4, beta=0.4))
        assert bad.beta_ok and not bad.gamma_ok

    def test_d_gate_is_constructive(self):
        # the certified d1 is ~1e-16; practical d values sit far above it
        rep = regime_report(Params(d=1e-5, tau=1.0, gamma=0.1, beta=0.4))
        assert not rep.d_ok
        assert rep.d1 < 1e-10

    def test_out_of_window_beta(self):
        rep = regime_report(Params(d=1e-5, tau=1.0, gamma=0.1, beta=0.2))
        assert not rep.beta_ok and not rep.in_strict_regime


class TestLinearRates:
    def test_slow_rate_frozen(self):
        p = Params(d=0.005, tau=1.0, gamma=0.1, beta=0.4)
        assert linearize(p).slow_rate == pytest.approx(1.6391714858406963841, rel=1e-13)


class TestSingularLimitGeometry:
    def test_knees(self):
        lo, hi = reaction_knees(0.4)
        assert lo == pytest.approx(0.17607340376395509652, rel=1e-13)
        assert hi == pytest.approx(0.75725992956937823682, rel=1e-13)
        assert reaction_f(hi, 0.4) == pytest.approx(0.06567056588282832444, rel=1e-12)

    @given(st.floats(0.05, 0.95))
    def test_knees_are_critical_points(self, beta):
        lo, hi = reaction_knees(beta)
        # f' = -3u^2 + 2(1+beta)u - beta
        for k in (lo, hi):
            assert abs(-3 * k**2 + 2 * (1 + beta) * k - beta) < 1e-12

    def test_nullcline_branches(self):
        # at v = 0 the outer branches are the rest states u = 0 and u = 1
        assert nullcline_branch(0.0, 0.4, "lower") == pytest.approx(0.0, abs=1e-12)
        assert nullcline_branch(0.0, 0.4, "upper") == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.0, 0.06))
    def test_branches_solve_cubic(self, v):
        for branch in ("upper", "lower"):
            u = nullcline_branch(v, 0.4, branch)
            assert reaction_f(u, 0.4) == pytest.approx(v, abs=1e-11)
        assert nullcline_branch(v, 0.4, "upper") > nullcline_branch(v, 0.4, "lower")

    def test_branch_fold(self):
        # past the knee value of f there is no outer root
        with pytest.raises(ValueError):
            nullcline_branch(0.07, 0.4, "upper")

    @pytest.mark.parametrize("branch", ["upper", "lower"])
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_branch_rejects_nonfinite_level(self, v, branch):
        # nan used to bisect to 2 on the upper branch and to the knee on
        # the lower one
        with pytest.raises(ValueError, match="v must be finite"):
            nullcline_branch(v, 0.4, branch)

    def test_equal_area_level(self):
        vm = equal_area_level(0.4)
        assert vm == pytest.approx(0.016592592592593814, rel=1e-10)
        # leading order (1 - 2 beta) / 12 in the small-level expansion
        assert vm == pytest.approx((1 - 0.8) / 12.0, rel=5e-3)

    def test_equal_area_level_against_bisection(self):
        # the closed form f((1 + beta)/3) against the equal-area rule solved
        # directly: bisection on the level for a zero well gap, each branch
        # root bisected in turn, every bisection run down to the last bit
        def bisect(g, lo, hi):
            glo = g(lo)
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    return mid
                if (g(mid) < 0.0) == (glo < 0.0):
                    lo = mid
                else:
                    hi = mid

        for beta in np.linspace(0.3, 0.49, 20):
            knee_lo, knee_hi = reaction_knees(beta)

            def gap(v):
                up = bisect(lambda u: reaction_f(u, beta) - v, knee_hi, 2.0)
                um = bisect(lambda u: reaction_f(u, beta) - v, -2.0, knee_lo)
                return (potential_F(um, beta) - potential_F(up, beta)) - v * (up - um)

            ref = bisect(gap, 1e-8, 0.999 * reaction_f(knee_hi, beta))
            assert equal_area_level(beta) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("beta", [0.5, 0.6])
    def test_no_equal_area_level_from_one_half(self, beta):
        # the level (1 + beta)(2 - beta)(1 - 2 beta)/27 is not positive
        with pytest.raises(ValueError, match="equal-area"):
            equal_area_level(beta)


def knee_values(beta):
    lo, hi = reaction_knees(beta)
    return reaction_f(lo, beta), reaction_f(hi, beta)


class TestOuterRoots:
    """The closed-form roots of f(u) = v against numpy.roots, the
    eigenvalues of the companion matrix of u^3 - (1+beta) u^2 + beta u + v."""

    @staticmethod
    def companion_roots(v, beta):
        return np.roots([1.0, -(1.0 + beta), beta, v])

    @given(st.floats(0.05, 0.95), st.floats(0.01, 0.99))
    def test_three_real_roots(self, beta, t):
        # v between the knee values, kept off the folds where two roots
        # merge and the eigenvalues lose half their digits
        f_lo, f_hi = knee_values(beta)
        v = f_lo + t * (f_hi - f_lo)
        roots = np.sort(self.companion_roots(v, beta).real)
        lower, upper = model._outer_roots(v, beta)
        assert lower == pytest.approx(roots[0], abs=1e-11)
        assert upper == pytest.approx(roots[2], abs=1e-11)

    @given(st.floats(0.05, 0.95), st.floats(1e-2, 1e6), st.booleans())
    def test_one_real_root(self, beta, gap, above):
        # above the upper knee value or below the lower one, both roots
        # are the one real root
        f_lo, f_hi = knee_values(beta)
        v = f_hi + gap if above else f_lo - gap
        roots = self.companion_roots(v, beta)
        real = roots[np.argmin(np.abs(roots.imag))].real
        lower, upper = model._outer_roots(v, beta)
        assert lower == upper == pytest.approx(real, rel=1e-12)

    @given(st.floats(0.3, 0.5, exclude_max=True), st.floats(-300.0, -3.0))
    def test_lower_root_in_the_tail(self, beta, exponent):
        # u ~ -v/beta under the decaying inhibitor: the product of the
        # roots keeps the lower one to a few eps relative (measured 4.6)
        # down to v = 1e-300, against the fixed point u = v / ((1-u)(u-beta))
        v = 10.0**exponent
        ref = -v / beta
        for _ in range(20):
            ref = v / ((1.0 - ref) * (ref - beta))
        lower = model._outer_roots(np.array([v]), beta)[0]
        assert abs(lower[0] - ref) <= 16.0 * np.finfo(float).eps * abs(ref)

    def test_head_length_and_interface(self):
        p = Params(d=1e-5, tau=1.0, gamma=0.1, beta=0.4)
        assert predicted_head_length(p) == pytest.approx(
            0.027629925811121964, rel=1e-10
        )
        assert interface_width(p) == pytest.approx(
            math.sqrt(2e-5 / (0.4 * 0.6)), rel=1e-14
        )
        # scale separation at this d: interface well inside the head
        assert interface_width(p) < 0.4 * predicted_head_length(p)

    def test_head_geometry(self):
        p = Params(d=1e-5, tau=1.0, gamma=0.1, beta=0.4)
        head = head_geometry(p)
        assert head.v_m == equal_area_level(0.4)
        assert head.u_plus == nullcline_branch(head.v_m, 0.4, "upper")
        assert head.rate == math.sqrt(0.1 + 1.0 / 0.4)
        assert head.curv == head.u_plus - 0.1 * head.v_m - head.v_m**3
        assert head.x1 == head.rate * head.v_m / head.curv == predicted_head_length(p)
