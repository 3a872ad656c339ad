"""Energy functional: two independent forms, closed-form competitor values,
and the finite-difference gradient check."""

import numpy as np
import pytest

from fhn_pulse import (
    Grid,
    Params,
    Profile,
    build_q0,
    compute_constants,
    evaluate_energy,
    negative_tail_cutoff,
    potential_F,
    project,
)
from fhn_pulse.grid import integrate
from fhn_pulse.operators import _fd_residual
from fhn_pulse.admissible import (
    detect_crossings,
    q0_energy_upper_bound,
    q0_gradient_term,
    q0_nonlocal_upper_bound,
    q0_potential_term,
)
from tests.conftest import CHEAP_GRID, CHEAP_PARAMS

PARAMS = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
EPS = float(np.finfo(float).eps)
GRID = Grid(30.0, 2048)


def random_admissible(seed: int, grid: Grid = GRID) -> Profile:
    rng = np.random.default_rng(seed)
    x = grid.nodes()
    vals = np.zeros_like(x)
    for _ in range(3):
        c = rng.uniform(0.5, 8.0)
        w = rng.uniform(0.5, 2.0)
        vals += rng.uniform(0.3, 1.0) * np.exp(-(((x - c) / w) ** 2))
    vals = 1.0 * vals / max(vals.max(), 1e-12)
    vals -= 0.05 * np.exp(-(((x - 12.0) / 3.0) ** 2))
    vals[-1] = 0.0
    p = Profile(grid, vals)
    i1, i2 = detect_crossings(p, PARAMS.beta)
    if i1 is None:
        return p
    M = negative_tail_cutoff(PARAMS.beta, PARAMS.gamma)
    return project(p, i1, i2, PARAMS.beta, M)


class TestEnergyValues:
    def test_zero_profile(self):
        w = Profile(GRID, np.zeros(GRID.n + 1))
        rep = evaluate_energy(w, PARAMS)[0]
        assert rep.total == 0.0
        assert rep.gradient_term == 0.0
        assert rep.potential_term == 0.0
        assert rep.nonlocal_term == 0.0

    def test_two_forms_agree(self):
        for seed in range(6):
            w = random_admissible(seed)
            rep = evaluate_energy(w, PARAMS)[0]
            assert rep.form_gap <= 1e-8, f"seed {seed}: gap {rep.form_gap}"

    def test_response_energy_identity(self):
        # int w N(w) = int (v'^2 + gamma v^2 + v^4) at the solved response
        w = random_admissible(2)
        rep, _, sol = evaluate_energy(w, PARAMS)
        weights = GRID.weights()
        vv = sol.v.values
        lhs = float(np.dot(weights, w.values * vv))
        dv = np.diff(vv)
        rhs = float(np.dot(dv, dv)) / GRID.h + float(
            np.dot(weights, PARAMS.gamma * vv**2 + vv**4)
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestCompetitorClosedForms:
    def test_gradient_term_exact(self):
        assert q0_gradient_term(0.005, 2.0, 3.0) == pytest.approx(0.0025, rel=1e-14)

    def test_potential_term_vs_quadrature(self):
        a, b, beta = 2.0, 3.0, 0.4
        closed = q0_potential_term(beta, a, b)
        q0 = build_q0(a, b, GRID)
        direct = integrate(Profile(GRID, potential_F(q0.values, beta)))
        assert closed == pytest.approx(direct, abs=50.0 * GRID.h**2)

    def test_grid_energy_below_upper_bound(self):
        a, b = 2.0, 3.0
        q0 = build_q0(a, b, GRID)
        rep = evaluate_energy(q0, PARAMS)[0]
        bound = q0_energy_upper_bound(PARAMS.d, PARAMS.beta, PARAMS.gamma, a, b)
        assert rep.total <= bound + 1e-6

    def test_constructive_breakpoints_reproduce_gap(self):
        # with the certified (a, b, d) the closed-form bound lands at -M0
        c = compute_constants(0.4, 0.3)
        bound = q0_energy_upper_bound(c.d0, 0.4, 0.3, c.a_q0, c.b_q0)
        assert bound == pytest.approx(-c.M0, rel=1e-9)
        assert bound < 0.0


class TestGradient:
    def test_zero_profile(self):
        w = Profile(GRID, np.zeros(GRID.n + 1))
        g = evaluate_energy(w, PARAMS)[1]
        assert np.max(np.abs(g.values)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_difference(self, seed):
        rng = np.random.default_rng(100 + seed)
        w = random_admissible(seed)
        x = GRID.nodes()
        hat = np.exp(-(((x - rng.uniform(2.0, 10.0)) / rng.uniform(1.0, 2.0)) ** 2))
        hat[-1] = 0.0
        what = Profile(GRID, hat)

        g = evaluate_energy(w, PARAMS, inhibitor_tol=1e-13)[1]
        lhs = float(np.dot(GRID.weights(), g.values * hat))

        eps = 1e-6
        Jp = evaluate_energy(
            Profile(GRID, w.values + eps * hat), PARAMS, inhibitor_tol=1e-13
        )[0].total
        Jm = evaluate_energy(
            Profile(GRID, w.values - eps * hat), PARAMS, inhibitor_tol=1e-13
        )[0].total
        fd = (Jp - Jm) / (2.0 * eps)
        assert lhs == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_gradient_zero_iff_steady(self):
        # the gradient is the steady-state residual d u'' + f(u) - v, negated
        w = random_admissible(3)
        rep, grad, sol = evaluate_energy(w, PARAMS)
        h = GRID.h
        u = w.values
        interior = (
            PARAMS.d * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
            + u[1:-1] * (1.0 - u[1:-1]) * (u[1:-1] - PARAMS.beta)
            - sol.v.values[1:-1]
        )
        assert np.allclose(grad.values[1:-1], -interior, atol=1e-10)


class TestProductForms:
    """The kernels write cubes and fourth powers as products, because numpy's
    array power is slow on negative entries. They must match the power
    forms to a few ULPs, on mixed-sign and all-negative inputs and on a
    pulse with a negative tail."""

    @staticmethod
    def _power_F(xi, beta):
        return xi**4 / 4.0 - (1.0 + beta) * xi**3 / 3.0 + beta * xi**2 / 2.0

    @staticmethod
    def _power_residual(v, u, gamma, h):
        m = len(v) - 1
        r = np.empty(m)
        r[0] = (2.0 * v[0] - 2.0 * v[1]) / h**2 + gamma * v[0] + v[0] ** 3 - u[0]
        r[1:m] = (
            (-v[0 : m - 1] + 2.0 * v[1:m] - v[2 : m + 1]) / h**2
            + gamma * v[1:m]
            + v[1:m] ** 3
            - u[1:m]
        )
        return r

    @pytest.fixture(scope="class")
    def arrays(self, cheap_pulse):
        tail = cheap_pulse.u0.values
        assert np.count_nonzero(tail < 0.0) > tail.size // 2
        return {
            "mixed": np.linspace(-1.5, 1.5, 1001),
            "negative": np.linspace(-2.0, -1e-3, 1001),
            "pulse": tail,
        }

    def test_potential_F(self, arrays):
        for name, xi in arrays.items():
            np.testing.assert_allclose(
                potential_F(xi, CHEAP_PARAMS.beta),
                self._power_F(xi, CHEAP_PARAMS.beta),
                rtol=1e-14,
                atol=1e-15,  # the terms cancel near the roots of F
                err_msg=name,
            )

    def test_inhibitor_residual(self, arrays):
        gamma, h = CHEAP_PARAMS.gamma, CHEAP_GRID.h
        for name, v in arrays.items():
            u = v[::-1].copy()
            vmax, umax = np.abs(v).max(), np.abs(u).max()
            # roundoff of the residual's terms, as in solve_inhibitor's floor
            scale = 4.0 * vmax / h**2 + gamma * vmax + vmax**3 + umax
            np.testing.assert_allclose(
                _fd_residual(v, u, gamma, h),
                self._power_residual(v, u, gamma, h),
                rtol=1e-14,
                atol=4.0 * EPS * scale,
                err_msg=name,
            )

    def test_energy_totals(self, cheap_pulse):
        w = cheap_pulse.u0
        rep, _, sol = evaluate_energy(w, CHEAP_PARAMS)
        wv, vv, h = w.values, sol.v.values, CHEAP_GRID.h
        weights = CHEAP_GRID.weights()
        gamma = CHEAP_PARAMS.gamma
        dw, dv = np.diff(wv), np.diff(vv)
        gradient = 0.5 * CHEAP_PARAMS.d * float(np.dot(dw, dw)) / h
        potential = float(np.dot(weights, self._power_F(wv, CHEAP_PARAMS.beta)))
        nonlocal_ = float(np.dot(weights, 0.5 * wv * vv + 0.25 * vv**4))
        alt_nonlocal = (
            -0.5 * float(np.dot(dv, dv)) / h
            - float(np.dot(weights, 0.5 * gamma * vv**2 + 0.25 * vv**4))
            + float(np.dot(weights, wv * vv))
        )
        atol = 4.0 * EPS * (abs(gradient) + abs(potential) + abs(nonlocal_))
        assert rep.total == pytest.approx(
            gradient + potential + nonlocal_, rel=1e-14, abs=atol
        )
        assert rep.alt_total == pytest.approx(
            gradient + potential + alt_nonlocal, rel=1e-14, abs=atol
        )
