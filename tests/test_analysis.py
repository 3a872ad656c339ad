"""Linearization eigen-structure, decay fitting, the first-integral check,
pulse property verification, and the randomized inequality suite."""

import collections
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fhn_pulse import (
    Grid,
    Params,
    Profile,
    check_pulse_properties,
    compute_constants,
    fit_decay,
    gamma1_direct,
    hamiltonian_residual,
    linearize,
    verify_inequality_suite,
)
from fhn_pulse import analysis, energy, operators
from fhn_pulse.admissible import project
from fhn_pulse.analysis import (
    default_decay_window,
    random_admissible_profile,
    random_bumps,
)
from fhn_pulse.model import negative_tail_cutoff
from fhn_pulse.operators import InhibitorError

REF = Params(d=0.01, tau=1.0, gamma=0.3, beta=0.4)


def sample_stream(seed, k):
    """The generator that inequality-suite sample k draws from."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def usable_cpus(monkeypatch, count):
    """Make os.sched_getaffinity report count CPUs, which decides whether
    the inequality suite forks."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


class TestLinearize:
    def test_frozen_eigenvalues(self):
        lin = linearize(REF)
        assert lin.real_eigenvalues
        assert lin.lambda1 == pytest.approx(3.0029156997465018003, rel=1e-13)
        assert lin.lambda2 == pytest.approx(37.2970843002534982, rel=1e-13)
        assert lin.alpha1 == pytest.approx(2.7029156997465018003, rel=1e-13)
        assert lin.alpha2 == pytest.approx(36.9970843002534982, rel=1e-13)
        assert lin.slow_rate == pytest.approx(math.sqrt(lin.lambda1), rel=1e-15)

    def test_against_dense_eigensolver(self):
        # independent oracle: eigenvalues of [[beta/d, 1/d], [-1, gamma]]
        A = np.array([[REF.beta / REF.d, 1.0 / REF.d], [-1.0, REF.gamma]])
        eig = np.sort(np.linalg.eigvals(A).real)
        lin = linearize(REF)
        assert lin.lambda1 == pytest.approx(eig[0], rel=1e-10)
        assert lin.lambda2 == pytest.approx(eig[1], rel=1e-10)

    def test_ordering_chain(self):
        lin = linearize(REF)
        assert lin.ordering_ok
        half = REF.beta / (2.0 * REF.d)
        assert 0.0 < lin.lambda1 < half < 0.5 * lin.trace < lin.lambda2
        assert lin.lambda2 < REF.beta / REF.d
        assert 0.0 < lin.alpha1 < lin.lambda1
        assert half < lin.alpha2 < lin.lambda2

    def test_sign_products(self):
        lin = linearize(REF)
        l1_dot_a, l2_dot_b = lin.sign_products
        assert l1_dot_a > 0.0
        assert l2_dot_b < 0.0

    def test_complex_case_flagged(self):
        lin = linearize(Params(d=1.0, tau=1.0, gamma=0.3, beta=0.4))
        assert not lin.real_eigenvalues
        assert math.isnan(lin.lambda1)
        assert not lin.ordering_ok

    def test_thousand_in_regime_triples(self):
        # d below beta^2 / (4 (1 + beta gamma)) keeps the discriminant positive
        rng = np.random.default_rng(42)
        for _ in range(1000):
            beta = rng.uniform(1.0 / 3.0 + 1e-3, 0.5 - 1e-3)
            gamma = rng.uniform(1e-3, 0.999 * gamma1_direct(beta))
            d_cap = beta**2 / (4.0 * (1.0 + beta * gamma))
            d = rng.uniform(1e-6, 0.99 * d_cap)
            lin = linearize(Params(d=d, tau=1.0, gamma=gamma, beta=beta))
            assert lin.real_eigenvalues
            assert lin.ordering_ok, (d, gamma, beta)
            assert lin.sign_products[0] > 0.0
            assert lin.sign_products[1] < 0.0


class TestFitDecay:
    def test_pure_exponential(self):
        g = Grid(10.0, 1000)
        u = Profile(g, np.exp(-2.0 * g.nodes()))
        assert fit_decay(u, (2.0, 8.0)) == pytest.approx(2.0, abs=1e-6)

    def test_slow_mode_dominates_far_out(self):
        lin = linearize(REF)
        r1, r2 = lin.slow_rate, lin.fast_rate
        g = Grid(12.0, 2000)
        x = g.nodes()
        u = Profile(g, np.exp(-r1 * x) + 0.01 * np.exp(-r2 * x))
        rate = fit_decay(u, (4.0, 10.0))
        assert rate == pytest.approx(r1, rel=0.01)

    def test_window_validation(self):
        g = Grid(10.0, 100)
        x = g.nodes()
        with pytest.raises(ValueError):  # fewer than 3 nodes
            fit_decay(Profile(g, np.exp(-x)), (5.0, 5.05))
        with pytest.raises(ValueError):  # sign change inside window
            fit_decay(Profile(g, np.sin(x + 0.1)), (1.0, 8.0))
        with pytest.raises(ValueError):  # exact zeros inside window
            vals = np.exp(-x)
            vals[50] = 0.0
            fit_decay(Profile(g, vals), (4.0, 6.0))

    def test_default_window(self):
        lo, hi = default_decay_window(x2=1.5, slow_rate=2.0, x_max=10.0)
        assert lo == pytest.approx(2.5)
        assert hi == pytest.approx(9.0)


class TestHamiltonianResidual:
    def test_zero_pair(self):
        g = Grid(10.0, 100)
        z = Profile(g, np.zeros(101))
        res = hamiltonian_residual(z, z, REF)
        assert np.max(np.abs(res.values)) == 0.0

    def test_non_solution_pair_flagged(self):
        g = Grid(10.0, 400)
        x = g.nodes()
        u = Profile(g, np.exp(-((x - 3.0) ** 2)))
        v = Profile(g, 0.5 * np.exp(-((x - 5.0) ** 2)))
        res = hamiltonian_residual(u, v, REF)
        assert np.max(np.abs(res.values)) > 0.01

    def test_converged_pulse_near_zero(self, cheap_pulse):
        res = hamiltonian_residual(cheap_pulse.u0, cheap_pulse.v0, cheap_pulse.params)
        h = cheap_pulse.grid.h
        # layer curvature scales the h^2 constant by 1/d
        assert np.max(np.abs(res.values[1:-1])) <= 5e-3 * h**2 / cheap_pulse.params.d

    def test_grid_mismatch(self):
        a = Profile(Grid(10.0, 100), np.zeros(101))
        b = Profile(Grid(10.0, 200), np.zeros(201))
        with pytest.raises(ValueError):
            hamiltonian_residual(a, b, REF)


class TestPulseProperties:
    def test_all_pass_on_pulse(self, cheap_pulse):
        report = check_pulse_properties(cheap_pulse)
        failed = [c.name for c in report.checks if not c.passed]
        assert report.all_passed, f"failed: {failed}"
        names = {c.name for c in report.checks}
        assert {
            "level_crossing_unique",
            "zero_crossing_unique",
            "sign_bands",
            "u_decreasing_mid",
            "unique_negative_min",
            "v_positive",
            "v_decreasing_tail",
            "psi1_nonnegative",
            "psi2_nonnegative",
            "slow_decay_rate",
            "hamiltonian_identity",
            "steady_state_residual",
        } <= names

    def test_decay_rate_check_tight(self, cheap_pulse):
        report = check_pulse_properties(cheap_pulse)
        decay = next(c for c in report.checks if c.name == "slow_decay_rate")
        predicted = linearize(cheap_pulse.params).slow_rate
        assert abs(decay.witness - predicted) / predicted < 0.05

    def test_refuses_nonconverged(self, cheap_pulse):
        bad = dataclasses.replace(cheap_pulse, converged=False)
        with pytest.raises(ValueError):
            check_pulse_properties(bad)

    def test_two_hump_negative_control(self, cheap_pulse):
        x = cheap_pulse.grid.nodes()
        vals = cheap_pulse.u0.values.copy()
        vals += 0.6 * np.exp(-(((x - 6.0) / 0.5) ** 2))  # second hump in the tail
        fake = dataclasses.replace(cheap_pulse, u0=Profile(cheap_pulse.grid, vals))
        report = check_pulse_properties(fake)
        assert not report.all_passed
        failed = {c.name for c in report.checks if not c.passed}
        assert failed & {
            "level_crossing_unique",
            "zero_crossing_unique",
            "sign_bands",
            "unique_negative_min",
        }

    def test_report_text_format(self, cheap_pulse):
        report = check_pulse_properties(cheap_pulse)
        text = report.to_text()
        lines = text.splitlines()
        assert lines[-1] == "overall: pass"
        assert all(l.startswith("[pass]") for l in lines[:-1])


def loop_crossings(values, level, delta):
    """Reference for analysis._hysteresis_crossings: a node-by-node state
    machine over the values."""
    state = 0  # +1 above, -1 below, 0 undecided
    down = up = 0
    for val in values:
        s = val - level
        if s > delta:
            if state == -1:
                up += 1
            state = 1
        elif s < -delta:
            if state == 1:
                down += 1
            state = -1
    return down, up


# dyadic level and delta make level +- delta and val - level exact, so
# values sit exactly on the band's edges
DYADIC = st.integers(-64, 64).map(lambda k: k / 16.0)


@st.composite
def crossing_inputs(draw):
    level = draw(st.one_of(DYADIC, st.floats(-1e3, 1e3)))
    delta = draw(st.one_of(DYADIC.map(abs), st.floats(0.0, 10.0)))
    edges = st.sampled_from([level + delta, level - delta, level, math.nan])
    values = draw(
        st.lists(st.one_of(edges, st.floats(), DYADIC), max_size=80)
    )
    return np.array(values, dtype=float), level, delta


class TestHysteresisCrossings:
    @settings(max_examples=300)
    @given(crossing_inputs())
    @example((np.array([0.0, 1.0, 0.5, math.nan, -1.0, 2.0, -2.0, 0.0]), 0.5, 0.1))
    @example((np.array([0.75, 0.25, 0.75, 0.25]), 0.5, 0.25))  # on the edges
    @example((np.array([], dtype=float), 0.0, 0.0))
    def test_agrees_with_loop(self, case):
        values, level, delta = case
        assert analysis._hysteresis_crossings(values, level, delta) == loop_crossings(
            values, level, delta
        )

    def test_agrees_with_loop_on_pulse(self, fine_pulse):
        u = fine_pulse.u0.values
        h = fine_pulse.grid.h
        for level in (fine_pulse.params.beta, 0.0):
            for delta in (max(1e-7, 10.0 * h**2), 0.0):
                got = analysis._hysteresis_crossings(u, level, delta)
                assert got == loop_crossings(u, level, delta) == (1, 0)


class TestPropertyGuard:
    """Checks whose input is missing fail with a NaN witness and a detail
    naming the input; the other checks are still computed."""

    NAMES = [
        "level_crossing_unique",
        "zero_crossing_unique",
        "sign_bands",
        "u_decreasing_mid",
        "unique_negative_min",
        "v_positive",
        "v_decreasing_tail",
        "psi1_nonnegative",
        "psi2_nonnegative",
        "slow_decay_rate",
        "hamiltonian_identity",
        "steady_state_residual",
    ]
    NEEDS_X2 = {
        "zero_crossing_unique",
        "sign_bands",
        "u_decreasing_mid",
        "unique_negative_min",
        "v_decreasing_tail",
        "slow_decay_rate",
    }
    NEEDS_EIGEN = {"psi1_nonnegative", "psi2_nonnegative", "slow_decay_rate"}

    def _assert_guarded(self, report, guarded, word):
        assert [c.name for c in report.checks] == self.NAMES
        for c in report.checks:
            if c.name in guarded:
                assert not c.passed and math.isnan(c.witness), c
                assert word in c.detail, c
            else:
                assert not math.isnan(c.witness), c

    def test_names_in_order(self, cheap_pulse):
        names = [c.name for c in check_pulse_properties(cheap_pulse).checks]
        assert names == self.NAMES

    def test_missing_x2(self, cheap_pulse):
        fake = dataclasses.replace(cheap_pulse, i2=None, x2=None)
        report = check_pulse_properties(fake)
        self._assert_guarded(report, self.NEEDS_X2, "x2")
        full = {c.name: c for c in check_pulse_properties(cheap_pulse).checks}
        for c in report.checks:
            if c.name not in self.NEEDS_X2:
                assert c == full[c.name]

    def test_complex_eigenvalues(self, cheap_pulse):
        params = dataclasses.replace(cheap_pulse.params, d=1.0)
        assert not linearize(params).real_eigenvalues
        report = check_pulse_properties(dataclasses.replace(cheap_pulse, params=params))
        self._assert_guarded(report, self.NEEDS_EIGEN, "eigenvalues")

    def test_empty_tail_window_fails_without_crash(self, cheap_pulse):
        # x2 at the last node leaves no tail to hold the negative minimum
        fake = dataclasses.replace(cheap_pulse, i2=cheap_pulse.grid.n)
        report = check_pulse_properties(fake)
        tail_min = next(c for c in report.checks if c.name == "unique_negative_min")
        assert not tail_min.passed and tail_min.witness == math.inf


class TestInequalitySuite:
    def test_worked_pair_seed7(self):
        # 100 samples, seed 7, at the (0.4, 0.3) reference pair
        params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
        report = verify_inequality_suite(params, Grid(30.0, 2048), 100, seed=7)
        assert report.all_passed, report.to_text()

    def test_report_shape_and_counts(self):
        params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
        report = verify_inequality_suite(params, Grid(30.0, 1024), 20, seed=0)
        assert report.n_samples == 20 and report.seed == 0
        names = [c.name for c in report.checks]
        assert "resolvent_sandwich" in names
        assert "green_methods_order_h2" in names
        assert "energy_lower_bound" in names
        for c in report.checks:
            assert 0 <= c.n_pass <= c.n_total
        assert report.to_text().splitlines()[-1] in ("overall: pass", "overall: FAIL")
        assert report.all_passed

    def test_unconverged_smooth_response_raises(self, monkeypatch):
        # the first smooth sample's response falls short of tolerance: the
        # suite stops on that solve, before the response feeds a margin.
        # The sample is rebuilt from sample 0's stream (admissible sample,
        # then smooth sample) and recognized by its values
        samples, seed, grid = 4, 0, Grid(30.0, 512)
        params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
        M = compute_constants(params.beta, params.gamma).M
        rng = sample_stream(seed, 0)
        random_admissible_profile(rng, grid, params.beta, M)
        first_smooth = random_bumps(rng, grid, span=grid.x_max / 2.0)
        solve = analysis.solve_inhibitor
        inputs = []

        def failing(u, *args, **kwargs):
            inputs.append(u.values)
            if np.array_equal(u.values, first_smooth):
                raise InhibitorError(
                    "inhibitor solve failed: residual 1.000e+00 after 50 Newton steps"
                )
            return solve(u, *args, **kwargs)

        monkeypatch.setattr(analysis, "solve_inhibitor", failing)
        with pytest.raises(InhibitorError, match="inhibitor solve failed"):
            verify_inequality_suite(params, grid, samples, seed=seed)
        matches = [np.array_equal(values, first_smooth) for values in inputs]
        assert matches.count(True) == 1 and matches[-1]

    def test_each_distinct_input_solved_once(self, monkeypatch, tmp_path):
        # the suite runs in two processes here, so each call appends a line
        # naming its kind and process to a file both of them write
        log = tmp_path / "calls"

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                if key != "linear" or np.ndim(args[0]) == 0:
                    with open(log, "a") as f:
                        f.write(f"{key} {os.getpid()}\n")
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            analysis, "solve_inhibitor", counted("suite", analysis.solve_inhibitor)
        )
        monkeypatch.setattr(
            energy, "solve_inhibitor", counted("energy", energy.solve_inhibitor)
        )
        monkeypatch.setattr(
            operators, "solve_shifted", counted("linear", operators.solve_shifted)
        )
        usable_cpus(monkeypatch, 2)
        params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
        samples, grid = 10, Grid(30.0, 512)
        M = compute_constants(params.beta, params.gamma).M
        report = verify_inequality_suite(params, grid, samples, seed=0)
        lines = [line.split() for line in log.read_text().splitlines()]
        calls = collections.Counter(key for key, _ in lines)
        assert len({pid for _, pid in lines}) == 2
        # each admissible and smooth sample, half the admissible ones minus
        # a bump (monotonicity), and each admissible sample's negative part
        # and, when it has a negative node, its positive part: the sandwich
        # reuses the positive parts' responses. The admissible samples are
        # rebuilt from their streams; the odd ones carry a bump
        expected = 0
        for k in range(samples):
            w = random_admissible_profile(sample_stream(0, k), grid, params.beta, M)
            expected += 3 + k % 2 + bool(np.any(w.values < 0.0))
        assert expected < 4.5 * samples  # some sample has no negative node
        assert calls["suite"] == expected
        # the admissible samples' energies reuse their responses: the
        # competitor on the grid is the one energy that solves
        assert calls["energy"] == 1
        # each of those solves starts from the one linear solve of its
        # input (L(pos) serves w itself when w has no negative node, and
        # L(s) also serves the self-adjoint pairs), and the ladder solves
        # its 3 bumps on 3 grids
        assert calls["linear"] == expected + 1 + 9
        assert [c.name for c in report.checks] == [
            "response_h1_bound",
            "response_lipschitz",
            "response_monotone",
            "resolvent_sandwich",
            "response_bounds",
            "resolvent_self_adjoint",
            "nonlocal_positive",
            "nonlocal_difference_positive",
            "decomposition_lower_bound",
            "energy_two_form_gap",
            "response_energy_identity",
            "competitor_gap_closed_form",
            "competitor_gap_on_grid",
            "energy_lower_bound",
            "green_methods_order_h2",
        ]

    def test_tolerance_column(self):
        # the suite's tol reaches every check but the three single-value
        # cross-checks, which hold with tolerance 0, and the report order
        # does not follow the tolerance
        params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
        grid = Grid(30.0, 256)
        default = verify_inequality_suite(params, grid, 2, seed=0)
        report = verify_inequality_suite(params, grid, 2, seed=0, tol=1e-3)
        cross = {
            "competitor_gap_closed_form",
            "competitor_gap_on_grid",
            "green_methods_order_h2",
        }
        assert [c.name for c in report.checks] == [c.name for c in default.checks]
        assert len(report.checks) == 15
        for c in report.checks:
            assert c.tolerance == (0.0 if c.name in cross else 1e-3), c.name

    def test_report_digest(self):
        # the sha256 of a small report, as the suite gives it drawing each
        # sample from its own stream: the streams, the draw order and each
        # margin's arithmetic fix every byte. The bytes also follow numpy's
        # exp and BLAS dot kernels (numpy 2.4, OpenBLAS 0.3.31 on AVX-512),
        # so a build whose kernels round differently needs the digest
        # re-taken from a commit known to be good. The report's constants include
        # the tail cutoff M, so its last bits move the digest too
        params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
        report = verify_inequality_suite(params, Grid(30.0, 512), 7, seed=3)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0beec3003b022bf664f8820b176a4f24a0bdcbd3260ef645eb578a96dbeeb7d5"
        )

    def test_memory_does_not_grow_with_samples(self):
        # each sample's arrays live only while its own checks run: from 8
        # to 64 samples the traced peak grows by the margins, far less than
        # 32 state-sized arrays (holding every sample to the end grew it by
        # some 240 of them)
        params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
        grid = Grid(30.0, 1024)
        verify_inequality_suite(params, grid, 2, seed=0)  # warm-up
        peaks = []
        for samples in (8, 64):
            tracemalloc.start()
            try:
                verify_inequality_suite(params, grid, samples, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 32 * 8 * (grid.n + 1)

    def test_check_without_samples_fails(self):
        # a check that saw no sample verified nothing: one sample leaves the
        # pair checks empty, and each of them must fail, not pass 0/0
        assert not analysis.SuiteCheck("empty", 0, 0, 0.0, 1e-6).passed
        assert analysis.SuiteCheck("one", 1, 1, 0.0, 1e-6).passed
        params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
        report = verify_inequality_suite(params, Grid(30.0, 256), 1, seed=0)
        empty = [c for c in report.checks if c.n_total == 0]
        assert [c.name for c in empty] == [
            "response_lipschitz",
            "response_monotone",
            "resolvent_sandwich",
            "resolvent_self_adjoint",
            "nonlocal_difference_positive",
        ]
        assert not any(c.passed for c in empty)
        assert not report.all_passed
        assert "[FAIL] response_lipschitz: 0/0 " in report.to_text()

    @pytest.mark.parametrize("n, passed", [(256, False), (1024, True)])
    def test_competitor_on_grid_depends_on_resolution(self, n, passed):
        # q0(a_q0, b_q0) has a ramp far narrower than h, so on the grid it is
        # a one-node spike: the on-grid check is a cross-check whose verdict
        # follows h, and its detail says so; the closed form holds at both
        params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)
        grid = Grid(30.0, n)
        consts = compute_constants(params.beta, params.gamma)
        assert consts.b_q0 < grid.h
        report = verify_inequality_suite(params, grid, 2, seed=0)
        checks = {c.name: c for c in report.checks}
        assert checks["competitor_gap_closed_form"].passed
        on_grid = checks["competitor_gap_on_grid"]
        assert on_grid.passed is passed
        assert on_grid.detail.endswith(
            f"[a, b] = [{consts.a_q0:.3e}, {consts.b_q0:.3e}], h = {grid.h:.3e}"
        )

    def test_seeded_samples_reproducible(self):
        g = Grid(20.0, 512)
        M = negative_tail_cutoff(0.4, 0.3)
        a = random_admissible_profile(np.random.default_rng(5), g, 0.4, M)
        b = random_admissible_profile(np.random.default_rng(5), g, 0.4, M)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_samplers_keep_bits_and_draw_order(self, seed):
        # the samplers against the in-place bump sum they replaced: same
        # scalars in the same order (the generators end in the same state)
        # and the same bits, term by term in the order of the expression
        grid = Grid(30.0, 4096)
        n, x = grid.n, grid.nodes()
        M = negative_tail_cutoff(0.4, 0.3)

        def old_bumps(rng, span):
            bumps = [
                (rng.uniform(0.0, span), rng.uniform(0.3, 1.5), rng.uniform(-1.5, 1.5))
                for _ in range(int(rng.integers(3, 7)))
            ]
            out, t = np.zeros_like(x), np.empty_like(x)
            for c, width, amp in bumps:
                np.subtract(x, c, out=t)
                np.square(t, out=t)
                np.negative(t, out=t)
                t /= 2.0 * width**2
                np.exp(t, out=t)
                t *= amp
                out += t
            return out

        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            i1 = int(old.integers(max(4, n // 40), n // 6))
            i2 = int(old.integers(i1 + max(4, n // 40), n // 3))
            raw = old_bumps(old, grid.x_max / 2.0)
            raw[: i1 + 1] += 1.0
            want = project(Profile(grid, raw), i1, i2, 0.4, M)
            got = random_admissible_profile(new, grid, 0.4, M)
            assert np.array_equal(got.values, want.values)
            want = old_bumps(old, 10.0)
            assert np.array_equal(random_bumps(new, grid, span=10.0), want)
            assert old.bit_generator.state == new.bit_generator.state


class TestTwoProcessSuite:
    """Where two CPUs are usable, a forked child solves the second half of
    the suite's samples; the report must not show it."""

    PARAMS = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)

    def test_ranges_join_at_every_even_split(self):
        # two ranges joined by the pair that straddles their cut give the
        # margins of one range over all the samples
        grid, n, seed, lip_const = Grid(30.0, 256), 7, 3, 1.0 / 0.3
        whole, _, _ = analysis._sample_range(self.PARAMS, grid, seed, 0, n)
        assert len(whole["response_lipschitz"]) == n - 1
        for cut in (2, 4, 6):
            margins, _, last = analysis._sample_range(self.PARAMS, grid, seed, 0, cut)
            upper, first, _ = analysis._sample_range(self.PARAMS, grid, seed, cut, n)
            lipschitz, difference = analysis._pair_margins(last, first, lip_const)
            margins["response_lipschitz"].append(lipschitz)
            margins["nonlocal_difference_positive"].append(difference)
            for name, values in upper.items():
                margins[name].extend(values)
            assert margins == whole, cut

    def test_sample_depends_on_seed_and_index_only(self, monkeypatch):
        # a longer suite keeps the margins of its common samples: sample k
        # is drawn from its own stream, whatever n_samples is
        usable_cpus(monkeypatch, 1)
        sample_range, runs = analysis._sample_range, []

        def recorded(*args):
            result = sample_range(*args)
            runs.append(result[0])
            return result

        monkeypatch.setattr(analysis, "_sample_range", recorded)
        for samples in (6, 10):
            verify_inequality_suite(self.PARAMS, Grid(30.0, 256), samples, seed=4)
        short, long = runs
        for name in ("response_h1_bound", "response_bounds", "nonlocal_positive"):
            assert long[name][:6] == short[name], name
        assert long["response_monotone"][:3] == short["response_monotone"]

    @pytest.mark.parametrize("cpus, usable", [(1, False), (2, True), (3, True), (None, False)])
    def test_two_cpus_reads_affinity_at_call_time(self, monkeypatch, cpus, usable):
        # None: a platform without os.sched_getaffinity
        from fhn_pulse import _processes

        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            usable_cpus(monkeypatch, cpus)
        assert _processes.two_cpus() is usable

    def test_forked_report_equals_one_cpu_report(self, monkeypatch):
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        grid = Grid(30.0, 1024)
        reports = []
        for cpus in (2, 1):
            usable_cpus(monkeypatch, cpus)
            report = verify_inequality_suite(self.PARAMS, grid, 10, seed=5)
            reports.append((json.dumps(report.to_dict()), report.to_text()))
            assert len(forks) == 1
        assert reports[0] == reports[1]
        assert reports[0][1].splitlines()[-1] == "overall: pass"

    def test_child_error_raised_here(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        parent, solve = os.getpid(), analysis.solve_inhibitor

        def failing_in_child(u, *args, **kwargs):
            if os.getpid() != parent:
                raise InhibitorError(
                    "inhibitor solve failed: residual 2.500e-03 after 50 Newton steps"
                )
            return solve(u, *args, **kwargs)

        monkeypatch.setattr(analysis, "solve_inhibitor", failing_in_child)
        with pytest.raises(InhibitorError, match=r"residual 2\.500e-03 after 50"):
            verify_inequality_suite(self.PARAMS, Grid(30.0, 256), 8, seed=0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("child", ["sleeps", "fails"])
    def test_parent_error_kills_and_reaps_child(self, monkeypatch, child):
        # a child still solving is killed, not waited for; when both halves
        # fail, the lower half's error is the one raised
        usable_cpus(monkeypatch, 2)
        parent = os.getpid()

        def failing(u, *args, **kwargs):
            if os.getpid() == parent:
                raise InhibitorError("lower half failed")
            if child == "sleeps":
                time.sleep(60.0)
            raise InhibitorError("upper half failed")

        monkeypatch.setattr(analysis, "solve_inhibitor", failing)
        start = time.monotonic()
        with pytest.raises(InhibitorError, match="lower half failed"):
            verify_inequality_suite(self.PARAMS, Grid(30.0, 256), 8, seed=0)
        assert time.monotonic() - start < 30.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unpinned_blas_threads_keep_digest(self):
        # the child is forked from a process whose BLAS worker threads are
        # running; it must neither hang nor change a bit of the report,
        # which is compared with the same report built here, so that the
        # check holds whatever kernels this host's numpy and BLAS round with
        code = (
            "import hashlib, json, os\n"
            "import numpy as np\n"
            "a = np.ones((600, 600)); a @ a\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from fhn_pulse import Grid, Params, verify_inequality_suite\n"
            "params = Params(d=0.005, tau=1.0, gamma=0.3, beta=0.4)\n"
            "report = verify_inequality_suite(params, Grid(30.0, 512), 7, seed=3)\n"
            "text = json.dumps(report.to_dict(), sort_keys=True)\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True, timeout=120,
        )
        threads, digest = proc.stdout.split()
        if (os.cpu_count() or 1) > 1:
            assert int(threads) > 1
        report = verify_inequality_suite(self.PARAMS, Grid(30.0, 512), 7, seed=3)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert digest == hashlib.sha256(text.encode()).hexdigest()
