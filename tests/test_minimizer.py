"""Projected descent: fixed-point behavior, monotonicity, initialization,
grid-refinement stability and the coupled Newton polish."""

import dataclasses

import numpy as np
import pytest

from fhn_pulse import (
    Grid,
    MinimizeOptions,
    Params,
    Profile,
    build_outer_profile,
    build_q0,
    default_initial_profile,
    detect_crossings,
    evaluate_energy,
    minimize,
    negative_tail_cutoff,
    project,
)
from fhn_pulse import minimizer
from fhn_pulse.minimizer import _band_assignment, _newton_polish
from fhn_pulse.operators import solve_steady
from tests.conftest import CHEAP_GRID, CHEAP_PARAMS, FINE_PARAMS, refine_onto


class TestConvergedPulse:
    def test_converged_clean(self, cheap_pulse):
        res = cheap_pulse
        assert res.converged and res.termination == "gtol"
        assert res.active_constraint_count == 0
        assert res.active_constraint_fraction == 0.0
        assert res.el_residual_max < 1e-6

    def test_crossing_geometry(self, cheap_pulse):
        res = cheap_pulse
        assert 0.0 < res.x1 < res.x2 < res.grid.x_max
        assert res.i1 < res.i2
        # head above beta, tail below zero
        assert res.u0.values[0] > CHEAP_PARAMS.beta
        assert res.u0.values.min() < 0.0

    def test_monotone_energy_history(self, cheap_pulse):
        hist = np.asarray(cheap_pulse.energy_history)
        assert len(hist) == cheap_pulse.iterations + 1
        assert np.all(np.diff(hist) <= 1e-14)

    def test_fixed_point_restart(self, cheap_pulse):
        res = minimize(
            CHEAP_PARAMS,
            CHEAP_GRID,
            init=cheap_pulse.u0,
            options=MinimizeOptions(gtol=1e-8),
        )
        assert res.converged
        assert res.iterations <= 2
        assert res.energy.total == pytest.approx(
            cheap_pulse.energy.total, abs=1e-10
        )

    def test_inhibitor_positive(self, cheap_pulse):
        # drop the last two nodes: the Dirichlet truncation pins v = 0 there
        assert np.all(cheap_pulse.v0.values[:-2] > 0.0)

    def test_is_pulse(self, cheap_pulse):
        assert cheap_pulse.is_pulse
        pinned = dataclasses.replace(cheap_pulse, active_constraint_count=3)
        assert pinned.converged and not pinned.is_pulse
        assert "is_pulse" not in cheap_pulse.to_dict()


class TestRefinementStability:
    def test_energy_order_and_crossing_stability(self, cheap_pulse):
        levels = [2048, 4096, 8192]
        chain = {4096: cheap_pulse}
        for n in (2048, 8192):
            grid = Grid(12.0, n)
            res = minimize(
                CHEAP_PARAMS,
                grid,
                init=refine_onto(cheap_pulse, grid),
                options=MinimizeOptions(gtol=1e-8),
            )
            assert res.converged
            chain[n] = res

        J = {n: chain[n].energy.total for n in levels}
        ratio = (J[2048] - J[4096]) / (J[4096] - J[8192])
        assert 2.5 <= ratio <= 6.0, f"energy Richardson ratio {ratio}"

        for attr in ("x1", "x2"):
            for n_coarse, n_fine in ((2048, 4096), (4096, 8192)):
                delta = abs(
                    getattr(chain[n_coarse], attr) - getattr(chain[n_fine], attr)
                )
                h = chain[n_coarse].grid.h
                assert delta <= 10.0 * h * h, f"{attr} moved {delta} at h={h}"


class TestInitialization:
    def test_outer_profile_is_admissible_start(self):
        prof = build_outer_profile(CHEAP_PARAMS, CHEAP_GRID)
        i1, i2 = detect_crossings(prof, CHEAP_PARAMS.beta)
        assert i1 is not None and i2 is not None
        assert 0 < i1 < i2
        assert prof.values[0] > CHEAP_PARAMS.beta
        assert prof.values[-1] == 0.0

    def test_default_scan_info(self):
        prof, info = default_initial_profile(CHEAP_PARAMS, CHEAP_GRID)
        assert info["source"] == "default_scan"
        assert info["chosen"] in {"outer", "q0"}
        assert isinstance(info["scan"], list) and info["scan"]
        assert info["init_energy"] == min(e["energy"] for e in info["scan"])
        i1, _ = detect_crossings(prof, CHEAP_PARAMS.beta)
        assert i1 is not None

    def test_user_init_grid_mismatch(self):
        other = Grid(12.0, 1024)
        init = build_q0(1.0, 1.8, other)
        with pytest.raises(ValueError):
            minimize(CHEAP_PARAMS, CHEAP_GRID, init=init)

    def test_init_without_head_rejected(self):
        flat = Profile(CHEAP_GRID, np.zeros(CHEAP_GRID.n + 1))
        with pytest.raises(ValueError):
            minimize(CHEAP_PARAMS, CHEAP_GRID, init=flat)

    def test_head_sized_start_beats_wide_ramp(self, cheap_pulse):
        # at d = 1e-5 the pulse head is ~0.028 long; a unit-scale ramp start
        # descends into a wide high-energy basin instead. The default scan
        # exists precisely to size the start to the predicted head length.
        res = minimize(
            CHEAP_PARAMS,
            CHEAP_GRID,
            init=build_q0(1.0, 1.8, CHEAP_GRID),
            options=MinimizeOptions(gtol=1e-8),
        )
        assert res.converged
        assert cheap_pulse.energy.total < res.energy.total
        assert cheap_pulse.x1 < 0.1 < res.x1

    def test_verdict_survives_one_ulp_start_changes(self):
        # the wide-ramp solve ends where J moves by single ULPs per step;
        # the line search must not turn that into a verdict that depends
        # on the last bit of the start
        base = build_q0(1.0, 1.8, CHEAP_GRID).values
        runs = [
            minimize(
                CHEAP_PARAMS,
                CHEAP_GRID,
                init=Profile(CHEAP_GRID, base * scale),
                options=MinimizeOptions(gtol=1e-8),
            )
            for scale in (1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53)
        ]
        first = runs[0]
        for res in runs[1:]:
            assert res.termination == first.termination
            assert res.converged == first.converged
            assert res.iterations == first.iterations
            assert res.active_constraint_count == first.active_constraint_count
            assert abs(res.energy.alt_total - first.energy.alt_total) <= 1e-15


class TestBandAssignment:
    def test_exact_zero_keeps_detected_index(self):
        grid = Grid(10.0, 100)
        vals = np.where(grid.nodes() <= 1.0, 1.0, 0.0)
        prof = Profile(grid, vals)
        assert _band_assignment(prof, 0.4) == detect_crossings(prof, 0.4)

    def test_negative_crossing_node_moves_to_tail(self):
        grid = Grid(10.0, 100)
        x = grid.nodes()
        vals = np.where(x <= 1.0, 1.0, np.where(x <= 2.0, 0.2, -0.1))
        prof = Profile(grid, vals)
        i1_det, i2_det = detect_crossings(prof, 0.4)
        i1, i2 = _band_assignment(prof, 0.4)
        assert i1 == i1_det
        # node i2_det holds -0.1 < 0: clamping it into [0, beta] would pin
        # the crossing; the assignment hands it to the tail band instead
        assert i2 == i2_det - 1

    def test_descent_leaves_no_pinned_crossing(self, cheap_pulse):
        # the end-to-end consequence: no active constraint at the crossing
        assert cheap_pulse.active_constraint_count == 0


class TestOptions:
    def test_max_iters_reported(self):
        res = minimize(
            CHEAP_PARAMS,
            CHEAP_GRID,
            init=build_q0(1.0, 1.8, CHEAP_GRID),
            options=MinimizeOptions(gtol=1e-8, max_iters=3),
        )
        assert not res.converged
        assert res.termination == "max_iters"
        assert res.iterations == 3


    @pytest.mark.parametrize(
        "kwargs",
        [{"gtol": 0.0}, {"gtol": -1.0}, {"gtol": float("nan")},
         {"gtol": float("inf")}, {"max_iters": -3}],
        ids=["zero_gtol", "negative_gtol", "nan_gtol", "inf_gtol", "negative_max_iters"],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MinimizeOptions(**kwargs)

    def test_zero_max_iters_evaluates_start(self):
        res = minimize(
            CHEAP_PARAMS, CHEAP_GRID, options=MinimizeOptions(max_iters=0)
        )
        assert res.iterations == 0 and res.termination == "max_iters"
        assert res.polish == "skipped" and res.polish_steps == 0


class TestNewtonPolish:
    def test_cold_and_warm_solves_agree(self, fine_chain):
        # the cold solve polishes from the default start, the chain level
        # from the interpolated n = 4096 pulse: one discrete pulse
        warm = fine_chain[8192]
        cold = minimize(FINE_PARAMS, warm.grid, options=MinimizeOptions(gtol=1e-8))
        for res in (cold, warm):
            assert res.polish == "newton" and res.termination == "gtol"
            assert res.is_pulse
        assert np.max(np.abs(cold.u0.values - warm.u0.values)) <= 1e-9
        assert np.max(np.abs(cold.v0.values - warm.v0.values)) <= 1e-9

    def test_odd_index_root_rejected(self, fine_chain):
        # from the cold n = 4096 start Newton lands on an admissible saddle
        # root with a negative Jacobian determinant. Descent must go on past
        # it, and a later polish keeps the minimizer.
        res = fine_chain[4096]
        p = FINE_PARAMS
        start, _ = default_initial_profile(p, res.grid)
        _, _, sol = evaluate_energy(start, p)
        h = res.grid.h
        saddle = solve_steady(start.values, sol.v.values, p.d, p.beta, p.gamma, h)
        assert saddle.det_sign == -1
        u = Profile(res.grid, saddle.u)
        i1, i2 = _band_assignment(u, p.beta)
        M = negative_tail_cutoff(p.beta, p.gamma)
        assert np.array_equal(project(u, i1, i2, p.beta, M).values, u.values)
        j_saddle = evaluate_energy(u, p)[0].alt_total
        assert j_saddle == pytest.approx(-1.0178e-4, abs=1e-8)
        # started on the saddle, J cannot rise and the gradient is zero:
        # only the determinant test stands between it and a kept root
        on_saddle = minimize(p, res.grid, init=u)
        assert on_saddle.polish == "saddle"
        assert not on_saddle.is_pulse
        assert on_saddle.energy.alt_total == pytest.approx(j_saddle, abs=1e-15)

        assert res.polish == "newton" and res.termination == "gtol"
        assert res.iterations > 1  # descent ran between the two polishes
        assert res.energy.alt_total == pytest.approx(-1.0900e-4, abs=1e-8)
        assert res.energy.alt_total < j_saddle

    def test_polish_counts_as_one_step(self, fine_chain):
        for res in fine_chain.values():
            assert res.polish == "newton" and res.polish_steps > 0
            assert len(res.energy_history) == res.iterations + 1
            assert np.all(np.diff(res.energy_history) <= 1e-14)
        # warm-started levels need no descent at all
        for n in (8192, 16384, 32768):
            assert fine_chain[n].iterations == 1
        # Newton steps per level
        for res, steps in zip(fine_chain.values(), (8, 9, 4, 3)):
            assert res.polish_steps <= steps

    def test_rejected_root_falls_back(self):
        # the saddle is rejected at entry; the one descent step leaves no
        # budget for a retry, whose kept root would count as a second step.
        # The start-scan profile is passed in, so the entry polish runs
        grid = Grid(12.0, 4096)
        res = minimize(
            FINE_PARAMS, grid, init=default_initial_profile(FINE_PARAMS, grid)[0],
            options=MinimizeOptions(max_iters=1),
        )
        assert res.polish == "fallback" and res.polish_steps > 0
        assert res.termination == "max_iters" and res.iterations == 1

    def test_refused_saddle_retried(self, fine_chain):
        # the start-scan profile is first polished after one descent
        # step, which already reaches the minimizer
        res = minimize(FINE_PARAMS, Grid(12.0, 4096), options=MinimizeOptions(gtol=1e-8))
        assert res.polish == "newton" and res.termination == "gtol"
        assert res.iterations <= 3
        assert res.energy.alt_total == pytest.approx(-1.0900e-4, abs=1e-8)
        assert np.array_equal(res.u0.values, fine_chain[4096].u0.values)

    def test_start_scan_defers_polish(self):
        # from the start scan the first polish comes after one descent step:
        # with no step left there is none, and the one after step 1 keeps
        # the minimizer in a few Newton steps
        grid = Grid(12.0, 4096)
        first = minimize(FINE_PARAMS, grid, options=MinimizeOptions(max_iters=1))
        assert first.polish == "skipped" and first.polish_steps == 0
        res = minimize(FINE_PARAMS, grid)
        assert res.polish == "newton" and res.iterations == 2
        assert res.polish_steps <= 12
        assert res.energy.alt_total == pytest.approx(-1.0900e-4, abs=1e-8)

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 4])
    def test_retry_within_max_iters(self, max_iters):
        grid = Grid(12.0, 4096)
        res = minimize(
            FINE_PARAMS, grid, init=default_initial_profile(FINE_PARAMS, grid)[0],
            options=MinimizeOptions(max_iters=max_iters),
        )
        assert res.iterations <= max_iters
        assert len(res.energy_history) == res.iterations + 1
        assert res.polish == ("fallback" if max_iters == 1 else "newton")

    def test_retried_after_every_refusal(self, monkeypatch):
        # with a gtol no root meets, every attempt is refused for its
        # gradient; only a rest-state refusal ends the retries, so they run
        # after steps 1, 2 and 4 of 8 (step 8 leaves none for a kept root)
        refusals = []

        def recorded(*args):
            attempt, kept = _newton_polish(*args)
            refusals.append(attempt.refusal)
            return attempt, kept

        monkeypatch.setattr(minimizer, "_newton_polish", recorded)
        for m, tries in ((2, 1), (8, 3)):
            refusals.clear()
            res = minimize(
                FINE_PARAMS, Grid(12.0, 4096),
                options=MinimizeOptions(gtol=1e-20, max_iters=m),
            )
            assert res.polish == "fallback" and res.iterations == m
            assert refusals == ["not_stationary"] * tries

    def test_saddle_start_polished_once(self, monkeypatch):
        # started on the saddle root, descent stops by gtol at once: the
        # one attempt there is the stop's, not an entry polish and then a
        # second solve of the same state
        p, grid = FINE_PARAMS, Grid(12.0, 4096)
        start, _ = default_initial_profile(p, grid)
        _, _, sol = evaluate_energy(start, p)
        saddle = solve_steady(start.values, sol.v.values, p.d, p.beta, p.gamma, grid.h)
        refusals = []

        def recorded(*args):
            attempt, kept = _newton_polish(*args)
            refusals.append(attempt.refusal)
            return attempt, kept

        monkeypatch.setattr(minimizer, "_newton_polish", recorded)
        res = minimize(p, grid, init=Profile(grid, saddle.u))
        assert res.polish == "saddle" and res.iterations == 0
        assert refusals == ["saddle"]

    def test_stall_refused_before_energy(self, monkeypatch):
        # one descent step from this start, coupled Newton stops short of a
        # root: solve_steady flags it, and the polish refuses it as a stall
        # without classifying the state or evaluating its energy
        p, grid = FINE_PARAMS, Grid(12.0, 4096)
        res = minimize(
            p, grid, init=build_q0(0.03, 0.06, grid), options=MinimizeOptions(max_iters=1)
        )
        assert res.active_constraint_count == 0
        w, v = res.u0.values, res.v0
        st = solve_steady(w, v.values, p.d, p.beta, p.gamma, grid.h)
        assert not st.converged
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate_energy(*args, **kwargs)

        monkeypatch.setattr(minimizer, "evaluate_energy", counted)
        M = negative_tail_cutoff(p.beta, p.gamma)
        attempt, kept = _newton_polish(p, grid, w, v, res.energy, M, 1e-8)
        assert kept is None and attempt.refusal == "stalled"
        assert attempt.steps == st.steps
        assert calls == []

    def test_supplied_start_retried_past_other_refusals(self, fine_chain):
        # from this start the attempts after descent steps 1 and 2 stall
        # short of a root, neither at the rest state, so the retries go on;
        # the one after step 8 keeps the chain's pulse
        res = fine_chain[16384]
        run = minimize(FINE_PARAMS, res.grid, init=build_q0(0.03, 0.06, res.grid))
        assert run.polish == "newton" and run.is_pulse
        assert run.iterations <= 9
        assert np.max(np.abs(run.u0.values - res.u0.values)) <= 1e-12

    def test_rest_state_refusal_not_retried(self):
        # past the fold the entry polish is refused for its inadmissible
        # rest-state root, not for a saddle: no retry may follow, so the
        # polish steps are the entry attempt's alone. At n = 4096 (the
        # criterion-4 grid) no constraint is active after the first descent
        # step, so a retry there would run; at n = 1024 one always is.
        params = Params(d=0.005, tau=1.0, gamma=0.1, beta=0.4)
        grid = Grid(20.0, 4096)
        start, _ = default_initial_profile(params, grid)
        res = minimize(params, grid, init=start)
        i1, i2 = _band_assignment(start, params.beta)
        M = negative_tail_cutoff(params.beta, params.gamma)
        w = project(start, i1, i2, params.beta, M).values.copy()
        w[-1] = 0.0
        report, _, sol = evaluate_energy(Profile(grid, w), params, inhibitor_tol=1e-11)
        entry, kept = _newton_polish(params, grid, w, sol.v, report, M, 1e-8)
        assert kept is None and entry.det_sign > 0
        assert res.polish_steps == entry.steps > 0
        assert res.active_constraint_count > 0 and not res.is_pulse

    def test_rest_state_root_rejected(self):
        # past the fold the entry polish runs down to the rest state u = v = 0,
        # an exact root whose residual ends subnormal; it must stop there and
        # be refused, leaving descent its constraint-pinned verdict
        params = Params(d=0.005, tau=1.0, gamma=0.1, beta=0.4)
        grid = Grid(20.0, 1024)
        res = minimize(params, grid, init=default_initial_profile(params, grid)[0])
        assert res.polish == "fallback" and res.polish_steps > 0
        assert res.converged and res.active_constraint_count > 0

    def test_acceptance_guards(self, cheap_pulse):
        res = cheap_pulse
        p, grid, w = res.params, res.grid, res.u0.values
        M = negative_tail_cutoff(p.beta, p.gamma)
        _, kept = _newton_polish(p, grid, w, res.v0, res.energy, M, 1e-8)
        assert kept is not None
        # a root that would raise J beyond roundoff is refused
        higher = dataclasses.replace(res.energy, alt_total=res.energy.alt_total - 1e-12)
        assert _newton_polish(p, grid, w, res.v0, higher, M, 1e-8)[1] is None
        # so is a root outside the bands: a tail band [-0.01, 0] cuts the tail
        assert w.min() < -0.01
        assert _newton_polish(p, grid, w, res.v0, res.energy, -0.99, 1e-8)[1] is None

    def test_active_start_polished_after_step_1(self):
        # a constraint is active at this supplied start and none after one
        # descent step: the polish is tried there, as for a start-scan
        # profile, not first after a gtol stop
        grid = Grid(12.0, 4096)
        init = build_q0(0.03, 0.06, grid)
        entry = minimize(FINE_PARAMS, grid, init=init, options=MinimizeOptions(max_iters=0))
        assert entry.active_constraint_count > 0
        first = minimize(FINE_PARAMS, grid, init=init, options=MinimizeOptions(max_iters=1))
        assert first.polish == "skipped" and first.active_constraint_count == 0
        res = minimize(FINE_PARAMS, grid, init=init, options=MinimizeOptions(max_iters=2))
        assert res.polish == "fallback" and res.polish_steps > 0

    def test_active_start_skips_polish(self):
        res = minimize(
            CHEAP_PARAMS,
            CHEAP_GRID,
            init=build_q0(1.0, 1.8, CHEAP_GRID),
            options=MinimizeOptions(max_iters=3),
        )
        assert res.polish == "skipped" and res.polish_steps == 0
        assert res.iterations == 3
