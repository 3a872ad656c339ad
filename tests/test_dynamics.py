"""Semi-implicit evolution: exact invariants, the pulse as a fixed point,
first-order accuracy in dt, the in-place step against the step written
as formulas (bit for bit) and in its divided form (to roundoff), blow-up
detection, the windowed bound check against a check after every step,
the two-process step against the one-process step (bit for bit), and
trajectory export."""

import json
import mmap
import os
import pathlib
import re
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from fhn_pulse import Grid, Params, Profile, dynamics, evolve
from fhn_pulse.dynamics import BlowUpError, export_trajectory
from fhn_pulse.grid import profile_from_csv
from fhn_pulse.model import negative_tail_cutoff, reaction_f
from fhn_pulse.operators import _block_shape, factor_shifted, solve_factored

# evolve runs the steps between two bound checks with floating-point
# errors ignored; a RuntimeWarning that escapes them fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PARAMS = Params(d=0.01, tau=1.0, gamma=0.3, beta=0.4)
CHECK = dynamics._CHECK_EVERY  # steps between two of evolve's bound checks
RELAX_STATE = (
    pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "data" / "relax_state.npz"
)


def usable_cpus(monkeypatch, count):
    """Make os.sched_getaffinity report count CPUs, which decides (with
    the grid's size) whether evolve steps in two processes."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def gaussian_state(grid):
    x = grid.nodes()
    u = Profile(grid, 0.8 * np.exp(-((x - 2.0) ** 2)))
    v = Profile(grid, 0.3 * np.exp(-((x - 2.5) ** 2)))
    return u, v


class TestInvariants:
    def test_zero_state_exactly_invariant(self):
        g = Grid(10.0, 64)
        z = Profile(g, np.zeros(65))
        traj = evolve(PARAMS, z, z, dt=0.01, t_final=1.0)
        assert traj.u_drift == 0.0
        assert traj.v_drift == 0.0
        uf, vf = traj.final_state
        assert np.all(uf.values == 0.0)
        assert np.all(vf.values == 0.0)

    def test_pulse_is_near_fixed_point(self, cheap_pulse):
        traj = evolve(
            cheap_pulse.params, cheap_pulse.u0, cheap_pulse.v0, dt=1e-3, t_final=2.0
        )
        # measured drift is ~2e-7; a drifting or unstable profile moves by
        # orders of magnitude more over 2000 steps
        assert traj.u_drift <= 1e-5
        assert traj.v_drift <= 1e-5

    def test_tau_rescales_dynamics_not_equilibria(self, cheap_pulse):
        slow = Params(
            d=cheap_pulse.params.d,
            tau=5.0,
            gamma=cheap_pulse.params.gamma,
            beta=cheap_pulse.params.beta,
        )
        traj = evolve(slow, cheap_pulse.u0, cheap_pulse.v0, dt=1e-3, t_final=2.0)
        assert traj.u_drift <= 1e-5
        assert traj.v_drift <= 1e-5


class TestAccuracy:
    def test_first_order_in_dt(self):
        g = Grid(10.0, 256)
        u0, v0 = gaussian_state(g)
        finals = {}
        for dt in (1e-2, 5e-3, 2.5e-3):
            finals[dt] = evolve(PARAMS, u0, v0, dt, t_final=0.5).final_state[0].values
        e1 = np.max(np.abs(finals[1e-2] - finals[5e-3]))
        e2 = np.max(np.abs(finals[5e-3] - finals[2.5e-3]))
        assert 1.7 <= e1 / e2 <= 2.3  # measured 1.993


def formula_states(params, u0, v0, dt, n_steps):
    """The start, then the state after each of n_steps steps, each step
    written as formulas on fresh arrays with copying solves."""
    d, tau, gamma, beta = params.d, params.tau, params.gamma, params.beta
    h, m = u0.grid.h, u0.grid.n
    factor_u = factor_shifted(1.0 / dt, h, m, d)
    factor_v = factor_shifted(tau / dt + gamma, h, m)
    u = np.array(u0.values)
    v = np.array(v0.values)
    u[-1] = v[-1] = 0.0
    yield u, v
    for _ in range(n_steps):
        rhs_u = u * ((1.0 / dt - beta) + u * ((1.0 + beta) - u)) - v
        u = solve_factored(factor_u, rhs_u[:-1])
        rhs_v = v * (tau / dt - v * v) + u
        v = solve_factored(factor_v, rhs_v[:-1])
        yield u, v


def formula_snapshots(params, u0, v0, dt, n_steps, snapshot_every):
    """evolve's schedule on the formula step: the reference the in-place
    step must reproduce bit for bit."""
    return [
        (u, v)
        for step, (u, v) in enumerate(formula_states(params, u0, v0, dt, n_steps))
        if step % snapshot_every == 0 or step == n_steps
    ]


def formula_blow_up_step(params, u0, v0, dt, n_steps):
    """The first step whose state leaves evolve's bound (NaN included),
    from the formula step checked after every step; None if none does."""
    bound = 10.0 * (negative_tail_cutoff(params.beta, params.gamma) + 2.0)
    states = formula_states(params, u0, v0, dt, n_steps)
    next(states)
    for step, (u, v) in enumerate(states, start=1):
        for x in (u, v):
            if not (x.max() <= bound and x.min() >= -bound):
                return step
    return None


def divided_formula_snapshots(params, u0, v0, dt, n_steps, snapshot_every):
    """The step in its first form, u' from (1/(dt d) - D2) u' =
    (u + dt (f(u) - v)) / (dt d) and v' from (tau/dt + gamma - D2) v' =
    (tau/dt) v + u' - v^3: the same map with other roundings, a second
    oracle that the Horner form must agree with to roundoff."""
    d, tau, gamma, beta = params.d, params.tau, params.gamma, params.beta
    h, m = u0.grid.h, u0.grid.n
    factor_u = factor_shifted(1.0 / (dt * d), h, m)
    factor_v = factor_shifted(tau / dt + gamma, h, m)
    u = np.array(u0.values)
    v = np.array(v0.values)
    u[-1] = v[-1] = 0.0
    snaps = [(u, v)]
    for step in range(1, n_steps + 1):
        rhs_u = (u + dt * (reaction_f(u, beta) - v)) / (dt * d)
        u = solve_factored(factor_u, rhs_u[:-1])
        rhs_v = (tau / dt) * v + u - v * v * v
        v = solve_factored(factor_v, rhs_v[:-1])
        if step % snapshot_every == 0 or step == n_steps:
            snaps.append((u, v))
    return snaps


def assert_close_to_divided_form(traj, ref):
    assert len(traj.snapshots) == len(ref)
    for (u, v), (u_ref, v_ref) in zip(traj.snapshots, ref):
        for x, x_ref in ((u.values, u_ref), (v.values, v_ref)):
            assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))


class TestInPlaceStep:
    # n = 32768 puts each field above numpy's 256 KiB temporary-elision
    # threshold, so the formula reference reuses its temporaries there
    @pytest.mark.parametrize("n", [1024, 32768])
    def test_bit_equal_to_formula_step(self, n):
        params = Params(d=0.01, tau=2.5, gamma=0.3, beta=0.4)
        u0, v0 = gaussian_state(Grid(10.0, n))
        traj = evolve(params, u0, v0, dt=1e-3, t_final=0.02, snapshot_every=3)
        ref = formula_snapshots(params, u0, v0, 1e-3, 20, 3)
        assert traj.times == pytest.approx([0.0, 0.003, 0.006, 0.009, 0.012,
                                            0.015, 0.018, 0.02])
        assert len(traj.snapshots) == len(ref)
        for (u, v), (u_ref, v_ref) in zip(traj.snapshots, ref):
            assert np.array_equal(u.values, u_ref)
            assert np.array_equal(v.values, v_ref)
        # the state moves between snapshots, and no snapshot shares memory
        # with another, so a snapshot aliasing the state (written
        # by a later step) would have failed the comparisons above
        arrays = [p.values for pair in traj.snapshots for p in pair]
        for a, b in zip(ref, ref[1:]):
            assert not np.array_equal(a[0], b[0])
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        assert_close_to_divided_form(
            traj, divided_formula_snapshots(params, u0, v0, 1e-3, 20, 3)
        )

    def test_relax_state_agrees_with_divided_form(self):
        # 200 steps of the benchmark's relax run (the criterion-7 pulse at
        # n = 32768, d = 1e-6): 1/dt d = 1e9, where the divided form's
        # right-hand side is ~1e9 u
        with np.load(RELAX_STATE, allow_pickle=False) as z:
            grid = Grid(12.0, 32768)
            u0, v0 = Profile(grid, z["u0"]), Profile(grid, z["v0"])
        params = Params(d=1e-6, tau=1.0, gamma=0.1, beta=0.4)
        traj = evolve(params, u0, v0, dt=1e-3, t_final=0.2, snapshot_every=50)
        assert traj.n_steps == 200
        assert_close_to_divided_form(
            traj, divided_formula_snapshots(params, u0, v0, 1e-3, 200, 50)
        )


class TestStepAllocation:
    def test_step_allocates_no_state_array(self, monkeypatch):
        # evolve's step forms each right-hand side in its factor's scratch
        # and solves it over its row of the state, and its bound check and
        # checkpoint copy work on preallocated arrays, so it allocates no
        # state-sized array (8 (n + 1) = 256 KiB here). The peak is
        # taken over steps 2..2 CHECK + 3, from the first solve_factored
        # call of step 2 to the first of step 2 CHECK + 4, which holds the
        # checks after steps CHECK and 2 CHECK.
        n = 32768
        n_steps = 2 * CHECK + 10
        calls = []
        marks = {}

        def traced(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                tracemalloc.reset_peak()
                marks["start"] = tracemalloc.get_traced_memory()[0]
            elif len(calls) == 2 * (2 * CHECK + 3) + 1:
                marks["peak"] = tracemalloc.get_traced_memory()[1]
            return solve_factored(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_factored", traced)
        usable_cpus(monkeypatch, 1)
        u0, v0 = gaussian_state(Grid(10.0, n))
        tracemalloc.start()
        try:
            evolve(PARAMS, u0, v0, dt=1e-3, t_final=n_steps * 1e-3)
        finally:
            tracemalloc.stop()
        assert len(calls) == 2 * n_steps
        assert marks["peak"] - marks["start"] <= 64 * 1024


class TestStepping:
    def test_step_count_rounds(self):
        g = Grid(10.0, 64)
        u0, v0 = gaussian_state(g)
        traj = evolve(PARAMS, u0, v0, dt=0.3, t_final=1.0)
        assert traj.n_steps == 3
        assert traj.t_final == pytest.approx(0.9)

    def test_snapshot_schedule(self):
        g = Grid(10.0, 64)
        u0, v0 = gaussian_state(g)
        traj = evolve(PARAMS, u0, v0, dt=0.1, t_final=1.0, snapshot_every=3)
        assert traj.times == pytest.approx((0.0, 0.3, 0.6, 0.9, 1.0))
        assert len(traj.snapshots) == 5

    def test_final_step_not_duplicated(self):
        g = Grid(10.0, 64)
        u0, v0 = gaussian_state(g)
        traj = evolve(PARAMS, u0, v0, dt=0.1, t_final=1.0, snapshot_every=5)
        assert traj.times == pytest.approx((0.0, 0.5, 1.0))

    def test_default_keeps_endpoints_only(self):
        g = Grid(10.0, 64)
        u0, v0 = gaussian_state(g)
        traj = evolve(PARAMS, u0, v0, dt=0.1, t_final=1.0)
        assert len(traj.snapshots) == 2
        assert traj.times == pytest.approx((0.0, 1.0))

    def test_validation(self):
        g = Grid(10.0, 64)
        u0, v0 = gaussian_state(g)
        with pytest.raises(ValueError):
            evolve(PARAMS, u0, v0, dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            evolve(PARAMS, u0, v0, dt=0.1, t_final=-1.0)
        other = Grid(10.0, 128)
        with pytest.raises(ValueError):
            evolve(PARAMS, u0, Profile(other, np.zeros(129)), dt=0.1, t_final=1.0)

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"dt": float("nan")}, "dt"),
            ({"dt": float("inf")}, "dt"),
            ({"t_final": float("inf")}, "t_final"),
            ({"t_final": float("nan")}, "t_final"),
            ({"snapshot_every": -3}, "snapshot_every"),
            ({"dt": 5e-324}, "t_final / dt"),
        ],
    )
    def test_non_finite_or_negative_controls_rejected(self, kwargs, key):
        u0, v0 = gaussian_state(Grid(10.0, 64))
        args = {"dt": 0.1, "t_final": 1.0, "snapshot_every": 0, **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must be"):
            evolve(PARAMS, u0, v0, **args)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
    def test_blow_up_detected(self, sign):
        # the start at +-100 leaves the bound in its first step and would
        # overflow over the next ones: BlowUpError, and no warning
        g = Grid(10.0, 64)
        big = Profile(g, np.full(65, sign * 100.0))
        z = Profile(g, np.zeros(65))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as exc:
                evolve(Params(d=0.01, tau=1.0, gamma=0.1, beta=0.4), big, z, 0.01, 1.0)
        assert exc.value.time == pytest.approx(0.01)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
    @pytest.mark.parametrize("field", ["u", "v"])
    def test_bound_checked_per_field_and_sign(self, field, sign):
        # a start at +-100 in one field, 0 in the other: with dt = 1e-5 the
        # explicit cubic pulls the field to about +-90 in one step, past the
        # bound 10 (M + 2) = 32.1, while the other field moves by ~1e-3
        g = Grid(10.0, 64)
        big = Profile(g, np.full(65, sign * 100.0))
        z = Profile(g, np.zeros(65))
        u0, v0 = (big, z) if field == "u" else (z, big)
        with pytest.raises(BlowUpError) as exc:
            evolve(PARAMS, u0, v0, 1e-5, 1e-4)
        assert exc.value.time == pytest.approx(1e-5)

    def test_non_finite_inhibitor_alone_detected(self):
        # v = -+1e103 on neighbouring nodes: v^3 overflows to +-inf there,
        # and the solve turns it into NaN (0 * inf, inf - inf), which the
        # bound check catches wherever it lands; at n = 64, two blocks,
        # it reaches every node of v. dt = 1e-104 keeps the activator's
        # step dt * v at 0.1
        g = Grid(10.0, 64)
        vals = np.zeros(65)
        vals[10:12] = (-1e103, 1e103)
        z = Profile(g, np.zeros(65))
        v0 = Profile(g, vals)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as exc:
                evolve(PARAMS, z, v0, 1e-104, 1e-104)
            (u1, v1), = formula_snapshots(PARAMS, z, v0, 1e-104, 1, 1)[1:]
        assert exc.value.time == pytest.approx(1e-104)
        assert np.all(np.isfinite(u1))
        assert np.all(np.isnan(v1[:-1]))

    def test_non_finite_state_detected(self):
        # Profile refuses a non-finite start, so make the first step NaN:
        # the cubic overflows to +inf and -inf on neighbouring nodes, the
        # solve turns it into NaN (0 * inf, inf - inf), and the bound
        # check catches it wherever it lands; at n = 64, two blocks, it
        # reaches every node of u, and the inhibitor step every node of v
        g = Grid(10.0, 64)
        vals = np.zeros(65)
        vals[10:12] = (-1e200, 1e200)
        z = Profile(g, np.zeros(65))
        u0 = Profile(g, vals)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as exc:
                evolve(PARAMS, u0, z, 0.01, 1.0)
            (u1, v1), = formula_snapshots(PARAMS, u0, z, 0.01, 1, 1)[1:]
        assert exc.value.time == pytest.approx(0.01)
        assert np.all(np.isnan(u1[:-1]))
        assert np.all(np.isnan(v1[:-1]))

    def test_non_finite_state_detected_on_flushed_scan(self):
        # at d = 1e-6, dt = 0.01 the activator's multiplier (1.2e-3) flushes
        # at the first carry level, which then scans nothing: a NaN from
        # the overflowing cubic reaches only the blocks next to it, and
        # the bound check catches it there
        n = 4096
        g = Grid(10.0, n)
        vals = np.zeros(n + 1)
        vals[1000:1002] = (-1e200, 1e200)
        z = Profile(g, np.zeros(n + 1))
        u0 = Profile(g, vals)
        params = Params(d=1e-6, tau=1.0, gamma=0.3, beta=0.4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as exc:
                evolve(params, u0, z, 0.01, 1.0)
            (u1, _), = formula_snapshots(params, u0, z, 0.01, 1, 1)[1:]
        assert exc.value.time == pytest.approx(0.01)
        assert np.any(np.isnan(u1))
        assert np.count_nonzero(np.isnan(u1)) <= 3 * 32


# A flat start at eps in the activator, 0 in the inhibitor: at dt = 3 the
# rest state is unstable for the step map (about 4.3-fold per step, with
# flipping sign), so the first step out of bound falls later the smaller
# eps is, from step 1 at eps = 5 to step ~460 at eps = 1e-290
LADDER_DT = 3.0
LADDER_GRID = Grid(10.0, 64)
LADDER_SNAPSHOTS = 50  # not a multiple of CHECK
LADDER_STEPS = 2 * CHECK + 12  # a multiple of neither
LADDER_TARGETS = [1, 2, CHECK - 1, CHECK, CHECK + 1, LADDER_SNAPSHOTS, LADDER_STEPS]


def ladder_start(eps):
    return Profile(LADDER_GRID, np.full(65, eps)), Profile(LADDER_GRID, np.zeros(65))


def ladder_blow_up_step(eps):
    with np.errstate(all="ignore"):
        return formula_blow_up_step(PARAMS, *ladder_start(eps), LADDER_DT, LADDER_STEPS)


@pytest.fixture(scope="module")
def ladder():
    """For each target step k, an eps whose first step out of bound is k
    under the per-step formula reference, by bisection on log10 eps."""
    found = {}
    for k in LADDER_TARGETS:
        lo, hi = -300.0, 1.0
        for _ in range(60):
            eps = 10.0 ** ((lo + hi) / 2.0)
            step = ladder_blow_up_step(eps)
            if step == k:
                found[k] = eps
                break
            if step is None or step > k:
                lo = (lo + hi) / 2.0
            else:
                hi = (lo + hi) / 2.0
        assert k in found, f"no ladder start fails first at step {k}"
    return found


def window_around(k, snapshot_every, n_steps):
    """The (start, end] of evolve's check window that holds step k: the
    first step alone, then windows ending at multiples of CHECK, at
    snapshots and at the last step."""
    ends = {1, n_steps, *range(CHECK, n_steps, CHECK)}
    if snapshot_every:
        ends.update(range(snapshot_every, n_steps, snapshot_every))
    ends = sorted(ends)
    end = min(e for e in ends if e >= k)
    return max([0] + [e for e in ends if e < k]), end


class TestWindowedCheck:
    # evolve checks the bound once per window and replays a failed window
    # step by step; each blow-up must be the per-step code's

    @pytest.mark.parametrize("snapshot_every", [0, LADDER_SNAPSHOTS])
    @pytest.mark.parametrize("k", LADDER_TARGETS)
    def test_blow_up_step_matches_per_step_check(
        self, ladder, monkeypatch, k, snapshot_every
    ):
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return solve_factored(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_factored", counted)
        usable_cpus(monkeypatch, 1)
        u0, v0 = ladder_start(ladder[k])
        bound = 10.0 * (negative_tail_cutoff(PARAMS.beta, PARAMS.gamma) + 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as exc:
                evolve(PARAMS, u0, v0, LADDER_DT, LADDER_STEPS * LADDER_DT,
                       snapshot_every=snapshot_every)
        assert exc.value.time == k * LADDER_DT
        assert str(exc.value) == str(BlowUpError(k * LADDER_DT, bound))
        # the window holding step k ran to its end, then replayed up to k
        start, end = window_around(k, snapshot_every, LADDER_STEPS)
        assert 0 < k - start <= CHECK
        assert len(calls) == 2 * (end + k - start)

    def test_unchecked_steps_leak_no_warnings(self, ladder):
        # from the step-2 start the formula steps of the window [2, CHECK]
        # overflow, warn and end on NaN, which the window's check must
        # catch; evolve runs them unchecked with errors ignored, and its
        # replay stops at step 2, before the overflow, so with warnings as
        # errors it raises BlowUpError and nothing else
        u0, v0 = ladder_start(ladder[2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            states = list(formula_states(PARAMS, u0, v0, LADDER_DT, CHECK))
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert np.isnan(states[CHECK][0]).any() or np.isnan(states[CHECK][1]).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as exc:
                evolve(PARAMS, u0, v0, LADDER_DT, 2 * CHECK * LADDER_DT)
        assert exc.value.time == 2 * LADDER_DT

    def test_start_outside_bound_fails_after_one_step(self):
        # a start at 100 with dt = 1e-5 is still past the bound 32.1 after
        # one step (about 90) but decays back inside it before step CHECK,
        # so only a check after the first step sees it
        g = Grid(10.0, 64)
        big = Profile(g, np.full(65, 100.0))
        z = Profile(g, np.zeros(65))
        states = list(formula_states(PARAMS, big, z, 1e-5, CHECK))
        assert formula_blow_up_step(PARAMS, big, z, 1e-5, CHECK) == 1
        assert np.max(np.abs(states[CHECK][0])) < 32.0
        with pytest.raises(BlowUpError) as exc:
            evolve(PARAMS, big, z, 1e-5, 2 * CHECK * 1e-5)
        assert exc.value.time == 1e-5


# two processes step evolve where two CPUs are usable and each owns at
# least two of the solvers' batches (n > 6144)
RELAX_PARAMS = Params(d=1e-6, tau=1.0, gamma=0.1, beta=0.4)
SPLIT_N = 8192


def counted_forks(monkeypatch):
    """The process ids of the children os.fork starts from here on."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def trajectory_bytes(traj):
    """Every byte a trajectory records: its fields, drifts included, and
    each snapshot."""
    parts = [json.dumps(traj.to_dict(), sort_keys=True).encode()]
    for u, v in traj.snapshots:
        parts += [u.values.tobytes(), v.values.tobytes()]
    return parts


def log_solves(monkeypatch, log, hook=None):
    """Make each of evolve's solve_factored calls append the id of the
    process it runs in to the file log, after calling hook(count), count
    being the process's calls so far."""
    counts = {}

    def logged(*args, **kwargs):
        pid = os.getpid()
        counts[pid] = counts.get(pid, 0) + 1
        if hook is not None:
            hook(counts[pid])
        with open(log, "a") as f:
            f.write(f"{pid}\n")
        return solve_factored(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_factored", logged)


def calls_per_process(log):
    counts = {}
    for pid in log.read_text().split():
        counts[int(pid)] = counts.get(int(pid), 0) + 1
    return counts


class TestTwoProcesses:
    """Where two CPUs are usable, a child forked by evolve steps the second
    half of the solvers' batches; nothing evolve returns or raises may
    show it, and no child may outlive the call."""

    @pytest.mark.parametrize(
        "n, dt",
        [(8192, 1e-3), (32768, 1e-3), (10000, 1e-3), (8192, 1.0)],
        ids=["8192", "32768", "padded", "corner-crosses"],
    )
    def test_same_bytes_as_one_process(self, monkeypatch, n, dt):
        params = RELAX_PARAMS
        batches, rows, block = _block_shape(n)
        factor_v = factor_shifted(params.tau / dt + params.gamma, 10.0 / n, n)
        first_half = factor_v._over_batches(0, batches // 2, None).unknowns
        if n == 10000:
            assert batches * rows * block > n  # the blocks do not tile n
        # the inhibitor's corner prefix reaches the second half at dt = 1
        # only
        assert (factor_v.w.size > first_half.stop) == (dt == 1.0)
        forks = counted_forks(monkeypatch)
        u0, v0 = gaussian_state(Grid(10.0, n))
        runs = []
        for cpus in (2, 1):
            usable_cpus(monkeypatch, cpus)
            traj = evolve(params, u0, v0, dt, 150 * dt, snapshot_every=70)
            runs.append(trajectory_bytes(traj))
        assert len(forks) == 1
        assert len(runs[0]) == 1 + 2 * 4  # fields, then t = 0, 70, 140, 150
        assert runs[0] == runs[1]
        assert_no_child_left()

    def test_below_the_size_rule_one_process(self, monkeypatch):
        # n = 6144 is three batches: one process, whatever the CPU count
        forks = counted_forks(monkeypatch)
        usable_cpus(monkeypatch, 2)
        u0, v0 = gaussian_state(Grid(10.0, 6144))
        evolve(RELAX_PARAMS, u0, v0, 1e-3, 0.01)
        assert forks == []
        assert _block_shape(6144)[0] == 3
        assert _block_shape(6145)[0] == 4

    def test_shared_zeros_seen_by_a_forked_child(self):
        # each array evolve shares has a page-aligned mapping of its own;
        # what the child writes there is what this process reads
        from fhn_pulse._processes import in_two_processes, shared_zeros

        counters = shared_zeros((2, 8), np.int64)
        state = shared_zeros((2, 5))
        assert counters.dtype == np.int64 and state.dtype == np.float64
        assert not counters.any() and not state.any()
        for a in (counters, state):
            assert a.ctypes.data % mmap.PAGESIZE == 0

        def child(running):
            counters[1, 0] = 3
            state[1] = 0.5

        in_two_processes(lambda running: None, child)
        assert counters.tolist() == [[0] * 8, [3] + [0] * 7]
        assert state.tolist() == [[0.0] * 5, [0.5] * 5]
        assert_no_child_left()

    def test_blow_up_same_as_one_process(self, monkeypatch, tmp_path):
        # the ladder's flat start at n = 8192: eps = 1e-100 leaves the bound
        # first at step 162, inside the window (150, 192]. Each process
        # steps to the window's end; this one then replays it alone from
        # its start, to the blow-up
        g = Grid(10.0, SPLIT_N)
        u0, v0 = Profile(g, np.full(SPLIT_N + 1, 1e-100)), Profile(g, np.zeros(SPLIT_N + 1))
        k, (start, end) = 162, window_around(162, LADDER_SNAPSHOTS, LADDER_STEPS * 2)
        assert (start, end) == (150, 192)
        results = []
        for cpus in (2, 1):
            log = tmp_path / f"calls{cpus}"
            log_solves(monkeypatch, log)
            usable_cpus(monkeypatch, cpus)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BlowUpError) as exc:
                    evolve(PARAMS, u0, v0, LADDER_DT, 2 * LADDER_STEPS * LADDER_DT,
                           snapshot_every=LADDER_SNAPSHOTS)
            results.append((exc.value.time, str(exc.value)))
            calls = calls_per_process(log)
            assert_no_child_left()
            if cpus == 2:
                assert sorted(calls.values()) == [2 * end, 2 * (end + k - start)]
                assert calls[os.getpid()] == 2 * (end + k - start)
            else:
                assert calls == {os.getpid(): 2 * (end + k - start)}
        assert results[0] == results[1]
        assert results[0][0] == k * LADDER_DT

    def test_blow_up_warnings_same_as_one_process(self, monkeypatch):
        # the first step overflows (see test_non_finite_state_detected): its
        # replay, here alone, warns as the one-process replay does
        g = Grid(10.0, SPLIT_N)
        vals = np.zeros(SPLIT_N + 1)
        vals[1000:1002] = (-1e200, 1e200)
        u0, v0 = Profile(g, vals), Profile(g, np.zeros(SPLIT_N + 1))
        forks = counted_forks(monkeypatch)
        results = []
        for cpus in (2, 1):
            usable_cpus(monkeypatch, cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(BlowUpError) as exc:
                    evolve(PARAMS, u0, v0, 0.01, 1.0)
            results.append((
                exc.value.time, str(exc.value),
                [(w.category, str(w.message)) for w in caught],
            ))
        assert len(forks) == 1
        assert results[0] == results[1]
        assert any(issubclass(category, RuntimeWarning) for category, _ in results[0][2])
        assert_no_child_left()

    def test_step_allocates_no_state_array(self, monkeypatch, tmp_path):
        # TestStepAllocation's measure, in this process, with both processes'
        # calls counted: each process solves twice per step
        n = 32768
        n_steps = 2 * CHECK + 10
        parent = os.getpid()
        marks = {}

        def mark(count):
            if os.getpid() != parent:
                return
            if count == 3:
                tracemalloc.reset_peak()
                marks["start"] = tracemalloc.get_traced_memory()[0]
            elif count == 2 * (2 * CHECK + 3) + 1:
                marks["peak"] = tracemalloc.get_traced_memory()[1]

        log = tmp_path / "calls"
        log_solves(monkeypatch, log, mark)
        usable_cpus(monkeypatch, 2)
        u0, v0 = gaussian_state(Grid(10.0, n))
        tracemalloc.start()
        try:
            evolve(PARAMS, u0, v0, dt=1e-3, t_final=n_steps * 1e-3)
        finally:
            tracemalloc.stop()
        calls = calls_per_process(log)
        assert len(calls) == 2
        assert set(calls.values()) == {2 * n_steps}
        assert marks["peak"] - marks["start"] <= 64 * 1024
        assert_no_child_left()

    def test_pinned_to_one_cpu(self, monkeypatch):
        # two CPUs reported, one to run on: the two processes take turns on
        # it, which needs the barrier to yield, and write the same bytes
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        allowed = os.sched_getaffinity(0)
        u0, v0 = gaussian_state(Grid(10.0, SPLIT_N))
        usable_cpus(monkeypatch, 1)
        ref = trajectory_bytes(evolve(RELAX_PARAMS, u0, v0, 1e-3, 0.1, snapshot_every=40))
        forks = counted_forks(monkeypatch)
        usable_cpus(monkeypatch, 2)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            start = time.monotonic()
            traj = evolve(RELAX_PARAMS, u0, v0, 1e-3, 0.1, snapshot_every=40)
            elapsed = time.monotonic() - start
        finally:
            os.sched_setaffinity(0, allowed)
        assert len(forks) == 1
        assert trajectory_bytes(traj) == ref
        assert elapsed < 30.0
        assert_no_child_left()

    def test_parent_error_kills_and_reaps_child(self, monkeypatch, tmp_path):
        # an error here mid-run kills the child, which waits at a barrier,
        # and propagates; the child is not waited for
        parent = os.getpid()

        def fail_here(count):
            if os.getpid() == parent and count == 50:
                raise ValueError("failed in the first process")

        log_solves(monkeypatch, tmp_path / "calls", fail_here)
        usable_cpus(monkeypatch, 2)
        u0, v0 = gaussian_state(Grid(10.0, SPLIT_N))
        start = time.monotonic()
        with pytest.raises(ValueError, match="failed in the first process"):
            evolve(RELAX_PARAMS, u0, v0, 1e-3, 1.0)
        assert time.monotonic() - start < 30.0
        assert_no_child_left()

    def test_child_error_raised_here(self, monkeypatch, tmp_path):
        parent = os.getpid()

        def fail_in_child(count):
            if os.getpid() != parent and count == 50:
                raise ValueError("failed in the second process")

        log_solves(monkeypatch, tmp_path / "calls", fail_in_child)
        usable_cpus(monkeypatch, 2)
        u0, v0 = gaussian_state(Grid(10.0, SPLIT_N))
        with pytest.raises(ValueError, match="failed in the second process"):
            evolve(RELAX_PARAMS, u0, v0, 1e-3, 1.0)
        assert_no_child_left()

    def test_dead_child_raises_runtime_error(self, monkeypatch, tmp_path):
        # a child killed mid-run leaves no result: this process stops
        # waiting for it and raises RuntimeError instead of hanging
        parent = os.getpid()

        def die_in_child(count):
            if os.getpid() != parent and count == 50:
                os.kill(os.getpid(), signal.SIGKILL)

        log_solves(monkeypatch, tmp_path / "calls", die_in_child)
        usable_cpus(monkeypatch, 2)
        u0, v0 = gaussian_state(Grid(10.0, SPLIT_N))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with status -9"):
            evolve(RELAX_PARAMS, u0, v0, 1e-3, 1.0)
        assert time.monotonic() - start < 30.0
        assert_no_child_left()


class TestExport:
    def test_layout_and_roundtrip(self, tmp_path):
        g = Grid(10.0, 64)
        u0, v0 = gaussian_state(g)
        traj = evolve(PARAMS, u0, v0, dt=0.1, t_final=1.0, snapshot_every=5)
        index_path = export_trajectory(traj, tmp_path / "run")
        assert index_path == tmp_path / "run" / "trajectory.json"
        index = json.loads(index_path.read_text())
        assert index["n_steps"] == 10
        assert index["times"] == list(traj.times)
        assert len(index["snapshots"]) == 3
        for k, entry in enumerate(index["snapshots"]):
            assert entry["u"] == f"snapshot_{k:04d}_u.csv"
            u_back = profile_from_csv(index_path.parent / entry["u"])
            assert np.array_equal(u_back.values, traj.snapshots[k][0].values)
            v_back = profile_from_csv(index_path.parent / entry["v"])
            assert np.array_equal(v_back.values, traj.snapshots[k][1].values)
