"""Semi-implicit evolution: exact invariants, the pulse as a fixed point,
first-order accuracy in dt, blow-up detection, and trajectory export."""

import json
import re

import numpy as np
import pytest

from fhn_pulse import Grid, Params, Profile, evolve
from fhn_pulse.dynamics import BlowUpError, export_trajectory
from fhn_pulse.grid import profile_from_csv

PARAMS = Params(d=0.01, tau=1.0, gamma=0.3, beta=0.4)


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

    def test_blow_up_detected(self):
        g = Grid(10.0, 64)
        big = Profile(g, np.full(65, 100.0))
        z = Profile(g, np.zeros(65))
        with pytest.raises(BlowUpError) as exc:
            evolve(Params(d=0.01, tau=1.0, gamma=0.1, beta=0.4), big, z, 0.01, 1.0)
        assert exc.value.time == pytest.approx(0.01)

    def test_non_finite_state_detected(self):
        # Profile refuses a non-finite start, so make the first step NaN:
        # the cubic overflows to +inf and -inf on neighbouring nodes, and
        # the solve's forward sweep adds them, spreading NaN over every node
        g = Grid(10.0, 64)
        vals = np.zeros(65)
        vals[10:12] = (-1e200, 1e200)
        z = Profile(g, np.zeros(65))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as exc:
                evolve(PARAMS, Profile(g, vals), z, 0.01, 1.0)
        assert exc.value.time == pytest.approx(0.01)


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
