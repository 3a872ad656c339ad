"""Semi-implicit time integration of the reaction-diffusion evolution

    u_t = d u_xx + f(u) - v,
    tau v_t = v_xx - gamma v - v^3 + u,

on [0, x_max] with a no-flux condition at 0 and the truncation zero at
x_max. Diffusion and the linear inhibitor drag are implicit, the cubic
terms explicit, so each step is two tridiagonal solves with operators
factored once per run (operators.factor_shifted, solved by
solve_factored in blocks of unknowns). The implicit operators reuse the
steady-state stencils, which makes a converged pulse a fixed point of the
map up to its gradient tolerance. A step is

    (1/dt - d D2) u' = u ((1/dt - beta) + u ((1 + beta) - u)) - v,
    (tau/dt + gamma - D2) v' = v (tau/dt - v v) + u',

with the explicit terms in Horner form: five array passes form the u
right-hand side and four the v one.

A step allocates no state-sized array: each right-hand side is formed
in the scratch of its operator's factor, where solve_factored reads it,
and solved into one of two preallocated buffers, which is then swapped
with the field it updates.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass

import numpy as np

from .grid import Grid, Profile, profile_to_csv
from .model import Params, negative_tail_cutoff
from .operators import factor_shifted, solve_factored
from .records import Record, write_json


class BlowUpError(RuntimeError):
    """Raised when the evolved state leaves the a-priori bounded region."""

    def __init__(self, time: float, bound: float):
        super().__init__(
            f"state norm exceeded {bound:.3g} at t = {time:.6g}; "
            "the trajectory is blowing up"
        )
        self.time = time
        self.bound = bound


@dataclass(frozen=True)
class Trajectory(Record):
    params: Params
    grid: Grid
    dt: float
    n_steps: int
    times: tuple[float, ...]
    snapshots: tuple[tuple[Profile, Profile], ...]
    u_drift: float
    v_drift: float

    _exclude = ("snapshots",)
    _derived = ("t_final",)

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    @property
    def final_state(self) -> tuple[Profile, Profile]:
        return self.snapshots[-1]


def evolve(
    params: Params,
    u_init: Profile,
    v_init: Profile,
    dt: float,
    t_final: float,
    snapshot_every: int = 0,
) -> Trajectory:
    """Integrate the evolution from (u_init, v_init) to t_final.

    Steps the activator implicitly in diffusion, then the inhibitor
    implicitly in diffusion and linear decay using the updated activator:

        (1/dt - d D2) u' = u ((1/dt - beta) + u ((1 + beta) - u)) - v,
        (tau/dt + gamma - D2) v' = v (tau/dt - v v) + u',

    the explicit terms u/dt + f(u) - v and (tau/dt) v - v^3 + u' written
    in Horner form. Each right-hand side is formed in place in its
    factor's scratch `rhs`, five passes for u and four for v, and
    solve_factored reads it there and writes the solution into a
    preallocated (n + 1) buffer; the buffer then becomes the field and
    the old field the next buffer. The trajectory is bit for bit that of
    the formulas above evaluated on fresh arrays.

    Snapshots are copies, recorded at t = 0, every `snapshot_every` steps
    when positive, and at the final time. dt, t_final and their ratio
    must be positive and finite and snapshot_every nonnegative
    (ValueError otherwise). Raises BlowUpError when either field exceeds
    ten times the a-priori bound in either sign or stops being finite.
    """
    for name, value in (("dt", dt), ("t_final", t_final)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be nonnegative, got {snapshot_every}")
    if not math.isfinite(t_final / dt):
        raise ValueError(f"t_final / dt must be finite, got {t_final} / {dt}")
    grid = u_init.grid
    if v_init.grid != grid:
        raise ValueError("activator and inhibitor live on different grids")
    n_steps = max(1, int(round(t_final / dt)))

    d, tau, gamma, beta = params.d, params.tau, params.gamma, params.beta
    bound = 10.0 * (negative_tail_cutoff(beta, gamma) + 2.0)

    h = grid.h
    m = grid.n  # unknowns per solve; the last node stays pinned at 0
    factor_u = factor_shifted(1.0 / dt, h, m, d)
    factor_v = factor_shifted(tau / dt + gamma, h, m)
    b_u, b_v = factor_u.rhs, factor_v.rhs
    shift_u = 1.0 / dt - beta
    shift_v = tau / dt

    u = np.array(u_init.values, dtype=float)
    v = np.array(v_init.values, dtype=float)
    u[-1] = 0.0
    v[-1] = 0.0
    buf_u = np.empty_like(u)
    buf_v = np.empty_like(v)

    times = [0.0]
    snaps = [(Profile(grid, u.copy()), Profile(grid, v.copy()))]
    u_start, v_start = u.copy(), v.copy()

    for step in range(1, n_steps + 1):
        # u ((1/dt - beta) + u ((1 + beta) - u)) - v, in the formula's order
        uu, vv = u[:-1], v[:-1]
        np.subtract(1.0 + beta, uu, out=b_u)
        np.multiply(uu, b_u, out=b_u)
        np.add(shift_u, b_u, out=b_u)
        np.multiply(uu, b_u, out=b_u)
        np.subtract(b_u, vv, out=b_u)
        u, buf_u = solve_factored(factor_u, b_u, out=buf_u), u
        # v (tau/dt - v v) + u'
        np.multiply(vv, vv, out=b_v)
        np.subtract(shift_v, b_v, out=b_v)
        np.multiply(vv, b_v, out=b_v)
        np.add(b_v, u[:-1], out=b_v)
        v, buf_v = solve_factored(factor_v, b_v, out=buf_v), v

        t = step * dt
        # a NaN propagates through max and min and fails every comparison
        if not (
            u.max() <= bound and u.min() >= -bound
            and v.max() <= bound and v.min() >= -bound
        ):
            raise BlowUpError(t, bound)

        if (snapshot_every > 0 and step % snapshot_every == 0) or step == n_steps:
            times.append(t)
            snaps.append((Profile(grid, u.copy()), Profile(grid, v.copy())))

    u_drift = float(np.max(np.abs(u - u_start)))
    v_drift = float(np.max(np.abs(v - v_start)))
    return Trajectory(
        params=params,
        grid=grid,
        dt=dt,
        n_steps=n_steps,
        times=tuple(times),
        snapshots=tuple(snaps),
        u_drift=u_drift,
        v_drift=v_drift,
    )


def export_trajectory(traj: Trajectory, out_dir: str | pathlib.Path) -> pathlib.Path:
    """Write one CSV pair per snapshot plus an index file; returns the index
    path. File layout: snapshot_0000_u.csv, snapshot_0000_v.csv, ... with a
    trajectory.json listing times and filenames."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, (t, (u, v)) in enumerate(zip(traj.times, traj.snapshots)):
        u_name = f"snapshot_{k:04d}_u.csv"
        v_name = f"snapshot_{k:04d}_v.csv"
        profile_to_csv(u, out / u_name)
        profile_to_csv(v, out / v_name)
        entries.append({"time": t, "u": u_name, "v": v_name})
    summary = traj.to_dict()
    index = {**summary.pop("params"), **summary.pop("grid"), **summary}
    index["snapshots"] = entries
    index_path = out / "trajectory.json"
    write_json(index_path, index)
    return index_path
