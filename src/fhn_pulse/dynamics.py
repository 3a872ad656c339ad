"""Semi-implicit time integration of the reaction-diffusion evolution

    u_t = d u_xx + f(u) - v,
    tau v_t = v_xx - gamma v - v^3 + u,

on [0, x_max] with a no-flux condition at 0 and the truncation zero at
x_max. Diffusion and the linear inhibitor drag are implicit, the cubic
terms explicit, so each step is two tridiagonal solves with operators
factored once per run (operators.ShiftedFactor, solved by
solve_factored in blocks of unknowns). The implicit operators reuse the
steady-state stencils, which makes a converged pulse a fixed point of the
map up to its gradient tolerance. A step is

    (1/dt - d D2) u' = u ((1/dt - beta) + u ((1 + beta) - u)) - v,
    (tau/dt + gamma - D2) v' = v (tau/dt - v v) + u',

with the explicit terms in Horner form: five array passes form the u
right-hand side and four the v one.

A step allocates no state-sized array. The two factors share one blocked
scratch: each right-hand side is formed there, where solve_factored
reads it, the u one read by its solve before the v one is formed. u and
v are the two rows of one (2, n + 1) state array, and each solve writes
its row in place: the old u is last read by the u right-hand side, the
old v by the v one.

The bound check, one max and one min over both fields, runs once per
window of up to _CHECK_EVERY steps, not after every step. A passed check
copies the state into a second array, the checkpoint; a failed one
restores it and replays the window one checked step at a time, so a
blow-up is reported at the same step as by a check after every step.

Where two CPUs are usable on x86-64 and the grid is large enough (four
or more batches of the solvers' blocks, n > 6144), the steps run in two
processes: a child forked for the run steps the unknowns of the second
half of the batches, this process those of the first. Both work in
shared memory, one anonymous mapping per array (_processes.shared_zeros:
the state, the checkpoint, the blocked scratch and the solvers' edge
values, and the barrier's counters), and each forms the right-hand
sides on its own unknowns, solves over its own batches
(ShiftedFactor._over_batches) and checks its own columns; they meet at
a barrier in each solve, at each window's end and around each
snapshot. A solve over two halves is the same arithmetic as over the
whole, so the trajectory's bytes do not depend on the CPU count.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass

import numpy as np

from .grid import Grid, Profile, profile_to_csv
from .model import Params, negative_tail_cutoff
from .operators import ShiftedFactor, _block_shape, solve_factored
from .records import Record, write_json

# steps between two bound checks of evolve; a failed check replays at
# most this many steps
_CHECK_EVERY = 64


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
    in Horner form. Each right-hand side is formed in place in the
    scratch `rhs` the two factors share, five passes for u and four for
    v, and solve_factored reads it there and writes the solution over
    its field's row of the (2, n + 1) state. The trajectory is bit for
    bit that of the formulas above evaluated on fresh arrays.

    Snapshots are copies, recorded at t = 0, every `snapshot_every` steps
    when positive, and at the final time. dt, t_final and their ratio
    must be positive and finite and snapshot_every nonnegative
    (ValueError otherwise). Raises BlowUpError when either field exceeds
    ten times the a-priori bound in either sign or stops being finite.

    The bound is checked at the end of each window of steps: the first
    step alone, then up to the next multiple of _CHECK_EVERY, the next
    snapshot or the last step, whichever comes first. The unchecked
    steps run with floating-point errors ignored, since a window that
    leaves the bound may overflow. A failed check restores the state of
    the window's start and replays the window, checking after every step
    in the caller's error state, and raises at the first step out of
    bound, with the time and message of a check after every step and the
    warnings of the window's steps. A state that leaves the bound and
    comes back inside one window is not caught. The start is not
    checked, so it has a window of its own: a start outside the bound
    whose first step is still outside fails at t = dt.

    Where os.sched_getaffinity reports two or more CPUs, the machine is
    x86-64 and each half of the solvers' batches holds at least two (n >
    6144), the steps run in two processes, as the module docstring
    describes, on arrays in one shared anonymous mapping each: the two
    decide each window's check alike, from both halves' max and min,
    and a failed window is replayed here alone, through the same
    per-step path. The trajectory, snapshots and drifts included, has
    the same bytes at any CPU count, and a blow-up the same time,
    message and warnings. The child leaves by os._exit on every path
    and is reaped before evolve returns or raises; an error here kills
    it first, and a child that dies raises RuntimeError. Spans that a
    tracer records cover this process only, so in two processes they
    time its half of each solve.
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
    batches = _block_shape(m)[0]
    two_processes = _two_processes_usable(batches)
    if two_processes:
        from ._processes import shared_zeros as zeros
    else:
        zeros = np.zeros
    # everything both processes write or read of the other's is allocated
    # by zeros: the factors' scratch and edge exchanges, the state, the
    # checkpoint, and the max/min slots and barrier counters, one 64-byte
    # row per process
    factor_u = ShiftedFactor(1.0 / dt, h, m, d, _zeros=zeros)
    # the u solve has read the blocked scratch before the v right-hand
    # side is formed there, so the two factors share it
    factor_v = ShiftedFactor(tau / dt + gamma, h, m, _scratch=factor_u.x, _zeros=zeros)
    state, checkpoint = zeros((2, m + 1)), zeros((2, m + 1))
    slots, counters = zeros((2, 8)), zeros((2, 8), np.int64)
    shift_u = 1.0 / dt - beta
    shift_v = tau / dt

    # u and v are the rows of one state array; a step overwrites each
    # row with its solve once the row's old values have been read
    state[0], state[1] = u_init.values, v_init.values
    state[:, -1] = 0.0
    np.copyto(checkpoint, state)  # the state at the last passed check

    def snapshot() -> tuple[Profile, Profile]:
        return Profile(grid, state[0].copy()), Profile(grid, state[1].copy())

    times = [0.0]
    snaps = [snapshot()]

    def run(done: int, lo: int = 0, hi: int = batches, barrier=None, me: int = 0,
            replay: bool = False) -> int | None:
        """Step from step `done` to the last, window by window, on the
        unknowns of the solvers' batches lo..hi-1, all of them by default,
        and record the snapshots when `me` is 0. With a barrier, one of
        two processes stops at a failed check and returns the failed
        window's start, for this process to replay; with `replay`, the
        window from `done` is replayed first."""
        fu, fv = factor_u, factor_v
        if barrier is not None:
            fu, fv = (f._over_batches(lo, hi, barrier) for f in (factor_u, factor_v))
        own = fu.unknowns
        row_u, row_v = state
        uu, vv = row_u[own], row_v[own]
        rhs_u, rhs_v = fu.rhs, fv.rhs  # one memory, two factors' views
        b_u, b_v = rhs_u[own], rhs_v[own]
        # the state columns this process checks and saves, with the
        # Dirichlet column when it holds the last unknowns
        cols = slice(own.start, own.stop + (own.stop == m))
        live, saved = state[:, cols], checkpoint[:, cols]

        def step() -> None:
            # u ((1/dt - beta) + u ((1 + beta) - u)) - v, in the formula's order
            np.subtract(1.0 + beta, uu, out=b_u)
            np.multiply(uu, b_u, out=b_u)
            np.add(shift_u, b_u, out=b_u)
            np.multiply(uu, b_u, out=b_u)
            np.subtract(b_u, vv, out=b_u)
            solve_factored(fu, rhs_u, out=row_u)
            # v (tau/dt - v v) + u'; square rounds v v as multiply does, in
            # about half the time of multiply(vv, vv) on this row
            np.square(vv, out=b_v)
            np.subtract(shift_v, b_v, out=b_v)
            np.multiply(vv, b_v, out=b_v)
            np.add(b_v, uu, out=b_v)
            solve_factored(fv, rhs_v, out=row_v)

        def in_bound() -> bool:
            # a NaN propagates through max and min and fails every
            # comparison; max and min round nothing, so two processes'
            # halves decide as the whole state does
            if barrier is None:
                return bool(live.max() <= bound and live.min() >= -bound)
            slots[me, :2] = live.max(), live.min()
            barrier.wait()
            return all(high <= bound and low >= -bound for high, low in slots[:, :2])

        while done < n_steps:
            # a window ends at the next multiple of _CHECK_EVERY, the next
            # snapshot or the last step; the first step is a window of its
            # own, so a start outside the bound (which is not checked) fails
            # at t = dt whenever its first step is still outside
            stop = min(n_steps, (done // _CHECK_EVERY + 1) * _CHECK_EVERY) if done else 1
            if snapshot_every > 0:
                stop = min(stop, (done // snapshot_every + 1) * snapshot_every)
            if not replay:
                # a window that leaves the bound may overflow; it is replayed
                with np.errstate(all="ignore"):
                    for _ in range(done, stop):
                        step()
                replay = not in_bound()
                if replay and barrier is not None:
                    return done
            if replay:
                # replay the window from its start, checking every step, in
                # the caller's error state: the same steps, bits and warnings
                # as a check after every step
                np.copyto(state, checkpoint)
                for k in range(done + 1, stop + 1):
                    step()
                    if not in_bound():
                        raise BlowUpError(k * dt, bound)
                replay = False
            np.copyto(saved, live)
            done = stop

            if (snapshot_every > 0 and done % snapshot_every == 0) or done == n_steps:
                if me == 0:
                    times.append(done * dt)
                    snaps.append(snapshot())
                if barrier is not None and done < n_steps:
                    barrier.wait()  # the snapshot is taken; step on
        return None

    if two_processes:
        from ._processes import Barrier, in_two_processes

        def part(me: int, lo: int, hi: int):
            return lambda running: run(0, lo, hi, Barrier(counters, me, running), me)

        half = batches // 2
        restart, _ = in_two_processes(part(0, 0, half), part(1, half, batches))
        if restart is not None:
            # a failed window is replayed in this process alone
            run(restart, replay=True)
    else:
        run(0)

    u_drift = float(np.max(np.abs(state[0] - snaps[0][0].values)))
    v_drift = float(np.max(np.abs(state[1] - snaps[0][1].values)))
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


def _two_processes_usable(batches: int) -> bool:
    """Whether evolve steps in two processes: where two CPUs are usable
    (os.sched_getaffinity), on x86-64, whose stores become visible in
    program order, so that a plain counter store publishes the data
    written before it, and where each process would own at least two of
    the solvers' batches (a step at n = 4096, two batches, was slower in
    two processes than in one; at n = 8192, four batches, it was faster)."""
    import platform

    from ._processes import two_cpus

    return batches // 2 >= 2 and platform.machine() in ("x86_64", "AMD64") and two_cpus()


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
