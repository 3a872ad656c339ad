"""Relaxation diagnostic: perturb a standing pulse and watch it settle.

Solves for a pulse, adds a smooth relative perturbation to the activator,
then integrates the time-dependent system and reports the distance to the
unperturbed pulse at each snapshot. Descriptive output only; the drift
trend is the experiment.
"""

import argparse
import math
import time

import numpy as np

from fhn_pulse import (
    Grid,
    MinimizeOptions,
    Params,
    Profile,
    evolve,
    minimize,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=0.4)
    ap.add_argument("--gamma", type=float, default=0.1)
    ap.add_argument("--d", type=float, default=1e-5)
    ap.add_argument("--x-max", type=float, default=12.0)
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--amplitude", type=float, default=0.01)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--t-final", type=float, default=10.0)
    ap.add_argument("--snapshots", type=int, default=10)
    args = ap.parse_args()
    # checked before the pulse solve, which takes most of the run
    for flag, value in (("--dt", args.dt), ("--t-final", args.t_final)):
        if not (value > 0.0 and math.isfinite(value)):
            ap.error(f"{flag} must be positive and finite, got {value}")
    if not math.isfinite(args.t_final / args.dt):
        ap.error(f"--t-final / --dt must be finite, got {args.t_final} / {args.dt}")
    if args.snapshots < 1:
        ap.error(f"--snapshots must be at least 1, got {args.snapshots}")
    if not math.isfinite(args.amplitude):
        ap.error(f"--amplitude must be finite, got {args.amplitude}")
    try:
        params = Params(d=args.d, tau=args.tau, gamma=args.gamma, beta=args.beta)
        grid = Grid(args.x_max, args.n)
    except ValueError as err:
        ap.error(str(err))

    t0 = time.time()
    res = minimize(params, grid, options=MinimizeOptions(gtol=1e-8))
    if not res.is_pulse:
        print(
            f"no standing pulse ({res.termination}, "
            f"active={res.active_constraint_count}, polish={res.polish}); aborting"
        )
        return 2
    print(f"pulse: {time.time() - t0:.1f}s, J={res.energy.total:+.3e}")

    x = grid.nodes()
    bump = np.exp(-((x - res.x1) ** 2) / max(4.0 * res.x1**2, 1e-4))
    u_pert = Profile(grid, res.u0.values * (1.0 + args.amplitude * bump))

    steps = int(round(args.t_final / args.dt))
    every = max(1, steps // args.snapshots)
    traj = evolve(
        params,
        u_pert,
        res.v0,
        dt=args.dt,
        t_final=args.t_final,
        snapshot_every=every,
    )

    d0 = float(np.max(np.abs(u_pert.values - res.u0.values)))
    print(f"initial |u - pulse|_inf = {d0:.3e}")
    for t, (snap_u, _) in zip(traj.times, traj.snapshots):
        dist = float(np.max(np.abs(snap_u.values - res.u0.values)))
        print(f"t={t:7.3f}  |u - pulse|_inf = {dist:.6e}  ({dist / d0:.4f} of initial)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
