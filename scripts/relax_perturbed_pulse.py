"""Relaxation diagnostic: perturb a standing pulse and watch it settle.

Loads the pulse of a `fhn-pulse solve` run, adds a smooth relative
perturbation to the activator, then integrates the time-dependent system
and reports the distance to the unperturbed pulse at each snapshot.
Descriptive output only; the drift trend is the experiment.

    fhn-pulse solve --beta 0.4 --gamma 0.1 --d 1e-5 --x-max 12 --n 4096 --out runs/demo
    python scripts/relax_perturbed_pulse.py --run runs/demo

Exit codes follow `fhn-pulse evolve`: 1 for a usage error or an unreadable
run, 2 when the run is no standing pulse or the trajectory blows up.
"""

import dataclasses
import math
import sys

import numpy as np

from fhn_pulse import BlowUpError, Profile, evolve
from fhn_pulse.cli import ConfigError, _Parser, load_solve_run


def main() -> int:
    ap = _Parser(description=__doc__)
    ap.add_argument("--run", required=True, help="directory written by fhn-pulse solve")
    ap.add_argument("--tau", type=float, default=None, help="override the stored tau")
    ap.add_argument("--amplitude", type=float, default=0.01)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--t-final", type=float, default=10.0)
    ap.add_argument("--snapshots", type=int, default=10)
    args = ap.parse_args()
    for flag, value in (("--dt", args.dt), ("--t-final", args.t_final)):
        if not (value > 0.0 and math.isfinite(value)):
            ap.error(f"{flag} must be positive and finite, got {value}")
    if not math.isfinite(args.t_final / args.dt):
        ap.error(f"--t-final / --dt must be finite, got {args.t_final} / {args.dt}")
    if args.snapshots < 1:
        ap.error(f"--snapshots must be at least 1, got {args.snapshots}")
    # the table reports distances relative to the initial perturbation
    if not (math.isfinite(args.amplitude) and args.amplitude != 0.0):
        ap.error(f"--amplitude must be finite and nonzero, got {args.amplitude}")
    try:
        res = load_solve_run(args.run)
        params = res.params
        if args.tau is not None:
            params = dataclasses.replace(params, tau=args.tau)
    except (ConfigError, ValueError, OSError) as err:
        ap.error(str(err))
    if not res.is_pulse:
        print(
            f"no standing pulse ({res.termination}, "
            f"active={res.active_constraint_count}, polish={res.polish}); aborting",
            file=sys.stderr,
        )
        return 2
    print(f"pulse: J={res.energy.total:+.3e} x1={res.x1:.5f} tau={params.tau:g}")

    x = res.grid.nodes()
    bump = np.exp(-((x - res.x1) ** 2) / max(4.0 * res.x1**2, 1e-4))
    u_pert = Profile(res.grid, res.u0.values * (1.0 + args.amplitude * bump))

    steps = int(round(args.t_final / args.dt))
    every = max(1, steps // args.snapshots)
    try:
        traj = evolve(
            params,
            u_pert,
            res.v0,
            dt=args.dt,
            t_final=args.t_final,
            snapshot_every=every,
        )
    except BlowUpError as err:
        print(f"relax: {err}", file=sys.stderr)
        return 2

    d0 = float(np.max(np.abs(u_pert.values - res.u0.values)))
    print(f"initial |u - pulse|_inf = {d0:.3e}")
    for t, (snap_u, _) in zip(traj.times, traj.snapshots):
        dist = float(np.max(np.abs(snap_u.values - res.u0.values)))
        print(f"t={t:7.3f}  |u - pulse|_inf = {dist:.6e}  ({dist / d0:.4f} of initial)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
