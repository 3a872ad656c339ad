"""Solve for a standing pulse and print the full verification readout.

Defaults give a quick coarse-grid demonstration (a few seconds). For the
fine-grid run with negative energy use:

    python scripts/run_pulse.py --d 1e-6 --n 32768

Exit codes follow `fhn-pulse solve`: 2 when there is no standing pulse
(not converged, or constraints still active at the end), 3 when a property
check fails.

CLI equivalent: fhn-pulse solve ... followed by fhn-pulse analyze --run ...
"""

import argparse
import time

from fhn_pulse import (
    Grid,
    MinimizeOptions,
    Params,
    check_pulse_properties,
    linearize,
    minimize,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=0.4)
    ap.add_argument("--gamma", type=float, default=0.1)
    ap.add_argument("--d", type=float, default=1e-5)
    ap.add_argument("--x-max", type=float, default=12.0)
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--gtol", type=float, default=1e-8)
    ap.add_argument("--max-iters", type=int, default=50000)
    args = ap.parse_args()

    try:
        params = Params(d=args.d, tau=1.0, gamma=args.gamma, beta=args.beta)
        grid = Grid(args.x_max, args.n)
        options = MinimizeOptions(gtol=args.gtol, max_iters=args.max_iters)
    except ValueError as err:
        ap.error(str(err))
    t0 = time.time()
    res = minimize(params, grid, options=options)
    dt = time.time() - t0

    print(
        f"solve: {dt:.1f}s iterations={res.iterations} converged={res.converged} "
        f"termination={res.termination} polish={res.polish}"
    )
    print(
        f"energy J={res.energy.total:+.6e} (gradient {res.energy.gradient_term:.3e}, "
        f"potential {res.energy.potential_term:+.3e}, nonlocal {res.energy.nonlocal_term:.3e})"
    )
    x2 = "none" if res.x2 is None else f"{res.x2:.5f}"
    print(
        f"pulse: u(0)={res.u0.values[0]:.5f} min u={res.u0.values.min():+.5f} "
        f"x1={res.x1:.5f} x2={x2} active={res.active_constraint_count}"
    )
    lin = linearize(params)
    print(f"slow decay rate sqrt(lambda1) = {lin.slow_rate:.6f}")
    if not res.is_pulse:
        print(
            f"no standing pulse: converged={res.converged} "
            f"active={res.active_constraint_count}"
        )
        return 2
    report = check_pulse_properties(res)
    print(report.to_text())
    return 0 if report.all_passed else 3


if __name__ == "__main__":
    raise SystemExit(main())
