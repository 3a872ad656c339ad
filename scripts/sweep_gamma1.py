"""Tabulate the inhibitor-strength threshold gamma1(beta) over a beta range.

Writes a CSV with both closed-form evaluation routes, gamma1_direct and
gamma1_via_potential (through gamma0 and the potential F), and their
absolute difference, so the two code paths cross-check each other.

`fhn-pulse sweep-gamma1` tabulates gamma0 and gamma1 through the direct
route only, at the same beta values: its beta and gamma1 columns equal
this script's beta and gamma1_direct columns over the same range.

    python3 scripts/sweep_gamma1.py --beta-min 0.34 --beta-max 0.49 --steps 151
"""

import argparse

import numpy as np

from fhn_pulse import gamma1_direct, gamma1_via_potential
from fhn_pulse.records import write_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta-min", type=float, default=0.34)
    ap.add_argument("--beta-max", type=float, default=0.49)
    ap.add_argument("--steps", type=int, default=151)
    ap.add_argument("--out", default="gamma1_sweep.csv")
    args = ap.parse_args()

    # the working window of gamma1, as `fhn-pulse sweep-gamma1` checks it
    if not (1.0 / 3.0 < args.beta_min < args.beta_max < 0.5):
        ap.error("need 1/3 < beta-min < beta-max < 1/2")
    if args.steps < 1:
        ap.error("need steps >= 1")

    rows = []
    for beta in np.linspace(args.beta_min, args.beta_max, args.steps).tolist():
        g_direct = gamma1_direct(beta)
        g_pot = gamma1_via_potential(beta)
        rows.append((beta, g_direct, g_pot, abs(g_direct - g_pot)))

    write_csv(args.out, "beta,gamma1_direct,gamma1_potential,abs_diff", list(zip(*rows)))

    worst = max(r[3] for r in rows)
    print(f"wrote {args.out}: {len(rows)} rows, max |direct - potential| = {worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
