"""Regenerate the stored input of the `relax` workload.

    python3 perfbench/make_relax_state.py

Runs the `refine_chain` workload body once (about half a minute) and
stores the converged n = 32768 pulse, the criterion-7 state, as
data/relax_state.npz (float64 arrays u0, v0) and
data/relax_solve_result.json (the SolveResult summary that
`fhn-pulse solve` writes). The workload's gates must pass first.
"""

from __future__ import annotations

import json
import pathlib
import sys

import run  # pins the BLAS threads before numpy loads

import numpy as np  # noqa: E402


def main() -> int:
    run.import_package()
    from workloads import DATA, WORKLOADS

    wl = WORKLOADS["refine_chain"]
    out = wl.body(wl.setup(0, pathlib.Path(".")), pathlib.Path("."))
    failed = [(name, detail) for name, ok, detail in wl.gates(out) if not ok]
    if failed:
        print(f"refine_chain gates failed, nothing written: {failed}", file=sys.stderr)
        return 1
    fine = out["results"][-1]
    DATA.mkdir(parents=True, exist_ok=True)
    np.savez(DATA / "relax_state.npz", u0=fine.u0.values, v0=fine.v0.values)
    (DATA / "relax_solve_result.json").write_text(
        json.dumps(fine.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {DATA / 'relax_state.npz'} (J = {fine.energy.total:.10e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
