"""The three benchmark workloads: set-up, timed body, correctness gates and
output digest of each.

Every call into the package goes through a module attribute looked up at
call time (`minimizer.minimize`, `cli.main`, ...), so the wrappers a traced
run installs are the ones that run. The gates reuse thresholds the test
suite states; each gate that fails is one failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

import numpy as np

from fhn_pulse import analysis, cli, grid as fgrid, minimizer, model

BETA = 0.4
DATA = pathlib.Path(__file__).resolve().parent / "data"


def _hash_files(out: pathlib.Path, stdout: str, rep_dir: pathlib.Path) -> str:
    """sha256 over every artifact except manifest.json (which holds wall
    clock fields) and the captured standard output, in which the
    repetition's own directory is masked."""
    h = hashlib.sha256(stdout.replace(str(rep_dir), "<rep_dir>").encode())
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(out)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# refine_chain: the fine_chain recipe through the library


class RefineChain:
    """Cold minimize at n = 4096, then warm-started minimize at 8192, 16384
    and 32768, each seeded by linear interpolation of the previous level;
    the pulse property report of the finest level closes the body."""

    name = "refine_chain"
    params = model.Params(d=1e-6, tau=1.0, gamma=0.1, beta=BETA)
    x_max = 12.0
    levels = (4096, 8192, 16384, 32768)
    gtol = 1e-8
    # J of the finest level on the code this benchmark was defined on
    j_reference = -1.0159714e-04

    def setup(self, seed: int, workdir: pathlib.Path):
        return {"options": minimizer.MinimizeOptions(gtol=self.gtol)}

    def body(self, state, rep_dir: pathlib.Path):
        results = []
        prev = None
        for n in self.levels:
            g = fgrid.Grid(self.x_max, n)
            init = None
            if prev is not None:
                init = fgrid.Profile(
                    g, np.interp(g.nodes(), prev.grid.nodes(), prev.u0.values)
                )
            prev = minimizer.minimize(self.params, g, init=init, options=state["options"])
            results.append(prev)
        report = None
        if prev.converged:
            report = analysis.check_pulse_properties(prev)
        return {"results": results, "report": report}

    def gates(self, out) -> list[tuple[str, bool, str]]:
        results, report = out["results"], out["report"]
        gates = []
        for res in results:
            gates.append((
                f"converged_gtol_n{res.grid.n}",
                res.converged and res.termination == "gtol",
                f"termination={res.termination} iterations={res.iterations} "
                f"gnorm={res.final_gradient_norm:.3e}",
            ))
        fine = results[-1]
        j = fine.energy.total
        gates.append(("finest_no_active_constraints", fine.active_constraint_count == 0,
                      f"active={fine.active_constraint_count}"))
        gates.append(("finest_energy_negative", j < 0.0, f"J={j:.10e}"))
        rel = abs(j - self.j_reference) / abs(self.j_reference)
        gates.append(("finest_energy_reference", rel <= 1e-4,
                      f"J={j:.10e} ref={self.j_reference:.8e} rel={rel:.2e}"))
        gates.append(("pulse_properties", report is not None and report.all_passed,
                      "no report (not converged)" if report is None else
                      ",".join(c.name for c in report.checks if not c.passed) or "all pass"))
        # criterion 6: fitted tail decay against sqrt(lambda1)
        try:
            lin = analysis.linearize(fine.params)
            window = analysis.default_decay_window(fine.x2, lin.slow_rate, fine.grid.x_max)
            rate = analysis.fit_decay(fine.u0, window)
            rel_rate = abs(rate - lin.slow_rate) / lin.slow_rate
            gates.append(("decay_rate_5pct", rel_rate < 0.05,
                          f"rate={rate:.6f} slow_rate={lin.slow_rate:.6f} rel={rel_rate:.2e}"))
        except (TypeError, ValueError) as err:
            gates.append(("decay_rate_5pct", False, f"fit failed: {err}"))
        # criterion 5: first-integral residual at C h^2 / d
        r = analysis.hamiltonian_residual(fine.u0, fine.v0, fine.params)
        resid = float(np.max(np.abs(r.values[1:-1])))
        cap = 5e-3 * fine.grid.h**2 / fine.params.d
        gates.append(("hamiltonian_residual", resid <= cap,
                      f"residual={resid:.3e} cap={cap:.3e}"))
        return gates

    def digest(self, out, rep_dir: pathlib.Path) -> str:
        h = hashlib.sha256()
        for res in out["results"]:
            h.update(res.u0.values.tobytes())
            h.update(res.v0.values.tobytes())
            h.update(json.dumps(res.to_dict(), sort_keys=True).encode())
        if out["report"] is not None:
            h.update(json.dumps(out["report"].to_dict(), sort_keys=True).encode())
        return h.hexdigest()

    def summary(self, out) -> dict:
        return {
            "iterations": [r.iterations for r in out["results"]],
            "newton_iters_total": [r.newton_iters_total for r in out["results"]],
            "J_finest": out["results"][-1].energy.total,
        }


# ---------------------------------------------------------------------------
# relax: `fhn-pulse evolve` from the converged refine_chain end state


def write_solve_run(run_dir: pathlib.Path, u0: np.ndarray, v0: np.ndarray, result: dict) -> None:
    """Write a solve run directory in the layout `fhn-pulse solve` emits:
    u0.csv and v0.csv as (x, value) rows at 17 significant digits, and
    solve_result.json."""
    run_dir.mkdir(parents=True, exist_ok=True)
    x = np.linspace(0.0, result["grid"]["x_max"], result["grid"]["n"] + 1)
    for name, vals in (("u0", u0), ("v0", v0)):
        lines = ["x,value"] + [f"{xi:.17g},{vi:.17g}" for xi, vi in zip(x, vals)]
        (run_dir / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (run_dir / "solve_result.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


class Relax:
    """10^4 IMEX steps (dt = 1e-3, T = 10) at n = 32768 via `cli.main`,
    starting from the stored criterion-7 state (see make_relax_state.py)."""

    name = "relax"
    state_npz = DATA / "relax_state.npz"
    state_json = DATA / "relax_solve_result.json"

    def setup(self, seed: int, workdir: pathlib.Path):
        with np.load(self.state_npz, allow_pickle=False) as z:
            u0, v0 = z["u0"], z["v0"]
        result = json.loads(self.state_json.read_text(encoding="utf-8"))
        run_dir = workdir / "relax_run"
        write_solve_run(run_dir, u0, v0, result)
        return {"run": run_dir, "seed": seed}

    def body(self, state, rep_dir: pathlib.Path):
        out = rep_dir / "evolve"
        rc, stdout = _run_cli([
            "evolve", "--run", str(state["run"]), "--out", str(out),
            "--dt", "1e-3", "--t-final", "10", "--seed", str(state["seed"]),
        ])
        return {"rc": rc, "stdout": stdout, "out": out}

    def gates(self, out):
        gates = [("exit_code_0", out["rc"] == 0, f"rc={out['rc']}")]
        try:
            traj = json.loads((out["out"] / "trajectory.json").read_text())
            drift = max(traj["u_drift"], traj["v_drift"])
            ok = traj["n_steps"] == 10_000 and drift <= 1e-3
            detail = f"n_steps={traj['n_steps']} drift={drift:.3e}"
        except (OSError, KeyError, ValueError) as err:
            ok, detail = False, f"no trajectory: {err}"
        gates.append(("drift_le_1e-3", ok, detail))
        return gates

    def digest(self, out, rep_dir):
        return _hash_files(out["out"], out["stdout"], rep_dir)

    def summary(self, out):
        try:
            traj = json.loads((out["out"] / "trajectory.json").read_text())
            return {"u_drift": traj["u_drift"], "v_drift": traj["v_drift"]}
        except (OSError, ValueError):
            return {}


# ---------------------------------------------------------------------------
# verify_suite: `fhn-pulse verify` with the criterion-2 configuration


class VerifySuite:
    """The 100-sample operator/energy inequality suite at gamma = 0.3,
    d = 0.005, x_max = 30, n = 4096 via `cli.main`; the suite seed is the
    benchmark seed."""

    name = "verify_suite"
    n_checks = 15

    def setup(self, seed: int, workdir: pathlib.Path):
        return {"seed": seed}

    def body(self, state, rep_dir: pathlib.Path):
        out = rep_dir / "verify"
        rc, stdout = _run_cli([
            "verify", "--beta", "0.4", "--gamma", "0.3", "--d", "0.005",
            "--x-max", "30.0", "--n", "4096", "--samples", "100",
            "--seed", str(state["seed"]), "--out", str(out),
        ])
        return {"rc": rc, "stdout": stdout, "out": out}

    def gates(self, out):
        gates = [("exit_code_0", out["rc"] == 0, f"rc={out['rc']}")]
        try:
            report = json.loads((out["out"] / "verify_report.json").read_text())
            failed = [c["name"] for c in report["checks"] if c["n_pass"] != c["n_total"]]
            ok = (len(report["checks"]) == self.n_checks and not failed
                  and report["n_samples"] == 100 and report["n"] == 4096)
            detail = f"{len(report['checks'])} checks, failed: {failed or 'none'}"
        except (OSError, KeyError, ValueError) as err:
            ok, detail = False, f"no report: {err}"
        gates.append(("all_15_checks_pass", ok, detail))
        return gates

    def digest(self, out, rep_dir):
        return _hash_files(out["out"], out["stdout"], rep_dir)

    def summary(self, out):
        return {}


WORKLOADS = {w.name: w for w in (RefineChain(), Relax(), VerifySuite())}
