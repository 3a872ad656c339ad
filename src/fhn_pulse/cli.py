"""Command-line interface: configuration loading, subcommand dispatch, and
result emission.

Subcommands: constants, solve, sweep-gamma1, verify, analyze, evolve. Each
accepts flags plus an optional --config JSON file holding the same keys;
explicit flags win. Every run directory receives a manifest echoing the
effective configuration. Exit codes: 0 success, 1 usage or configuration
error, 2 solver non-convergence, a constraint-pinned solve (active
constraints at the end, so no standing pulse; analyze refuses such a run
too) or blow-up, 3 verification failures.

Numbers are written with 17 significant digits and JSON keys are sorted,
so identical configurations produce byte-identical data files (the
manifest's timing fields are the only nondeterministic output).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

from . import __version__
from .admissible import build_q0
from .analysis import (
    check_pulse_properties,
    hamiltonian_residual,
    linearize,
    verify_inequality_suite,
)
from .dynamics import BlowUpError, evolve, export_trajectory
from .energy import EnergyReport
from .grid import Grid, mirror, profile_from_csv, profile_to_csv
from .minimizer import MinimizeOptions, SolveResult, minimize
from .model import Params, compute_constants, gamma0, gamma1_direct
from .operators import InhibitorError
from .records import json_text, write_csv, write_json

OUTDIR_ENV = "FHN_PULSE_OUTDIR"

_REQUIRED = object()


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the artifact contract
    reserves 2 for solver non-convergence, so remap to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Mergeable keys and defaults per subcommand; _REQUIRED marks keys that must
# come from either a flag or the config file.
_DEFAULTS: dict[str, dict] = {
    "constants": {"beta": _REQUIRED, "gamma": _REQUIRED, "out": None, "seed": 0},
    "solve": {
        "beta": _REQUIRED,
        "gamma": _REQUIRED,
        "d": _REQUIRED,
        "tau": 1.0,
        "x_max": 20.0,
        "n": 4096,
        "a": None,
        "b": None,
        "gtol": 1e-8,
        "max_iters": 50_000,
        "mirror": False,
        "out": _REQUIRED,
        "seed": 0,
    },
    "sweep-gamma1": {
        "beta_min": _REQUIRED,
        "beta_max": _REQUIRED,
        "steps": _REQUIRED,
        "out": _REQUIRED,
        "seed": 0,
    },
    "verify": {
        "beta": _REQUIRED,
        "gamma": _REQUIRED,
        "d": _REQUIRED,
        "tau": 1.0,
        "x_max": 30.0,
        "n": 4096,
        "samples": 100,
        "seed": 0,
        "tol": 1e-6,
        "out": None,
    },
    "analyze": {"run": _REQUIRED, "out": None, "seed": 0},
    "evolve": {
        "run": _REQUIRED,
        "dt": 1e-3,
        "t_final": 10.0,
        "snapshot_every": 0,
        "tau": None,
        "out": None,
        "seed": 0,
    },
}


def build_parser() -> _Parser:
    parser = _Parser(prog="fhn-pulse", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        p.add_argument("--out", help="output directory (default: $%s)" % OUTDIR_ENV)
        p.add_argument("--seed", type=int, help="random seed echoed in the manifest")
        return p

    p = add("constants", "evaluate the derived constants at (beta, gamma)")
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)

    p = add("solve", "minimize the energy and emit the pulse profiles")
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float, help="initial profile plateau end")
    p.add_argument("--b", type=float, help="initial profile support end")
    p.add_argument("--gtol", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument(
        "--mirror", action="store_true", default=None,
        help="also write even reflections onto [-x_max, x_max]",
    )

    p = add("sweep-gamma1", "tabulate gamma0 and gamma1 over a beta range")
    p.add_argument("--beta-min", type=float)
    p.add_argument("--beta-max", type=float)
    p.add_argument("--steps", type=int)

    p = add("verify", "run the randomized operator and energy inequality suite")
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float)

    p = add("analyze", "check pulse properties of a stored solve run")
    p.add_argument("--run", help="directory written by the solve subcommand")

    p = add("evolve", "time-integrate the evolution from a stored solve run")
    p.add_argument("--run", help="directory written by the solve subcommand")
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--snapshot-every", type=int)
    p.add_argument("--tau", type=float, help="override the stored tau")

    return parser


def merge_config(args: argparse.Namespace) -> dict:
    """Effective configuration: defaults, overlaid by the --config file,
    overlaid by explicitly passed flags. Unknown config keys are rejected."""
    defaults = _DEFAULTS[args.command]
    cfg = dict(defaults)
    if args.config:
        try:
            file_cfg = json.loads(pathlib.Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg.get("out") is _REQUIRED or cfg.get("out") is None:
        env = os.environ.get(OUTDIR_ENV)
        if env:
            cfg["out"] = env
        elif cfg.get("out") is _REQUIRED:
            raise ConfigError(f"--out is required (or set ${OUTDIR_ENV})")
        else:
            cfg["out"] = None
    missing = sorted(k for k, v in cfg.items() if v is _REQUIRED)
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return cfg


def write_manifest(out: pathlib.Path, command: str, cfg: dict, t0: float) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "version": __version__,
        "timing_seconds": time.monotonic() - t0,
        "created_unix": time.time(),
    }
    write_json(out / "manifest.json", manifest)


def _prepare_out(cfg: dict) -> pathlib.Path:
    out = pathlib.Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(cfg: dict) -> int:
    report = compute_constants(cfg["beta"], cfg["gamma"])
    sys.stdout.write(json_text(report.to_dict()))
    if cfg["out"]:
        t0 = time.monotonic()
        out = _prepare_out(cfg)
        write_json(out / "constants.json", report.to_dict())
        write_manifest(out, "constants", cfg, t0)
    return 0


def _cmd_solve(cfg: dict) -> int:
    t0 = time.monotonic()
    # validate the whole configuration before any file is created
    params = Params(d=cfg["d"], tau=cfg["tau"], gamma=cfg["gamma"], beta=cfg["beta"])
    grid = Grid(x_max=cfg["x_max"], n=cfg["n"])
    init = None
    if (cfg["a"] is None) != (cfg["b"] is None):
        raise ConfigError("--a and --b must be given together")
    if cfg["a"] is not None:
        init = build_q0(cfg["a"], cfg["b"], grid)
    options = MinimizeOptions(gtol=cfg["gtol"], max_iters=cfg["max_iters"])

    result = minimize(params, grid, init=init, options=options)

    out = _prepare_out(cfg)
    profile_to_csv(result.u0, out / "u0.csv")
    profile_to_csv(result.v0, out / "v0.csv")
    write_json(out / "solve_result.json", result.to_dict())
    write_json(out / "energy.json", result.energy.to_dict())
    if cfg["mirror"]:
        for name, prof in (("u0", result.u0), ("v0", result.v0)):
            write_csv(out / f"{name}_mirrored.csv", "x,value", mirror(prof))
    write_manifest(out, "solve", cfg, t0)

    print(
        f"solve: converged={result.converged} iterations={result.iterations} "
        f"energy={result.energy.total:.10g} gradient_norm="
        f"{result.final_gradient_norm:.3e} "
        f"active={result.active_constraint_count} polish={result.polish} -> {out}"
    )
    return 0 if result.is_pulse else 2


def _cmd_sweep(cfg: dict) -> int:
    t0 = time.monotonic()
    lo, hi, steps = cfg["beta_min"], cfg["beta_max"], cfg["steps"]
    if steps < 2:
        raise ConfigError("steps must be at least 2")
    if not (1.0 / 3.0 < lo < hi < 0.5):
        raise ConfigError("beta range must lie strictly inside (1/3, 1/2)")
    betas = np.linspace(lo, hi, steps).tolist()
    columns = (betas, [gamma0(b) for b in betas], [gamma1_direct(b) for b in betas])

    out = _prepare_out(cfg)
    write_csv(out / "gamma1_curve.csv", "beta,gamma0,gamma1", columns)
    write_manifest(out, "sweep-gamma1", cfg, t0)
    print(f"sweep-gamma1: {steps} points on [{lo}, {hi}] -> {out}")
    return 0


def _cmd_verify(cfg: dict) -> int:
    t0 = time.monotonic()
    params = Params(d=cfg["d"], tau=cfg["tau"], gamma=cfg["gamma"], beta=cfg["beta"])
    grid = Grid(x_max=cfg["x_max"], n=cfg["n"])
    report = verify_inequality_suite(
        params, grid, n_samples=cfg["samples"], seed=cfg["seed"], tol=cfg["tol"]
    )
    print(report.to_text())
    if cfg["out"]:
        out = _prepare_out(cfg)
        write_json(out / "verify_report.json", report.to_dict())
        write_manifest(out, "verify", cfg, t0)
    return 0 if report.all_passed else 3


def load_solve_run(run_dir: str | pathlib.Path) -> SolveResult:
    """Rebuild a SolveResult from a solve run directory: the inverse of
    SolveResult.to_dict plus the u0/v0 CSV profiles. Missing or unknown
    keys in solve_result.json raise ConfigError."""
    run = pathlib.Path(run_dir)
    path = run / "solve_result.json"
    data = json.loads(path.read_text())
    u0 = profile_from_csv(run / "u0.csv")
    v0 = profile_from_csv(run / "v0.csv")
    try:
        grid = Grid(**data.pop("grid"))
        params = Params(**data.pop("params"))
        energy = EnergyReport(**data.pop("energy"))
        result = SolveResult(
            params=params, grid=grid, u0=u0, v0=v0, energy=energy, **data
        )
    except (AttributeError, KeyError, TypeError) as err:
        raise ConfigError(f"malformed {path}: {err!r}") from err
    if grid != u0.grid:
        raise ConfigError("stored profiles disagree with the recorded grid")
    return result


def _cmd_analyze(cfg: dict) -> int:
    t0 = time.monotonic()
    result = load_solve_run(cfg["run"])
    if not result.is_pulse:
        print(
            f"analyze: stored run is no standing pulse: converged={result.converged} "
            f"active={result.active_constraint_count} polish={result.polish}",
            file=sys.stderr,
        )
        return 2
    lin = linearize(result.params)
    props = check_pulse_properties(result)
    ham = hamiltonian_residual(result.u0, result.v0, result.params)
    ham_max = float(np.max(np.abs(ham.values[1:-1])))
    report = {
        "linearization": lin.to_dict(),
        "properties": props.to_dict(),
        "hamiltonian_residual_max": ham_max,
    }
    print(props.to_text())
    out_dir = pathlib.Path(cfg["out"]) if cfg["out"] else pathlib.Path(cfg["run"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "analyze_report.json", report)
    write_manifest(out_dir, "analyze", cfg, t0)
    return 0 if props.all_passed else 3


def _cmd_evolve(cfg: dict) -> int:
    t0 = time.monotonic()
    result = load_solve_run(cfg["run"])
    params = result.params
    if cfg["tau"] is not None:
        params = Params(d=params.d, tau=cfg["tau"], gamma=params.gamma, beta=params.beta)
    out_dir = (
        pathlib.Path(cfg["out"]) if cfg["out"] else pathlib.Path(cfg["run"]) / "evolve"
    )
    try:
        traj = evolve(
            params,
            result.u0,
            result.v0,
            dt=cfg["dt"],
            t_final=cfg["t_final"],
            snapshot_every=cfg["snapshot_every"],
        )
    except BlowUpError as err:
        print(f"evolve: {err}", file=sys.stderr)
        return 2
    index = export_trajectory(traj, out_dir)
    write_manifest(out_dir, "evolve", cfg, t0)
    print(
        f"evolve: t_final={traj.t_final:.6g} u_drift={traj.u_drift:.3e} "
        f"v_drift={traj.v_drift:.3e} -> {index}"
    )
    return 0


_COMMANDS = {
    "constants": _cmd_constants,
    "solve": _cmd_solve,
    "sweep-gamma1": _cmd_sweep,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "evolve": _cmd_evolve,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError, OSError) as err:
        print(f"fhn-pulse: error: {err}", file=sys.stderr)
        return 1
    except InhibitorError as err:
        print(f"fhn-pulse: solver failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
