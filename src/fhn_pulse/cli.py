"""Command-line interface: configuration loading, subcommand dispatch, and
result emission.

Subcommands: constants, solve, sweep-gamma1, verify, analyze, evolve,
decay-rate. The SUBCOMMANDS table declares each key once, with its type
and default, and the flags are made from it. An optional --config JSON
file holds the same keys, typed as the flags: an int for a float key
becomes a float; a bool for a number, a float for an int, a non-string
path, or a null where the default is not None is a configuration error.
Explicit flags win. Every run directory receives a manifest echoing the
effective configuration.
Exit codes: 0 success, 1 usage or configuration error, 2 solver
non-convergence, a constraint-pinned solve (active constraints at the
end, so no standing pulse; analyze and decay-rate refuse such a run too)
or blow-up, 3 verification failures.

Numbers are written with 17 significant digits and JSON keys are sorted,
so identical configurations produce byte-identical data files (the
manifest's timing fields are the only nondeterministic output).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .admissible import build_q0
from .analysis import check_pulse_properties, linearize, verify_inequality_suite
from .dynamics import BlowUpError, evolve, export_trajectory
from .energy import EnergyReport
from .grid import Grid, Profile, mirror, profile_from_csv, profile_to_csv
from .minimizer import MinimizeOptions, SolveResult, minimize
from .model import Params, compute_constants, gamma0, gamma1_direct, gamma1_via_potential
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


class _Key(NamedTuple):
    """One configuration key: its flag and config-file type, its default
    (_REQUIRED: a flag or the config file must supply it) and its help."""

    type: type
    default: object = _REQUIRED
    help: str | None = None


_RUN = _Key(str, help="directory written by the solve subcommand")
_TAU = _Key(float, None, "override the stored tau")

# The subcommands' keys, each declared once: build_parser makes a flag of
# every key (x_max becomes --x-max) and merge_config takes the defaults and
# the config-file types from here. Every subcommand also takes --out, whose
# default the row gives, and --seed.
SUBCOMMANDS: dict[str, tuple[str, object, dict[str, _Key]]] = {
    "constants": ("evaluate the derived constants at (beta, gamma)", None, {
        "beta": _Key(float), "gamma": _Key(float),
    }),
    "solve": ("minimize the energy and emit the pulse profiles", _REQUIRED, {
        "beta": _Key(float), "gamma": _Key(float), "d": _Key(float),
        "tau": _Key(float, 1.0),
        "x_max": _Key(float, 20.0),
        "n": _Key(int, 4096),
        "a": _Key(float, None, "initial profile plateau end"),
        "b": _Key(float, None, "initial profile support end"),
        "gtol": _Key(float, 1e-8),
        "max_iters": _Key(int, 50_000),
        "mirror": _Key(bool, False, "also write even reflections onto [-x_max, x_max]"),
    }),
    "sweep-gamma1": ("tabulate gamma0 and gamma1 over a beta range", _REQUIRED, {
        "beta_min": _Key(float), "beta_max": _Key(float), "steps": _Key(int),
    }),
    "verify": ("run the randomized operator and energy inequality suite", None, {
        "beta": _Key(float), "gamma": _Key(float), "d": _Key(float),
        "x_max": _Key(float, 30.0),
        "n": _Key(int, 4096),
        "samples": _Key(int, 100),
        "tol": _Key(float, 1e-6),
    }),
    "analyze": ("check pulse properties of a stored solve run", None, {"run": _RUN}),
    "evolve": ("time-integrate the evolution from a stored solve run", None, {
        "run": _RUN,
        "dt": _Key(float, 1e-3),
        "t_final": _Key(float, 10.0),
        "snapshot_every": _Key(int, 0),
        "tau": _TAU,
    }),
    "decay-rate": ("perturb a stored pulse and record its relaxation", None, {
        "run": _RUN,
        "amplitude": _Key(float, 0.01, "relative perturbation of u0 around x1"),
        "dt": _Key(float, 1e-3),
        "t_final": _Key(float, 10.0),
        "snapshot_every": _Key(int, 1000),
        "tau": _TAU,
    }),
}


def command_keys(command: str) -> dict[str, _Key]:
    """Every key of a subcommand: its row of SUBCOMMANDS, then out and seed."""
    _, out_default, keys = SUBCOMMANDS[command]
    return {
        **keys,
        "out": _Key(str, out_default, "output directory (default: $%s)" % OUTDIR_ENV),
        "seed": _Key(int, 0, "random seed echoed in the manifest"),
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="fhn-pulse", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        for key, spec in command_keys(command).items():
            flag = "--" + key.replace("_", "-")
            if spec.type is bool:
                p.add_argument(flag, action="store_true", default=None, help=spec.help)
            else:
                p.add_argument(flag, type=spec.type, help=spec.help)
    return parser


def _typed(key: str, value, spec: _Key):
    """A config-file value checked against its key's flag type. An int for
    a float key becomes a float, so a file run writes the bytes of a flag
    run; null is accepted only where the default is None."""
    if value is None and spec.default is None:
        return None
    if spec.type is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not spec.type:
        raise ConfigError(
            f"config key {key} must be {spec.type.__name__}, got {json.dumps(value)}"
        )
    return value


def merge_config(args: argparse.Namespace) -> dict:
    """Effective configuration: defaults, overlaid by the --config file,
    overlaid by explicitly passed flags. Unknown config keys and values of
    the wrong type are rejected."""
    keys = command_keys(args.command)
    cfg = {key: spec.default for key, spec in keys.items()}
    if args.config:
        try:
            file_cfg = json.loads(pathlib.Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(keys))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update((k, _typed(k, v, keys[k])) for k, v in file_cfg.items())
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if cfg["out"] is None or cfg["out"] is _REQUIRED:
        cfg["out"] = os.environ.get(OUTDIR_ENV) or cfg["out"]
    if cfg["out"] is _REQUIRED:
        raise ConfigError(f"--out is required (or set ${OUTDIR_ENV})")
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
    t0 = time.monotonic()
    report = compute_constants(cfg["beta"], cfg["gamma"])
    sys.stdout.write(json_text(report.to_dict()))
    if cfg["out"]:
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
    # gamma1 by both closed-form routes, so each row cross-checks them
    columns = (
        betas,
        [gamma0(b) for b in betas],
        [gamma1_direct(b) for b in betas],
        [gamma1_via_potential(b) for b in betas],
    )

    out = _prepare_out(cfg)
    write_csv(out / "gamma1_curve.csv", "beta,gamma0,gamma1,gamma1_potential", columns)
    write_manifest(out, "sweep-gamma1", cfg, t0)
    print(f"sweep-gamma1: {steps} points on [{lo}, {hi}] -> {out}")
    return 0


def _cmd_verify(cfg: dict) -> int:
    t0 = time.monotonic()
    # the pair checks compare consecutive samples, so fewer than two
    # leaves them nothing to check
    if cfg["samples"] < 2:
        raise ConfigError("samples must be at least 2")
    # the suite's checks are steady: tau enters none of them
    params = Params(d=cfg["d"], tau=1.0, gamma=cfg["gamma"], beta=cfg["beta"])
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
    if not grid == u0.grid == v0.grid:
        raise ConfigError("stored profiles disagree with the recorded grid")
    return result


def _load_pulse(command: str, run: str) -> SolveResult | None:
    """The stored solve run, or None when it is no standing pulse, which
    is said on stderr."""
    result = load_solve_run(run)
    if result.is_pulse:
        return result
    print(
        f"{command}: stored run is no standing pulse: converged={result.converged} "
        f"active={result.active_constraint_count} polish={result.polish}",
        file=sys.stderr,
    )
    return None


def _cmd_analyze(cfg: dict) -> int:
    t0 = time.monotonic()
    result = _load_pulse("analyze", cfg["run"])
    if result is None:
        return 2
    lin = linearize(result.params)
    props = check_pulse_properties(result)
    ham_max = next(c.witness for c in props.checks if c.name == "hamiltonian_identity")
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


def _cmd_decay_rate(cfg: dict) -> int:
    """Relax the stored pulse from u0 (1 + amplitude bump), a bump centred
    on the crossing x1, and record max|u(t) - u0| at every snapshot."""
    t0 = time.monotonic()
    amplitude = cfg["amplitude"]
    # the table reports distances relative to the initial perturbation
    if not (math.isfinite(amplitude) and amplitude != 0.0):
        raise ConfigError(f"amplitude must be finite and nonzero, got {amplitude}")
    result = _load_pulse("decay-rate", cfg["run"])
    if result is None:
        return 2
    params = result.params
    if cfg["tau"] is not None:
        params = Params(d=params.d, tau=cfg["tau"], gamma=params.gamma, beta=params.beta)
    u0 = result.u0.values
    x = result.grid.nodes()
    bump = np.exp(-((x - result.x1) ** 2) / max(4.0 * result.x1**2, 1e-4))
    u_pert = Profile(result.grid, u0 * (1.0 + amplitude * bump))
    try:
        traj = evolve(params, u_pert, result.v0, dt=cfg["dt"], t_final=cfg["t_final"],
                      snapshot_every=cfg["snapshot_every"])
    except BlowUpError as err:
        print(f"decay-rate: {err}", file=sys.stderr)
        return 2
    d0 = float(np.max(np.abs(u_pert.values - u0)))
    distances = [float(np.max(np.abs(u.values - u0))) for u, _ in traj.snapshots]
    out = pathlib.Path(cfg["out"]) if cfg["out"] else pathlib.Path(cfg["run"], "decay-rate")
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "decay.csv", "t,u_distance", (traj.times, distances))
    write_manifest(out, "decay-rate", cfg, t0)
    print(f"pulse: J={result.energy.total:+.3e} x1={result.x1:.5f} tau={params.tau:g}")
    print(f"initial |u - pulse|_inf = {d0:.3e}")
    for t, dist in zip(traj.times, distances):
        print(f"t={t:7.3f}  |u - pulse|_inf = {dist:.6e}  ({dist / d0:.4f} of initial)")
    return 0


_COMMANDS = {
    "constants": _cmd_constants,
    "solve": _cmd_solve,
    "sweep-gamma1": _cmd_sweep,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "evolve": _cmd_evolve,
    "decay-rate": _cmd_decay_rate,
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
