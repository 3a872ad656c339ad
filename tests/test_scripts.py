"""The example scripts agree with the CLI on what counts as a standing
pulse (converged and no active constraint at the end), on the beta
window of the gamma1 sweep and on its table.

Most runs execute a script in this process, as `python script.py` would
(runpy with the script's argv), and read its exit code from the SystemExit
it raises. One run per script launches the interpreter, the smoke test of
the script as an entry point."""

import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from fhn_pulse.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

# past the fold: the descent meets gtol on a state pinned by its bands
PINNED_ARGS = ["--d", "0.005", "--x-max", "20", "--n", "1024"]


@pytest.fixture
def run_script(monkeypatch, capsys):
    """run(script, *args, launch=False): the script's exit code and output,
    from a run in this process or, with launch, in a fresh interpreter."""

    def run(script: str, *args: str, launch: bool = False) -> subprocess.CompletedProcess:
        path = str(ROOT / "scripts" / script)
        if launch:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
            )
            return subprocess.run(
                [sys.executable, path, *args],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
        monkeypatch.setattr(sys, "argv", [path, *args])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(path, run_name="__main__")
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(sys.argv, exit_info.value.code, out, err)

    return run


# launched: the smoke test of both solving scripts
@pytest.mark.parametrize("script", ["run_pulse.py", "relax_perturbed_pulse.py"])
def test_constraint_pinned_state_exits_2(run_script, script):
    proc = run_script(script, *PINNED_ARGS, launch=True)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "active=" in proc.stdout


def test_run_pulse_reports_polish(run_script):
    proc = run_script("run_pulse.py", "--n", "2048")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0].endswith(" polish=newton")


# the first case launches the interpreter: the sweep script's smoke test
@pytest.mark.parametrize(
    "args, launch",
    [(["--beta-min", "0.2"], True), (["--steps", "0"], False)],
    ids=["beta_min_below_window", "no_steps"],
)
def test_sweep_gamma1_rejects_bad_arguments(run_script, tmp_path, args, launch):
    out = tmp_path / "sweep.csv"
    proc = run_script("sweep_gamma1.py", *args, "--out", str(out), launch=launch)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "beta_min, beta_max, steps",
    [("0.34", "0.49", "151"), ("0.35", "0.45", "101")],
    ids=["script_default", "criterion_1_range"],
)
def test_sweep_gamma1_table_matches_cli(run_script, tmp_path, beta_min, beta_max, steps):
    # the script and `fhn-pulse sweep-gamma1` tabulate the same beta values
    # and the same direct gamma1 at each, to the last written digit
    sweep = ["--beta-min", beta_min, "--beta-max", beta_max, "--steps", steps]
    script_csv = tmp_path / "script.csv"
    proc = run_script("sweep_gamma1.py", *sweep, "--out", str(script_csv))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert main(["sweep-gamma1", *sweep, "--out", str(tmp_path / "cli")]) == 0

    def columns(path, *names):
        header, *rows = path.read_text().splitlines()
        index = [header.split(",").index(name) for name in names]
        return [[row.split(",")[i] for i in index] for row in rows]

    script = columns(script_csv, "beta", "gamma1_direct")
    cli = columns(tmp_path / "cli" / "gamma1_curve.csv", "beta", "gamma1")
    assert len(script) == int(steps)
    assert script == cli


def test_run_pulse_rejects_bad_stopping_controls(run_script):
    proc = run_script("run_pulse.py", "--n", "256", "--gtol", "-1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: gtol must be positive and finite" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("run_pulse.py", ["--d", "-1"], "d must be positive"),
        ("run_pulse.py", ["--beta", "1.5"], "beta must lie in (0, 1)"),
        ("run_pulse.py", ["--n", "8"], "n must be at least 16"),
        ("relax_perturbed_pulse.py", ["--n", "8"], "n must be at least 16"),
        ("relax_perturbed_pulse.py", ["--tau", "0"], "tau must be positive"),
        ("relax_perturbed_pulse.py", ["--x-max", "inf"], "x_max must be positive and finite"),
        ("relax_perturbed_pulse.py", ["--amplitude", "nan"], "--amplitude must be finite"),
        ("relax_perturbed_pulse.py", ["--amplitude", "inf"], "--amplitude must be finite"),
    ],
    ids=["run_negative_d", "run_beta_outside_window", "run_too_few_nodes",
         "relax_too_few_nodes", "relax_zero_tau", "relax_infinite_x_max",
         "relax_nan_amplitude", "relax_infinite_amplitude"],
)
def test_scripts_reject_bad_problem_before_solving(run_script, script, args, message):
    proc = run_script(script, *args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: {message}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["--snapshots", "0"], "--snapshots must be at least 1"),
        (["--snapshots", "-2"], "--snapshots must be at least 1"),
        (["--dt", "0"], "--dt must be positive and finite"),
        (["--dt", "-0.001"], "--dt must be positive and finite"),
        (["--dt", "nan"], "--dt must be positive and finite"),
        (["--t-final", "0"], "--t-final must be positive and finite"),
        (["--t-final", "inf"], "--t-final must be positive and finite"),
        (["--dt", "5e-324"], "--t-final / --dt must be finite"),
    ],
    ids=["no_snapshots", "negative_snapshots", "zero_dt", "negative_dt", "nan_dt",
         "zero_t_final", "inf_t_final", "overflowing_step_count"],
)
def test_relax_rejects_bad_time_controls_before_solving(run_script, args, message):
    proc = run_script("relax_perturbed_pulse.py", *args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: {message}" in proc.stderr
    # rejected before the pulse solve, which would print its "pulse:" line
    assert proc.stdout == ""
