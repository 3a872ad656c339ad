"""The example scripts agree with the CLI on what counts as a standing
pulse (converged and no active constraint at the end) and on the beta
window of the gamma1 sweep."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# past the fold: the descent meets gtol on a state pinned by its bands
PINNED_ARGS = ["--d", "0.005", "--x-max", "20", "--n", "1024"]


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("script", ["run_pulse.py", "relax_perturbed_pulse.py"])
def test_constraint_pinned_state_exits_2(script):
    proc = run_script(script, *PINNED_ARGS)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "active=" in proc.stdout


def test_run_pulse_reports_polish():
    proc = run_script("run_pulse.py", "--n", "2048")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0].endswith(" polish=newton")


@pytest.mark.parametrize(
    "args",
    [["--beta-min", "0.2"], ["--steps", "0"]],
    ids=["beta_min_below_window", "no_steps"],
)
def test_sweep_gamma1_rejects_bad_arguments(tmp_path, args):
    out = tmp_path / "sweep.csv"
    proc = run_script("sweep_gamma1.py", *args, "--out", str(out))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    assert not out.exists()


def test_run_pulse_rejects_bad_stopping_controls():
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
def test_scripts_reject_bad_problem_before_solving(script, args, message):
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
def test_relax_rejects_bad_time_controls_before_solving(args, message):
    proc = run_script("relax_perturbed_pulse.py", *args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: {message}" in proc.stderr
    # rejected before the pulse solve, which would print its "pulse:" line
    assert proc.stdout == ""
