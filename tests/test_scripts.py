"""The relaxation script works from a stored `fhn-pulse solve` run. Like
`fhn-pulse analyze` it refuses a run that is no standing pulse (exit 2),
and like the CLI it exits 1 on a usage error or an unreadable run.

Most runs execute the script in this process, as `python script.py` would
(runpy with the script's argv), and read its exit code from the SystemExit
it raises. One run launches the interpreter, the smoke test of the script
as an entry point."""

import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from fhn_pulse.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "relax_perturbed_pulse.py"

PROBLEM = ["--beta", "0.4", "--gamma", "0.1"]
PULSE_ARGS = [*PROBLEM, "--d", "1e-5", "--x-max", "12", "--n", "1024"]
# past the fold: the descent meets gtol on a state pinned by its bands
PINNED_ARGS = [*PROBLEM, "--d", "0.005", "--x-max", "20", "--n", "1024"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A pulse run and a constraint-pinned run, both written by solve."""
    root = tmp_path_factory.mktemp("relax")
    assert main(["solve", *PULSE_ARGS, "--out", str(root / "pulse")]) == 0
    assert main(["solve", *PINNED_ARGS, "--out", str(root / "pinned")]) == 2
    return root


@pytest.fixture
def run_script(monkeypatch, capsys):
    """run(*args, launch=False): the script's exit code and output, from a
    run in this process or, with launch, in a fresh interpreter."""

    def run(*args: str, launch: bool = False) -> subprocess.CompletedProcess:
        if launch:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
            )
            return subprocess.run(
                [sys.executable, str(SCRIPT), *args],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
        monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(SCRIPT), run_name="__main__")
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(sys.argv, exit_info.value.code, out, err)

    return run


def test_launched_solver_flag_is_a_usage_error(run_script, runs):
    # the script no longer solves, so a problem flag is unknown to it
    proc = run_script("--run", str(runs / "pulse"), "--beta", "0.4", launch=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: unrecognized arguments: --beta 0.4" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("tau_args, tau", [([], "1"), (["--tau", "2"], "2")])
def test_distance_table(run_script, runs, tau_args, tau):
    proc = run_script(
        "--run", str(runs / "pulse"), "--dt", "0.01", "--t-final", "0.1",
        "--snapshots", "2", *tau_args,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    pulse, initial, *table = proc.stdout.splitlines()
    assert pulse.startswith("pulse: J=") and pulse.endswith(f" tau={tau}")
    assert initial.startswith("initial |u - pulse|_inf = ")
    # snapshots at t = 0, every 5 of the 10 steps and at the end
    assert [line.split()[0] for line in table] == ["t=", "t=", "t="]
    assert table[0].endswith("(1.0000 of initial)")


def test_constraint_pinned_run_exits_2(run_script, runs):
    proc = run_script("--run", str(runs / "pinned"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "no standing pulse" in proc.stderr and "active=" in proc.stderr
    assert proc.stdout == ""


def test_missing_run_exits_1(run_script, tmp_path):
    proc = run_script("--run", str(tmp_path / "nope"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr
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
        (["--amplitude", "nan"], "--amplitude must be finite and nonzero"),
        (["--amplitude", "inf"], "--amplitude must be finite and nonzero"),
        (["--amplitude", "0"], "--amplitude must be finite and nonzero"),
        (["--tau", "0"], "tau must be positive"),
    ],
    ids=["no_snapshots", "negative_snapshots", "zero_dt", "negative_dt", "nan_dt",
         "zero_t_final", "inf_t_final", "overflowing_step_count", "nan_amplitude",
         "infinite_amplitude", "zero_amplitude", "zero_tau"],
)
def test_bad_controls_exit_1(run_script, runs, args, message):
    proc = run_script("--run", str(runs / "pulse"), *args)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: {message}" in proc.stderr
    # rejected before the pulse line is printed
    assert proc.stdout == ""
