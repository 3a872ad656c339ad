"""The example scripts agree with the CLI on what counts as a standing
pulse: converged and no active constraint at the end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# past the fold: the descent meets gtol on a state pinned by its bands
PINNED_ARGS = ["--d", "0.005", "--x-max", "20", "--n", "1024"]


@pytest.mark.parametrize("script", ["run_pulse.py", "relax_perturbed_pulse.py"])
def test_constraint_pinned_state_exits_2(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *PINNED_ARGS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "active=" in proc.stdout
