"""End-to-end command-line interface tests: artifact layout, exit codes,
configuration merging, and byte-level determinism of the data files."""

import json
import os
import shutil

import numpy as np
import pytest

from fhn_pulse import analysis, cli
from fhn_pulse.cli import load_solve_run, main
from fhn_pulse.grid import Grid, Profile, profile_from_csv, profile_to_csv
from fhn_pulse.model import gamma1_via_potential
from fhn_pulse.operators import InhibitorError

SOLVE_ARGS = [
    "solve", "--beta", "0.4", "--gamma", "0.1", "--d", "1e-5",
    "--x-max", "12.0", "--n", "2048",
]


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    assert main(SOLVE_ARGS + ["--out", str(out)]) == 0
    return out


class TestSolve:
    def test_artifact_set(self, solve_run):
        names = {p.name for p in solve_run.iterdir()}
        assert names == {
            "u0.csv", "v0.csv", "solve_result.json", "energy.json", "manifest.json",
        }
        data = json.loads((solve_run / "solve_result.json").read_text())
        assert data["converged"] is True
        assert data["termination"] == "gtol"
        assert data["polish"] == "newton" and data["polish_steps"] > 0
        energy = json.loads((solve_run / "energy.json").read_text())
        assert energy["total"] == data["energy"]["total"]

    def test_manifest_records_config(self, solve_run):
        manifest = json.loads((solve_run / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["config"]["beta"] == 0.4
        assert manifest["config"]["n"] == 2048
        assert manifest["timing_seconds"] > 0.0

    def test_mirror_writes_reflections(self, tmp_path):
        out = tmp_path / "m"
        rc = main(
            SOLVE_ARGS[:1]
            + ["--beta", "0.4", "--gamma", "0.1", "--d", "1e-5", "--x-max", "12.0",
               "--n", "1024", "--gtol", "1e-6", "--mirror", "--out", str(out)]
        )
        assert rc in (0, 2)  # artifacts are written either way
        for name in ("u0_mirrored.csv", "v0_mirrored.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "x,value"
            assert len(lines) == 1 + (2 * 1024 + 1)
            assert lines[1].startswith("-12,")

    def test_max_iters_exhaustion_exits_2_but_writes(self, tmp_path):
        # the default start polishes straight to the pulse in one step; the
        # wide q0 start has active constraints, so no polish runs and one
        # descent step cannot converge
        out = tmp_path / "short"
        rc = main(SOLVE_ARGS + ["--a", "1.0", "--b", "1.8", "--max-iters", "1",
                                "--out", str(out)])
        assert rc == 2
        data = json.loads((out / "solve_result.json").read_text())
        assert data["converged"] is False
        assert data["termination"] == "max_iters"

    def test_solve_line_reports_polish(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert main(SOLVE_ARGS + ["--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("solve: converged=True ")
        assert line.endswith(f" active=0 polish=newton -> {out}")

    def test_constraint_pinned_state_exits_2(self, tmp_path, capsys):
        # a unit-scale q0 start is far wider than the ~0.028 head: the descent
        # stalls on the constraint bands, which is no standing pulse, whether
        # it stops by gtol or by line search
        out = tmp_path / "pinned"
        rc = main(SOLVE_ARGS + ["--a", "1.0", "--b", "1.8", "--out", str(out)])
        data = json.loads((out / "solve_result.json").read_text())
        assert data["active_constraint_count"] > 0
        assert rc == 2
        assert f"active={data['active_constraint_count']} " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [(["--beta", "1.5"], "beta must lie in (0, 1)"),
         (["--d", "-1"], "d must be positive"),
         (["--n", "8"], "n must be at least 16")],
        ids=["beta_outside_window", "negative_d", "too_few_nodes"],
    )
    def test_invalid_params_exit_1_without_files(self, tmp_path, capsys, flags, message):
        out = tmp_path / "never"
        rc = main(SOLVE_ARGS + flags + ["--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"fhn-pulse: error: {message}")

    @pytest.mark.parametrize(
        "flags",
        [["--gtol", "-1", "--max-iters", "300"], ["--gtol", "inf"],
         ["--max-iters", "-3"]],
        ids=["negative_gtol", "infinite_gtol", "negative_max_iters"],
    )
    def test_bad_stopping_controls_exit_1_without_files(self, tmp_path, capsys, flags):
        out = tmp_path / "never"
        rc = main(SOLVE_ARGS + flags + ["--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("fhn-pulse: error: ")
        assert "gtol" in err or "max_iters" in err

    def test_half_specified_init_rejected(self, tmp_path):
        out = tmp_path / "never2"
        rc = main(SOLVE_ARGS + ["--a", "1.0", "--out", str(out)])
        assert rc == 1
        assert not out.exists()


class TestConfigMerging:
    def test_missing_out_is_an_error(self, monkeypatch):
        monkeypatch.delenv("FHN_PULSE_OUTDIR", raising=False)
        assert main(SOLVE_ARGS) == 1

    def test_env_outdir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FHN_PULSE_OUTDIR", str(tmp_path / "env_out"))
        assert main(["constants", "--beta", "0.4", "--gamma", "0.3"]) == 0
        assert (tmp_path / "env_out" / "constants.json").exists()

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.4, "gamma": 0.3}))
        assert main(["constants", "--config", str(cfg), "--gamma", "0.1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["beta"] == 0.4
        assert data["gamma"] == 0.1

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.4, "gamma": 0.3, "betta": 1}))
        assert main(["constants", "--config", str(cfg)]) == 1

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["constants", "--config", str(cfg)]) == 1

    def test_missing_required_key_exits_1_without_files(self, tmp_path, capsys):
        out = tmp_path / "never"
        args = ["solve", "--gamma", "0.1", "--d", "1e-5", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == "fhn-pulse: error: missing required keys: beta\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not_json"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["constants", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fhn-pulse: error: cannot read config {cfg}: ")

    def test_usage_errors_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--beta", "not-a-number"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()


REQ = "required"

# the whole CLI surface: (subcommand, key, type, default or REQ)
SURFACE = {
    ("constants", "beta", float, REQ),
    ("constants", "gamma", float, REQ),
    ("constants", "out", str, None),
    ("constants", "seed", int, 0),
    ("solve", "beta", float, REQ),
    ("solve", "gamma", float, REQ),
    ("solve", "d", float, REQ),
    ("solve", "tau", float, 1.0),
    ("solve", "x_max", float, 20.0),
    ("solve", "n", int, 4096),
    ("solve", "a", float, None),
    ("solve", "b", float, None),
    ("solve", "gtol", float, 1e-8),
    ("solve", "max_iters", int, 50_000),
    ("solve", "mirror", bool, False),
    ("solve", "out", str, REQ),
    ("solve", "seed", int, 0),
    ("sweep-gamma1", "beta_min", float, REQ),
    ("sweep-gamma1", "beta_max", float, REQ),
    ("sweep-gamma1", "steps", int, REQ),
    ("sweep-gamma1", "out", str, REQ),
    ("sweep-gamma1", "seed", int, 0),
    ("verify", "beta", float, REQ),
    ("verify", "gamma", float, REQ),
    ("verify", "d", float, REQ),
    ("verify", "x_max", float, 30.0),
    ("verify", "n", int, 4096),
    ("verify", "samples", int, 100),
    ("verify", "tol", float, 1e-6),
    ("verify", "out", str, None),
    ("verify", "seed", int, 0),
    ("analyze", "run", str, REQ),
    ("analyze", "out", str, None),
    ("analyze", "seed", int, 0),
    ("evolve", "run", str, REQ),
    ("evolve", "dt", float, 1e-3),
    ("evolve", "t_final", float, 10.0),
    ("evolve", "snapshot_every", int, 0),
    ("evolve", "tau", float, None),
    ("evolve", "out", str, None),
    ("evolve", "seed", int, 0),
    ("decay-rate", "run", str, REQ),
    ("decay-rate", "amplitude", float, 0.01),
    ("decay-rate", "dt", float, 1e-3),
    ("decay-rate", "t_final", float, 10.0),
    ("decay-rate", "snapshot_every", int, 1000),
    ("decay-rate", "tau", float, None),
    ("decay-rate", "out", str, None),
    ("decay-rate", "seed", int, 0),
}


def _copy_run(run, dest) -> None:
    """Copy a solve run without the outputs other commands wrote into it."""
    ignore = shutil.ignore_patterns("analyze", "evolve", "decay-rate")
    shutil.copytree(run, dest, ignore=ignore)


def _flags(cfg: dict) -> list[str]:
    """The flags that say what a config file says."""
    args = []
    for key, val in cfg.items():
        flag = "--" + key.replace("_", "-")
        args += [flag] if val is True else [flag, str(val)]
    return args


def _outputs(out, stdout: str) -> dict:
    files = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    return {"stdout": stdout.replace(str(out), "<out>"), **files}


class TestSurface:
    def test_keys_defaults_and_required(self):
        actual = set()
        for command in cli.SUBCOMMANDS:
            for key, spec in cli.command_keys(command).items():
                default = REQ if spec.default is cli._REQUIRED else spec.default
                actual.add((command, key, spec.type, default))
        assert actual == SURFACE

    def test_every_key_is_a_flag(self):
        # each key parses from its flag, x_max from --x-max
        parser = cli.build_parser()
        for command, key, kind, _ in SURFACE:
            value = {float: "0.5", int: "3", str: "p"}.get(kind)
            flag = ["--" + key.replace("_", "-")] + ([value] if value else [])
            args = parser.parse_args([command, *flag])
            assert getattr(args, key) == (True if kind is bool else kind(value))


class TestConfigTyping:
    # one run per subcommand, int-valued float keys included
    CONFIGS = {
        "constants": {"beta": 0.4, "gamma": 1},
        "solve": {"beta": 0.4, "gamma": 0.1, "d": 1e-5, "x_max": 12, "n": 2048,
                  "tau": 1, "mirror": True},
        "sweep-gamma1": {"beta_min": 0.35, "beta_max": 0.45, "steps": 5},
        "verify": {"beta": 0.4, "gamma": 0.3, "d": 0.005, "x_max": 30, "n": 1024,
                   "samples": 3, "seed": 1},
        "analyze": {},
        "evolve": {"dt": 0.01, "t_final": 1, "snapshot_every": 50, "tau": 2},
        "decay-rate": {"amplitude": -0.02, "dt": 0.01, "t_final": 1,
                       "snapshot_every": 50, "tau": 2},
    }

    @pytest.mark.parametrize("command", list(CONFIGS))
    def test_config_file_run_matches_flag_run(
        self, command, solve_run, tmp_path, capsys
    ):
        cfg = dict(self.CONFIGS[command])
        if command in ("analyze", "evolve", "decay-rate"):
            cfg["run"] = str(solve_run)
        outputs, configs = [], []
        for side in ("flags", "config"):
            out = tmp_path / side
            run = {**cfg, "out": str(out)}
            if side == "flags":
                rc = main([command, *_flags(run)])
            else:
                path = tmp_path / f"{side}.json"
                path.write_text(json.dumps(run))
                rc = main([command, "--config", str(path)])
            assert rc == 0
            outputs.append(_outputs(out, capsys.readouterr().out))
            manifest = json.loads((out / "manifest.json").read_text())
            configs.append({k: v for k, v in manifest["config"].items() if k != "out"})
        assert outputs[0] == outputs[1]
        assert configs[0] == configs[1]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("gamma", True),
            ("n", True),
            ("n", 1024.0),
            ("n", "4096"),
            ("out", 5),
            ("n", None),
            ("beta", None),
            ("mirror", None),
            ("mirror", "no"),
        ],
        ids=["bool_for_float", "bool_for_int", "float_for_int", "str_for_int",
             "int_for_path", "null_int", "null_required", "null_bool", "str_for_bool"],
    )
    def test_wrong_typed_config_value_exits_1(
        self, key, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FHN_PULSE_OUTDIR", raising=False)
        run = {"beta": 0.4, "gamma": 0.1, "d": 1e-5, "x_max": 12.0, "n": 1024,
               "out": "never", key: value}
        (tmp_path / "cfg.json").write_text(json.dumps(run))
        assert main(["solve", "--config", "cfg.json"]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"fhn-pulse: error: config key {key} ")

    def test_null_accepted_where_default_is_none(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("FHN_PULSE_OUTDIR", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.4, "gamma": 0.3, "out": None}))
        assert main(["constants", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["gamma"] == 0.3


class TestSweep:
    def test_artifact_and_determinism(self, tmp_path):
        args = ["sweep-gamma1", "--beta-min", "0.35", "--beta-max", "0.45",
                "--steps", "5"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "gamma1_curve.csv").read_bytes()
        b = (tmp_path / "b" / "gamma1_curve.csv").read_bytes()
        assert a == b
        lines = a.decode().splitlines()
        assert lines[0] == "beta,gamma0,gamma1,gamma1_potential"
        assert len(lines) == 6

    def test_potential_column_cross_checks_gamma1(self, tmp_path):
        # gamma1 through gamma0 and the potential F, row by row
        args = ["sweep-gamma1", "--beta-min", "0.34", "--beta-max", "0.49",
                "--steps", "151", "--out", str(tmp_path)]
        assert main(args) == 0
        _, *rows = (tmp_path / "gamma1_curve.csv").read_text().splitlines()
        assert len(rows) == 151
        for row in rows:
            beta, _, direct, via_potential = map(float, row.split(","))
            assert via_potential == gamma1_via_potential(beta)
            assert abs(via_potential - direct) <= 1e-12

    @pytest.mark.parametrize(
        "beta_min, steps, message",
        [("0.2", "5", "beta range must lie strictly inside (1/3, 1/2)"),
         ("0.35", "1", "steps must be at least 2")],
        ids=["beta_min_below_window", "one_step"],
    )
    def test_bad_range_rejected(self, tmp_path, capsys, beta_min, steps, message):
        out = tmp_path / "x"
        rc = main(["sweep-gamma1", "--beta-min", beta_min, "--beta-max", "0.45",
                   "--steps", steps, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"fhn-pulse: error: {message}\n"


@pytest.mark.parametrize("command", ["constants", "verify"])
@pytest.mark.parametrize("gamma", ["1e-300", "1e-140", "1e-110", "1e-80"])
def test_underflowing_gamma_exits_1(tmp_path, capsys, command, gamma):
    # d0 underflows to 0 at all four, and M1 overflows at all but 1e-80;
    # (1 + 1/gamma)**2 overflows at 1e-300 and gamma**2.5 underflows to 0
    # at 1e-140, which used to end in a traceback, and 1e-110 and 1e-80
    # used to print M1 = Infinity and d0 = 0 and exit 0
    out = tmp_path / "never"
    args = ["--beta", "0.4", "--gamma", gamma, "--out", str(out)]
    if command == "verify":
        args += ["--d", "0.005", "--n", "256", "--samples", "2"]
    assert main([command, *args]) == 1
    assert not out.exists()
    assert capsys.readouterr() == ("", "fhn-pulse: error: constants require d0 > 0 "
                                   f"and a finite M1 in float64, got gamma = {gamma}\n")


class TestVerify:
    def test_report_written_and_passes(self, tmp_path, capsys):
        out = tmp_path / "ver"
        rc = main(["verify", "--beta", "0.4", "--gamma", "0.3", "--d", "0.005",
                   "--x-max", "30.0", "--n", "1024", "--samples", "5",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip().endswith("overall: pass")
        report = json.loads((out / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert report["n_samples"] == 5

    def test_stdout_only_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("FHN_PULSE_OUTDIR", raising=False)
        monkeypatch.chdir(tmp_path)
        rc = main(["verify", "--beta", "0.4", "--gamma", "0.3", "--d", "0.005",
                   "--x-max", "30.0", "--n", "1024", "--samples", "3"])
        assert rc == 0
        assert "overall: pass" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_unconverged_admissible_response_exits_2(self, tmp_path, monkeypatch, capsys):
        # an admissible sample's inhibitor solve short of tolerance is a
        # solver failure: exit 2 with a one-line message, no report
        def failing(*args, **kwargs):
            raise InhibitorError(
                "inhibitor solve failed: residual 1.000e+00 after 50 Newton steps"
            )

        monkeypatch.setattr(analysis, "solve_inhibitor", failing)
        out = tmp_path / "never"
        rc = main(["verify", "--beta", "0.4", "--gamma", "0.3", "--d", "0.005",
                   "--n", "256", "--samples", "2", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fhn-pulse: solver failure: inhibitor solve failed")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("samples", ["0", "1", "-2"])
    def test_too_few_samples_exit_1_without_files(self, tmp_path, capsys, samples):
        # the pair checks need two samples; fewer would report checks that
        # saw nothing
        out = tmp_path / "never"
        rc = main(["verify", "--beta", "0.4", "--gamma", "0.3", "--d", "0.005",
                   "--n", "256", "--samples", samples, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr() == ("", "fhn-pulse: error: samples must be at least 2\n")

    @pytest.fixture
    def forks(self, monkeypatch):
        """The children os.fork starts, with two CPUs usable."""
        forks, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return forks

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
            (["--x-max", "3.9"], "the inequality suite needs x_max >= 4, since its "
             "refinement ladder centres bumps in [1, x_max / 4], got x_max = 3.9"),
            (["--tol", "nan"], "tol must be finite and nonnegative, got nan"),
            (["--tol", "-1"], "tol must be finite and nonnegative, got -1.0"),
            (["--tol", "inf"], "tol must be finite and nonnegative, got inf"),
        ],
        ids=["negative_seed", "x_max_below_4", "nan_tol", "negative_tol", "infinite_tol"],
    )
    def test_bad_setting_exits_1_before_forking(
        self, tmp_path, capsys, forks, flags, message
    ):
        # checked before the suite forks, so one process reports it. An
        # empty ladder range [1, x_max / 4] used to fail only after every
        # sample was solved, and a tol that is not finite and nonnegative
        # failed every check held to it, a FAIL verdict
        out = tmp_path / "never"
        rc = main(["verify", "--beta", "0.4", "--gamma", "0.3", "--d", "0.005",
                   "--n", "256", "--samples", "4", *flags, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr() == ("", f"fhn-pulse: error: {message}\n")
        assert forks == []

    @pytest.mark.parametrize("n", ["16", "29"])
    def test_too_few_nodes_exit_1_without_files(self, tmp_path, capsys, n):
        # the admissible samples draw their crossing indices from ranges
        # that are empty below 30 nodes
        out = tmp_path / "never"
        rc = main(["verify", "--beta", "0.4", "--gamma", "0.3", "--d", "0.005",
                   "--n", n, "--samples", "2", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr() == (
            "", f"fhn-pulse: error: the inequality suite needs n >= 30, got n = {n}\n"
        )

    def test_thirty_nodes_run(self, tmp_path):
        # the smallest grid on which every draw is valid: the suite runs and
        # writes its report (exit 3 here, from the on-grid competitor, which
        # h = 1 does not resolve)
        out = tmp_path / "v"
        rc = main(["verify", "--beta", "0.4", "--gamma", "0.3", "--d", "0.005",
                   "--n", "30", "--samples", "2", "--out", str(out)])
        assert rc in (0, 3)
        report = json.loads((out / "verify_report.json").read_text())
        assert report["n_samples"] == 2


class TestAnalyze:
    def test_report_into_run_dir(self, solve_run):
        # the report and its manifest go to R/analyze; the solve's
        # manifest stays
        assert main(["analyze", "--run", str(solve_run)]) == 0
        for out, command in ((solve_run, "solve"), (solve_run / "analyze", "analyze")):
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["command"] == command
        report = json.loads((solve_run / "analyze" / "analyze_report.json").read_text())
        assert report["properties"]["all_passed"] is True
        assert report["linearization"]["real_eigenvalues"] is True
        assert 0.0 < report["hamiltonian_residual_max"] < 1e-2

    def test_out_redirects_report(self, solve_run, tmp_path):
        out = tmp_path / "an"
        assert main(["analyze", "--run", str(solve_run), "--out", str(out)]) == 0
        assert (out / "analyze_report.json").exists()

    def test_corrupted_grid_metadata_exits_1(self, solve_run, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(solve_run, broken)
        meta = json.loads((broken / "solve_result.json").read_text())
        meta["grid"]["n"] = 4096
        (broken / "solve_result.json").write_text(json.dumps(meta))
        assert main(["analyze", "--run", str(broken)]) == 1

    @pytest.mark.parametrize(
        "moved, message",
        [(1e-3, "non-uniform x column in"), (None, "malformed profile CSV")],
        ids=["non_uniform_x", "too_few_rows"],
    )
    def test_bad_profile_csv_exits_1(self, solve_run, tmp_path, capsys, moved, message):
        broken = tmp_path / "broken"
        _copy_run(solve_run, broken)
        lines = (broken / "u0.csv").read_text().splitlines()
        if moved is None:
            lines = lines[:3]  # the header and two nodes
        else:
            x, value = lines[5].split(",")
            lines[5] = f"{float(x) + moved!r},{value}"
        (broken / "u0.csv").write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--run", str(broken), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fhn-pulse: error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_pinned_run_exits_2(self, tmp_path, capsys):
        # complex far-field eigenvalues and a state pinned all the way out
        # (the zero crossing lands so close to x_max that no tail is left):
        # a converged run with active constraints is no pulse to analyze;
        # decay-rate refuses it with the same line and writes nothing either
        run = tmp_path / "pinned"
        args = ["--beta", "0.4", "--gamma", "0.1", "--d", "1.0", "--x-max", "20"]
        assert main(["solve", *args, "--n", "256", "--out", str(run)]) == 2
        data = json.loads((run / "solve_result.json").read_text())
        assert data["converged"] and data["active_constraint_count"] > 0
        files = sorted(run.iterdir())
        capsys.readouterr()
        assert main(["analyze", "--run", str(run)]) == 2
        err = capsys.readouterr().err
        assert "no standing pulse" in err
        assert f"active={data['active_constraint_count']}" in err
        assert main(["decay-rate", "--run", str(run)]) == 2
        assert capsys.readouterr() == ("", err.replace("analyze: ", "decay-rate: ", 1))
        assert sorted(run.iterdir()) == files

    def test_saddle_run_exits_2(self, solve_run, tmp_path, capsys):
        # a run whose descent stopped on an odd-index saddle is no pulse
        run = tmp_path / "saddle"
        _copy_run(solve_run, run)
        meta = json.loads((run / "solve_result.json").read_text())
        meta["polish"] = "saddle"
        (run / "solve_result.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["analyze", "--run", str(run)]) == 2
        assert "polish=saddle" in capsys.readouterr().err
        assert not (run / "analyze").exists()


class TestLoadSolveRun:
    def test_load_round_trip(self, solve_run, tmp_path):
        result = load_solve_run(solve_run)
        stored = json.loads((solve_run / "solve_result.json").read_text())
        assert result.to_dict() == stored
        for name, prof in (("u0", result.u0), ("v0", result.v0)):
            stored_csv = solve_run / f"{name}.csv"
            assert np.array_equal(prof.values, profile_from_csv(stored_csv).values)
            profile_to_csv(prof, tmp_path / f"{name}.csv")
            assert (tmp_path / f"{name}.csv").read_bytes() == stored_csv.read_bytes()

    def test_run_without_polish_keys_loads(self, solve_run, tmp_path):
        # runs written before the Newton polish existed lack both keys
        old = tmp_path / "old"
        shutil.copytree(solve_run, old)
        meta = json.loads((old / "solve_result.json").read_text())
        assert meta.pop("polish") == "newton"
        meta.pop("polish_steps")
        (old / "solve_result.json").write_text(json.dumps(meta))
        result = load_solve_run(old)
        assert result.polish == "skipped" and result.polish_steps == 0
        assert main(["analyze", "--run", str(old), "--out", str(tmp_path / "a")]) == 0

    @pytest.mark.parametrize("command", ["analyze", "evolve", "decay-rate"])
    def test_missing_run_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--run", str(tmp_path / "nope"), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("fhn-pulse: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "evolve", "decay-rate"])
    def test_v0_on_other_grid_exits_1(self, solve_run, tmp_path, capsys, command):
        broken = tmp_path / "broken"
        _copy_run(solve_run, broken)
        profile_to_csv(Profile(Grid(12.0, 1024), np.zeros(1025)), broken / "v0.csv")
        args = [command, "--run", str(broken), "--out", str(tmp_path / "out")]
        assert main(args) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err == "fhn-pulse: error: stored profiles disagree with the recorded grid\n"

    @pytest.mark.parametrize("command", ["analyze", "evolve", "decay-rate"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.pop("i1"),
            lambda m: m["energy"].pop("total"),
            lambda m: m.update(extra=1),
        ],
        ids=["missing_key", "missing_nested_key", "unknown_key"],
    )
    def test_malformed_result_exits_1(self, solve_run, tmp_path, capsys, command, edit):
        broken = tmp_path / "broken"
        shutil.copytree(solve_run, broken)
        meta = json.loads((broken / "solve_result.json").read_text())
        edit(meta)
        (broken / "solve_result.json").write_text(json.dumps(meta))
        args = [command, "--run", str(broken), "--out", str(tmp_path / "out")]
        assert main(args) == 1
        assert "malformed" in capsys.readouterr().err


class TestEvolve:
    def test_default_out_inside_run(self, solve_run):
        rc = main(["evolve", "--run", str(solve_run), "--dt", "1e-2",
                   "--t-final", "0.1"])
        assert rc == 0
        index = json.loads((solve_run / "evolve" / "trajectory.json").read_text())
        assert index["n_steps"] == 10
        assert index["u_drift"] < 1e-5

    def test_custom_out_and_tau_override(self, solve_run, tmp_path):
        out = tmp_path / "tr"
        rc = main(["evolve", "--run", str(solve_run), "--dt", "1e-2",
                   "--t-final", "0.1", "--tau", "2.0", "--out", str(out)])
        assert rc == 0
        index = json.loads((out / "trajectory.json").read_text())
        assert index["tau"] == 2.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evolve"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--t-final", "inf", "t_final must be positive and finite, got inf"),
            ("--dt", "nan", "dt must be positive and finite, got nan"),
            ("--snapshot-every", "-3", "snapshot_every must be nonnegative, got -3"),
        ],
    )
    def test_bad_time_controls_exit_1_without_files(
        self, solve_run, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "never"
        rc = main(["evolve", "--run", str(solve_run), "--t-final", "0.1",
                   flag, value, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr() == ("", f"fhn-pulse: error: {message}\n")

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
    @pytest.mark.parametrize("command", ["evolve", "decay-rate"])
    def test_blow_up_exits_2_without_manifest(
        self, solve_run, tmp_path, capsys, command, sign
    ):
        # an activator at +-100 leaves the a-priori bound in the first step,
        # which evolve checks on its own; the run is longer than one check
        # window, and the message is the per-step check's, to the byte
        run = tmp_path / "big"
        _copy_run(solve_run, run)
        grid = load_solve_run(solve_run).grid
        profile_to_csv(Profile(grid, np.full(grid.n + 1, sign * 100.0)), run / "u0.csv")
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main([command, "--run", str(run), "--dt", "1e-2", "--t-final", "2",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"{command}: state norm exceeded 37.9 at "
                                       "t = 0.01; the trajectory is blowing up\n")
        assert not out.exists()

    def test_runs_wherever_solve_finds_a_pulse(self, tmp_path):
        # beta = 0.3 lies outside the window (1/3, 1/2) of the paper's
        # constants, but solve finds a pulse there, which analyze accepts
        run = tmp_path / "beta03"
        args = ["solve", "--beta", "0.3", "--gamma", "0.1", "--d", "1e-5",
                "--x-max", "12", "--n", "1024", "--out", str(run)]
        assert main(args) == 0
        assert main(["analyze", "--run", str(run)]) == 0
        rc = main(["evolve", "--run", str(run), "--dt", "1e-2", "--t-final", "0.1"])
        assert rc == 0
        index = json.loads((run / "evolve" / "trajectory.json").read_text())
        assert index["beta"] == 0.3 and index["n_steps"] == 10

    def test_rerun_byte_identical(self, solve_run, tmp_path):
        args = ["evolve", "--run", str(solve_run), "--dt", "1e-2",
                "--t-final", "0.2", "--snapshot-every", "5"]
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(args + ["--out", str(out)]) == 0
        names = [
            sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            for out in runs
        ]
        assert names[0] == names[1]
        assert len(names[0]) == 11  # trajectory.json and 5 snapshot pairs
        for name in names[0]:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


class TestDecayRate:
    ARGS = ["--dt", "0.01", "--t-final", "0.1", "--snapshot-every", "5"]

    @pytest.mark.parametrize("tau_args, tau", [([], "1"), (["--tau", "2"], "2")])
    def test_distance_table_and_csv(self, solve_run, tmp_path, capsys, tau_args, tau):
        out = tmp_path / "decay"
        args = ["decay-rate", "--run", str(solve_run), *self.ARGS, *tau_args]
        assert main(args + ["--out", str(out)]) == 0
        pulse, initial, *table = capsys.readouterr().out.splitlines()
        assert pulse.startswith("pulse: J=") and pulse.endswith(f" tau={tau}")
        # snapshots at t = 0, every 5 of the 10 steps and at the end, the
        # table's distances at full precision in decay.csv
        header, *rows = (out / "decay.csv").read_text().splitlines()
        assert header == "t,u_distance" and len(rows) == len(table) == 3
        d0 = float(rows[0].split(",")[1])
        assert initial == f"initial |u - pulse|_inf = {d0:.3e}"
        for line, row in zip(table, rows):
            t, dist = map(float, row.split(","))
            ratio = f"({dist / d0:.4f} of initial)"
            assert line == f"t={t:7.3f}  |u - pulse|_inf = {dist:.6e}  {ratio}"
        assert table[0].endswith("(1.0000 of initial)")
        assert json.loads((out / "manifest.json").read_text())["command"] == "decay-rate"
        assert sorted(p.name for p in out.iterdir()) == ["decay.csv", "manifest.json"]

    def test_default_out_inside_run_and_rerun_byte_identical(self, solve_run, tmp_path):
        args = ["decay-rate", "--run", str(solve_run), *self.ARGS]
        assert main(args) == 0
        assert main(args + ["--out", str(tmp_path / "again")]) == 0
        first = (solve_run / "decay-rate" / "decay.csv").read_bytes()
        assert first == (tmp_path / "again" / "decay.csv").read_bytes()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--snapshot-every", "-2"], "snapshot_every must be nonnegative, got -2"),
            (["--dt", "0"], "dt must be positive and finite, got 0.0"),
            (["--dt", "-0.001"], "dt must be positive and finite, got -0.001"),
            (["--dt", "nan"], "dt must be positive and finite, got nan"),
            (["--t-final", "0"], "t_final must be positive and finite, got 0.0"),
            (["--t-final", "inf"], "t_final must be positive and finite, got inf"),
            (["--dt", "5e-324"], "t_final / dt must be finite, got 10.0 / 5e-324"),
            (["--amplitude", "nan"], "amplitude must be finite and nonzero, got nan"),
            (["--amplitude", "inf"], "amplitude must be finite and nonzero, got inf"),
            (["--amplitude", "0"], "amplitude must be finite and nonzero, got 0.0"),
            (["--tau", "0"], "tau must be positive, got 0.0"),
        ],
        ids=["negative_snapshot_every", "zero_dt", "negative_dt", "nan_dt",
             "zero_t_final", "inf_t_final", "overflowing_step_count", "nan_amplitude",
             "infinite_amplitude", "zero_amplitude", "zero_tau"],
    )
    def test_bad_controls_exit_1_without_files(
        self, solve_run, tmp_path, capsys, args, message
    ):
        out = tmp_path / "never"
        rc = main(["decay-rate", "--run", str(solve_run), *args, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr() == ("", f"fhn-pulse: error: {message}\n")
