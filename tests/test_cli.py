"""End-to-end command-line behavior and the exit-status contract."""

import math
import os
import shutil
import subprocess
import sys

import pytest

from semolab.cli import _load_resolved_config, main
from semolab.experiments import (load_results, run_grid,
                                 write_trajectories_csv)


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_basic_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = run_cli("run", "--benchmark", "cocz", "--n", "16",
                       "--alg", "gsemo", "--trials", "5", "--seed", "7",
                       "--out", str(out))
        assert code == 0
        trials = (out / "trials.csv").read_text().splitlines()
        assert trials[0] == ("benchmark,n,k,algorithm,variant,seed,"
                             "runtime_evals,runtime_iters,censored")
        assert len(trials) == 6
        assert (out / "trajectories.csv").exists()
        assert (out / "resolved-config.txt").exists()
        assert "5 trials" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        args = ("run", "--benchmark", "omm", "--n", "8", "--alg", "semo",
                "--trials", "4", "--seed", "3")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "trajectories.csv").read_bytes() \
            == (b / "trajectories.csv").read_bytes()

    def test_odd_cocz_size_rejected(self, tmp_path, capsys):
        code = run_cli("run", "--benchmark", "cocz", "--n", "31",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# smoke config\nbenchmark=omm\nn=8,10\nalg=gsemo\n"
                       "trials=2\nseed=5\nout=unused\n")
        out = tmp_path / "run"
        code = run_cli("run", "--config", str(cfg), "--trials", "3",
                       "--out", str(out))
        assert code == 0
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2  # flag override wins over file
        resolved = (out / "resolved-config.txt").read_text()
        assert "trials=3" in resolved and "benchmark=omm" in resolved

    def test_config_file_errors_are_line_precise(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("benchmark=omm\nnot a pair\n")
        code = run_cli("run", "--config", str(cfg), "--out",
                       str(tmp_path / "x"))
        assert code == 2
        assert "bad.cfg:2" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("benchmark=omm\nn=8\npopulation=9\n")
        code = run_cli("run", "--config", str(cfg), "--out",
                       str(tmp_path / "x"))
        assert code == 2
        assert "population" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["trials", "seed", "max_iters", "jobs"])
    def test_config_integer_error_names_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"benchmark=omm\nn=8\n{key}=abc\n")
        code = run_cli("run", "--config", str(cfg), "--out",
                       str(tmp_path / "x"))
        assert code == 2
        assert (f"error: {key} must be an integer, got 'abc'"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_missing_required_settings(self, tmp_path, capsys):
        assert run_cli("run", "--out", str(tmp_path / "x")) == 2
        assert "benchmark" in capsys.readouterr().err

    def test_unwritable_output_dir(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("occupied")
        code = run_cli("run", "--benchmark", "omm", "--n", "8",
                       "--out", str(target))
        assert code == 2

    def test_jobs_flag_preserves_outputs(self, tmp_path):
        args = ("run", "--benchmark", "cocz", "--n", "8", "--trials", "4",
                "--seed", "2")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--jobs", "1", "--out", str(a)) == 0
        assert run_cli(*args, "--jobs", "2", "--out", str(b)) == 0
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()

    def test_replay_resolved_config(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--benchmark", "cocz", "--n", "8", "--n", "10",
                       "--variant", "modified", "--trials", "3", "--seed", "6",
                       "--checkpoint", "border:n2_log:0.001",
                       "--checkpoint", "spread:n2:0.5", "--out", str(a)) == 0
        assert run_cli("run", "--config", str(a / "resolved-config.txt"),
                       "--out", str(b)) == 0
        for name in ("trials.csv", "trajectories.csv", "resolved-config.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("checkpoint", ["a;b:n2:1", ":n2:1"])
    def test_checkpoint_names_that_do_not_round_trip(self, tmp_path, capsys,
                                                     checkpoint):
        base = ("run", "--benchmark", "omm", "--n", "8", "--trials", "1")
        assert run_cli(*base, "--checkpoint", checkpoint,
                       "--out", str(tmp_path / "flag")) == 2
        assert repr(checkpoint) in capsys.readouterr().err
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"checkpoint={checkpoint}\n")
        assert run_cli(*base, "--config", str(cfg),
                       "--out", str(tmp_path / "file")) == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()
        assert not (tmp_path / "file").exists()

    def test_negative_cutoff_rejected(self, tmp_path, capsys):
        base = ("run", "--benchmark", "omm", "--n", "8", "--trials", "2")
        assert run_cli(*base, "--max-iters", "-5",
                       "--out", str(tmp_path / "flag")) == 2
        assert "cutoff must be >= 0, got -5" in capsys.readouterr().err
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("max_iters=-5\n")
        assert run_cli(*base, "--config", str(cfg),
                       "--out", str(tmp_path / "file")) == 2
        assert "cutoff must be >= 0, got -5" in capsys.readouterr().err
        zero = tmp_path / "zero"
        assert run_cli(*base, "--max-iters", "0", "--out", str(zero)) == 0
        assert "max_iters=0\n" in (zero / "resolved-config.txt").read_text()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        base = ("run", "--benchmark", "omm", "--n", "8", "--trials", "2")
        assert run_cli(*base, "--jobs", jobs,
                       "--out", str(tmp_path / "flag")) == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"jobs={jobs}\n")
        assert run_cli(*base, "--config", str(cfg),
                       "--out", str(tmp_path / "file")) == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()
        assert not (tmp_path / "file").exists()

    def test_repeated_gap_size_rejected(self, tmp_path, capsys):
        base = ("run", "--benchmark", "ojzj", "--n", "10", "--trials", "2")
        assert run_cli(*base, "--k", "2", "--k", "2",
                       "--out", str(tmp_path / "flag")) == 2
        assert "gap sizes must be distinct, got k=2,2" in \
            capsys.readouterr().err
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k=2,2\n")
        assert run_cli(*base, "--config", str(cfg),
                       "--out", str(tmp_path / "file")) == 2
        assert "gap sizes must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()
        assert not (tmp_path / "file").exists()

    def test_interior_init_flag(self, tmp_path, capsys):
        code = run_cli("run", "--benchmark", "ojzj", "--n", "10", "--k", "2",
                       "--trials", "2", "--interior-init", "on",
                       "--max-iters", "500", "--out", str(tmp_path / "o"))
        assert code == 0
        code = run_cli("run", "--benchmark", "cocz", "--n", "8",
                       "--interior-init", "on", "--out", str(tmp_path / "c"))
        assert code == 2
        assert "ojzj" in capsys.readouterr().err


class TestOracle:
    def test_cocz_match(self, capsys):
        assert run_cli("oracle", "--benchmark", "cocz", "--n", "8") == 0
        out = capsys.readouterr().out
        assert "MATCH" in out and "5 points" in out

    def test_omm_match(self, capsys):
        assert run_cli("oracle", "--benchmark", "omm", "--n", "12") == 0
        assert "13 points" in capsys.readouterr().out

    def test_ojzj_match(self, capsys):
        assert run_cli("oracle", "--benchmark", "ojzj", "--n", "10",
                       "--k", "2") == 0
        assert "MATCH" in capsys.readouterr().out

    def test_oversized_refused(self, capsys):
        assert run_cli("oracle", "--benchmark", "omm", "--n", "24") == 2
        assert "refuses" in capsys.readouterr().err


class TestReport:
    def make_run(self, tmp_path, *extra):
        out = tmp_path / "run"
        code = run_cli("run", "--benchmark", "cocz", "--n", "16",
                       "--alg", "gsemo", "--variant", "modified",
                       "--trials", "4", "--seed", "1",
                       "--checkpoint", "border:n2_log:0.001",
                       "--out", str(out), *extra)
        assert code == 0
        return out

    def test_modified_run_auto_suites(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        code = run_cli("report", "--out", str(out))
        assert code in (0, 1)  # verdicts are data-dependent at this tiny size
        assert (out / "report.csv").exists()
        assert (out / "summary.txt").exists()
        text = capsys.readouterr().out
        assert "front_spread" in text and "border_distance" in text

    def test_report_without_run_is_diagnosed(self, tmp_path, capsys):
        code = run_cli("report", "--out", str(tmp_path / "nothing"))
        assert code == 2
        assert "resolved-config" in capsys.readouterr().err

    def test_missing_trials_file_diagnosed(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        os.remove(out / "trials.csv")
        code = run_cli("report", "--out", str(out))
        assert code == 2
        assert "trials.csv" in capsys.readouterr().err

    def test_empty_trials_file_diagnosed(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        header = (out / "trials.csv").read_text().splitlines()[0]
        (out / "trials.csv").write_text(header + "\n")
        code = run_cli("report", "--out", str(out))
        assert code == 2
        assert "no data" in capsys.readouterr().err

    def test_short_trials_row_diagnosed(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        with open(out / "trials.csv", "a") as fh:
            fh.write("omm,8,,gsemo,original,5\n")
        assert run_cli("report", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "trials.csv:6: expected 9 fields, got 6" in err

    def test_truncated_trajectories_diagnosed(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        header, *rows = (out / "trajectories.csv").read_bytes().split(b"\r\n")
        # cut after whole rows (the last row and the final line break go) or
        # before them (the first row, t=0 of the first trial, goes)
        for cut, why in ((rows[:-2] + [b""], "but the trial ran to t="),
                         (rows[1:], "not at t=0")):
            (out / "trajectories.csv").write_bytes(b"\r\n".join([header,
                                                                 *cut]))
            assert run_cli("report", "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert "trajectories.csv: the rows of trial 'cocz-n16-" in err
            assert why in err and "the file is truncated" in err

    def test_bad_censored_flag_diagnosed(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        text = (out / "trials.csv").read_text()
        (out / "trials.csv").write_text(text.replace(",0\n", ",7\n", 1))
        assert run_cli("report", "--out", str(out)) == 2
        assert ("trials.csv:2: censored must be 0 or 1, got '7'"
                in capsys.readouterr().err)

    def test_impossible_runtimes_diagnosed(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        header, row, *rest = (out / "trials.csv").read_text().splitlines(
            keepends=True)
        fields = row.split(",")
        fields[6] = "-3"
        (out / "trials.csv").write_text("".join([header, ",".join(fields),
                                                 *rest]))
        assert run_cli("report", "--out", str(out)) == 2
        assert ("trials.csv:2: impossible runtimes: runtime_evals=-3"
                in capsys.readouterr().err)

    def semo_ojzj_run(self, tmp_path, interior):
        out = tmp_path / f"semo-{interior}"
        code = run_cli("run", "--benchmark", "ojzj", "--n", "10", "--k", "2",
                       "--alg", "semo", "--trials", "3", "--seed", "2",
                       "--interior-init", interior, "--max-iters", "400",
                       "--out", str(out))
        assert code == 0
        return out

    def test_semo_failure_reads_interior_flag_from_config(self, tmp_path,
                                                          capsys):
        out = self.semo_ojzj_run(tmp_path, "on")
        capsys.readouterr()
        assert run_cli("report", "--out", str(out)) == 0  # auto suite
        text = capsys.readouterr().out
        assert "[PASS] semo_ojzj_failure" in text
        assert "interior flag unknown" not in text

    def test_semo_failure_without_interior_start_rejected(self, tmp_path,
                                                          capsys):
        out = self.semo_ojzj_run(tmp_path, "off")
        code = run_cli("report", "--out", str(out), "--suite", "semo-failure")
        assert code == 2
        assert "interior" in capsys.readouterr().err

    def test_loads_resolved_config_of_earlier_version(self, tmp_path, capsys):
        """``data/earlier-run`` holds a run (with a checkpoint and the default
        cutoff) written by an earlier version of the CLI, with its report
        summary. Its report and its replay stay byte-identical."""
        fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "data", "earlier-run")
        out = tmp_path / "old"
        shutil.copytree(fixture, out)
        (out / "summary.txt").unlink()
        assert run_cli("report", "--out", str(out)) == 1
        expected = open(os.path.join(fixture, "summary.txt")).read()
        assert (out / "summary.txt").read_text() == expected
        assert "config f554082203b842f2" in expected
        replay = tmp_path / "replay"
        assert run_cli("run", "--config", str(out / "resolved-config.txt"),
                       "--out", str(replay)) == 0
        for name in ("resolved-config.txt", "trials.csv", "trajectories.csv"):
            with open(os.path.join(fixture, name), "rb") as fh:
                assert (replay / name).read_bytes() == fh.read(), name

    def test_report_bytes_over_all_six_suites(self, tmp_path):
        """``data/six-suites`` holds the ``report.csv`` and ``summary.txt``
        of two small runs: an omm grid under the four data suites that take
        it plus the equivalence suite, and a frozen SEMO ojzj run under its
        auto suite (semo-failure). Both reports stay byte-identical."""
        fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "data", "six-suites")
        runs = {
            "omm": (["--benchmark", "omm", "--n", "8", "--n", "12",
                     "--n", "16", "--trials", "6", "--seed", "5"],
                    ["--suite", "front-spread", "--suite", "border-distance",
                     "--suite", "lower-bound", "--suite", "scaling",
                     "--suite", "equivalence", "--equiv-n", "8",
                     "--equiv-steps", "12", "--equiv-trials", "300"], 1),
            "ojzj": (["--benchmark", "ojzj", "--k", "2", "--n", "10",
                      "--alg", "semo", "--interior-init", "on",
                      "--max-iters", "2000", "--trials", "3", "--seed", "5"],
                     [], 0),
        }
        for name, (run_args, report_args, code) in runs.items():
            out = tmp_path / name
            assert run_cli("run", *run_args, "--out", str(out)) == 0
            assert run_cli("report", "--out", str(out), *report_args) == code
            for file in ("report.csv", "summary.txt"):
                with open(os.path.join(fixture, name, file), "rb") as fh:
                    assert (out / file).read_bytes() == fh.read(), (name, file)

    def test_period_two_ojzj_run_replays_and_round_trips(self, tmp_path):
        """``data/ojzj-period2`` holds an ojzj run with trajectories written
        by an earlier version of the CLI. Its sampling period is 2, so most
        rows repeat the fields of the row before them: the CSV writer and
        loader reuse those fields, and the replay and a load-and-rewrite
        must both give the same bytes."""
        fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "data", "ojzj-period2")
        replay = tmp_path / "replay"
        assert run_cli("run", "--config",
                       os.path.join(fixture, "resolved-config.txt"),
                       "--out", str(replay)) == 0
        for name in ("resolved-config.txt", "trials.csv", "trajectories.csv"):
            with open(os.path.join(fixture, name), "rb") as fh:
                assert (replay / name).read_bytes() == fh.read(), name
        loaded = load_results(os.path.join(fixture, "trials.csv"),
                              os.path.join(fixture, "trajectories.csv"))
        assert [r.trajectory for r in loaded] == \
            [r.trajectory for r in run_grid(_load_resolved_config(fixture))]
        rewritten = tmp_path / "trajectories.csv"
        write_trajectories_csv(loaded, rewritten)
        assert rewritten.read_bytes() == \
            (replay / "trajectories.csv").read_bytes()

    def test_equivalence_suite_and_negative_control(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        code = run_cli("report", "--out", str(out), "--suite", "equivalence",
                       "--equiv-n", "6", "--equiv-steps", "10",
                       "--equiv-trials", "800")
        assert code == 0
        code = run_cli("report", "--out", str(out), "--suite", "equivalence",
                       "--equiv-n", "6", "--equiv-steps", "10",
                       "--equiv-trials", "800", "--equiv-offset", "-1")
        assert code == 1  # broken slot range must fail the suite
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,name", [
        (("--equiv-trials", "0"), "trials_per_variant"),
        (("--equiv-steps", "0", "--equiv-offset", "-1"), "offspring_steps"),
        (("--equiv-steps", "-2"), "offspring_steps")])
    def test_equivalence_suite_rejects_empty_runs(self, tmp_path, capsys,
                                                  flags, name):
        out = self.make_run(tmp_path)
        code = run_cli("report", "--out", str(out), "--suite", "equivalence",
                       "--equiv-n", "6", *flags)
        assert code == 2
        assert name in capsys.readouterr().err


class TestBounds:
    def test_witt(self, capsys):
        assert run_cli("bounds", "witt", "--phases", "0.5,0.5",
                       "--lam", "4") == 0
        out = capsys.readouterr().out
        assert f"{math.exp(-0.5):.6f}"[:8] in out or "0.606530" in out

    def test_witt_lambda_zero(self, capsys):
        assert run_cli("bounds", "witt", "--phases", "0.25", "--lam", "0") == 0
        out = capsys.readouterr().out
        assert "upper_tail=1" in out and "lower_tail=1" in out

    def test_chernoff(self, capsys):
        assert run_cli("bounds", "chernoff", "--mean", "50",
                       "--delta", "0.5") == 0
        assert f"{math.exp(-6.25):.8g}" in capsys.readouterr().out

    def test_sandwich(self, capsys):
        assert run_cli("bounds", "sandwich", "--family", "inv",
                       "--alpha", "2", "--beta", "100") == 0
        out = capsys.readouterr().out
        assert "lower=" in out and "upper=" in out

    def test_malformed_inputs(self, capsys):
        assert run_cli("bounds", "witt", "--phases", "0.5,nope",
                       "--lam", "1") == 2
        assert run_cli("bounds", "chernoff", "--mean", "10",
                       "--delta", "1.5") == 2

    def test_usage_error_exit_code(self):
        assert run_cli("bounds") == 2
        assert run_cli("definitely-not-a-command") == 2


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
HEAVY = ("numpy", "scipy", "multiprocessing")


def fresh_modules(code: str) -> set[str]:
    """Modules a fresh interpreter has loaded after running ``code``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    script = code + "\nimport sys\nprint('\\n'.join(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          check=True, stdout=subprocess.PIPE, text=True)
    return set(proc.stdout.split())


class TestColdStart:
    """Heavy libraries are imported by the functions that call them, so a
    process that never fits, tests or integrates does not load them."""

    def test_run_oracle_and_tail_bounds_load_no_heavy_library(self, tmp_path):
        loaded = fresh_modules(f"""
import semolab, semolab.cli
from semolab import AlgorithmSpec, BenchmarkSpec, Kind, run_until_cover
run_until_cover(BenchmarkSpec(Kind.COCZ, 8), AlgorithmSpec.gsemo(), 0)
main = semolab.cli.main
assert main(["run", "--benchmark", "cocz", "--n", "8", "--trials", "2",
             "--record-trajectories", "off", "--out", {str(tmp_path)!r}]) == 0
assert main(["oracle", "--benchmark", "omm", "--n", "6"]) == 0
assert main(["bounds", "witt", "--phases", "0.5,0.5", "--lam", "4"]) == 0
assert main(["bounds", "chernoff", "--mean", "50", "--delta", "0.5"]) == 0
""")
        assert "semolab.cli" in loaded
        heavy = sorted(m for m in loaded if m.split(".")[0] in HEAVY)
        assert heavy == []

    def test_run_from_config_file_loads_no_heavy_library(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("benchmark=ojzj\nn=8\nk=2\ntrials=2\nmax_iters=\n"
                       "checkpoint=border:n2_log:0.001\n")
        loaded = fresh_modules(f"""
from semolab.cli import main
assert main(["run", "--config", {str(cfg)!r},
             "--out", {str(tmp_path / "out")!r}]) == 0
""")
        assert "semolab.cli" in loaded
        heavy = sorted(m for m in loaded if m.split(".")[0] in HEAVY)
        assert heavy == []

    def test_sandwich_loads_integrate_only(self):
        loaded = fresh_modules("""
from semolab.cli import main
assert main(["bounds", "sandwich", "--alpha", "2", "--beta", "100"]) == 0
""")
        assert "scipy.integrate" in loaded
        assert "scipy.stats" not in loaded

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "semolab", "bounds", "chernoff",
             "--mean", "50", "--delta", "0.5"],
            env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
            text=True)
        assert proc.returncode == 0
        assert proc.stdout == f"lower_tail={math.exp(-6.25):.10g}\n"
