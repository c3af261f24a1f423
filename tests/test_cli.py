"""End-to-end command-line behavior through in-process main() calls."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gpeigen.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    REFINE_ITERATIONS,
    main,
    problem_from_obj,
    problem_to_obj,
)
import gpeigen as g
import gpeigen.cli
import gpeigen.scan
from gpeigen.operators import PoleError
from gpeigen.scan import REFINE_RTOL, SCAN_RCOND, blas_threads


def read_spectrum_csv(path):
    """(lambda, trace_J, skipped) per row of a spectrum CSV."""
    with open(path, newline="") as fh:
        return [
            (float(rec["lambda"]),
             None if rec["skipped"] == "true" else float(rec["trace_J"]),
             rec["skipped"] == "true")
            for rec in csv.DictReader(fh)
        ]


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


SMALL_SCAN = {
    "problem": "laplace",
    "N": 60,
    "N_t": 60,
    "grid": {"kind": "log", "lo": 5.0, "hi": 120.0, "count": 24},
}


class TestListAndVerify:
    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == EXIT_OK
        out = capsys.readouterr().out
        for pid in ("laplace", "cantilever", "loaded-string", "poisson-demo"):
            assert pid in out
        assert "bvp" in out and "eigen" in out

    def test_fd_verify_passes(self, capsys):
        assert main(["fd-verify", "--trials", "20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "20/20 trials passed" in out
        # one result line per trial plus header and summary
        assert sum("PASS" in line for line in out.splitlines()) == 20

    def test_fd_verify_rejects_zero_trials(self, capsys):
        assert main(["fd-verify", "--trials", "0"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_fd_verify_rejects_negative_seed(self, capsys):
        assert main(["fd-verify", "--trials", "2", "--seed", "-1"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestBvpDemo:
    def test_single_nf_output(self, tmp_path, capsys):
        assert main(["bvp-demo", "--nf", "8", "--out-dir", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "bvp_nf8.csv"
        assert path.exists()
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x,mean,lower,upper,exact"
        assert len(rows) == 201
        first = rows[1].split(",")
        # boundary point: mean pinned at 0 and band collapsed
        assert abs(float(first[1])) < 1e-8
        assert float(first[3]) - float(first[2]) < 1e-6
        mid = rows[101].split(",")
        x_mid = float(mid[0])
        assert abs(float(mid[4]) - (-5.0 * x_mid**2 + 5.0 * x_mid)) < 1e-12

    def test_default_runs_three_sizes(self, tmp_path, capsys):
        assert main(["bvp-demo", "--out-dir", str(tmp_path)]) == EXIT_OK
        for nf in (0, 3, 8):
            assert (tmp_path / f"bvp_nf{nf}.csv").exists()
        out = capsys.readouterr().out
        assert out.count("max |mean - exact|") == 3

    def test_rejects_negative_nf(self, tmp_path, capsys):
        code = main(["bvp-demo", "--nf", "-2", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG


class TestSample:
    def test_deterministic_outputs(self, tmp_path):
        argv = [
            "sample", "laplace",
            "--lambda", str(np.pi**2), "--count", "3", "--seed", "42",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out-dir", str(d1)]) == EXIT_OK
        assert main(argv + ["--out-dir", str(d2)]) == EXIT_OK
        assert (d1 / "samples.csv").read_bytes() == (d2 / "samples.csv").read_bytes()
        doc = json.loads((d1 / "samples.json").read_text())
        assert doc["problem"] == "laplace"
        assert doc["seed"] == 42
        assert doc["normalization"] == "sup_norm"
        assert len(doc["residuals"]) == 3
        assert doc["blas_threads"] == blas_threads()
        header = (d1 / "samples.csv").read_text().splitlines()[0]
        assert header == "x,sample_0,sample_1,sample_2"

    def test_requires_lambda(self, capsys):
        assert main(["sample", "laplace"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--lambda" in err

    def test_rejects_bvp_problem(self, capsys):
        assert main(["sample", "poisson-demo", "--lambda", "1.0"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--lambda", "10.0", "--count", "0"], "--count"),
            # the length-scale schedule needs lambda > 0
            (["--lambda", "-5"], "lambda"),
            (["--lambda", "10.0", "--rcond", "-1"], "--rcond"),
            (["--lambda", "10.0", "--seed", "-1"], "--seed"),
            # K_CC is not finite this far out
            (["--lambda", "1e200"], "lambda"),
            # a later --out-dir overrides the default one
            (["--lambda", "10.0", "--out-dir", "FILE"], "blocker"),
            (["--lambda", "10.0", "--jitter", "inf"], "--jitter"),
            (["--lambda", "10.0", "--rcond", "inf"], "--rcond"),
        ],
        ids=["count-0", "negative-lambda", "negative-rcond", "negative-seed",
             "lambda-1e200", "out-dir-is-file", "jitter-inf", "rcond-inf"],
    )
    def test_rejects_bad_arguments(self, tmp_path, capsys, flags, named):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        flags = [str(blocker) if f == "FILE" else f for f in flags]
        code = main(["sample", "laplace", "--out-dir", str(tmp_path), *flags])
        assert code == EXIT_CONFIG
        [line] = error_lines(capsys.readouterr().err)
        assert named in line
        assert not (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_rejects_nonfinite_lambda_by_its_value(self, tmp_path, capfd, value):
        # "--lambda=" lets argparse read "-inf" as a value, not a flag
        argv = ["sample", "laplace", f"--lambda={value}", "--out-dir", str(tmp_path)]
        code = main(argv)
        assert code == EXIT_CONFIG
        [line] = error_lines(capfd.readouterr().err)
        assert "--lambda" in line and repr(value) in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "value, named",
        [
            ("-inf", "'-inf'"),
            ("-nan", "'-nan'"),
            ("-1e-3", "lambda > 0"),
            ("-1e+2", "lambda > 0"),
            ("-5", "lambda > 0"),
        ],
        ids=["minus-inf", "minus-nan", "exponent-minus", "exponent-plus", "integer"],
    )
    def test_negative_value_token_is_a_value_not_a_flag(
        self, tmp_path, capsys, value, named
    ):
        # "--lambda -1e-3", with a space: argparse's own negative-number
        # pattern misses exponents, inf and nan and reads them as flags
        argv = ["sample", "laplace", "--lambda", value, "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        [line] = error_lines(err)
        assert named in line
        assert "expected one argument" not in line
        assert "usage: gpeigen sample [-h]" in err
        assert list(tmp_path.iterdir()) == []

    def test_overflow_prints_only_the_refusal(self, tmp_path, capfd):
        # the kernel overflows this far out; no numpy warning precedes the
        # error (pytest would otherwise record a warning, not print it)
        argv = ["sample", "laplace", "--lambda", "1e200", "--out-dir", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code == EXIT_CONFIG
        err = capfd.readouterr().err.splitlines()
        assert err[0].startswith("error: cannot condition at lambda = 1e+200")
        assert all(line.startswith(("usage:", " ")) for line in err[1:])
        assert "Warning" not in "\n".join(err)


class TestProblemConflicts:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["scan", "cantilever", "--config", "CFG"], "'cantilever'"),
            (["scan", "--problem", "cantilever", "--config", "CFG"], "'cantilever'"),
            (["scan", "cantilever", "--problem", "laplace"], "'laplace'"),
            (["sample", "cantilever", "--config", "CFG", "--lambda", "10.0"],
             "'cantilever'"),
            (["scan", "--config", "FULL", "--paper-scale"], "--paper-scale"),
        ],
        ids=["config-and-preset", "config-and-problem-flag", "problem-flag-and-preset",
             "sample-config-and-preset", "paper-scale-and-complete-config"],
    )
    def test_refuses_conflicting_inputs(self, tmp_path, capsys, argv, named):
        # CFG names laplace, FULL spells out a problem with no preset to
        # scale; neither input may be silently dropped
        configs = {
            "CFG": write_config(tmp_path, SMALL_SCAN),
            "FULL": write_config(
                tmp_path, problem_to_obj(g.laplace_dirichlet()), "full.json"
            ),
        }
        argv = [configs.get(a, a) for a in argv]
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        [line] = error_lines(err)
        assert "conflicts" in line and named in line
        assert f"usage: gpeigen {argv[0]} [-h]" in err
        assert not out.exists()

    def test_same_preset_twice_is_accepted(self, tmp_path):
        argv = ["sample", "laplace", "--problem", "laplace", "--lambda", "10.0",
                "--count", "1", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK


@pytest.mark.parametrize(
    "argv, command",
    [
        (["sample", "laplace", "--lambda", "10.0", "--count", "0"], "sample"),
        (["scan", "laplace", "--jobs", "abc"], "scan"),
        (["fd-verify", "--trials", "0"], "fd-verify"),
        (["bvp-demo", "--nf", "-1"], "bvp-demo"),
        # refused after parsing, by the subcommand itself
        (["scan", "cantilever", "--config", "config.json"], "scan"),
        (["scan", "poisson-demo"], "scan"),
        (["sample", "laplace", "--lambda", "1e200"], "sample"),
        (["scan", "laplace", "--out-dir", "blocker"], "scan"),
        # left over after parsing: the root parser would show its own usage
        (["scan", "laplace", "-x"], "scan"),
        (["sample", "laplace", "--lambda", "10.0", "--bogus", "1"], "sample"),
    ],
    ids=["sample", "scan", "fd-verify", "bvp-demo", "config-and-preset",
         "bvp-problem", "lambda-1e200", "out-dir-is-file", "scan-unknown-flag",
         "sample-unknown-flag"],
)
def test_refused_argument_prints_its_subcommand_usage(
    tmp_path, monkeypatch, capsys, argv, command
):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, SMALL_SCAN)
    (tmp_path / "blocker").write_text("")
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(error_lines(err)) == 1
    assert f"usage: gpeigen {command} [-h]" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]


def test_refused_command_prints_root_usage(capsys):
    assert main(["bogus"]) == EXIT_CONFIG
    assert "usage: gpeigen [-h] {scan,sample," in capsys.readouterr().err


class TestScan:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--jobs", "0"],
            ["--jobs", "-3"],
            ["--rcond", "-1"],
            ["--rcond", "0"],
            ["--rcond", "nan"],
            ["--jitter", "-1"],
            ["--jobs", "abc"],
            ["--bogus"],
            ["--jitter", "inf"],
            ["--rcond", "inf"],
        ],
        ids=["jobs-0", "jobs-negative", "rcond-negative", "rcond-0", "rcond-nan",
             "jitter-negative", "jobs-abc", "unknown-flag", "jitter-inf", "rcond-inf"],
    )
    def test_rejects_bad_arguments(self, tmp_path, capsys, flags):
        # refused before the sweep: no λ is evaluated, no spectrum written
        cfg = write_config(tmp_path, SMALL_SCAN)
        code = main(["scan", "--config", cfg, *flags, "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        [line] = error_lines(capsys.readouterr().err)
        assert flags[0] in line
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize(
        "extra, flags, changed",
        [
            ({}, [], {}),
            ({}, ["--jitter", "2e-08"], {"jitter": 2e-8}),
            # an id with no reference eigenvalues: peaks carry no error
            ({"problem_id": "my-laplace"}, [], {"problem_id": "my-laplace"}),
        ],
        ids=["preset", "jitter-flag", "no-oracle"],
    )
    def test_small_config_scan_roundtrip(self, tmp_path, capsys, extra, flags, changed):
        cfg = write_config(tmp_path, {**SMALL_SCAN, **extra})
        code = main(["scan", "--config", cfg, "--jobs", "1", *flags,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_spectrum_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 24
        assert rows[0][0] == 5.0
        assert rows[-1][0] == 120.0
        assert all(not skipped for _, _, skipped in rows)
        assert all(J >= 0.0 for _, J, _ in rows)

        doc = json.loads((tmp_path / "peaks.json").read_text())
        assert doc["problem"] == changed.get("problem_id", "laplace")
        assert doc["n_skipped"] == 0
        refs = [np.pi**2, 4 * np.pi**2, 9 * np.pi**2]
        assert len(doc["peaks"]) >= 2
        for rec in doc["peaks"]:
            assert rec["refined"]
            assert 0 < rec["evaluations"] <= 31
            assert "refine_error" not in rec
            assert min(abs(rec["lambda_hat"] - r) / r for r in refs) <= 0.05
            if "problem_id" in changed:
                assert "nearest_reference" not in rec and "relative_error" not in rec
            else:
                assert rec["relative_error"] <= 0.05
        assert doc["rcond"] == SCAN_RCOND
        assert doc["evaluations"] == {
            "sweep": 24,
            "refine": sum(rec["evaluations"] for rec in doc["peaks"]),
        }
        assert doc["version"] == g.__version__
        assert doc["jobs"] == 1
        assert doc["blas_threads"] == blas_threads()
        assert doc["refine_iterations"] == REFINE_ITERATIONS
        assert doc["refine_rtol"] == REFINE_RTOL
        assert doc["wall_s"] > 0.0
        # the manifest carries the whole problem as scanned
        scanned = dataclasses.replace(
            g.laplace_dirichlet(), N=60, N_t=60,
            grid=g.LambdaGrid("log", 5.0, 120.0, 24), **changed,
        )
        assert problem_from_obj(doc["spec"]) == scanned
        with open(tmp_path / "spectrum.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        for rec in recs:
            lam = float(rec["lambda"])
            assert float(rec["length_scale"]) == scanned.kernel_at(lam).length_scale
            assert int(rec["truncated"]) + int(rec["rank"]) == 62  # N + 2 rows

    def test_failed_refinement_keeps_grid_peak(self, tmp_path, monkeypatch, capsys):
        # the second J evaluation after the sweep, inside the first peak's
        # bracket, hits a pole: that peak stays at its grid point and says why
        inner_scan, inner_eval = gpeigen.cli.scan_spectrum, gpeigen.scan.evaluate_trace
        calls = []

        def failing_eval(*args, **kwargs):
            calls.append(args[1])
            if len(calls) == 2:
                raise PoleError("coefficient denominator vanishes")
            return inner_eval(*args, **kwargs)

        def scan_then_fail(*args, **kwargs):
            scan = inner_scan(*args, **kwargs)
            monkeypatch.setattr(gpeigen.scan, "evaluate_trace", failing_eval)
            return scan

        monkeypatch.setattr(gpeigen.cli, "scan_spectrum", scan_then_fail)
        cfg = write_config(tmp_path, SMALL_SCAN)
        code = main(["scan", "--config", cfg, "--jobs", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "peaks.json").read_text())
        first, *rest = doc["peaks"]
        assert first["refine_error"].startswith("PoleError: ")
        assert not first["refined"]
        assert first["evaluations"] == 0
        rows = read_spectrum_csv(tmp_path / "spectrum.csv")
        assert first["lambda_hat"] == rows[first["grid_index"]][0]
        assert rest and all(rec["refined"] for rec in rest)
        assert all("refine_error" not in rec for rec in rest)
        assert "not refined: PoleError" in capsys.readouterr().out

    def test_desk_scan_recovers_laplace_spectrum(self, tmp_path):
        code = main(["scan", "laplace", "--jobs", "4", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "peaks.json").read_text())
        lams = [rec["lambda_hat"] for rec in doc["peaks"]]
        assert len(lams) >= 5
        for n in range(1, 6):
            ref = (n * np.pi) ** 2
            assert min(abs(l - ref) / ref for l in lams) <= 0.02
        assert "decay_slope" in doc

    def test_all_failing_grid_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problem": "laplace",
                "N": 20,
                "N_t": 20,
                "grid": {"kind": "linear", "lo": -2.0, "hi": -1.0, "count": 3},
            },
        )
        code = main(["scan", "--config", cfg, "--jobs", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_VERIFY
        assert "error:" in capsys.readouterr().err

    def test_skip_reason_written_to_csv(self, tmp_path):
        # the middle grid point lands on the loaded-string pole at λ = κ = 1
        cfg = write_config(
            tmp_path,
            {
                "problem": "loaded-string",
                "N": 40,
                "N_t": 40,
                "grid": {"kind": "linear", "lo": 0.5, "hi": 1.5, "count": 3},
            },
        )
        code = main(["scan", "--config", cfg, "--jobs", "1",
                     "--out-dir", str(tmp_path)])
        # two evaluated points are too few to detect peaks in
        assert code == EXIT_VERIFY
        with open(tmp_path / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["skipped"] for r in rows] == ["false", "true", "false"]
        assert "PoleError" in rows[1]["reason"]
        assert rows[1]["truncated"] == rows[1]["length_scale"] == ""
        assert rows[0]["reason"] == rows[2]["reason"] == ""

    def test_rejects_bvp_problem(self, capsys):
        assert main(["scan", "poisson-demo"]) == EXIT_CONFIG

    def test_missing_problem_prints_usage(self, capsys):
        assert main(["scan"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_unknown_preset(self, capsys):
        assert main(["scan", "helmholtz"]) == EXIT_CONFIG

    def test_config_file_missing(self, capsys):
        assert main(["scan", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "content, fragment",
        [
            ({"mode": "eigen"}, "missing"),
            ("{", "Expecting property name"),
            ({"problem": "helmholtz"}, "unknown problem 'helmholtz'"),
            ({"problem": "laplace", "grid": [1, 2]}, "LambdaGrid needs an object"),
            ({"problem": "laplace", "interior_op": {"terms": [
                {"deriv_order": 2, "num": [{"bogus": 1.0}]}]}},
             "expected float, got {'bogus': 1.0}"),
            # values the decoder would have to change to fit their fields
            ({"problem": "laplace", "N": 20.9}, "expected int, got 20.9"),
            ({"problem": "laplace", "N_t": "30"}, "expected int, got '30'"),
            ({"problem": "laplace", "jitter": True}, "expected float, got True"),
            ({"problem": "laplace",
              "grid": {"kind": "log", "lo": 1.0, "hi": 400.0, "count": 40.7}},
             "expected int, got 40.7"),
            ({"problem": "laplace", "interior_op": {"terms": [
                {"deriv_order": 2.7, "num": [-1.0]},
                {"deriv_order": 0, "num": [-1.0, 0.0]}]}},
             "expected int, got 2.7"),
            ({"problem": "laplace", "boundary": [
                {"location": True, "operator": {"terms": [
                    {"deriv_order": 0, "num": [1.0]}]}}]},
             "expected float, got True"),
            ({"problem": "laplace", "problem_id": 7}, "expected str, got 7"),
            # a root only a power_root grid reads
            ({"problem": "laplace",
              "grid": {"kind": "log", "lo": 1.0, "hi": 400.0, "count": 40, "root": 2.0}},
             "log grid takes no root"),
            ({"problem": "laplace",
              "grid": {"kind": "linear", "lo": 1.0, "hi": 400.0, "count": 40, "root": 2.0}},
             "linear grid takes no root"),
            # JSON's Infinity and NaN: no field takes a non-finite number
            ({"problem": "laplace",
              "grid": {"kind": "log", "lo": 1.0, "hi": math.inf, "count": 10}},
             "expected a finite float, got inf"),
            ({"problem": "laplace", "schedule": {"C": 150, "p": math.nan, "variance": 1}},
             "expected a finite float, got nan"),
            # an integer past the float range
            ({"problem": "laplace", "jitter": 10**400}, "expected a finite float"),
            ({"problem": "laplace", "interior_op": {"terms": [
                {"deriv_order": 2, "num": [-1.0]},
                {"deriv_order": 0, "num": [math.nan, 0.0]}]}},
             "expected a finite float, got nan"),
            ({"problem": "laplace", "interior_op": {"terms": [
                {"deriv_order": 2, "num": []}]}},
             "num needs at least one coefficient"),
            ({"problem": "laplace", "interior_op": {"terms": [
                {"deriv_order": 2, "num": "-1"}]}},
             "expected a list, got '-1'"),
            # the tagged coefficient of earlier versions is not read
            ({"problem": "laplace", "interior_op": {"terms": [
                {"deriv_order": 2, "coeff": {"const": -1.0}}]}},
             "unknown OperatorTermSpec field(s): coeff"),
        ],
        ids=["incomplete", "invalid-json", "unknown-preset", "grid-list",
             "unknown-coefficient", "int-field-fraction", "int-field-string",
             "float-field-bool", "grid-count-fraction", "deriv-order-fraction",
             "location-bool", "problem-id-number", "log-grid-root",
             "linear-grid-root", "grid-hi-infinity", "schedule-p-nan",
             "jitter-huge-int", "num-nan", "num-empty", "num-string",
             "old-coefficient-form"],
    )
    def test_malformed_config(self, tmp_path, capsys, content, fragment):
        # each case names its own refusal, so none passes on an earlier one
        cfg = write_config(tmp_path, content)
        code = main(["scan", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        [line] = error_lines(capsys.readouterr().err)
        assert "bad config" in line and cfg in line
        assert fragment in line
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "-h"])
        assert exc.value.code == 0
        assert "--jobs" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"jiter": 1e-6}, "jiter"),
            ({"N": 40, "N_t": 40, "rhs_table": [0.0] * 40}, "rhs_table"),
        ],
        ids=["jiter", "rhs_table"],
    )
    def test_unknown_config_key(self, tmp_path, capsys, extra, key):
        cfg = write_config(tmp_path, {"problem": "laplace", **extra})
        code = main(["scan", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad config" in err and key in err


def run_fresh_interpreter(args, cwd):
    """Run Python with `args` in a new process that imports this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [["scan", "laplace", "--jobs", "abc"], ["sample", "laplace", "--lambda", "1e200"]],
    ids=["jobs-abc", "lambda-1e200"],
)
def test_console_exit_code(tmp_path, argv):
    # the exit status a shell sees, which in-process main() calls cannot show
    proc = run_fresh_interpreter(
        ["-m", "gpeigen.cli", *argv, "--out-dir", str(tmp_path)], tmp_path
    )
    assert proc.returncode == EXIT_CONFIG
    assert len(error_lines(proc.stderr)) == 1
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


SCIPY_ONLY_ON_REFINEMENT = """
import dataclasses, sys
import gpeigen as g
from gpeigen.cli import main

prob = dataclasses.replace(
    g.build_preset("laplace"), N=60, N_t=60,
    grid=g.LambdaGrid(kind="log", lo=5.0, hi=120.0, count=24),
)
peaks = g.detect_peaks(g.scan_spectrum(prob))
blocks = g.assemble_blocks(prob, 9.87)
g.sample_posterior(g.posterior_covariance(blocks, prob.jitter), 2, 0)
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
assert main(["sample", "laplace", "--lambda", "9.87", "--count", "2"]) == 0
assert main(["list-problems"]) == 0
assert main(["fd-verify", "--trials", "2"]) == 0
assert main(["scan", "laplace", "--jobs", "0"]) == 2
assert "scipy.optimize" not in sys.modules, "scipy loaded before refinement"
out = g.refine_peak(prob, peaks[0], 4)
assert out.refined and out.evaluations > 0 and out.J_peak >= peaks[0].J_peak
assert "scipy.optimize" in sys.modules
"""


def test_scipy_loads_only_on_refinement(tmp_path):
    # sys.modules of a fresh interpreter: this process has scipy loaded already
    proc = run_fresh_interpreter(["-c", SCIPY_ONLY_ON_REFINEMENT], tmp_path)
    assert proc.returncode == 0, proc.stderr


class TestProblemSerialization:
    @pytest.mark.parametrize(
        "preset", ["laplace", "cantilever", "loaded-string", "poisson-demo"]
    )
    def test_roundtrip_identity(self, preset):
        for scale in ("desk", "paper"):
            prob = g.build_preset(preset, scale)
            again = problem_from_obj(json.loads(json.dumps(problem_to_obj(prob))))
            assert again == prob

    def test_json_format_is_pinned(self):
        # literal dicts: any change here breaks existing config files
        obj = problem_to_obj(g.loaded_string())
        assert obj["boundary"][1] == {
            "location": 1.0,
            "operator": {
                "terms": [
                    {"deriv_order": 1, "num": [1.0], "den": [1.0]},
                    {"deriv_order": 0, "num": [1.0, 0.0], "den": [1.0, -1.0]},
                ]
            },
            "rhs": 0.0,
        }
        grid = problem_to_obj(g.laplace_dirichlet())["grid"]
        assert grid == {"kind": "log", "lo": 1.0, "hi": 1000.0, "count": 300}
