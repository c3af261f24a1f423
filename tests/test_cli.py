"""End-to-end command-line behavior through in-process main() calls."""

import csv
import json

import numpy as np
import pytest

from gpeigen.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    main,
    problem_from_obj,
    problem_to_obj,
    read_spectrum_csv,
)
import gpeigen as g


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


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
        header = (d1 / "samples.csv").read_text().splitlines()[0]
        assert header == "x,sample_0,sample_1,sample_2"

    def test_requires_lambda(self, capsys):
        assert main(["sample", "laplace"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--lambda" in err

    def test_rejects_bvp_problem(self, capsys):
        assert main(["sample", "poisson-demo", "--lambda", "1.0"]) == EXIT_CONFIG


class TestScan:
    def test_small_config_scan_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SCAN)
        code = main(["scan", "--config", cfg, "--jobs", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_spectrum_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 24
        assert rows[0][0] == 5.0
        assert rows[-1][0] == 120.0
        assert all(not skipped for _, _, skipped in rows)
        assert all(J >= 0.0 for _, J, _ in rows)

        doc = json.loads((tmp_path / "peaks.json").read_text())
        assert doc["problem"] == "laplace"
        assert doc["n_skipped"] == 0
        refs = [np.pi**2, 4 * np.pi**2, 9 * np.pi**2]
        assert len(doc["peaks"]) >= 2
        for rec in doc["peaks"]:
            assert rec["refined"]
            assert min(abs(rec["lambda_hat"] - r) / r for r in refs) <= 0.05
            assert rec["relative_error"] <= 0.05

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

    def test_malformed_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "eigen"})
        assert main(["scan", "--config", cfg]) == EXIT_CONFIG
        assert "bad config" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"problem": "laplace", "jiter": 1e-6})
        assert main(["scan", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad config" in err and "jiter" in err


class TestProblemSerialization:
    @pytest.mark.parametrize(
        "preset", ["laplace", "cantilever", "loaded-string", "poisson-demo"]
    )
    def test_roundtrip_identity(self, preset):
        prob = g.build_preset(preset)
        again = problem_from_obj(json.loads(json.dumps(problem_to_obj(prob))))
        assert again == prob

    def test_json_format_is_pinned(self):
        # literal dicts: any change here breaks existing config files
        obj = problem_to_obj(g.loaded_string())
        assert obj["boundary"][1] == {
            "location": 1.0,
            "operator": {
                "terms": [
                    {"deriv_order": 1, "coeff": {"const": 1.0}},
                    {
                        "deriv_order": 0,
                        "coeff": {
                            "quot": [
                                {"prod": [{"const": 1.0}, "lambda"]},
                                {"sum": ["lambda", {"neg": {"const": 1.0}}]},
                            ]
                        },
                    },
                ]
            },
            "rhs": 0.0,
        }
        grid = problem_to_obj(g.laplace_dirichlet())["grid"]
        assert grid == {"kind": "log", "lo": 1.0, "hi": 1000.0, "count": 300}
