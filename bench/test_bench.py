"""Tests of the benchmark's own helpers (not of gpeigen).

Run with `python -m pytest bench` from the repository root.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from gpeigen.problems import build_preset  # noqa: E402
from gpeigen.scan import ScanPoint, make_lambda_grid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = W.Shrink(N=40, N_t=40, n_lambda=60)


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(W.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]


def test_metric_names_and_units_are_valid():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for e in SPEC["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"}
        assert 0 < e["bound"] <= 0.25
    for e in SPEC["per_layer"]:
        assert set(e) == {"name", "unit", "better"}
    for e in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(e["unit"]) and e["better"] in ("higher", "lower")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_match_peaks_counts_matched_and_spurious():
    refs = [10.0, 40.0, 90.0]
    assert W.match_peaks([10.1, 39.5, 89.0], refs, 0.02) == (3, 0)
    # 60 is near nothing; 41 is 2.5% off, outside 2% but inside 5%
    assert W.match_peaks([10.1, 41.0, 60.0], refs, 0.02) == (1, 2)
    assert W.match_peaks([10.1, 41.0, 60.0], refs, 0.05) == (2, 1)
    # two peaks on one reference match it once and neither is spurious
    assert W.match_peaks([89.5, 90.4], refs, 0.02) == (1, 0)
    assert W.match_peaks([], refs, 0.02) == (0, 0)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_seed_zero_reproduces_preset_grids(name):
    wl = W.WORKLOADS[name]
    for pid, prob in zip(wl.presets, W.build_problems(wl, 0)):
        preset = build_preset(pid, wl.scale)
        assert prob == preset
        assert (make_lambda_grid(prob.grid) == make_lambda_grid(preset.grid)).all()


@pytest.mark.parametrize("seed", [1, 2, 7, 123456])
def test_other_seeds_keep_sizes_and_references(seed):
    for wl in W.WORKLOADS.values():
        for pid, prob in zip(wl.presets, W.build_problems(wl, seed)):
            preset = build_preset(pid, wl.scale)
            assert (prob.N, prob.N_t) == (preset.N, preset.N_t)
            g, g0 = prob.grid, preset.grid
            assert (g.kind, g.count, g.root) == (g0.kind, g0.count, g0.root)
            assert abs(g.lo / g0.lo - 1) <= W.WINDOW_SHIFT
            assert abs(g.hi / g0.hi - 1) <= W.WINDOW_SHIFT
            assert len(make_lambda_grid(g)) == g0.count
            if wl.eigenfunctions:
                assert g == g0
            else:
                assert W.references(pid, g.lo, g.hi) == W.references(pid, g0.lo, g0.hi)
    wl = W.WORKLOADS["laplace-desk"]
    assert W.build_problems(wl, seed) == W.build_problems(wl, seed)
    assert W.build_problems(wl, seed) != W.build_problems(wl, 0)


def test_invalid_output_is_caught():
    wl = W.WORKLOADS["laplace-desk"]
    problems = W.build_problems(wl, 0, TINY)
    rep = W.run_once(wl, problems, 0)
    assert W.invalid_output(rep) == []
    out = rep.problems[0]
    out.points[3] = ScanPoint(lam=out.points[3].lam, J=math.nan, diag=None)
    out.points.pop()
    errors = W.invalid_output(rep)
    assert any("scan points" in e for e in errors)
    assert any("nan" in e for e in errors)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_tiny_smoke_run_reports_every_metric(name):
    wl = W.WORKLOADS[name]
    problems = run.set_up(wl, 3, TINY)
    m = run.measure(wl, problems, 3, 0.0, trace=True)
    assert len(m.plain) == len(m.traced) == 1
    e2e = run.end_to_end(wl, m, setup_s=1.0)
    layer = run.per_layer(m, e2e)
    for entry, source in [(e, e2e) for e in SPEC["end_to_end"]] + [
        (e, layer) for e in SPEC["per_layer"]
    ]:
        value, unit = source[entry["name"]]
        assert unit == entry["unit"], entry["name"]
        assert math.isfinite(value), entry["name"]
    for value, _ in e2e.values():
        assert value >= 0
    assert e2e["spectrum_s"][0] > 0 and e2e["sweep_lambda_per_s"][0] > 0
    # self times account for the traced wall time
    assert abs(layer["trace.unaccounted_frac"][0]) < 0.05
    spans = m.tracer.spans
    assert all(s.end >= s.start for s in spans)
    assert {s.run for s in spans} == {0}
    assert spans[0].name == "bench.workload" and spans[0].parent == -1
    if wl.eigenfunctions:
        assert layer["posterior.sample_ms_p50"][0] > 0
        assert layer["scan.evals_total"][0] == 0
    else:
        assert layer["scan.evals_total"][0] >= sum(p.grid.count for p in problems)
        assert layer["posterior.sample_ms_p50"][0] == 0
    if wl.refine:
        assert layer["scan.refine_evals_per_peak"][0] > 0


def test_setup_runs_in_fresh_interpreters():
    seconds = run.setup_seconds("laplace-desk", 5)
    assert len(seconds) == run.SETUP_REPEATS
    assert all(0 < s < 120 for s in seconds)
