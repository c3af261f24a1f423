"""λ grids, length-scale schedule, scanning, peak detection, refinement."""

import concurrent.futures
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import gpeigen as g
import gpeigen.cli
import gpeigen.scan
from gpeigen.operators import assemble_blocks
from gpeigen.scan import (
    REFINE_RTOL,
    HyperSchedule,
    InsufficientPeaksError,
    LambdaGrid,
    PeakRecord,
    ScanError,
    ScanPoint,
    SpectralScan,
    TooFewPointsError,
    blas_threads,
    detect_peaks,
    evaluate_trace,
    fit_decay_slope,
    length_scale,
    make_lambda_grid,
    refine_peak,
    scan_spectrum,
    sweep_problem,
)
from gpeigen.operators import PoleError
from gpeigen.problems import build_preset, references_in_window

from conftest import _scan_and_refine, match_references, run_fresh_interpreter


class TestLambdaGrid:
    def test_linear_values(self):
        vals = make_lambda_grid(LambdaGrid("linear", 0.0, 10.0, 6))
        assert np.allclose(vals, np.linspace(0.0, 10.0, 6))

    def test_log_values(self):
        vals = make_lambda_grid(LambdaGrid("log", 1.0, 1000.0, 4))
        assert np.allclose(vals, [1.0, 10.0, 100.0, 1000.0])

    def test_power_root_values(self):
        vals = make_lambda_grid(LambdaGrid("power_root", 1.0, 16.0, 3, root=4.0))
        # equispaced in lam**(1/4): 1, 1.5, 2 -> fourth powers
        assert np.allclose(vals, [1.0, 1.5**4, 16.0])

    def test_endpoints_pinned_exactly(self):
        grid = LambdaGrid("log", 10.0, 500.0, 300)
        vals = make_lambda_grid(grid)
        assert vals[0] == 10.0
        assert vals[-1] == 500.0
        assert np.all(np.diff(vals) > 0)

    def test_count_respected(self):
        assert make_lambda_grid(LambdaGrid("linear", 0.0, 1.0, 37)).size == 37

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaGrid("cubic", 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            LambdaGrid("linear", 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            LambdaGrid("linear", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            LambdaGrid("log", 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            LambdaGrid("power_root", 1.0, 16.0, 10)
        with pytest.raises(ValueError):
            LambdaGrid("power_root", -1.0, 16.0, 10, root=4.0)
        inf = float("inf")
        for kind, lo, hi in (("log", 1.0, inf), ("linear", -inf, 1.0),
                             ("linear", 0.0, inf), ("power_root", 0.0, inf)):
            root = 4.0 if kind == "power_root" else None
            with pytest.raises(ValueError, match="finite"):
                LambdaGrid(kind, lo, hi, 5, root=root)
        with pytest.raises(ValueError, match="finite"):
            LambdaGrid("power_root", 1.0, 16.0, 10, root=inf)

    def test_count_must_be_integral(self):
        # an integral float converts, as a config's does in cli._decode
        with pytest.raises(ValueError, match="count"):
            LambdaGrid("log", 5.0, 120.0, 2.5)
        grid = LambdaGrid("log", 5.0, 120.0, 24.0)
        assert type(grid.count) is int
        assert make_lambda_grid(grid).size == 24


class TestLengthScale:
    def test_closed_form(self):
        sched = HyperSchedule(C=150.0, p=0.5, variance=1.0)
        assert np.isclose(length_scale(sched, 4.0, 200), 150.0 / 200.0 / 2.0)

    def test_p_zero_is_constant(self):
        sched = HyperSchedule(C=40.0, p=0.0, variance=1.0)
        assert length_scale(sched, 3.0, 100) == length_scale(sched, 300.0, 100)

    def test_rejects_bad_lambda_and_n(self):
        sched = HyperSchedule(C=1.0, p=0.5, variance=1.0)
        with pytest.raises(ValueError):
            length_scale(sched, 0.0, 100)
        with pytest.raises(ValueError):
            length_scale(sched, -1.0, 100)
        with pytest.raises(ValueError):
            length_scale(sched, 1.0, 0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            HyperSchedule(C=0.0, p=0.5, variance=1.0)
        with pytest.raises(ValueError):
            HyperSchedule(C=1.0, p=-0.1, variance=1.0)
        with pytest.raises(ValueError):
            HyperSchedule(C=1.0, p=float("nan"), variance=1.0)
        with pytest.raises(ValueError):
            HyperSchedule(C=1.0, p=0.5, variance=0.0)
        inf = float("inf")
        for kw in ({"C": inf}, {"p": inf}, {"variance": inf}):
            with pytest.raises(ValueError, match="finite"):
                HyperSchedule(**{"C": 1.0, "p": 0.5, "variance": 1.0, **kw})


def synthetic_scan(J_values, skipped=()):
    points = [
        ScanPoint(lam=float(i + 1), J=float(J), diag=None,
                  skipped=(i in skipped), reason="x" if i in skipped else "")
        for i, J in enumerate(J_values)
    ]
    return SpectralScan(points=points)


class TestDetectPeaks:
    def test_single_spike(self):
        scan = synthetic_scan([1e-6, 1e-6, 1.0, 1e-6, 1e-6])
        (peak,) = detect_peaks(scan, prominence_decades=2.0)
        assert peak.grid_index == 2
        assert peak.lam_hat == 3.0
        assert peak.J_peak == 1.0

    def test_plateau_has_no_strict_maximum(self):
        scan = synthetic_scan([1e-6, 1.0, 1.0, 1e-6])
        assert detect_peaks(scan, prominence_decades=2.0) == []

    def test_prominence_floor(self):
        # spike one decade above the median is invisible at two decades
        scan = synthetic_scan([1e-6, 1e-6, 1e-5, 1e-6, 1e-6])
        assert detect_peaks(scan, prominence_decades=2.0) == []
        assert len(detect_peaks(scan, prominence_decades=0.5)) == 1

    def test_endpoints_excluded(self):
        scan = synthetic_scan([1.0, 1e-6, 1e-6, 1e-6, 1.0])
        assert detect_peaks(scan, prominence_decades=2.0) == []

    def test_skipped_points_bridged(self):
        # the spike's left neighbor is skipped; comparison uses the nearest
        # evaluated point and the original grid index is preserved
        scan = synthetic_scan([1e-6, 1e-6, 0.5, 1.0, 1e-6], skipped=(2,))
        (peak,) = detect_peaks(scan, prominence_decades=2.0)
        assert peak.grid_index == 3

    def test_too_few_live_points(self):
        scan = synthetic_scan([1e-6, 1.0, 1e-6], skipped=(0,))
        with pytest.raises(TooFewPointsError):
            detect_peaks(scan, prominence_decades=2.0)

    def test_rejects_bad_prominence(self):
        scan = synthetic_scan([1e-6, 1.0, 1e-6])
        with pytest.raises(ValueError):
            detect_peaks(scan, prominence_decades=0.0)


class TestFitDecaySlope:
    def test_exact_power_law(self):
        peaks = [
            PeakRecord(lam_hat=lam, J_peak=lam**-0.5, grid_index=i + 1)
            for i, lam in enumerate((10.0, 40.0, 90.0, 160.0, 250.0))
        ]
        slope, intercept = fit_decay_slope(peaks)
        assert np.isclose(slope, -0.5, atol=1e-12)
        assert np.isclose(intercept, 0.0, atol=1e-12)

    def test_needs_two_positive_peaks(self):
        peaks = [
            PeakRecord(lam_hat=10.0, J_peak=1.0, grid_index=1),
            PeakRecord(lam_hat=20.0, J_peak=0.0, grid_index=2),
        ]
        with pytest.raises(InsufficientPeaksError):
            fit_decay_slope(peaks)

    def test_needs_two_positive_lambdas(self):
        # log10 of a peak at λ <= 0 does not exist: such a peak is left out
        peaks = [
            PeakRecord(lam_hat=-40.0, J_peak=2.0, grid_index=1),
            PeakRecord(lam_hat=0.0, J_peak=1.5, grid_index=2),
            PeakRecord(lam_hat=10.0, J_peak=1.0, grid_index=3),
        ]
        with pytest.raises(InsufficientPeaksError):
            fit_decay_slope(peaks)


class TestRefinePeak:
    def test_refinement_improves_location(self, laplace_desk):
        ref = 9.0 * np.pi**2
        raw = min(laplace_desk.peaks, key=lambda p: abs(p.lam_hat - ref))
        fine = refine_peak(laplace_desk.problem, raw, iterations=16)
        assert fine.refined
        assert fine.J_peak >= raw.J_peak
        assert abs(fine.lam_hat - ref) <= abs(raw.lam_hat - ref)

    def test_zero_iterations_keeps_input_location(self, laplace_desk):
        raw = laplace_desk.peaks[0]
        out = refine_peak(laplace_desk.problem, raw, iterations=0)
        assert out.lam_hat == raw.lam_hat
        assert out.J_peak == raw.J_peak
        assert out.refined
        assert out.evaluations == 0

    def test_refined_peak_is_the_bracket_maximum(self, laplace_desk):
        # independent of the search: compare with J on a fine grid over the
        # bracket, the peak's two grid neighbors
        ref = 9.0 * np.pi**2
        i = min(range(len(laplace_desk.peaks)),
                key=lambda k: abs(laplace_desk.peaks[k].lam_hat - ref))
        out = laplace_desk.refined[i]
        assert out.refined
        lams = make_lambda_grid(laplace_desk.problem.grid)
        a, b = lams[out.grid_index - 1], lams[out.grid_index + 1]
        fine = np.linspace(a, b, 101)
        J = [evaluate_trace(laplace_desk.problem, lam)[0] for lam in fine]
        k = int(np.argmax(J))
        assert out.J_peak >= J[k] * (1.0 - 1e-9)
        assert abs(out.lam_hat - fine[k]) <= fine[1] - fine[0]
        assert a < out.lam_hat < b

    def test_counts_its_evaluations(self, laplace_desk, monkeypatch):
        # every probe of J is counted; the polish stops at REFINE_RTOL well
        # before the cap of `iterations` steps
        calls = []
        inner = gpeigen.scan.evaluate_trace

        def counted(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(gpeigen.scan, "evaluate_trace", counted)
        out = refine_peak(laplace_desk.problem, laplace_desk.peaks[0], iterations=20)
        assert out.evaluations == len(calls)
        assert 0 < out.evaluations <= 31
        assert all(0 < p.evaluations <= 31 for p in laplace_desk.refined)

    def test_a_short_step_between_far_neighbours_is_lengthened(self, monkeypatch):
        # 1/J is a parabola with its vertex 3e-6 (relative) right of the best
        # point, and both neighbours lie far out: a step that short could not
        # be ordered against the best by J's roundoff on a flat peak, so the
        # first probe lies REFINE_RTOL away, and the second on the vertex
        c, w = 100.0003, 10.0
        seen = []

        def lorentzian(problem, lam):
            seen.append(lam)
            return 1.0 / (1.0 + ((lam - c) / w) ** 2), None

        monkeypatch.setattr(gpeigen.scan, "evaluate_trace", lorentzian)
        left, best, right = ((lam, lorentzian(None, lam)[0]) for lam in (50.0, 100.0, 150.0))
        seen.clear()
        out = refine_peak(None, PeakRecord(*best, 1, bracket=(left, right)), iterations=20)
        assert seen[0] == 100.0 * (1.0 + REFINE_RTOL)
        assert out.evaluations == len(seen) == 2
        assert out.lam_hat == pytest.approx(c, abs=1e-9)

    def test_stops_at_relative_tolerance(self, laplace_desk):
        # 2**-60 of the bracket asks for far less than J can resolve; the
        # search stops at REFINE_RTOL of λ instead, near the 20-step result
        i = len(laplace_desk.peaks) // 2
        out = refine_peak(laplace_desk.problem, laplace_desk.peaks[i], iterations=60)
        ref = laplace_desk.refined[i].lam_hat
        assert 0 < out.evaluations <= 16
        assert abs(out.lam_hat - ref) <= 2 * REFINE_RTOL * ref

    def test_takes_more_iterations_than_a_float_power_of_two_holds(self, laplace_desk):
        # 2.0**1024 overflows; past about 60 iterations the relative
        # tolerance decides alone, so 1100 gives the peak 1000 gives
        peak, prob = laplace_desk.peaks[0], laplace_desk.problem
        assert refine_peak(prob, peak, iterations=1100) == refine_peak(prob, peak, 1000)

    def test_stops_at_relative_tolerance_below_zero(self):
        # u'' = λu has its peaks at λ = -(nπ)²: the tolerance is relative to
        # |λ|, so they stop as early as the mirror problem's positive peaks
        terms = (g.OperatorTermSpec(2, (1.0,)), g.OperatorTermSpec(0, (-1.0, 0.0)))
        prob = dataclasses.replace(
            g.laplace_dirichlet(), problem_id="negative-laplace",
            interior_op=g.LinearOperatorSpec(terms), N=40, N_t=40, schedule=None,
            fixed_kernel=g.KernelSpec(variance=1.0, length_scale=0.15),
            grid=LambdaGrid("linear", -100.0, -2.0, 120),
        )
        peaks = detect_peaks(scan_spectrum(prob))
        assert len(peaks) == 3
        for peak in peaks:
            out = refine_peak(prob, peak, iterations=60)
            ref = refine_peak(prob, peak, iterations=20).lam_hat
            assert ref < 0
            assert 0 < out.evaluations <= 16
            assert abs(out.lam_hat - ref) <= 2 * REFINE_RTOL * abs(ref)

    def test_every_paper_laplace_peak_refines_onto_a_mode(self, laplace_paper):
        # the fixture refines its six tallest peaks; all ten, refined, are
        # the ten modes of the window within 2%, with no spurious peak
        prob = laplace_paper.problem
        refined = [refine_peak(prob, p, iterations=20) for p in laplace_paper.peaks]
        refs = [(n * np.pi) ** 2 for n in range(1, 11)]
        matched, unmatched = match_references(refined, refs, 0.02)
        assert sorted(matched) == list(range(10))
        assert not unmatched

    def test_a_record_without_a_bracket_is_bracketed_by_its_grid_neighbours(
        self, laplace_desk
    ):
        # a peak made by hand carries no polish bracket: its two grid
        # neighbours are evaluated first, then the same steps run
        peak = laplace_desk.peaks[2]
        point = laplace_desk.scan.points[peak.grid_index]
        bare = PeakRecord(lam_hat=point.lam, J_peak=point.J, grid_index=peak.grid_index)
        out = refine_peak(laplace_desk.problem, bare, iterations=20)
        ref = laplace_desk.refined[2].lam_hat
        assert out.refined and 2 < out.evaluations <= 22
        assert abs(out.lam_hat - ref) <= 2 * REFINE_RTOL * ref

    def test_rejects_negative_iterations(self, laplace_desk):
        with pytest.raises(ValueError):
            refine_peak(laplace_desk.problem, laplace_desk.peaks[0], iterations=-1)

    def test_iterations_must_be_integral(self, laplace_desk):
        prob, peak = laplace_desk.problem, laplace_desk.peaks[0]
        with pytest.raises(ValueError, match="iterations"):
            refine_peak(prob, peak, iterations=2.5)
        assert refine_peak(prob, peak, 4.0) == refine_peak(prob, peak, 4)

    def test_rejects_edge_peak(self, laplace_desk):
        edge = PeakRecord(lam_hat=1.0, J_peak=1.0, grid_index=0)
        with pytest.raises(ValueError):
            refine_peak(laplace_desk.problem, edge, iterations=4)


def small_laplace():
    prob = g.laplace_dirichlet()
    return dataclasses.replace(
        prob, N=40, N_t=40, grid=LambdaGrid("log", 5.0, 120.0, 24)
    )


SPLIT_THEN_POOL = """
import dataclasses
from concurrent.futures import ProcessPoolExecutor
import gpeigen as g
from gpeigen.operators import assemble_blocks
from gpeigen.posterior import posterior_covariance, sample_posterior
from gpeigen.scan import LambdaGrid, scan_spectrum

prob = dataclasses.replace(
    g.laplace_dirichlet(), N=40, N_t=40, grid=LambdaGrid("log", 5.0, 120.0, 24)
)

def draw():
    blocks = assemble_blocks(prob, 50.0)
    assert blocks.mirror is not None
    summary = posterior_covariance(blocks, prob.jitter)
    return sample_posterior(summary, 1, seed=0)[0].values.tobytes()

want = draw()
with ProcessPoolExecutor(1) as pool:
    print(pool.submit(draw).result() == want)
print(sum(not p.skipped for p in scan_spectrum(prob, jobs=2).points))
"""


SERIAL_SCAN = """
import sys
import gpeigen as g

scan = g.scan_spectrum(g.build_preset("laplace", "desk"), jobs=1)
print(sum(not p.skipped for p in scan.points), "multiprocessing" in sys.modules)
"""


SERIAL_SCAN_FUTURES = """
import math
import sys
import threading
import gpeigen as g
from gpeigen.operators import assemble_blocks
from gpeigen.posterior import posterior_covariance, sample_posterior

prob = g.build_preset("laplace", "desk")
scan = g.scan_spectrum(prob, jobs=1)
blocks = assemble_blocks(prob, math.pi**2)
assert blocks.mirror is not None
sample_posterior(posterior_covariance(blocks, prob.jitter), 1, seed=0)
print(len(scan.candidates), threading.active_count(), "concurrent.futures" in sys.modules)
"""


class TestScanSpectrum:
    def test_serial_determinism(self):
        prob = small_laplace()
        a = scan_spectrum(prob)
        b = scan_spectrum(prob)
        assert [p.J for p in a.points] == [p.J for p in b.points]

    def test_parallel_matches_serial(self):
        prob = small_laplace()
        serial = scan_spectrum(prob)
        parallel = scan_spectrum(prob, jobs=2)
        assert [p.lam for p in serial.points] == [p.lam for p in parallel.points]
        assert [p.J for p in serial.points] == [p.J for p in parallel.points]

    def test_split_parallel_matches_serial_bitwise(self, laplace_desk):
        # a pool worker runs one BLAS thread, the serial scan the library's
        # count; at desk scale their Cholesky factors and solves agree bitwise
        assert assemble_blocks(laplace_desk.problem, 88.83).mirror is not None
        parallel = scan_spectrum(laplace_desk.problem, jobs=2)
        assert [p.J for p in parallel.points] == [p.J for p in laplace_desk.scan.points]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_split_J_ignores_caller_blas_threads(
        self, laplace_desk, set_blas_threads, threads
    ):
        # every conditioning runs at the caller's count; at desk scale the
        # Cholesky factors and solves come out bitwise the same at 1 and 2
        set_blas_threads(threads)
        scan = scan_spectrum(laplace_desk.problem)
        assert [p.J for p in scan.points] == [p.J for p in laplace_desk.scan.points]

    def test_serial_scan_never_loads_multiprocessing(self, tmp_path):
        # scan_spectrum imports the process pool only when jobs > 1 starts it
        proc = run_fresh_interpreter(["-c", SERIAL_SCAN], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["150", "False"]

    def test_serial_scan_never_loads_concurrent_futures(self, tmp_path):
        # the conditioning and the sampling run their halves on this thread;
        # only the pool starts a process
        proc = run_fresh_interpreter(["-c", SERIAL_SCAN_FUTURES], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["10", "1", "False"]

    def test_pool_after_a_split_conditioning(self, tmp_path):
        # a split sampling, then a fork: the child samples the same draw, and
        # the pool's scan completes.  The fresh interpreter's 120 s timeout
        # turns a hang into a failure.
        proc = run_fresh_interpreter(["-c", SPLIT_THEN_POOL], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "24"]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        # two BLAS threads in each of several workers oversubscribe the cores
        if blas_threads() is None:
            pytest.skip("no OpenBLAS found in numpy.libs")
        seen = []

        class Recording(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                seen.append(self.submit(blas_threads).result())
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        scan_spectrum(small_laplace(), jobs=2)
        assert seen == [1]

    def test_pool_is_sized_to_the_grid(self, monkeypatch):
        # a fork pool starts every worker at the first submit, so a large
        # --jobs must not ask for more processes than there are λ
        sizes = []

        class InProcess:
            def __init__(self, max_workers, initializer=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        prob = dataclasses.replace(
            small_laplace(), grid=LambdaGrid("log", 5.0, 120.0, 3)
        )
        scan = scan_spectrum(prob, jobs=100_000)
        assert sizes == [3]
        assert [p.J for p in scan.points] == [p.J for p in scan_spectrum(prob).points]

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, "2"])
    def test_rejects_jobs_that_are_not_a_positive_integer(self, monkeypatch, jobs):
        # refused before any λ is evaluated or any worker started
        monkeypatch.setattr(gpeigen.scan, "_scan_one", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        with pytest.raises(ValueError, match="jobs"):
            scan_spectrum(small_laplace(), jobs=jobs)

    def test_small_scan_finds_first_two_modes(self):
        scan = scan_spectrum(small_laplace())
        peaks = detect_peaks(scan, prominence_decades=2.0)
        refs = [np.pi**2, 4.0 * np.pi**2]
        assert len(peaks) >= 2
        for ref in refs:
            best = min(peaks, key=lambda p: abs(p.lam_hat - ref))
            assert abs(best.lam_hat - ref) / ref <= 0.05

    def test_a_window_end_cell_is_probed_before_it_is_given_up(self):
        # at 150 points and hi = 997 the top end stands above its neighbour,
        # and the parabola through its cell's end points puts the vertex
        # beyond the window; the first step probes the cell's midpoint and
        # finds mode 10, (10 pi)^2 = 986.96, inside it
        prob = g.laplace_dirichlet()
        prob = dataclasses.replace(prob, grid=dataclasses.replace(prob.grid, count=150, hi=997.0))
        peaks = detect_peaks(scan_spectrum(prob), prominence_decades=2.0)
        assert len(peaks) == 10
        assert abs(peaks[-1].lam_hat - (10 * np.pi) ** 2) <= 1e-4 * (10 * np.pi) ** 2

    def test_pole_point_skipped_not_crashed(self):
        prob = g.loaded_string()
        prob = dataclasses.replace(
            prob, N=40, N_t=40, grid=LambdaGrid("linear", 0.5, 1.5, 3)
        )
        scan = scan_spectrum(prob)
        mid = scan.points[1]
        assert mid.lam == 1.0
        assert mid.skipped
        assert "PoleError" in mid.reason
        assert not scan.points[0].skipped
        assert not scan.points[2].skipped

    def test_programming_error_propagates(self, monkeypatch):
        # only evaluation errors mark a point skipped; a bug is not a reason
        def broken(problem, lam):
            raise TypeError("bug in assembly")

        monkeypatch.setattr(gpeigen.scan, "assemble_blocks", broken)
        with pytest.raises(TypeError, match="bug in assembly"):
            scan_spectrum(small_laplace())

    def test_all_points_failing_raises(self):
        prob = g.laplace_dirichlet()
        prob = dataclasses.replace(
            prob, grid=LambdaGrid("linear", -2.0, -1.0, 3)
        )
        with pytest.raises(ScanError):
            scan_spectrum(prob)

    def test_every_evaluation_conditions_through_posterior_covariance(
        self, monkeypatch
    ):
        # the sweep and the refinement both reach the one conditioning entry
        lams = []
        inner = gpeigen.scan.posterior_covariance

        def counted(blocks, *args, **kwargs):
            lams.append(blocks.lam)
            return inner(blocks, *args, **kwargs)

        monkeypatch.setattr(gpeigen.scan, "posterior_covariance", counted)
        prob = small_laplace()
        scan = scan_spectrum(prob)
        # the grid in order, then the polish of every candidate
        n = len(scan.points)
        assert lams[:n] == [p.lam for p in scan.points]
        assert len(lams) == n + sum(c.polish_evaluations for c in scan.candidates)
        lams.clear()
        peak = refine_peak(prob, detect_peaks(scan)[0], iterations=8)
        assert len(lams) == peak.evaluations > 0

    def test_evaluate_trace_nonnegative(self):
        prob = small_laplace()
        J, diag = evaluate_trace(prob, 42.0)
        assert J >= 0.0
        assert diag.rank >= 1


def displaced_candidate(problem, lam):
    """A hand-made scan of `problem` whose one candidate, at `lam` with a
    sweep's J of 1, stands far over the floor and waits for the polish at
    `problem`'s own N; its grid index is the grid point nearest `lam`."""
    scan = synthetic_scan([1e-6] * 5)
    gi = int(np.argmin(np.abs(make_lambda_grid(problem.grid) - lam)))
    bracket = ((lam * 0.99, 0.5), (lam * 1.01, 0.5))
    scan.candidates = [PeakRecord(lam, 1.0, gi, polish_evaluations=4, bracket=bracket)]
    scan.fine = problem
    return scan


class TestDeskGrid:
    @pytest.mark.parametrize("shift", [-0.005, 0.005])
    @pytest.mark.parametrize("pid", ["laplace", "cantilever", "loaded-string"])
    def test_window_shift_keeps_every_mode(self, pid, shift):
        # the bench's seeds move each window end by up to 0.5%; on the
        # 150-point desk grid every mode still has its peak, and none is spurious
        prob = build_preset(pid)
        grid = dataclasses.replace(prob.grid, lo=prob.grid.lo * (1 + shift),
                                   hi=prob.grid.hi * (1 + shift))
        peaks = detect_peaks(scan_spectrum(dataclasses.replace(prob, grid=grid)))
        refs = references_in_window(pid, grid.lo, grid.hi)
        matched, unmatched = match_references(peaks, refs, 0.02)
        assert sorted(matched) == list(range(len(refs))) and not unmatched

    def test_laplace_scan_budget(self, tmp_path):
        # one evaluation per grid point, then the polish and refinement of
        # ten peaks (44 + 10 evaluations): a polish regression shows here
        assert gpeigen.cli.main(["scan", "laplace", "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "peaks.json").read_text())
        assert doc["evaluations"]["sweep"] == 150
        polish = sum(rec["polish_evaluations"] for rec in doc["peaks"])
        assert polish + doc["evaluations"]["refine"] <= 60


class TestTwoGridScan:
    def test_sweep_problem_caps_only_what_exceeds_the_desk_size(self):
        paper = g.laplace_dirichlet("paper")
        assert sweep_problem(paper) == dataclasses.replace(paper, N=200, N_t=200)
        odd = dataclasses.replace(paper, N=150)
        assert sweep_problem(odd) == dataclasses.replace(odd, N_t=200)
        desk = g.laplace_dirichlet()
        assert sweep_problem(desk) is desk

    @pytest.mark.parametrize("pid", ["laplace", "cantilever", "loaded-string"])
    def test_desk_scan_evaluates_only_the_problem_it_was_given(self, monkeypatch, pid):
        # a desk scan takes the one-grid path: every evaluation of the sweep
        # and the polish is of the problem itself, and detection makes none
        prob = build_preset(pid)
        prob = dataclasses.replace(prob, grid=dataclasses.replace(prob.grid, count=100))
        seen, inner = [], gpeigen.scan.evaluate_trace

        def spy(problem, lam):
            seen.append(problem)
            return inner(problem, lam)

        monkeypatch.setattr(gpeigen.scan, "evaluate_trace", spy)
        scan = scan_spectrum(prob)
        n = len(seen)
        assert detect_peaks(scan) and scan.fine is None
        assert len(seen) == n > 100
        assert all(p is prob for p in seen)

    def test_every_paper_laplace_peak_is_at_the_problems_own_N(self, laplace_paper):
        prob = laplace_paper.problem
        assert laplace_paper.scan.fine is prob
        for p in laplace_paper.peaks + laplace_paper.refined:
            assert p.fine_error is None
            assert p.J_peak == evaluate_trace(prob, p.lam_hat)[0]
        for p in laplace_paper.peaks:
            assert all(J == evaluate_trace(prob, lam)[0] for lam, J in p.bracket)

    def test_paper_cantilever_lands_within_1e_6(self):
        # the beam is the preset whose sweep-size polish is furthest off
        # (5.8e-5); the polish at N = 500 must remove that error
        run = _scan_and_refine(g.cantilever(scale="paper"))
        grid = run.problem.grid
        refs = references_in_window("cantilever", grid.lo, grid.hi)
        for peaks in (run.peaks, run.refined):
            matched, unmatched = match_references(peaks, refs, 0.02)
            assert sorted(matched) == list(range(5)) and not unmatched
            worst = max(abs(p.lam_hat - refs[k]) / refs[k] for k, p in matched.items())
            assert worst <= 1e-6

    @pytest.mark.parametrize("shift", [3e-4, -3e-4])
    def test_a_peak_displaced_beyond_its_fine_bracket_comes_back(self, shift):
        # the mode pi^2 lies outside the bracket lam (1 +- 1e-4): the polish
        # ends at the bracket end toward it, and the peak is kept unbracketed
        prob, mode = g.laplace_dirichlet(), np.pi**2
        lam = mode * (1 + shift)
        (peak,) = detect_peaks(displaced_candidate(prob, lam), prominence_decades=2.0)
        assert peak.fine_error == f"no maximum within {lam!r} (1 ± 0.0001)"
        assert peak.bracket is None and peak.polish_evaluations > 4 + 3
        assert abs(peak.lam_hat - lam) == pytest.approx(1e-4 * lam)
        assert (peak.lam_hat - lam) * shift < 0
        assert peak.J_peak == evaluate_trace(prob, peak.lam_hat)[0]
        # refinement brackets it by its grid neighbours, and finds the mode
        out = refine_peak(prob, peak, iterations=20)
        assert abs(out.lam_hat - mode) <= 1e-6 * mode

    def test_a_peak_whose_fine_evaluation_fails_comes_back(self, monkeypatch):
        def pole(problem, lam):
            raise PoleError("coefficient denominator vanishes")

        prob, lam = g.laplace_dirichlet(), np.pi**2
        scan = displaced_candidate(prob, lam)
        monkeypatch.setattr(gpeigen.scan, "evaluate_trace", pole)
        (peak,) = detect_peaks(scan, prominence_decades=2.0)
        assert peak.fine_error == "PoleError: coefficient denominator vanishes"
        assert (peak.lam_hat, peak.J_peak, peak.bracket) == (lam, 1.0, None)
        assert peak.polish_evaluations == 4
