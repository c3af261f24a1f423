"""λ grids, length-scale schedule, scanning, peak detection, refinement."""

import dataclasses
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import gpeigen as g
import gpeigen.scan
from gpeigen.scan import (
    REFINE_RTOL,
    SCAN_RCOND,
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
)


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
            HyperSchedule(C=1.0, p=0.5, variance=0.0)


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
        # every probe of J is counted; Brent needs fewer than the 31 a
        # golden-section search spends to shrink the bracket by 2**-20
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

    def test_stops_at_relative_tolerance(self, laplace_desk):
        # 2**-60 of the bracket asks for far less than J can resolve; the
        # search stops at REFINE_RTOL of λ instead, near the 20-step result
        i = len(laplace_desk.peaks) // 2
        out = refine_peak(laplace_desk.problem, laplace_desk.peaks[i], iterations=60)
        ref = laplace_desk.refined[i].lam_hat
        assert 0 < out.evaluations <= 16
        assert abs(out.lam_hat - ref) <= 2 * REFINE_RTOL * ref

    def test_rejects_negative_iterations(self, laplace_desk):
        with pytest.raises(ValueError):
            refine_peak(laplace_desk.problem, laplace_desk.peaks[0], iterations=-1)

    def test_rejects_edge_peak(self, laplace_desk):
        edge = PeakRecord(lam_hat=1.0, J_peak=1.0, grid_index=0)
        with pytest.raises(ValueError):
            refine_peak(laplace_desk.problem, edge, iterations=4)


def small_laplace():
    prob = g.laplace_dirichlet()
    return dataclasses.replace(
        prob, N=40, N_t=40, grid=LambdaGrid("log", 5.0, 120.0, 24)
    )


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

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        # two BLAS threads in each of several workers oversubscribe the cores
        if blas_threads() is None:
            pytest.skip("no OpenBLAS found in numpy.libs")
        seen = []

        class Recording(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                seen.append(self.submit(blas_threads).result())
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(gpeigen.scan, "ProcessPoolExecutor", Recording)
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

        monkeypatch.setattr(gpeigen.scan, "ProcessPoolExecutor", InProcess)
        prob = dataclasses.replace(
            small_laplace(), grid=LambdaGrid("log", 5.0, 120.0, 3)
        )
        scan = scan_spectrum(prob, jobs=100_000)
        assert sizes == [3]
        assert [p.J for p in scan.points] == [p.J for p in scan_spectrum(prob).points]

    def test_small_scan_finds_first_two_modes(self):
        scan = scan_spectrum(small_laplace())
        peaks = detect_peaks(scan, prominence_decades=2.0)
        refs = [np.pi**2, 4.0 * np.pi**2]
        assert len(peaks) >= 2
        for ref in refs:
            best = min(peaks, key=lambda p: abs(p.lam_hat - ref))
            assert abs(best.lam_hat - ref) / ref <= 0.05

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
        assert lams == [p.lam for p in scan.points]
        lams.clear()
        peak = refine_peak(prob, detect_peaks(scan)[0], iterations=8)
        assert len(lams) == peak.evaluations > 0

    def test_evaluate_trace_nonnegative(self):
        prob = small_laplace()
        J, diag = evaluate_trace(prob, 42.0, SCAN_RCOND)
        assert J >= 0.0
        assert diag.rank >= 1
