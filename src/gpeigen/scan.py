"""Sweep λ over a grid, evaluate the trace criterion, find and refine peaks.

The per-λ work (assemble blocks, condition, take the trace) is pure, so
grid points can be evaluated in parallel and gathered back in grid order.
Peaks are strict local maxima of log10 J with at least `prominence_decades`
of height over the scan median; refinement maximizes J between the peak's
grid neighbors by a bounded Brent search on -log10 J.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .operators import assemble_blocks
from .posterior import DecompositionError, PseudoinverseDiag, posterior_covariance

# Truncation default for the scan stage. Looser than the posterior module's
# 1e-12 on purpose: dropping the smallest kept directions widens the resonance
# peaks enough that a few-hundred-point grid cannot step over them, and it
# removes the rank flicker (jitter floor in, jitter floor out) that shows up
# as spurious baseline bumps on coarse grids. Callers that want the sharp
# posterior can always pass rcond explicitly.
SCAN_RCOND = 1e-11

# Refinement's bracket width relative to λ: J is flat to roundoff over about
# 2e-5 of λ near a desk peak, and the indicator's own bias is 0.2-1%.
REFINE_RTOL = 1e-5

GRID_KINDS = ("linear", "log", "power_root")

# What a failed λ-evaluation may raise: ArithmeticError covers PoleError and
# float overflow; ValueError covers the schedule's λ <= 0, KernelSpec,
# GridError, UnsupportedOrderError and numpy.linalg.LinAlgError.  Anything
# else is a programming error and propagates.
EVALUATION_ERRORS = (ArithmeticError, ValueError, DecompositionError)


# dlopen flags that open a library only if the process has loaded it (POSIX)
_LOADED_ONLY = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_LAZY", 0)


def _openblas_call(name: str, *args):
    """Call `name` (e.g. "get_num_threads") in the OpenBLAS numpy loaded.

    Looks in the wheel's numpy.libs for a library already in the process,
    and in it for the scipy-openblas (numpy 2), the 64-bit (numpy 1) and the
    plain symbol.  Returns None when none is found.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=_LOADED_ONLY)
        except OSError:
            continue  # not loaded in this process
        syms = (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}")
        for sym in syms:
            fn = getattr(lib, sym, None)
            if fn is not None:
                return fn(*args)
    return None


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, or None when none is found."""
    return _openblas_call("get_num_threads")


def _one_blas_thread():
    """Pool initializer: the workers share the cores, so each gets one BLAS
    thread; two BLAS threads per worker made a 4-worker desk scan on two
    cores 3-7 times slower."""
    _openblas_call("set_num_threads", 1)


class ScanError(RuntimeError):
    """Every grid point failed; there is no spectrum to return."""


class TooFewPointsError(ValueError):
    """Peak detection needs at least three non-skipped points."""


class InsufficientPeaksError(ValueError):
    """The decay fit needs at least two peaks with positive height."""


@dataclass(frozen=True)
class LambdaGrid:
    """λ grid: linear, logarithmic, or uniform in λ**(1/root)."""

    kind: str
    lo: float
    hi: float
    count: int
    root: float = None

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.count < 2:
            raise ValueError(f"count must be at least 2, got {self.count}")
        if self.kind == "log" and self.lo <= 0:
            raise ValueError("log grid needs lo > 0")
        if self.kind != "power_root" and self.root is not None:
            raise ValueError(f"{self.kind} grid takes no root")
        if self.kind == "power_root":
            if self.root is None or not self.root > 0:
                raise ValueError("power_root grid needs a positive root")
            if self.lo < 0:
                raise ValueError("power_root grid needs lo >= 0")


@dataclass(frozen=True)
class HyperSchedule:
    """Length-scale law l = C * N**-1 * λ**-p with signal variance."""

    C: float
    p: float
    variance: float

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.p < 0:
            raise ValueError(f"p must be nonnegative, got {self.p}")
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance}")


@dataclass(frozen=True)
class ScanPoint:
    lam: float
    J: float
    diag: PseudoinverseDiag
    skipped: bool = False
    reason: str = ""
    length_scale: float = None  # of the kernel at lam; None when skipped


@dataclass(frozen=True)
class PeakRecord:
    lam_hat: float
    J_peak: float
    grid_index: int
    refined: bool = False
    evaluations: int = 0  # λ-evaluations refinement spent on this peak


@dataclass
class SpectralScan:
    points: list


def make_lambda_grid(grid: LambdaGrid) -> np.ndarray:
    """Deterministic monotone grid of exactly grid.count values.

    Endpoints are pinned exactly so windows stated as [lo, hi] are honored
    bit-for-bit regardless of the spacing transform.
    """
    if grid.kind == "linear":
        vals = np.linspace(grid.lo, grid.hi, grid.count)
    elif grid.kind == "log":
        vals = 10.0 ** np.linspace(
            math.log10(grid.lo), math.log10(grid.hi), grid.count
        )
    else:
        r = grid.root
        vals = np.linspace(grid.lo ** (1.0 / r), grid.hi ** (1.0 / r), grid.count) ** r
    vals[0] = grid.lo
    vals[-1] = grid.hi
    return vals


def length_scale(schedule: HyperSchedule, lam: float, N: int) -> float:
    """l = C * N**-1 * λ**-p."""
    if not lam > 0:
        raise ValueError(f"length-scale schedule needs lambda > 0, got {lam}")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    return schedule.C / N * lam ** (-schedule.p)


def evaluate_trace(problem, lam: float, rcond: float = SCAN_RCOND):
    """J(λ) and pseudoinverse diagnostics for a single grid point.

    Forms no N_t x N_t matrix.  J is clipped at zero: tiny negatives are
    round-off, and downstream log processing needs J >= 0.
    """
    summary = posterior_covariance(assemble_blocks(problem, lam), problem.jitter, rcond)
    return max(summary.trace_J, 0.0), summary.diag


def _scan_one(args) -> ScanPoint:
    problem, lam, rcond = args
    try:
        J, diag = evaluate_trace(problem, lam, rcond)
    except EVALUATION_ERRORS as exc:
        return ScanPoint(
            lam=float(lam),
            J=0.0,
            diag=None,
            skipped=True,
            reason=f"{type(exc).__name__}: {exc}",
        )
    ell = problem.kernel_at(lam).length_scale
    return ScanPoint(lam=float(lam), J=J, diag=diag, length_scale=ell)


def scan_spectrum(problem, jobs: int = 1, rcond: float = SCAN_RCOND) -> SpectralScan:
    """Evaluate J over the problem's λ grid.

    Serial by default (bitwise reproducible); jobs > 1 evaluates grid
    points in worker processes, each on one BLAS thread, and gathers
    results in grid order; J then matches the serial J to roundoff, not
    bit for bit.  Points whose evaluation raises one of EVALUATION_ERRORS
    (coefficient poles, degenerate assemblies) are marked skipped with the
    reason; the scan fails only if every point does.
    """
    lams = make_lambda_grid(problem.grid)
    tasks = [(problem, lam, rcond) for lam in lams]
    # fork starts every worker at the first submit: no more than there are λ
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_one_blas_thread) as pool:
            chunk = max(1, len(tasks) // (4 * workers))
            points = list(pool.map(_scan_one, tasks, chunksize=chunk))
    else:
        points = [_scan_one(t) for t in tasks]
    if all(p.skipped for p in points):
        reasons = {p.reason for p in points}
        raise ScanError(f"all {len(points)} grid points failed: {sorted(reasons)}")
    return SpectralScan(points=points)


def detect_peaks(scan: SpectralScan, prominence_decades: float = 2.0):
    """Interior strict local maxima of log10 J, prominent over the median.

    Skipped points are dropped before neighbor comparison, so a peak's
    neighbors are the nearest evaluated points.  grid_index refers back to
    the original grid.  Returned in increasing λ (so equal-height peaks
    resolve toward smaller λ).
    """
    if not prominence_decades > 0:
        raise ValueError("prominence_decades must be positive")
    live = [(i, p) for i, p in enumerate(scan.points) if not p.skipped]
    if len(live) < 3:
        raise TooFewPointsError(
            f"peak detection needs >= 3 evaluated points, got {len(live)}"
        )
    logJ = np.log10(np.maximum([p.J for _, p in live], 1e-300))
    floor = float(np.median(logJ)) + prominence_decades
    peaks = []
    for k in range(1, len(live) - 1):
        if logJ[k] > logJ[k - 1] and logJ[k] > logJ[k + 1] and logJ[k] >= floor:
            idx, pt = live[k]
            peaks.append(PeakRecord(lam_hat=pt.lam, J_peak=pt.J, grid_index=idx))
    return peaks


def refine_peak(
    problem, peak: PeakRecord, iterations: int, rcond: float = SCAN_RCOND
) -> PeakRecord:
    """Maximize J between the peak's grid neighbors by Brent's method.

    Minimizes -log10 J over the bracket with scipy's bounded Brent search
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5),
    asking for xatol = max((neighbor gap) / 2**iterations, REFINE_RTOL *
    λ_peak), so the search ends when its bracket is about REFINE_RTOL of
    the peak's λ wide, or 2**-iterations of the gap if that is wider.  Near
    a desk-scale peak J is flat to its roundoff (about 1e-8 relative) over
    some 2e-5 of λ, so the maximizer is only defined to that width, and the
    indicator's own bias of 0.2-1% lies far above it.  Returns the best λ
    evaluated, never worse than the input peak, with the number of J
    evaluations spent (0 when iterations is 0).  Evaluation errors
    propagate.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    lams = make_lambda_grid(problem.grid)
    gi = peak.grid_index
    if gi <= 0 or gi >= len(lams) - 1:
        raise ValueError(f"peak at grid index {gi} lacks a neighbor to bracket with")
    a, b = float(lams[gi - 1]), float(lams[gi + 1])
    best_lam, best_J = peak.lam_hat, peak.J_peak
    evaluations = 0
    if iterations > 0:
        # Imported here: only refinement needs scipy, so sweeps never load it.
        from scipy.optimize import minimize_scalar

        xatol = max((b - a) / 2.0**iterations, REFINE_RTOL * peak.lam_hat)

        def neg_log_J(lam):
            nonlocal best_lam, best_J
            J = evaluate_trace(problem, lam, rcond)[0]
            if J > best_J:
                best_lam, best_J = lam, J
            return -math.log10(max(J, 1e-300))

        fit = minimize_scalar(
            neg_log_J,
            bounds=(a, b),
            method="bounded",
            options={"xatol": xatol},
        )
        evaluations = fit.nfev
    return PeakRecord(
        lam_hat=float(best_lam),
        J_peak=float(best_J),
        grid_index=gi,
        refined=True,
        evaluations=evaluations,
    )


def fit_decay_slope(peaks):
    """Least-squares fit of log10 J_peak against log10 λ_hat."""
    pts = [(p.lam_hat, p.J_peak) for p in peaks if p.J_peak > 0]
    if len(pts) < 2:
        raise InsufficientPeaksError(
            f"decay fit needs >= 2 peaks with positive J, got {len(pts)}"
        )
    lx = np.log10([p[0] for p in pts])
    ly = np.log10([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)
