"""Sweep λ over a grid, evaluate the trace criterion, find and refine peaks.

The per-λ work (assemble blocks, condition, take the trace) is pure, so
grid points can be evaluated in parallel and gathered back in grid order.
Peaks are strict local maxima of log10 J with at least `prominence_decades`
of height over the scan median; refinement runs a derivative-free
golden-section maximization between the peak's grid neighbors.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .operators import assemble_blocks
from .posterior import PseudoinverseDiag, condition
# unused here, but bench/spans.py patches gpeigen.scan.posterior_covariance
from .posterior import posterior_covariance  # noqa: F401

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Truncation default for the scan stage. Looser than the posterior module's
# 1e-12 on purpose: dropping the smallest kept directions widens the resonance
# peaks enough that a few-hundred-point grid cannot step over them, and it
# removes the rank flicker (jitter floor in, jitter floor out) that shows up
# as spurious baseline bumps on coarse grids. Callers that want the sharp
# posterior can always pass rcond explicitly.
SCAN_RCOND = 1e-11

GRID_KINDS = ("linear", "log", "power_root")


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


@dataclass(frozen=True)
class PeakRecord:
    lam_hat: float
    J_peak: float
    grid_index: int
    refined: bool = False


@dataclass
class SpectralScan:
    problem_id: str
    grid: LambdaGrid
    schedule: HyperSchedule
    points: list
    peaks: list = field(default_factory=list)


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
    blocks = assemble_blocks(problem, lam)
    _, _, J, diag = condition(blocks, problem.jitter, rcond)
    return max(J, 0.0), diag


def _scan_one(args) -> ScanPoint:
    problem, lam, rcond = args
    try:
        J, diag = evaluate_trace(problem, lam, rcond)
    except Exception as exc:
        return ScanPoint(
            lam=float(lam),
            J=0.0,
            diag=None,
            skipped=True,
            reason=f"{type(exc).__name__}: {exc}",
        )
    return ScanPoint(lam=float(lam), J=J, diag=diag)


def scan_spectrum(problem, jobs: int = None, rcond: float = SCAN_RCOND) -> SpectralScan:
    """Evaluate J over the problem's λ grid.

    Serial by default (bitwise reproducible); jobs > 1 evaluates grid
    points in worker processes and gathers results in grid order.  Points
    that fail (coefficient poles, degenerate assemblies) are marked
    skipped with the reason; the scan fails only if every point does.
    """
    lams = make_lambda_grid(problem.grid)
    tasks = [(problem, lam, rcond) for lam in lams]
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(tasks) // (4 * jobs))
            points = list(pool.map(_scan_one, tasks, chunksize=chunk))
    else:
        points = [_scan_one(t) for t in tasks]
    if all(p.skipped for p in points):
        reasons = {p.reason for p in points}
        raise ScanError(f"all {len(points)} grid points failed: {sorted(reasons)}")
    return SpectralScan(
        problem_id=problem.problem_id,
        grid=problem.grid,
        schedule=problem.schedule,
        points=points,
    )


def detect_peaks(scan: SpectralScan, prominence_decades: float = 2.0):
    """Interior strict local maxima of log10 J, prominent over the median.

    Skipped points are dropped before neighbor comparison, so a peak's
    neighbors are the nearest evaluated points.  grid_index refers back to
    the original grid.  Returned sorted by λ (ascending, so equal-height
    peaks resolve toward smaller λ).
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
    """Golden-section maximization of J between the peak's grid neighbors.

    Runs until the bracket width drops below (neighbor gap) / 2**iterations
    and returns the best λ evaluated, never worse than the input peak.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    lams = make_lambda_grid(problem.grid)
    gi = peak.grid_index
    if gi <= 0 or gi >= len(lams) - 1:
        raise ValueError(f"peak at grid index {gi} lacks a neighbor to bracket with")
    a, b = float(lams[gi - 1]), float(lams[gi + 1])
    target = (b - a) / 2.0**iterations
    best_lam, best_J = peak.lam_hat, peak.J_peak
    if iterations > 0:
        x1 = b - GOLDEN * (b - a)
        x2 = a + GOLDEN * (b - a)
        f1 = evaluate_trace(problem, x1, rcond)[0]
        f2 = evaluate_trace(problem, x2, rcond)[0]
        for lam, J in ((x1, f1), (x2, f2)):
            if J > best_J:
                best_lam, best_J = lam, J
        while b - a > target:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + GOLDEN * (b - a)
                f2 = evaluate_trace(problem, x2, rcond)[0]
                if f2 > best_J:
                    best_lam, best_J = x2, f2
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - GOLDEN * (b - a)
                f1 = evaluate_trace(problem, x1, rcond)[0]
                if f1 > best_J:
                    best_lam, best_J = x1, f1
    return PeakRecord(
        lam_hat=float(best_lam),
        J_peak=float(best_J),
        grid_index=gi,
        refined=True,
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
