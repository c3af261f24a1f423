"""Sweep λ over a grid, evaluate the trace criterion, find and refine peaks.

The per-λ work (assemble blocks, condition, take the trace) is pure, so
grid points can be evaluated in parallel and gathered back in grid order.
Near an eigenvalue J is a Lorentzian in λ, so 1/J is a parabola there: each
grid candidate (a strict local maximum, or a window end above its
neighbour) is polished by parabola steps on 1/J before detection keeps the
peaks whose polished J stands at least `prominence_decades` over the scan
median, and refinement continues the same steps.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import _count
from .operators import assemble_blocks
from .posterior import (
    EVALUATION_ERRORS,
    PseudoinverseDiag,
    _openblas_call,
    posterior_covariance,
)

# The scan's former truncation cut.  `posterior_covariance` factors the
# equilibrated Gram and cuts nothing, so no scan passes it; it stays the
# nominal `rcond` of the scan manifest.
SCAN_RCOND = 1e-11

# The polish stops after a step that moved the best λ by at most this much
# of |λ|: a peak's relative half-width is about 2e-5, and each step that
# close to the vertex gains digits.
REFINE_RTOL = 1e-5

# The evaluations `scan_spectrum` may spend polishing one grid candidate.
POLISH_EVALUATIONS = 8

# A sweep runs at N, N_t <= SWEEP_SIZE (the desk size); each peak is then
# polished at the problem's own N from λ̂(1 ± FINE_STEP) (1e-3 biased it).
SWEEP_SIZE = 200
FINE_STEP = 1e-4

GRID_KINDS = ("linear", "log", "power_root")


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
    """The decay fit needs at least two peaks with positive λ and height."""


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
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"need finite lo < hi, got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "count", _count("count", self.count, 2))
        if self.kind == "log" and self.lo <= 0:
            raise ValueError("log grid needs lo > 0")
        if self.kind != "power_root" and self.root is not None:
            raise ValueError(f"{self.kind} grid takes no root")
        if self.kind == "power_root":
            if self.root is None or not 0 < self.root < math.inf:
                raise ValueError("power_root grid needs a finite positive root")
            if self.lo < 0:
                raise ValueError("power_root grid needs lo >= 0")


@dataclass(frozen=True)
class HyperSchedule:
    """Length-scale law l = C * N**-1 * λ**-p with signal variance."""

    C: float
    p: float
    variance: float

    def __post_init__(self):
        if not 0 < self.C < math.inf:  # also rejects nan
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if not 0 <= self.p < math.inf:
            raise ValueError(f"p must be nonnegative and finite, got {self.p}")
        if not 0 < self.variance < math.inf:
            raise ValueError(f"variance must be positive and finite, got {self.variance}")


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
    """A peak: the best λ evaluated at the problem's own N (see `fine_error`),
    its J, its grid candidate, and the nearest evaluated (λ, J) on each side."""

    lam_hat: float
    J_peak: float
    grid_index: int
    refined: bool = False
    evaluations: int = 0  # λ-evaluations refinement spent on this peak
    polish_evaluations: int = 0  # those the scan's polish spent on it
    bracket: tuple = None  # ((λ, J) below, (λ, J) above); None off the polish
    fine_error: str = None  # why the polish at the problem's N failed (no bracket then)


@dataclass
class SpectralScan:
    """J per grid point and `scan_spectrum`'s polished candidates (None for a
    scan made by hand) at `sweep_problem`'s N; `fine`: the problem, if larger."""

    points: list
    candidates: list = None
    fine: object = None


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
    """l = C * N**-1 * λ**-p, N an integer >= 1."""
    if not lam > 0:
        raise ValueError(f"length-scale schedule needs lambda > 0, got {lam}")
    return schedule.C / _count("N", N, 1) * lam ** (-schedule.p)


def evaluate_trace(problem, lam: float):
    """J(λ) and the conditioning's diagnostics for one grid point.

    Forms no N_t x N_t matrix.  J is clipped at zero: tiny negatives are
    round-off, and downstream log processing needs J >= 0.
    """
    blocks = assemble_blocks(problem, lam)
    summary = posterior_covariance(blocks, problem.jitter)
    return max(summary.trace_J, 0.0), summary.diag


def _scan_one(problem, lam) -> ScanPoint:
    try:
        J, diag = evaluate_trace(problem, lam)
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


def _best(pts) -> int:
    """Index of the largest J among (λ, J) points, the first on a tie."""
    return max(range(len(pts)), key=lambda i: pts[i][1])


def _vertex(pts):
    """λ at the vertex of the parabola through (λ, 1/J) at the three points
    `pts`, increasing in λ, or None when it opens downward or is not
    finite."""
    (x0, J0), (x1, J1), (x2, J2) = pts
    f0, f1, f2 = (1.0 / max(J, 1e-300) for J in (J0, J1, J2))
    slope = (f1 - f0) / (x1 - x0)
    curvature = ((f2 - f1) / (x2 - x1) - slope) / (x2 - x0)
    if not curvature > 0:
        return None
    x = 0.5 * (x0 + x1) - slope / (2.0 * curvature)
    return x if math.isfinite(x) else None


def _polish(problem, pts, cap: int):
    """Up to `cap` polish steps from `pts`, three (λ, J) increasing in λ.

    The best point is the middle one, or an end one when that end is a
    window end (a one-sided bracket).  Each step evaluates J once: at the
    vertex of the parabola through 1/J at the three points or, when that
    parabola opens downward or its vertex leaves the bracket, halfway from
    the best point toward its higher neighbour (its one neighbour, at a
    window end).  A step that lands within REFINE_RTOL of |λ| of the best
    point while no other point lies within 100 REFINE_RTOL is lengthened to
    REFINE_RTOL: the parabola through far flanks puts its vertex back where
    it was, and J's roundoff cannot order two points that close on a flat
    peak (as Brent's method keeps its steps at least a tolerance long).
    The best of the four points then keeps its nearest evaluated neighbour
    on each side (its two nearest, at a window end).
    The polish stops after a step of at most REFINE_RTOL of |λ| from three
    points of which one lay within 100 REFINE_RTOL of the best: a parabola
    through points far out on the flanks, where J's background bends 1/J,
    moves little from a biased vertex and proves nothing.  It also stops at
    a step onto a λ already evaluated and, one-sided, when the vertex lies
    at or beyond the window end, where no peak inside the window is left;
    the first step probes the end cell's midpoint instead, since a cell as
    wide as a coarse grid's can hide a mode that its end points do not show.
    Returns (pts, evaluations): the peak is interior when the middle point
    is the best.  Evaluation errors propagate.
    """
    evaluations = 0
    while evaluations < cap:
        k = _best(pts)
        best, x = pts[k][0], _vertex(pts)
        if k == 1:
            if x is None or not pts[0][0] < x < pts[2][0]:
                x = 0.5 * (best + pts[0 if pts[0][1] > pts[2][1] else 2][0])
        else:
            inner = pts[1][0]
            if x is not None and (x - best) * (best - inner) >= 0:
                if evaluations:
                    break
                x = None  # the first step probes the end cell's midpoint
            if x is None or not min(inner, best) < x < max(inner, best):
                x = 0.5 * (inner + best)
        if any(x == lam for lam, _ in pts):
            break
        tol = REFINE_RTOL * abs(best)
        near = min(abs(lam - best) for lam, _ in pts if lam != best) <= 100 * tol
        if not near and abs(x - best) < tol:
            x = best + math.copysign(tol, x - best)
        four = sorted(pts + [(x, evaluate_trace(problem, x)[0])])
        evaluations += 1
        start = 0 if _best(four) <= 1 else 1
        pts = four[start : start + 3]
        if near and abs(x - best) <= tol:
            break
    return pts, evaluations


def _log10_J(live) -> np.ndarray:
    return np.log10(np.maximum([p.J for _, p in live], 1e-300))


def _maxima(logJ, ends: bool) -> list:
    """Positions of the strict local maxima of logJ; with `ends`, also an
    end above its one neighbour."""
    n = len(logJ)
    ks = [k for k in range(1, n - 1) if logJ[k] > logJ[k - 1] and logJ[k] > logJ[k + 1]]
    if ends:
        ks = [0] * bool(logJ[0] > logJ[1]) + ks + [n - 1] * bool(logJ[-1] > logJ[-2])
    return ks


def _polish_candidates(problem, points) -> list:
    """Every grid candidate of the scan's evaluated points, polished
    (`_polish`, at most POLISH_EVALUATIONS steps) into a PeakRecord, in
    increasing λ.  A window end whose polish finds no interior maximum is
    dropped; a candidate whose polish raises one of EVALUATION_ERRORS
    stands unpolished."""
    live = [(i, p) for i, p in enumerate(points) if not p.skipped]
    if len(live) < 3:
        return []
    out = []
    for k in _maxima(_log10_J(live), ends=True):
        start = min(max(k - 1, 0), len(live) - 3)
        pts = [(p.lam, p.J) for _, p in live[start : start + 3]]
        try:
            pts, n = _polish(problem, pts, POLISH_EVALUATIONS)
        except EVALUATION_ERRORS:
            n = 0
        if _best(pts) == 1:
            (lam, J), bracket = pts[1], (pts[0], pts[2])
            out.append(PeakRecord(lam, J, live[k][0], polish_evaluations=n, bracket=bracket))
    return out


def sweep_problem(problem):
    """`problem` with N and N_t capped at SWEEP_SIZE; itself when neither exceeds it."""
    if max(problem.N, problem.N_t) <= SWEEP_SIZE:
        return problem
    return dataclasses.replace(problem, N=min(problem.N, SWEEP_SIZE), N_t=min(problem.N_t, SWEEP_SIZE))


def scan_spectrum(problem, jobs: int = 1) -> SpectralScan:
    """Evaluate J over the problem's λ grid, then polish every candidate.

    Serial by default (bitwise reproducible); jobs > 1 evaluates grid
    points in worker processes, each on one BLAS thread, and gathers
    results in grid order; J then matches the serial J, conditioned at the
    library's thread count, to roundoff.  Points whose evaluation raises
    one of EVALUATION_ERRORS (coefficient poles, degenerate assemblies, a
    Gram that is not positive definite) are marked skipped with the reason;
    the scan fails only if every point does.  The sweep and the polish of
    the candidates (`_polish_candidates`, on this thread) run on `sweep_problem(problem)`.
    """
    jobs = _count("jobs", jobs, 1)
    lams = make_lambda_grid(problem.grid)
    sweep = sweep_problem(problem)
    evaluate = functools.partial(_scan_one, sweep)
    # fork starts every worker at the first submit: no more than there are λ
    workers = min(jobs, len(lams))
    if workers > 1:
        # imported only here: loading multiprocessing takes 10-20 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_one_blas_thread) as pool:
            chunk = max(1, len(lams) // (4 * workers))
            points = list(pool.map(evaluate, lams, chunksize=chunk))
    else:
        points = list(map(evaluate, lams))
    if all(p.skipped for p in points):
        reasons = {p.reason for p in points}
        raise ScanError(f"all {len(points)} grid points failed: {sorted(reasons)}")
    return SpectralScan(points, _polish_candidates(sweep, points), None if sweep is problem else problem)


def _fine_polish(problem, peak: PeakRecord) -> PeakRecord:
    """`peak`, found on a smaller sweep, polished at `problem`'s N from λ̂ and
    λ̂(1 ± FINE_STEP).  If that raises one of EVALUATION_ERRORS or ends at a
    bracket end, the peak is kept without a bracket, and says why."""
    lam, step = peak.lam_hat, FINE_STEP * abs(peak.lam_hat)
    try:
        pts = [(x, evaluate_trace(problem, x)[0]) for x in (lam - step, lam, lam + step)]
        pts, n = _polish(problem, pts, POLISH_EVALUATIONS)
    except EVALUATION_ERRORS as exc:
        return dataclasses.replace(peak, bracket=None, fine_error=f"{type(exc).__name__}: {exc}")
    k, n = _best(pts), peak.polish_evaluations + 3 + n
    error = None if k == 1 else f"no maximum within {lam!r} (1 ± {FINE_STEP:g})"
    bracket = (pts[0], pts[2]) if k == 1 else None
    return dataclasses.replace(peak, lam_hat=pts[k][0], J_peak=pts[k][1], polish_evaluations=n,
                               bracket=bracket, fine_error=error)


def detect_peaks(scan: SpectralScan, prominence_decades: float = 2.0):
    """The candidates whose log10 J stands `prominence_decades` or more
    over the median of the scan's log10 J.

    The candidates are `scan.candidates`, polished by `scan_spectrum`, so
    both the floor and any ranking by `J_peak` see polished heights (with
    `scan.fine`, each peak over the floor is polished again at its N).  A
    scan without them offers the interior strict local maxima of its grid's
    log10 J as they stand.  Skipped points are dropped before neighbor
    comparison, so a peak's neighbors are the nearest evaluated points.
    grid_index refers back to the original grid.  Returned in increasing λ
    (so equal-height peaks resolve toward smaller λ).
    """
    if not prominence_decades > 0:
        raise ValueError("prominence_decades must be positive")
    live = [(i, p) for i, p in enumerate(scan.points) if not p.skipped]
    if len(live) < 3:
        raise TooFewPointsError(
            f"peak detection needs >= 3 evaluated points, got {len(live)}"
        )
    logJ = _log10_J(live)
    floor = float(np.median(logJ)) + prominence_decades
    peaks = scan.candidates
    if peaks is None:
        peaks = [
            PeakRecord(lam_hat=live[k][1].lam, J_peak=live[k][1].J, grid_index=live[k][0])
            for k in _maxima(logJ, ends=False)
        ]
    peaks = [p for p in peaks if np.log10(max(p.J_peak, 1e-300)) >= floor]
    return peaks if scan.fine is None else [_fine_polish(scan.fine, p) for p in peaks]


def refine_peak(problem, peak: PeakRecord, iterations: int) -> PeakRecord:
    """Continue the polish of `peak` for at most `iterations` steps.

    `_polish` resumes from the peak and its bracket, and stops after a step
    of at most REFINE_RTOL of |λ| (or at the cap).  A record without a
    bracket, one not made by `scan_spectrum`, is bracketed by its two grid
    neighbours, evaluated first.  Near a peak 1/J is a parabola in λ (J
    is a Lorentzian of relative half-width about 2e-5), so each step close
    to the vertex gains digits.  Returns the best λ evaluated, never worse
    than the input peak, with the number of J evaluations spent (0 when
    iterations is 0).  Evaluation errors propagate.
    """
    iterations = _count("iterations", iterations, 0)
    bracket = peak.bracket
    if bracket is None:
        lams = make_lambda_grid(problem.grid)
        gi = peak.grid_index
        if gi <= 0 or gi >= len(lams) - 1:
            raise ValueError(f"peak at grid index {gi} lacks a neighbor to bracket with")
    evaluations = 0
    if iterations > 0:
        if bracket is None:
            bracket = [(float(lam), evaluate_trace(problem, lam)[0]) for lam in lams[[gi - 1, gi + 1]]]
            evaluations = 2
        pts = [bracket[0], (peak.lam_hat, peak.J_peak), bracket[1]]
        pts, n = _polish(problem, pts, iterations)
        (lam, J), bracket, evaluations = pts[_best(pts)], (pts[0], pts[2]), evaluations + n
        peak = dataclasses.replace(peak, lam_hat=float(lam), J_peak=float(J), bracket=bracket)
    return dataclasses.replace(peak, refined=True, evaluations=evaluations)


def fit_decay_slope(peaks):
    """Least-squares fit of log10 J_peak against log10 λ_hat, over the
    peaks where both are positive."""
    pts = [(p.lam_hat, p.J_peak) for p in peaks if p.lam_hat > 0 and p.J_peak > 0]
    if len(pts) < 2:
        raise InsufficientPeaksError(
            f"decay fit needs >= 2 peaks with positive lambda and J, got {len(pts)}"
        )
    lx = np.log10([p[0] for p in pts])
    ly = np.log10([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)
