"""The four benchmark workloads, their output guard and their accuracy scores.

Everything here drives gpeigen from outside, through the public functions
``problems.build_preset``, ``scan.scan_spectrum``, ``scan.detect_peaks``,
``scan.refine_peak``, ``operators.assemble_blocks``,
``posterior.posterior_covariance`` and ``posterior.sample_posterior``
(reached through an ``Api`` record so the traced run can swap in
span-recording wrappers), plus the reference oracle
``problems.reference_eigenvalues``.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import gpeigen.scan
from gpeigen.operators import assemble_blocks
from gpeigen.posterior import DEFAULT_RCOND, posterior_covariance, sample_posterior
from gpeigen.problems import build_preset, reference_eigenvalues
from gpeigen.scan import SCAN_RCOND, detect_peaks, refine_peak, scan_spectrum

# What `gpeigen scan` uses: golden-section depth and detection threshold.
REFINE_ITERATIONS = 20
PROMINENCE_DECADES = 2.0
# Acceptance tolerances of the recovery criteria (02/03 and 05/06).
TOLERANCE = {"laplace": 0.02, "cantilever": 0.05, "loaded-string": 0.05}
# Largest relative shift a nonzero seed applies to each λ-window end.  The
# nearest reference to any preset window end is 1.3% inside it, so no
# reference mode enters or leaves a window.
WINDOW_SHIFT = 0.005
# Eigenfunction scoring, as in criterion 07.
EIGEN_MODES = 10
SAMPLES_PER_MODE = 10
COS_MIN = 0.99


@dataclass(frozen=True)
class Api:
    scan_spectrum: object = scan_spectrum
    detect_peaks: object = detect_peaks
    refine_peak: object = refine_peak
    assemble_blocks: object = assemble_blocks
    posterior_covariance: object = posterior_covariance
    sample_posterior: object = sample_posterior


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple
    scale: str
    # "all" refines every interior peak, an int k the k tallest, 0 none.
    refine: object = 0
    eigenfunctions: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("laplace-desk", ("laplace",), "desk", refine="all"),
        Workload("laplace-paper", ("laplace",), "paper", refine=6),
        Workload("boundary-desk", ("cantilever", "loaded-string"), "desk"),
        Workload("eigenfunctions", ("laplace",), "paper", eigenfunctions=True),
    )
}


@dataclass(frozen=True)
class Shrink:
    """Override of N, N_t and the grid count, for smoke tests only."""

    N: int
    N_t: int
    n_lambda: int


def build_problems(wl: Workload, seed: int, shrink: Shrink = None):
    """The workload's problems; seed 0 keeps the preset grids bit for bit.

    A nonzero seed moves each λ-window end by a relative amount drawn from
    [-WINDOW_SHIFT, WINDOW_SHIFT]; N, N_t and the grid count never change.
    The eigenfunctions workload has no window, so only its sampling seeds
    depend on the seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    for pid in wl.presets:
        prob = build_preset(pid, wl.scale)
        if shrink is not None:
            prob = dataclasses.replace(
                prob,
                N=shrink.N,
                N_t=shrink.N_t,
                grid=dataclasses.replace(prob.grid, count=shrink.n_lambda),
            )
        if seed and not wl.eigenfunctions:
            d_lo, d_hi = rng.uniform(-WINDOW_SHIFT, WINDOW_SHIFT, 2)
            g = prob.grid
            prob = dataclasses.replace(
                prob, grid=dataclasses.replace(g, lo=g.lo * (1 + d_lo), hi=g.hi * (1 + d_hi))
            )
        out.append(prob)
    return out


def sample_seed(seed: int, mode: int) -> int:
    return 1000 * seed + mode


def warm_up(wl: Workload, problems) -> float:
    """One λ-evaluation on the first problem, as the workload makes them."""
    prob = problems[0]
    if wl.eigenfunctions:
        lam, rcond = math.pi**2, DEFAULT_RCOND
    else:
        lam, rcond = math.sqrt(prob.grid.lo * prob.grid.hi), SCAN_RCOND
    return posterior_covariance(assemble_blocks(prob, lam), prob.jitter, rcond).trace_J


@functools.lru_cache(maxsize=None)
def references(pid: str, lo: float, hi: float):
    count = 8
    while True:
        refs = reference_eigenvalues(pid, count)
        if refs[-1] > hi:
            return [r for r in refs if lo <= r <= hi]
        count *= 2


@dataclass
class ProblemOutcome:
    problem: object
    points: list
    reported: list  # PeakRecord per detected peak, refined where chosen
    refine_failures: int = 0


@dataclass
class ModeOutcome:
    mode: int
    trace_J: float
    x_test: np.ndarray
    samples: list


@dataclass
class Rep:
    """One timed repetition of a workload."""

    spectrum_s: float
    loop_s: float  # scan_spectrum wall, or conditioning wall for eigenfunctions
    loop_points: int
    evals: int  # λ-evaluations attempted
    failed: int
    problems: list = field(default_factory=list)
    modes: list = field(default_factory=list)


@contextmanager
def counting_evals():
    """Count the λ-evaluations scan_spectrum and refine_peak make.

    Both call evaluate_trace through the gpeigen.scan namespace; the
    counter adds one increment per call and records no time.
    """
    count = [0]
    inner = gpeigen.scan.evaluate_trace

    def counted(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)

    gpeigen.scan.evaluate_trace = counted
    try:
        yield count
    finally:
        gpeigen.scan.evaluate_trace = inner


def _chosen(wl: Workload, peaks, n_points: int):
    interior = [i for i, p in enumerate(peaks) if 0 < p.grid_index < n_points - 1]
    if wl.refine == "all":
        return set(interior)
    tallest = sorted(interior, key=lambda i: -peaks[i].J_peak)
    return set(tallest[: wl.refine])


def run_once(wl: Workload, problems, seed: int, api: Api = Api(), tracer=None) -> Rep:
    """Run the workload once; the timed region is the program's work only."""
    root = tracer.span("bench.workload") if tracer is not None else nullcontext()
    with counting_evals() as evals:
        t0 = perf_counter()
        with root:
            if wl.eigenfunctions:
                rep = _eigenfunctions(problems[0], seed, api)
            else:
                rep = _sweeps(wl, problems, api)
        rep.spectrum_s = perf_counter() - t0
    rep.evals += evals[0]
    return rep


def _sweeps(wl: Workload, problems, api: Api) -> Rep:
    rep = Rep(0.0, 0.0, 0, 0, 0)
    for prob in problems:
        t = perf_counter()
        scan = api.scan_spectrum(prob, jobs=1)
        rep.loop_s += perf_counter() - t
        rep.loop_points += len(scan.points)
        rep.failed += sum(p.skipped for p in scan.points)
        peaks = api.detect_peaks(scan, prominence_decades=PROMINENCE_DECADES)
        chosen = _chosen(wl, peaks, len(scan.points))
        outcome = ProblemOutcome(prob, scan.points, [])
        for i, p in enumerate(peaks):
            if i in chosen:
                try:
                    p = api.refine_peak(prob, p, REFINE_ITERATIONS)
                except (ArithmeticError, ValueError, RuntimeError):
                    # gpeigen's evaluation errors; the unrefined peak stays
                    outcome.refine_failures += 1
            outcome.reported.append(p)
        rep.failed += outcome.refine_failures
        rep.problems.append(outcome)
    return rep


def _eigenfunctions(prob, seed: int, api: Api) -> Rep:
    rep = Rep(0.0, 0.0, 0, 0, 0)
    for n in range(1, EIGEN_MODES + 1):
        t = perf_counter()
        summary = api.posterior_covariance(
            api.assemble_blocks(prob, (n * math.pi) ** 2), prob.jitter, DEFAULT_RCOND
        )
        rep.loop_s += perf_counter() - t
        rep.loop_points += 1
        rep.evals += 1
        samples = api.sample_posterior(
            summary, SAMPLES_PER_MODE, seed=sample_seed(seed, n), normalization="sup_norm"
        )
        rep.modes.append(ModeOutcome(n, summary.trace_J, summary.x_test, samples))
    return rep


# --- output guard -----------------------------------------------------------


def invalid_output(rep: Rep) -> list:
    """Reasons the program's output is malformed; empty when it is valid.

    Recovery quality is not judged here: a missed or misplaced peak is a
    score, not an invalid output.
    """
    errors = []
    for out in rep.problems:
        pid, grid = out.problem.problem_id, out.problem.grid
        if len(out.points) != grid.count:
            errors.append(f"{pid}: {len(out.points)} scan points, grid has {grid.count}")
        for pt in out.points:
            if not pt.skipped and not (math.isfinite(pt.J) and pt.J >= 0.0):
                errors.append(f"{pid}: J({pt.lam:.6g}) = {pt.J!r}")
        for pk in out.reported:
            if not (math.isfinite(pk.J_peak) and pk.J_peak >= 0.0):
                errors.append(f"{pid}: peak J({pk.lam_hat:.6g}) = {pk.J_peak!r}")
            if not grid.lo <= pk.lam_hat <= grid.hi:
                errors.append(f"{pid}: peak at {pk.lam_hat!r} outside the window")
    for m in rep.modes:
        if not (math.isfinite(m.trace_J) and m.trace_J >= 0.0):
            errors.append(f"mode {m.mode}: J = {m.trace_J!r}")
        if len(m.samples) != SAMPLES_PER_MODE:
            errors.append(f"mode {m.mode}: {len(m.samples)} samples")
        for s in m.samples:
            v = np.asarray(s.values)
            if v.shape != m.x_test.shape or not np.all(np.isfinite(v)):
                errors.append(f"mode {m.mode}: malformed sample of shape {v.shape}")
            elif abs(np.max(np.abs(v)) - 1.0) > 1e-12:
                errors.append(f"mode {m.mode}: sample not sup-normalized")
            if not (math.isfinite(s.residual) and s.residual >= 0.0):
                errors.append(f"mode {m.mode}: residual {s.residual!r}")
    return errors


# --- accuracy ---------------------------------------------------------------


def match_peaks(lams, refs, rel_tol: float):
    """(references with a peak within rel_tol, peaks near no reference)."""
    refs = np.asarray(refs, dtype=float)
    hit = set()
    spurious = 0
    for lam in lams:
        close = np.flatnonzero(np.abs(refs - lam) <= rel_tol * refs)
        if close.size:
            hit.update(close.tolist())
        else:
            spurious += 1
    return len(hit), spurious


def cosines(mode: ModeOutcome):
    target = np.sin(mode.mode * math.pi * mode.x_test)
    t_norm = np.linalg.norm(target)
    return [
        abs(float(np.dot(s.values, target))) / (np.linalg.norm(s.values) * t_norm)
        for s in mode.samples
    ]


def score(rep: Rep) -> dict:
    """Recovery metrics of one repetition."""
    matched = spurious = 0
    rel_err_max = 0.0
    per_problem = {}
    for out in rep.problems:
        g = out.problem.grid
        pid = out.problem.problem_id
        refs = references(pid, g.lo, g.hi)
        m, s = match_peaks([p.lam_hat for p in out.reported], refs, TOLERANCE[pid])
        matched += m
        spurious += s
        per_problem[pid] = {"matched": m, "references": len(refs), "spurious": s}
        all_refs = np.asarray(references(pid, 0.0, 2.0 * g.hi))
        for p in out.reported:
            if p.refined:
                rel = float(np.min(np.abs(all_refs - p.lam_hat) / all_refs))
                rel_err_max = max(rel_err_max, rel)
    cos_min = {m.mode: min(cosines(m)) for m in rep.modes}
    eigfns = sum(bool(c >= COS_MIN) for c in cos_min.values())
    return {
        "skipped": sum(p.skipped for o in rep.problems for p in o.points),
        "peaks_matched": matched,
        "peaks_spurious": spurious,
        "eigfns_matched": eigfns,
        "modes_matched": matched + eigfns,
        "refine_rel_err_max": rel_err_max,
        "per_problem": per_problem,
        "cos_min": cos_min,
    }
