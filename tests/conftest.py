"""Shared fixtures: the three benchmark scans are expensive enough that
every test module reuses one session-scoped run of each."""

import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gpeigen as g
from gpeigen.posterior import _openblas_call


def run_fresh_interpreter(args, cwd, env=os.environ):
    """Run Python with `args` in a new process that imports this checkout,
    with the environment `env` (this process's by default)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(env, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def set_blas_threads():
    """A setter of the loaded OpenBLAS's thread count, restored after the
    test; skips the test when no OpenBLAS is found."""
    before = _openblas_call("get_num_threads")
    if before is None:
        pytest.skip("no OpenBLAS found in numpy.libs")
    yield lambda n: _openblas_call("set_num_threads", n)
    _openblas_call("set_num_threads", before)


def _scan_and_refine(problem, refine_top=None):
    t0 = time.perf_counter()
    scan = g.scan_spectrum(problem)
    scan_seconds = time.perf_counter() - t0
    peaks = g.detect_peaks(scan, prominence_decades=2.0)
    n = len(scan.points)
    if refine_top is None:
        chosen = set(range(len(peaks)))
    else:
        by_height = sorted(range(len(peaks)), key=lambda i: -peaks[i].J_peak)
        chosen = set(by_height[:refine_top])
    # a polished peak carries its bracket, even at a window end; one without
    # needs a grid neighbour on each side, as `refine_peak` decides
    refined = [
        g.refine_peak(problem, p, iterations=20)
        if i in chosen and (p.bracket is not None or 0 < p.grid_index < n - 1)
        else p
        for i, p in enumerate(peaks)
    ]
    return SimpleNamespace(
        problem=problem,
        scan=scan,
        peaks=peaks,
        refined=refined,
        scan_seconds=scan_seconds,
    )


@pytest.fixture(scope="session")
def laplace_desk():
    return _scan_and_refine(g.laplace_dirichlet())


@pytest.fixture(scope="session")
def laplace_paper():
    # Paper size: the sweep and its candidates' polish run at the desk size,
    # N = N_t = 200, and each peak over the floor is polished again at 500;
    # only the six tallest get the refinement's further steps.
    return _scan_and_refine(g.laplace_dirichlet(scale="paper"), refine_top=6)


@pytest.fixture(scope="session")
def cantilever_desk():
    return _scan_and_refine(g.cantilever())


@pytest.fixture(scope="session")
def loaded_string_desk():
    return _scan_and_refine(g.loaded_string())


@pytest.fixture(scope="session")
def theorem_report():
    return g.fd_theorem_suite(trials=100, max_dim=8, seed=0)


def match_references(refined, refs, rel_tol):
    """Map each refined peak to its nearest reference value.

    Returns (matched, unmatched) where matched maps reference index to the
    best peak record and unmatched lists peaks farther than rel_tol from
    every reference.
    """
    refs = np.asarray(refs, dtype=float)
    matched = {}
    unmatched = []
    for p in refined:
        rel = np.abs(refs - p.lam_hat) / refs
        k = int(np.argmin(rel))
        if rel[k] <= rel_tol:
            cur = matched.get(k)
            if cur is None or abs(cur.lam_hat - refs[k]) > abs(p.lam_hat - refs[k]):
                matched[k] = p
        else:
            unmatched.append(p)
    return matched, unmatched


def dense_blocks(problem, lam, spec=None):
    """K_tC and K_CC of `problem` at λ in row order (interior, then sites),
    every entry from `apply_bilinear` on its own pair of points: the
    reference for the assembled blocks.  `spec` defaults to the problem's
    kernel at λ."""
    spec = problem.kernel_at(lam) if spec is None else spec
    groups = [(np.asarray(problem.collocation_grid(), dtype=float), problem.interior_op)]
    groups += [(np.array([s.location]), s.operator) for s in problem.boundary]

    def block(x, op_x, y, op_y):
        vals = g.apply_bilinear(op_x, op_y, spec, lam, x[:, None], y[None, :])
        return np.broadcast_to(vals, (x.size, y.size))

    xt = np.asarray(problem.test_grid(), dtype=float)
    K_tC = np.hstack([block(xt, g.identity_op(), y, op) for y, op in groups])
    K_CC = np.block([[block(x, op_x, y, op_y) for y, op_y in groups] for x, op_x in groups])
    return K_tC, K_CC


def parity_pairs(mirror):
    """Rows p < q = mirror[p] of the involution `mirror`, and its single
    rows: the fixed ones, then the border rows, where mirror is -1."""
    rows = np.arange(len(mirror))
    p = rows[mirror > rows]
    return p, mirror[p], np.concatenate([rows[mirror == rows], rows[mirror < 0]])


def row_copy_fold(M, row_mirror, col_mirror):
    """Even and odd block of M in the parity bases (e_p + e_q)/sqrt2, e_f,
    e_b, (e_p - e_q)/sqrt2 of its row and column involutions, from whole
    mirrored rows and the means A, B of the direct and crossed quadrants:
    the reference the assembled halves must match.  The odd block's rows
    are the odd rows, its columns the odd ones, then the border's."""
    (p, q, f), (pc, qc, fc) = parity_pairs(row_mirror), parity_pairs(col_mirror)
    top, bottom, fixed = M[p], M[q], M[f]
    A = 0.5 * (top[:, pc] + bottom[:, qc])
    B = 0.5 * (top[:, qc] + bottom[:, pc])
    s = np.sqrt(0.5)
    even = np.block([
        [A + B, s * (top[:, fc] + bottom[:, fc])],
        [s * (fixed[:, pc] + fixed[:, qc]), fixed[:, fc]],
    ])
    bc = np.flatnonzero(col_mirror < 0)
    if bc.size:
        return even, np.hstack([A - B, s * (top[:, bc] - bottom[:, bc])])
    return even, A - B
