"""Posterior covariance, trace criterion, sampling, and the BVP path.

Conditioning the zero-mean GP prior on the assembled constraint rows gives

    cov  = K_tt - K_tC (K_CC + jitter diag(K_CC))^-1 K_tC^T
    mean = K_tC (K_CC + jitter diag(K_CC))^-1 rhs

computed on the Jacobi-equilibrated Gram D K_CC D + jitter I, D =
diag(K_CC)^-1/2, through its Cholesky factor and held as the square-root
factor U of the downdate (see `posterior_covariance`), per parity half when
the problem is symmetric under reflection, its border rows (boundary sites
without a mirror twin) a Schur-complement corner of the even half's factor.
For eigenproblems the rhs is
zero, the mean vanishes identically, and all information sits in the
covariance: its trace J(λ) stays near zero away from eigenvalues and peaks
when λ hits one.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernel import _count
from .operators import AssembledBlocks, assemble_blocks

# The cut of `regularized_pseudoinverse`.  `posterior_covariance` takes it as
# its third argument and makes no cut: it factors the equilibrated Gram.
DEFAULT_RCOND = 1e-12

# solve_bvp fits the length scale inside [lo * l0, hi * l0], l0 the preset's
BVP_LENGTH_BRACKET = (0.25, 5.0)

NORMALIZATIONS = ("none", "sup_norm")

# dlopen flags that open a library only if the process has loaded it (POSIX)
_LOADED_ONLY = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_LAZY", 0)


@functools.cache
def pin_heap() -> bool:
    """Keep each λ's working set in the heap; True when the thresholds are set.

    Every λ frees and reallocates the same few MB of arrays.  glibc's
    dynamic mmap threshold serves them from fresh mappings that page-fault
    anew each time (about 2,200 minor faults per paper-scale λ on glibc
    2.36).  Pinning M_MMAP_THRESHOLD at 32 MiB (glibc's own ceiling on
    64-bit) and M_TRIM_THRESHOLD at twice that (glibc's own rule) reuses
    them instead, at the price of keeping up to 64 MiB of freed heap.  A
    no-op where libc has no `mallopt` or the environment already tunes
    malloc.
    """
    # every MALLOC_* variable glibc reads is an alias of a glibc.malloc.* tunable
    tuned = any(name.startswith("MALLOC_") for name in os.environ)
    if tuned or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
        # M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1; mallopt returns 1 on success
        settings = ((-3, 32 << 20), (-1, 64 << 20))
        return all(mallopt(param, value) == 1 for param, value in settings)
    except (OSError, AttributeError, TypeError):
        return False


@functools.cache
def _openblas(name: str):
    """The function `name` (e.g. "get_num_threads" or "dtrsm") of the
    OpenBLAS numpy loaded, or None when none is found.

    Looks in the wheel's numpy.libs for a library already in the process,
    and in it for the scipy-openblas (numpy 2), its CBLAS, the 64-bit
    (numpy 1) and the plain symbol.  Cached: the lookup takes about 85 µs,
    and every conditioning solves with "dtrsm".
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=_LOADED_ONLY)
        except OSError:
            continue  # not loaded in this process
        syms = (f"scipy_openblas_{name}64_", f"scipy_cblas_{name}64_",
                f"openblas_{name}64_", f"openblas_{name}")
        for sym in syms:
            fn = getattr(lib, sym, None)
            if fn is not None:
                return fn
    return None


def _openblas_call(name: str, *args):
    """Call `name` in the OpenBLAS numpy loaded; None when none is found."""
    fn = _openblas(name)
    return None if fn is None else fn(*args)


@functools.cache
def _trsm():
    """cblas_dtrsm of the OpenBLAS numpy loaded (ILP64: 64-bit sizes), with
    its argument types set, or None when none is found."""
    fn = _openblas("dtrsm")
    if fn is not None:
        size, ptr = ctypes.c_int64, ctypes.c_void_p
        fn.restype = None
        fn.argtypes = [ctypes.c_int] * 5 + [size, size, ctypes.c_double, ptr, size, ptr, size]
    return fn


def _right_solve(L, B):
    """B L^-T for the lower-triangular L, returned: written over B when its
    rows have unit stride (always so for a column slice of a C-order
    array), else over a copy; by the loaded OpenBLAS's dtrsm, or where there
    is none by `numpy.linalg.solve`, correct and slower."""
    m, n = B.shape
    if B.size == 0:
        return B
    # dtrsm reads row i at B[i * ldb], so it needs ldb >= n; numpy leaves
    # the stride of a length-1 axis arbitrary (a transposed column's is 8)
    ldb = B.strides[0] // B.itemsize if m > 1 else n
    if (n > 1 and B.strides[1] != B.itemsize) or ldb < n:
        B, ldb = B.copy(), n
    trsm = _trsm()
    if trsm is None:
        B[...] = np.linalg.solve(L, B.T).T
        return B
    L = np.ascontiguousarray(L)
    # row major, L on the right, lower, transposed, non-unit diagonal
    trsm(101, 142, 122, 112, 131, m, n, 1.0, L.ctypes.data, n, B.ctypes.data, ldb)
    return B


class DecompositionError(RuntimeError):
    """A matrix to factor has non-finite entries or a non-positive
    diagonal, or its factorization produced non-finite values."""


# What a failed λ-evaluation or BVP fit probe may raise: ArithmeticError
# covers PoleError and float overflow; ValueError covers the schedule's
# λ <= 0, KernelSpec, GridError, UnsupportedOrderError and
# numpy.linalg.LinAlgError.  Anything else is a programming error and
# propagates.
EVALUATION_ERRORS = (ArithmeticError, ValueError, DecompositionError)


@dataclass
class PseudoinverseDiag:
    """Diagnostics of one conditioning or regularized pseudoinverse.

    From `regularized_pseudoinverse`: the kept rank, the largest and the
    smallest kept eigenvalue magnitude, and the count the cut dropped.  From
    `posterior_covariance`, which cuts nothing: the row count, the largest
    and the smallest squared pivot diag(L)^2 of its block factor (both lie
    within the eigenvalues of the shifted, equilibrated Gram, whose Cholesky
    factor in the parity basis, odd rows first and border rows last, it
    is), and 0.
    """

    rank: int
    sv_max: float
    sv_min_kept: float
    truncated_count: int


@dataclass
class PosteriorSummary:
    """Posterior at the test points for one λ, held as the downdate factor.

    `factors` holds the Cholesky factors L of `posterior_covariance`, one
    per part of `blocks.parts` (for a mirror split, the even and the odd
    half's), and `scales` the matching Jacobi scales D, a border row's in
    the even half's.  `coupling` is None with no split, and for a split
    (Z^T, D_b, L_s): the odd half's coupling to the border rows, their
    scales and their corner of the even half's factor, empty when there are
    none (see `posterior_covariance`).  The parts' U (`U_parts`), U and W
    in row order, `cov`, `mean` and `neg_log_likelihood` are formed on first
    read and cached, so a caller that reads only `trace_J` and `diag` never
    builds an N_t x N_t matrix.
    The mean of an all-zero rhs (every eigenproblem) is exact zeros, with U
    and W left unformed, so `sample_posterior`, which reads `U_parts` and
    `mean`, caches none of U, W and `cov` for an eigenproblem.
    """

    trace_J: float
    diag: PseudoinverseDiag
    factors: tuple = field(repr=False)
    scales: tuple = field(repr=False)
    blocks: AssembledBlocks = field(repr=False)
    coupling: tuple = field(default=None, repr=False)

    @property
    def x_test(self) -> np.ndarray:
        return self.blocks.x_test

    def _solve(self, rows):
        """R D L^-T of the block factor for each part's rows R, one at a time."""
        return map(_downdate, rows, self.scales, self.factors, (None, self.coupling))

    @functools.cached_property
    def U_parts(self) -> tuple:
        return tuple(self._solve(K_tC for K_tC, _ in self.blocks.parts))

    @functools.cached_property
    def U(self) -> np.ndarray:
        return _unfold(self.U_parts, self.blocks.test_pairs, self.blocks.border)

    @functools.cached_property
    def W(self) -> np.ndarray:
        """D L^-T of the block factor in row order, so that U = K_tC W and
        W^T rhs is the whitened rhs L^-1 D rhs."""
        parts = tuple(self._solve(np.eye(*K_CC.shape) for _, K_CC in self.blocks.parts))
        return _unfold(parts, self.blocks.pairs, self.blocks.border)

    @functools.cached_property
    def cov(self) -> np.ndarray:
        # symmetric as it stands: U U^T is one syrk, and K_tt is even in r
        return self.blocks.K_tt - self.U @ self.U.T

    @functools.cached_property
    def mean(self) -> np.ndarray:
        if not np.any(self.blocks.rhs):  # every eigenproblem: nothing to unfold
            return np.zeros(self.blocks.x_test.size)
        return self.U @ (self.W.T @ self.blocks.rhs)

    @functools.cached_property
    def neg_log_likelihood(self) -> float:
        """-log N(rhs; 0, K_CC + jitter diag(K_CC)) of the raw rhs, for m
        rows: 0.5 (a^T a + log det + m log(2 pi)) with a = W^T rhs and
        log det = 2 sum(log diag L) - 2 sum(log D).  D depends on the kernel,
        so its term keeps the likelihood comparable across length scales."""
        a = self.W.T @ self.blocks.rhs
        logdet = 2.0 * sum(np.sum(np.log(np.diagonal(L))) - np.sum(np.log(d))
                           for L, d in zip(self.factors, self.scales))
        m = sum(d.size for d in self.scales)
        return float(0.5 * (a @ a + logdet + m * np.log(2.0 * np.pi)))


@dataclass
class EigenfunctionSample:
    """One posterior draw.  `residual` is the sine of the raw draw's angle to
    the covariance's leading eigenvector (see `sample_posterior`)."""

    values: np.ndarray
    residual: float


def _checked(M, jitter: float, rcond: float) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if jitter < 0:
        raise ValueError(f"jitter must be nonnegative, got {jitter}")
    if not rcond > 0:
        raise ValueError(f"rcond must be positive, got {rcond}")
    if not np.all(np.isfinite(M)):
        raise DecompositionError("matrix has non-finite entries")
    return M


def _eigh(M, jitter: float = 0.0):
    """Eigenpairs (w, V) of the symmetric M + jitter*I in increasing order;
    the jitter goes onto the diagonal of a copy (no identity matrix), and M
    is left as it is."""
    if jitter:
        M = M.copy()
        M.flat[:: len(M) + 1] += jitter
    w, V = np.linalg.eigh(M)
    if not np.all(np.isfinite(w)):
        raise DecompositionError("eigendecomposition returned non-finite values")
    return w, V


def _keep(w, rcond: float) -> np.ndarray:
    """The rcond cut: magnitudes against the largest one, after the shift."""
    sv = np.abs(w)
    # sv > 0 keeps nothing of an all-zero matrix, where the relative cut is 0
    return (sv >= rcond * sv.max(initial=0.0)) & (sv > 0)


def _diagnostics(w, keep) -> PseudoinverseDiag:
    sv = np.abs(w)
    return PseudoinverseDiag(
        rank=int(keep.sum()),
        sv_max=float(sv.max(initial=0.0)),
        sv_min_kept=float(sv[keep].min()) if keep.any() else 0.0,
        truncated_count=int(w.size - keep.sum()),
    )


def regularized_pseudoinverse(M, jitter: float = 0.0, rcond: float = DEFAULT_RCOND):
    """Pseudoinverse of the symmetric matrix M + jitter*I.

    Computed by symmetric eigendecomposition; reciprocals of eigenvalues
    whose magnitude falls below rcond * max|eigenvalue| are zeroed.  The
    rcond cut applies after the jitter shift.  Returns (pinv, diagnostics).
    """
    w, V = _eigh(_checked(M, jitter, rcond), jitter)
    keep = _keep(w, rcond)
    inv = np.zeros(w.size)
    inv[keep] = 1.0 / w[keep]
    P = (V * inv) @ V.T
    P = 0.5 * (P + P.T)
    return P, _diagnostics(w, keep)


def _unfold(parts, pairs, border: int = 0):
    """The even half's columns, then the odd half's, in the row order of
    `pairs`, the rows (p, q, f) of an involution: the parity basis undone on
    the rows.  The odd half's last `border` columns are the even half's
    last ones, and add to them.  With no pairs, `parts` holds one block,
    returned as it is."""
    if pairs is None:
        return parts[0]
    (even, odd), (p, q, f) = parts, pairs
    n, k = even.shape[1], odd.shape[1] - border
    out = np.zeros((p.size + q.size + f.size, n + k))  # odd columns vanish on f
    out[p, :n] = out[q, :n] = np.sqrt(0.5) * even[: p.size]
    out[f, :n] = even[p.size :]
    out[p, n:] = np.sqrt(0.5) * odd[:, :k]
    out[q, n:] = -out[p, n:]
    if border:
        shared = np.sqrt(0.5) * odd[:, k:]
        out[p, n - border : n] += shared
        out[q, n - border : n] -= shared
    return out


def _scales(grams, pairs):
    """The Jacobi scales diag(K_CC)^-1/2 of each part, in its row order.
    With a mirror, K_CC's diagonal at a pair's row p is D's, the mean of
    the halves' (D + X and D - X), and at a fixed row the even half's; a
    twin row has its pair's diagonal, so the scaling keeps the mirror."""
    d, *odd = (np.diagonal(M) for M in grams)
    if odd:
        d = np.concatenate([0.5 * (d[: odd[0].size] + odd[0]), d[odd[0].size :]])
    if not np.all(d > 0):
        i = int(np.argmin(d > 0))
        row = i if pairs is None else np.concatenate([pairs[0], pairs[2]])[i]
        raise DecompositionError(f"constraint row {row} has prior variance {d[i]!r}")
    d = 1.0 / np.sqrt(d)
    return (d, d[: odd[0].size]) if odd else (d,)


def _equilibrated(M, d, jitter: float):
    """D M D + jitter*I for the Gram M and its scales D, a new array."""
    M = np.multiply(M, d[:, None])
    M *= d
    M.flat[:: len(M) + 1] += jitter
    return M


def _downdate(R, d, L, coupling=None):
    """R D L^-T of one part, for rows R in its K_CC's columns, a new array.
    With the odd half's `coupling` (Z^T, D_b, L_s), R's columns past L's
    are the border's, and their solve is (R_b D_b - X Z) L_s^-T, X = R D
    L^-T of the part's own columns."""
    if coupling is None:
        return _right_solve(L, R * d)
    Zt, d_b, L_s = coupling
    U = np.multiply(R, np.concatenate([d, d_b]), order="C")  # each slice solves in place
    X = _right_solve(L, U[:, : len(L)])
    U[:, len(L) :] -= X @ Zt.T
    _right_solve(L_s, U[:, len(L) :])
    return U


def _factor(M, d, jitter: float, downdate=None):
    """Cholesky factor of D M D + jitter I, less `downdate` in its trailing
    corner (which may be empty); the scaled copy is freed on return."""
    M = _equilibrated(M, d, jitter)
    if downdate is not None:
        k = len(M) - len(downdate)
        M[k:, k:] -= downdate
    return np.linalg.cholesky(M)


def posterior_covariance(
    blocks: AssembledBlocks, jitter: float, rcond: float = DEFAULT_RCOND
) -> PosteriorSummary:
    """Condition the prior on the assembled constraint rows.

    Conditioning on the rows A u = rhs equals conditioning on D A u = D rhs
    for any positive diagonal D, so the Gram is equilibrated first (Jacobi
    scaling, van der Sluis, Numer. Math. 14 (1969) 14-23): D = diag(K_CC)^-1/2
    gives D K_CC D a unit diagonal, whatever the operators' orders, and
    `jitter` is a nugget relative to it.  With the Cholesky factor
    L L^T = D K_CC D + jitter I, U = K_tC D L^-T (one `dtrsm`, `_right_solve`)
    gives K_tC (K_CC + jitter diag(K_CC))^-1 K_tC^T = U U^T.  Since k(x, x) =
    variance, the trace is J = N_t * variance - ||U||_F^2; the summary's U,
    W, cov = K_tt - U U^T, mean = U W^T rhs and `neg_log_likelihood` are
    formed only when read.  There is no rank cut: `rcond` is checked and
    otherwise unused.  A Gram that is not positive definite raises
    `numpy.linalg.LinAlgError`, a row with a non-positive diagonal
    `DecompositionError`; a scan skips either λ.  This is the one place
    that factors K_CC.

    Each part of `blocks.parts`, K_CC or for a problem symmetric under
    reflection (see `operators`) its even and odd halves, is conditioned in
    turn; ||U||_F^2 sums the parts'.  Each U is squared in place and summed,
    and formed again only when read (`PosteriorSummary.U_parts`), so the
    blocks are left as they are and little more than the factors is held.

    Border rows make this a block factor of the whole Gram in the parity
    basis, odd rows first and border rows last: the odd half is factored
    first, L_o, its coupling to the border Y gives Z = L_o^-1 D_o Y D_b,
    Z^T Z comes off the even half's border corner, and the even half is
    factored, L_e, with the border corner L_s.  The test grid's even rows then give U_e =
    K_tC,e D L_e^-T, and its odd rows U_o = K_tC,o D L_o^-T and, from their
    border columns B_o, (B_o D_b - U_o Z) L_s^-T, the odd half's last
    columns.  With no border rows Z, D_b and L_s are empty, and the halves'
    factors are independent.
    """
    pin_heap()
    grams = [_checked(K_CC[:, : len(K_CC)], jitter, rcond) for _, K_CC in blocks.parts]
    scales = _scales(grams, blocks.pairs)
    if blocks.pairs is None:
        factors, coupling = (_factor(grams[0], scales[0], jitter),), None
    else:  # the odd half first: its coupling to the border enters the even half's corner
        (even, odd), (d_e, d_o), k = grams, scales, len(grams[0]) - blocks.border
        L_o, d_b = _factor(odd, d_o, jitter), d_e[k:]
        Zt = _right_solve(L_o, (blocks.parts[1][1][:, len(L_o) :] * d_o[:, None] * d_b).T)
        L_e = _factor(even, d_e, jitter, Zt @ Zt.T)
        factors, coupling = (L_e, L_o), (Zt, d_b, L_e[k:, k:])
    pivots = np.concatenate([np.diagonal(L) for L in factors]) ** 2
    diag = PseudoinverseDiag(
        rank=pivots.size,
        sv_max=float(pivots.max(initial=0.0)),
        sv_min_kept=float(pivots.min()) if pivots.size else 0.0,
        truncated_count=0,
    )
    summary = PosteriorSummary(0.0, diag, factors, scales, blocks, coupling)
    prior = blocks.x_test.size * blocks.spec.variance
    Us = summary._solve(K_tC for K_tC, _ in blocks.parts)  # one at a time, squared in place
    summary.trace_J = prior - sum(map(lambda U: float(np.sum(np.square(U, out=U))), Us))
    return summary


def sample_posterior(
    summary: PosteriorSummary,
    count: int,
    seed: int,
    normalization: str = "sup_norm",
):
    """Draw `count` (an integer >= 1) reproducible samples from N(mean, cov).

    The covariance is factored by symmetric eigendecomposition with
    negative eigenvalues clipped at zero; the subtraction that forms cov
    makes small negatives inevitable off-peak.  Each sample gets its own
    substream derived from (seed, index), the seed an integer >= 0.  A
    sample's residual is the sine of its angle to v1, the unit eigenvector
    of cov's largest eigenvalue:
    ||u - (v1^T u) v1|| / ||u|| for the raw sample u, 0 when u = 0.  At an
    eigenvalue the posterior is one function and the residual is near 0;
    away from one the sample leaves that direction (see README).

    cov is never formed: its parts K_tt,h - U_h U_h^T (`K_tt_parts`,
    `U_parts`; one, K_tt - U U^T, with no mirror or with border rows, whose
    columns of U couple the halves) are eigendecomposed one after the
    other.  The k-th normal of a draw scales the k-th smallest
    eigenvalue's direction, as with one full `eigh`; mirror samples differ
    bitwise from its, not in distribution.  An eigenproblem's mean is zeros
    read off the rhs, so no U or W is unfolded.
    """
    count, seed = _count("count", count, 1), _count("seed", seed, 0)
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    blocks, Us = summary.blocks, summary.U_parts
    if len(blocks.K_tt_parts) < len(Us):  # a border couples the halves
        Us = (_unfold(Us, blocks.test_pairs, blocks.border),)
    halves = [K_tt - U @ U.T for K_tt, U in zip(blocks.K_tt_parts, Us)]
    if not all(np.all(np.isfinite(half)) for half in halves):
        raise DecompositionError("covariance has non-finite entries")
    eighs = [_eigh(half) for half in halves]
    w = np.concatenate([w_h for w_h, _ in eighs])
    V = _unfold([Y for _, Y in eighs], blocks.test_pairs if len(eighs) > 1 else None)
    # permute xi and scale V in place, copying no N_t x N_t array; a copy
    # of eigh's own V would move an unsplit problem's draws by roundoff
    order = np.argsort(w, kind="stable")
    rank = np.argsort(order)
    v1 = V[:, order[-1]].copy()
    F = np.multiply(V, np.sqrt(np.clip(w, 0.0, None)), out=V)

    out = []
    for child in np.random.SeedSequence(seed).spawn(count):
        xi = np.random.default_rng(child).standard_normal(w.size)
        raw = summary.mean + F @ xi[rank]
        nrm = float(np.linalg.norm(raw))
        residual = 0.0
        if nrm > 0:
            residual = float(np.linalg.norm(raw - (v1 @ raw) * v1) / nrm)
        values = raw
        if normalization == "sup_norm":
            peak = float(np.max(np.abs(raw)))
            if peak > 0:
                values = raw / peak
        out.append(EigenfunctionSample(values=values, residual=residual))
    return out


def solve_bvp(problem, N_f: int) -> PosteriorSummary:
    """Posterior for a boundary value problem with N_f (an integer >= 0)
    interior source rows.

    The problem must be in bvp mode (no λ grid); conditioning uses the
    two boundary rows plus N_f equispaced interior rows carrying the source
    values.  λ is irrelevant and fixed at 0 for the assembly call.

    The kernel's length scale is fit by type-II maximum likelihood: a
    golden-section search (Kiefer, 1953) of `neg_log_likelihood` over log l
    inside BVP_LENGTH_BRACKET times the preset's l0, i.e. [l0/4, 5 l0],
    until the bracket is 1e-5 wide in log l (29 probes).  The variance
    stays at the preset's value; fitting it as well drives the demo's l to
    about 0.9, where cond(K_CC) is about 1e12.  Each kernel, the preset's
    and each probe's, is conditioned once, with the problem's jitter and no
    cut; a probe whose conditioning raises one of EVALUATION_ERRORS (a Gram
    that does not factor) scores +inf.  The summary that scores best is
    returned, the preset's on a tie and when the constraint values are all
    zero (N_f = 0 with homogeneous boundary rows), where the likelihood
    carries no data and is degenerate.  An error conditioning the preset's
    kernel propagates.  The summary's `blocks.spec` is the kernel that was
    used.
    """
    if problem.mode != "bvp":
        raise ValueError(f"problem {problem.problem_id!r} is not in bvp mode")
    prob = dataclasses.replace(problem, N=_count("N_f", N_f, 0))
    preset = prob.fixed_kernel

    def condition(length_scale):
        spec = dataclasses.replace(preset, length_scale=length_scale)
        blocks = assemble_blocks(dataclasses.replace(prob, fixed_kernel=spec), 0.0)
        return posterior_covariance(blocks, prob.jitter)

    best = condition(preset.length_scale)
    if not np.any(best.blocks.rhs):
        return best

    def probe(log_ell):
        nonlocal best
        try:
            summary = condition(math.exp(log_ell))
        except EVALUATION_ERRORS:
            return math.inf
        if summary.neg_log_likelihood < best.neg_log_likelihood:
            best = summary
        return summary.neg_log_likelihood

    # keep the inner points at the golden ratios of [a, b]: each step drops
    # the end beyond the worse one and probes one new point
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = (math.log(s * preset.length_scale) for s in BVP_LENGTH_BRACKET)
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = probe(c), probe(d)
    while b - a > 1e-5:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = probe(d)
    return best
