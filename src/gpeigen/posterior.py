"""Posterior covariance, trace criterion, sampling, and the BVP path.

Conditioning the zero-mean GP prior on the assembled constraint rows gives

    cov  = K_tt - K_tC (K_CC + jitter I)^+ K_tC^T
    mean = K_tC (K_CC + jitter I)^+ rhs

with a regularized Moore-Penrose pseudoinverse, held as the square-root
factor U of the downdate (see `condition`).  For eigenproblems the rhs
is zero, the mean vanishes identically, and all information sits in the
covariance: its trace J(λ) stays near zero away from eigenvalues and peaks
when λ hits one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .operators import AssembledBlocks, assemble_blocks

DEFAULT_RCOND = 1e-12

NORMALIZATIONS = ("none", "sup_norm", "l2")


class DecompositionError(RuntimeError):
    """A matrix factorization produced or received non-finite values."""


@dataclass
class PseudoinverseDiag:
    """Diagnostics of one regularized pseudoinverse."""

    rank: int
    sv_max: float
    sv_min_kept: float
    truncated_count: int
    jitter_used: float


@dataclass
class PosteriorSummary:
    """Posterior at the test points for one λ."""

    lam: float
    trace_J: float
    cov: np.ndarray
    mean: np.ndarray
    diag: PseudoinverseDiag
    blocks: AssembledBlocks = field(repr=False, default=None)

    @property
    def x_test(self) -> np.ndarray:
        return self.blocks.x_test


@dataclass
class EigenfunctionSample:
    values: np.ndarray
    seed: int
    normalization: str
    residual: float


def _truncated_eigh(M, jitter: float, rcond: float):
    """Eigendecompose M + jitter*I and mark the kept directions.

    The rcond cut applies after the jitter shift and compares magnitudes
    against the largest one.  Returns (w, V, keep).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if jitter < 0:
        raise ValueError(f"jitter must be nonnegative, got {jitter}")
    if not rcond > 0:
        raise ValueError(f"rcond must be positive, got {rcond}")
    if not np.all(np.isfinite(M)):
        raise DecompositionError("matrix has non-finite entries")
    w, V = np.linalg.eigh(M + jitter * np.eye(len(M)) if jitter else M)
    if not np.all(np.isfinite(w)):
        raise DecompositionError("eigendecomposition returned non-finite values")
    sv = np.abs(w)
    # sv > 0 keeps nothing of an all-zero matrix, where the relative cut is 0
    keep = (sv >= rcond * sv.max(initial=0.0)) & (sv > 0)
    return w, V, keep


def _diagnostics(w, keep, jitter: float) -> PseudoinverseDiag:
    sv = np.abs(w)
    return PseudoinverseDiag(
        rank=int(keep.sum()),
        sv_max=float(sv.max(initial=0.0)),
        sv_min_kept=float(sv[keep].min()) if keep.any() else 0.0,
        truncated_count=int(w.size - keep.sum()),
        jitter_used=float(jitter),
    )


def regularized_pseudoinverse(M, jitter: float = 0.0, rcond: float = DEFAULT_RCOND):
    """Pseudoinverse of the symmetric matrix M + jitter*I.

    Computed by symmetric eigendecomposition; reciprocals of eigenvalues
    whose magnitude falls below rcond * max|eigenvalue| are zeroed.  The
    rcond cut applies after the jitter shift.  Returns (pinv, diagnostics).
    """
    w, V, keep = _truncated_eigh(M, jitter, rcond)
    inv = np.zeros(w.size)
    inv[keep] = 1.0 / w[keep]
    P = (V * inv) @ V.T
    P = 0.5 * (P + P.T)
    return P, _diagnostics(w, keep, jitter)


def condition(blocks: AssembledBlocks, jitter: float, rcond: float = DEFAULT_RCOND):
    """Square-root factor of the downdate; the core every posterior reads.

    With the kept eigenpairs (w, V) of K_CC + jitter I, W = V / sqrt(w) and
    U = K_tC W give K_tC (K_CC + jitter I)^+ K_tC^T = U U^T.  U has O(1)
    entries, so the downdate escapes the 1/w_min roundoff amplification of
    an explicit pseudoinverse.  Kept directions also need w > 0: negative
    eigenvalues of the shifted Gram are roundoff with no real square root.
    Since k(x, x) = variance, the trace is J = N_t * variance - ||U||_F^2.
    Returns (U, W, J, diagnostics).
    """
    w, V, keep = _truncated_eigh(blocks.K_CC, jitter, rcond)
    keep &= w > 0
    W = V[:, keep] / np.sqrt(w[keep])
    U = blocks.K_tC @ W
    J = blocks.x_test.size * blocks.spec.variance - float(np.sum(U * U))
    return U, W, J, _diagnostics(w, keep, jitter)


def posterior_covariance(
    blocks: AssembledBlocks, jitter: float, rcond: float = DEFAULT_RCOND
) -> PosteriorSummary:
    """Condition the prior on the assembled constraint rows.

    cov = K_tt - U U^T and mean = U W^T rhs, with (U, W, J) from
    `condition`; trace_J is the core's J.
    """
    U, W, J, diag = condition(blocks, jitter, rcond)
    cov = blocks.K_tt - U @ U.T
    cov = 0.5 * (cov + cov.T)
    return PosteriorSummary(
        lam=blocks.lam,
        trace_J=J,
        cov=cov,
        mean=U @ (W.T @ blocks.rhs),
        diag=diag,
        blocks=blocks,
    )


def sample_posterior(
    summary: PosteriorSummary,
    count: int,
    seed: int,
    normalization: str = "sup_norm",
):
    """Draw `count` reproducible samples from N(mean, cov).

    The covariance is factored by symmetric eigendecomposition with
    negative eigenvalues clipped at zero; the subtraction that forms cov
    makes small negatives inevitable off-peak.  Each sample gets its own
    substream derived from (seed, index).  The residual diagnostic pushes
    the raw sample back through the joint cross-covariances to estimate
    the operator values at the interior collocation sites.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    if not np.all(np.isfinite(summary.cov)):
        raise DecompositionError("covariance has non-finite entries")
    w, V = np.linalg.eigh(summary.cov)
    F = V * np.sqrt(np.clip(w, 0.0, None))

    R = None
    blocks = summary.blocks
    if blocks is not None and blocks.n_interior > 0:
        Ptt, _ = regularized_pseudoinverse(blocks.K_tt, 0.0, DEFAULT_RCOND)
        R = blocks.K_tC[:, : blocks.n_interior].T @ Ptt

    out = []
    for child in np.random.SeedSequence(seed).spawn(count):
        xi = np.random.default_rng(child).standard_normal(w.size)
        raw = summary.mean + F @ xi
        nrm = float(np.linalg.norm(raw))
        residual = 0.0
        if R is not None and nrm > 0:
            residual = float(np.linalg.norm(R @ raw) / nrm)
        values = raw
        if normalization == "sup_norm":
            peak = float(np.max(np.abs(raw)))
            if peak > 0:
                values = raw / peak
        elif normalization == "l2":
            if nrm > 0:
                values = raw / nrm
        out.append(
            EigenfunctionSample(
                values=values,
                seed=int(seed),
                normalization=normalization,
                residual=residual,
            )
        )
    return out


def solve_bvp(problem, N_f: int, rcond: float = DEFAULT_RCOND) -> PosteriorSummary:
    """Posterior for a boundary value problem with N_f interior source rows.

    The problem must be in bvp mode (no λ anywhere); conditioning uses the
    two boundary rows plus N_f equispaced interior rows carrying the source
    values.  λ is irrelevant and fixed at 0 for the assembly call.
    """
    if problem.mode != "bvp":
        raise ValueError(f"problem {problem.problem_id!r} is not in bvp mode")
    if int(N_f) != N_f or N_f < 0:
        raise ValueError(f"N_f must be a nonnegative integer, got {N_f}")
    prob = dataclasses.replace(problem, N=int(N_f))
    blocks = assemble_blocks(prob, 0.0)
    return posterior_covariance(blocks, prob.jitter, rcond)
