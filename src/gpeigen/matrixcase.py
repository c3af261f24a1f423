"""Finite-dimensional ground truth for the trace criterion.

For A(λ) = L - λI and a Gaussian prior N(0, K) on u, conditioning on the
homogeneous observation A(λ)u = 0 leaves the posterior covariance

    K_N(λ) = K - K A(λ)^T (A(λ) K A(λ)^T)^+ A(λ) K.

Two regimes follow.  If λ is not an eigenvalue of L then A(λ) is
invertible and K_N(λ) = 0: the only function compatible with the
constraint is u = 0.  If λ is an eigenvalue, K_N(λ) is the prior
restricted to Null(A(λ)), so its trace jumps and every posterior sample is
a null-space vector, that is an eigenvector candidate.

The constructive sampling path mirrors the factorization argument: with
the Cholesky factor K = P P^T and Q = A(λ)P, the matrix B = P(I - Q^+ Q)
satisfies B B^T = K_N(λ) and A(λ)B = 0, because I - Q^+ Q is the
orthogonal projector onto Null(Q).  `fd_theorem_suite` checks all of this
on randomly generated cases with exactly known spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import _count
from .posterior import regularized_pseudoinverse

# The dichotomy is a statement about the exact pseudoinverse, so this path
# uses pure rcond truncation and no jitter.
RCOND_EXACT = 1e-10

TOLERANCES = {
    "off_ratio": 1e-8,        # ||K_N(off)||_F / ||K||_F
    "on_trace": 1e-4,         # trace K_N(on) / min eig K
    "sample_residual": 1e-8,  # ||A u*|| / ||u*||
    "factor_rel": 1e-9,       # ||BB^T - K_N||_F / ||K_N||_F at on-spectrum λ
    "projector": 1e-10,       # max |Pi^2 - Pi|
}


@dataclass
class FiniteDimCase:
    """A linear system u-prior pair: matrix L, SPD prior covariance K, shift λ."""

    L: np.ndarray
    K: np.ndarray
    lam: float

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=float)
        self.K = np.asarray(self.K, dtype=float)
        self.lam = float(self.lam)
        if self.L.ndim != 2 or self.L.shape[0] != self.L.shape[1]:
            raise ValueError(f"L must be square, got shape {self.L.shape}")
        if self.K.shape != self.L.shape:
            raise ValueError("K must match L in shape")
        sym_gap = np.max(np.abs(self.K - self.K.T))
        if sym_gap > 1e-10 * max(1.0, np.max(np.abs(self.K))):
            raise ValueError("K must be symmetric")
        if np.linalg.eigvalsh(self.K).min() <= 0:
            raise ValueError("K must be positive definite")

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    def system_matrix(self) -> np.ndarray:
        return self.L - self.lam * np.eye(self.dim)


def _system_is_zero(case: FiniteDimCase) -> bool:
    # λ equal to the full spectrum makes A(λ) vanish up to roundoff; the
    # leftover junk must not be pseudo-inverted (it is "full rank" relative
    # to its own noise scale), so the degenerate branch is taken explicitly.
    A = case.system_matrix()
    scale = np.linalg.norm(case.L) + abs(case.lam) * np.sqrt(case.dim)
    return scale == 0.0 or np.linalg.norm(A) <= 1e-12 * scale


def fd_posterior_covariance(case: FiniteDimCase) -> np.ndarray:
    """K_N(λ) = K - K A^T (A K A^T)^+ A K with the exact pseudoinverse."""
    if _system_is_zero(case):
        return case.K.copy()
    A = case.system_matrix()
    AK = A @ case.K
    M = AK @ A.T
    M = 0.5 * (M + M.T)
    P, _ = regularized_pseudoinverse(M, 0.0, RCOND_EXACT)
    KN = case.K - AK.T @ (P @ AK)
    return 0.5 * (KN + KN.T)


def _null_projector(case: FiniteDimCase, P: np.ndarray) -> np.ndarray:
    """I - Q^+ Q for Q = A(λ) P, truncated consistently with K_N.

    The singular values of Q are the square roots of the eigenvalues of
    A K A^T, so matching the covariance route's relative eigencut of
    RCOND_EXACT means cutting Q's spectrum at sqrt(RCOND_EXACT).
    """
    if _system_is_zero(case):
        return np.eye(case.dim)
    Q = case.system_matrix() @ P
    Qp = np.linalg.pinv(Q, rcond=np.sqrt(RCOND_EXACT))
    return np.eye(case.dim) - Qp @ Q


def null_space_factor(case: FiniteDimCase) -> np.ndarray:
    """B = P (I - Q^+ Q) with K = P P^T and Q = A(λ) P."""
    P = np.linalg.cholesky(case.K)
    return P @ _null_projector(case, P)


def fd_sample(case: FiniteDimCase, count: int, seed: int):
    """Draw count vectors u* = B ξ, ξ ~ N(0, I), one substream per sample;
    count is an integer >= 1 and seed one >= 0."""
    count, seed = _count("count", count, 1), _count("seed", seed, 0)
    B = null_space_factor(case)
    return [
        B @ np.random.default_rng(child).standard_normal(case.dim)
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


@dataclass
class FdTrialResult:
    index: int
    dim: int
    multiplicity: int
    lam_on: float
    lam_off: float
    off_ratio: float
    on_trace_ratio: float
    sample_residual: float
    factor_error: float
    off_factor_ratio: float
    projector_defect: float
    rank_expected: int
    rank_observed: int
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class FdReport:
    trials: int
    max_dim: int
    seed: int
    results: list = field(default_factory=list)

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == len(self.results)

    def worst(self) -> dict:
        if not self.results:
            return {}
        return {
            "off_ratio": max(r.off_ratio for r in self.results),
            "on_trace_ratio": min(r.on_trace_ratio for r in self.results),
            "sample_residual": max(r.sample_residual for r in self.results),
            "factor_error": max(r.factor_error for r in self.results),
            "projector_defect": max(r.projector_defect for r in self.results),
        }


def _random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _numerical_rank(M: np.ndarray) -> int:
    w = np.abs(np.linalg.eigvalsh(M))
    top = w.max()
    if top == 0.0:
        return 0
    return int((w > 1e-8 * top).sum())


def _run_trial(index: int, child, max_dim: int) -> FdTrialResult:
    rng = np.random.default_rng(child)
    n = int(rng.integers(1, max_dim + 1))

    # Exactly known spectrum; eigenvalues kept in [-1, 1] and K eigenvalues
    # in [0.5, 2] so the off-spectrum cancellation stays far below the
    # 1e-8 Frobenius bound. Distinct eigenvalues are kept at least 2e-2
    # apart: a numerically marginal gap lands on the truncation threshold
    # and the kept set stops being well defined. Exact repeats are fine and
    # exercised deliberately.
    while True:
        eigs = rng.uniform(-1.0, 1.0, n)
        if n == 1 or np.min(np.diff(np.sort(eigs))) >= 2e-2:
            break
    multiplicity = 1
    if n >= 2 and rng.random() < 0.3:
        eigs[1] = eigs[0]
        multiplicity = 2
    U = _random_orthogonal(rng, n)
    L = U @ np.diag(eigs) @ U.T
    V = _random_orthogonal(rng, n)
    K = V @ np.diag(rng.uniform(0.5, 2.0, n)) @ V.T
    K = 0.5 * (K + K.T)

    lam_on = float(eigs[0])
    while True:
        lam_off = float(rng.uniform(-1.5, 1.5))
        if np.min(np.abs(eigs - lam_off)) >= 1e-2:
            break

    case_on = FiniteDimCase(L, K, lam_on)
    case_off = FiniteDimCase(L, K, lam_off)
    k_norm = np.linalg.norm(K)
    k_min = np.linalg.eigvalsh(K).min()

    KN_on = fd_posterior_covariance(case_on)
    KN_off = fd_posterior_covariance(case_off)
    off_ratio = float(np.linalg.norm(KN_off) / k_norm)
    on_trace_ratio = float(np.trace(KN_on) / k_min)

    sample_residual = 0.0
    A_on = case_on.system_matrix()
    sample_seed = int(rng.integers(0, 2**63 - 1))
    for u in fd_sample(case_on, 3, sample_seed):
        nrm = np.linalg.norm(u)
        if nrm > 0:
            sample_residual = max(
                sample_residual, float(np.linalg.norm(A_on @ u) / nrm)
            )

    B_on = null_space_factor(case_on)
    factor_error = float(
        np.linalg.norm(B_on @ B_on.T - KN_on) / np.linalg.norm(KN_on)
    )
    B_off = null_space_factor(case_off)
    off_factor_ratio = float(np.linalg.norm(B_off @ B_off.T) / k_norm)

    projector_defect = 0.0
    for case in (case_on, case_off):
        P = np.linalg.cholesky(case.K)
        Pi = _null_projector(case, P)
        projector_defect = max(
            projector_defect, float(np.max(np.abs(Pi @ Pi - Pi)))
        )

    rank_expected = int(np.sum(eigs == lam_on))
    rank_observed = _numerical_rank(KN_on)

    failures = []
    if off_ratio > TOLERANCES["off_ratio"]:
        failures.append(f"off-spectrum covariance ratio {off_ratio:.3e}")
    if on_trace_ratio < TOLERANCES["on_trace"]:
        failures.append(f"on-spectrum trace ratio {on_trace_ratio:.3e}")
    if sample_residual > TOLERANCES["sample_residual"]:
        failures.append(f"sample residual {sample_residual:.3e}")
    if factor_error > TOLERANCES["factor_rel"]:
        failures.append(f"factorization error {factor_error:.3e}")
    if off_factor_ratio > TOLERANCES["off_ratio"]:
        failures.append(f"off-spectrum factor ratio {off_factor_ratio:.3e}")
    if projector_defect > TOLERANCES["projector"]:
        failures.append(f"projector defect {projector_defect:.3e}")
    if rank_observed != rank_expected:
        failures.append(f"rank {rank_observed} != multiplicity {rank_expected}")

    return FdTrialResult(
        index=index,
        dim=n,
        multiplicity=multiplicity,
        lam_on=lam_on,
        lam_off=lam_off,
        off_ratio=off_ratio,
        on_trace_ratio=on_trace_ratio,
        sample_residual=sample_residual,
        factor_error=factor_error,
        off_factor_ratio=off_factor_ratio,
        projector_defect=projector_defect,
        rank_expected=rank_expected,
        rank_observed=rank_observed,
        failures=tuple(failures),
    )


def fd_theorem_suite(trials: int = 100, max_dim: int = 8, seed: int = 0) -> FdReport:
    """Check both dichotomy branches on random exactly-spectrumed cases.

    Failures are collected in the report, never raised.  trials and
    max_dim are integers >= 1, seed one >= 0.
    """
    trials, max_dim = _count("trials", trials, 1), _count("max_dim", max_dim, 1)
    seed = _count("seed", seed, 0)
    report = FdReport(trials=trials, max_dim=max_dim, seed=seed)
    for index, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        report.results.append(_run_trial(index, child, max_dim))
    return report
