"""Pseudoinverse, posterior conditioning, sampling, and the BVP path."""

import copy
import dataclasses
import json
import os
import platform
import statistics
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import gpeigen as g
import gpeigen.posterior
from gpeigen.kernel import KernelSpec, kernel_mixed_derivative
from gpeigen.matrixcase import RCOND_EXACT, FiniteDimCase, fd_posterior_covariance
from gpeigen.operators import AssembledBlocks, assemble_blocks
from gpeigen.problems import NUGGET, references_in_window
from gpeigen.posterior import (
    BVP_LENGTH_BRACKET,
    DecompositionError,
    _eigh,
    _unfold,
    pin_heap,
    regularized_pseudoinverse,
    posterior_covariance,
    sample_posterior,
    solve_bvp,
)
from gpeigen.scan import (
    SCAN_RCOND,
    LambdaGrid,
    ScanError,
    _scan_one,
    blas_threads,
    evaluate_trace,
    make_lambda_grid,
    scan_spectrum,
)

from conftest import dense_blocks, parity_pairs, row_copy_fold, run_fresh_interpreter


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    B = rng.standard_normal((n, rank))
    return B @ B.T


class TestRegularizedPseudoinverse:
    def test_moore_penrose_axioms_full_rank(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            M = random_psd(rng, n) + 0.5 * np.eye(n)
            P, diag = regularized_pseudoinverse(M)
            assert diag.rank == n
            assert diag.truncated_count == 0
            assert np.allclose(P @ M @ P, P, atol=1e-10)
            assert np.allclose(M @ P @ M, M, atol=1e-10)
            assert np.allclose(P, P.T)
            assert np.allclose(M @ P, (M @ P).T, atol=1e-10)

    def test_rank_deficient_truncation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(1, n))
            M = random_psd(rng, n, rank=r)
            P, diag = regularized_pseudoinverse(M, rcond=1e-10)
            assert diag.rank == r
            assert diag.truncated_count == n - r
            # reconstruction holds on the range of M
            assert np.allclose(M @ P @ M, M, atol=1e-8 * diag.sv_max)

    def test_jitter_matches_explicit_shift(self):
        rng = np.random.default_rng(3)
        M = random_psd(rng, 6)
        P1, d1 = regularized_pseudoinverse(M, jitter=1e-3)
        P2, d2 = regularized_pseudoinverse(M + 1e-3 * np.eye(6), jitter=0.0)
        assert np.allclose(P1, P2, rtol=1e-12)
        assert d1 == d2

    def test_diag_sv_fields(self):
        M = np.diag([4.0, 1.0, 1e-14])
        P, diag = regularized_pseudoinverse(M, rcond=1e-10)
        assert diag.sv_max == 4.0
        assert diag.sv_min_kept == 1.0
        assert diag.rank == 2
        assert P[2, 2] == 0.0

    def test_zero_matrix(self):
        P, diag = regularized_pseudoinverse(np.zeros((4, 4)))
        assert diag.rank == 0
        assert diag.sv_min_kept == 0.0
        assert np.all(P == 0.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            regularized_pseudoinverse(np.zeros((2, 3)))

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            regularized_pseudoinverse(np.eye(2), jitter=-1.0)

    def test_rejects_nonpositive_rcond(self):
        with pytest.raises(ValueError):
            regularized_pseudoinverse(np.eye(2), rcond=0.0)

    def test_rejects_nonfinite(self):
        M = np.eye(3)
        M[1, 1] = np.nan
        with pytest.raises(DecompositionError):
            regularized_pseudoinverse(M)


def _regularized(K_CC, jitter):
    """K_CC + jitter diag(K_CC), the Gram the conditioning factors, and the
    eigenvalues of its equilibrated form D K_CC D + jitter I."""
    d = np.diagonal(K_CC)
    D = 1.0 / np.sqrt(d)
    equilibrated = K_CC * np.outer(D, D) + jitter * np.eye(d.size)
    return K_CC + jitter * np.diag(d), np.linalg.eigvalsh(equilibrated)


def _whitens(W, K_CC, jitter):
    """W^T (K_CC + jitter diag(K_CC)) W is the identity to the roundoff of
    the triangular inverse in W = D L^-T, m eps / lambda_min of the
    equilibrated Gram (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 8)."""
    K, ev = _regularized(K_CC, jitter)
    m = ev.size
    return np.max(np.abs(W.T @ K @ W - np.eye(m))) <= m * np.finfo(float).eps / ev.min()


class TestPosteriorCovariance:
    @pytest.mark.parametrize(
        "preset,lam", [("laplace", 42.0), ("cantilever", 500.0), ("loaded-string", 42.0)]
    )
    def test_eigen_posterior_basics(self, preset, lam):
        prob = g.build_preset(preset)
        blocks = assemble_blocks(prob, lam)
        summary = posterior_covariance(blocks, prob.jitter, SCAN_RCOND)
        assert summary.blocks.lam == lam
        assert summary.cov.shape == (prob.N_t, prob.N_t)
        assert np.array_equal(summary.cov, summary.cov.T)
        # the scan conditions at SCAN_RCOND through the same core: J agrees
        # exactly, and the factor's trace agrees with cov to roundoff
        J, diag = evaluate_trace(prob, lam)
        assert J == max(summary.trace_J, 0.0)
        assert diag == summary.diag
        prior_trace = prob.N_t * prob.schedule.variance
        assert abs(summary.trace_J - np.trace(summary.cov)) <= 1e-12 * prior_trace
        # zero rhs means the mean vanishes exactly, not just approximately
        assert np.all(summary.mean == 0.0)
        assert summary.x_test.shape == (prob.N_t,)

    def test_trace_needs_no_test_gram(self):
        prob = g.laplace_dirichlet()
        blocks = assemble_blocks(prob, 42.0)
        summary = posterior_covariance(blocks, prob.jitter)
        U, W, diag = summary.U, summary.W, summary.diag
        assert "K_tt" not in blocks.__dict__
        assert U.shape == (prob.N_t, diag.rank)
        assert W.shape == (blocks.x_constraint.size, diag.rank)
        # U U^T is the downdate of a dense solve with the same Gram
        K_tC, K_CC = dense_blocks(prob, 42.0)
        K, _ = _regularized(K_CC, prob.jitter)
        want = K_tC @ np.linalg.solve(K, K_tC.T)
        assert np.max(np.abs(U @ U.T - want)) <= 1e-10 * blocks.spec.variance
        assert _whitens(W, K_CC, prob.jitter)
        # the trace, the diagnostics and the mean leave the test Gram unbuilt
        assert np.all(summary.mean == 0.0)
        assert "K_tt" not in blocks.__dict__
        # reading the covariance builds the test Gram once and caches both
        cov = summary.cov
        assert blocks.__dict__["K_tt"] is blocks.K_tt
        assert summary.cov is cov

    @pytest.mark.parametrize(
        "preset", ["laplace", "cantilever"], ids=["mirror", "unsplit"]
    )
    def test_leaves_the_blocks_bitwise_unmodified(self, preset):
        # every part is scaled and shifted in a copy, and U is formed anew
        prob = g.build_preset(preset)
        blocks = assemble_blocks(prob, 88.83)
        assert (blocks.mirror is None) == (preset == "cantilever") and prob.jitter > 0
        before = [K.tobytes() for part in blocks.parts for K in part]
        posterior_covariance(blocks, prob.jitter).U
        assert [K.tobytes() for part in blocks.parts for K in part] == before

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_paper_conditioning_peak_memory(self, n):
        # scaled copies of the two Gram halves, their factors and one U at a
        # time: about 1.5 MiB beyond the assembled halves
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing this process")
        prob = g.laplace_dirichlet(scale="paper")
        blocks = assemble_blocks(prob, (n * np.pi) ** 2)
        assert blocks.mirror is not None
        posterior_covariance(blocks, prob.jitter)  # warms the caches
        tracemalloc.start()
        try:
            posterior_covariance(blocks, prob.jitter)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    def test_paper_evaluation_holds_less_than_a_full_gram(self):
        # the halves are assembled directly and conditioned in turn, so one
        # evaluation holds less than a full K_CC and K_tC together
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing this process")
        prob = g.laplace_dirichlet(scale="paper")
        evaluate_trace(prob, 300.0)  # caches the layout
        tracemalloc.start()
        try:
            evaluate_trace(prob, 300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = prob.N + len(prob.boundary)
        assert peak < 8 * (m * m + prob.N_t * m)

    def test_trace_leaves_the_parity_factors_folded(self):
        # a mirror split keeps U and W per parity half until they are read
        prob = g.laplace_dirichlet()
        summary = posterior_covariance(assemble_blocks(prob, 42.0), prob.jitter)
        assert summary.blocks.mirror is not None and len(summary.factors) == 2
        summary.trace_J, summary.diag
        assert not {"U", "W", "cov", "mean"} & summary.__dict__.keys()
        U = summary.U
        assert summary.__dict__["U"] is U
        assert not {"W", "cov"} & summary.__dict__.keys()

    def test_posterior_nearly_psd(self):
        prob = g.laplace_dirichlet()
        blocks = assemble_blocks(prob, 42.0)
        summary = posterior_covariance(blocks, prob.jitter)
        floor = -1e-8 * np.trace(blocks.K_tt)
        assert np.linalg.eigvalsh(summary.cov).min() >= floor

    def test_conditioning_reduces_trace(self):
        prob = g.laplace_dirichlet()
        blocks = assemble_blocks(prob, 42.0)
        summary = posterior_covariance(blocks, prob.jitter)
        assert summary.trace_J <= np.trace(blocks.K_tt) * (1 + 1e-8)
        assert summary.trace_J < 0.1 * np.trace(blocks.K_tt)

    def test_trace_peaks_at_eigenvalue(self):
        prob = g.laplace_dirichlet()
        on = posterior_covariance(assemble_blocks(prob, np.pi**2), prob.jitter)
        off = posterior_covariance(assemble_blocks(prob, 42.0), prob.jitter)
        assert on.trace_J > 100.0 * off.trace_J

    @pytest.mark.parametrize(
        "prob,lam",
        [
            (g.laplace_dirichlet("paper"), np.pi**2),
            (g.loaded_string(), 100.0),
            (g.poisson_bvp_demo(), 0.0),
        ],
        ids=["laplace-paper-pi2", "loaded-string-100", "poisson-demo"],
    )
    def test_cov_exactly_symmetric(self, prob, lam):
        # nothing symmetrizes cov: U U^T is one syrk and K_tt is even in r
        summary = posterior_covariance(assemble_blocks(prob, lam), prob.jitter)
        assert np.array_equal(summary.cov, summary.cov.T)

    @pytest.mark.parametrize("n_f", [2, 3, 8])
    def test_neg_log_likelihood_is_the_gaussian_density(self, n_f):
        # the value is -log N(rhs; 0, K_CC + jitter diag(K_CC)) of the raw rhs:
        # the equilibration's log det D is taken back out
        for jitter in (0.0, 1e-6):
            prob = dataclasses.replace(g.poisson_bvp_demo(), N=n_f, jitter=jitter)
            blocks = assemble_blocks(prob, 0.0)
            summary = posterior_covariance(blocks, prob.jitter)
            assert summary.diag.truncated_count == 0
            K, _ = _regularized(dense_blocks(prob, 0.0)[1], prob.jitter)
            _, logdet = np.linalg.slogdet(K)
            quad = blocks.rhs @ np.linalg.solve(K, blocks.rhs)
            want = 0.5 * (quad + logdet + K.shape[0] * np.log(2.0 * np.pi))
            assert abs(summary.neg_log_likelihood - want) <= 1e-12 * abs(want)


FAULTS_PER_PAPER_LAMBDA = """
import json, resource
import numpy as np
from gpeigen.problems import build_preset
from gpeigen.scan import evaluate_trace

prob = build_preset("laplace", "paper")
faults = []
for lam in np.geomspace(prob.grid.lo, prob.grid.hi, 12):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate_trace(prob, float(lam))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""

MALLOC_TUNING = {
    "MALLOC_MMAP_THRESHOLD_": "65536",
    "MALLOC_TRIM_THRESHOLD_": "131072",
    "MALLOC_TOP_PAD_": "0",
    "MALLOC_ARENA_MAX": "2",
    "GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072",
}


class FakeLibc:
    """Stands in for ctypes.CDLL(None), recording each mallopt call."""

    def __init__(self, calls):
        self.calls = calls

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture
def mallopt_calls(monkeypatch):
    """An environment that tunes no malloc setting and a recording libc."""
    calls = []
    for name in [*MALLOC_TUNING, *(k for k in os.environ if k.startswith("MALLOC_"))]:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(gpeigen.posterior.ctypes, "CDLL", lambda name: FakeLibc(calls))
    return calls


class TestPinHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_paper_lambda_reuses_its_pages(self, tmp_path):
        # each paper-scale λ frees and reallocates the same few MB; at glibc's
        # dynamic thresholds they page-fault afresh, about 2,200 times a λ.
        # The first λ or two grow the heap, and a λ now and then reads a few
        # hundred faults from other memory traffic, so the median runs over
        # eleven λ: one such spike in the five λ it once read could fail it.
        env = {k: v for k, v in os.environ.items()
               if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")}
        proc = run_fresh_interpreter(["-c", FAULTS_PER_PAPER_LAMBDA], tmp_path, env)
        assert proc.returncode == 0, proc.stderr
        faults = json.loads(proc.stdout)
        assert statistics.median(faults[1:]) < 50, faults

    @pytest.mark.parametrize("tunables", [None, "glibc.rtld.optional_static_tls=512"])
    def test_sets_thresholds_and_arena_cap(self, monkeypatch, mallopt_calls, tunables):
        if tunables is not None:  # a tunable of another subsystem tunes no malloc
            monkeypatch.setenv("GLIBC_TUNABLES", tunables)
        # the two thresholds only: the arena count stays glibc's own
        assert pin_heap.__wrapped__() is True
        assert mallopt_calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("name", sorted(MALLOC_TUNING))
    def test_leaves_a_tuned_allocator_alone(self, monkeypatch, mallopt_calls, name):
        monkeypatch.setenv(name, MALLOC_TUNING[name])
        assert pin_heap.__wrapped__() is False
        assert mallopt_calls == []

    @pytest.mark.parametrize("error", [OSError, AttributeError, TypeError])
    def test_no_mallopt_is_a_no_op(self, monkeypatch, mallopt_calls, error):
        def missing(name):
            raise error("no mallopt")

        monkeypatch.setattr(gpeigen.posterior.ctypes, "CDLL", missing)
        assert pin_heap.__wrapped__() is False


class TestSplitBlasThreads:
    """A mirror-split conditioning or sampling leaves the caller's BLAS
    thread count as it found it, also when a sampled half fails, and
    concurrent callers draw the same samples."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_caller_count_restored(self, set_blas_threads, threads):
        set_blas_threads(threads)
        prob = g.laplace_dirichlet()
        blocks = assemble_blocks(prob, 88.83)
        assert blocks.mirror is not None
        summary = posterior_covariance(blocks, prob.jitter)
        assert blas_threads() == threads
        sample_posterior(summary, 2, seed=0)
        assert blas_threads() == threads

    def test_concurrent_callers_restore_count(self, set_blas_threads):
        # unlocked, a caller could save another caller's 1 and restore it last
        set_blas_threads(2)
        prob = g.laplace_dirichlet()
        summary = posterior_covariance(assemble_blocks(prob, 88.83), prob.jitter)
        draws = []

        def sample():
            for _ in range(5):
                draws.append(sample_posterior(summary, 1, seed=0)[0].values.tobytes())

        threads = [threading.Thread(target=sample) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert blas_threads() == 2
        assert len(draws) == 20 and len(set(draws)) == 1

    def test_failed_odd_half_restores_count(self, monkeypatch, set_blas_threads):
        set_blas_threads(2)
        # an odd test grid has a fixed middle point: the odd half is smaller
        prob = dataclasses.replace(g.laplace_dirichlet(), N_t=201)
        summary = posterior_covariance(assemble_blocks(prob, 88.83), prob.jitter)
        (want,) = sample_posterior(summary, 1, seed=0)
        n_odd = prob.N_t // 2

        def odd_half_fails(M, jitter=0.0):
            if len(M) == n_odd:
                raise np.linalg.LinAlgError("odd half failed")
            return _eigh(M, jitter)

        monkeypatch.setattr(gpeigen.posterior, "_eigh", odd_half_fails)
        with pytest.raises(np.linalg.LinAlgError, match="odd half failed"):
            sample_posterior(summary, 1, seed=0)
        assert blas_threads() == 2
        monkeypatch.undo()
        (got,) = sample_posterior(summary, 1, seed=0)
        assert np.array_equal(got.values, want.values)


def _odd_laplace():
    return dataclasses.replace(g.laplace_dirichlet(), N=201)


def _midpoint_laplace():
    prob = g.laplace_dirichlet()
    return dataclasses.replace(prob, boundary=prob.boundary + (g.ConstraintSite(0.5, g.identity_op()),))


class TestEighJitter:
    @pytest.mark.parametrize(
        "prob,lam",
        [
            (g.laplace_dirichlet(), 50.0),
            (g.cantilever(), 100.0),
            (g.loaded_string(), 30.0),
        ],
        ids=["laplace", "cantilever", "loaded-string"],
    )
    def test_diagonal_shift_is_bitwise_the_identity_sum(self, prob, lam):
        # the in-place diagonal shift must give exactly K + jitter*I
        K = assemble_blocks(prob, lam).parts[0][1]
        before = K.copy()
        w, V = _eigh(K, prob.jitter)
        w0, V0 = np.linalg.eigh(K + prob.jitter * np.eye(len(K)))
        assert np.array_equal(w, w0)
        assert np.array_equal(V, V0)
        assert np.array_equal(K, before)


def _same_J(J, J0, rel, prior):
    """J equals J0 within `rel` of J0, above the roundoff floor of J =
    N_t variance - ||U||_F^2, a difference of numbers of the prior's size."""
    return abs(J - J0) <= rel * J0 + 1e-13 * prior


def _scaled_site(site, c):
    """`site` with its operator, and so its constraint row, times c."""
    terms = tuple(dataclasses.replace(t, num=tuple(c * v for v in t.num))
                  for t in site.operator.terms)
    return dataclasses.replace(site, operator=g.LinearOperatorSpec(terms))


def _eigh_trace(prob, lam):
    """J from one eigendecomposition of the equilibrated, shifted dense
    Gram, with no cut: U = K_tC D V w^-1/2."""
    K_tC, K_CC = dense_blocks(prob, lam)
    d = 1.0 / np.sqrt(np.diagonal(K_CC))
    w, V = np.linalg.eigh(K_CC * np.outer(d, d) + prob.jitter * np.eye(d.size))
    U = (K_tC * d) @ (V / np.sqrt(w))
    return prob.N_t * prob.kernel_at(lam).variance - np.sum(U * U)


class TestEquilibratedCholesky:
    """The conditioning factors D K_CC D + jitter I, D = diag(K_CC)^-1/2."""

    @pytest.mark.parametrize("preset", ["laplace", "cantilever", "loaded-string"])
    def test_J_ignores_the_scale_of_a_boundary_row(self, preset):
        # conditioning on A u = 0 equals conditioning on D A u = 0; the
        # equilibration makes the numbers agree too, at the first five modes
        prob = g.build_preset(preset)
        prior = prob.N_t * prob.schedule.variance
        lams = references_in_window(preset, prob.grid.lo, prob.grid.hi)[:5]
        want = [evaluate_trace(prob, lam)[0] for lam in lams]
        for k, site in enumerate(prob.boundary):
            sites = list(prob.boundary)
            sites[k] = _scaled_site(site, 1e4)
            scaled = dataclasses.replace(prob, boundary=tuple(sites))
            for lam, J0 in zip(lams, want):
                assert _same_J(evaluate_trace(scaled, lam)[0], J0, 1e-8, prior)

    @pytest.mark.parametrize("preset", ["laplace", "cantilever"], ids=["mirror", "unsplit"])
    def test_solve_fallback_gives_the_same_J(self, monkeypatch, preset):
        # no dtrsm found: numpy.linalg.solve on the same factor
        prob = g.build_preset(preset)
        prior = prob.N_t * prob.schedule.variance
        lams = list(make_lambda_grid(prob.grid)[::60])
        lams += references_in_window(preset, prob.grid.lo, prob.grid.hi)[:5]
        want = [evaluate_trace(prob, lam)[0] for lam in lams]
        monkeypatch.setattr(gpeigen.posterior, "_trsm", lambda: None)
        for lam, J0 in zip(lams, want):
            assert _same_J(evaluate_trace(prob, lam)[0], J0, 1e-10, prior)

    def test_a_gram_that_is_not_positive_definite_is_a_skipped_point(self):
        # a duplicated row and no nugget: Cholesky meets a zero pivot
        prob = g.laplace_dirichlet()
        dup = dataclasses.replace(
            prob, jitter=0.0, N=40, N_t=40, boundary=prob.boundary + prob.boundary[:1],
            grid=LambdaGrid("log", 5.0, 120.0, 5),
        )
        point = _scan_one(dup, 42.0)
        assert point.skipped and point.reason.startswith("LinAlgError: ")
        with pytest.raises(ScanError, match="LinAlgError"):
            scan_spectrum(dup)

    def test_a_row_of_no_variance_is_a_skipped_point(self):
        # an operator whose coefficient vanishes has no Jacobi scale
        prob = g.laplace_dirichlet()
        zero = _scaled_site(prob.boundary[0], 0.0)
        point = _scan_one(dataclasses.replace(prob, boundary=(zero, prob.boundary[1])), 42.0)
        assert point.skipped and point.reason.startswith("DecompositionError: ")

    @pytest.mark.parametrize("preset", ["laplace", "cantilever", "loaded-string"])
    def test_J_matches_an_equilibrated_eigh(self, preset):
        # every 10th point of the desk grid, within 1e-4 decades
        prob = g.build_preset(preset)
        for lam in make_lambda_grid(prob.grid)[::10]:
            J = evaluate_trace(prob, lam)[0]
            J0 = _eigh_trace(prob, lam)
            assert abs(np.log10(J) - np.log10(J0)) <= 1e-4


class TestMirrorSplit:
    """The even/odd split of a mirror-symmetric K_CC against the unsplit
    conditioning and the full eigh."""

    @pytest.mark.parametrize(
        "prob,lam",
        [
            (g.laplace_dirichlet(), np.pi**2),
            (g.laplace_dirichlet(), 4 * np.pi**2),
            (g.laplace_dirichlet(), 50.0),
            (g.laplace_dirichlet(), 400.0),
            (_odd_laplace(), 4 * np.pi**2),
            (g.poisson_bvp_demo(), 0.0),
            # N_f = 9 gives the BVP's interior grid a fixed middle row
            (dataclasses.replace(g.poisson_bvp_demo(), N=9), 0.0),
        ],
        ids=["laplace-pi2", "laplace-4pi2", "laplace-50", "laplace-400",
             "laplace-odd", "poisson-demo", "poisson-odd"],
    )
    def test_split_matches_full_eigh(self, prob, lam):
        blocks = assemble_blocks(prob, lam)
        assert blocks.mirror is not None
        K_tC, K_CC = dense_blocks(prob, lam)
        full = dataclasses.replace(blocks, parts=((K_tC, K_CC),), mirror=None,
                                   pairs=None, test_pairs=None)
        s = posterior_covariance(blocks, prob.jitter)
        s0 = posterior_covariance(full, prob.jitter)
        U, W, J, diag = s.U, s.W, s.trace_J, s.diag
        U0, J0, diag0 = s0.U, s0.trace_J, s0.diag
        _, ev = _regularized(K_CC, prob.jitter)
        for d in (diag, diag0):
            # every row kept, and the squared pivots within the spectrum of
            # the shifted equilibrated Gram, up to its roundoff
            assert (d.rank, d.truncated_count) == (ev.size, 0)
            slack = ev.size * np.finfo(float).eps * ev.max()
            assert ev.min() - slack <= d.sv_min_kept <= d.sv_max <= ev.max() + slack
        variance = blocks.spec.variance
        assert abs(J - J0) <= 1e-6 * prob.N_t * variance
        assert np.max(np.abs(U @ U.T - U0 @ U0.T)) <= 1e-6 * variance
        assert _whitens(W, K_CC, prob.jitter)

        nlml, nlml0 = s.neg_log_likelihood, s0.neg_log_likelihood
        if np.any(blocks.rhs):
            assert abs(nlml - nlml0) <= 1e-9 * abs(nlml0)
        else:
            # with no data the value is 0.5 log det + const, so an eigenvalue
            # error of delta (Weyl: at most the roundoff m eps max|ev| of
            # either path) moves it by at most delta / 2 ev
            delta = ev.size * np.finfo(float).eps * ev.max()
            assert abs(nlml - nlml0) <= 0.5 * np.sum(delta / (ev - delta))

    def test_eigenpairs_in_row_order(self):
        # the assembled halves' eigenpairs, unfolded, are the dense K_CC's
        prob = _odd_laplace()
        blocks = assemble_blocks(prob, 50.0)
        eighs = [_eigh(K_CC, prob.jitter) for _, K_CC in blocks.parts]
        w = np.concatenate([w_h for w_h, _ in eighs])
        V = _unfold([V_h for _, V_h in eighs], blocks.pairs)
        assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-12
        _, K_CC = dense_blocks(prob, 50.0)
        K = K_CC + prob.jitter * np.eye(len(K_CC))
        assert np.max(np.abs(K @ V - V * w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("n", [8, 9])
    def test_ground_truth_against_matrixcase(self, n):
        # A = L - λI with L the Dirichlet second difference and K an SE Gram
        # on a symmetric uniform grid: both commute with the reversal, so
        # A K A^T is centrosymmetric and the split applies exactly
        x = np.linspace(0.0, 1.0, n)
        L = (n + 1) ** 2 * (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
        spec = KernelSpec(variance=1.0, length_scale=0.1)
        K = kernel_mixed_derivative(spec, (0, 0), x[:, None], x[None, :])
        ev = np.linalg.eigvalsh(L)
        on = [ev[0], ev[1], ev[-1]]  # even, odd and the top eigenvector
        off = [0.5 * (ev[0] + ev[1]), 0.5 * (ev[3] + ev[4])]
        for lam in on + off:
            case = FiniteDimCase(L, K, lam)
            A = case.system_matrix()
            M, rev = A @ K @ A.T, np.arange(n)[::-1]
            halves = row_copy_fold(K @ A.T, rev, rev), row_copy_fold(0.5 * (M + M.T), rev, rev)
            blocks = AssembledBlocks(
                lam=lam,
                spec=spec,
                parts=tuple(zip(*halves)),
                rhs=np.zeros(n),
                x_test=x,
                x_constraint=x,
                mirror=rev,
                pairs=parity_pairs(rev),
                test_pairs=parity_pairs(rev),
            )
            want = fd_posterior_covariance(case)
            # the truth conditions on the range of a singular Gram (rcond
            # cut), the factor on Gram plus nugget: they differ by O(nugget).
            # A nonsingular Gram factors with no nugget, to the truth's roundoff
            cases = [(NUGGET, 100 * NUGGET)] + [(0.0, 1e-12)] * (lam in off)
            for jitter, tol in cases:
                s = posterior_covariance(blocks, jitter, RCOND_EXACT)
                U, J, diag = s.U, s.trace_J, s.diag
                assert (diag.rank, diag.truncated_count) == (n, 0)
                assert np.max(np.abs(K - U @ U.T - want)) <= tol * np.max(K)
                assert abs(J - np.trace(want)) <= tol * n


def _split_eigh(M, mirror):
    """Eigenpairs of both parity halves of M from the reference fold, even
    ones first, with V unfolded to the original row order."""
    (w_even, Y_even), (w_odd, Y_odd) = [_eigh(half) for half in row_copy_fold(M, mirror, mirror)]
    return np.concatenate([w_even, w_odd]), _unfold([Y_even, Y_odd], parity_pairs(mirror))


def _parity_basis(mirror):
    """The orthogonal Q of an involution and its even count: columns
    (e_p + e_q)/sqrt2 for p < q = mirror[p], then e_f for each fixed row f,
    then (e_p - e_q)/sqrt2, built entry by entry."""
    n = len(mirror)
    pairs = [(i, mirror[i]) for i in range(n) if mirror[i] > i]
    fixed = [i for i in range(n) if mirror[i] == i]
    Q, s, odd = np.zeros((n, n)), np.sqrt(0.5), n - len(pairs)
    for k, (i, j) in enumerate(pairs):
        Q[i, k] = Q[j, k] = Q[i, odd + k] = s
        Q[j, odd + k] = -s
    for k, i in enumerate(fixed):
        Q[i, len(pairs) + k] = 1.0
    return Q, odd


def _cross_blocks(M, row_mirror, col_mirror):
    """Largest entry of the blocks of Qr^T M Qc that couple even and odd."""
    (Qr, er), (Qc, ec) = _parity_basis(row_mirror), _parity_basis(col_mirror)
    B = Qr.T @ M @ Qc
    return max(np.max(np.abs(B[:er, ec:]), initial=0.0),
               np.max(np.abs(B[er:, :ec]), initial=0.0))


class TestFold:
    """The parity halves of K_CC, K_tC and K_tt, and their premise."""

    @pytest.mark.parametrize(
        "prob,lam",
        [
            (g.laplace_dirichlet(), np.pi**2),
            (g.laplace_dirichlet(), 42.0),
            (g.laplace_dirichlet(), 4 * np.pi**2),
            (g.laplace_dirichlet(), 400.0),
            (_odd_laplace(), np.pi**2),
            (_odd_laplace(), 50.0),
            (g.poisson_bvp_demo(), 0.0),
            (dataclasses.replace(g.poisson_bvp_demo(), N=9), 0.0),
        ],
        ids=["laplace-pi2", "laplace-42", "laplace-4pi2", "laplace-400",
             "laplace-odd-pi2", "laplace-odd-50", "poisson-demo", "poisson-odd"],
    )
    def test_dropped_cross_blocks_of_K_tC_are_roundoff(self, prob, lam):
        # reversing the test rows and mirroring the constraint columns at
        # once leaves K_tC unchanged, so the fold drops only roundoff
        blocks = assemble_blocks(prob, lam)
        assert blocks.mirror is not None
        rev = np.arange(blocks.x_test.size)[::-1]
        K_tC, _ = dense_blocks(prob, lam)
        assert _cross_blocks(K_tC, rev, blocks.mirror) <= 1e-12 * np.max(np.abs(K_tC))

    def test_cross_blocks_of_a_made_up_mirror_are_not(self):
        # the beam pins u and u' at 0 but u'' and u''' at 1: no mirror pairs
        prob = g.cantilever()
        blocks = assemble_blocks(prob, 500.0)
        assert blocks.mirror is None
        made_up = np.concatenate([np.arange(prob.N)[::-1], prob.N + np.array([2, 3, 0, 1])])
        rev = np.arange(prob.N_t)[::-1]
        ((K_tC, _),) = blocks.parts
        assert _cross_blocks(K_tC, rev, made_up) > 1e-12 * np.max(np.abs(K_tC))

    @pytest.mark.parametrize("rows,cols", [(7, 9), (8, 6), (9, 9), (None, None)])
    def test_fold_and_unfold_are_the_parity_basis(self, rows, cols):
        # the reference fold and `_unfold`, for column involutions with a
        # fixed row at the end of the order; with no pairs a matrix is its
        # own one block
        if rows is None:
            M = np.random.default_rng(0).standard_normal((7, 9))
            assert _unfold([M], None) is M
            return
        rng = np.random.default_rng(rows * cols)
        M = rng.standard_normal((rows, cols))
        row_mirror = np.arange(rows)[::-1]
        col_mirror = np.append(np.arange(cols - 1)[::-1], cols - 1)
        (Qr, er), (Qc, ec) = _parity_basis(row_mirror), _parity_basis(col_mirror)
        B = Qr.T @ M @ Qc
        even, odd = row_copy_fold(M, row_mirror, col_mirror)
        assert np.max(np.abs(even - B[:er, :ec])) <= 1e-15 * np.max(np.abs(M))
        assert np.max(np.abs(odd - B[er:, ec:])) <= 1e-15 * np.max(np.abs(M))
        Y_even, Y_odd = rng.standard_normal((er, 3)), rng.standard_normal((rows - er, 2))
        block = np.block([[Y_even, np.zeros((er, 2))], [np.zeros((rows - er, 3)), Y_odd]])
        unfolded = _unfold([Y_even, Y_odd], parity_pairs(row_mirror))
        assert np.max(np.abs(unfolded - Qr @ block)) <= 1e-15

    @pytest.mark.parametrize(
        "prob,lam",
        [(g.laplace_dirichlet(), lam) for lam in (5.0, np.pi**2, 42.0, 88.83, 400.0, 999.0)]
        + [(g.laplace_dirichlet(scale="paper"), lam) for lam in (np.pi**2, 88.83)]
        + [(_odd_laplace(), 50.0), (_midpoint_laplace(), 42.0)]
        + [(dataclasses.replace(g.poisson_bvp_demo(), N=n), 0.0) for n in (8, 9)],
        ids=[f"laplace-{i}" for i in range(6)] + ["paper-pi2", "paper-88"]
        + ["laplace-odd", "laplace-midpoint", "poisson-8", "poisson-9"],
    )
    def test_halves_are_the_row_copy_fold_of_the_dense_gram(self, prob, lam):
        # D + X and D - X from views of the lags are the parity halves of
        # the Gram evaluated on all pairs, to its roundoff
        _assert_halves(prob, lam)

    @pytest.mark.parametrize(
        "prob,lam",
        [(g.laplace_dirichlet(), lam) for lam in (5.0, np.pi**2, 42.0, 88.83, 400.0, 999.0)]
        + [(g.laplace_dirichlet(scale="paper"), lam) for lam in (np.pi**2, 88.83)]
        + [(_odd_laplace(), 50.0)]
        + [(dataclasses.replace(g.poisson_bvp_demo(), N=n), 0.0) for n in (8, 9)],
        ids=[f"laplace-{i}" for i in range(6)] + ["paper-pi2", "paper-88"]
        + ["laplace-odd", "poisson-8", "poisson-9"],
    )
    def test_halves_are_bitwise_the_row_copy_fold(self, prob, lam):
        # K_tt's halves are views of its lags: on an even test grid, whose
        # rows all pair, mirrored entries read the same lag, so they are the
        # reference fold of K_tt bit for bit
        blocks = assemble_blocks(prob, lam)
        mt = np.arange(blocks.x_test.size)[::-1]
        assert blocks.mirror is not None and prob.N_t % 2 == 0
        want = row_copy_fold(np.asarray(blocks.K_tt), mt, mt)
        for half, half0 in zip(blocks.K_tt_parts, want, strict=True):
            assert half.shape == half0.shape and half.tobytes() == half0.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_involution_of_shuffled_pairs_folds_too(self, seed):
        # boundary sites in a random order pair in no reversed prefix, and a
        # midpoint site is a fixed row among them
        prob = g.laplace_dirichlet()
        second = g.LinearOperatorSpec((g.OperatorTermSpec(2, (1.0,)),))
        sites = prob.boundary + (
            g.ConstraintSite(0.25, g.identity_op()), g.ConstraintSite(0.75, g.identity_op()),
            g.ConstraintSite(0.1, second), g.ConstraintSite(0.9, second),
            g.ConstraintSite(0.5, second),
        )
        order = np.random.default_rng(seed).permutation(len(sites))
        prob = dataclasses.replace(prob, boundary=tuple(sites[i] for i in order))
        blocks = _assert_halves(prob, 42.0)
        assert blocks.pairs[2].tolist() == [prob.N + int(np.flatnonzero(order == 6)[0])]


def _assert_halves(prob, lam):
    """Assert that the assembled halves of K_CC, K_tC and K_tt are the
    reference fold of the dense Gram within 1e-14 of its largest entry, and
    return the blocks."""
    blocks = assemble_blocks(prob, lam)
    mc, mt = blocks.mirror, np.arange(blocks.x_test.size)[::-1]
    assert mc is not None
    K_tC, K_CC = dense_blocks(prob, lam)
    xt = blocks.x_test
    K_tt = kernel_mixed_derivative(blocks.spec, (0, 0), xt[:, None], xt[None, :])
    for got, M, rows, cols in (([K for _, K in blocks.parts], K_CC, mc, mc),
                               ([K for K, _ in blocks.parts], K_tC, mt, mc),
                               (blocks.K_tt_parts, K_tt, mt, mt)):
        want = row_copy_fold(M, rows, cols)
        assert [half.shape for half in got] == [half.shape for half in want]
        for half, half0 in zip(got, want):
            assert np.max(np.abs(half - half0)) <= 1e-14 * np.max(np.abs(M))
    return blocks


@pytest.fixture(scope="module")
def peak_summary():
    prob = g.laplace_dirichlet()
    blocks = assemble_blocks(prob, np.pi**2)
    return posterior_covariance(blocks, prob.jitter)


class TestSamplePosterior:
    def test_seed_determinism(self, peak_summary):
        a = sample_posterior(peak_summary, 2, seed=11)
        b = sample_posterior(peak_summary, 2, seed=11)
        c = sample_posterior(peak_summary, 2, seed=12)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_substreams_differ(self, peak_summary):
        a, b = sample_posterior(peak_summary, 2, seed=5)
        assert not np.array_equal(a.values, b.values)

    def test_sup_norm_normalization(self, peak_summary):
        (s,) = sample_posterior(peak_summary, 1, seed=0, normalization="sup_norm")
        assert np.isclose(np.max(np.abs(s.values)), 1.0)

    def test_none_keeps_raw_scale(self, peak_summary):
        (raw,) = sample_posterior(peak_summary, 1, seed=0, normalization="none")
        (sup,) = sample_posterior(peak_summary, 1, seed=0, normalization="sup_norm")
        peak = np.max(np.abs(raw.values))
        assert peak != 1.0
        assert np.allclose(raw.values / peak, sup.values)

    def test_residual_diagnostic(self, peak_summary):
        (s,) = sample_posterior(peak_summary, 1, seed=0)
        assert np.isfinite(s.residual)
        assert s.residual >= 0.0

    def test_empirical_moments_match_cov(self, peak_summary):
        # 10k raw draws: empirical covariance within 5 standard errors
        # entrywise (Gaussian SE of c_ij is sqrt((c_ii c_jj + c_ij^2)/m))
        m = 10_000
        draws = sample_posterior(peak_summary, m, seed=31, normalization="none")
        X = np.stack([s.values for s in draws])
        X = X - peak_summary.mean
        emp = X.T @ X / m
        cov = peak_summary.cov
        d = np.diag(cov)
        se = np.sqrt((np.outer(d, d) + cov**2) / m)
        assert np.all(np.abs(emp - cov) <= 5.0 * se + 1e-12)

    def test_rejects_bad_count(self, peak_summary):
        with pytest.raises(ValueError):
            sample_posterior(peak_summary, 0, seed=0)

    @pytest.mark.parametrize("normalization", ["max", "l2"])
    def test_rejects_bad_normalization(self, peak_summary, normalization):
        with pytest.raises(ValueError, match="unknown normalization"):
            sample_posterior(peak_summary, 1, seed=0, normalization=normalization)

    def test_rejects_nonfinite_cov(self, peak_summary):
        # the sampler builds the covariance's halves from K_tt's and U's parts
        parts = [K.copy() for K in peak_summary.blocks.K_tt_parts]
        parts[0][0, 0] = np.inf
        with pytest.raises(DecompositionError):
            sample_posterior(_with_test_parts(peak_summary, parts), 1, seed=0)
        U, *rest = peak_summary.U_parts
        U = U.copy()
        U[0, 0] = np.nan
        broken = copy.copy(peak_summary)
        broken.U_parts = (U, *rest)
        with pytest.raises(DecompositionError):
            sample_posterior(broken, 1, seed=0)

    def test_leaves_the_covariance_unformed(self):
        prob = g.laplace_dirichlet()
        summary = posterior_covariance(assemble_blocks(prob, np.pi**2), prob.jitter)
        assert summary.blocks.mirror is not None
        sample_posterior(summary, 2, seed=0)
        assert "cov" not in summary.__dict__

    @pytest.mark.parametrize(
        "prob,lam",
        [
            (g.laplace_dirichlet(), (10 * np.pi) ** 2),
            (g.cantilever(), 500.0),
            (g.laplace_dirichlet("paper"), (10 * np.pi) ** 2),
        ],
        ids=["laplace-desk", "cantilever-desk", "laplace-paper"],
    )
    def test_zero_rhs_draws_unfold_nothing(self, prob, lam):
        blocks = assemble_blocks(prob, lam)
        assert not np.any(blocks.rhs)
        summary = posterior_covariance(blocks, prob.jitter)
        draws = sample_posterior(summary, 3, seed=5)
        assert not {"U", "W", "cov"} & summary.__dict__.keys()
        assert np.array_equal(summary.mean, np.zeros(prob.N_t))
        # the same draws from the mean U W^T rhs, formed as it was before
        unfolded = copy.copy(summary)
        unfolded.mean = unfolded.U @ (unfolded.W.T @ blocks.rhs)
        for new, old in zip(draws, sample_posterior(unfolded, 3, seed=5)):
            assert np.array_equal(new.values, old.values)
            assert new.residual == old.residual


def _with_test_parts(summary, parts):
    """A shallow copy of `summary` whose blocks read `parts` as the test
    Gram's parts."""
    out = copy.copy(summary)
    out.blocks = copy.copy(summary.blocks)
    out.blocks.K_tt_parts = parts  # replaces the cached parts
    return out


_SAMPLE_SPLIT_CASES = pytest.mark.parametrize(
    "prob,lam",
    [
        (g.laplace_dirichlet(), np.pi**2),
        (g.laplace_dirichlet(), 50.0),
        (g.laplace_dirichlet("paper"), 4 * np.pi**2),
        (g.laplace_dirichlet("paper"), 300.0),
        (dataclasses.replace(g.laplace_dirichlet(), N_t=201), 4 * np.pi**2),
        (g.poisson_bvp_demo(), 0.0),
    ],
    ids=["desk-pi2", "desk-50", "paper-4pi2", "paper-300", "odd-test-grid",
         "poisson-demo"],
)


class TestSampleSplit:
    """The parity halves of `sample_posterior` under the test mirror."""

    @_SAMPLE_SPLIT_CASES
    def test_split_eigenpairs_match_full_eigh(self, prob, lam):
        summary = posterior_covariance(assemble_blocks(prob, lam), prob.jitter)
        assert summary.blocks.mirror is not None
        mt = np.arange(prob.N_t)[::-1]
        variance = summary.blocks.spec.variance
        for M in (summary.cov, summary.blocks.K_tt):
            # the split decomposes M averaged with its mirror image.  K_tt is
            # exactly symmetric; cov differs from its average by the roundoff
            # of K_tt - U U^T, bounded on the prior's scale because off-peak
            # it is a sizeable part of the tiny cov
            avg = 0.5 * (M + M[np.ix_(mt, mt)])
            assert np.max(np.abs(avg - M)) <= 1e-11 * variance
            w, V = _split_eigh(M, mt)
            order = np.argsort(w, kind="stable")
            w, V = w[order], V[:, order]
            w0 = np.linalg.eigvalsh(avg)
            assert np.all(np.diff(w) >= 0.0)
            assert np.max(np.abs(w - w0)) <= 1e-13 * np.max(np.abs(w0))
            assert np.max(np.abs((V * w) @ V.T - avg)) <= 1e-12 * np.max(np.abs(avg))

    @pytest.mark.parametrize(
        "prob,lam",
        [
            (dataclasses.replace(g.laplace_dirichlet(), N=20, N_t=20), np.pi**2),
            (g.cantilever(), 500.0),
        ],
        ids=["laplace-mirror", "cantilever"],
    )
    def test_residual_is_the_sine_to_the_leading_eigenvector(self, prob, lam):
        # v1 from one full eigh of cov.  A mirror split decomposes cov
        # averaged with its mirror image, formed as the halves K_tt,h - U_h
        # U_h^T, which differ from the fold of cov by their own roundoff
        # Delta; each turns v1 by at most its 2-norm over w1 - w2 (Davis &
        # Kahan, SIAM J. Numer. Anal. 7 (1970)); the residual moves by at
        # most twice that
        summary = posterior_covariance(assemble_blocks(prob, lam), prob.jitter)
        cov = summary.cov
        w, V = np.linalg.eigh(cov)
        v1 = V[:, -1]
        turn = 0.0
        if summary.blocks.mirror is not None:
            mt = np.arange(prob.N_t)[::-1]
            halves = [K - U @ U.T for K, U in zip(summary.blocks.K_tt_parts, summary.U_parts)]
            delta = max(np.linalg.norm(h - f, 2) for h, f in zip(halves, row_copy_fold(cov, mt, mt)))
            asym = np.linalg.norm(0.5 * (cov - cov[np.ix_(mt, mt)]), 2)
            turn = (asym + delta) / (w[-1] - w[-2])
        for s in sample_posterior(summary, 4, seed=3, normalization="none"):
            u = s.values
            want = np.linalg.norm(u - (v1 @ u) * v1) / np.linalg.norm(u)
            assert abs(s.residual - want) <= 2.0 * turn + 1e-14

    @_SAMPLE_SPLIT_CASES
    def test_halves_are_those_of_the_covariance(self, monkeypatch, prob, lam):
        # the sampler builds K_tt,h - U_h U_h^T; folding the full cov drops
        # the cross terms of U U^T, which are roundoff
        summary = posterior_covariance(assemble_blocks(prob, lam), prob.jitter)
        halves = []

        def spy(M, *args):
            halves.append(M)
            return _eigh(M, *args)

        monkeypatch.setattr(gpeigen.posterior, "_eigh", spy)
        sample_posterior(summary, 1, seed=0)
        mt = np.arange(prob.N_t)[::-1]
        want = row_copy_fold(summary.cov, mt, mt)
        assert len(halves) == len(want) == 2
        for half, half0 in zip(halves, want):
            assert np.max(np.abs(half - half0)) <= 1e-12 * summary.blocks.spec.variance

    def test_kth_normal_draws_along_the_kth_smallest_eigenvalue(self):
        # the pairing of one full eigh, with both halves' eigenpairs sorted.
        # Off the spectrum cov's eigenvalues are roundoff, so the halves are
        # formed bit for bit as the sampler forms them
        prob = g.laplace_dirichlet()
        summary = posterior_covariance(assemble_blocks(prob, 50.0), prob.jitter)
        halves = [K - U @ U.T for K, U in zip(summary.blocks.K_tt_parts, summary.U_parts)]
        (w_even, Y_even), (w_odd, Y_odd) = [_eigh(half) for half in halves]
        w = np.concatenate([w_even, w_odd])
        order = np.argsort(w, kind="stable")
        F = _unfold([Y_even, Y_odd], summary.blocks.test_pairs)
        F = (F * np.sqrt(np.clip(w, 0.0, None)))[:, order]
        samples = sample_posterior(summary, 3, seed=7, normalization="none")
        children = np.random.SeedSequence(7).spawn(3)
        for s, child in zip(samples, children, strict=True):
            xi = np.random.default_rng(child).standard_normal(w.size)
            want = summary.mean + F @ xi
            assert np.max(np.abs(s.values - want)) <= 1e-14 * np.max(np.abs(want))

    def test_residual_of_a_zero_draw_is_zero(self, peak_summary):
        zero = _with_test_parts(peak_summary, [np.zeros_like(K) for K in peak_summary.blocks.K_tt_parts])
        zero.U_parts = tuple(np.zeros_like(U) for U in peak_summary.U_parts)
        (s,) = sample_posterior(zero, 1, seed=0, normalization="none")
        assert not np.any(s.values)
        assert s.residual == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_separates_an_eigenvalue_from_its_neighbourhood(self, n):
        # at (n pi)^2 the posterior is one function and every draw lies close
        # to it; 5% above, the next eigenvalue of cov turns the draws away.
        # The CLI's default count and seed
        prob = g.laplace_dirichlet()

        def residuals(lam):
            summary = posterior_covariance(assemble_blocks(prob, lam), prob.jitter)
            return [s.residual for s in sample_posterior(summary, 5, seed=0)]

        on, off = residuals((n * np.pi) ** 2), residuals(1.05 * (n * np.pi) ** 2)
        assert max(on) < min(off)

    @pytest.mark.parametrize(
        "prob,lam",
        [(g.cantilever(), 500.0), (g.loaded_string(), 42.0)],
        ids=["cantilever", "loaded-string"],
    )
    def test_unmirrored_samples_are_the_full_eigh_draws(self, prob, lam):
        # no test mirror: one full eigh and F @ xi per sample, bit for bit
        summary = posterior_covariance(assemble_blocks(prob, lam), prob.jitter)
        assert summary.blocks.mirror is None
        w, V = np.linalg.eigh(summary.cov)
        F = V * np.sqrt(np.clip(w, 0.0, None))
        samples = sample_posterior(summary, 3, seed=7, normalization="none")
        children = np.random.SeedSequence(7).spawn(3)
        for s, child in zip(samples, children, strict=True):
            xi = np.random.default_rng(child).standard_normal(w.size)
            assert np.array_equal(s.values, summary.mean + F @ xi)


class TestSolveBvp:
    def test_boundary_only_mean_is_zero(self):
        summary = solve_bvp(g.poisson_bvp_demo(), 0)
        assert np.max(np.abs(summary.mean)) <= 1e-12

    def test_mean_interpolates_constraints(self):
        prob = g.poisson_bvp_demo()
        summary = solve_bvp(prob, 8)
        x = summary.x_test
        assert abs(summary.mean[0]) <= 1e-8
        assert abs(summary.mean[-1]) <= 1e-8
        exact = -5.0 * x**2 + 5.0 * x
        assert np.max(np.abs(summary.mean - exact)) <= 0.03

    def test_more_sources_reduce_error(self):
        prob = g.poisson_bvp_demo()
        x = prob.test_grid()
        exact = -5.0 * x**2 + 5.0 * x
        errs = [
            np.max(np.abs(solve_bvp(prob, nf).mean - exact)) for nf in (2, 8)
        ]
        assert errs[1] < errs[0]

    def test_length_scale_fit_by_marginal_likelihood(self):
        prob = g.poisson_bvp_demo()
        summary = solve_bvp(prob, 8)
        spec, preset = summary.blocks.spec, prob.fixed_kernel
        lo, hi = BVP_LENGTH_BRACKET
        assert lo * preset.length_scale < spec.length_scale < hi * preset.length_scale
        assert spec.variance == preset.variance
        at_preset = posterior_covariance(assemble_blocks(prob, 0.0), prob.jitter)
        assert summary.neg_log_likelihood < at_preset.neg_log_likelihood

    def test_each_gram_conditioned_once(self, monkeypatch):
        # the preset and every probe of the fit are assembled and factored
        # once each, and the result is one of them; the golden-section
        # search spends 29 probes to shrink log l's bracket to 1e-5
        grams, specs = [], []
        scales, assemble = gpeigen.posterior._scales, gpeigen.posterior.assemble_blocks

        def spy_scales(parts, pairs):
            grams.append(b"".join(M.tobytes() for M in parts))
            return scales(parts, pairs)

        def spy_assemble(problem, lam):
            specs.append(problem.fixed_kernel)
            return assemble(problem, lam)

        monkeypatch.setattr(gpeigen.posterior, "_scales", spy_scales)
        monkeypatch.setattr(gpeigen.posterior, "assemble_blocks", spy_assemble)
        summary = solve_bvp(g.poisson_bvp_demo(), 8)
        assert 2 < len(grams) == len(specs) <= 32
        assert len(set(grams)) == len(grams)
        assert len(set(specs)) == len(specs)
        assert b"".join(K.tobytes() for _, K in summary.blocks.parts) in grams

    def test_fit_unchanged_by_the_mirror_split(self):
        prob = g.poisson_bvp_demo()
        summary = solve_bvp(prob, 8)
        assert summary.blocks.mirror is not None
        exact = -5.0 * summary.x_test**2 + 5.0 * summary.x_test
        assert round(summary.blocks.spec.length_scale, 3) == 0.397
        assert float(f"{np.max(np.abs(summary.mean - exact)):.3g}") == 6.29e-4

    def test_probes_that_do_not_factor_score_worst(self, monkeypatch):
        # at N_f = 15, jitter 0, some length scales of the bracket give a
        # Gram that does not factor; the fit steps past them
        prob = g.poisson_bvp_demo()
        failed, inner = [], gpeigen.posterior.posterior_covariance

        def spy(blocks, jitter):
            try:
                return inner(blocks, jitter)
            except np.linalg.LinAlgError:
                failed.append(blocks.spec.length_scale)
                raise

        monkeypatch.setattr(gpeigen.posterior, "posterior_covariance", spy)
        summary = solve_bvp(prob, 15)
        assert failed and summary.blocks.spec.length_scale not in failed
        exact = -5.0 * summary.x_test**2 + 5.0 * summary.x_test
        assert np.max(np.abs(summary.mean - exact)) < 1e-5

    def test_no_data_keeps_preset_kernel(self):
        prob = g.poisson_bvp_demo()
        assert solve_bvp(prob, 0).blocks.spec == prob.fixed_kernel

    def test_rejects_eigen_problem(self):
        with pytest.raises(ValueError):
            solve_bvp(g.laplace_dirichlet(), 4)

    def test_rejects_bad_counts(self):
        prob = g.poisson_bvp_demo()
        with pytest.raises(ValueError):
            solve_bvp(prob, -1)
        with pytest.raises(ValueError):
            solve_bvp(prob, 2.5)
