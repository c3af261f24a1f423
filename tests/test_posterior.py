"""Pseudoinverse, posterior conditioning, sampling, and the BVP path."""

import numpy as np
import pytest

import gpeigen as g
from gpeigen.operators import assemble_blocks
from gpeigen.posterior import (
    DEFAULT_RCOND,
    DecompositionError,
    condition,
    regularized_pseudoinverse,
    posterior_covariance,
    sample_posterior,
    solve_bvp,
)
from gpeigen.scan import evaluate_trace


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
        assert d1.jitter_used == 1e-3
        assert d2.jitter_used == 0.0

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


class TestPosteriorCovariance:
    @pytest.mark.parametrize(
        "preset,lam", [("laplace", 42.0), ("cantilever", 500.0), ("loaded-string", 42.0)]
    )
    def test_eigen_posterior_basics(self, preset, lam):
        prob = g.build_preset(preset)
        blocks = assemble_blocks(prob, lam)
        rcond = DEFAULT_RCOND
        summary = posterior_covariance(blocks, prob.jitter, rcond)
        assert summary.lam == lam
        assert summary.cov.shape == (prob.N_t, prob.N_t)
        assert np.array_equal(summary.cov, summary.cov.T)
        # the scan reads the same core: J agrees exactly, and the factor's
        # trace agrees with the formed covariance to roundoff
        J, diag = evaluate_trace(prob, lam, rcond)
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
        U, W, J, diag = condition(blocks, prob.jitter)
        assert "K_tt" not in blocks.__dict__
        assert U.shape == (prob.N_t, diag.rank)
        assert W.shape == (blocks.constraint_count, diag.rank)
        assert np.array_equal(U, blocks.K_tC @ W)
        # the full covariance builds the test Gram once and caches it
        posterior_covariance(blocks, prob.jitter)
        assert blocks.__dict__["K_tt"] is blocks.K_tt

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

    def test_l2_normalization(self, peak_summary):
        (s,) = sample_posterior(peak_summary, 1, seed=0, normalization="l2")
        assert np.isclose(np.linalg.norm(s.values), 1.0)

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

    def test_rejects_bad_normalization(self, peak_summary):
        with pytest.raises(ValueError):
            sample_posterior(peak_summary, 1, seed=0, normalization="max")

    def test_rejects_nonfinite_cov(self, peak_summary):
        import dataclasses

        bad_cov = peak_summary.cov.copy()
        bad_cov[0, 0] = np.inf
        broken = dataclasses.replace(peak_summary, cov=bad_cov)
        with pytest.raises(DecompositionError):
            sample_posterior(broken, 1, seed=0)


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

    def test_rejects_eigen_problem(self):
        with pytest.raises(ValueError):
            solve_bvp(g.laplace_dirichlet(), 4)

    def test_rejects_bad_counts(self):
        prob = g.poisson_bvp_demo()
        with pytest.raises(ValueError):
            solve_bvp(prob, -1)
        with pytest.raises(ValueError):
            solve_bvp(prob, 2.5)
