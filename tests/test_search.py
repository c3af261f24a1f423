"""The bounded Brent port against SciPy, its reference, and the
reference-root search against brentq."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import gpeigen as g
from gpeigen._search import BRENT_MAXFUN, minimize_bounded
from gpeigen.operators import assemble_blocks
from gpeigen.posterior import BVP_LENGTH_BRACKET, posterior_covariance
from gpeigen.problems import (
    _sign_change_roots,
    cantilever_characteristic,
    loaded_string_characteristic,
    reference_eigenvalues,
)
from gpeigen.scan import REFINE_RTOL, evaluate_trace, make_lambda_grid


def recorded(fn):
    """fn, and the list of points it is called at, as floats."""
    calls = []

    def wrapped(x):
        calls.append(float(x))
        return fn(x)

    return wrapped, calls


def assert_brent_parity(fn, lo, hi, xatol=1e-5):
    ours, our_calls = recorded(fn)
    theirs, their_calls = recorded(fn)
    x, nfev = minimize_bounded(ours, lo, hi, xatol)
    fit = minimize_scalar(
        theirs, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
    )
    assert (x, nfev) == (float(fit.x), fit.nfev)
    assert our_calls == their_calls
    return x, nfev


class TestMinimizeBounded:
    @pytest.mark.parametrize(
        "fn, lo, hi, xatol",
        [
            (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-5),
            (lambda x: math.sin(3.0 * x) + 0.1 * x * x, -4.0, 1.0, 1e-9),
            (lambda x: abs(x - 1.234), 0.0, 5.0, 1e-12),
            (lambda x: -math.exp(-((x - 0.77) ** 2) / 1e-4), 0.0, 1.0, 1e-7),
            (lambda x: 1.0, 2.0, 3.0, 1e-3),
        ],
    )
    def test_matches_scipy(self, fn, lo, hi, xatol):
        assert_brent_parity(fn, lo, hi, xatol)

    def test_matches_scipy_on_a_refinement(self, laplace_desk):
        # refine_peak's objective and tolerance at a desk Laplace peak
        prob, peak = laplace_desk.problem, laplace_desk.peaks[2]
        lams = make_lambda_grid(prob.grid)
        a, b = float(lams[peak.grid_index - 1]), float(lams[peak.grid_index + 1])
        xatol = max((b - a) / 2.0**20, REFINE_RTOL * abs(peak.lam_hat))

        def neg_log_J(lam):
            return -math.log10(max(evaluate_trace(prob, lam)[0], 1e-300))

        x, nfev = assert_brent_parity(neg_log_J, a, b, xatol)
        # refine_peak's polish reaches a J at least as high as Brent's
        assert laplace_desk.refined[2].J_peak >= evaluate_trace(prob, x)[0]

    def test_matches_scipy_on_the_bvp_likelihood(self):
        # solve_bvp's fit of log l for the poisson demo at N_f = 8
        prob = dataclasses.replace(g.poisson_bvp_demo(), N=8)
        l0 = prob.fixed_kernel.length_scale

        def nll(log_ell):
            ell = float(np.exp(log_ell))
            spec = dataclasses.replace(prob.fixed_kernel, length_scale=ell)
            blocks = assemble_blocks(dataclasses.replace(prob, fixed_kernel=spec), 0.0)
            return posterior_covariance(blocks, prob.jitter).neg_log_likelihood

        lo, hi = BVP_LENGTH_BRACKET
        x, nfev = assert_brent_parity(nll, np.log(lo * l0), np.log(hi * l0))
        assert math.exp(x) == pytest.approx(0.39748, abs=1e-5)
        assert nfev == 12

    def test_stops_at_the_evaluation_cap(self):
        # |x| over a huge bracket with no absolute tolerance to speak of
        assert assert_brent_parity(abs, -1e100, 2e100, 1e-300)[1] == BRENT_MAXFUN

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            minimize_bounded(abs, lo, hi)


def first_roots_by_brentq(fn, grid, count):
    """The first `count` roots of fn by brentq on the sign-change cells of
    grid, to the tightest tolerance brentq accepts."""
    vals = [float(fn(x)) for x in grid]
    cells = [i for i in range(len(grid) - 1) if vals[i] * vals[i + 1] < 0]
    return [brentq(fn, grid[i], grid[i + 1], xtol=1e-300) for i in cells[:count]]


def loaded_string_u(u):
    return loaded_string_characteristic(u * u)


class TestSignChangeRoots:
    """The reference-root search against brentq, its independent check."""

    @pytest.mark.parametrize(
        "fn, grid",
        [
            (cantilever_characteristic, np.arange(0.5, 130.0, 0.01)),
            (loaded_string_u, np.arange(0.05, 1.0 - 1e-6, 0.005)),
            (loaded_string_u, np.arange(1.0 + 1e-6, 130.0, 0.005)),
        ],
        ids=["cantilever-alpha", "loaded-string-u-below-pole", "loaded-string-u"],
    )
    def test_first_roots_match_brentq_to_4_ulp(self, fn, grid):
        count = 40
        theirs = first_roots_by_brentq(fn, grid, count)
        ours = _sign_change_roots(fn, grid, count)
        assert len(ours) == len(theirs) == (1 if grid[-1] < 1.0 else count)
        for x, y in zip(ours, theirs):
            assert abs(x - y) <= 4 * math.ulp(y)

    def test_an_exact_zero_on_the_grid_is_one_root(self):
        grid = np.linspace(0.0, 1.0, 5)  # holds 0.5 and 0.75 exactly
        assert _sign_change_roots(lambda x: (x - 0.5) * (x - 0.75), grid, 5) == [0.5, 0.75]
        # a zero between values of opposite sign is one root, not one per cell
        assert _sign_change_roots(lambda x: x - 0.25, grid, 5) == [0.25]
        assert _sign_change_roots(lambda x: np.sin(8.0 * x), grid, 2) == [0.0, np.pi / 8]

    def test_a_grid_without_sign_change_has_no_roots(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert _sign_change_roots(lambda x: x - 2.0, grid, 3) == []
        # a double root touches zero between grid points without a sign change
        assert _sign_change_roots(lambda x: (x - 0.55) ** 2, grid, 3) == []

    def test_skips_cells_with_a_nonfinite_end(self):
        # the sign flips beside a NaN and beside an infinity: neither cell
        # holds a root the search can trust
        vals = {0.0: -1.0, 0.25: np.nan, 0.5: 1.0, 0.75: np.inf, 1.0: -1.0}
        fn = np.vectorize(vals.__getitem__, otypes=[float])
        assert _sign_change_roots(fn, np.linspace(0.0, 1.0, 5), 3) == []

    def test_stops_at_count_and_orders_roots(self):
        grid = np.arange(0.1, 20.0, 0.01)
        roots = _sign_change_roots(np.sin, grid, 4)
        assert roots == sorted(roots) and len(roots) == 4
        assert np.allclose(roots, np.pi * np.arange(1, 5), rtol=4e-16, atol=0)

    def test_no_root_at_the_loaded_string_pole(self):
        refs = reference_eigenvalues("loaded-string", 60)
        assert min(abs(lam - 1.0) for lam in refs) > 0.1
        for lam in refs:
            assert abs(loaded_string_characteristic(lam)) < 1e-9 * max(1.0, lam)
