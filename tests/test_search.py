"""The bounded Brent and bisection ports against SciPy, their reference."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import bisect as scipy_bisect
from scipy.optimize import minimize_scalar

import gpeigen as g
from gpeigen._search import BISECT_MAXITER, BRENT_MAXFUN, bisect, minimize_bounded
from gpeigen.operators import assemble_blocks
from gpeigen.posterior import BVP_LENGTH_BRACKET, posterior_covariance
from gpeigen.problems import _loaded_string_u, cantilever_characteristic
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
        assert x == laplace_desk.refined[2].lam_hat
        assert nfev == laplace_desk.refined[2].evaluations

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


class TestBisect:
    @pytest.mark.parametrize(
        "fn, grid, xtol",
        [
            (cantilever_characteristic, np.arange(0.5, 30.0, 0.01), 1e-13),
            (_loaded_string_u, np.arange(1.0 + 1e-6, 40.0, 0.005), 1e-10),
        ],
    )
    def test_matches_scipy_on_the_characteristic_functions(self, fn, grid, xtol):
        vals = [fn(x) for x in grid]
        cells = [i for i in range(len(grid) - 1) if vals[i] * vals[i + 1] < 0]
        assert len(cells) >= 8
        for i in cells:
            ours, our_calls = recorded(fn)
            theirs, their_calls = recorded(fn)
            root = bisect(ours, grid[i], grid[i + 1], xtol)
            assert root == scipy_bisect(theirs, grid[i], grid[i + 1], xtol=xtol)
            assert our_calls == their_calls

    def test_returns_an_endpoint_root(self):
        assert bisect(lambda x: x, 0.0, 1.0, 1e-3) == 0.0
        assert bisect(lambda x: x - 1.0, 0.0, 1.0, 1e-3) == 1.0

    def test_rejects_a_bracket_without_sign_change(self):
        with pytest.raises(ValueError, match="different signs"):
            bisect(lambda x: x - 2.0, 0.0, 1.0, 1e-3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            bisect(lambda x: math.nan, 0.0, 1.0, 1e-3)

    def test_rejects_nonpositive_xtol(self):
        with pytest.raises(ValueError):
            bisect(lambda x: x, -1.0, 1.0, 0.0)

    def test_raises_when_not_converged(self):
        # 2**-100 of a 1e300-wide bracket is still far from any tolerance
        f = lambda x: x - 1.0 / 3.0
        with pytest.raises(RuntimeError, match=f"after {BISECT_MAXITER} iterations"):
            bisect(f, -1e300, 1e300, 1e-12)
        with pytest.raises(RuntimeError):
            scipy_bisect(f, -1e300, 1e300, xtol=1e-12)
