"""The reference-root search against brentq."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from gpeigen.problems import (
    _sign_change_roots,
    cantilever_characteristic,
    loaded_string_characteristic,
    reference_eigenvalues,
)


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
