"""Problem presets, validation, and reference eigenvalue oracles."""

import dataclasses

import numpy as np
import pytest

import gpeigen as g
from gpeigen.kernel import KernelSpec
from gpeigen.operators import ConstraintSite, identity_op
from gpeigen.problems import (
    NUGGET,
    PRESET_BUILDERS,
    BracketError,
    ProblemSpec,
    build_preset,
    cantilever_characteristic,
    loaded_string_characteristic,
    reference_eigenvalues,
    references_in_window,
)
from gpeigen.scan import HyperSchedule, LambdaGrid


class TestPresets:
    def test_registry_contents(self):
        assert set(PRESET_BUILDERS) == {
            "laplace",
            "cantilever",
            "loaded-string",
            "poisson-demo",
        }

    def test_build_preset_matches_direct_call(self):
        assert build_preset("laplace") == g.laplace_dirichlet()
        assert build_preset("cantilever") == g.cantilever()
        assert build_preset("loaded-string") == g.loaded_string()
        assert build_preset("poisson-demo") == g.poisson_bvp_demo()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_preset("helmholtz")

    @pytest.mark.parametrize("problem_id", sorted(PRESET_BUILDERS))
    def test_build_preset_checks_scale(self, problem_id):
        with pytest.raises(ValueError, match="unknown scale 'bogus'"):
            build_preset(problem_id, "bogus")

    def test_demo_has_one_size(self):
        assert build_preset("poisson-demo", "paper") == g.poisson_bvp_demo()

    def test_desk_scale_sizes(self):
        prob = g.laplace_dirichlet()
        assert prob.N == 200
        assert prob.N_t == 200
        assert prob.grid.count == 150

    def test_paper_scale_sizes(self):
        prob = g.laplace_dirichlet(scale="paper")
        assert prob.N == 500
        assert prob.N_t == 500
        assert prob.grid.count == 500

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            g.laplace_dirichlet(scale="huge")

    def test_laplace_grid_and_jitter(self):
        prob = g.laplace_dirichlet()
        assert prob.grid == LambdaGrid("log", 1.0, 1000.0, 150)
        assert prob.jitter == NUGGET == 1e-10
        assert prob.schedule == HyperSchedule(C=150.0, p=0.5, variance=1.0)

    def test_cantilever_grid_and_jitter(self):
        prob = g.cantilever()
        assert prob.grid.kind == "power_root"
        assert prob.grid.root == 4.0
        assert prob.grid.lo == 1.0
        assert prob.grid.hi == 15.0**4
        assert prob.jitter == NUGGET
        assert prob.schedule == HyperSchedule(C=1000.0, p=0.25, variance=1.0)
        assert len(prob.boundary) == 4

    def test_kernel_at_follows_schedule(self):
        prob = g.laplace_dirichlet()
        spec = prob.kernel_at(4.0)
        assert np.isclose(spec.length_scale, 150.0 / 200.0 / 2.0)
        assert spec.variance == 1.0

    def test_bvp_kernel_is_fixed(self):
        prob = g.poisson_bvp_demo()
        assert prob.kernel_at(0.0) == KernelSpec(variance=1.0, length_scale=0.2)
        assert prob.kernel_at(77.0) == prob.kernel_at(0.0)


class TestProblemValidation:
    def base_kwargs(self):
        return dict(
            problem_id="toy",
            domain=(0.0, 1.0),
            interior_op=identity_op(),
            boundary=(ConstraintSite(0.0, identity_op()),),
            N=10,
            N_t=10,
            jitter=0.0,
            schedule=HyperSchedule(C=1.0, p=0.5, variance=1.0),
            grid=LambdaGrid("linear", 1.0, 2.0, 5),
        )

    def test_valid_base(self):
        ProblemSpec(**self.base_kwargs())

    def test_rejects_bad_domain(self):
        kw = self.base_kwargs()
        kw["domain"] = (1.0, 0.0)
        with pytest.raises(ValueError):
            ProblemSpec(**kw)

    @pytest.mark.parametrize("domain", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
    def test_rejects_a_non_finite_domain_end(self, domain):
        # (0, inf) used to build, then fail every λ with RuntimeWarnings
        kw = self.base_kwargs()
        kw["domain"] = domain
        with pytest.raises(ValueError, match="domain"):
            ProblemSpec(**kw)

    def test_rejects_small_test_grid(self):
        kw = self.base_kwargs()
        kw["N_t"] = 1
        with pytest.raises(ValueError):
            ProblemSpec(**kw)

    def test_rejects_negative_jitter(self):
        kw = self.base_kwargs()
        kw["jitter"] = -1e-8
        with pytest.raises(ValueError):
            ProblemSpec(**kw)

    def test_rejects_infinite_jitter(self):
        # used to build, then fail every λ with DecompositionError
        kw = self.base_kwargs()
        kw["jitter"] = np.inf
        with pytest.raises(ValueError, match="jitter"):
            ProblemSpec(**kw)

    def test_eigen_needs_schedule_and_grid(self):
        kw = self.base_kwargs()
        kw["schedule"] = None
        with pytest.raises(ValueError):
            ProblemSpec(**kw)
        kw = self.base_kwargs()
        kw["grid"] = None
        with pytest.raises(ValueError):
            ProblemSpec(**kw)

    def test_eigen_needs_positive_n(self):
        kw = self.base_kwargs()
        kw["N"] = 0
        with pytest.raises(ValueError):
            ProblemSpec(**kw)

    def test_bvp_allows_zero_n_but_needs_kernel(self):
        kw = self.base_kwargs()
        kw.update(N=0, schedule=None, grid=None)
        with pytest.raises(ValueError):
            ProblemSpec(**kw)
        kw["fixed_kernel"] = KernelSpec(variance=1.0, length_scale=0.2)
        ProblemSpec(**kw)

    def test_mode_is_read_from_the_grid(self):
        assert "mode" not in {f.name for f in dataclasses.fields(ProblemSpec)}
        assert ProblemSpec(**self.base_kwargs()).mode == "eigen"
        kw = self.base_kwargs()
        kw.update(grid=None, schedule=None, fixed_kernel=KernelSpec(1.0, 0.2))
        assert ProblemSpec(**kw).mode == "bvp"
        modes = {pid: build_preset(pid).mode for pid in PRESET_BUILDERS}
        assert modes == {"laplace": "eigen", "cantilever": "eigen",
                         "loaded-string": "eigen", "poisson-demo": "bvp"}

    def test_needs_exactly_one_kernel_source(self):
        kw = self.base_kwargs()
        kw["grid"] = None
        with pytest.raises(ValueError, match="schedule needs a lambda grid"):
            ProblemSpec(**kw)
        kw = self.base_kwargs()
        kw["schedule"] = None
        with pytest.raises(ValueError, match="exactly one kernel source"):
            ProblemSpec(**kw)
        kw = self.base_kwargs()
        kw["fixed_kernel"] = KernelSpec(variance=1.0, length_scale=0.2)
        with pytest.raises(ValueError, match="exactly one kernel source"):
            ProblemSpec(**kw)
        # a fixed kernel alone serves an eigenproblem too
        kw["schedule"] = None
        assert ProblemSpec(**kw).kernel_at(7.0) == kw["fixed_kernel"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_rhs_const(self, value):
        # used to build, then give solve_bvp an all-NaN mean with no error
        with pytest.raises(ValueError, match="rhs_const must be finite"):
            dataclasses.replace(build_preset("poisson-demo"), rhs_const=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_site_rhs(self, value):
        with pytest.raises(ValueError, match="^rhs must be finite"):
            ConstraintSite(0.0, identity_op(), value)

    def test_rejects_boundary_outside_domain(self):
        kw = self.base_kwargs()
        kw["boundary"] = (ConstraintSite(1.5, identity_op()),)
        with pytest.raises(ValueError):
            ProblemSpec(**kw)


class TestReferenceOracles:
    def test_laplace_closed_form(self):
        refs = reference_eigenvalues("laplace", 5)
        assert np.allclose(refs, [(n * np.pi) ** 2 for n in range(1, 6)])

    def test_cantilever_characteristic_residuals(self):
        refs = reference_eigenvalues("cantilever", 4)
        alphas = [r**0.25 for r in refs]
        # the frequency equation comes divided by cosh(α), which blows up
        # along the root sequence
        for a in alphas:
            assert abs(cantilever_characteristic(a)) < 1e-14
            assert abs(np.cosh(a) * np.cos(a) + 1.0) < 1e-10 * np.cosh(a)
        # the roots approach the odd multiples of pi/2 from n = 2 on
        assert abs(alphas[1] - 3 * np.pi / 2) < 0.02
        assert abs(alphas[2] - 5 * np.pi / 2) < 0.001

    def test_cantilever_first_root_value(self):
        (lam1,) = reference_eigenvalues("cantilever", 1)
        assert abs(lam1**0.25 - 1.8751040687) < 1e-9

    def test_loaded_string_characteristic_residuals(self):
        refs = reference_eigenvalues("loaded-string", 6)
        for lam in refs:
            assert abs(loaded_string_characteristic(lam)) < 1e-6
        # the spectrum straddles the pole: one root sits below lambda = 1
        assert 0.0 < refs[0] < 1.0
        assert refs[1] > 1.0
        assert np.all(np.diff(refs) > 0)

    def test_loaded_string_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            loaded_string_characteristic(1.0)
        with pytest.raises(ZeroDivisionError):
            loaded_string_characteristic(np.array([0.5, 1.0, 2.0]))

    @pytest.mark.parametrize(
        "fn, xs",
        [
            (cantilever_characteristic, [0.5, 1.875, 30.0, 800.0]),
            (loaded_string_characteristic, [0.25, 2.0, 90.0, 1e4]),
        ],
    )
    def test_characteristic_functions_take_arrays(self, fn, xs):
        assert fn(np.array(xs)).tolist() == [fn(x) for x in xs]

    def test_wide_cantilever_window_keeps_its_references(self):
        # the roots run past α = 710, where cosh overflows; any warning
        # fails the test under the suite's warnings-as-errors setting.  The
        # window holds the 318 roots α_n ≈ (2n - 1)π/2 up to α = 1e3
        refs = references_in_window("cantilever", 1.0, 1e12)
        assert len(refs) == 318
        assert refs == sorted(refs) and 1.0 <= refs[0] and refs[-1] <= 1e12
        assert refs == reference_eigenvalues("cantilever", 318)
        # past α = 745 sech(α) underflows, so the roots are the zeros of cos
        assert refs[-1] ** 0.25 == pytest.approx(635 * np.pi / 2, rel=1e-15)

    def test_window_past_the_256th_root(self):
        # the root count doubles until the last root passes the window's end
        refs = references_in_window("laplace", 1e6, 2e6)
        assert refs == [(n * np.pi) ** 2 for n in range(319, 451)]
        assert len(references_in_window("laplace", 1.0, 2e6)) == 450
        beam = references_in_window("cantilever", 1e12, 1e13)
        assert beam and 1e12 <= beam[0] and beam[-1] <= 1e13

    @pytest.mark.parametrize("hi", [np.inf, np.nan])
    def test_window_end_must_be_finite(self, hi):
        # an infinite end would double the root count forever
        with pytest.raises(ValueError, match="finite"):
            references_in_window("laplace", 1.0, hi)

    def test_window_filtering(self):
        refs = references_in_window("laplace", 10.0, 500.0)
        assert refs[0] == pytest.approx(4 * np.pi**2)
        assert refs[-1] <= 500.0
        assert len(refs) == 6

    def test_unknown_problem_and_bad_count(self):
        with pytest.raises(ValueError):
            reference_eigenvalues("poisson-demo", 3)
        with pytest.raises(ValueError):  # preset ids are spelled one way
            reference_eigenvalues("loaded_string", 2)
        with pytest.raises(ValueError):
            reference_eigenvalues("laplace", 0)
