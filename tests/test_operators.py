"""Operator coefficients, operator specs, and block assembly."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import gpeigen as g
from gpeigen import operators
from gpeigen.kernel import MAX_DERIV_ORDER, KernelSpec, kernel_mixed_derivative
from gpeigen.operators import (
    GridError,
    OperatorTermSpec,
    PoleError,
    apply_bilinear,
    assemble_blocks,
    identity_op,
)

from conftest import dense_blocks, row_copy_fold


def coeff(num, den=(1.0,), lam=0.0):
    return OperatorTermSpec(0, num, den).coeff(lam)


class TestEvalCoeff:
    def test_basic_polynomials(self):
        assert coeff((3.5,), lam=7.0) == 3.5
        assert coeff((1.0, 0.0), lam=7.0) == 7.0
        assert coeff((-1.0, 0.0), lam=2.0) == -2.0
        assert coeff((1.0, 1.0), lam=2.0) == 3.0
        assert coeff((2.0, 0.0), lam=3.0) == 6.0
        assert coeff((1.0, 0.0, -2.0), lam=3.0) == 7.0
        assert coeff((1.0, 0.0), (4.0,), lam=2.0) == 0.5

    def test_nested_rational(self):
        # kappa*M*lam / (lam - kappa) with kappa = M = 1
        assert coeff((1.0, 0.0), (1.0, -1.0), lam=2.0) == 2.0
        assert coeff((1.0, 0.0), (1.0, -1.0), lam=0.5) == -1.0

    @pytest.mark.parametrize("lam", [0.3, 2.0, 9.87, 42.0, 123.456, 987.6])
    def test_preset_coefficients_bit_for_bit(self, lam):
        # the shift term and the loaded-string load, as the presets spell them
        *_, shift = g.laplace_dirichlet().interior_op.terms
        assert shift.coeff(lam) == -lam
        _, load = g.loaded_string().boundary[1].operator.terms
        assert load.coeff(lam) == lam / (lam - 1.0)
        (term,) = g.cantilever().boundary[3].operator.terms
        assert term.coeff(lam) == 1.0

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            coeff((1.0,), (1.0, -1.0), lam=1.0)

    def test_pole_message_carries_lambda(self):
        with pytest.raises(PoleError) as err:
            coeff((1.0,), (1.0, 0.0), lam=0.0)
        assert "lambda" in str(err.value)

    def test_rejects_empty_polynomial(self):
        with pytest.raises(ValueError, match="num needs at least one"):
            OperatorTermSpec(0, ())
        with pytest.raises(ValueError, match="den needs at least one"):
            OperatorTermSpec(0, (1.0,), ())

    @pytest.mark.parametrize(
        "name, poly",
        [("num", (np.nan,)), ("num", (1.0, np.inf)),
         ("den", (np.inf,)), ("den", (1.0, np.nan))],
    )
    def test_rejects_non_finite_coefficients(self, name, poly):
        # den=(inf,) made coeff 0.0, silently dropping the term; nan made it nan
        with pytest.raises(ValueError, match=f"term {name} coefficients must be finite"):
            OperatorTermSpec(0, **{"num": (1.0,), name: poly})

    def test_lists_become_hashable_tuples(self):
        term = OperatorTermSpec(0, [1.0, 0.0], [1.0, -1.0])
        assert term == OperatorTermSpec(0, (1.0, 0.0), (1.0, -1.0))
        assert hash(term) == hash(OperatorTermSpec(0, (1.0, 0.0), (1.0, -1.0)))


class TestOperatorSpecs:
    def test_max_order(self):
        op = g.LinearOperatorSpec(
            (OperatorTermSpec(2, (-1.0,)), OperatorTermSpec(0, (0.5,)))
        )
        assert op.max_order == 2

    def test_identity(self):
        op = identity_op()
        assert op.max_order == 0
        (term,) = op.terms
        assert term.coeff(123.0) == 1.0

    def test_rejects_empty_terms(self):
        with pytest.raises(ValueError):
            g.LinearOperatorSpec(())

    def test_rejects_duplicate_orders(self):
        with pytest.raises(ValueError):
            g.LinearOperatorSpec(
                (OperatorTermSpec(1, (1.0,)), OperatorTermSpec(1, (2.0,)))
            )

    def test_term_order_bounds(self):
        with pytest.raises(ValueError):
            OperatorTermSpec(-1, (1.0,))
        with pytest.raises(ValueError):
            OperatorTermSpec(MAX_DERIV_ORDER + 1, (1.0,))


class TestApplyBilinear:
    def test_identity_pair_is_plain_kernel(self):
        spec = KernelSpec(variance=1.0, length_scale=0.5)
        x = np.linspace(0.0, 1.0, 5)
        got = apply_bilinear(
            identity_op(), identity_op(), spec, 0.0, x[:, None], x[None, :]
        )
        want = kernel_mixed_derivative(spec, (0, 0), x[:, None], x[None, :])
        assert np.allclose(got, want, rtol=1e-14)

    def test_shifted_second_order_by_hand(self):
        # (-d2 - lam) on both arguments expands to four kernel blocks with
        # the odd-order sign convention folded into the (2, 0) cross terms
        spec = KernelSpec(variance=1.0, length_scale=0.4)
        lam = 7.0
        op = g.LinearOperatorSpec(
            (OperatorTermSpec(2, (-1.0,)), OperatorTermSpec(0, (-1.0, 0.0)))
        )
        x = np.linspace(0.1, 0.9, 4)
        X, Y = x[:, None], x[None, :]
        got = apply_bilinear(op, op, spec, lam, X, Y)
        want = (
            kernel_mixed_derivative(spec, (2, 2), X, Y)
            + lam * kernel_mixed_derivative(spec, (2, 0), X, Y)
            + lam * kernel_mixed_derivative(spec, (0, 2), X, Y)
            + lam**2 * kernel_mixed_derivative(spec, (0, 0), X, Y)
        )
        assert np.allclose(got, want, rtol=1e-12)

    def test_lambda_scaling(self):
        spec = KernelSpec(variance=1.0, length_scale=0.4)
        op = g.LinearOperatorSpec((OperatorTermSpec(0, (1.0, 0.0)),))
        at2 = apply_bilinear(op, identity_op(), spec, 2.0, 0.25, 0.25)
        at5 = apply_bilinear(op, identity_op(), spec, 5.0, 0.25, 0.25)
        assert np.isclose(at5 / at2, 2.5)

    def test_scalar_inputs_return_float(self):
        spec = KernelSpec(variance=1.0, length_scale=0.7)
        out = apply_bilinear(identity_op(), identity_op(), spec, 0.0, 0.3, 0.3)
        assert isinstance(out, float)
        assert np.isclose(out, 1.0)

    def test_first_derivative_swaps_with_sign_flip(self):
        spec = KernelSpec(variance=1.0, length_scale=0.7)
        op = g.LinearOperatorSpec((OperatorTermSpec(1, (1.0,)),))
        left = apply_bilinear(op, identity_op(), spec, 0.0, 0.2, 0.6)
        right = apply_bilinear(identity_op(), op, spec, 0.0, 0.2, 0.6)
        assert np.isclose(left, -right)


class TestAssembleBlocks:
    def test_shapes_ordering_and_rhs(self):
        prob = g.laplace_dirichlet()
        blocks = assemble_blocks(prob, 20.0)
        n_c = prob.N + len(prob.boundary)
        assert blocks.K_tt.shape == (prob.N_t, prob.N_t)
        # the even and the odd half: every row pairs with its mirror image
        half = ((prob.N_t // 2, n_c // 2), (n_c // 2, n_c // 2))
        assert [(K_tC.shape, K_CC.shape) for K_tC, K_CC in blocks.parts] == [half] * 2
        assert np.allclose(blocks.x_constraint[: prob.N], prob.collocation_grid())
        assert blocks.x_constraint[prob.N :].tolist() == [0.0, 1.0]
        assert blocks.rhs.shape == (n_c,)
        assert np.all(blocks.rhs == 0.0)

    @pytest.mark.parametrize(
        "pid,scale",
        [("laplace", "desk"), ("laplace", "paper"), ("cantilever", "desk")],
        ids=["laplace-desk", "laplace-paper", "cantilever-desk"],
    )
    def test_kcc_exactly_symmetric(self, pid, scale):
        # nothing symmetrizes K_CC or its halves after assembly: block and
        # transposed block sum the same products, in the same order for
        # these operators, and X mirrors the earlier of two row groups
        blocks = assemble_blocks(g.build_preset(pid, scale), 33.0)
        assert len(blocks.parts) == (1 if pid == "cantilever" else 2)
        for _, K in blocks.parts:
            assert np.array_equal(K, K.T)

    def test_kcc_symmetric_to_roundoff_with_a_rational_boundary_row(self):
        # the loaded string's boundary row sums its two terms in another
        # order than the interior rows do, so K_CC is symmetric to roundoff
        ((_, K),) = assemble_blocks(g.loaded_string(), 33.0).parts
        assert np.max(np.abs(K - K.T)) <= 1e-15 * np.max(np.abs(K))

    @pytest.mark.parametrize(
        "case",
        [
            (g.laplace_dirichlet(), 15.0),
            (g.cantilever(), 100.0),
            (g.loaded_string(), 100.0),
            # N != N_t: the interior K_tC block has two different steps
            (dataclasses.replace(g.laplace_dirichlet(), N=40, N_t=57), 15.0),
            (g.poisson_bvp_demo(), 0.0),
        ],
        ids=["laplace", "cantilever", "loaded-string", "dense-tc", "poisson-demo"],
    )
    def test_interior_block_matches_bilinear(self, case):
        # lag-assembled blocks, or halves, against dense evaluation on all
        # pairs, folded into the parity bases where there is a mirror
        prob, lam = case
        blocks = assemble_blocks(prob, lam)
        spec = prob.kernel_at(lam)
        xt = prob.test_grid()

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        want = [(M,) for M in dense_blocks(prob, lam)]
        if blocks.mirror is not None:
            mt = np.arange(prob.N_t)[::-1]
            want = [row_copy_fold(M, rows, blocks.mirror) for M, rows in
                    zip(dense_blocks(prob, lam), (mt, blocks.mirror))]
        for k, part in enumerate(blocks.parts):
            assert close(part[0], want[0][k]) and close(part[1], want[1][k])
        assert close(blocks.K_tt, kernel_mixed_derivative(spec, (0, 0), xt[:, None], xt[None, :]))
        # a read-only view of the lags: its one reader forms a new array
        assert not blocks.K_tt.flags.owndata and not blocks.K_tt.flags.writeable

    def test_block_structure_follows_the_grids(self):
        spec = KernelSpec(variance=1.0, length_scale=0.3)
        op = g.LinearOperatorSpec(
            (OperatorTermSpec(2, (-1.0,)), OperatorTermSpec(0, (-1.0, 0.0)))
        )
        x = np.linspace(0.0, 1.0, 9)

        def block(x1, x2):
            r, toeplitz = operators._lags(x1, x2)
            vals = apply_bilinear(op, op, spec, 3.0, r, 0.0)
            return operators._expand(vals, toeplitz, x2.size), toeplitz

        shifted = x[:6] + 0.3  # common step, other origin: still Toeplitz
        want = apply_bilinear(op, op, spec, 3.0, shifted[:, None], x[None, :])
        got, toeplitz = block(shifted, x)
        assert toeplitz
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        moved = x.copy()
        moved[4] += 1e-9  # far above roundoff: evaluated on all pairs
        want = apply_bilinear(op, op, spec, 3.0, moved[:, None], x[None, :])
        got, toeplitz = block(moved, x)
        assert not toeplitz
        assert np.array_equal(got, want)

    def test_uniform_grids_evaluate_only_lags(self, monkeypatch):
        # Toeplitz blocks cost n + n2 - 1 radial points, not n * n2
        seen = []
        inner = operators.radial_profile_derivatives

        def counted(spec, n_max, r):
            seen.append(r.size)
            return inner(spec, n_max, r)

        monkeypatch.setattr(operators, "radial_profile_derivatives", counted)
        prob = g.laplace_dirichlet("paper")
        assemble_blocks(prob, 50.0)
        assert sum(seen) <= 8 * (prob.N + prob.N_t)

    @pytest.mark.parametrize(
        "prob,lam",
        [
            (g.laplace_dirichlet(), 42.0),
            (g.cantilever(), 100.0),
            (g.loaded_string(), 100.0),
            (g.poisson_bvp_demo(), 0.0),
        ],
        ids=["laplace", "cantilever", "loaded-string", "poisson-demo"],
    )
    def test_one_radial_stack_per_assembly(self, prob, lam, monkeypatch):
        calls = []
        inner = operators.radial_profile_derivatives

        def counted(spec, n_max, r):
            calls.append(r.size)
            return inner(spec, n_max, r)

        monkeypatch.setattr(operators, "radial_profile_derivatives", counted)
        operators._layout.cache_clear()  # building the layout evaluates nothing
        first = assemble_blocks(prob, lam)
        assert len(calls) == 1
        second = assemble_blocks(prob, 2.0 * lam + 1.0)
        assert len(calls) == 2 and calls[0] == calls[1]
        assert first.K_tt is first.K_tt  # built once, on first access
        assert len(calls) == 3
        # the layout is shared, the blocks are not
        for part, part2 in zip(first.parts, second.parts):
            assert not any(np.shares_memory(K, K2) for K, K2 in zip(part, part2))

    def test_layout_is_decided_once(self, monkeypatch):
        calls = []
        for name in ("_uniform_step", "_mirror"):
            inner = getattr(operators, name)

            def counted(*args, name=name, inner=inner):
                calls.append(name)
                return inner(*args)

            monkeypatch.setattr(operators, name, counted)
        operators._layout.cache_clear()
        laplace, demo = g.laplace_dirichlet(), g.poisson_bvp_demo()
        assemble_blocks(laplace, 20.0)
        assemble_blocks(demo, 0.0)
        assert calls.count("_mirror") == 2 and "_uniform_step" in calls
        calls.clear()
        assemble_blocks(laplace, 70.0)
        wider = KernelSpec(variance=1.0, length_scale=0.35)
        assemble_blocks(dataclasses.replace(demo, fixed_kernel=wider), 0.0)
        assert calls == []

    @pytest.mark.parametrize(
        "prob,lam",
        [
            (g.laplace_dirichlet(), 42.0),
            (g.laplace_dirichlet("paper"), 42.0),
            (g.poisson_bvp_demo(), 0.0),
        ],
        ids=["laplace", "laplace-paper", "poisson-demo"],
    )
    def test_symmetric_problems_get_a_mirror(self, prob, lam):
        blocks = assemble_blocks(prob, lam)
        m, n = blocks.mirror, prob.N
        assert np.array_equal(m[m], np.arange(blocks.x_constraint.size))
        assert np.array_equal(m[:n], np.arange(n)[::-1])
        assert m[n:].tolist() == [n + 1, n]  # the sites at 0 and 1 swap
        p, q, f = blocks.pairs
        assert np.array_equal(q, m[p]) and np.all(p < q) and np.array_equal(m[f], f)
        # the involution reflects the constraint locations and leaves K_CC
        # unchanged up to the roundoff of evaluation
        xc = blocks.x_constraint
        assert np.max(np.abs(xc[m] - (1.0 - xc))) <= 1e-15
        _, K = dense_blocks(prob, lam)
        assert np.max(np.abs(K[np.ix_(m, m)] - K)) <= 1e-14 * np.max(np.abs(K))
        # the test grid is its own reflection too, so K_tt keeps its reversal
        mt = np.arange(prob.N_t)[::-1]
        assert np.max(np.abs(blocks.x_test[mt] - (1.0 - blocks.x_test))) <= 1e-15
        K = blocks.K_tt
        assert np.max(np.abs(K[np.ix_(mt, mt)] - K)) <= 1e-14 * np.max(np.abs(K))

    @pytest.mark.parametrize(
        "prob", [g.cantilever(), g.loaded_string()], ids=["cantilever", "loaded-string"]
    )
    def test_asymmetric_boundaries_get_none(self, prob):
        blocks = assemble_blocks(prob, 100.0)
        assert blocks.mirror is None

    def test_unreflected_test_grid_gets_no_mirror(self):
        # symmetric constraint rows under a test grid that does not reflect:
        # no eigen-mode problem builds this (its linspace grids share both
        # ends), so the layout forgoes the K_CC split rather than decide twice
        prob = g.laplace_dirichlet()
        stub = SimpleNamespace(
            kernel_at=prob.kernel_at,
            test_grid=lambda: np.linspace(0.0, 0.9, 50),
            collocation_grid=prob.collocation_grid,
            boundary=prob.boundary,
            interior_op=prob.interior_op,
            rhs_at=prob.rhs_at,
        )
        blocks = assemble_blocks(stub, 42.0)
        assert blocks.mirror is None

    @pytest.mark.parametrize(
        "pid,scale",
        [
            (pid, scale)
            for pid in ("laplace", "cantilever", "loaded-string")
            for scale in ("desk", "paper")
        ]
        + [("poisson-demo", "desk")],
    )
    def test_one_decision_covers_both_grids(self, pid, scale):
        prob = g.build_preset(pid, scale)
        blocks = assemble_blocks(prob, 42.0 if prob.mode == "eigen" else 0.0)
        assert (blocks.mirror is not None) == (pid in ("laplace", "poisson-demo"))
        # a mirror on the constraint rows means the test grid reflects too,
        # about the same centre, so the sampler may split by its reversal
        if blocks.mirror is not None:
            xc, xt = blocks.x_constraint, blocks.x_test
            c = xc.min() + xc.max()
            assert np.max(np.abs(xt + xt[::-1] - c)) <= 4 * np.spacing(c)

    def test_odd_grid_fixes_its_middle_row(self):
        prob = dataclasses.replace(g.laplace_dirichlet(), N=201)
        m = assemble_blocks(prob, 42.0).mirror
        assert np.flatnonzero(m == np.arange(m.size)).tolist() == [100]

    def test_midpoint_site_pairs_with_itself(self):
        prob = g.laplace_dirichlet()
        middle = g.ConstraintSite(0.5, identity_op())
        prob = dataclasses.replace(prob, boundary=prob.boundary + (middle,))
        m = assemble_blocks(prob, 42.0).mirror
        assert m[prob.N :].tolist() == [prob.N + 1, prob.N, prob.N + 2]

    def test_one_sided_boundary_gets_none(self):
        prob = g.laplace_dirichlet()
        left_only = dataclasses.replace(prob, boundary=prob.boundary[:1])
        assert assemble_blocks(left_only, 42.0).mirror is None

    def test_first_order_interior_term_gets_none(self):
        prob = g.laplace_dirichlet()
        drift = g.LinearOperatorSpec(
            prob.interior_op.terms + (OperatorTermSpec(1, (0.5,)),)
        )
        prob = dataclasses.replace(prob, interior_op=drift)
        assert assemble_blocks(prob, 42.0).mirror is None

    def test_cross_block_column_for_boundary_row(self):
        prob = g.cantilever()
        blocks = assemble_blocks(prob, 100.0)
        ((K_tC, K_CC),) = blocks.parts
        assert K_CC.shape[0] == prob.N + 4
        # the clamped-end value row at x = 0 is a plain kernel column
        spec = prob.kernel_at(100.0)
        want = kernel_mixed_derivative(
            spec, (0, 0), blocks.x_test, np.zeros_like(blocks.x_test)
        )
        assert np.allclose(K_tC[:, prob.N], want, rtol=1e-12)

    def test_bvp_rhs_layout(self):
        prob = g.poisson_bvp_demo()
        blocks = assemble_blocks(prob, 0.0)
        assert np.all(blocks.rhs[: prob.N] == 10.0)
        assert np.all(blocks.rhs[prob.N :] == 0.0)
        # bvp collocation excludes the endpoints; boundary rows carry them
        assert blocks.x_constraint[: prob.N].min() > 0.0
        assert blocks.x_constraint[: prob.N].max() < 1.0

    def test_eigen_collocation_includes_endpoints(self):
        xc = g.laplace_dirichlet().collocation_grid()
        assert xc[0] == 0.0 and xc[-1] == 1.0

    def test_empty_test_grid_raises(self):
        prob = g.poisson_bvp_demo()
        stub = SimpleNamespace(
            kernel_at=prob.kernel_at,
            test_grid=lambda: np.array([]),
            collocation_grid=prob.collocation_grid,
            boundary=prob.boundary,
            interior_op=prob.interior_op,
            rhs_at=prob.rhs_at,
        )
        with pytest.raises(GridError):
            assemble_blocks(stub, 0.0)

    def test_no_constraint_rows_raises(self):
        prob = g.poisson_bvp_demo()
        stub = SimpleNamespace(
            kernel_at=prob.kernel_at,
            test_grid=prob.test_grid,
            collocation_grid=lambda: np.array([]),
            boundary=(),
            interior_op=prob.interior_op,
            rhs_at=prob.rhs_at,
        )
        with pytest.raises(GridError):
            assemble_blocks(stub, 0.0)
