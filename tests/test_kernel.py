"""Kernel derivative stack: closed-form checks, FD cross-checks, validation."""

import numpy as np
import pytest
from numpy.polynomial import hermite

from gpeigen.kernel import (
    MAX_DERIV_ORDER,
    KernelSpec,
    UnsupportedOrderError,
    kernel_mixed_derivative,
    radial_profile_derivatives,
)

from fd_oracle import batch_relative_errors, fd_mixed


def hermite_profile(spec, n, r):
    """Independent closed form for the n-th radial derivative.

    d^n/dr^n exp(-r^2 / (2 l^2)) = (-1/(l sqrt(2)))^n H_n(r/(l sqrt(2)))
    exp(-r^2/(2 l^2)) with the physicists' Hermite polynomial H_n.
    """
    u = r / (spec.length_scale * np.sqrt(2.0))
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    Hn = hermite.hermval(u, coeffs)
    factor = (-1.0 / (spec.length_scale * np.sqrt(2.0))) ** n
    return spec.variance * factor * Hn * np.exp(-(u**2))


class TestKernelSpec:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_hyperparameters(self, bad):
        with pytest.raises(ValueError, match="variance"):
            KernelSpec(variance=bad, length_scale=1.0)
        with pytest.raises(ValueError, match="length_scale"):
            KernelSpec(variance=1.0, length_scale=bad)


class TestRadialProfile:
    def test_zeroth_order_is_kernel(self):
        spec = KernelSpec(variance=2.0, length_scale=0.5)
        r = np.linspace(-2, 2, 9)
        stack = radial_profile_derivatives(spec, 0, r)
        assert stack.shape == (1, 9)
        assert np.allclose(stack[0], 2.0 * np.exp(-(r**2) / (2 * 0.25)))

    def test_matches_hermite_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = KernelSpec(
                variance=float(rng.uniform(0.2, 3.0)),
                length_scale=float(rng.uniform(0.2, 1.5)),
            )
            r = rng.uniform(-2.0, 2.0, size=12)
            stack = radial_profile_derivatives(spec, 8, r)
            for n in range(9):
                want = hermite_profile(spec, n, r)
                err = batch_relative_errors(stack[n], want)
                assert err < 1e-12, f"order {n}: batch error {err:.3e}"

    def test_value_at_origin_alternates(self):
        # even orders at r=0 follow (-1)^m (2m-1)!! / l^(2m); odd orders vanish
        spec = KernelSpec(variance=1.0, length_scale=0.7)
        stack = radial_profile_derivatives(spec, 8, np.array(0.0))
        l2 = 0.7**2
        assert stack[1] == 0.0 and stack[3] == 0.0 and stack[5] == 0.0
        assert np.isclose(stack[2], -1.0 / l2)
        assert np.isclose(stack[4], 3.0 / l2**2)
        assert np.isclose(stack[6], -15.0 / l2**3)
        assert np.isclose(stack[8], 105.0 / l2**4)

    def test_rejects_negative_order(self):
        spec = KernelSpec(variance=1.0, length_scale=1.0)
        with pytest.raises(ValueError):
            radial_profile_derivatives(spec, -1, np.array(0.5))


class TestMixedDerivative:
    def test_sign_convention_against_fd(self):
        rng = np.random.default_rng(5)
        spec = KernelSpec(variance=1.3, length_scale=0.6)
        kfn = lambda X, Y: 1.3 * np.exp(-((X - Y) ** 2) / (2 * 0.36))
        for a in range(5):
            for b in range(5):
                got, want = [], []
                for _ in range(6):
                    x, x2 = rng.uniform(-1.0, 1.0, size=2)
                    got.append(
                        float(kernel_mixed_derivative(spec, (a, b), np.array(x), np.array(x2)))
                    )
                    want.append(fd_mixed(kfn, a, b, x, x2, h=0.12 * 0.6))
                err = batch_relative_errors(got, want)
                assert err < 1e-5, f"orders ({a},{b}): batch error {err:.3e}"

    def test_argument_swap_symmetry(self):
        # d^a_x d^b_x' k(x, x') equals d^b_x d^a_x' k(x', x) for a stationary kernel
        rng = np.random.default_rng(17)
        spec = KernelSpec(variance=0.8, length_scale=0.9)
        for _ in range(40):
            a, b = rng.integers(0, 5, size=2)
            x, x2 = rng.uniform(-2, 2, size=2)
            lhs = kernel_mixed_derivative(spec, (int(a), int(b)), np.array(x), np.array(x2))
            rhs = kernel_mixed_derivative(spec, (int(b), int(a)), np.array(x2), np.array(x))
            assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "orders",
        [(-1, 0), (1.5, 0), (MAX_DERIV_ORDER + 1, 0),
         (0, -1), (0, 1.5), (0, MAX_DERIV_ORDER + 1)],
        ids=["a-negative", "a-fraction", "a-above-cap",
             "b-negative", "b-fraction", "b-above-cap"],
    )
    def test_order_cap(self, orders):
        spec = KernelSpec(variance=1.0, length_scale=1.0)
        with pytest.raises(UnsupportedOrderError):
            kernel_mixed_derivative(spec, orders, np.array(0.0), np.array(0.0))

    def test_integral_float_orders(self):
        spec = KernelSpec(variance=1.0, length_scale=1.0)
        want = kernel_mixed_derivative(spec, (2, 1), 0.3, -0.2)
        assert kernel_mixed_derivative(spec, (2.0, 1.0), 0.3, -0.2) == want

    def test_broadcasting(self):
        spec = KernelSpec(variance=1.0, length_scale=0.5)
        x = np.linspace(0, 1, 4)[:, None]
        x2 = np.linspace(0, 1, 3)[None, :]
        out = kernel_mixed_derivative(spec, (1, 2), x, x2)
        assert out.shape == (4, 3)


class TestEvalKernelAndGram:
    def test_eval_kernel_peak(self):
        spec = KernelSpec(variance=1.7, length_scale=0.4)
        assert np.isclose(kernel_mixed_derivative(spec, (0, 0), 0.3, 0.3), 1.7)

    def test_gram_matches_pointwise(self):
        spec = KernelSpec(variance=1.0, length_scale=0.3)
        X = np.linspace(0, 1, 6)
        Y = np.linspace(0, 1, 4)
        G = kernel_mixed_derivative(spec, (2, 0), X[:, None], Y[None, :])
        assert G.shape == (6, 4)
        for i in (0, 3, 5):
            for j in (0, 2):
                want = kernel_mixed_derivative(spec, (2, 0), np.array(X[i]), np.array(Y[j]))
                assert np.isclose(G[i, j], want)

    def test_gram_symmetric_same_grid(self):
        spec = KernelSpec(variance=1.0, length_scale=0.5)
        X = np.linspace(-1, 1, 8)
        G = kernel_mixed_derivative(spec, (0, 0), X[:, None], X[None, :])
        assert np.allclose(G, G.T)
        assert np.linalg.eigvalsh(G).min() > -1e-12

    def test_high_order_gram_nearly_psd(self):
        # the (4,4) block is a covariance of fourth derivatives, so it is
        # PSD up to roundoff even though its entries span many magnitudes
        spec = KernelSpec(variance=1.0, length_scale=0.3)
        X = np.linspace(0.0, 1.0, 10)
        G = kernel_mixed_derivative(spec, (4, 4), X[:, None], X[None, :])
        assert np.linalg.eigvalsh(G).min() >= -1e-8 * np.trace(G)


class TestKernelSpecValidation:
    def test_rejects_nonpositive_hyperparameters(self):
        with pytest.raises(ValueError):
            KernelSpec(variance=0.0, length_scale=1.0)
        with pytest.raises(ValueError):
            KernelSpec(variance=1.0, length_scale=-0.5)

    def test_frozen(self):
        spec = KernelSpec(variance=1.0, length_scale=1.0)
        with pytest.raises(AttributeError):
            spec.variance = 2.0
