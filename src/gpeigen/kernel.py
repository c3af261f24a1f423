"""Squared-exponential covariance function and its exact mixed derivatives.

The kernel is stationary,

    k(x, x') = variance * exp(-(x - x')**2 / (2 * length_scale**2)),

so every mixed partial d^a/dx^a d^b/dx'^b k reduces to an ordinary
derivative of the radial profile g(r) = variance * exp(-r**2 / (2 l**2))
evaluated at r = x - x':

    d^a/dx^a d^b/dx'^b k(x, x') = (-1)**b * g^(a+b)(x - x').

The profile derivatives follow the closed two-term recurrence

    g^(n)(r) = -(r * g^(n-1)(r) + (n - 1) * g^(n-2)(r)) / l**2,

seeded by g and g' = -(r / l**2) g.  This is exact (no finite differences,
no symbolic engine) and cheap enough to evaluate on full Gram grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Per-argument derivative cap.  Fourth-order operators applied to both
# kernel arguments need g^(8) at most; higher orders are untested.
MAX_DERIV_ORDER = 4


class UnsupportedOrderError(ValueError):
    """A requested kernel derivative order exceeds the supported cap."""


def _count(name: str, value, least: int, most: int = None, error=ValueError) -> int:
    """value as an int in least..most (no upper end when most is None); else
    `error` naming the field.  An integral float converts, as cli._decode
    converts a config's; a bool, a string and a fraction are refused."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if int(value) == value >= least and (most is None or value <= most):
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    span = f">= {least}" if most is None else f"in {least}..{most}"
    raise error(f"{name} must be an integer {span}, got {value!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Hyperparameters of the squared-exponential covariance.

    ``variance`` is the signal variance (k(x, x) == variance) and
    ``length_scale`` the correlation length, both positive and finite.
    """

    variance: float
    length_scale: float

    def __post_init__(self):
        if not 0 < self.variance < np.inf:  # also rejects nan
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        if not 0 < self.length_scale < np.inf:
            raise ValueError(
                f"length_scale must be positive and finite, got {self.length_scale}"
            )


def radial_profile_derivatives(spec: KernelSpec, n_max: int, r) -> np.ndarray:
    """Stack g^(0..n_max) of the radial profile, evaluated elementwise on r.

    Returns an array of shape (n_max + 1,) + r.shape.  ``n_max`` may go up
    to 2 * MAX_DERIV_ORDER (both arguments differentiated at the cap).
    """
    n_max = _count("total derivative order", n_max, 0, 2 * MAX_DERIV_ORDER,
                   UnsupportedOrderError)
    r = np.asarray(r, dtype=float)
    inv_l2 = 1.0 / (spec.length_scale * spec.length_scale)
    out = np.empty((n_max + 1,) + r.shape, dtype=float)
    out[0] = spec.variance * np.exp(-0.5 * inv_l2 * r * r)
    if n_max >= 1:
        out[1] = -inv_l2 * r * out[0]
    for n in range(2, n_max + 1):
        out[n] = -inv_l2 * (r * out[n - 1] + (n - 1) * out[n - 2])
    return out


def kernel_mixed_derivative(spec: KernelSpec, orders, x, x2):
    """Evaluate d^a/dx^a d^b/dx2^b k(x, x2) for ``orders`` = (a, b).

    Scalar inputs give a float; array inputs broadcast.
    """
    a, b = (_count(f"derivative order {name}", order, 0, MAX_DERIV_ORDER,
                   UnsupportedOrderError) for name, order in zip("ab", orders, strict=True))
    r = np.asarray(x, dtype=float) - np.asarray(x2, dtype=float)
    g = radial_profile_derivatives(spec, a + b, r)[a + b]
    val = g if b % 2 == 0 else -g
    return val if isinstance(val, np.ndarray) and val.ndim else float(val)
