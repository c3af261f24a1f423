"""Lambda-parameterized linear differential operators and block assembly.

An operator is a sum of derivative terms, each with a coefficient that may
depend on the spectral parameter λ (for example the shift term -λ, or a
rational boundary coefficient with a pole).  Applying an operator pair to
the two kernel arguments reduces to signed radial-profile derivatives, so
the covariance blocks for a whole problem can be assembled with a handful
of vectorized evaluations per λ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .kernel import (
    MAX_DERIV_ORDER,
    KernelSpec,
    gram,
    radial_profile_derivatives,
)


class PoleError(ArithmeticError):
    """A coefficient quotient has a zero denominator at this λ."""


class GridError(ValueError):
    """A required point grid is empty."""


# Coefficient expressions: a closed term language over the scalar λ.

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Lam:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "CoeffExpr"


@dataclass(frozen=True)
class Sum:
    left: "CoeffExpr"
    right: "CoeffExpr"


@dataclass(frozen=True)
class Prod:
    left: "CoeffExpr"
    right: "CoeffExpr"


@dataclass(frozen=True)
class Quot:
    num: "CoeffExpr"
    den: "CoeffExpr"


CoeffExpr = Union[Const, Lam, Neg, Sum, Prod, Quot]


def eval_coeff(expr: CoeffExpr, lam: float) -> float:
    """Evaluate a coefficient expression at λ.

    Raises PoleError when a quotient denominator is exactly zero; callers
    scanning over λ treat that as a skippable grid point.
    """
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Lam):
        return float(lam)
    if isinstance(expr, Neg):
        return -eval_coeff(expr.arg, lam)
    if isinstance(expr, Sum):
        return eval_coeff(expr.left, lam) + eval_coeff(expr.right, lam)
    if isinstance(expr, Prod):
        return eval_coeff(expr.left, lam) * eval_coeff(expr.right, lam)
    if isinstance(expr, Quot):
        den = eval_coeff(expr.den, lam)
        if den == 0.0:
            raise PoleError(f"coefficient denominator vanishes at lambda={lam}")
        return eval_coeff(expr.num, lam) / den
    raise TypeError(f"not a coefficient expression: {expr!r}")


@dataclass(frozen=True)
class OperatorTermSpec:
    """One term c(λ) * d^n/dx^n of a linear operator."""

    deriv_order: int
    coeff: CoeffExpr

    def __post_init__(self):
        d = self.deriv_order
        if int(d) != d or d < 0 or d > MAX_DERIV_ORDER:
            raise ValueError(
                f"term derivative order {d} outside 0..{MAX_DERIV_ORDER}"
            )


@dataclass(frozen=True)
class LinearOperatorSpec:
    """A sum of derivative terms with distinct orders."""

    terms: tuple[OperatorTermSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("operator needs at least one term")
        orders = [t.deriv_order for t in self.terms]
        if len(set(orders)) != len(orders):
            raise ValueError("term derivative orders must be distinct")

    @property
    def max_order(self) -> int:
        return max(t.deriv_order for t in self.terms)


def identity_op() -> LinearOperatorSpec:
    return LinearOperatorSpec((OperatorTermSpec(0, Const(1.0)),))


@dataclass(frozen=True)
class ConstraintSite:
    """A single constraint row: operator applied at one location, = rhs."""

    location: float
    operator: LinearOperatorSpec
    rhs: float = 0.0


@dataclass
class AssembledBlocks:
    """Covariance blocks for one λ.

    K_tC is the cross-covariance between the test grid and the constraint
    sites with the operator applied to the second argument, K_CC the
    operator applied to both arguments at the constraint sites.  Constraint
    rows are ordered interior-first, then boundary sites; rhs stacks the
    same way.  The test-grid kernel K_tt is built on first access, since
    only the full covariance needs it.
    """

    lam: float
    spec: KernelSpec
    K_tC: np.ndarray
    K_CC: np.ndarray
    rhs: np.ndarray
    n_interior: int
    x_test: np.ndarray
    x_constraint: np.ndarray

    @functools.cached_property
    def K_tt(self) -> np.ndarray:
        return gram(self.spec, (0, 0), self.x_test, self.x_test)

    @property
    def constraint_count(self) -> int:
        return self.K_CC.shape[0]


def apply_bilinear(
    op_left: LinearOperatorSpec,
    op_right: LinearOperatorSpec,
    spec: KernelSpec,
    lam: float,
    x,
    x2,
):
    """Apply op_left to the first and op_right to the second kernel argument.

    Returns sum_i sum_j c_i(λ) c_j(λ) ∂^{d_i}_x ∂^{d_j}_{x2} k(x, x2).
    Broadcasts over array-valued x and x2; scalars give a float.
    """
    r = np.asarray(x, dtype=float) - np.asarray(x2, dtype=float)
    stack = radial_profile_derivatives(
        spec, op_left.max_order + op_right.max_order, r
    )
    out = np.zeros_like(r)
    for ti in op_left.terms:
        ci = eval_coeff(ti.coeff, lam)
        for tj in op_right.terms:
            cj = eval_coeff(tj.coeff, lam)
            sign = -1.0 if tj.deriv_order % 2 else 1.0
            out = out + (ci * cj * sign) * stack[ti.deriv_order + tj.deriv_order]
    return out if out.ndim else float(out)


def assemble_blocks(problem, lam: float) -> AssembledBlocks:
    """Build all covariance blocks for `problem` at the given λ.

    `problem` supplies the grids, the interior operator (already λ-shifted
    in eigen mode), the boundary constraint sites, the right-hand side, and
    the kernel hyperparameters at this λ.  Rows group as N interior
    collocation rows followed by one row per boundary site.
    """
    spec = problem.kernel_at(lam)
    xt = np.asarray(problem.test_grid(), dtype=float)
    xi = np.asarray(problem.collocation_grid(), dtype=float)
    sites = tuple(problem.boundary)
    if xt.size == 0:
        raise GridError("test grid is empty")
    if xi.size == 0 and not sites:
        raise GridError("no constraint rows to condition on")

    groups = []
    if xi.size:
        groups.append((xi, problem.interior_op))
    for s in sites:
        groups.append((np.array([s.location], dtype=float), s.operator))

    ident = identity_op()
    m = xi.size + len(sites)
    K_tC = np.empty((xt.size, m))
    K_CC = np.empty((m, m))

    col = 0
    for pts, op in groups:
        K_tC[:, col : col + pts.size] = apply_bilinear(
            ident, op, spec, lam, xt[:, None], pts[None, :]
        )
        col += pts.size
    row = 0
    for pts_i, op_i in groups:
        col = 0
        for pts_j, op_j in groups:
            K_CC[row : row + pts_i.size, col : col + pts_j.size] = apply_bilinear(
                op_i, op_j, spec, lam, pts_i[:, None], pts_j[None, :]
            )
            col += pts_j.size
        row += pts_i.size
    K_CC = 0.5 * (K_CC + K_CC.T)

    rhs_parts = []
    if xi.size:
        rhs_parts.append(np.asarray(problem.rhs_at(xi), dtype=float))
    rhs_parts.append(np.array([s.rhs for s in sites], dtype=float))
    rhs = np.concatenate(rhs_parts)

    x_constraint = np.concatenate(
        [xi, np.array([s.location for s in sites], dtype=float)]
    )
    return AssembledBlocks(
        lam=float(lam),
        spec=spec,
        K_tC=K_tC,
        K_CC=K_CC,
        rhs=rhs,
        n_interior=int(xi.size),
        x_test=xt,
        x_constraint=x_constraint,
    )
