"""Lambda-parameterized linear differential operators and block assembly.

An operator is a sum of derivative terms, each with a coefficient that is
a ratio of two polynomials in the spectral parameter λ (for example the
shift term -λ, or a boundary coefficient λ/(λ - 1) with a pole).  Applying
an operator pair to the two kernel arguments reduces to signed
radial-profile derivatives, so the covariance blocks for a whole problem
can be assembled with a handful of vectorized evaluations per λ.

The kernel is stationary, so a block between two uniform grids with a
common step is Toeplitz in i - j.  Such a block (both grids with at least
two points, each equal to its own ``linspace`` to a few ulps, steps equal
to a few ulps) is evaluated on its n + n2 - 1 lags, its first column and
first row, and expanded from them.  Every other block (a non-uniform grid,
differing steps, a single boundary site) is evaluated densely on all pairs.

Only the kernel and the operator coefficients change with λ, so the layout
(each block's place and rule, their radial arguments and `mirror`) is
cached, keyed on the grid values, the interior operator and the boundary
sites.  Each λ makes one `radial_profile_derivatives` call over those
arguments and forms every block from it exactly as `apply_bilinear` would.

The layout also decides once, from the problem's structure alone, whether
the reflection x -> c - x maps the constraint rows and the test grid onto
themselves, where c is the smallest plus the largest constraint location.
The interior grid and the test grid must each be their own reversal to a
few ulps, the interior operator must have only even-order terms, and every
boundary site must pair with a site at its reflected location with an
identical even-order operator (a site at the midpoint pairs with itself).
Then k(c - x, c - y) = k(x, y) and even-order derivatives keep their sign
under the reflection, so K_CC is unchanged by permuting its rows and
columns with the row involution of the reflection, recorded as
`AssembledBlocks.mirror`, and K_tt and the posterior covariance are
unchanged by the reversal of the test grid, `AssembledBlocks.mirror_test`.
`posterior._eigh` uses either to eigendecompose as two half-size problems.
No matrix is inspected numerically for this: K_CC's entries carry the
grid's ulp-level asymmetry amplified by r / l^2, so a tolerance test would
flip from one λ to the next.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernel import (
    MAX_DERIV_ORDER,
    KernelSpec,
    radial_profile_derivatives,
)


class PoleError(ArithmeticError):
    """A coefficient's denominator polynomial vanishes at this λ."""


class GridError(ValueError):
    """A required point grid is empty."""


@dataclass(frozen=True)
class OperatorTermSpec:
    """One term c(λ) * d^n/dx^n of a linear operator.

    The coefficient is the ratio of two polynomials in λ,
    c(λ) = num(λ) / den(λ), each given by its coefficients from the highest
    power down: (-1.0, 0.0) is -λ, and num (1.0, 0.0) over den (1.0, -1.0)
    is λ/(λ - 1).  A constant is a one-element num over the default den.
    """

    deriv_order: int
    num: tuple[float, ...]
    den: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        d = self.deriv_order
        if int(d) != d or d < 0 or d > MAX_DERIV_ORDER:
            raise ValueError(
                f"term derivative order {d} outside 0..{MAX_DERIV_ORDER}"
            )
        for name in ("num", "den"):
            poly = tuple(getattr(self, name))
            if not poly:
                raise ValueError(f"term {name} needs at least one coefficient")
            object.__setattr__(self, name, poly)

    def coeff(self, lam: float) -> float:
        """num(λ) / den(λ) by Horner's rule.

        Raises PoleError when den(λ) is exactly zero; callers scanning over
        λ treat that as a skippable grid point.
        """
        den = _horner(self.den, lam)
        if den == 0.0:
            raise PoleError(f"coefficient denominator vanishes at lambda={lam}")
        return _horner(self.num, lam) / den


def _horner(poly, lam: float) -> float:
    out = 0.0
    for c in poly:
        out = out * lam + c
    return out


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
    return LinearOperatorSpec((OperatorTermSpec(0, (1.0,)),))


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
    only the full covariance needs it.  `mirror` is the row involution of
    the reflection that maps the constraint rows and the test grid onto
    themselves (see the module docstring), or None when there is none;
    `mirror_test` is then the test grid's reversal.
    """

    lam: float
    spec: KernelSpec
    K_tC: np.ndarray
    K_CC: np.ndarray
    rhs: np.ndarray
    n_interior: int
    x_test: np.ndarray
    x_constraint: np.ndarray
    mirror: np.ndarray = None

    @functools.cached_property
    def K_tt(self) -> np.ndarray:
        r, toeplitz = _lags(self.x_test, self.x_test)
        k = radial_profile_derivatives(self.spec, 0, r)[0]  # identity pair: g itself
        return _expand(k, toeplitz, self.x_test.size).copy()

    @property
    def mirror_test(self):
        if self.mirror is None:
            return None
        perm = np.arange(self.x_test.size)[::-1]
        perm.flags.writeable = False
        return perm

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
    out = _combine(_coeffs(op_left, lam), _coeffs(op_right, lam), stack)
    return out if out.ndim else float(out)


def _coeffs(op: LinearOperatorSpec, lam: float):
    return [(t.deriv_order, t.coeff(lam)) for t in op.terms]


def _combine(left, right, stack):
    """sum_i sum_j c_i c_j (-1)^{d_j} stack[d_i + d_j], summed in term order."""
    out = np.zeros_like(stack[0])
    for di, ci in left:
        for dj, cj in right:
            sign = -1.0 if dj % 2 else 1.0
            out = out + (ci * cj * sign) * stack[di + dj]
    return out


def _ulps(a, b) -> float:
    """Roundoff tolerance for values of magnitude up to max(|a|, |b|)."""
    return 4 * np.spacing(max(abs(a), abs(b)))


def _uniform_step(x: np.ndarray):
    """The step of x if it is its own linspace to a few ulps, else None."""
    if x.size < 2:
        return None
    if np.max(np.abs(x - np.linspace(x[0], x[-1], x.size))) > _ulps(x[0], x[-1]):
        return None
    return (x[-1] - x[0]) / (x.size - 1)


def _lags(x: np.ndarray, x2: np.ndarray):
    """Radial arguments of the block over all pairs (x[i], x2[j]), and whether
    they are only its Toeplitz lags: first column bottom-up, then first row."""
    h, h2 = _uniform_step(x), _uniform_step(x2)
    if h is None or h2 is None or abs(h - h2) > _ulps(h, h2):
        return (x[:, None] - x2[None, :]).ravel(), False
    return np.concatenate([x[::-1] - x2[0], x[0] - x2[1:]]), True


def _expand(vals: np.ndarray, toeplitz: bool, width: int) -> np.ndarray:
    """The block from its values at `_lags`, as a view of them."""
    if toeplitz:
        return np.lib.stride_tricks.sliding_window_view(vals, width)[::-1]
    return vals.reshape(-1, width)


def _even_order(op: LinearOperatorSpec) -> bool:
    return all(t.deriv_order % 2 == 0 for t in op.terms)


def _mirror(xt: np.ndarray, x_constraint: np.ndarray, interior_op, sites):
    """Row involution of the reflection that maps the constraint rows and the
    test grid onto themselves, or None; rows ordered as in `assemble_blocks`."""
    n = x_constraint.size - len(sites)
    xi = x_constraint[:n]
    lo, hi = x_constraint.min(), x_constraint.max()
    c, tol = lo + hi, _ulps(lo, hi)
    if (n and not _even_order(interior_op)) or any(
        np.max(np.abs(x + x[::-1] - c), initial=0.0) > tol for x in (xi, xt)
    ):
        return None
    perm = np.arange(x_constraint.size)
    perm[:n] = perm[:n][::-1]
    unpaired = list(range(len(sites)))
    while unpaired:
        s = sites[unpaired[0]]
        twins = [
            j
            for j in unpaired
            if abs(sites[j].location - (c - s.location)) <= tol
            and sites[j].operator == s.operator
        ]
        if not _even_order(s.operator) or not twins:
            return None
        i, j = unpaired[0], twins[0]  # i == j for a site at the midpoint
        perm[n + i], perm[n + j] = n + j, n + i
        unpaired = [k for k in unpaired if k not in (i, j)]
    perm.flags.writeable = False  # cached with the layout
    return perm


@functools.lru_cache(maxsize=16)
def _layout(xt_bytes: bytes, xi_bytes: bytes, interior_op, sites):
    """(x_test, x_constraint, mirror, ops, blocks, r, n_max) for
    these grids (float64 bytes), operators and sites.  A block is (left, right,
    rows, cols, span of r, Toeplitz), indexing `ops`; left 0, the identity, is
    K_tC's."""
    xt, xi = np.frombuffer(xt_bytes), np.frombuffer(xi_bytes)
    groups = [(xi, interior_op)] if xi.size else []
    groups += [(np.array([s.location], dtype=float), s.operator) for s in sites]
    ops = (identity_op(),) + tuple(op for _, op in groups)
    ends = np.cumsum([pts.size for pts, _ in groups]).tolist()
    cols = [slice(e - pts.size, e) for e, (pts, _) in zip(ends, groups)]
    blocks, lags, at = [], [], 0
    bands = [(xt, slice(None))] + [(pts, c) for (pts, _), c in zip(groups, cols)]
    for i, (x, rows) in enumerate(bands):
        for j, (x2, _) in enumerate(groups):
            r, toeplitz = _lags(x, x2)
            blocks.append((i, j + 1, rows, cols[j], slice(at, at + r.size), toeplitz))
            lags.append(r)
            at += r.size
    r = np.concatenate(lags)
    x_constraint = np.concatenate([xi, [s.location for s in sites]])
    mirror = _mirror(xt, x_constraint, interior_op, sites)
    x_constraint.flags.writeable = False
    n_max = max(ops[i].max_order + ops[j].max_order for i, j, *_ in blocks)
    return xt, x_constraint, mirror, ops, tuple(blocks), r, n_max


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
    x_test, x_constraint, mirror, ops, layout, r, n_max = _layout(
        xt.tobytes(), xi.tobytes(), problem.interior_op, sites
    )

    coeffs = [_coeffs(op, lam) for op in ops]
    stack = radial_profile_derivatives(spec, n_max, r)
    K_tC = np.empty((xt.size, x_constraint.size))
    K_CC = np.empty((x_constraint.size, x_constraint.size))
    for left, right, rows, cols, span, toeplitz in layout:
        vals = _combine(coeffs[left], coeffs[right], stack[:, span])
        width = cols.stop - cols.start
        (K_CC if left else K_tC)[rows, cols] = _expand(vals, toeplitz, width)
    K_CC = 0.5 * (K_CC + K_CC.T)

    rhs_parts = []
    if xi.size:
        rhs_parts.append(np.asarray(problem.rhs_at(xi), dtype=float))
    rhs_parts.append(np.array([s.rhs for s in sites], dtype=float))
    rhs = np.concatenate(rhs_parts)

    return AssembledBlocks(
        lam=float(lam),
        spec=spec,
        K_tC=K_tC,
        K_CC=K_CC,
        rhs=rhs,
        n_interior=int(xi.size),
        x_test=x_test,
        x_constraint=x_constraint,
        mirror=mirror,
    )
