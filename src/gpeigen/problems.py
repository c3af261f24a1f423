"""Built-in problem presets and reference-eigenvalue oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import KernelSpec
from .operators import ConstraintSite, LinearOperatorSpec, OperatorTermSpec, identity_op
from .scan import HyperSchedule, LambdaGrid, length_scale

# Desk scale keeps the whole acceptance suite in the minutes range; paper
# scale reproduces the published grid sizes.
SCALES = {
    "desk": {"N": 200, "N_t": 200, "n_lambda": 300},
    "paper": {"N": 500, "N_t": 500, "n_lambda": 500},
}


class BracketError(ValueError):
    """Root search exhausted its range before finding enough sign changes."""


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified scan or BVP problem on a 1D interval."""

    problem_id: str
    domain: tuple[float, float]
    mode: str
    interior_op: LinearOperatorSpec
    boundary: tuple[ConstraintSite, ...]
    N: int
    N_t: int
    jitter: float
    schedule: HyperSchedule = None
    grid: LambdaGrid = None
    fixed_kernel: KernelSpec = None
    rhs_const: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(float(v) for v in self.domain))
        object.__setattr__(self, "boundary", tuple(self.boundary))
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"domain must satisfy lo < hi, got {self.domain}")
        if self.mode not in ("eigen", "bvp"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.N_t < 2:
            raise ValueError(f"N_t must be at least 2, got {self.N_t}")
        if not self.jitter >= 0:  # also rejects nan
            raise ValueError(f"jitter must be nonnegative, got {self.jitter}")
        if self.mode == "eigen":
            if self.N < 1:
                raise ValueError(f"eigen mode needs N >= 1, got {self.N}")
            if self.schedule is None or self.grid is None:
                raise ValueError("eigen mode needs a schedule and a lambda grid")
        else:
            if self.N < 0:
                raise ValueError(f"N must be nonnegative, got {self.N}")
            if self.fixed_kernel is None:
                raise ValueError("bvp mode needs fixed kernel hyperparameters")
        for site in self.boundary:
            if not lo <= site.location <= hi:
                raise ValueError(
                    f"boundary site at {site.location} outside domain {self.domain}"
                )

    def test_grid(self) -> np.ndarray:
        lo, hi = self.domain
        return np.linspace(lo, hi, self.N_t)

    def collocation_grid(self) -> np.ndarray:
        lo, hi = self.domain
        if self.mode == "eigen":
            return np.linspace(lo, hi, self.N)
        # bvp collocation stays strictly interior; the endpoints carry the
        # boundary rows instead.
        return lo + (hi - lo) * np.arange(1, self.N + 1) / (self.N + 1)

    def rhs_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.mode == "eigen":
            return np.zeros_like(x)
        return np.full_like(x, self.rhs_const)

    def kernel_at(self, lam: float) -> KernelSpec:
        if self.fixed_kernel is not None:
            return self.fixed_kernel
        return KernelSpec(
            variance=self.schedule.variance,
            length_scale=length_scale(self.schedule, lam, self.N),
        )


def _scale_params(scale: str) -> dict:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}, expected one of {sorted(SCALES)}")
    return SCALES[scale]


def _shifted(op_terms) -> LinearOperatorSpec:
    # append the -λ identity term that makes the eigen constraint homogeneous
    return LinearOperatorSpec(tuple(op_terms) + (OperatorTermSpec(0, (-1.0, 0.0)),))


def laplace_dirichlet(scale: str = "desk") -> ProblemSpec:
    """-u'' = λu on [0, 1] with u(0) = u(1) = 0; eigenvalues (nπ)²."""
    s = _scale_params(scale)
    return ProblemSpec(
        problem_id="laplace",
        domain=(0.0, 1.0),
        mode="eigen",
        interior_op=_shifted((OperatorTermSpec(2, (-1.0,)),)),
        boundary=(
            ConstraintSite(0.0, identity_op()),
            ConstraintSite(1.0, identity_op()),
        ),
        N=s["N"],
        N_t=s["N_t"],
        jitter=1e-8,
        schedule=HyperSchedule(C=150.0, p=0.5, variance=1.0),
        grid=LambdaGrid("log", 1.0, 1000.0, s["n_lambda"]),
    )


def _deriv_op(n: int) -> LinearOperatorSpec:
    return LinearOperatorSpec((OperatorTermSpec(n, (1.0,)),))


def cantilever(scale: str = "desk") -> ProblemSpec:
    """u'''' = λu, clamped at 0 (u = u' = 0), free at 1 (u'' = u''' = 0)."""
    s = _scale_params(scale)
    return ProblemSpec(
        problem_id="cantilever",
        domain=(0.0, 1.0),
        mode="eigen",
        interior_op=_shifted((OperatorTermSpec(4, (1.0,)),)),
        boundary=(
            ConstraintSite(0.0, identity_op()),
            ConstraintSite(0.0, _deriv_op(1)),
            ConstraintSite(1.0, _deriv_op(2)),
            ConstraintSite(1.0, _deriv_op(3)),
        ),
        N=s["N"],
        N_t=s["N_t"],
        jitter=1e-5,
        schedule=HyperSchedule(C=1000.0, p=0.25, variance=1.0),
        grid=LambdaGrid("power_root", 1.0, 15.0**4, s["n_lambda"], root=4.0),
    )


def loaded_string(scale: str = "desk") -> ProblemSpec:
    """-u'' = λu, u(0) = 0, u'(1) + λκM/(λ-κ) u(1) = 0.

    The λ-rational boundary coefficient, with κ = M = 1, makes this a
    nonlinear eigenvalue problem with a pole at λ = κ.
    """
    s = _scale_params(scale)
    load = OperatorTermSpec(0, num=(1.0, 0.0), den=(1.0, -1.0))  # λ/(λ - 1)
    right_op = LinearOperatorSpec((OperatorTermSpec(1, (1.0,)), load))
    return ProblemSpec(
        problem_id="loaded-string",
        domain=(0.0, 1.0),
        mode="eigen",
        interior_op=_shifted((OperatorTermSpec(2, (-1.0,)),)),
        boundary=(
            ConstraintSite(0.0, identity_op()),
            ConstraintSite(1.0, right_op),
        ),
        N=s["N"],
        N_t=s["N_t"],
        jitter=1e-8,
        schedule=HyperSchedule(C=150.0, p=0.5, variance=1.0),
        grid=LambdaGrid("log", 10.0, 500.0, s["n_lambda"]),
    )


def poisson_bvp_demo() -> ProblemSpec:
    """-u'' = 10 on [0, 1] with u(0) = u(1) = 0; exact u = -5x² + 5x."""
    return ProblemSpec(
        problem_id="poisson-demo",
        domain=(0.0, 1.0),
        mode="bvp",
        interior_op=LinearOperatorSpec((OperatorTermSpec(2, (-1.0,)),)),
        boundary=(
            ConstraintSite(0.0, identity_op()),
            ConstraintSite(1.0, identity_op()),
        ),
        N=8,
        N_t=200,
        jitter=0.0,
        fixed_kernel=KernelSpec(variance=1.0, length_scale=0.2),
        rhs_const=10.0,
    )


PRESET_BUILDERS = {
    "laplace": laplace_dirichlet,
    "cantilever": cantilever,
    "loaded-string": loaded_string,
    "poisson-demo": poisson_bvp_demo,
}


def build_preset(problem_id: str, scale: str = "desk") -> ProblemSpec:
    if problem_id not in PRESET_BUILDERS:
        raise ValueError(
            f"unknown problem {problem_id!r}, expected one of {sorted(PRESET_BUILDERS)}"
        )
    if problem_id == "poisson-demo":
        return poisson_bvp_demo()
    return PRESET_BUILDERS[problem_id](scale=scale)


def cantilever_characteristic(alpha: float) -> float:
    """Clamped-free frequency equation: cosh(α)cos(α) + 1 = 0 at the roots."""
    return np.cosh(alpha) * np.cos(alpha) + 1.0


def loaded_string_characteristic(lam: float) -> float:
    """√λ cos√λ + (λ/(λ-1)) sin√λ: the u = sin(√λ x) residual at κ = M = 1."""
    if lam == 1.0:
        raise ZeroDivisionError("characteristic function has a pole at lambda = 1")
    u = np.sqrt(lam)
    return u * np.cos(u) + (lam / (lam - 1.0)) * np.sin(u)


def _sign_change_roots(fn, grid, count: int, xtol: float):
    """Up to `count` roots of fn along the sign changes of a fine grid."""
    # Imported here: only reference lookups need scipy, so assembly never loads it.
    from scipy.optimize import bisect

    vals = np.array([fn(g) for g in grid])
    roots = []
    for i in range(len(grid) - 1):
        if len(roots) == count:
            break
        a, b = vals[i], vals[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0:
            roots.append(float(grid[i]))
        elif a * b < 0:
            roots.append(bisect(fn, grid[i], grid[i + 1], xtol=xtol))
    return roots


def _loaded_string_u(lam_from_u):
    return loaded_string_characteristic(lam_from_u * lam_from_u)


def reference_eigenvalues(problem_id: str, count: int):
    """Independent reference eigenvalues, smallest first.

    Laplace is closed form; the other two come from bisection on their
    characteristic equations, with the loaded-string search skipping the
    pole at λ = κ.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    pid = problem_id.replace("_", "-")
    if pid == "laplace":
        return [(n * np.pi) ** 2 for n in range(1, count + 1)]
    if pid == "cantilever":
        # roots α_n sit near (2n-1)π/2; a step of 0.01 cannot jump a pair
        hi = (2 * count + 3) * np.pi / 2
        grid = np.arange(0.5, hi, 0.01)
        alphas = _sign_change_roots(cantilever_characteristic, grid, count, xtol=1e-13)
        if len(alphas) < count:
            raise BracketError(f"found {len(alphas)} roots, needed {count}")
        return [a**4 for a in alphas]
    if pid == "loaded-string":
        # search in u = √λ on two segments so no bracket cell straddles the
        # pole at u = √κ = 1, where the sign flip is not a root
        pole_u = 1.0
        hi = (count + 3) * np.pi
        us = []
        for seg in (
            np.arange(0.05, pole_u - 1e-6, 0.005),
            np.arange(pole_u + 1e-6, hi, 0.005),
        ):
            if len(us) < count:
                us.extend(
                    _sign_change_roots(_loaded_string_u, seg, count - len(us), 1e-10)
                )
        if len(us) < count:
            raise BracketError(f"found {len(us)} roots, needed {count}")
        return [u * u for u in us]
    raise ValueError(f"no reference eigenvalues for problem {problem_id!r}")


def references_in_window(problem_id: str, lo: float, hi: float):
    """Reference eigenvalues falling inside [lo, hi]."""
    count = 4
    while True:
        refs = reference_eigenvalues(problem_id, count)
        if refs[-1] > hi or count >= 256:
            return [r for r in refs if lo <= r <= hi]
        count *= 2
