"""Built-in problem presets and reference-eigenvalue oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import KernelSpec, _count
from .operators import ConstraintSite, LinearOperatorSpec, OperatorTermSpec, identity_op
from .scan import HyperSchedule, LambdaGrid, length_scale

# The relative nugget of every preset: conditioning adds it to the
# equilibrated Gram's unit diagonal (see `posterior.posterior_covariance`).
NUGGET = 1e-10

# Desk scale keeps the whole acceptance suite in the minutes range.  Its 150
# λ points suffice because every local maximum of the equilibrated J
# brackets a mode, and the polish of each (`scan._polish`) costs the same at
# any grid density.  Paper scale reproduces the published grid sizes in its
# λ grid and every peak it reports, while the scan sweeps that grid at desk
# N (`scan.SWEEP_SIZE`).
SCALES = {
    "desk": {"N": 200, "N_t": 200, "n_lambda": 150},
    "paper": {"N": 500, "N_t": 500, "n_lambda": 500},
}


class BracketError(ValueError):
    """Root search exhausted its range before finding enough sign changes."""


@dataclass(frozen=True)
class ProblemSpec:
    """A scan or BVP problem on a 1D interval: an eigenproblem (`mode`
    "eigen") exactly when it has a λ `grid`, and then homogeneous
    (`rhs_const` and each site's `rhs` are 0).  The kernel comes from exactly
    one of `schedule` (which needs a grid) and `fixed_kernel`.  The domain
    ends, `jitter` (>= 0) and `rhs_const` are finite; `N` (>= 1 with a grid,
    >= 0 without) and `N_t` (>= 2) are integers, stored as ints."""

    problem_id: str
    domain: tuple[float, float]
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
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"domain must satisfy finite lo < hi, got {self.domain}")
        object.__setattr__(self, "N_t", _count("N_t", self.N_t, 2))
        if not 0 <= self.jitter < np.inf:  # also rejects nan
            raise ValueError(f"jitter must be nonnegative and finite, got {self.jitter}")
        if not np.isfinite(self.rhs_const):
            raise ValueError(f"rhs_const must be finite, got {self.rhs_const}")
        if (self.schedule is None) == (self.fixed_kernel is None):
            raise ValueError("give exactly one kernel source: schedule or fixed_kernel")
        if self.schedule is not None and self.grid is None:
            raise ValueError("schedule needs a lambda grid")
        eigen = self.mode == "eigen"
        object.__setattr__(self, "N", _count("N", self.N, 1 if eigen else 0))
        if eigen and self.rhs_const != 0:  # an eigenproblem is homogeneous
            raise ValueError(f"rhs_const must be 0 with a grid, got {self.rhs_const}")
        for i, site in enumerate(self.boundary):
            if not lo <= site.location <= hi:
                raise ValueError(
                    f"boundary site at {site.location} outside domain {self.domain}"
                )
            if eigen and site.rhs != 0:
                raise ValueError(f"boundary[{i}]: rhs must be 0 with a grid, got {site.rhs}")

    @property
    def mode(self) -> str:
        return "eigen" if self.grid is not None else "bvp"

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
        return np.full(np.shape(x), float(self.rhs_const))

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
        interior_op=_shifted((OperatorTermSpec(2, (-1.0,)),)),
        boundary=(
            ConstraintSite(0.0, identity_op()),
            ConstraintSite(1.0, identity_op()),
        ),
        N=s["N"],
        N_t=s["N_t"],
        jitter=NUGGET,
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
        interior_op=_shifted((OperatorTermSpec(4, (1.0,)),)),
        boundary=(
            ConstraintSite(0.0, identity_op()),
            ConstraintSite(0.0, _deriv_op(1)),
            ConstraintSite(1.0, _deriv_op(2)),
            ConstraintSite(1.0, _deriv_op(3)),
        ),
        N=s["N"],
        N_t=s["N_t"],
        jitter=NUGGET,
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
        interior_op=_shifted((OperatorTermSpec(2, (-1.0,)),)),
        boundary=(
            ConstraintSite(0.0, identity_op()),
            ConstraintSite(1.0, right_op),
        ),
        N=s["N"],
        N_t=s["N_t"],
        jitter=NUGGET,
        schedule=HyperSchedule(C=150.0, p=0.5, variance=1.0),
        grid=LambdaGrid("log", 10.0, 500.0, s["n_lambda"]),
    )


def poisson_bvp_demo() -> ProblemSpec:
    """-u'' = 10 on [0, 1] with u(0) = u(1) = 0; exact u = -5x² + 5x."""
    return ProblemSpec(
        problem_id="poisson-demo",
        domain=(0.0, 1.0),
        interior_op=LinearOperatorSpec((OperatorTermSpec(2, (-1.0,)),)),
        boundary=(
            ConstraintSite(0.0, identity_op()),
            ConstraintSite(1.0, identity_op()),
        ),
        N=8,
        N_t=200,
        jitter=NUGGET,
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
    """The preset `problem_id` at `scale`, a key of SCALES.  The scale is
    checked for every id; `poisson-demo` has one size, the same at each."""
    if problem_id not in PRESET_BUILDERS:
        raise ValueError(
            f"unknown problem {problem_id!r}, expected one of {sorted(PRESET_BUILDERS)}"
        )
    _scale_params(scale)
    if problem_id == "poisson-demo":
        return poisson_bvp_demo()
    return PRESET_BUILDERS[problem_id](scale=scale)


def cantilever_characteristic(alpha):
    """Clamped-free frequency equation cosh(α)cos(α) + 1 = 0, divided by
    cosh(α) so that it cannot overflow: cos(α) + sech(α), on arrays too."""
    e = np.exp(-np.abs(alpha))
    return np.cos(alpha) + 2.0 * e / (1.0 + e * e)


def loaded_string_characteristic(lam):
    """√λ cos√λ + (λ/(λ-1)) sin√λ: the u = sin(√λ x) residual at κ = M = 1."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam == 1.0):
        raise ZeroDivisionError("characteristic function has a pole at lambda = 1")
    u = np.sqrt(lam)
    return u * np.cos(u) + (lam / (lam - 1.0)) * np.sin(u)


def _sign_change_roots(fn, grid, count: int):
    """The first `count` roots of fn along an increasing grid, or fewer.

    A grid point where fn is exactly 0 is one root.  Each cell whose two
    finite end values differ in sign holds another: all such cells are
    halved together until their ends are adjacent floats, and the end
    with the smaller |fn| is the root.
    """
    x = np.asarray(grid, dtype=float)
    v = fn(x)
    s = np.sign(np.where(np.isfinite(v), v, np.nan))
    cells = np.flatnonzero(s[:-1] * s[1:] < 0)
    lo, hi, flo, fhi = x[cells], x[cells + 1], v[cells], v[cells + 1]
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        fmid = fn(mid)
        up = np.sign(fmid) == np.sign(flo)  # the root lies above mid
        lo, flo = np.where(up, mid, lo), np.where(up, fmid, flo)
        hi, fhi = np.where(up, hi, mid), np.where(up, fhi, fmid)
    roots = np.where(np.abs(flo) <= np.abs(fhi), lo, hi)
    return np.sort(np.concatenate([x[v == 0.0], roots]))[:count].tolist()


def reference_eigenvalues(problem_id: str, count: int):
    """The first `count` (an integer >= 1) independent reference
    eigenvalues, smallest first.

    Laplace is closed form; the other two are the sign changes of their
    characteristic equations on a fine grid, with the loaded-string search
    skipping the pole at λ = κ.
    """
    count = _count("count", count, 1)
    if problem_id == "laplace":
        return [(n * np.pi) ** 2 for n in range(1, count + 1)]
    if problem_id == "cantilever":
        # roots α_n sit near (2n-1)π/2; a step of 0.01 cannot jump a pair
        hi = (2 * count + 3) * np.pi / 2
        grid = np.arange(0.5, hi, 0.01)
        alphas = _sign_change_roots(cantilever_characteristic, grid, count)
        if len(alphas) < count:
            raise BracketError(f"found {len(alphas)} roots, needed {count}")
        return [a**4 for a in alphas]
    if problem_id == "loaded-string":
        # search in u = √λ on two segments so no bracket cell straddles the
        # pole at u = √κ = 1, where the sign flip is not a root
        pole_u = 1.0
        hi = (count + 3) * np.pi
        us = []
        for seg in (
            np.arange(0.05, pole_u - 1e-6, 0.005),
            np.arange(pole_u + 1e-6, hi, 0.005),
        ):
            us += _sign_change_roots(
                lambda u: loaded_string_characteristic(u * u), seg, count - len(us)
            )
        if len(us) < count:
            raise BracketError(f"found {len(us)} roots, needed {count}")
        return [u * u for u in us]
    raise ValueError(f"no reference eigenvalues for problem {problem_id!r}")


def references_in_window(problem_id: str, lo: float, hi: float):
    """Reference eigenvalues falling inside [lo, hi], hi finite: the root
    count doubles until the last root passes hi."""
    if not np.isfinite(hi):
        raise ValueError(f"window end must be finite, got {hi}")
    count = 4
    while True:
        refs = reference_eigenvalues(problem_id, count)
        if refs[-1] > hi:
            return [r for r in refs if lo <= r <= hi]
        count *= 2
