"""Eigenvalues of differential operators from a physics-informed GP.

Condition a zero-mean Gaussian-process prior on the homogeneous constraint
(L - λ)u = 0 at collocation points plus the boundary rows, then scan λ:
the trace J(λ) of the posterior covariance at test points collapses to
zero off-spectrum and peaks at eigenvalues, and posterior samples at a
peak are eigenfunction candidates.
"""

from .kernel import (
    MAX_DERIV_ORDER,
    DerivOrders,
    KernelSpec,
    UnsupportedOrderError,
    gram,
    kernel_mixed_derivative,
)
from .operators import (
    AssembledBlocks,
    ConstraintSite,
    GridError,
    LinearOperatorSpec,
    OperatorTermSpec,
    PoleError,
    apply_bilinear,
    assemble_blocks,
    identity_op,
)
from .posterior import (
    DEFAULT_RCOND,
    DecompositionError,
    EigenfunctionSample,
    PosteriorSummary,
    PseudoinverseDiag,
    posterior_covariance,
    regularized_pseudoinverse,
    sample_posterior,
    solve_bvp,
)
from .matrixcase import (
    FdReport,
    FiniteDimCase,
    fd_posterior_covariance,
    fd_sample,
    fd_theorem_suite,
    null_space_factor,
)
from .scan import (
    SCAN_RCOND,
    HyperSchedule,
    InsufficientPeaksError,
    LambdaGrid,
    PeakRecord,
    ScanError,
    ScanPoint,
    SpectralScan,
    TooFewPointsError,
    detect_peaks,
    evaluate_trace,
    fit_decay_slope,
    length_scale,
    make_lambda_grid,
    refine_peak,
    scan_spectrum,
)
from .problems import (
    ProblemSpec,
    build_preset,
    cantilever,
    laplace_dirichlet,
    loaded_string,
    poisson_bvp_demo,
    reference_eigenvalues,
)

__version__ = "0.1.0"
