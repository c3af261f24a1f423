"""One table over every count and seed the library takes.

Each entry point refuses a fraction, a bool, a value below its least and a
string with a ValueError naming the field (UnsupportedOrderError for the
kernel's derivative orders), and takes an integral float as the int it
equals: the value it returns or stores reads the same as with the int.
"""

import dataclasses
import functools

import numpy as np
import pytest

from gpeigen.kernel import (
    KernelSpec,
    UnsupportedOrderError,
    kernel_mixed_derivative,
    radial_profile_derivatives,
)
from gpeigen.matrixcase import FiniteDimCase, fd_sample, fd_theorem_suite
from gpeigen.operators import OperatorTermSpec, assemble_blocks
from gpeigen.posterior import posterior_covariance, sample_posterior, solve_bvp
from gpeigen.problems import (
    build_preset,
    laplace_dirichlet,
    reference_eigenvalues,
)
from gpeigen.scan import (
    HyperSchedule,
    LambdaGrid,
    PeakRecord,
    length_scale,
    make_lambda_grid,
    refine_peak,
    scan_spectrum,
)

SPEC = KernelSpec(variance=1.0, length_scale=0.5)


@functools.cache
def _eigen():
    # three grid λ, so that a pool and a refinement bracket stay tiny
    return dataclasses.replace(
        laplace_dirichlet(), N=30, N_t=30, grid=LambdaGrid("log", 5.0, 120.0, 3)
    )


@functools.cache
def _summary():
    prob = _eigen()
    return posterior_covariance(assemble_blocks(prob, np.pi**2), prob.jitter)


def _bvp():
    return dataclasses.replace(build_preset("poisson-demo"), N_t=40)


def _case():
    return FiniteDimCase(L=np.diag([0.1, 0.5, 0.9]), K=np.eye(3), lam=0.5)


def _draws(samples):
    return [np.asarray(getattr(s, "values", s)).tolist() for s in samples]


def _report(report):
    return (report.trials, report.max_dim, report.seed,
            [r.passed for r in report.results])


def _refined(v):
    prob = _eigen()
    lams = make_lambda_grid(prob.grid)
    peak = PeakRecord(lam_hat=float(lams[1]), J_peak=0.0, grid_index=1)
    out = refine_peak(prob, peak, iterations=v)
    return out.lam_hat, out.evaluations


# (id, field named in the error, least value, call, error type)
ENTRIES = [
    ("radial_profile_derivatives-n_max", "total derivative order", 0,
     lambda v: radial_profile_derivatives(SPEC, v, 0.3).tolist(), UnsupportedOrderError),
    ("kernel_mixed_derivative-a", "order a", 0,
     lambda v: kernel_mixed_derivative(SPEC, (v, 1), 0.3, -0.2), UnsupportedOrderError),
    ("kernel_mixed_derivative-b", "order b", 0,
     lambda v: kernel_mixed_derivative(SPEC, (1, v), 0.3, -0.2), UnsupportedOrderError),
    ("OperatorTermSpec-deriv_order", "deriv_order", 0,
     lambda v: OperatorTermSpec(v, (1.0,)).deriv_order, ValueError),
    ("ProblemSpec-N_t", "N_t", 2,
     lambda v: dataclasses.replace(_eigen(), N_t=v).N_t, ValueError),
    ("ProblemSpec-N-eigen", "N", 1,
     lambda v: dataclasses.replace(_eigen(), N=v).N, ValueError),
    ("ProblemSpec-N-bvp", "N", 0,
     lambda v: dataclasses.replace(_bvp(), N=v).N, ValueError),
    ("length_scale-N", "N", 1,
     lambda v: length_scale(HyperSchedule(1.0, 1.0, 1.0), 10.0, v), ValueError),
    ("reference_eigenvalues-count", "count", 1,
     lambda v: reference_eigenvalues("laplace", v), ValueError),
    ("sample_posterior-count", "count", 1,
     lambda v: _draws(sample_posterior(_summary(), v, 0)), ValueError),
    ("sample_posterior-seed", "seed", 0,
     lambda v: _draws(sample_posterior(_summary(), 2, v)), ValueError),
    ("solve_bvp-N_f", "N_f", 0,
     lambda v: solve_bvp(_bvp(), v).trace_J, ValueError),
    ("fd_sample-count", "count", 1,
     lambda v: _draws(fd_sample(_case(), v, 0)), ValueError),
    ("fd_sample-seed", "seed", 0,
     lambda v: _draws(fd_sample(_case(), 2, v)), ValueError),
    ("fd_theorem_suite-trials", "trials", 1,
     lambda v: _report(fd_theorem_suite(trials=v, max_dim=3)), ValueError),
    ("fd_theorem_suite-max_dim", "max_dim", 1,
     lambda v: _report(fd_theorem_suite(trials=2, max_dim=v)), ValueError),
    ("fd_theorem_suite-seed", "seed", 0,
     lambda v: _report(fd_theorem_suite(trials=2, max_dim=3, seed=v)), ValueError),
    ("LambdaGrid-count", "count", 2,
     lambda v: LambdaGrid("linear", 0.0, 1.0, v).count, ValueError),
    ("scan_spectrum-jobs", "jobs", 1,
     lambda v: [p.J for p in scan_spectrum(_eigen(), jobs=v).points], ValueError),
    ("refine_peak-iterations", "iterations", 0, _refined, ValueError),
]

IDS = [entry[0] for entry in ENTRIES]


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
@pytest.mark.parametrize("bad", ["fraction", "bool", "below", "string"])
def test_refuses_what_is_not_a_count(entry, bad):
    _, field, least, call, error = entry
    value = {"fraction": 2.5, "bool": True, "below": least - 1, "string": "3"}[bad]
    with pytest.raises(error, match=field) as info:
        call(value)
    assert type(info.value) is error


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_takes_an_integral_float_as_its_int(entry):
    _, _, _, call, _ = entry
    # repr tells 4.0 from 4, so a stored or returned float shows
    assert repr(call(4.0)) == repr(call(4))
