"""Command-line front end: scan, sample, fd-verify, bvp-demo, list-problems.

Exit codes: 0 success, 1 verification or scan failure, 2 bad input (ConfigError).
CSV float cells use repr(), which round-trips doubles exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .matrixcase import fd_theorem_suite
from .operators import assemble_blocks
from .posterior import (
    DEFAULT_RCOND,
    EVALUATION_ERRORS,
    pin_heap,
    posterior_covariance,
    sample_posterior,
    solve_bvp,
)
from .problems import (
    PRESET_BUILDERS,
    ProblemSpec,
    build_preset,
    poisson_bvp_demo,
    references_in_window,
)
from .scan import (
    REFINE_RTOL,
    SCAN_RCOND,
    InsufficientPeaksError,
    ScanError,
    TooFewPointsError,
    blas_threads,
    detect_peaks,
    fit_decay_slope,
    refine_peak,
    scan_spectrum,
    sweep_problem,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2

REFINE_ITERATIONS = 20
SAMPLE_NORMALIZATION = "sup_norm"

SPECTRUM_COLUMNS = (
    "lambda", "trace_J", "skipped", "rank", "truncated", "sv_max", "sv_min_kept",
    "length_scale", "reason",
)


# -- serialization ----------------------------------------------------------

# A problem serializes field by field from its dataclasses, omitting None
# fields.


def _encode(value):
    if dataclasses.is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if getattr(value, f.name) is not None
        }
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(tp, obj):
    """Build a value of type `tp` from its JSON form, guided by type hints."""
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(obj, list):  # a string would decode char by char
            raise TypeError(f"expected a list, got {obj!r}")
        if args[-1] is Ellipsis:
            args = [args[0]] * len(obj)
        elif len(obj) != len(args):
            raise TypeError(f"expected {len(args)} values, got {len(obj)}")
        items = enumerate(zip(args, obj))
        return tuple(_decode_at(f"[{i}]", t, v) for i, (t, v) in items)
    if dataclasses.is_dataclass(tp):
        if not isinstance(obj, dict):
            raise TypeError(f"{tp.__name__} needs an object, got {obj!r}")
        hints = get_type_hints(tp)
        unknown = sorted(obj.keys() - hints.keys())
        if unknown:
            raise TypeError(f"unknown {tp.__name__} field(s): {', '.join(unknown)}")
        return tp(**{k: _decode_at(k, hints[k], v) for k, v in obj.items()})
    # str, int or float, converted only where no value changes: a JSON
    # integer for a float, an integral number for an int
    if tp is str:
        ok = isinstance(obj, str)
    else:  # a bool is not a number
        ok = isinstance(obj, (int, float)) and not isinstance(obj, bool)
        if ok and not abs(obj) <= sys.float_info.max:  # inf, nan, a huge int
            raise ValueError(f"expected a finite {tp.__name__}, got {obj!r}")
        if tp is int:
            ok = ok and (isinstance(obj, int) or obj.is_integer())
    if not ok:
        raise TypeError(f"expected {tp.__name__}, got {obj!r}")
    return tp(obj)


def _decode_at(key: str, tp, obj):
    """`_decode`, naming the field or list element `key` in a refusal:
    `interior_op: terms[1]: deriv_order: expected int, got 2.7`."""
    try:
        return _decode(tp, obj)
    except (TypeError, ValueError) as exc:
        sep = "" if str(exc).startswith("[") else ": "
        raise type(exc)(f"{key}{sep}{exc}") from exc


def problem_to_obj(p: ProblemSpec) -> dict:
    return _encode(p)


def problem_from_obj(obj: dict) -> ProblemSpec:
    return _decode(ProblemSpec, obj)


# -- config resolution ------------------------------------------------------

class ConfigError(ValueError):
    """Bad input; `usage` is the usage line of the parser that refused it."""

    def __init__(self, message, usage=None):
        super().__init__(message)
        self.usage = usage


def resolve_problem(args) -> ProblemSpec:
    """Preset id or config file, validated on build.

    A config file is JSON mirroring the problem fields; a preset id is the
    config {"problem": id}.  If a config names a "problem" preset, its
    remaining keys override that preset field by field; otherwise it must
    spell out a complete problem.  A config file with a preset id, or
    --paper-scale with a config that names no preset, is refused rather
    than one of them ignored.
    """
    if not (args.config or args.problem):
        raise ConfigError("need a preset id or --config")
    if args.config and args.problem:
        raise ConfigError(f"--config {args.config} conflicts with preset {args.problem!r}")
    try:
        if args.config:
            with open(args.config) as fh:
                obj = json.load(fh)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        else:
            obj = {"problem": args.problem}
        if "problem" in obj:
            preset = _decode_at("problem", str, obj.pop("problem"))
            scale = "paper" if args.paper_scale else "desk"
            obj = {**problem_to_obj(build_preset(preset, scale)), **obj}
        elif args.paper_scale:
            raise ConfigError(
                f"--paper-scale conflicts with --config {args.config}, "
                "which names no preset"
            )
        problem = problem_from_obj(obj)
    except ConfigError:
        raise
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        where = f"bad config {args.config}: " if args.config else ""
        raise ConfigError(f"{where}{exc}") from exc
    if problem.mode != "eigen":
        raise ConfigError(f"cannot {args.command} bvp-mode problem {problem.problem_id!r}")
    return problem


def _out_dir(args) -> Path:
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out-dir {args.out_dir}: {exc}") from exc
    return args.out_dir


def _write_csv(path, header, rows) -> None:
    """One CSV file; float cells (numpy's too) as repr(), others as they are."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(c)) if isinstance(c, float) else c for c in row])


def _provenance(problem, rcond) -> dict:
    """The run record that peaks.json and samples.json share."""
    return {
        "problem": problem.problem_id,
        "version": __version__,
        "spec": problem_to_obj(problem),
        "rcond": rcond,
        "blas_threads": blas_threads(),
        "heap_pinned": pin_heap(),
    }


# -- subcommands ------------------------------------------------------------

def _spectrum_row(pt) -> list:
    if pt.skipped:
        return [pt.lam, "", "true", "", "", "", "", "", pt.reason]
    d = pt.diag
    return [pt.lam, pt.J, "false", d.rank, d.truncated_count, d.sv_max,
            d.sv_min_kept, pt.length_scale, ""]


def _preset_references(problem) -> list:
    """Reference eigenvalues in the problem's λ window, when it is the
    preset its id names up to scale, jitter, kernel and grid; else none,
    since another domain, operator or boundary has another spectrum."""
    try:
        preset = build_preset(problem.problem_id)
        if any(
            getattr(problem, field) != getattr(preset, field)
            for field in ("domain", "interior_op", "boundary")
        ):
            return []
        return references_in_window(problem.problem_id, problem.grid.lo, problem.grid.hi)
    except ValueError:  # no such preset, or no oracle for it
        return []


def cmd_scan(args) -> int:
    t0 = time.perf_counter()
    problem = resolve_problem(args)
    out = _out_dir(args)
    try:
        scan = scan_spectrum(problem, jobs=args.jobs)
        # written before detection so skip reasons survive a failed detection
        _write_csv(out / "spectrum.csv", SPECTRUM_COLUMNS, map(_spectrum_row, scan.points))
        peaks = detect_peaks(scan, prominence_decades=2.0)
    except (ScanError, TooFewPointsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    n_lams = len(scan.points)
    refs = _preset_references(problem)

    # a peak whose refinement fails keeps its grid location and says why
    refined, peak_objs = [], []
    for p in peaks:
        error = None
        try:
            p = refine_peak(problem, p, REFINE_ITERATIONS)
        except EVALUATION_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        refined.append(p)
        rec = {
            "lambda_hat": p.lam_hat,
            "J_peak": p.J_peak,
            "grid_index": p.grid_index,
            "refined": p.refined,
            "evaluations": p.evaluations,
            "polish_evaluations": p.polish_evaluations,
        }
        if error is not None:
            rec["refine_error"] = error
        if p.fine_error is not None:
            rec["fine_error"] = p.fine_error
        if refs:
            nearest = min(refs, key=lambda r: abs(r - p.lam_hat))
            rec["nearest_reference"] = nearest
            rec["relative_error"] = abs(p.lam_hat - nearest) / abs(nearest)
        peak_objs.append(rec)

    sweep = sweep_problem(problem)
    doc = {
        **_provenance(problem, SCAN_RCOND),
        "sweep_size": {"N": sweep.N, "N_t": sweep.N_t},
        "n_skipped": sum(1 for pt in scan.points if pt.skipped),
        "jobs": args.jobs,
        "refine_iterations": REFINE_ITERATIONS,
        "refine_rtol": REFINE_RTOL,
        "evaluations": {
            "sweep": n_lams,
            "refine": sum(p.evaluations for p in refined),
        },
        "peaks": peak_objs,
    }
    try:
        doc["decay_slope"], doc["decay_intercept"] = fit_decay_slope(refined)
    except InsufficientPeaksError:
        pass
    doc["wall_s"] = time.perf_counter() - t0
    with open(out / "peaks.json", "w") as fh:
        json.dump(doc, fh, indent=2)

    print(f"scanned {n_lams} points, {len(refined)} peaks -> {out}")
    for rec in peak_objs:
        line = f"  lambda = {rec['lambda_hat']:.6g}  J = {rec['J_peak']:.3e}"
        if "relative_error" in rec:
            line += f"  (ref {rec['nearest_reference']:.6g}, err {rec['relative_error']:.2%})"
        if "refine_error" in rec:
            line += f"  (not refined: {rec['refine_error']})"
        print(line)
    return EXIT_OK


def cmd_sample(args) -> int:
    problem = resolve_problem(args)
    out = _out_dir(args)
    try:
        # an overflowing kernel is refused as non-finite K_CC, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = assemble_blocks(problem, args.lam)
            summary = posterior_covariance(blocks, problem.jitter)
            samples = sample_posterior(
                summary, args.count, args.seed, SAMPLE_NORMALIZATION
            )
    except EVALUATION_ERRORS as exc:
        raise ConfigError(f"cannot condition at lambda = {args.lam}: {exc}") from exc

    _write_csv(
        out / "samples.csv",
        ["x"] + [f"sample_{i}" for i in range(len(samples))],
        zip(summary.x_test, *(s.values for s in samples)),
    )
    doc = {
        **_provenance(problem, DEFAULT_RCOND),
        "lambda": args.lam,
        "trace_J": summary.trace_J,
        "seed": args.seed,
        "normalization": SAMPLE_NORMALIZATION,
        "residuals": [s.residual for s in samples],
    }
    with open(out / "samples.json", "w") as fh:
        json.dump(doc, fh, indent=2)
    print(
        f"lambda = {args.lam:.6g}  trace_J = {summary.trace_J:.6e}  "
        f"{len(samples)} samples -> {out}"
    )
    return EXIT_OK


def cmd_fd_verify(args) -> int:
    report = fd_theorem_suite(trials=args.trials, seed=args.seed)
    print(f"{'trial':>5} {'dim':>3} {'off_ratio':>10} {'on_trace':>10} "
          f"{'sample_res':>10} {'factor_err':>10} result")
    for r in report.results:
        print(
            f"{r.index:>5} {r.dim:>3} {r.off_ratio:>10.2e} "
            f"{r.on_trace_ratio:>10.2e} {r.sample_residual:>10.2e} "
            f"{r.factor_error:>10.2e} {'PASS' if r.passed else 'FAIL'}"
        )
        for msg in r.failures:
            print(f"      {msg}")
    print(f"{report.n_passed}/{len(report.results)} trials passed")
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_bvp_demo(args) -> int:
    problem = poisson_bvp_demo()
    out = _out_dir(args)
    for nf in [args.nf] if args.nf is not None else [0, 3, 8]:
        try:
            summary = solve_bvp(problem, nf)
        except EVALUATION_ERRORS as exc:
            raise ConfigError(f"cannot condition N_f = {nf}: {exc}") from exc
        xs, mean = summary.x_test, summary.mean
        # diag(cov) = variance - sum_j U_ij^2, with no N_t x N_t matrix formed
        var = summary.blocks.spec.variance - np.sum(summary.U**2, axis=1)
        band = 1.96 * np.sqrt(np.clip(var, 0.0, None))
        exact = -5.0 * xs**2 + 5.0 * xs
        path = out / f"bvp_nf{nf}.csv"
        columns = ["x", "mean", "lower", "upper", "exact"]
        _write_csv(path, columns, zip(xs, mean, mean - band, mean + band, exact))
        err = float(np.max(np.abs(mean - exact)))
        print(f"N_f = {nf}: max |mean - exact| = {err:.3e} -> {path}")
    return EXIT_OK


def cmd_list_problems(args) -> int:
    for pid in sorted(PRESET_BUILDERS):
        p = build_preset(pid)
        doc = (PRESET_BUILDERS[pid].__doc__ or "").strip().splitlines()
        print(f"{pid:<14} {p.mode:<6} {doc[0] if doc else ''}")
    return EXIT_OK


# -- argument parsing -------------------------------------------------------

class _FloatToken:
    """Matches every token that parses as a float, "-1e-3" and "-inf" too;
    argparse's own pattern misses exponents, inf and nan and reads such a
    token as a flag."""

    @staticmethod
    def match(token):
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatToken

    def error(self, message):  # subparsers inherit it: main reports every refusal
        raise ConfigError(message, self.format_usage())


def _number(convert, accept, name):
    """Argument type refusing values that fail `accept` as "invalid <name>"."""
    def parse(text):
        if not accept(value := convert(text)):
            raise ValueError(text)
        return value
    parse.__name__ = name
    return parse


POSITIVE_INT = _number(int, lambda v: v > 0, "positive int")
NONNEGATIVE_INT = _number(int, lambda v: v >= 0, "nonnegative int")
FINITE_FLOAT = _number(float, math.isfinite, "finite float")


def _add_problem_flags(p):
    p.add_argument("problem", nargs="?", help="preset id (see list-problems)")
    p.add_argument("--config", help="JSON problem config file")
    p.add_argument(
        "--paper-scale", action="store_true", help="full published grid sizes"
    )
    p.add_argument("--out-dir", type=Path, default=Path("."))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpeigen",
        description="Eigenvalue scanning via the trace of a physics-informed "
        "GP posterior covariance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="sweep the λ grid and report peaks")
    _add_problem_flags(p_scan)
    p_scan.add_argument("--jobs", type=POSITIVE_INT, default=1)
    p_scan.set_defaults(func=cmd_scan)

    p_sample = sub.add_parser("sample", help="draw posterior samples at one λ")
    _add_problem_flags(p_sample)
    p_sample.add_argument("--lambda", dest="lam", type=FINITE_FLOAT, required=True)
    p_sample.add_argument("--count", type=POSITIVE_INT, default=5)
    p_sample.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    p_sample.set_defaults(func=cmd_sample)

    p_fd = sub.add_parser("fd-verify", help="finite-dimensional dichotomy check")
    p_fd.add_argument("--trials", type=POSITIVE_INT, default=100)
    p_fd.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    p_fd.set_defaults(func=cmd_fd_verify)

    p_bvp = sub.add_parser("bvp-demo", help="source-term demo problem")
    p_bvp.add_argument("--nf", type=NONNEGATIVE_INT, default=None)
    p_bvp.add_argument("--out-dir", type=Path, default=Path("."))
    p_bvp.set_defaults(func=cmd_bvp_demo)

    p_list = sub.add_parser("list-problems", help="show built-in presets")
    p_list.set_defaults(func=cmd_list_problems)

    for p in sub.choices.values():  # refusals after parsing show this usage
        p.set_defaults(usage=p.format_usage)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    usage = parser.format_usage
    try:
        args, extras = parser.parse_known_args(argv)
        usage = args.usage
        if extras:  # parse_args would report these with the root usage
            raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.usage or usage(), end="", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
