"""Command-line front end: scan, sample, fd-verify, bvp-demo, list-problems.

Exit codes: 0 success, 1 verification or scan failure, 2 bad input (ConfigError).
CSV cells use repr() of Python floats, which round-trips doubles exactly.
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
    EVALUATION_ERRORS,
    REFINE_RTOL,
    SCAN_RCOND,
    ScanError,
    TooFewPointsError,
    blas_threads,
    detect_peaks,
    fit_decay_slope,
    refine_peak,
    scan_spectrum,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2

REFINE_ITERATIONS = 20

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
    if obj is None:
        return None
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(obj, list):  # a string would decode char by char
            raise TypeError(f"expected a list, got {obj!r}")
        types = [args[0]] * len(obj) if args[-1] is Ellipsis else args
        return tuple(_decode(t, v) for t, v in zip(types, obj, strict=True))
    if dataclasses.is_dataclass(tp):
        if not isinstance(obj, dict):
            raise TypeError(f"{tp.__name__} needs an object, got {obj!r}")
        hints = get_type_hints(tp)
        unknown = sorted(obj.keys() - hints.keys())
        if unknown:
            raise TypeError(f"unknown {tp.__name__} field(s): {', '.join(unknown)}")
        return tp(**{k: _decode(hints[k], v) for k, v in obj.items()})
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
    """Preset id or config file, then flag overrides, validated on build.

    A config file is JSON mirroring the problem fields.  If it names a
    "problem" preset, its remaining keys override that preset field by
    field; otherwise it must spell out a complete problem.  A config file
    with a preset id or --problem, or --problem naming another preset than
    the positional one, or --paper-scale with a config that names no
    preset, is refused rather than one of them ignored.
    """
    scale = "paper" if args.paper_scale else "desk"
    preset = args.problem_flag or args.problem
    if not (args.config or preset):
        raise ConfigError("need a preset id, --problem or --config")
    if args.config and preset:
        raise ConfigError(f"--config {args.config} conflicts with preset {preset!r}")
    if args.problem_flag and args.problem and args.problem_flag != args.problem:
        raise ConfigError(
            f"--problem {args.problem_flag!r} conflicts with preset {args.problem!r}"
        )
    try:
        if args.config:
            with open(args.config) as fh:
                obj = json.load(fh)
            if "problem" in obj:
                base = problem_to_obj(build_preset(obj.pop("problem"), scale))
                base.update(obj)
                obj = base
            elif args.paper_scale:
                raise ConfigError(
                    f"--paper-scale conflicts with --config {args.config}, "
                    "which names no preset"
                )
            problem = problem_from_obj(obj)
        else:
            problem = build_preset(preset, scale)
    except ConfigError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        where = f"bad config {args.config}: " if args.config else ""
        raise ConfigError(f"{where}{exc}") from exc
    if problem.mode != "eigen":
        raise ConfigError(f"cannot {args.command} bvp-mode problem {problem.problem_id!r}")
    if args.jitter is not None:
        problem = dataclasses.replace(problem, jitter=args.jitter)
    return problem


def _out_dir(args) -> Path:
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out-dir {args.out_dir}: {exc}") from exc
    return args.out_dir


def _fmt(x) -> str:
    return repr(float(x))


# -- subcommands ------------------------------------------------------------

def write_spectrum_csv(path, scan) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SPECTRUM_COLUMNS)
        for pt in scan.points:
            if pt.skipped:
                w.writerow([_fmt(pt.lam), "", "true", "", "", "", "", "", pt.reason])
            else:
                d = pt.diag
                w.writerow([_fmt(pt.lam), _fmt(pt.J), "false", d.rank,
                            d.truncated_count, _fmt(d.sv_max), _fmt(d.sv_min_kept),
                            _fmt(pt.length_scale), ""])


def cmd_scan(args) -> int:
    t0 = time.perf_counter()
    problem = resolve_problem(args)
    out = _out_dir(args)
    try:
        scan = scan_spectrum(problem, jobs=args.jobs, rcond=args.rcond)
        # written before detection so skip reasons survive a failed detection
        write_spectrum_csv(out / "spectrum.csv", scan)
        peaks = detect_peaks(scan, prominence_decades=2.0)
    except (ScanError, TooFewPointsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    n_lams = len(scan.points)
    refs = []
    try:
        refs = references_in_window(
            problem.problem_id, problem.grid.lo, problem.grid.hi
        )
    except ValueError:
        pass

    # a peak whose refinement fails keeps its grid location and says why
    refined, peak_objs = [], []
    for p in peaks:
        error = None
        try:
            p = refine_peak(problem, p, REFINE_ITERATIONS, rcond=args.rcond)
        except EVALUATION_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        refined.append(p)
        rec = {
            "lambda_hat": p.lam_hat,
            "J_peak": p.J_peak,
            "grid_index": p.grid_index,
            "refined": p.refined,
            "evaluations": p.evaluations,
        }
        if error is not None:
            rec["refine_error"] = error
        if refs:
            nearest = min(refs, key=lambda r: abs(r - p.lam_hat))
            rec["nearest_reference"] = nearest
            rec["relative_error"] = abs(p.lam_hat - nearest) / abs(nearest)
        peak_objs.append(rec)

    spec = problem_to_obj(problem)
    doc = {
        "problem": problem.problem_id,
        "version": __version__,
        "grid": spec["grid"],
        "spec": spec,
        "n_skipped": sum(1 for pt in scan.points if pt.skipped),
        "rcond": args.rcond,
        "jobs": args.jobs,
        "blas_threads": blas_threads(),
        "refine_iterations": REFINE_ITERATIONS,
        "refine_rtol": REFINE_RTOL,
        "evaluations": {
            "sweep": n_lams,
            "refine": sum(p.evaluations for p in refined),
        },
        "peaks": peak_objs,
    }
    if len([p for p in refined if p.J_peak > 0]) >= 2:
        slope, intercept = fit_decay_slope(refined)
        doc["decay_slope"] = slope
        doc["decay_intercept"] = intercept
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
            summary = posterior_covariance(blocks, problem.jitter, args.rcond)
            samples = sample_posterior(summary, args.count, args.seed)
    except EVALUATION_ERRORS as exc:
        raise ConfigError(f"cannot condition at lambda = {args.lam}: {exc}") from exc

    xs = summary.x_test
    with open(out / "samples.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x"] + [f"sample_{i}" for i in range(len(samples))])
        for row, x in enumerate(xs):
            w.writerow([_fmt(x)] + [_fmt(s.values[row]) for s in samples])
    with open(out / "samples.json", "w") as fh:
        json.dump(
            {
                "problem": problem.problem_id,
                "lambda": args.lam,
                "trace_J": summary.trace_J,
                "seed": args.seed,
                "blas_threads": blas_threads(),
                "normalization": samples[0].normalization,
                "residuals": [s.residual for s in samples],
            },
            fh,
            indent=2,
        )
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
        summary = solve_bvp(problem, nf)
        xs = summary.x_test
        band = 1.96 * np.sqrt(np.clip(np.diag(summary.cov), 0.0, None))
        exact = -5.0 * xs**2 + 5.0 * xs
        path = out / f"bvp_nf{nf}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "mean", "lower", "upper", "exact"])
            for i, x in enumerate(xs):
                w.writerow(
                    [
                        _fmt(x),
                        _fmt(summary.mean[i]),
                        _fmt(summary.mean[i] - band[i]),
                        _fmt(summary.mean[i] + band[i]),
                        _fmt(exact[i]),
                    ]
                )
        err = float(np.max(np.abs(summary.mean - exact)))
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
POSITIVE_FLOAT = _number(float, lambda v: 0 < v < math.inf, "finite positive float")
NONNEGATIVE_FLOAT = _number(
    float, lambda v: 0 <= v < math.inf, "finite nonnegative float"
)
FINITE_FLOAT = _number(float, math.isfinite, "finite float")


def _add_problem_flags(p, rcond):
    p.add_argument("problem", nargs="?", help="preset id (see list-problems)")
    p.add_argument("--problem", dest="problem_flag", help="preset id")
    p.add_argument("--config", help="JSON problem config file")
    p.add_argument(
        "--paper-scale", action="store_true", help="full published grid sizes"
    )
    p.add_argument("--jitter", type=NONNEGATIVE_FLOAT, default=None)
    p.add_argument("--rcond", type=POSITIVE_FLOAT, default=rcond)
    p.add_argument("--out-dir", type=Path, default=Path("."))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpeigen",
        description="Eigenvalue scanning via the trace of a physics-informed "
        "GP posterior covariance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="sweep the λ grid and report peaks")
    _add_problem_flags(p_scan, SCAN_RCOND)
    p_scan.add_argument("--jobs", type=POSITIVE_INT, default=1)
    p_scan.set_defaults(func=cmd_scan)

    p_sample = sub.add_parser("sample", help="draw posterior samples at one λ")
    _add_problem_flags(p_sample, DEFAULT_RCOND)
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
