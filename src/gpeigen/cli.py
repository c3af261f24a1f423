"""Command-line front end: scan, sample, fd-verify, bvp-demo, list-problems.

Exit codes: 0 success, 1 verification or scan failure, 2 config error.
CSV cells use repr() of Python floats, which round-trips doubles exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .matrixcase import fd_theorem_suite
from .operators import CoeffExpr, Lam, assemble_blocks
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
    SCAN_RCOND,
    ScanError,
    TooFewPointsError,
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
    "lambda", "trace_J", "skipped", "rank", "sv_max", "sv_min_kept", "reason"
)


# -- serialization ----------------------------------------------------------

# A problem serializes field by field from its dataclasses, omitting None
# fields.  A coefficient becomes {"<class name, lowercased>": argument}, the
# argument a list for two-field classes; Lam becomes the string "lambda".

COEFF_TYPES = get_args(CoeffExpr)
COEFF_TAGS = {cls.__name__.lower(): cls for cls in COEFF_TYPES if cls is not Lam}


def _encode(value):
    if isinstance(value, Lam):
        return "lambda"
    if isinstance(value, COEFF_TYPES):
        args = [_encode(getattr(value, f.name)) for f in dataclasses.fields(value)]
        return {type(value).__name__.lower(): args[0] if len(args) == 1 else args}
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
    if get_origin(tp) is Union:
        members = [a for a in args if a is not type(None)]
        if len(members) == 1:
            return _decode(members[0], obj)
        return _decode_coeff(obj)
    if get_origin(tp) is tuple:
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
    return tp(obj)


def _decode_coeff(obj):
    if obj == "lambda":
        return Lam()
    if isinstance(obj, dict) and len(obj) == 1:
        tag, arg = next(iter(obj.items()))
        cls = COEFF_TAGS.get(tag)
        if cls is not None:
            hints = list(get_type_hints(cls).values())
            vals = [arg] if len(hints) == 1 else arg
            return cls(*(_decode(t, v) for t, v in zip(hints, vals, strict=True)))
    raise ValueError(f"malformed coefficient expression: {obj!r}")


def problem_to_obj(p: ProblemSpec) -> dict:
    return _encode(p)


def problem_from_obj(obj: dict) -> ProblemSpec:
    return _decode(ProblemSpec, obj)


# -- config resolution ------------------------------------------------------

class ConfigError(ValueError):
    pass


def resolve_problem(args) -> ProblemSpec:
    """Preset id or config file, then flag overrides, validated on build.

    A config file is JSON mirroring the problem fields.  If it names a
    "problem" preset, its remaining keys override that preset field by
    field; otherwise it must spell out a complete problem.
    """
    scale = "paper" if getattr(args, "paper_scale", False) else "desk"
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            obj = json.load(fh)
        if "problem" in obj:
            base = problem_to_obj(build_preset(obj.pop("problem"), scale))
            base.update(obj)
            obj = base
        try:
            problem = problem_from_obj(obj)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc
    elif getattr(args, "problem", None):
        try:
            problem = build_preset(args.problem, scale)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError("need --problem or --config")
    if getattr(args, "jitter", None) is not None:
        problem = dataclasses.replace(problem, jitter=args.jitter)
    return problem


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out_dir", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x) -> str:
    return repr(float(x))


# -- subcommands ------------------------------------------------------------

def write_spectrum_csv(path, scan) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SPECTRUM_COLUMNS)
        for pt in scan.points:
            if pt.skipped:
                w.writerow([_fmt(pt.lam), "", "true", "", "", "", pt.reason])
            else:
                d = pt.diag
                w.writerow([_fmt(pt.lam), _fmt(pt.J), "false", d.rank,
                            _fmt(d.sv_max), _fmt(d.sv_min_kept), ""])


def read_spectrum_csv(path):
    """Parse a spectrum CSV back into (lambda, trace_J, skipped) records."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            skipped = rec["skipped"] == "true"
            rows.append(
                (
                    float(rec["lambda"]),
                    None if skipped else float(rec["trace_J"]),
                    skipped,
                )
            )
    return rows


def cmd_scan(args) -> int:
    problem = resolve_problem(args)
    if problem.mode != "eigen":
        raise ConfigError(f"problem {problem.problem_id!r} is not scannable (bvp mode)")
    rcond = args.rcond if args.rcond is not None else SCAN_RCOND
    out = _out_dir(args)
    try:
        scan = scan_spectrum(problem, jobs=args.jobs, rcond=rcond)
        # written before detection so skip reasons survive a failed detection
        write_spectrum_csv(out / "spectrum.csv", scan)
        peaks = detect_peaks(scan, prominence_decades=2.0)
    except (ScanError, TooFewPointsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    n_lams = len(scan.points)
    refined = [
        refine_peak(problem, p, REFINE_ITERATIONS, rcond=rcond)
        if 0 < p.grid_index < n_lams - 1
        else p
        for p in peaks
    ]
    scan.peaks = refined

    refs = []
    try:
        refs = references_in_window(
            problem.problem_id, problem.grid.lo, problem.grid.hi
        )
    except ValueError:
        pass

    peak_objs = []
    for p in refined:
        rec = {
            "lambda_hat": p.lam_hat,
            "J_peak": p.J_peak,
            "grid_index": p.grid_index,
            "refined": p.refined,
        }
        if refs:
            nearest = min(refs, key=lambda r: abs(r - p.lam_hat))
            rec["nearest_reference"] = nearest
            rec["relative_error"] = abs(p.lam_hat - nearest) / abs(nearest)
        peak_objs.append(rec)

    doc = {
        "problem": problem.problem_id,
        "grid": problem_to_obj(problem)["grid"],
        "n_skipped": sum(1 for pt in scan.points if pt.skipped),
        "peaks": peak_objs,
    }
    if len([p for p in refined if p.J_peak > 0]) >= 2:
        slope, intercept = fit_decay_slope(refined)
        doc["decay_slope"] = slope
        doc["decay_intercept"] = intercept
    with open(out / "peaks.json", "w") as fh:
        json.dump(doc, fh, indent=2)

    print(f"scanned {n_lams} points, {len(refined)} peaks -> {out}")
    for rec in peak_objs:
        line = f"  lambda = {rec['lambda_hat']:.6g}  J = {rec['J_peak']:.3e}"
        if "relative_error" in rec:
            line += f"  (ref {rec['nearest_reference']:.6g}, err {rec['relative_error']:.2%})"
        print(line)
    return EXIT_OK


def cmd_sample(args) -> int:
    problem = resolve_problem(args)
    if problem.mode != "eigen":
        raise ConfigError("sampling needs an eigen-mode problem")
    if args.lam is None:
        raise ConfigError("sample needs --lambda")
    rcond = args.rcond if args.rcond is not None else DEFAULT_RCOND
    blocks = assemble_blocks(problem, args.lam)
    summary = posterior_covariance(blocks, problem.jitter, rcond)
    samples = sample_posterior(summary, args.count, args.seed)

    out = _out_dir(args)
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
    if args.trials < 1:
        raise ConfigError(f"trials must be positive, got {args.trials}")
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
    if args.nf is not None and args.nf < 0:
        raise ConfigError(f"N_f must be nonnegative, got {args.nf}")
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

def _add_problem_flags(p):
    p.add_argument("problem", nargs="?", help="preset id (see list-problems)")
    p.add_argument("--problem", dest="problem_flag", help="preset id")
    p.add_argument("--config", help="JSON problem config file")
    p.add_argument(
        "--paper-scale", action="store_true", help="full published grid sizes"
    )
    p.add_argument("--jitter", type=float, default=None)
    p.add_argument("--rcond", type=float, default=None)
    p.add_argument("--out-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpeigen",
        description="Eigenvalue scanning via the trace of a physics-informed "
        "GP posterior covariance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="sweep the λ grid and report peaks")
    _add_problem_flags(p_scan)
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.set_defaults(func=cmd_scan)

    p_sample = sub.add_parser("sample", help="draw posterior samples at one λ")
    _add_problem_flags(p_sample)
    p_sample.add_argument("--lambda", dest="lam", type=float, default=None)
    p_sample.add_argument("--count", type=int, default=5)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=cmd_sample)

    p_fd = sub.add_parser("fd-verify", help="finite-dimensional dichotomy check")
    p_fd.add_argument("--trials", type=int, default=100)
    p_fd.add_argument("--seed", type=int, default=0)
    p_fd.set_defaults(func=cmd_fd_verify)

    p_bvp = sub.add_parser("bvp-demo", help="source-term demo problem")
    p_bvp.add_argument("--nf", type=int, default=None)
    p_bvp.add_argument("--out-dir", default=None)
    p_bvp.set_defaults(func=cmd_bvp_demo)

    p_list = sub.add_parser("list-problems", help="show built-in presets")
    p_list.set_defaults(func=cmd_list_problems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "problem_flag", None):
        args.problem = args.problem_flag
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
