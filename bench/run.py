"""gpeigen benchmark: time to spectrum and recovery accuracy per workload.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ./src):

    python3 bench/run.py --workload laplace-desk --seed 0 --seconds 15 --trace 0

One run times the workload's set-up in several fresh interpreters, then
repeats the workload in this process, serially
(jobs=1, BLAS threads at the library default) until --seconds have passed
and reports medians over the repetitions.  --trace 1 alternates untraced
and traced repetitions; the traced ones record spans around every call
into the package and yield the per-layer metrics, written to
bench/out/spans-<workload>-<seed>.jsonl.

Output: a `manifest` line (machine, BLAS, versions, problem sizes,
evaluation counts), one line per metric with its unit, and as the last line
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1).  Exit code 0 on success, 1 when the program's output is
invalid (non-finite or negative J, wrong point count, malformed samples),
2 when the package cannot be imported or the arguments are bad.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from spans import Tracer, instrument, self_times, traced_api

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("laplace-desk", "laplace-paper", "boundary-desk", "eigenfunctions")
# Set-ups per run, each in a fresh interpreter; setup_s is their median.
SETUP_REPEATS = 3
SETUP_CHILD = """\
import sys, time
t = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads as W
wl = W.WORKLOADS[{workload!r}]
W.warm_up(wl, W.build_problems(wl, {seed}))
print(time.perf_counter() - t)
"""
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, default=None, help="span file (--trace 1)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds >= 0:
        p.error("--seconds must be nonnegative")
    return args


def import_gpeigen() -> None:
    """Import the package from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import gpeigen

    where = Path(gpeigen.__file__).resolve().parent
    if where != (SRC / "gpeigen").resolve():
        raise ImportError(f"gpeigen imported from {where}, not from {SRC}")


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info():
    """BLAS build and the thread count each loaded OpenBLAS reports."""
    import ctypes

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg)
        if mod is None:
            continue
        libdir = Path(mod.__file__).resolve().parent.parent / f"{pkg}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue  # not loaded in this process
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    threads[lib.name] = fn()
                    break
    return {
        "name": cfg.get("name"),
        "version": cfg.get("version"),
        "config": cfg.get("openblas configuration"),
        "threads": threads,
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def percentiles(values, qs=(50, 90)):
    if not values:
        return [0.0 for _ in qs]
    return [float(v) for v in np.percentile(values, qs)]


def layer_metrics(spans, wall: float, sc: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    dur = {k: [s.duration for s in v] for k, v in by.items()}
    total = lambda name: float(sum(dur.get(name, [])))
    ms = lambda name: [1e3 * d for d in dur.get(name, [])]
    n_assemble = len(by.get("operators.assemble", []))
    per_eval = lambda x: x / n_assemble if n_assemble else 0.0
    cond = by.get("posterior.condition", [])
    ranks = [s.attrs["rank"] for s in cond]
    dims = [s.attrs["gram_dim"] for s in cond]
    trunc = [s.attrs["truncated"] / s.attrs["gram_dim"] for s in cond]
    samples = by.get("posterior.sample", [])
    refine_ids = {s.id for s in by.get("scan.refine", [])}
    refine_evals = sum(s.parent in refine_ids for s in by.get("scan.eval", []))
    selfs = self_times(spans)
    a50, a90 = percentiles(ms("operators.assemble"))
    c50, c90 = percentiles(ms("posterior.condition"))
    s50, s90 = percentiles(ms("posterior.sample"))
    e50, e90 = percentiles(ms("scan.eval"))
    m = {
        "kernel.radial_points_per_eval": (
            per_eval(sum(s.attrs["points"] for s in by.get("kernel.profile", []))),
            "count",
        ),
        "kernel.profile_ms_per_eval": (per_eval(1e3 * total("kernel.profile")), "ms"),
        "operators.assemble_ms_p50": (a50, "ms"),
        "operators.assemble_ms_p90": (a90, "ms"),
        "operators.assemble_share": (total("operators.assemble") / wall, "ratio"),
        "posterior.condition_ms_p50": (c50, "ms"),
        "posterior.condition_ms_p90": (c90, "ms"),
        "posterior.condition_share": (total("posterior.condition") / wall, "ratio"),
        "posterior.gram_dim": (max(dims, default=0), "count"),
        "posterior.rank_p50": (percentiles(ranks, (50,))[0], "count"),
        "posterior.rank_max": (max(ranks, default=0), "count"),
        "posterior.truncated_frac_p50": (percentiles(trunc, (50,))[0], "ratio"),
        "posterior.sample_ms_p50": (s50, "ms"),
        "posterior.sample_ms_p90": (s90, "ms"),
        "posterior.sample_residual_max": (
            max((s.attrs["residual_max"] for s in samples), default=0.0),
            "ratio",
        ),
        "scan.refine_s": (total("scan.refine"), "s"),
        "scan.refine_share": (total("scan.refine") / wall, "ratio"),
        "scan.refine_evals_per_peak": (
            refine_evals / len(refine_ids) if refine_ids else 0.0,
            "count",
        ),
        "scan.refine_rel_err_max": (sc["refine_rel_err_max"], "ratio"),
        "scan.sweep_s": (total("scan.sweep"), "s"),
        "scan.eval_ms_p50": (e50, "ms"),
        "scan.eval_ms_p90": (e90, "ms"),
        "scan.evals_total": (len(by.get("scan.eval", [])), "count"),
        "scan.skipped": (sc["skipped"], "count"),
        "scan.detect_ms": (1e3 * total("scan.detect"), "ms"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in ("kernel", "operators", "posterior", "scan", "bench"):
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    m["trace.unaccounted_frac"] = ((wall - sum(selfs.values())) / wall, "ratio")
    return m


@dataclass
class Measured:
    """Repetitions of one run, each kept as (Rep without outputs, score)."""

    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    tracer: object = None


class InvalidOutput(Exception):
    def __init__(self, rep, errors):
        super().__init__("; ".join(errors[:20]))
        self.rep = rep


def setup_seconds(workload: str, seed: int) -> list:
    """Wall time of SETUP_REPEATS set-ups, each in a fresh interpreter.

    A set-up imports gpeigen, builds the workload's problems and makes one
    warm-up λ-evaluation, which is what a user pays before the first
    sweep.  Interpreter start-up itself is not timed.
    """
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    out = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(child.stdout.split()[-1]))
    return out


def set_up(wl, seed: int, shrink=None):
    """This process's problems, warmed up once before the timed loop."""
    import workloads as W

    problems = W.build_problems(wl, seed, shrink)
    W.warm_up(wl, problems)
    return problems


def measure(wl, problems, seed: int, seconds: float, trace: bool) -> Measured:
    """Repeat the workload until `seconds` have passed (at least once).

    With trace, each round runs one untraced and one traced repetition,
    alternating which goes first so neither side always runs warmer.
    """
    import workloads as W

    api = W.Api()
    out = Measured(tracer=Tracer() if trace else None)
    deadline = perf_counter() + seconds
    rounds = 0
    while True:
        sides = [False, True] if trace else [False]
        for traced in sides if rounds % 2 == 0 else sides[::-1]:
            if traced:
                tr = out.tracer
                tr.run = len(out.traced)
                with instrument(tr):
                    rep = W.run_once(wl, problems, seed, traced_api(tr, api), tr)
            else:
                rep = W.run_once(wl, problems, seed, api)
            errors = W.invalid_output(rep)
            if errors:
                raise InvalidOutput(rep, errors)
            sc = W.score(rep)
            rep.problems, rep.modes = [], []  # keep timings and scores only
            (out.traced if traced else out.plain).append((rep, sc))
        rounds += 1
        if perf_counter() >= deadline:
            return out


def end_to_end(wl, m: Measured, setup_s: float) -> dict:
    """End-to-end metrics of the untraced repetitions; name -> (value, unit).

    Metrics that do not apply to the workload are left out.
    """
    reps = [r for r, _ in m.plain]
    sc = m.plain[0][1]
    sweeps = not wl.eigenfunctions
    out = {
        "setup_s": (setup_s, "s"),
        "spectrum_s": (statistics.median(r.spectrum_s for r in reps), "s"),
        "sweep_lambda_per_s": (
            statistics.median(r.loop_points / r.loop_s for r in reps),
            "1/s",
        ),
        "modes_matched": (sc["modes_matched"], "count"),
        "peaks_matched": (sc["peaks_matched"], "count") if sweeps else None,
        "peaks_spurious": (sc["peaks_spurious"], "count") if sweeps else None,
        "eigfns_matched": (sc["eigfns_matched"], "count") if not sweeps else None,
        "failed_frac": (
            sum(r.failed for r in reps) / sum(r.evals for r in reps),
            "ratio",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: v for k, v in out.items() if v is not None}


def per_layer(m: Measured, e2e: dict) -> dict:
    """Medians over the traced repetitions of their per-layer metrics.

    Every metric is reported; a layer the workload never enters reads 0.
    """
    runs = [
        layer_metrics([s for s in m.tracer.spans if s.run == i], rep.spectrum_s, sc)
        for i, (rep, sc) in enumerate(m.traced)
    ]
    out = {
        k: (statistics.median(r[k][0] for r in runs), unit)
        for k, (_, unit) in runs[0].items()
    }
    traced_s = statistics.median(rep.spectrum_s for rep, _ in m.traced)
    out["trace.overhead_frac"] = (traced_s / e2e["spectrum_s"][0] - 1.0, "ratio")
    sc = m.traced[0][1]
    for k in ("peaks_matched", "peaks_spurious", "eigfns_matched"):
        out[k] = (sc[k], "count")
    out["failed_frac"] = e2e["failed_frac"]
    return out


def manifest(args, wl, problems, m: Measured, setups) -> dict:
    rep, sc = m.plain[0]
    sweep = 0 if wl.eigenfunctions else rep.loop_points
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "jobs": 1,
        "problems": [
            {
                "id": p.problem_id,
                "N": p.N,
                "N_t": p.N_t,
                "jitter": p.jitter,
                "grid": dataclasses.asdict(p.grid),
            }
            for p in problems
        ],
        "evals_per_rep": {
            "sweep": sweep,
            "refine": rep.evals - sweep if sweep else 0,
            "condition": rep.evals,
        },
        "reps": {"untraced": len(m.plain), "traced": len(m.traced)},
        "setup_runs_s": setups,
        "accuracy": {"per_problem": sc["per_problem"], "cos_min": sc["cos_min"]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_gpeigen()
    except ImportError as exc:
        print(f"error: cannot import gpeigen from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads as W

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = W.WORKLOADS[args.workload]
    try:
        setups = setup_seconds(wl.name, args.seed)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}\n{exc.stderr}", file=sys.stderr)
        return 2
    problems = set_up(wl, args.seed)
    try:
        m = measure(wl, problems, args.seed, args.seconds, bool(args.trace))
    except InvalidOutput as exc:
        print(f"invalid output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.rep.evals,
                          "failed": exc.rep.failed, "metrics": {}}))
        return 1
    e2e = end_to_end(wl, m, statistics.median(setups))
    layer = per_layer(m, e2e) if args.trace else {}

    info = manifest(args, wl, problems, m, setups)
    print("manifest " + json.dumps(info))
    for name, (value, unit) in {**e2e, **layer}.items():
        print(f"{name:34s} {value:.6g} {unit}")
    if args.trace:
        path = args.spans or HERE / "out" / f"spans-{wl.name}-{args.seed}.jsonl"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            m.tracer.write_jsonl(path, info)
        except OSError as exc:
            print(f"warning: spans not written: {exc}", file=sys.stderr)

    chosen, source = (
        (spec["per_layer"], layer) if args.trace else (spec["end_to_end"], e2e)
    )
    metrics = {}
    for entry in chosen:
        value, unit = source[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    attempted = sum(r.evals for r, _ in m.plain + m.traced)
    failed = sum(r.failed for r, _ in m.plain + m.traced)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
