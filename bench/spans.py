"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start, end, parent, run): ``name`` is
``<layer>.<stage>`` with the layer named after the gpeigen module whose
public function the span wraps, ``parent`` is the id of the span open when
it started (``-1`` at the root), and ``run`` ties together the spans of one
workload repetition.  Counts observed at the same boundary (points passed
to the kernel, kept rank, ...) ride along in ``attrs``.  Spans stay in
memory until ``write_jsonl`` is called at the end of the run.

``instrument`` swaps the benchmark's wrappers in for the module-level names
that gpeigen's own functions call through, so the spans nest without any
change to the package: scan_spectrum and refine_peak reach evaluate_trace,
assemble_blocks and posterior_covariance through ``gpeigen.scan``, and
every Gram block reaches radial_profile_derivatives through
``gpeigen.operators`` or ``gpeigen.kernel``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = 0
        self._open = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else -1
        span = Span(len(self.spans), name, perf_counter(), 0.0, parent, self.run)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` recorded as span ``name``; ``annotate(span, args, result)``
        may attach counts observed at the call."""

        def wrapped(*args, **kwargs):
            s = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(s)
            if annotate is not None:
                annotate(s, args, out)
            return out

        return wrapped

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "run": s.run,
                            **({"attrs": s.attrs} if s.attrs else {}),
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> dict:
    """Seconds per layer of span duration not covered by child spans."""
    child = {}
    for s in spans:
        if s.parent >= 0:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child.get(s.id, 0.0)
    return out


def _note_points(span, args, _out):
    span.attrs["points"] = int(args[2].size)  # r, always an ndarray


def _note_condition(span, _args, summary):
    d = summary.diag
    span.attrs.update(
        rank=d.rank, gram_dim=d.rank + d.truncated_count, truncated=d.truncated_count
    )


def _note_samples(span, _args, samples):
    span.attrs["residual_max"] = max(s.residual for s in samples)


def traced_api(tracer: Tracer, api):
    """The benchmark's entry points, each recorded as a span of its layer."""
    return type(api)(
        scan_spectrum=tracer.wrap("scan.sweep", api.scan_spectrum),
        detect_peaks=tracer.wrap("scan.detect", api.detect_peaks),
        refine_peak=tracer.wrap("scan.refine", api.refine_peak),
        assemble_blocks=tracer.wrap("operators.assemble", api.assemble_blocks),
        posterior_covariance=tracer.wrap(
            "posterior.condition", api.posterior_covariance, _note_condition
        ),
        sample_posterior=tracer.wrap(
            "posterior.sample", api.sample_posterior, _note_samples
        ),
    )


@contextmanager
def instrument(tracer: Tracer):
    """Route gpeigen's internal calls through span-recording wrappers."""
    import gpeigen.kernel as kernel
    import gpeigen.operators as operators
    import gpeigen.scan as scan

    profile = tracer.wrap(
        "kernel.profile", kernel.radial_profile_derivatives, _note_points
    )
    patches = [
        (scan, "evaluate_trace", tracer.wrap("scan.eval", scan.evaluate_trace)),
        (scan, "assemble_blocks", tracer.wrap("operators.assemble", scan.assemble_blocks)),
        (
            scan,
            "posterior_covariance",
            tracer.wrap("posterior.condition", scan.posterior_covariance, _note_condition),
        ),
        (operators, "radial_profile_derivatives", profile),
        (kernel, "radial_profile_derivatives", profile),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield tracer
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
