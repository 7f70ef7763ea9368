"""Spans and kernel counters for the traced benchmark run.

Spans are recorded around the benchmark's own calls into each sumnets
module, plus a few module attributes that the package calls through
(swapped for wrappers by ``instrument``).  Kernel calls are not spans:
each one adds to counters on the enclosing span, so the ~2.4e5
products of one pipeline pass cost a dict update each, not a span.

Everything stays in memory; ``Tracer.to_json`` writes it out at the end.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

BUCKETS = ("small", "medium", "large")
KERNELS = ("matmul_mod", "rref_mod")


def bucket(dim: int) -> str:
    """Shape bucket by the largest dimension: small <=16, medium <=256, large >256."""
    return "small" if dim <= 16 else "medium" if dim <= 256 else "large"


def matmul_cost(m: int, k: int, n: int) -> tuple[int, int]:
    """Computed (operations, bytes) of an (m,k) @ (k,n) int64 product:
    a multiply and an add per term; both inputs read, the output written."""
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def rref_cost(rows: int, cols: int, rank: int) -> tuple[int, int]:
    """Computed (operations, bytes) of dense elimination to the given rank:
    a multiply-subtract per entry per pivot, the matrix read and written
    once per pivot.  A model of the work, not a measurement."""
    return 2 * rank * rows * cols, 16 * rank * rows * cols + 8 * rows * cols


@dataclass
class Span:
    id: int
    parent: Optional[int]
    pass_id: int
    name: str
    start: float
    end: float = 0.0
    # (kernel, bucket, p) -> [calls, seconds, ops, bytes, nonzeros, entries]
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans are a shared no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.pass_id = 0
        self.unpatched: set[str] = set()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self.pass_id, name, perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def count(self, key: tuple, seconds: float, ops: int, nbytes: int, nnz: int, entries: int):
        c = self._stack[-1].counters.get(key)
        if c is None:
            c = self._stack[-1].counters[key] = [0, 0.0, 0, 0, 0, 0]
        c[0] += 1
        c[1] += seconds
        c[2] += ops
        c[3] += nbytes
        c[4] += nnz
        c[5] += entries

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def to_json(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "pass": s.pass_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self_s": selfs[s.id],
                "counters": [
                    {"kernel": k, "bucket": b, "p": p, "calls": c[0], "s": c[1], "ops": c[2],
                     "bytes": c[3], "density": c[4] / c[5] if c[5] else 0.0}
                    for (k, b, p), c in s.counters.items()
                ],
            }
            for s in self.spans
        ]


# --- wrappers swapped into the package ------------------------------------------


def _matmul_counter(tr: Tracer, fn):
    def matmul_mod(a, b, p):
        t0 = perf_counter()
        out = fn(a, b, p)
        dt = perf_counter() - t0
        m, k = a.shape
        n = b.shape[1]
        tr.count(
            ("matmul_mod", bucket(max(m, k, n)), p),
            dt,
            *matmul_cost(m, k, n),
            int(np.count_nonzero(a)) + int(np.count_nonzero(b)),
            a.size + b.size,
        )
        return out

    return matmul_mod


def _rref_counter(tr: Tracer, fn):
    def rref_mod(m, p):
        rows, cols = m.shape
        nnz = int(np.count_nonzero(m))  # before the in-place elimination
        t0 = perf_counter()
        out = fn(m, p)
        dt = perf_counter() - t0
        tr.count(
            ("rref_mod", bucket(max(rows, cols)), p),
            dt,
            *rref_cost(rows, cols, out[0]),
            nnz,
            rows * cols,
        )
        return out

    return rref_mod


def _spanned(tr: Tracer, name: str, fn):
    def spanned(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)

    return spanned


def _patches(tr: Tracer) -> list[tuple]:
    from sumnets import analysis, coding, matrix

    def matmul(fn):
        return _matmul_counter(tr, fn)

    def rref(fn):
        return _rref_counter(tr, fn)

    def span(name):
        return lambda fn: _spanned(tr, name, fn)

    return [
        (coding, "matmul_mod", matmul),
        (matrix, "matmul_mod", matmul),
        (matrix, "rref_mod", rref),
        (analysis, "rref_mod", rref),
        (coding, "topo_order", span("network.topo_order")),
        (analysis, "solve_right", span("matrix.solve_right")),
        (matrix, "rank", span("matrix.rank")),
        # Networks built inside the schemes and the unroll.
        (coding, "build_n1", span("constructions.build")),
        (coding, "build_n2", span("constructions.build")),
        (coding, "merge_with_map", span("constructions.build")),
        (coding, "unmerge_map", span("constructions.build")),
    ]


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Swap the module attributes the package calls through for counting
    wrappers; restore them on exit.  An attribute the package no longer
    has is skipped and listed in ``tr.unpatched``."""
    saved = []
    for mod, name, wrap in _patches(tr):
        if not hasattr(mod, name):
            tr.unpatched.add(f"{mod.__name__}.{name}")
            continue
        saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrap(getattr(mod, name)))
    try:
        yield
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)


# --- per-layer metrics --------------------------------------------------------------

SPAN_SECONDS = (
    "constructions.build",
    "network.serialize",
    "network.deserialize",
    "network.validate",
    "network.topo_order",
    "coding.scheme",
    "coding.code_to_json",
    "coding.code_from_json",
    "coding.verify",
    "coding.unroll",
    "analysis.bound_check",
    "analysis.feasible_decoders",
    "matrix.solve_right",
)
SPAN_CALLS = ("analysis.feasible_decoders", "matrix.solve_right", "matrix.rank")


def kernel_totals(tr: Tracer) -> dict[tuple, list]:
    """Kernel counters summed over all spans, by (kernel, bucket, p)."""
    acc: dict[tuple, list] = {}
    for s in tr.spans:
        for key, c in s.counters.items():
            a = acc.setdefault(key, [0, 0.0, 0, 0, 0, 0])
            for i, x in enumerate(c):
                a[i] += x
    return acc


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per traced pass: self seconds and calls per span name, and the
    kernel counters summed per kernel and per shape bucket."""
    selfs = tr.self_times()
    out: dict[str, float] = {f"{n}.s": 0.0 for n in SPAN_SECONDS}
    out.update({f"{n}.calls": 0 for n in SPAN_CALLS})
    for s in tr.spans:
        if s.name in SPAN_SECONDS:
            out[f"{s.name}.s"] += selfs[s.id]
        if s.name in SPAN_CALLS:
            out[f"{s.name}.calls"] += 1
    density: dict[str, list] = {}
    for k in KERNELS:
        for pre in [f"kernels.{k}"] + [f"kernels.{k}.{b}" for b in BUCKETS]:
            out.update({f"{pre}.calls": 0, f"{pre}.s": 0.0, f"{pre}.ops": 0, f"{pre}.bytes": 0})
        for b in BUCKETS:
            density[f"kernels.{k}.{b}.density"] = [0, 0]  # nonzeros, entries
    for (k, b, _p), c in kernel_totals(tr).items():
        for pre in (f"kernels.{k}", f"kernels.{k}.{b}"):
            for i, field_name in enumerate(("calls", "s", "ops", "bytes")):
                out[f"{pre}.{field_name}"] += c[i]
        density[f"kernels.{k}.{b}.density"][0] += c[4]
        density[f"kernels.{k}.{b}.density"][1] += c[5]
    out = {key: value / passes for key, value in out.items()}
    out.update({key: nz / n if n else 0.0 for key, (nz, n) in density.items()})
    return out


def kernel_tags(tr: Tracer, passes: int) -> list[dict]:
    """Kernel counters per (kernel, bucket, p), per traced pass, with density."""
    return [
        {"kernel": k, "bucket": b, "p": p, "calls": a[0] / passes, "s": a[1] / passes,
         "ops": a[2] / passes, "bytes": a[3] / passes, "density": a[4] / a[5] if a[5] else 0.0}
        for (k, b, p), a in sorted(kernel_totals(tr).items())
    ]


def span_summary(tr: Tracer, passes: int) -> list[dict]:
    """Per span name: calls, inclusive and self seconds per traced pass,
    largest self time first."""
    selfs = tr.self_times()
    acc: dict[str, list] = {}
    for s in tr.spans:
        a = acc.setdefault(s.name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += s.duration
        a[2] += selfs[s.id]
    rows = [
        {"name": k, "calls": a[0] / passes, "s": a[1] / passes, "self_s": a[2] / passes}
        for k, a in acc.items()
    ]
    return sorted(rows, key=lambda r: -r["self_s"])
