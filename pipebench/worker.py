"""One benchmark process: set up a workload, run timed passes, report.

Started by run.py in a fresh interpreter whose BLAS/OpenMP thread
variables are already set.  ``--launched`` is the parent's
``time.monotonic()`` just before the start, so set-up time includes
interpreter start-up (CLOCK_MONOTONIC is shared by all processes).
The last line of stdout is one JSON record.

  worker.py --workload W --seed N --seconds S --trace 0|1 --launched T
            --out DIR [--setup-only]
  worker.py --kernels --out DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import sumnets  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402


def environment() -> dict:
    try:
        from sumnets import _core  # noqa: F401

        core = True
    except ImportError:
        core = False
    return {
        "backend": sumnets.backend_name(),
        "core_importable": core,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(args) -> dict:
    setup_fn, pass_fn = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    state = setup_fn(rng, out_dir)
    setup_s = time.monotonic() - args.launched
    record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        return record

    null = tracing.NullTracer()
    tracer = tracing.Tracer() if args.trace else None
    untraced: list = []
    traced: list = []
    cycles: list[float] = []  # pass plus its checks
    start = time.perf_counter()
    # Whole passes, while the next one is expected to end within --seconds;
    # at least one, and with tracing at least one of each kind.
    while True:
        gc.collect()
        c0 = time.perf_counter()
        if tracer is not None and len(traced) < len(untraced):
            tracer.pass_id += 1
            with tracing.instrument(tracer):
                traced.append(pass_fn(state, tracer))
        else:
            untraced.append(pass_fn(state, null))
        cycles.append(time.perf_counter() - c0)
        expected_end = time.perf_counter() - start + statistics.median(cycles)
        if expected_end > args.seconds and (tracer is None or traced):
            break

    runs = untraced + traced
    record.update(
        seconds=args.seconds,
        trace=int(args.trace),
        pass_s=[r.seconds for r in untraced],
        items_ms=[x for r in untraced for x in r.items_ms],
        attempted=sum(r.attempted for r in runs),
        failed=sum(r.failed for r in runs),
        errors=[e for r in runs for e in r.errors][:20],
        peak_rss_mb=peak_rss_mb(),
        env=environment(),
    )
    if tracer is not None:
        record["traced_pass_s"] = [r.seconds for r in traced]
        record["per_layer"] = per_layer(tracer, untraced, traced)
        record["kernel_tags"] = tracing.kernel_tags(tracer, len(traced))
        record["stages"] = tracing.span_summary(tracer, len(traced))
        record["unpatched"] = sorted(tracer.unpatched)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
        record["spans_file"] = str(spans_path)
    return record


def per_layer(tracer, untraced: list, traced: list) -> dict:
    n = len(traced)
    out = tracing.layer_metrics(tracer, n)
    for key in ("network.file_bytes", "coding.code_file_bytes",
                "analysis.found_per_tried", "analysis.rejected_at_first_terminal_frac"):
        out[key] = sum(r.extras.get(key, 0) for r in traced) / n
    untraced_s = statistics.median(r.seconds for r in untraced)
    traced_s = statistics.median(r.seconds for r in traced)
    selfs = tracer.self_times()
    roots = [s for s in tracer.spans if s.parent is None]
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    out["trace.unattributed_frac"] = sum(selfs[s.id] for s in roots) / sum(s.duration for s in roots)
    out["trace.spans"] = len(tracer.spans) / n
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--kernels", action="store_true")
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.kernels:
        import kernel_cases

        record = kernel_cases.run()
        record["env"] = environment()
    else:
        record = run(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
