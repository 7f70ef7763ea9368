"""Pipeline benchmark for sumnets: one workload per invocation.

  python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 pipebench/run.py --compare DIR_A DIR_B
  python3 pipebench/run.py --kernels

Run from the repository root.  Each workload runs in fresh single-threaded
worker processes (pipebench/worker.py): several that only set up, to time
set-up, and one that sets up and then runs timed passes for --seconds.
Every verdict is checked against its known answer.  Human-readable lines
come first; the last line of stdout is one JSON object with the metrics
BENCHMARK.json names (end_to_end with --trace 0, per_layer with --trace 1).

Each run also saves its full record (environment, raw samples and, when
traced, the spans) under --out, by default .pipebench_out/.  --compare
reads two such directories, one per commit.  --kernels times the two
kernels on matrices captured from the workloads.

Exit codes: 0 every verdict correct, 1 some verdict wrong (the result is
still printed, with "correct": false), 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 5  # set-up-only workers per run, besides the measuring one
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


# --- BENCHMARK.json -------------------------------------------------------------


def load_benchmark(path: Path) -> dict:
    """Read BENCHMARK.json and check it against the benchmark contract."""
    if not path.is_file():
        raise BenchError(f"{path.name} not found in {path.parent}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BenchError(f"BENCHMARK.json is not valid JSON: {exc}") from exc
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        raise BenchError(f"BENCHMARK.json keys {sorted(doc)} != {sorted(keys)}")
    names: set[str] = set()
    for section, fields in (
        ("workloads", {"name", "why"}),
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for item in doc[section]:
            if set(item) != fields:
                raise BenchError(f"BENCHMARK.json {section} entry {item} needs keys {sorted(fields)}")
            if not NAME.match(item["name"]) or item["name"] in names:
                raise BenchError(f"BENCHMARK.json: bad or repeated name {item['name']!r}")
            names.add(item["name"])
            if "unit" in fields and not UNIT.match(item["unit"]):
                raise BenchError(f"BENCHMARK.json: bad unit {item['unit']!r}")
            if "better" in fields and item["better"] not in ("lower", "higher"):
                raise BenchError(f"BENCHMARK.json: bad 'better' on {item['name']}")
            if "bound" in fields and not 0 < item["bound"] <= 0.25:
                raise BenchError(f"BENCHMARK.json: bound of {item['name']} must be in (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise BenchError("BENCHMARK.json: end_to_end needs setup_s in s, lower is better")
    if not 1 <= doc["run_seconds"] <= 60 or not 2 <= len(doc["workloads"]) <= 8:
        raise BenchError("BENCHMARK.json: run_seconds or workload count out of range")
    return doc


# --- statistics -------------------------------------------------------------------


def tail(values: list[float]):
    """(percentile, value, samples beyond) at the highest listed percentile
    with at least 10 samples beyond it (nearest rank), or None."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(n * pct / 100))
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


def end_to_end(setups: list[float], main: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(main["pass_s"]),
        "item_p50_ms": statistics.median(main["items_ms"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }


# --- workers ---------------------------------------------------------------------


def worker_env() -> dict:
    """The workers run single-threaded: BLAS/OpenMP pools of one thread,
    well within nproc, so a run never competes with itself for cores."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


# --- one workload run --------------------------------------------------------------


def run_workload(bench: dict, args) -> int:
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; BENCHMARK.json lists {names}")
    started = time.monotonic()
    out = Path(args.out)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]
    setups = [
        run_worker(common + ["--setup-only"], timeout=60)["setup_s"] for _ in range(SETUP_REPEATS)
    ]
    remaining = DEADLINE_S - (time.monotonic() - started)
    main = run_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], timeout=remaining
    )
    setups.append(main["setup_s"])
    e2e = end_to_end(setups, main)
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = main["per_layer"] if args.trace else e2e
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics missing from the run: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    env = dict(main["env"], git_revision=git_revision())
    report(args, env, setups, main, e2e)
    record = dict(main, setup_samples=setups, env=env, end_to_end=e2e, result=result)
    out.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args, env: dict, setups: list[float], main: dict, e2e: dict) -> None:
    """Human-readable lines; every figure carries its unit and sample count."""
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    core = "importable" if env["core_importable"] else "absent"
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace} | backend {env['backend']}"
        f" (_core {core}) | rev {env['git_revision']} | nproc {env['nproc']}"
        f" | python {env['python']} numpy {env['numpy']} | {threads}"
    )
    print("  results from different backends must not be compared")
    items = main["items_ms"]
    print(f"  setup_s       {e2e['setup_s']:.4f} s   median of {len(setups)} set-ups")
    print(f"  wall_s        {e2e['wall_s']:.4f} s   median of {len(main['pass_s'])} untraced passes")
    print(f"  item_p50_ms   {e2e['item_p50_ms']:.4f} ms  median of {len(items)} verdicts")
    t = tail(items)
    if t is None:
        print(f"  item_tail_ms  n/a: {len(items)} verdicts leave no percentile with 10 beyond it")
    else:
        print(f"  item_tail_ms  {t[1]:.4f} ms  p{t[0]:g} of {len(items)} verdicts ({t[2]} beyond)")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB  ru_maxrss of the measuring worker")
    frac = main["failed"] / main["attempted"]
    print(f"  failed_frac   {frac:.4f}  ({main['failed']} of {main['attempted']} verdicts)")
    for err in main["errors"]:
        print(f"  FAILED: {err}")
    if not args.trace:
        return
    traced, untraced = main["traced_pass_s"], main["pass_s"]
    layer = main["per_layer"]
    print(
        f"  traced passes {len(traced)}, median {statistics.median(traced):.4f} s vs untraced"
        f" {statistics.median(untraced):.4f} s: tracing overhead {layer['trace.overhead_frac']:+.2%}"
    )
    for name in main["unpatched"]:
        print(f"  not traced: {name} no longer exists")
    print("  spans per traced pass (self time = time not covered by child spans):")
    for row in main["stages"]:
        print(f"    {row['name']:<30} calls {row['calls']:>8.1f}  s {row['s']:>9.4f}  self {row['self_s']:>9.4f}")
    print("  kernel calls per traced pass, by shape bucket and p:")
    for k in main["kernel_tags"]:
        print(
            f"    {k['kernel']:<10} {k['bucket']:<6} p={k['p']:<3} calls {k['calls']:>9.0f}"
            f"  s {k['s']:>8.4f}  ops {k['ops']:.3g}  bytes {k['bytes']:.3g}  density {k['density']:.4f}"
        )


def run_kernels(args) -> int:
    record = run_worker(["--kernels", "--out", args.out], timeout=DEADLINE_S)
    for r in record["cases"]:
        print(
            f"kernels.{r['kernel']}.{r['case']} [{r['backend']}] {r['shape']} p={r['p']}"
            f" {r['bucket']} density {r['density']:.4f}: calls {r['calls']},"
            f" s {r['s']:.6g} per call (median), ops {r['ops']}, bytes {r['bytes']} (computed)"
        )
    for err in record["errors"]:
        print(f"  FAILED: {err}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "kernels.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": record["correct"], "cases": len(record["cases"])}))
    return 0 if record["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".pipebench_out"))
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    parser.add_argument("--kernels", action="store_true")
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark(ROOT / "BENCHMARK.json")
        if args.compare:
            import compare

            try:
                return compare.main(bench, *args.compare)
            except compare.CompareError as exc:
                raise BenchError(str(exc)) from exc
        if not (ROOT / "src" / "sumnets" / "__init__.py").is_file():
            raise BenchError(f"sumnets sources not found under {ROOT / 'src'}")
        if args.kernels:
            return run_kernels(args)
        if args.workload is None:
            raise BenchError("--workload is required")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return run_workload(bench, args)
    except BenchError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
