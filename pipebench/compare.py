"""Compare two result sets (directories of saved run records), one per commit.

Per workload and end-to-end metric it prints each side's median and
quartiles, the pair win rate of B over A (runs paired by seed, ties
counting for neither; sets without common seeds are paired in seed order)
and a verdict:

  better        B wins at least 9/10 of the pairs and the medians differ
                by more than A's own spread (q3 - q1), in B's favour
  worse         B's median is worse than A's by more than the metric's bound
  within-bound  neither: B is no worse than A by more than the bound
  unresolved    A's or B's relative spread exceeds the bound, so a change
                within it cannot be told from noise, and not every run of
                B reads better than every run of A
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


class CompareError(Exception):
    pass


def load(directory: str) -> dict[str, list[dict]]:
    """Untraced run records by workload."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("result-*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(record["workload"], []).append(record)
    if not runs:
        raise CompareError(f"no untraced result records in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            lower_is_better: bool, bound: float) -> tuple[str, float]:
    sign = 1.0 if lower_is_better else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    if win_rate >= 0.9 and sign * (am - bm) > (a3 - a1):
        return "better", win_rate
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if spread > bound:
        all_better = max(sign * y for y in b) < min(sign * x for x in a)
        return ("within-bound" if all_better else "unresolved"), win_rate
    if sign * (bm - am) / am > bound:
        return "worse", win_rate
    return "within-bound", win_rate


def seed(record: dict) -> int:
    return record["seed"]


def backends(runs: dict[str, list[dict]]) -> set[str]:
    return {r["env"]["backend"] for records in runs.values() for r in records}


def main(bench: dict, dir_a: str, dir_b: str) -> int:
    side_a, side_b = load(dir_a), load(dir_b)
    if backends(side_a) != backends(side_b) or len(backends(side_a)) != 1:
        raise CompareError(
            f"kernel backends differ ({sorted(backends(side_a))} vs {sorted(backends(side_b))});"
            " results from different backends must not be compared"
        )
    print(f"A = {dir_a}\nB = {dir_b}")
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3] n':<36} {'B median [q1, q3] n':<36}"
          f" {'B-A':>7} {'B wins':>10}  verdict")
    for workload in sorted(set(side_a) & set(side_b)):
        ra, rb = side_a[workload], side_b[workload]
        seeds_b = {r["seed"]: r for r in rb}
        for metric in bench["end_to_end"]:
            name = metric["name"]

            def value(record):
                return record["result"]["metrics"][name]["value"]

            a = [value(r) for r in ra]
            b = [value(r) for r in rb]
            pairs = [(value(r), value(seeds_b[r["seed"]])) for r in ra if r["seed"] in seeds_b]
            if not pairs:  # no common seeds: pair the runs in seed order
                pairs = list(zip(*(sorted(ra, key=seed), sorted(rb, key=seed))))
                pairs = [(value(x), value(y)) for x, y in pairs]
            v, win_rate = verdict(a, b, pairs, metric["better"] == "lower", metric["bound"])
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            side_a_text = f"{am:.4g} [{a1:.4g}, {a3:.4g}] {len(a)}"
            side_b_text = f"{bm:.4g} [{b1:.4g}, {b3:.4g}] {len(b)}"
            print(
                f"{workload:<16} {name:<12} {side_a_text:<36} {side_b_text:<36}"
                f" {(bm - am) / am:>+7.1%} {win_rate:>5.0%} of {len(pairs):<2}  {v}"
                f" (bound {metric['bound']:.0%}, {metric['unit']})"
            )
    return 0
