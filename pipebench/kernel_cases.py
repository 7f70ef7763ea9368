"""The two GF(p) kernels timed on matrices captured from the workloads.

Cases:
  bound-864     rref_mod on the 864x864 stacked bound matrix of the
                rate-3/5 pipeline, over GF(2) (0.3% nonzeros)
  search-solve  rref_mod on the augmented decoder solve of one GF(3)
                search candidate on the same network
  transfer      matmul_mod on one l x l by l x r transfer product of the
                rate-3/5 verify, over GF(2)
  p-max         matmul_mod on the transfer shape at p = 2^31-1, the
                modulus ceiling, where the kernel must split the inner sum

Each case is captured by running the real call until it reaches the
kernel, copying the arguments and abandoning the call.  Results are
checked against Python-integer arithmetic (the bound rank against its
known value, 864), for the numpy kernel and, when it is importable, for
the compiled one, which is timed on the same inputs.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from sumnets import _core_py, analysis, coding, constructions, matrix

import tracing

P_MAX = 2**31 - 1
MIN_TIME_S = 1.0


class _Captured(Exception):
    pass


def _capture(module, name: str, call) -> tuple:
    """Arguments of the first call that `call()` makes to module.name."""
    original = getattr(module, name)
    seen: list[tuple] = []

    def grab(*args):
        seen.append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args))
        raise _Captured

    setattr(module, name, grab)
    try:
        call()
    except _Captured:
        pass
    finally:
        setattr(module, name, original)
    return seen[0]


def capture_cases() -> list[dict]:
    net, meta = constructions.build_for_rate(constructions.RateTarget(3, 5, (2,), constructions.IN_SET))
    code = coding.scheme_merged(meta["family"], meta["m"], meta["q"], 2, meta["k"])
    bound = _capture(
        analysis, "rref_mod", lambda: analysis.bound_check(net, code, "n1-with-groups", meta["m"], meta["q"])
    )
    transfer = _capture(coding, "matmul_mod", lambda: coding.verify(net, code))
    solve = _capture(
        matrix, "rref_mod",
        lambda: analysis.search(net, 6, 10, 3, analysis.Random(n=1, seed=0)),
    )
    rng = np.random.default_rng(0)
    a, b, _ = transfer
    big = (rng.integers(0, P_MAX, a.shape), rng.integers(0, P_MAX, b.shape), P_MAX)
    return [
        {"case": "bound-864", "kernel": "rref_mod", "args": bound, "expect_rank": 864},
        {"case": "search-solve", "kernel": "rref_mod", "args": solve},
        {"case": "transfer", "kernel": "matmul_mod", "args": transfer},
        {"case": "p-max", "kernel": "matmul_mod", "args": big},
    ]


def _oracle_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (a.astype(object) @ b.astype(object)) % p


def _oracle_rank(m: np.ndarray, p: int) -> int:
    rows = [[int(x) % p for x in row] for row in m.tolist()]
    rank = 0
    for c in range(m.shape[1]):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        pivot = [x * inv % p for x in rows[rank]]
        rows[rank] = pivot
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], pivot)]
        rank += 1
    return rank


def _time(fn, args: tuple, copy_first: bool) -> tuple[list[float], object]:
    """Per-call times, repeated until MIN_TIME_S has passed (at least once)."""
    times: list[float] = []
    out = None
    while not times or sum(times) < MIN_TIME_S:
        call_args = (args[0].copy(),) + args[1:] if copy_first else args
        t0 = perf_counter()
        out = fn(*call_args)
        times.append(perf_counter() - t0)
    return times, out


def run() -> dict:
    impls = [("python", _core_py)]
    try:
        from sumnets import _core

        impls.append(("compiled", _core))
    except ImportError:
        pass
    rows = []
    errors = []
    for case in capture_cases():
        kernel, args = case["kernel"], case["args"]
        first, p = args[0], args[-1]
        if kernel == "matmul_mod":
            (m, k), n = first.shape, args[1].shape[1]
            shape, dims = f"{m}x{k}@{k}x{n}", (m, k, n)
            want = _oracle_matmul(first, args[1], p)
        else:
            shape, dims = "x".join(map(str, first.shape)), first.shape
            want = case.get("expect_rank") or _oracle_rank(first, p)
        for impl_name, impl in impls:
            times, out = _time(getattr(impl, kernel), args, copy_first=kernel == "rref_mod")
            if kernel == "matmul_mod":
                ok = bool(np.array_equal(out.astype(object), want))
                ops, nbytes = tracing.matmul_cost(*dims)
            else:
                rank = int(out[0])
                ok = rank == want
                ops, nbytes = tracing.rref_cost(*dims, rank)
            if not ok:
                errors.append(f"{case['case']} ({impl_name}): result disagrees with the oracle")
            rows.append({
                "case": case["case"], "kernel": kernel, "backend": impl_name, "shape": shape,
                "p": p, "bucket": tracing.bucket(max(dims)),
                "density": np.count_nonzero(first) / first.size,
                "calls": len(times), "s": statistics.median(times), "ops": ops, "bytes": nbytes,
                "correct": ok,
            })
    return {"correct": not errors, "errors": errors, "cases": rows}
