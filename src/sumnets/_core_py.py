"""The numpy kernels for GF(p) dense linear algebra.

The package's only implementation of its exact entry points: the
product `matmul_mod`, the elimination `rref_mod`, on which the rank
certificates, the decoder solves and the transfer products rest, and
the batched feasibility test `solvable_mod` that screens search
candidates.  `rref_mod` reduces every updated block after its pivot;
`solvable_mod` defers reduction while its dtype holds the unreduced
entries.  `tests/test_kernels.py` checks all three against
Python-integer oracles, `rref_mod` also against the dense elimination
it replaced, and `solvable_mod` also against per-matrix `solve_right`.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, reported with benchmark runs."""
    return "python"


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product of two int64 matrices with entries reduced mod p.

    Partial sums are reduced often enough that no intermediate exceeds
    the int64 range even at the modulus ceiling.
    """
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    # Largest run of products that cannot overflow a signed 64-bit sum.
    chunk = max(1, (2**63 - 1) // max(1, (p - 1) * (p - 1)))
    if inner <= chunk:
        return (a @ b) % p
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, inner, chunk):
        hi = min(lo + chunk, inner)
        acc = (acc + a[:, lo:hi] @ b[lo:hi, :]) % p
    return acc


def _deferred_dtype(rows: int, cols: int, p: int):
    """Narrowest of int16, int32 and int64 that holds every entry an
    elimination of a rows x cols matrix can reach while it defers
    reduction: a residue in [0, p) changed at most min(rows, cols) times,
    by up to (p-1)^2 each.  None when even int64 does not hold it, and
    reduction may not be deferred."""
    bound = p + min(rows, cols) * (p - 1) ** 2
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return None


def rref_mod(m: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Reduced row echelon form in place, over GF(p).

    Pivots are the first nonzero entry per column in deterministic
    column order.  Returns (rank, pivot column list).

    Entries must be canonical, in [0, p).  At each pivot only the rows
    with a nonzero in the pivot column change, and only from that column
    on: the rows from the current rank down are zero left of it, and
    every other row has a zero factor.  No intermediate overflows int64
    up to p = 2^31 - 1: each product is at most (p-1)^2 < 2^62 and is
    subtracted from an entry in [0, p).
    """
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[:, c].nonzero()[0]
        k = int(nz.searchsorted(r))
        if k == nz.size:
            continue
        i = int(nz[k])
        if i != r:
            row = m[r, c:].copy()
            m[r, c:] = m[i, c:]
            m[i, c:] = row
        pivot = m[r, c:]
        inv = pow(int(pivot[0]), -1, p)
        if inv != 1:
            pivot *= inv
            pivot %= p
        # After the swap the nonzeros of column c are nz with i replaced
        # by r; moving nz[0] into slot k leaves exactly the other rows.
        nz[k] = nz[0]
        hit = nz[1:]
        if hit.size:
            block = m[hit, c:]
            block -= block[:, :1] * pivot
            block %= p
            m[hit, c:] = block
        pivots.append(c)
        r += 1
    return r, pivots


def solvable_mod(x: np.ndarray, m: int, p: int) -> np.ndarray:
    """Per member [A; B] of the stack x, shape (b, m + k, n), whether
    D A = B is solvable over GF(p): whether every one of its last k rows
    lies in the row space of its first m.  Returns a bool array of
    length b; x is not modified.

    Entries must be canonical, in [0, p).  All members are eliminated in
    lockstep by column operations, forward only and without swaps.  At
    row c each member's pivot is its first unsettled column (not yet a
    pivot column) with a nonzero residue in row c; the pivot column is
    reduced and scaled from row c down, and one broadcast update over
    rows c on, contiguous in this layout, clears row c from every other
    unsettled column.  The factors are zero on settled columns and on
    members with no pivot in row c.  A member is solvable iff none of
    its unsettled columns keeps a nonzero residue in the last k rows.

    Reduction is deferred, as in FFLAS-FFPACK: rows and pivot columns are
    read as residues, and each entry changes at most once per pivot by
    at most (p-1)^2, so the stack is eliminated in `_deferred_dtype`
    (int16 for GF(3) on the search's systems).  When int64 does not hold
    the bound, the updated block is reduced after every pivot.  Pivot
    inverses are exact up to p = 2^31 - 1.
    """
    members, _, cols = x.shape
    dtype = _deferred_dtype(cols, m, p)
    w = x.astype(dtype or np.int64, order="C")
    every = np.arange(members)
    unsettled = np.ones((members, cols), dtype=bool)
    for c in range(m):
        row = w[:, c] % p
        row *= unsettled
        hit = row != 0
        has = hit.any(axis=1)
        if not has.any():
            continue
        piv = hit.argmax(axis=1)
        inv = [pow(int(v), -1, p) if v else 0 for v in row[every, piv]]
        col = w[every, c:, piv] % p
        col *= np.array(inv, dtype=w.dtype)[:, None]
        col %= p
        unsettled[every[has], piv[has]] = False
        row[every, piv] = 0
        block = w[:, c:]
        block -= col[:, :, None] * row[:, None, :]
        if dtype is None:
            block %= p
    left = (w[:, m:] % p != 0).any(axis=1)
    return ~(left & unsettled).any(axis=1)
