"""Pure-Python (numpy) kernels for GF(p) dense linear algebra.

Fallback used when the compiled extension `sumnets._core` is unavailable.
Both implementations expose the same two entry points and must agree
bit-for-bit.  `tests/test_kernels.py` checks this module against a
Python-integer oracle and against the dense elimination it replaced, so
it runs without the compiled module; `tests/test_backends.py` compares
the two backends when both are importable.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


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
