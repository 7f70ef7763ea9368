"""The numpy GF(p) elimination against two references.

`_core_py.rref_mod` eliminates only the rows with a nonzero in the pivot
column, from that column on.  It is checked against a Python-integer
oracle and against the dense elimination it replaced, kept verbatim
below.  The reduced row echelon form is unique, so all three must give
the same matrix, rank and pivots.  No compiled module is needed.
"""

import numpy as np
import pytest

from sumnets import _core_py

PRIMES = [2, 3, 5, 97, 2**31 - 1]
P_MAX = 2**31 - 1


def dense_rref_mod(m: np.ndarray, p: int) -> tuple[int, list[int]]:
    """The previous numpy kernel: a full outer-product update per pivot."""
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        m -= np.outer(col, m[r])
        m %= p
        pivots.append(c)
        r += 1
    return r, pivots


def oracle_rref(m: np.ndarray, p: int) -> tuple[list[list[int]], int, list[int]]:
    """Reduced row echelon form with Python integers, first-nonzero pivots."""
    rows = [[int(x) % p for x in row] for row in m.tolist()]
    width = m.shape[1]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, r, pivots


def assert_all_agree(m: np.ndarray, p: int) -> None:
    want_rows, want_rank, want_pivots = oracle_rref(m, p)
    new, old = m.copy(), m.copy()
    assert _core_py.rref_mod(new, p) == (want_rank, want_pivots)
    assert new.tolist() == want_rows
    assert dense_rref_mod(old, p) == (want_rank, want_pivots)
    assert np.array_equal(new, old)


def random_matrix(rng, shape, p: int, density: float) -> np.ndarray:
    values = rng.integers(1, p, size=shape, dtype=np.int64)
    return np.where(rng.random(shape) < density, values, 0)


@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("p", PRIMES)
def test_random_shapes_match_oracle(p, density):
    rng = np.random.default_rng([p % 1000, int(density * 100)])
    for _ in range(60):
        rows, cols = (int(x) for x in rng.integers(1, 13, size=2))
        assert_all_agree(random_matrix(rng, (rows, cols), p, density), p)


def test_sparse_gf2_300_matches_oracle():
    rng = np.random.default_rng(300)
    m = random_matrix(rng, (300, 300), 2, 0.005)
    m[np.arange(300), rng.permutation(300)] = 1  # keep the rank high
    assert_all_agree(m, 2)


@pytest.mark.parametrize("p", PRIMES)
def test_structured_matrices_match_oracle(p):
    rng = np.random.default_rng(p % 1000)
    base = random_matrix(rng, (4, 6), p, 0.6)
    cases = [
        np.zeros((5, 7), dtype=np.int64),
        np.eye(6, dtype=np.int64),
        np.vstack([base, base, base[::-1]]),
        np.hstack([np.zeros((4, 2), dtype=np.int64), base, np.zeros((4, 3), dtype=np.int64)]),
        random_matrix(rng, (12, 3), p, 0.5),
        random_matrix(rng, (3, 12), p, 0.5),
        np.zeros((1, 1), dtype=np.int64),
        np.full((1, 1), p - 1, dtype=np.int64),
    ]
    for m in cases:
        assert_all_agree(m, p)


def test_all_max_entries_at_modulus_ceiling():
    # Every product is (p-1)^2, the largest the update can form.
    for shape in [(1, 1), (2, 2), (6, 6), (5, 9), (9, 5)]:
        m = np.full(shape, P_MAX - 1, dtype=np.int64)
        assert_all_agree(m, P_MAX)
    rng = np.random.default_rng(31)
    m = rng.integers(P_MAX - 3, P_MAX, size=(10, 10), dtype=np.int64)
    assert_all_agree(m, P_MAX)
