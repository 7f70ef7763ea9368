"""The numpy GF(p) kernels against Python-integer references.

`_core_py.matmul_mod` sums products in chunks short enough that no
partial sum overflows int64, and is checked against the product of
Python integers.  `_core_py.rref_mod` eliminates only the rows with a
nonzero in the pivot column, from that column on, and reduces each
updated block mod p.  It is checked against a Python-integer oracle and
against the dense elimination it replaced, kept verbatim below.  The
reduced row echelon form is unique, so all three must give the same
matrix, rank and pivots.
`_core_py.solvable_mod`, the batched feasibility screen of `search`, is
checked per member against the Python-integer elimination and against
`solve_right`, the per-candidate solve it replaced there.
"""

import numpy as np
import pytest

import sumnets
from sumnets import _core_py, analysis, constructions
from sumnets.coding import layer_shape
from sumnets.galois import PrimeField
from sumnets.matrix import Mat, solve_right

PRIMES = [2, 3, 5, 97, 2**31 - 1]
P_MAX = 2**31 - 1


def test_backend_name_is_python():
    assert sumnets.backend_name() == "python"


# --- matmul_mod -----------------------------------------------------------------


def assert_matmul_matches_oracle(a: np.ndarray, b: np.ndarray, p: int) -> None:
    want = (a.astype(object) @ b.astype(object)) % p
    got = _core_py.matmul_mod(a, b, p)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_random_shapes_match_oracle(p):
    # At p = 2^31 - 1 at most two products fit in an int64 sum, so every
    # inner dimension from 3 on runs the chunked loop.
    rng = np.random.default_rng([p % 1000, 11])
    for _ in range(60):
        rows, inner, cols = (int(x) for x in rng.integers(1, 13, size=3))
        a = rng.integers(0, p, size=(rows, inner), dtype=np.int64)
        b = rng.integers(0, p, size=(inner, cols), dtype=np.int64)
        assert_matmul_matches_oracle(a, b, p)
        assert_matmul_matches_oracle(np.full_like(a, p - 1), np.full_like(b, p - 1), p)


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_empty_inner_dimension_is_zero(p):
    for rows, cols in [(1, 1), (3, 5), (12, 1)]:
        a = np.zeros((rows, 0), dtype=np.int64)
        b = np.zeros((0, cols), dtype=np.int64)
        assert_matmul_matches_oracle(a, b, p)


def test_matmul_large_modulus_no_overflow():
    p = P_MAX  # largest prime below the modulus ceiling
    a = np.full((4, 64), p - 1, dtype=np.int64)
    b = np.full((64, 4), p - 1, dtype=np.int64)
    expected = (64 * 1) % p  # (p-1)^2 = 1 mod p, summed over the inner dim
    assert (_core_py.matmul_mod(a, b, p) == expected).all()


# --- rref_mod -------------------------------------------------------------------


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
    new = m.copy()
    assert _core_py.rref_mod(new, p) == (want_rank, want_pivots)
    assert new.tolist() == want_rows
    assert ((new >= 0) & (new < p)).all()
    old = m.copy()
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


# --- large systems and the int64 edge -------------------------------------------

P30 = 1073741789  # the largest prime below 2^30


@pytest.mark.parametrize(
    "shape, p, density",
    [
        ((168, 102), 3, 0.25),
        ((168, 102), 3, 0.66),
        ((168, 102), 3, 1.0),
        ((80, 120), 97, 0.66),
        ((120, 80), 5, 0.66),
    ],
)
def test_dense_solve_shapes_match_oracle(shape, p, density):
    # Decoder-solve sized systems, dense enough that most pivots update
    # many rows.
    rng = np.random.default_rng([shape[0], p, int(density * 100)])
    assert_all_agree(random_matrix(rng, shape, p, density), p)


@pytest.mark.parametrize(
    "rows, p, allowed",
    [(8, P30, True), (9, P30, False), (2, P_MAX, True), (3, P_MAX, False)],
)
def test_deferral_stops_at_the_int64_edge(rows, p, allowed):
    # Deferred, each entry changes at most min(rows, cols) times, by up to
    # (p-1)^2; reduced per pivot, no intermediate exceeds (p-1)^2 in size.
    assert (_core_py._deferred_dtype(rows, 2000, p) is not None) is allowed
    assert (_core_py._deferred_dtype(2000, rows, p) is not None) is allowed
    rng = np.random.default_rng([rows, p % 1000])
    wide = [
        np.full((rows, 2000), p - 1, dtype=np.int64),
        rng.integers(0, p, size=(rows, 2000), dtype=np.int64),
        rng.integers(p - 3, p, size=(rows, 2000), dtype=np.int64),
    ]
    for m in wide:
        assert_all_agree(m, p)


# --- solvable_mod ---------------------------------------------------------------

SOLVE_PRIMES = [2, 3, 127, 32749, P_MAX]


def assert_solvable_matches(x: np.ndarray, m: int, p: int) -> None:
    """Each member [A; B] against the oracle on [A^T | B^T] (no pivot
    right of column m) and against solve_right on D A = B."""
    before = x.copy()
    got = _core_py.solvable_mod(x, m, p)
    assert np.array_equal(x, before)
    assert got.dtype == bool and got.shape == (x.shape[0],)
    field = PrimeField(p)
    for member, ok in zip(x, got):
        _, _, pivots = oracle_rref(member.T, p)
        assert bool(ok) is all(c < m for c in pivots)
        if m:
            solved = solve_right(Mat(field, member[:m]), Mat(field, member[m:]))
            assert bool(ok) is (solved is not None)


def spanned_stack(rng, members: int, cols: int, m: int, k: int, p: int, rank: int) -> np.ndarray:
    """Members whose first m rows have rank at most `rank`; the last k
    rows of even members lie in their span, odd members' are random."""
    x = np.zeros((members, m + k, cols), dtype=np.int64)
    for b in range(members):
        basis = rng.integers(0, p, size=(rank, cols), dtype=np.int64)
        a = rng.integers(0, p, size=(m, rank)).astype(object) @ basis.astype(object) % p
        if b % 2 == 0:
            rhs = rng.integers(0, p, size=(k, m)).astype(object) @ a % p
        else:
            rhs = rng.integers(0, p, size=(k, cols)).astype(object)
        x[b] = np.vstack([a, rhs]).astype(np.int64)
    return x


@pytest.mark.parametrize(
    "cols, m, p, dtype",
    [
        (168, 90, 3, np.int16),  # the search's GF(3) system on the rate-3/5 network
        (4, 4, 2, np.int16),
        (2, 9, 127, np.int16),
        (3, 9, 127, np.int32),
        (9, 2, 32749, np.int32),
        (9, 3, 32749, np.int64),
        (9, 2, P_MAX, np.int64),
        (9, 3, P_MAX, None),
    ],
)
def test_solvable_mod_dtype_holds_every_unreduced_entry(cols, m, p, dtype):
    # Entries change at most min(cols, m) times, by up to (p-1)^2 each.
    assert _core_py._deferred_dtype(cols, m, p) is dtype
    rng = np.random.default_rng([cols, m, p % 1000])
    for fill in (rng.integers(0, p, size=(3, m + 2, cols)), np.full((2, m + 2, cols), p - 1)):
        assert_solvable_matches(fill.astype(np.int64), m, p)


@pytest.mark.parametrize("p", SOLVE_PRIMES)
def test_solvable_mod_random_stacks_match_oracle_and_solve_right(p):
    rng = np.random.default_rng([p % 1000, 17])
    for _ in range(25):
        members, cols, m, k = (int(v) for v in rng.integers(1, 8, size=4))
        rank = int(rng.integers(0, min(cols, m) + 1))
        assert_solvable_matches(spanned_stack(rng, members, cols, m, k, p, rank), m, p)
        assert_solvable_matches(rng.integers(0, p, size=(members, m + k, cols)), m, p)


@pytest.mark.parametrize("p", SOLVE_PRIMES)
def test_solvable_mod_rank_deficient_members(p):
    rng = np.random.default_rng([p % 1000, 23])
    cols, m, k = 6, 5, 2
    base = rng.integers(0, p, size=(m + k, cols), dtype=np.int64)
    zero_rows = base.copy()
    zero_rows[[0, 2]] = 0
    zero_a = base.copy()
    zero_a[:m] = 0
    repeated = np.hstack([base[:, :3], base[:, :3]])
    in_span = base.copy()
    in_span[m:] = (base[:1] * 2 + base[1:3]) % p
    cases = [zero_rows, zero_a, repeated, np.zeros((m + k, cols), dtype=np.int64), in_span]
    for member in cases:
        assert_solvable_matches(member[None], m, p)  # B = 1
    # One batch whose members reach different ranks.
    assert_solvable_matches(np.stack(cases + [base]), m, p)


def test_solvable_mod_without_coefficient_rows_asks_for_a_zero_right_side():
    x = np.zeros((3, 2, 4), dtype=np.int64)
    x[1, 1, 2] = 1
    assert _core_py.solvable_mod(x, 0, 5).tolist() == [True, False, True]


def test_solvable_mod_on_the_search_system_of_the_rate_three_fifths_network(monkeypatch):
    # The stacks that search screens for one GF(3) candidate on the rate-3/5
    # merge: the first terminal's 36 x 54 block, which rejects it, and
    # the 96 x 168 system the block is cut from.
    target = constructions.RateTarget(3, 5, (2,), constructions.IN_SET)
    net, _ = constructions.build_for_rate(target)
    seen = []

    def record(x, m, p):
        seen.append((x.copy(), m, p))
        return _core_py.solvable_mod(x, m, p)

    monkeypatch.setattr(analysis, "solvable_mod", record)
    result = analysis.search(net, 6, 10, 3, analysis.Random(n=1, seed=0))
    assert (result.found, result.rejected_at) == ([], {net.terminals[0]: 1})
    [(x, m, p)] = seen
    assert x.shape == (1, m + 6, 54) and m == 30
    systems = analysis._DecoderSystems(net, layer_shape(net), 6, 10)
    gather, rhs, _, _ = systems.of(0)
    rows, cols = systems.block(0)
    # The same draws as the candidate of Random(n=1, seed=0).
    cells = np.random.default_rng(0).integers(0, 3, size=systems.starts[-1], dtype=np.int64)
    cells = np.append(cells, 0)  # the zero cell that gathers read
    full = np.vstack([cells[gather], rhs])[None]
    stacked = np.concatenate([rows, len(gather) + np.arange(6)])  # the block's rows, then B's
    assert np.array_equal(x[0], full[0][np.ix_(stacked, cols)])
    assert full.shape == (1, 96, 168)
    assert_solvable_matches(x, m, p)
    assert_solvable_matches(full, len(gather), p)
