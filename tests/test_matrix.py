import itertools

import numpy as np
import pytest

from sumnets._core_py import matmul_mod
from sumnets.galois import FieldMismatchError, PrimeField
from sumnets.matrix import Mat, rank, solve_right


def brute_rank(rows: list[list[int]], p: int) -> int:
    """Rank via the size of the row span: |span| = p^rank."""
    if not rows:
        return 0
    arr = np.array(rows, dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(p), repeat=len(rows))), dtype=np.int64)
    span = np.unique((coeffs @ arr) % p, axis=0)
    size = len(span)
    r = 0
    while p**r < size:
        r += 1
    assert p**r == size
    return r


@pytest.mark.parametrize("p", [2, 3])
def test_rank_matches_span_oracle_up_to_3x3(p):
    f = PrimeField(p)
    for nrows in range(1, 4):
        for ncols in range(1, 4):
            for flat in itertools.product(range(p), repeat=nrows * ncols):
                rows = [list(flat[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
                assert rank(Mat(f, np.array(rows))) == brute_rank(rows, p)


def test_rank_trivia():
    f = PrimeField(2)
    assert rank(Mat(f, np.zeros((4, 4), dtype=np.int64))) == 0
    assert rank(Mat.identity(f, 5)) == 5
    assert rank(Mat(f, np.array([[1, 1], [1, 1]]))) == 1


def test_mat_equality_and_hash_follow_field_shape_and_entries():
    f3, f5 = PrimeField(3), PrimeField(5)
    a = Mat(f5, np.array([[1, 2], [3, 4]]))
    assert a == Mat(f5, np.array([[6, -3], [3, 9]]))
    assert hash(a) == hash(Mat(f5, np.array([[6, -3], [3, 9]])))
    assert a != Mat(f3, np.array([[1, 2], [3, 4]]))
    assert a != Mat(f5, np.array([[1, 2, 3, 4]]))
    assert a != Mat(f5, np.array([[1, 2], [3, 0]]))
    assert a != a.a
    assert repr(a) == f"Mat({f5!r}, [[1, 2], [3, 4]])"


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_mat_requires_a_2d_array(shape):
    with pytest.raises(ValueError, match="2-d"):
        Mat(PrimeField(3), np.zeros(shape, dtype=np.int64))


def test_rank_of_empty_matrices():
    f = PrimeField(7)
    assert rank(Mat(f, np.zeros((0, 3), dtype=np.int64))) == 0
    assert rank(Mat(f, np.zeros((3, 0), dtype=np.int64))) == 0
    assert rank(Mat(f, np.zeros((0, 0), dtype=np.int64))) == 0


def test_solve_right_shape_and_field_errors():
    f2, f3 = PrimeField(2), PrimeField(3)
    with pytest.raises(ValueError, match="column mismatch"):
        solve_right(Mat.identity(f2, 2), Mat.identity(f2, 3))
    with pytest.raises(FieldMismatchError):
        solve_right(Mat.identity(f2, 2), Mat.identity(f3, 2))


def test_solve_right_identity_case():
    f = PrimeField(5)
    b = Mat(f, np.array([[1, 2, 3], [4, 0, 1]]))
    assert solve_right(Mat.identity(f, 3), b) == b


def test_solve_right_infeasible_over_gf2():
    f = PrimeField(2)
    a = Mat(f, np.array([[1, 1]]))
    b = Mat(f, np.array([[1, 0]]))
    assert solve_right(a, b) is None


def test_solve_right_free_variables_fixed_to_zero_vs_brute_force():
    f = PrimeField(3)
    a = Mat(f, np.array([[1], [2]]))
    b = Mat(f, np.array([[0]]))
    solutions = [
        (d0, d1)
        for d0 in range(3)
        for d1 in range(3)
        if (d0 * 1 + d1 * 2) % 3 == 0
    ]
    assert set(solutions) == {(0, 0), (1, 1), (2, 2)}
    d = solve_right(a, b)
    assert d is not None
    assert d.flat() == [0, 0]  # the zero member of the solution set


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_right_soundness_and_completeness_small_random(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    for _ in range(200):
        a = Mat(f, rng.integers(0, p, size=(3, 4)))
        b = Mat(f, rng.integers(0, p, size=(2, 4)))
        d = solve_right(a, b)
        if d is not None:
            assert Mat(f, matmul_mod(d.a, a.a, p)) == b
        else:
            # brute force confirms there is truly no 2x3 solution
            cands = np.array(
                list(itertools.product(range(p), repeat=6)), dtype=np.int64
            ).reshape(-1, 2, 3)
            products = np.einsum("nij,jk->nik", cands, a.a) % p
            assert not (products == b.a).all(axis=(1, 2)).any()


def test_rank_of_hstack_at_least_parts():
    f = PrimeField(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = Mat(f, rng.integers(0, 3, size=(3, 2)))
        b = Mat(f, rng.integers(0, 3, size=(3, 3)))
        assert rank(Mat(f, np.hstack([a.a, b.a]))) >= max(rank(a), rank(b))


def test_entries_canonicalized():
    f = PrimeField(3)
    m = Mat(f, np.array([[4, -1], [3, 5]]))
    assert m.a.tolist() == [[1, 2], [0, 2]]
