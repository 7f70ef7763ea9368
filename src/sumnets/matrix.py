"""Dense matrices over a prime field.

Every encoding map, decoding map and transfer map in this package is a
Mat.  Elimination uses first-nonzero pivoting in deterministic column
order (there is no magnitude to pivot on over GF(p)), so ranks and
solved decoders are reproducible across runs and backends.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ._core_py import matmul_mod, rref_mod
from .galois import FieldMismatchError, PrimeField


class Mat:
    """A rows x cols matrix with canonical entries in GF(p).

    Treated as immutable after construction; operations return new
    matrices.
    """

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, array: np.ndarray):
        a = np.ascontiguousarray(array, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("Mat requires a 2-d array")
        self.field = field
        self.a = a % field.p

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Iterable[Iterable]) -> "Mat":
        data = [[int(e) for e in row] for row in rows]
        if not data:
            return cls(field, np.zeros((0, 0), dtype=np.int64))
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        return cls(field, np.array(data, dtype=np.int64).reshape(len(data), width))

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Mat":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Mat":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def to_rows(self) -> list[list[int]]:
        return self.a.tolist()

    def flat(self) -> list[int]:
        return self.a.reshape(-1).tolist()

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.a.shape == self.a.shape
            and bool(np.array_equal(other.a, self.a))
        )

    def __hash__(self):
        return hash((self.field.p, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Mat({self.field!r}, {self.a.tolist()!r})"

    def __matmul__(self, other: "Mat") -> "Mat":
        return matmul(self, other)

    def __add__(self, other: "Mat") -> "Mat":
        _same_field(self, other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return Mat(self.field, (self.a + other.a) % self.field.p)

    def __sub__(self, other: "Mat") -> "Mat":
        _same_field(self, other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return Mat(self.field, (self.a - other.a) % self.field.p)

    def scale(self, c: int) -> "Mat":
        return Mat(self.field, (self.a * (c % self.field.p)) % self.field.p)

    def transpose(self) -> "Mat":
        return Mat(self.field, self.a.T.copy())


def _same_field(a: Mat, b: Mat) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field!r} vs {b.field!r}")


def matmul(a: Mat, b: Mat) -> Mat:
    _same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    return Mat(a.field, matmul_mod(a.a, b.a, a.field.p))


def rank(a: Mat) -> int:
    work = a.a.copy()
    r, _ = rref_mod(work, a.field.p)
    return r


def solve_right(a: Mat, b: Mat) -> Optional[Mat]:
    """Any D with D @ a == b, or None when the system is infeasible.

    Solved as the transposed system a.T x = b.T, column by column.  Free
    variables are fixed to 0 so the returned decoder is deterministic.
    """
    _same_field(a, b)
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.shape} vs {b.shape}")
    p = a.field.p
    nvars = a.rows
    nrhs = b.rows
    # hstack of transposes comes out Fortran-ordered; on the search's 168x102
    # system, elimination in C order is ~6% faster (numpy 2.4, 2-vCPU x86-64).
    aug = np.ascontiguousarray(np.hstack([a.a.T, b.a.T]))
    _, pivots = rref_mod(aug, p)
    if any(c >= nvars for c in pivots):
        return None
    out = np.zeros((nrhs, nvars), dtype=np.int64)
    for row, c in enumerate(pivots):
        out[:, c] = aug[row, nvars:]
    return Mat(a.field, out)


def hstack(*mats: Mat) -> Mat:
    first = mats[0]
    for m in mats[1:]:
        _same_field(first, m)
        if m.rows != first.rows:
            raise ValueError(f"row mismatch: {first.shape} vs {m.shape}")
    return Mat(first.field, np.hstack([m.a for m in mats]))


def vstack(*mats: Mat) -> Mat:
    first = mats[0]
    for m in mats[1:]:
        _same_field(first, m)
        if m.cols != first.cols:
            raise ValueError(f"column mismatch: {first.shape} vs {m.shape}")
    return Mat(first.field, np.vstack([m.a for m in mats]))
