"""Dense matrices over a prime field.

Every encoding map, decoding map and transfer map in this package is a
Mat.  Elimination uses first-nonzero pivoting in deterministic column
order (there is no magnitude to pivot on over GF(p)), so ranks and
solved decoders are reproducible across runs and backends.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._core_py import rref_mod
from .galois import FieldMismatchError, PrimeField


class Mat:
    """A rows x cols matrix with canonical entries in GF(p).

    Immutable after construction: its array is read-only and its
    attributes are set once, so one Mat may serve many slots of a code.
    """

    __slots__ = ("field", "a")

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"Mat.{name} is read-only")
        object.__setattr__(self, name, value)

    def __init__(self, field: PrimeField, array: np.ndarray):
        a = np.ascontiguousarray(array, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("Mat requires a 2-d array")
        self.field = field
        self.a = a % field.p
        self.a.flags.writeable = False

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Mat":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def flat(self) -> list[int]:
        return self.a.reshape(-1).tolist()

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


def rank(a: Mat) -> int:
    work = a.a.copy()
    r, _ = rref_mod(work, a.field.p)
    return r


def solve_right(a: Mat, b: Mat) -> Optional[Mat]:
    """Any D with D @ a == b, or None when the system is infeasible.

    Solved as the transposed system a.T x = b.T, column by column.  Free
    variables are fixed to 0 so the returned decoder is deterministic.
    """
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field!r} vs {b.field!r}")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: {a.shape} vs {b.shape}")
    p = a.field.p
    nvars, nrhs = a.shape[0], b.shape[0]
    aug = np.hstack([a.a.T, b.a.T])
    _, pivots = rref_mod(aug, p)
    if any(c >= nvars for c in pivots):
        return None
    out = np.zeros((nrhs, nvars), dtype=np.int64)
    for row, c in enumerate(pivots):
        out[:, c] = aug[row, nvars:]
    return Mat(a.field, out)
