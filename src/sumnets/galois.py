"""Exact arithmetic in prime fields GF(p).

Every symbol, matrix entry and decoding coefficient in this package lives
in some GF(p).  Prime fields are all that is needed here: every statement
this package checks depends only on the field characteristic, so GF(p)
realizes the same behaviour as any GF(p^a).
"""

from __future__ import annotations

#: Largest accepted modulus.  Keeps single products of canonical residues
#: inside signed 64-bit arithmetic in the matrix kernels.
MAX_MODULUS = 2**31


def is_prime(n: int) -> bool:
    """Primality by trial division (moduli are small by construction)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldMismatchError(ValueError):
    """Operands belong to different prime fields."""


class PrimeField:
    """The prime field GF(p), as a validated modulus.

    Element arithmetic lives in the matrix kernels; an instance only
    carries p.  Instances are immutable and compare equal by modulus, so
    a field can be shared freely across threads.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        # The ceiling comes first: trial division takes minutes on a prime near 2^61.
        if isinstance(p, int) and p > MAX_MODULUS:
            raise ValueError(f"modulus p={p} exceeds the supported ceiling {MAX_MODULUS}")
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus p must be prime, got {p!r}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"
