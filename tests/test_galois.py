"""GF(p) itself: the validated modulus, and scalar arithmetic.

The package has no element type; a scalar is a 1x1 Mat, so the field
laws are checked on those: sums reduced by the Mat constructor, products
from matmul_mod and inverses from solve_right.
"""

import numpy as np
import pytest

from sumnets._core_py import matmul_mod
from sumnets.galois import MAX_MODULUS, FieldMismatchError, PrimeField, is_prime
from sumnets.matrix import Mat, solve_right


def el(f, v):
    return Mat(f, np.array([[v]]))


def add(a, b):
    return Mat(a.field, a.a + b.a)


def mul(a, b):
    return Mat(a.field, matmul_mod(a.a, b.a, a.field.p))


def inverse(a):
    return solve_right(a, el(a.field, 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_field_axioms_exhaustive(p):
    f = PrimeField(p)
    els = [el(f, v) for v in range(p)]
    zero, one = el(f, 0), el(f, 1)
    for a in els:
        assert add(a, zero) == a
        assert mul(a, one) == a
        assert mul(a, zero) == zero
        assert add(a, Mat(f, -a.a)) == zero
        if a != zero:
            assert mul(a, inverse(a)) == one
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in els:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduce_is_zero_exactly_when_p_divides(p):
    f = PrimeField(p)
    for n in range(-3 * p, 3 * p + 1):
        assert (not el(f, n).a.any()) == (n % p == 0)


def test_reduce_examples():
    assert el(PrimeField(2), 2).flat() == [0]
    assert el(PrimeField(3), 2).flat() == [2]
    assert el(PrimeField(5), -1).flat() == [4]


def test_arithmetic_examples():
    f5 = PrimeField(5)
    assert add(el(f5, 3), el(f5, 4)).flat() == [2]
    assert mul(el(f5, 3), el(f5, 4)).flat() == [2]
    assert inverse(el(f5, 3)).flat() == [2]
    f2 = PrimeField(2)
    assert add(el(f2, 1), el(f2, 1)).flat() == [0]
    f3 = PrimeField(3)
    assert mul(el(f3, 2), el(f3, 2)).flat() == [1]
    assert inverse(el(f3, 2)).flat() == [2]
    f7 = PrimeField(7)
    assert inverse(el(f7, 1)) == el(f7, 1)


def test_inverse_of_zero_rejected():
    assert inverse(el(PrimeField(5), 0)) is None


def test_mismatched_fields_rejected():
    a = el(PrimeField(3), 1)
    b = el(PrimeField(5), 1)
    with pytest.raises(FieldMismatchError):
        solve_right(a, b)
    with pytest.raises(FieldMismatchError):
        solve_right(b, a)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 100])
def test_non_prime_moduli_rejected(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_modulus_ceiling():
    # 2147483659 is the first prime above the 2^31 ceiling.
    assert MAX_MODULUS + 11 == 2147483659
    with pytest.raises(ValueError):
        PrimeField(2147483659)
    with pytest.raises(ValueError, match="ceiling"):
        PrimeField(2**61 - 1)  # prime: checked against the ceiling before trial division


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)
