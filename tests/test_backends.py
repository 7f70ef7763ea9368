"""The compiled kernels and the numpy fallback must agree exactly."""

import itertools

import numpy as np
import pytest

from sumnets import _core_py

try:
    from sumnets import _core
except ImportError:
    _core = None

needs_compiled = pytest.mark.skipif(_core is None, reason="compiled kernels unavailable")


@needs_compiled
@pytest.mark.parametrize("p", [2, 3, 5, 97, 2147483647])
def test_matmul_agrees(p):
    rng = np.random.default_rng(p % 1000)
    for shape in [(1, 1, 1), (3, 4, 5), (16, 16, 16), (7, 1, 9)]:
        a = rng.integers(0, p, size=shape[:2], dtype=np.int64)
        b = rng.integers(0, p, size=shape[1:], dtype=np.int64)
        assert np.array_equal(_core.matmul_mod(a, b, p), _core_py.matmul_mod(a, b, p))


@needs_compiled
@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_rref_agrees(p):
    rng = np.random.default_rng(p)
    small = (rng.integers(1, 9, size=2) for _ in range(100))
    # Then a search candidate's solve size, large enough to defer reduction.
    for rows, cols in itertools.chain(small, [(168, 102)]):
        m = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        m1, m2 = m.copy(), m.copy()
        r1 = _core.rref_mod(m1, p)
        r2 = _core_py.rref_mod(m2, p)
        assert r1 == r2
        assert np.array_equal(m1, m2)


def test_matmul_large_modulus_no_overflow():
    p = 2147483647  # largest prime below the modulus ceiling
    a = np.full((4, 64), p - 1, dtype=np.int64)
    b = np.full((64, 4), p - 1, dtype=np.int64)
    expected = (64 * 1) % p  # (p-1)^2 = 1 mod p, summed over the inner dim
    for impl in filter(None, [_core, _core_py]):
        out = impl.matmul_mod(a, b, p)
        assert (out == expected).all()


def test_backend_name_reports_selection():
    from sumnets.kernels import backend_name

    assert backend_name() in ("cython", "python")
