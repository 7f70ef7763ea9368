"""Acceptance suite: one test per headline behaviour, each printing a
single pass/fail line (visible with pytest -s).

The headline behaviour under test: the two network families admit their
capacity-achieving rate exactly on opposite sides of a characteristic
condition (p | q vs p coprime to q), rates scale by k under the k-copy merge,
and every verified code carries a rank-counting certificate for its bound.
"""

import itertools
import time
from fractions import Fraction

import pytest

from sumnets.analysis import (
    Exhaustive,
    Random,
    bound_check,
    capacity,
    composites_from_code,
    routing_code,
    search,
    wrong_char_bound,
)
from sumnets.coding import (
    CharacteristicError,
    UnverifiedCodeError,
    _family_scheme,
    scheme,
    scheme_merged,
    unroll_merged,
    verify,
)
from sumnets.constructions import (
    IN_SET,
    RateTarget,
    build_bottleneck2,
    build_for_rate,
    build_n1,
    build_n2,
    n1_counts,
    n2_counts,
)
from sumnets.galois import PrimeField
from sumnets.matrix import Mat
from sumnets.network import deserialize, serialize
from rebuild import rebuilt

GRID = list(itertools.product([1, 2, 3], [2, 3, 6]))
PRIMES = [2, 3, 5]

_cache = {}


def merged_three_fifths():
    """The (6,10) code on the rate-3/5 merged network, cached across tests."""
    if "merged" not in _cache:
        net, meta = build_for_rate(RateTarget(3, 5, (2,), IN_SET))
        assert (meta["m"], meta["q"], meta["k"]) == (9, 2, 3)
        code = scheme_merged("n1", 9, 2, 2, 3)
        assert serialize(code.net) == serialize(net)
        _cache["merged"] = code
    return _cache["merged"]


def check(name, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" < {budget}s" if budget is not None else "")
    print(f"[{status}] {name} ({timing})")
    assert ok, name
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.2f}s over the {budget}s budget"


def test_characteristic_grid_family_one():
    started = time.monotonic()
    ok = True
    for (m, q), p in itertools.product(GRID, PRIMES):
        if q % p == 0:
            code = scheme(build_n1(m, q), "n1", m, q, p)
            ok &= verify(code.net, code).ok
        else:
            with pytest.raises(CharacteristicError):
                scheme(build_n1(m, q), "n1", m, q, p)
            bad = _family_scheme(build_n1(m, q), PrimeField(p), m)  # the refused matrices
            ok &= not verify(bad.net, bad).ok
    check(
        "family one: rate-2/(m+1) scheme exists and verifies iff p divides q (27 cells)",
        ok,
        time.monotonic() - started,
        budget=10,
    )


def test_characteristic_grid_family_two():
    started = time.monotonic()
    ok = True
    for (m, q), p in itertools.product(GRID, PRIMES):
        if q % p != 0:
            code = scheme(build_n2(m, q), "n2", m, q, p)
            ok &= verify(code.net, code).ok
        else:
            with pytest.raises(CharacteristicError):
                scheme(build_n2(m, q), "n2", m, q, p)
    check(
        "family two: rate-2/(m+1) scheme exists and verifies iff p does not divide q (27 cells)",
        ok,
        time.monotonic() - started,
        budget=10,
    )


def test_rate_three_fifths_target():
    started = time.monotonic()
    code = merged_three_fifths()
    ok = (code.r, code.l) == (6, 10)
    ok &= verify(code.net, code).ok
    with pytest.raises(CharacteristicError):
        scheme_merged("n1", 9, 2, 3, 3)
    result = search(code.net, 6, 10, 3, Random(n=1000, seed=7))
    ok &= result.tried == 1000 and len(result.found) == 0
    # One entry of t_1's first decoder flipped, in a code rebuilt from the mappings.
    t1 = code.net.terminals[0]
    bad = code.dec_mats[t1][0].a.copy()
    bad[0, 0] ^= 1
    flipped = rebuilt(code, dec_mats={t1: (Mat(code.field, bad), *code.dec_mats[t1][1:])})
    report = verify(flipped.net, flipped)
    ok &= not report.ok and report.first_failed == t1 == "t_1"
    with pytest.raises(UnverifiedCodeError):
        bound_check(flipped.net, flipped, "n1-with-groups", 9, 2)
    with pytest.raises(UnverifiedCodeError):
        unroll_merged(flipped, 3, build_n1(9, 2))
    check(
        "rate 3/5 target: merged (6,10) code verifies over GF(2), and fails at t_1 with one "
        "decoder entry flipped; over GF(3) the scheme is refused and 1000 random composites "
        "yield nothing",
        ok,
        time.monotonic() - started,
        budget=60,
    )


def test_block_length_unrolling():
    started = time.monotonic()
    merged = merged_three_fifths()
    base = build_n1(9, 2)
    unrolled = unroll_merged(merged, 3, base)
    ok = (unrolled.r, unrolled.l) == (6, 30)
    ok &= verify(base, unrolled).ok
    _cache["unrolled"] = unrolled
    check(
        "unrolling the verified (6,10) merged code gives a verifying (6,30) code "
        "on the base network",
        ok,
        time.monotonic() - started,
    )


def test_bound_certificates_for_every_verified_code():
    started = time.monotonic()
    suite = []
    for (m, q), p in itertools.product(GRID, PRIMES):
        if q % p == 0:
            suite.append((scheme(build_n1(m, q), "n1", m, q, p), "n1-with-groups", m, q))
        else:
            suite.append((scheme(build_n2(m, q), "n2", m, q, p), "n2-middle-only", m, q))
    for p in (2, 3):
        net1 = build_n1(2, 2)
        suite.append((routing_code(net1, p), "n1-middle-only", 2, 2))
        net2 = build_n2(2, 2)
        mode = "n2-redundancy" if 2 % p == 0 else "n2-middle-only"
        suite.append((routing_code(net2, p), mode, 2, 2))
    suite.append((merged_three_fifths(), "n1-with-groups", 9, 2))
    unrolled = _cache.get("unrolled")
    if unrolled is not None:
        suite.append((unrolled, "n1-with-groups", 9, 2))

    ok = True
    for code, mode, m, q in suite:
        report = bound_check(code.net, code, mode, m, q)
        ok &= report.consistent  # full-rank recovery, never a deficit
        ok &= Fraction(code.r, code.l) <= report.implied
        ok &= report.ok
    ok &= wrong_char_bound(2, 2) == Fraction(6, 11)
    for m in (1, 2, 3, 9):
        ok &= capacity("n1", m, 2, 1) == Fraction(2, m + 1)
        ok &= wrong_char_bound(m, 2) == Fraction(2 * 3, (m + 1) * 3 + 2)
    check(
        f"rank certificates hold for all {len(suite)} verified codes in the suite; "
        "closed forms reproduced exactly",
        ok,
        time.monotonic() - started,
    )


def test_search_matches_independent_oracle():
    started = time.monotonic()
    net = build_bottleneck2()

    def oracle(p):
        winners = set()
        for a, b, e, f, g1, g2, d1, d2 in itertools.product(range(p), repeat=8):
            c1, c2 = (e * a) % p, (f * b) % p
            if (
                (d1 * g1 * c1) % p == 1
                and (d1 * g1 * c2) % p == 1
                and (d2 * g2 * c1) % p == 1
                and (d2 * g2 * c2) % p == 1
            ):
                winners.add((c1, c2))
        return winners

    ok = True
    for p, expected in ((2, 1), (3, 2)):
        result = search(net, 1, 1, p, Exhaustive())
        found = {
            tuple(composites_from_code(net, c).mats[net.middle_edges()[0]].flat())
            for c in result.found
        }
        ok &= len(result.found) == expected
        ok &= found == oracle(p)
    check(
        "exhaustive search counts match the full encoder+decoder brute force "
        "(1 solution over GF(2), 2 over GF(3))",
        ok,
        time.monotonic() - started,
        budget=1,
    )


def test_wrong_characteristic_bound_strictly_below_capacity():
    started = time.monotonic()
    ok = all(
        wrong_char_bound(m, q) < Fraction(2, m + 1)
        for m in range(1, 11)
        for q in range(2, 31)
    )
    check(
        "wrong-characteristic bound < 2/(m+1) for all m in 1..10, q in 2..30 "
        "(exact rationals)",
        ok,
        time.monotonic() - started,
    )


def test_structural_counts_and_byte_stable_serialization():
    started = time.monotonic()
    ok = True
    for m, q in GRID:
        for build, counts in ((build_n1, n1_counts), (build_n2, n2_counts)):
            net = build(m, q)
            want = counts(m, q)
            ok &= len(net.sources) == want["sources"]
            ok &= len(net.terminals) == want["terminals"]
            ok &= len(net.intermediates) == want["intermediates"]
            ok &= len(net.middle_edges()) == want["middle_edges"]
            data = serialize(net)
            ok &= deserialize(data) == net
            ok &= serialize(deserialize(data)) == data
    check(
        "node/edge inventories match the closed-form counts on the full grid; "
        "serialization round-trips byte-identically",
        ok,
        time.monotonic() - started,
    )
