import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from sumnets.analysis import routing_code
from sumnets.coding import (
    CharacteristicError,
    CodeFormatError,
    FracLinCode,
    UnsupportedNetworkError,
    UnverifiedCodeError,
    _family_scheme,
    code_from_json,
    code_to_json,
    layer_shape,
    scheme,
    scheme_merged,
    transfer,
    unroll_merged,
    verify,
)
from sumnets import constructions
from sumnets.constructions import build_bottleneck2, build_n1, build_n2, k_copy_merge
from sumnets.galois import PrimeField
from sumnets.matrix import Mat
from sumnets.network import (
    INTERMEDIATE,
    SOURCE,
    TERMINAL,
    Edge,
    NetworkFormatError,
    Node,
    SumNetwork,
    deserialize,
    serialize,
)
from rebuild import rebuilt

GRID = list(itertools.product([1, 2, 3], [2, 3, 6]))
PRIMES = [2, 3, 5]


def single_edge_net():
    return SumNetwork([Node("s", SOURCE), Node("t", TERMINAL)], [Edge("s", "t")])


def scalar_code(net, p, src=1, dec=1):
    f = PrimeField(p)
    src_mats, in_mats = {}, {}
    for i, e in enumerate(net.edges):
        if net.role(e.tail) == SOURCE:
            src_mats[i] = Mat(f, np.array([[src]]))
        else:
            in_mats[i] = tuple(
                Mat(f, np.array([[1]])) for _ in net.in_edges(e.tail)
            )
    dec_mats = {t: tuple(Mat(f, np.array([[dec]])) for _ in net.in_edges(t)) for t in net.terminals}
    return FracLinCode(net, 1, 1, f, src_mats, in_mats, dec_mats)


def test_transfer_single_edge_identity():
    net = single_edge_net()
    code = scalar_code(net, 2)
    tm = transfer(net, code)
    assert tm.edge_matrix(0).a.tolist() == [[1]]
    assert verify(net, code).ok


def test_transfer_bottleneck_sums_both_sources():
    net = build_bottleneck2()
    code = scalar_code(net, 2)
    tm = transfer(net, code)
    middle = net.middle_edges()[0]
    assert tm.edge_matrix(middle).a.tolist() == [[1, 1]]
    assert verify(net, code).ok


def test_verify_fails_and_names_terminal_when_coefficient_dropped():
    net = build_bottleneck2()
    code = scalar_code(net, 2)
    zero = Mat(PrimeField(2), np.zeros((1, 1), dtype=np.int64))
    code = rebuilt(code, src_mats={0: zero})  # drop s_1's coefficient
    report = verify(net, code)
    assert not report.ok
    assert report.first_failed == "t_1"
    assert set(report.residuals) == {"t_1", "t_2"}
    assert "FAIL" in report.to_text()
    assert report.to_json()["pass"] is False


@pytest.mark.parametrize("m,q", GRID)
@pytest.mark.parametrize("p", PRIMES)
def test_family_one_scheme_exists_iff_characteristic_divides_q(m, q, p):
    if q % p == 0:
        code = scheme(build_n1(m, q), "n1", m, q, p)
        assert (code.r, code.l) == (2, m + 1)
        assert verify(code.net, code).ok
    else:
        with pytest.raises(CharacteristicError):
            scheme(build_n1(m, q), "n1", m, q, p)


@pytest.mark.parametrize("m,q", GRID)
@pytest.mark.parametrize("p", PRIMES)
def test_family_two_scheme_exists_iff_characteristic_coprime_to_q(m, q, p):
    if q % p != 0:
        code = scheme(build_n2(m, q), "n2", m, q, p)
        assert (code.r, code.l) == (2, m + 1)
        assert verify(code.net, code).ok
    else:
        with pytest.raises(CharacteristicError):
            scheme(build_n2(m, q), "n2", m, q, p)


def test_family_one_scheme_rate_equals_capacity():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    assert Fraction(code.r, code.l) == Fraction(2, 3)


def test_family_one_matrices_fail_over_wrong_characteristic():
    # the n1 scheme's matrices over GF(3), which scheme itself refuses to build
    code = _family_scheme(build_n1(2, 2), PrimeField(3), 2)
    report = verify(code.net, code)
    assert not report.ok
    # only the group terminals t_i rely on q+1 = 1 in the field
    assert set(report.residuals) == {"t_1", "t_2"}


def test_family_one_middle_edge_transfer_pattern():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    net = code.net
    tm = transfer(net, code)
    e11 = net.edge_labels().index("(u_1_1,v_1_1,0)")
    dense = tm.edge_matrix(e11).a
    pos = {s: i for i, s in enumerate(net.source_order)}
    eye = np.eye(2, dtype=np.int64)
    for s in net.source_order:
        block = dense[:2, 2 * pos[s] : 2 * pos[s] + 2]
        if s in ("s_1", "s_1_1", "s_1_2_1"):
            assert (block == eye).all()
        else:
            assert not block.any()


def test_verification_is_input_independent():
    # pass/fail is a matrix identity: scaling every source map by a unit
    # changes the transfer but a verifying code stays characterized by it
    code = scheme(build_n2(2, 2), "n2", 2, 2, 3)
    tm = transfer(code.net, code)
    assert tm.terminal_maps.shape == (len(code.net.terminals), len(code.net.source_order), 2, 2)
    assert (tm.terminal_maps == np.eye(2, dtype=np.int64)).all()


@pytest.mark.parametrize("k", [1, 2])
def test_merged_scheme_verifies(k):
    code = scheme_merged("n1", 3, 2, 2, k)
    assert (code.r, code.l) == (2 * k, 4)
    assert verify(code.net, code).ok


def test_merged_scheme_k1_is_base_scheme():
    merged = scheme_merged("n2", 3, 2, 3, 1)
    base = scheme(build_n2(3, 2), "n2", 3, 2, 3)
    assert merged.net == base.net
    assert merged.src_mats == base.src_mats
    assert merged.dec_mats == base.dec_mats


def test_merged_scheme_reaches_rate_one():
    code = scheme_merged("n1", 3, 2, 2, 2)
    assert Fraction(code.r, code.l) == 1


def test_merged_scheme_propagates_refusal():
    with pytest.raises(CharacteristicError):
        scheme_merged("n1", 3, 2, 5, 2)
    with pytest.raises(ValueError):
        scheme_merged("n3", 3, 2, 2, 2)


def test_unroll_identity_at_k1():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    assert unroll_merged(code, 1) is code


def test_unroll_preserves_rate_and_verifies():
    merged = scheme_merged("n1", 3, 2, 2, 2)
    base = build_n1(3, 2)
    unrolled = unroll_merged(merged, 2, base)
    assert (unrolled.r, unrolled.l) == (4, 8)
    assert Fraction(unrolled.r, unrolled.l) == Fraction(merged.r, merged.l) / 2
    assert verify(base, unrolled).ok


def test_unroll_refuses_non_verifying_input():
    merged = scheme_merged("n1", 3, 2, 2, 2)
    zero = Mat(merged.field, np.zeros((merged.l, merged.r), dtype=np.int64))
    merged = rebuilt(merged, src_mats={0: zero})
    with pytest.raises(UnverifiedCodeError):
        unroll_merged(merged, 2, build_n1(3, 2))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("build,expected_l", [(build_n1, 3), (build_n2, 4)])
def test_routing_baseline_passes_over_every_field(p, build, expected_l):
    net = build(2, 2)
    code = routing_code(net, p)
    assert (code.r, code.l) == (1, expected_l)
    assert verify(net, code).ok


def test_routing_on_merged_network():
    net = k_copy_merge(build_n1(2, 2), 2)
    code = routing_code(net, 5)
    assert verify(net, code).ok


def test_layer_shape_rejects_unsupported_topology():
    net = SumNetwork(
        [Node("s", SOURCE), Node("a", INTERMEDIATE), Node("b", INTERMEDIATE),
         Node("c", INTERMEDIATE), Node("t", TERMINAL)],
        [Edge("s", "a"), Edge("a", "b"), Edge("b", "c"), Edge("c", "t")],
    )
    with pytest.raises(UnsupportedNetworkError):
        layer_shape(net)


def test_code_json_round_trip():
    code = scheme(build_n2(2, 2), "n2", 2, 2, 3)
    data = code_to_json(code)
    again = code_from_json(code.net, data)
    assert (again.r, again.l, again.field) == (code.r, code.l, code.field)
    assert again.src_mats == code.src_mats
    assert again.in_mats == code.in_mats
    assert again.dec_mats == code.dec_mats
    assert code_to_json(again) == data
    assert verify(code.net, again).ok


def test_code_json_rejects_malformed_input():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    net = code.net
    with pytest.raises(CodeFormatError):
        code_from_json(net, b"not json")
    with pytest.raises(CodeFormatError, match="version"):
        code_from_json(net, b"{}")
    data = code_to_json(code)
    with pytest.raises(CodeFormatError):
        code_from_json(net, data.replace(b'"r":2', b'"r":3'))


@pytest.mark.parametrize("key", ["r", "l", "p"])
@pytest.mark.parametrize("value", [-2, 0, "2"])
def test_code_json_names_a_bad_dimension_or_modulus(key, value):
    code = scheme(build_n1(1, 2), "n1", 1, 2, 2)
    doc = json.loads(code_to_json(code))
    doc[key] = value
    with pytest.raises(CodeFormatError, match=f"'{key}'"):
        code_from_json(code.net, json.dumps(doc).encode())


@pytest.mark.parametrize(
    "section, value",
    [("edge_matrices", 5), ("edge_matrices", None), ("edge_matrices", "x"),
     ("edge_matrices", []), ("terminal_matrices", 5), ("terminal_matrices", [1])],
)
def test_code_json_names_a_section_of_the_wrong_type(section, value):
    code = scheme(build_n1(1, 2), "n1", 1, 2, 2)
    doc = json.loads(code_to_json(code))
    doc[section] = value
    with pytest.raises(CodeFormatError, match=f"'{section}'"):
        code_from_json(code.net, json.dumps(doc).encode())


@pytest.mark.parametrize("value", [2**70, 2**63, -(2**63) - 1, 1.5, "1", None, [1]])
def test_code_json_names_the_matrix_of_a_bad_entry(value):
    code = scheme(build_n1(1, 2), "n1", 1, 2, 2)
    doc = json.loads(code_to_json(code))
    doc["edge_matrices"]["(s_1,u_1_1,0)"][0] = value
    with pytest.raises(CodeFormatError, match=r"edge \(s_1,u_1_1,0\): entries must be integers"):
        code_from_json(code.net, json.dumps(doc).encode())


@pytest.mark.parametrize("value", [1.0, 0.0, -0.0])
def test_code_json_rejects_a_float_in_a_later_duplicate_matrix(value):
    # 1.0 == 1 and hash(1.0) == hash(1): sharing matrices by equal entry
    # lists must not let a float through once the integer list is known.
    code = scheme(build_n1(1, 2), "n1", 1, 2, 2)
    doc = json.loads(code_to_json(code))
    t = code.net.terminals[-1]
    j = len(doc["terminal_matrices"][t]) - 1
    flat = doc["terminal_matrices"][t][j]
    assert flat in doc["terminal_matrices"][code.net.terminals[0]]  # seen before
    flat[flat.index(int(value))] = value
    with pytest.raises(CodeFormatError, match=rf"^terminal {t}\[{j}\]: entries must be integers"):
        code_from_json(code.net, json.dumps(doc).encode())


def test_code_json_accepts_a_boolean_in_a_later_duplicate_matrix():
    code = scheme(build_n1(1, 2), "n1", 1, 2, 2)
    doc = json.loads(code_to_json(code))
    flat = doc["terminal_matrices"][code.net.terminals[-1]][-1]
    flat[flat.index(1)] = True
    loaded = code_from_json(code.net, json.dumps(doc).encode())
    assert loaded.dec_mats == code.dec_mats


def test_code_json_shares_one_read_only_matrix_per_distinct_entry_list():
    code = scheme_merged("n1", 2, 2, 2, 2)  # r = 4, l = 3: sources and decoders both hold 12 entries
    assert (code.r, code.l) == (4, 3)
    doc = json.loads(code_to_json(code))
    first_source = code.net.edges[min(code.src_mats)].label
    first_terminal = code.net.terminals[0]
    doc["edge_matrices"][first_source] = doc["terminal_matrices"][first_terminal][0]
    data = json.dumps(doc).encode()
    loaded = code_from_json(code.net, data)
    assert loaded.src_mats[min(code.src_mats)].shape == (3, 4)
    assert loaded.dec_mats[first_terminal][0].shape == (4, 3)
    mats = code_mats(loaded)
    assert len({id(m) for m in mats}) == len({(m.shape, m.a.tobytes()) for m in mats}) < len(mats)
    assert not any(m.a.flags.writeable for m in mats)
    with pytest.raises(ValueError, match="read-only"):
        mats[0].a[0, 0] = 1
    assert code_to_json(loaded) == (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def code_mats(code: FracLinCode) -> list[Mat]:
    """Every matrix slot of the code: source, in-edge, then decoder matrices."""
    return (
        list(code.src_mats.values())
        + [m for ms in code.in_mats.values() for m in ms]
        + [m for ms in code.dec_mats.values() for m in ms]
    )


@pytest.mark.parametrize(
    "make",
    [lambda: scheme(build_n1(2, 2), "n1", 2, 2, 2), lambda: routing_code(build_n1(2, 2), 2)],
    ids=["scheme", "routing_code"],
)
def test_code_matrices_are_read_only(make):
    mats = code_mats(make())
    assert not any(m.a.flags.writeable for m in mats)
    for m in (mats[0], mats[-1]):
        with pytest.raises(ValueError, match="read-only"):
            m.a[0, 0] = 1


def test_verify_names_a_source_that_source_order_omits():
    """The file reader takes the network (validate refuses it); a library
    caller of its layout gets a NetworkFormatError naming the source."""
    doc = json.loads(serialize(build_n1(1, 2)))
    assert doc["source_order"].pop() == "s_1_3"
    net = deserialize(json.dumps(doc).encode())
    code = scheme(net, "n1", 1, 2, 2)
    with pytest.raises(NetworkFormatError, match=r"^source_order does not list source 's_1_3'$"):
        verify(net, code)


def test_verify_reports_the_residual_rank_of_each_failing_terminal():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    net = code.net
    passing = verify(net, code)
    assert passing.residual_ranks == {} and passing.to_json()["residual_ranks"] == {}
    t1, t2 = net.terminals[:2]
    # One changed row of one decoder: the residual is that row alone, rank 1.
    bad = code.dec_mats[t1][0].a.copy()
    bad[0, 0] ^= 1
    # No decoder at all: the terminal outputs 0, the residual is -[I | ... | I], rank r.
    zero = Mat(code.field, np.zeros((code.r, code.l), dtype=np.int64))
    code = rebuilt(code, dec_mats={
        t1: (Mat(code.field, bad),) + code.dec_mats[t1][1:],
        t2: (zero,) * len(code.dec_mats[t2]),
    })
    report = verify(net, code)
    assert report.residual_ranks == {t1: 1, t2: code.r}
    assert report.to_json()["residual_ranks"] == {t1: 1, t2: code.r}
    assert f"first failing terminal: {t1}\nresidual rank of {t1}: 1\n" in report.to_text()


def test_code_json_refuses_a_huge_modulus_at_once():
    code = scheme(build_n1(1, 2), "n1", 1, 2, 2)
    doc = json.loads(code_to_json(code))
    doc["p"] = 2**61 - 1  # prime: trial division would take minutes
    started = time.perf_counter()
    with pytest.raises(CodeFormatError, match="'p'.*ceiling"):
        code_from_json(code.net, json.dumps(doc).encode())
    assert time.perf_counter() - started < 1


def test_shape_check_names_offender():
    net = single_edge_net()
    with pytest.raises(ValueError, match=r"\(s,t,0\)"):
        FracLinCode(net, 1, 1, PrimeField(2), {}, {}, {})


def test_a_row_of_no_slots_may_be_left_out():
    nodes = [Node("s", SOURCE), Node("t", TERMINAL), Node("idle", TERMINAL)]
    net = SumNetwork(nodes, [Edge("s", "t")])
    one = Mat(PrimeField(2), np.ones((1, 1), dtype=np.int64))
    code = FracLinCode(net, 1, 1, PrimeField(2), {0: one}, {}, {"t": (one,)})
    assert code.dec_mats["idle"] == () and dict(code.dec_mats) == {"t": (one,), "idle": ()}
    with pytest.raises(ValueError, match=r"^terminal idle: decoder list mismatch$"):
        FracLinCode(net, 1, 1, PrimeField(2), {0: one}, {}, {"t": (one,), "idle": (one,)})



@pytest.mark.parametrize("suffixed", [False, True])
def test_unroll_single_copy_onto_base(suffixed):
    base = build_n1(2, 2)
    code = scheme_merged("n1", 2, 2, 2, 1)  # the base code itself
    if suffixed:  # the same code on the k=1 merge, whose intermediates carry _c1
        code = scheme(k_copy_merge(base, 1), "n1", 2, 2, 2)
        assert code.net != base
    unrolled = unroll_merged(code, 1, base)
    assert unrolled.net is base
    assert code_to_json(unrolled) == code_to_json(scheme(build_n1(2, 2), "n1", 2, 2, 2))


@pytest.mark.parametrize(
    "make",
    [
        lambda: scheme_merged("n1", 2, 3, 2, 1),
        lambda: scheme_merged("n2", 2, 4, 2, 1),
        lambda: scheme_merged("n1", 2, 3, 2, 4),
        lambda: scheme_merged("n2", 13, 3, 3, 4),
    ],
    ids=["n1", "n2", "merged-n1", "merged-n2-4of7"],
)
def test_schemes_refuse_the_characteristic_before_any_build(monkeypatch, make):
    def no_build(*args):
        raise AssertionError("a network was built for a refused scheme")

    monkeypatch.setattr(constructions, "_build_family", no_build)
    with pytest.raises(CharacteristicError):
        make()


def test_scheme_names_a_network_with_more_groups_than_m():
    with pytest.raises(ValueError, match="group beyond m = 2"):
        scheme(build_n1(3, 2), "n1", 2, 2, 2)
    # A larger m leaves a slot of each middle edge unused: a (2, m+1) code that still verifies.
    code = scheme(build_n1(2, 2), "n1", 3, 2, 2)
    assert (code.r, code.l) == (2, 4) and verify(code.net, code).ok
