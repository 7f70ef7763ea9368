import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from sumnets._core_py import matmul_mod
from sumnets.coding import FracLinCode, code_to_json, scheme, scheme_merged, unroll_merged, verify
from sumnets.constructions import (
    IN_SET,
    MAX_EDGES,
    NOT_IN_SET,
    RateTarget,
    build_bottleneck2,
    build_for_rate,
    build_merged,
    build_n1,
    build_n2,
    copy_label,
    edge_origins,
    k_copy_merge,
    n1_counts,
    n1_s_ij,
    n2_counts,
    n2_s_ij,
    parse_label,
    s1,
    s2,
    s3,
    t1,
    t2,
    t3,
    t4,
    u_lab,
    v_lab,
)
from sumnets.galois import PrimeField
from sumnets.matrix import Mat
from sumnets.network import (
    INTERMEDIATE,
    SOURCE,
    TERMINAL,
    Edge,
    Node,
    SumNetwork,
    serialize,
    validate,
)
from rebuild import rebuilt

GRID = list(itertools.product([1, 2, 3], [2, 3, 6]))


@pytest.mark.parametrize("m,q", GRID)
def test_family_one_counts_match_closed_forms(m, q):
    net = build_n1(m, q)
    want = n1_counts(m, q)
    assert len(net.sources) == want["sources"]
    assert len(net.terminals) == want["terminals"]
    assert len(net.intermediates) == want["intermediates"]
    assert len(net.middle_edges()) == want["middle_edges"] == m * (q + 1)
    assert validate(net) == []


@pytest.mark.parametrize("m,q", GRID)
def test_family_two_counts_match_closed_forms(m, q):
    net = build_n2(m, q)
    want = n2_counts(m, q)
    assert len(net.sources) == want["sources"]
    assert len(net.terminals) == want["terminals"]
    assert len(net.intermediates) == want["intermediates"]
    assert len(net.middle_edges()) == want["middle_edges"]
    assert validate(net) == []


def test_family_one_known_inventory():
    net = build_n1(2, 2)
    assert len(net.sources) == 11
    assert len(net.terminals) == 11
    assert len(net.intermediates) == 12
    assert len(net.middle_edges()) == 6


def test_family_one_degenerate_m1():
    net = build_n1(1, 2)
    assert len(net.sources) == 4  # one group source, three pair sources
    assert not any(t.count("_") == 3 for t in net.terminals)


def test_family_two_known_inventory():
    net = build_n2(2, 2)
    assert len(net.sources) == 9
    assert len(net.terminals) == 12


@pytest.mark.parametrize("m,q", GRID)
def test_reachable_source_sets_have_documented_sizes(m, q):
    for i in range(1, m + 1):
        for j in range(1, q + 2):
            assert len(n1_s_ij(m, q, i, j)) == m + 1
            assert len(n2_s_ij(m, q, i, j)) == q * m


def test_family_one_direct_edge_complements():
    m, q = 2, 2
    net = build_n1(m, q)
    n_src = len(net.sources)
    for i in range(1, m + 1):
        for j in range(1, q + 2):
            t = f"t_{i}_{j}"
            ins = net.in_edges(t)
            from_middle = [ei for ei in ins if net.role(net.edges[ei].tail) != SOURCE]
            directs = [ei for ei in ins if net.role(net.edges[ei].tail) == SOURCE]
            assert len(from_middle) == 1
            assert len(directs) == n_src - len(n1_s_ij(m, q, i, j))


def test_family_two_pair_source_skips_own_index():
    net = build_n2(2, 2)
    out = np.flatnonzero(net.tail == net.entries_of(["s_1_1"])[0]).tolist()
    heads = {net.edges[ei].head for ei in out if net.edges[ei].head.startswith("u_")}
    assert heads == {"u_1_2", "u_1_3"}


def test_family_two_extra_terminal_taps():
    net = build_n2(3, 2)
    ins = net.in_edges("tp_1_3")
    tapped = [net.edges[ei].tail for ei in ins if net.edges[ei].tail.startswith("v_")]
    assert len(tapped) == 2 * 3  # 2(q+1) middle-edge taps
    assert tapped == [f"v_1_{j}" for j in (1, 2, 3)] + [f"v_3_{j}" for j in (1, 2, 3)]


def test_merge_single_copy_preserves_counts():
    base = build_n1(2, 2)
    merged = k_copy_merge(base, 1)
    assert len(merged.sources) == len(base.sources)
    assert len(merged.edges) == len(base.edges)
    assert validate(merged) == []


def test_merge_three_copies():
    base = build_n1(2, 2)
    merged = k_copy_merge(base, 3)
    assert len(merged.middle_edges()) == 18
    assert len(merged.sources) == 11
    assert len(merged.terminals) == 11
    assert validate(merged) == []
    for t in merged.terminals:
        assert len(merged.in_edges(t)) == 3 * len(base.in_edges(t))


def _origins(net):
    """`edge_origins` per edge: ((base tail, base head, base par), copy)."""
    stems, tail, head, par, copy = edge_origins(net)
    ends = zip(tail.tolist(), head.tolist(), par.tolist(), copy.tolist())
    return [((stems[t], stems[h], p), c) for t, h, p, c in ends]


def test_merge_map_round_trip():
    base = build_n2(2, 2)
    assert _origins(base) == [((e.tail, e.head, e.par), 1) for e in base.edges]
    for k in (1, 2, 3):
        merged = k_copy_merge(base, k)
        want = {}
        for b in base.edges:
            inter = [base.role(b.tail) == INTERMEDIATE, base.role(b.head) == INTERMEDIATE]
            for c in range(1, k + 1):
                # The copy-c image carries _c<c> on its intermediate ends;
                # a direct edge keeps its ends and takes par c-1.
                if any(inter):
                    tail, head = (f"{x}_c{c}" if i else x for x, i in zip((b.tail, b.head), inter))
                    image = Edge(tail, head, b.par)
                else:
                    image = Edge(b.tail, b.head, c - 1)
                want[image] = (b.tail, b.head, b.par), c
        # Each (base edge, copy) is read back from exactly its image.
        assert len(merged.edges) == len(want)
        assert dict(zip(merged.edges, _origins(merged))) == want


def _permuted(net, seed):
    """The same network with its edge list shuffled and in_order remapped;
    returns it with old edge index -> new edge index."""
    order = list(range(len(net.edges)))
    random.Random(seed).shuffle(order)
    new_of = {old: new for new, old in enumerate(order)}
    in_order = {label: [new_of[i] for i in ins] for label, ins in net.in_order.items()}
    edges = [net.edges[old] for old in order]
    return SumNetwork(net.nodes, edges, in_order, list(net.source_order)), new_of


def test_merge_map_survives_permuted_edge_list():
    base = build_n1(2, 2)
    merged_code = scheme_merged("n1", 2, 2, 2, 2)
    merged = merged_code.net
    shuffled, new_of = _permuted(merged, seed=3)
    assert validate(shuffled) == []
    want = _origins(merged)
    got = _origins(shuffled)
    assert all(got[new_of[me]] == origin for me, origin in enumerate(want))

    shuffled_code = FracLinCode(
        shuffled,
        merged_code.r,
        merged_code.l,
        merged_code.field,
        src_mats={new_of[i]: m for i, m in merged_code.src_mats.items()},
        in_mats={new_of[i]: m for i, m in merged_code.in_mats.items()},
        dec_mats=dict(merged_code.dec_mats),
    )
    unrolled = unroll_merged(shuffled_code, 2, base)
    assert verify(base, unrolled).ok
    assert code_to_json(unrolled) == code_to_json(unroll_merged(merged_code, 2, base))


def _shuffled(net, seed):
    """`_permuted(net, seed)` with every node's in-edge order shuffled too;
    returns it with old edge index -> new edge index."""
    moved, new_of = _permuted(net, seed)
    rng = random.Random(seed + 1)
    in_order = {label: rng.sample(ins, len(ins)) for label, ins in moved.in_order.items()}
    return SumNetwork(moved.nodes, moved.edges, in_order, list(moved.source_order)), new_of


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family,m,q,p", [("n1", 2, 2, 2), ("n2", 2, 2, 3), ("n2", 3, 2, 5)])
def test_scheme_on_a_shuffled_network_is_the_merged_code_moved(family, m, q, p, k):
    want = scheme_merged(family, m, q, p, k)
    net = want.net
    shuffled, new_of = _shuffled(net, seed=10 * k + m)
    assert validate(shuffled) == []
    assert any(shuffled.in_edges(t) != tuple(map(new_of.get, net.in_edges(t))) for t in net.terminals)
    got = scheme(shuffled, family, m, q, p)
    assert verify(shuffled, got).ok
    assert (got.r, got.l) == (want.r, want.l) == (2 * k, m + 1)

    def placed(code, node, mats):
        """node's matrices by the shuffled index of the in-edge each reads."""
        ins = code.net.in_edges(node)
        return dict(zip([new_of[i] for i in ins] if code is want else ins, mats))

    assert {new_of[i]: m for i, m in want.src_mats.items()} == got.src_mats
    for i, mats in want.in_mats.items():
        tail = net.edges[i].tail
        assert placed(want, tail, mats) == placed(got, tail, got.in_mats[new_of[i]])
    for t, mats in want.dec_mats.items():
        assert placed(want, t, mats) == placed(got, t, got.dec_mats[t])


def _reversed_in_order(code, node):
    """`code` on the same network with `node`'s in-edge order reversed, and
    the matrices that read those in-edges reversed to match."""
    net = code.net
    in_order = dict(net.in_order)
    in_order[node] = net.in_order[node][::-1]
    moved = SumNetwork(net.nodes, net.edges, in_order, list(net.source_order))
    dec_mats = {node: code.dec_mats[node][::-1]} if net.role(node) == TERMINAL else {}
    out = np.flatnonzero(net.tail == net.entries_of([node])[0]).tolist()
    in_mats = {ei: code.in_mats[ei][::-1] for ei in out}
    return rebuilt(code, moved, in_mats=in_mats, dec_mats=dec_mats)


def test_unroll_places_decoders_by_in_edge_position():
    base = build_n1(2, 2)
    code = scheme_merged("n1", 2, 2, 2, 2)
    assert code.net == k_copy_merge(base, 2)
    moved = _reversed_in_order(code, "t_1")
    assert moved.net.in_edges("t_1") != code.net.in_edges("t_1")
    assert verify(moved.net, moved).ok
    assert verify(base, unroll_merged(moved, 2, base)).ok


def test_unroll_places_in_edge_matrices_by_in_edge_position():
    base = build_n1(2, 2)
    code = scheme_merged("n1", 2, 2, 2, 2)
    assert code.net == k_copy_merge(base, 2)
    node = copy_label(u_lab(1, 1), 1)
    (me,) = np.flatnonzero(code.net.tail == code.net.entries_of([node])[0]).tolist()
    # D_j = I + E_{j,j+1}: invertible, its own inverse over GF(2), and
    # distinct per slot, so a matrix read from the wrong slot shows.
    ds, src_mats = [], {}
    for j, ei in enumerate(code.net.in_edges(node)):
        a = np.eye(code.l, dtype=np.int64)
        a[j, (j + 1) % code.l] = 1
        d = Mat(code.field, a)
        assert matmul_mod(d.a, d.a, 2).tolist() == np.eye(code.l, dtype=np.int64).tolist()
        ds.append(d)
        src_mats[ei] = Mat(code.field, matmul_mod(d.a, code.src_mats[ei].a, 2))
    code = rebuilt(code, src_mats=src_mats, in_mats={me: tuple(ds)})
    moved = _reversed_in_order(code, node)
    assert verify(moved.net, moved).ok
    assert verify(base, unroll_merged(moved, 2, base)).ok


def _renamed(net, old, new):
    """net with node `old` relabelled `new`."""
    def name(x):
        return new if x == old else x

    nodes = [Node(name(n.label), n.role) for n in net.nodes]
    edges = [Edge(name(e.tail), name(e.head), e.par) for e in net.edges]
    in_order = {name(x): ins for x, ins in net.in_order.items()}
    return SumNetwork(nodes, edges, in_order, list(net.source_order))


def test_merge_map_rejects_a_network_that_is_not_a_merge_of_the_base():
    with pytest.raises(ValueError, match="expected"):
        unroll_merged(scheme_merged("n2", 2, 2, 3, 2), 2, build_n1(2, 2))
    base = build_n1(1, 2)
    code = scheme_merged("n1", 1, 2, 2, 2)
    merged = code.net
    # Same edge count, but one image renamed away.
    edges = list(merged.edges)
    e = edges[0]
    edges[0] = Edge(e.tail, e.head, e.par + 100)
    broken = SumNetwork(merged.nodes, edges, merged.in_order, list(merged.source_order))
    # Copy 2 of u_1_1 relabelled as copy 3, and as the unsuffixed copy 1.
    beyond = _renamed(merged, "u_1_1_c2", "u_1_1_c3")
    twice = _renamed(merged, "u_1_1_c2", "u_1_1")
    for net, message in [(broken, "copies no edge"), (beyond, "copy 3 > k = 2"),
                         (twice, "second image in copy 1")]:
        moved = rebuilt(code, net)  # the same edge and in-edge structure
        assert verify(net, moved).ok
        with pytest.raises(ValueError, match=message):
            unroll_merged(moved, 2, base)


def test_unroll_refuses_a_merge_of_a_base_with_parallel_direct_edges():
    plain = build_bottleneck2()
    edges = list(plain.edges) + [Edge("s_1", "t_1", 0), Edge("s_1", "t_1", 1)]
    in_order = dict(plain.in_order, t_1=[*plain.in_order["t_1"], 5, 6])
    base = SumNetwork(plain.nodes, edges, in_order, list(plain.source_order))
    merged = k_copy_merge(base, 2)
    # Over GF(2) at rate 1: copy 1 carries the sum; every other edge carries 0.
    field = PrimeField(2)
    one, zero = Mat(field, np.ones((1, 1))), Mat(field, np.zeros((1, 1)))
    src_mats, in_mats, dec_mats = {}, {}, {}
    for i, e in enumerate(merged.edges):
        if merged.role(e.tail) == SOURCE:
            src_mats[i] = one if e.head == "u_1_1_c1" else zero
        else:
            in_mats[i] = (one,) * len(merged.in_edges(e.tail))
    for t in merged.terminals:
        ins = merged.in_edges(t)
        dec_mats[t] = tuple(one if merged.edges[i].tail == "v_1_1_c1" else zero for i in ins)
    code = FracLinCode(merged, 1, 1, field, src_mats, in_mats, dec_mats)
    assert verify(merged, code).ok
    with pytest.raises(ValueError, match="> k = 2"):
        unroll_merged(code, 2, base)


def test_merge_rejects_bad_k():
    with pytest.raises(ValueError):
        k_copy_merge(build_n1(1, 2), 0)


def test_rate_builder_three_fifths():
    net, meta = build_for_rate(RateTarget(3, 5, (2,), IN_SET))
    assert (meta["family"], meta["m"], meta["q"], meta["k"]) == ("n1", 9, 2, 3)
    assert Fraction(meta["capacity_num"], meta["capacity_den"]) == Fraction(3, 5)
    assert len(net.middle_edges()) == 3 * 9 * 3


def test_rate_builder_one_half_needs_no_merge():
    net, meta = build_for_rate(RateTarget(1, 2, (2, 3), IN_SET))
    assert (meta["m"], meta["q"], meta["k"]) == (3, 6, 1)
    assert Fraction(meta["capacity_num"], meta["capacity_den"]) == Fraction(1, 2)
    assert net == build_n1(3, 6)


def test_rate_builder_not_in_set_uses_family_two():
    _, meta = build_for_rate(RateTarget(2, 3, (5,), NOT_IN_SET))
    assert (meta["family"], meta["m"], meta["q"], meta["k"]) == ("n2", 5, 5, 2)


def test_rate_target_validation():
    with pytest.raises(ValueError):
        RateTarget(1, 2, (4,), IN_SET)  # not prime
    with pytest.raises(ValueError):
        RateTarget(1, 2, (2, 2), IN_SET)  # not distinct
    with pytest.raises(ValueError):
        RateTarget(0, 2, (2,), IN_SET)
    with pytest.raises(ValueError):
        RateTarget(1, 2, (2,), "sideways")


def test_param_validation():
    with pytest.raises(ValueError):
        build_n1(0, 2)
    with pytest.raises(ValueError):
        build_n2(1, 1)


def test_bottleneck2_shape():
    net = build_bottleneck2()
    assert len(net.nodes) == 6
    assert len(net.edges) == 5
    assert len(net.middle_edges()) == 1
    assert validate(net) == []


def test_build_merged_rejects_k_below_one():
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        build_merged("n1", 1, 2, 0)


def test_build_merged_refuses_an_edge_bound_past_the_ceiling_before_it_builds():
    families = [(build_n1, n1_counts), (build_n2, n2_counts)]
    for (m, q), (build, counts) in itertools.product(GRID, families):
        c, mid = counts(m, q), m * (q + 1)
        assert len(build(m, q).tail) <= (c["sources"] + mid) * (c["terminals"] + mid + 1)
    net, meta = build_for_rate(RateTarget(4, 7, (3,), NOT_IN_SET))  # the 4/7 target
    assert (meta["family"], meta["m"], meta["q"], meta["k"]) == ("n2", 13, 3, 4)
    assert len(net.tail) == 540_592 < MAX_EDGES
    for m, q in [(1, 2**31 - 1), (100_000, 2)]:
        with pytest.raises(ValueError, match=rf"^n1\(m={m}, q={q}, k=1\) may pass the {MAX_EDGES}-"):
            build_merged("n1", m, q)


def test_build_for_rate_is_build_merged_plus_the_rate_keys():
    net, meta = build_for_rate(RateTarget(2, 3, (5,), NOT_IN_SET))
    net2, meta2 = build_merged("n2", 5, 5, 2)
    assert serialize(net) == serialize(net2)
    assert meta == {**meta2, "primes": [5], "mode": NOT_IN_SET}


PRINTERS = {
    ("s", 1): s1,
    ("s", 2): s2,
    ("s", 3): s3,
    ("u", 2): u_lab,
    ("v", 2): v_lab,
    ("t", 1): t1,
    ("t", 2): t2,
    ("t", 3): t3,
    ("tp", 2): t4,
}


@pytest.mark.parametrize(
    "family,m,q,k", itertools.product(("n1", "n2"), (1, 2, 3), (2, 10), (1, 2, 3))
)
def test_every_printed_label_parses_back_to_its_indices(family, m, q, k):
    net, _ = build_merged(family, m, q, k)
    for node in net.nodes:
        kind, idx = parse_label(node.label)
        printed = PRINTERS[kind, len(idx)](*idx)
        if node.role == INTERMEDIATE and k > 1:
            assert node.label in [copy_label(printed, c) for c in range(1, k + 1)]
        else:
            assert node.label == printed


@pytest.mark.parametrize(
    "label",
    ["uA", "u_1", "u_1_2_3", "x_1", "s_0", "s_01", "s_1_c2", "u_1_1_c0", "tp_1",
     "t_1_2_3_4", "", "u_1_1_c2_c3", "s_1 "],
)
def test_parse_label_names_a_label_outside_the_scheme(label):
    with pytest.raises(ValueError, match=f"node label {label!r} is outside the label scheme"):
        parse_label(label)


def test_merge_shifts_pars_beyond_int64_exactly():
    base = SumNetwork([Node("s", SOURCE), Node("t", TERMINAL)], [Edge("s", "t", 2**63 - 1), Edge("s", "t", 3)])
    merged = k_copy_merge(base, 3)
    stride = 2**63
    assert [e.par for e in merged.edges] == [p + c * stride for c in range(3) for p in (2**63 - 1, 3)]
    assert _origins(merged)[-1] == (("s", "t", 0), 3 + 2 * stride + 1)


def reference_k_copy_merge(base, k):
    """The previous body of `k_copy_merge`, on Node and Edge objects."""
    nodes, edges, in_order = [], [], {}
    for n in base.nodes:
        if n.role != INTERMEDIATE:
            nodes.append(n)
            in_order[n.label] = []
    stride = max((e.par for e in base.edges), default=0) + 1
    for copy in range(1, k + 1):
        name = {x: copy_label(x, copy) for x in base.intermediates}
        for x in name.values():
            nodes.append(Node(x, INTERMEDIATE))
            in_order[x] = []
        for n in base.nodes:
            for base_idx in base.in_order[n.label]:
                e = base.edges[base_idx]
                if e.tail in name or e.head in name:
                    edges.append(Edge(name.get(e.tail, e.tail), name.get(e.head, e.head), e.par))
                else:
                    edges.append(Edge(e.tail, e.head, e.par + (copy - 1) * stride))
                in_order[edges[-1].head].append(len(edges) - 1)
    return SumNetwork(nodes, edges, in_order, list(base.source_order))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_merge_matches_the_reference_merge(seed, k):
    """On a family base, and on one with its edge list and every in-edge
    order shuffled (so the merge follows the base's in-edge order)."""
    base = build_n2(2, 2) if seed is None else _shuffled(build_n2(2, 2), seed)[0]
    merged = k_copy_merge(base, k)
    assert merged == reference_k_copy_merge(base, k)
    assert serialize(merged) == serialize(reference_k_copy_merge(base, k))
