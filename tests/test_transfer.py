"""`transfer` and `verify_transfer` against the per-slot composition they
replaced, and metamorphic checks of `verify`.

The reference below is the previous implementation, kept as it was: every
edge and every terminal in-edge goes through the block-accumulating
composition, one product per slot, and verification walks the blocks of
each terminal.
"""

import numpy as np
import pytest

from sumnets._core_py import matmul_mod
from sumnets.analysis import bound_check, composites_from_code, routing_code
from sumnets.coding import (
    FracLinCode,
    code_from_json,
    code_to_json,
    layer_shape,
    scheme,
    scheme_merged,
    transfer,
    unroll_merged,
    verify,
    verify_transfer,
)
from sumnets.constructions import build_bottleneck2, build_n1, build_n2, k_copy_merge
from sumnets.galois import PrimeField
from sumnets.matrix import Mat, rank, solve_right
from sumnets.network import (
    INTERMEDIATE,
    SOURCE,
    TERMINAL,
    CycleError,
    Edge,
    Node,
    SumNetwork,
    topo_order,
    validate,
)

PRIMES = [2, 3, 5, 2**31 - 1]
BASES = {"bottleneck2": build_bottleneck2, "n1(2,2)": lambda: build_n1(2, 2),
         "n2(2,3)": lambda: build_n2(2, 3)}


# --- the replaced path --------------------------------------------------------------


def reference_compose(mats, in_edges, edge_blocks, p):
    acc = {}
    for m, in_ei in zip(mats, in_edges):
        if not m.a.any():
            continue
        for pos, blk in edge_blocks[in_ei].items():
            prod = matmul_mod(m.a, blk, p)
            prev = acc.get(pos)
            acc[pos] = prod if prev is None else (prev + prod) % p
    return acc


def reference_transfer(net, code):
    """(edge blocks, terminal blocks), each {source position -> block}."""
    code.check_shapes()
    p = code.field.p
    src_pos = {s: i for i, s in enumerate(net.source_order)}
    edge_blocks = [dict() for _ in net.edges]
    for ei in topo_order(net):
        e = net.edges[ei]
        if net.role(e.tail) == SOURCE:
            edge_blocks[ei] = {src_pos[e.tail]: code.src_mats[ei].a}
        else:
            edge_blocks[ei] = reference_compose(
                code.in_mats[ei], net.in_edges(e.tail), edge_blocks, p
            )
    terminal_blocks = {
        t: reference_compose(code.dec_mats[t], net.in_edges(t), edge_blocks, p)
        for t in net.terminals
    }
    return edge_blocks, terminal_blocks


def reference_verify(net, code, terminal_blocks):
    """(ok, first failing terminal, {terminal: residual array})."""
    p = code.field.p
    r = code.r
    n_sources = len(net.source_order)
    eye = np.eye(r, dtype=np.int64) % p
    residuals = {}
    first = None
    for t in net.terminals:
        blocks = terminal_blocks[t]
        bad = False
        res = np.zeros((r, r * n_sources), dtype=np.int64)
        for pos in range(n_sources):
            blk = blocks.get(pos)
            diff = (-eye) % p if blk is None else (blk - eye) % p
            if diff.any():
                bad = True
            res[:, pos * r : (pos + 1) * r] = diff
        if bad:
            residuals[t] = res
            if first is None:
                first = t
    return not residuals, first, residuals


def message_blocks(tm, ei):
    """{source position -> l x r block} of the edge's message; the
    positions are listed once each."""
    pos, msg = tm.message(ei)
    r = tm.r
    blocks = {q: msg[:, j * r : (j + 1) * r] for j, q in enumerate(pos.tolist())}
    assert len(blocks) == pos.size
    return blocks


# --- codes ----------------------------------------------------------------------------


def random_code(net, r, l, p, rng, density=1.0, palette=0):
    """Entries uniform in [0, p), zeroed with probability 1 - density.  With
    a palette, every slot takes one of `palette` matrices per shape, half
    the time as the shared object and half as an equal copy."""
    field = PrimeField(p)
    pools = {}

    def draw(rows, cols):
        if palette:
            pool = pools.setdefault(
                (rows, cols), [draw_new(rows, cols) for _ in range(palette)]
            )
            mat = pool[rng.integers(len(pool))]
            return mat if rng.random() < 0.5 else Mat(field, mat.a.copy())
        return draw_new(rows, cols)

    def draw_new(rows, cols):
        a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        a[rng.random((rows, cols)) >= density] = 0
        return Mat(field, a)

    code = FracLinCode(net, r, l, field)
    for i, e in enumerate(net.edges):
        if net.role(e.tail) == SOURCE:
            code.src_mats[i] = draw(l, r)
        else:
            code.in_mats[i] = tuple(draw(l, l) for _ in net.in_edges(e.tail))
    for t in net.terminals:
        code.dec_mats[t] = tuple(draw(r, l) for _ in net.in_edges(t))
    return code


def corrupted(code, rng):
    """A copy of `code` with one decoder entry of one terminal changed."""
    t = code.net.terminals[rng.integers(len(code.net.terminals))]
    mats = list(code.dec_mats[t])
    j = int(rng.integers(len(mats)))
    bad = mats[j].a.copy()
    i, c = rng.integers(bad.shape[0]), rng.integers(bad.shape[1])
    bad[i, c] = (bad[i, c] + 1) % code.field.p
    mats[j] = Mat(code.field, bad)
    out = FracLinCode(code.net, code.r, code.l, code.field,
                      dict(code.src_mats), dict(code.in_mats), dict(code.dec_mats))
    out.dec_mats[t] = tuple(mats)
    return out


def passing_codes(name, k, p):
    """Verifying codes: the routing baseline, and the family scheme where
    the characteristic allows it."""
    net = BASES[name]()
    if k > 1:
        net = k_copy_merge(net, k)
    codes = [routing_code(net, p)]
    if name == "n1(2,2)" and p == 2:
        codes.append(scheme_merged("n1", 2, 2, p, k))
    if name == "n2(2,3)" and p != 3:
        codes.append(scheme_merged("n2", 2, 3, p, k))
    return net, codes


def all_codes(name, k, p, seed):
    net, codes = passing_codes(name, k, p)
    rng = np.random.default_rng(seed)
    failing = [corrupted(c, rng) for c in codes]
    r, l = codes[0].r, codes[0].l
    failing += [
        random_code(net, r, l, p, rng),
        random_code(net, 2, 3, p, rng, density=0.3),
        random_code(net, 2, 2, p, rng, density=0.6, palette=2),
    ]
    return net, codes, failing


CASES = [(name, k, p) for name in BASES for k in (1, 2, 3) for p in PRIMES]


def _case_id(case):
    name, k, p = case
    return f"{name}-k{k}-p{p}"


# --- cross-check -----------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_transfer_and_verify_match_the_per_slot_reference(case):
    name, k, p = case
    _, passing, failing = all_codes(name, k, p, seed=k * 1000 + p % 1000)
    verdicts = []
    for code in passing + failing:
        net = code.net
        ref_edges, ref_terminals = reference_transfer(net, code)
        tm = transfer(net, code)
        for ei, ref in enumerate(ref_edges):
            got = message_blocks(tm, ei)
            assert set(got) == set(ref)
            assert all(np.array_equal(got[pos], ref[pos]) for pos in ref)
        n_sources = len(net.source_order)
        for i, t in enumerate(net.terminals):
            dense = np.zeros((n_sources, code.r, code.r), dtype=np.int64)
            for pos, blk in ref_terminals[t].items():
                dense[pos] = blk
            assert np.array_equal(tm.terminal_maps[i], dense), t
        # Composite encodings: the reference blocks of each middle edge in
        # S_e order, zero where the edge carries nothing from a source.
        shape = layer_shape(net)
        zero = np.zeros((code.l, code.r), dtype=np.int64)
        comps = composites_from_code(net, code)
        assert set(comps.mats) == set(shape.middle.tolist())
        for i, me in enumerate(shape.middle.tolist()):
            want = np.hstack([ref_edges[me].get(s, zero) for s in shape.feeds_of(i).tolist()])
            assert np.array_equal(comps.mats[me].a, want), me
        ok, first, residuals = reference_verify(net, code, ref_terminals)
        report = verify_transfer(tm)
        assert (report.ok, report.first_failed) == (ok, first)
        assert list(report.residuals) == list(residuals)
        for t, res in residuals.items():
            assert report.residuals[t].shape == res.shape
            assert report.residuals[t].a.tobytes() == res.tobytes()
        assert set(report.residual_ranks) == set(residuals)
        verdicts.append(report.ok)
    # The routing and scheme codes pass; the three random codes fail.  A
    # corrupted entry can sit in a decoder slot that reads a zero message.
    assert verdicts[: len(passing)] == [True] * len(passing)
    assert verdicts[-3:] == [False] * 3


def test_terminal_maps_do_not_overflow_at_the_modulus_ceiling():
    # 300 parallel direct edges, every product p-1 = 2^31-2 per entry: the
    # unreduced sum is ~6.4e11 per entry, far inside int64.
    p = 2**31 - 1
    net = SumNetwork([Node("s", SOURCE), Node("t", TERMINAL)],
                     [Edge("s", "t", par) for par in range(300)])
    field = PrimeField(p)
    code = FracLinCode(net, 1, 1, field)
    for i in range(300):
        code.src_mats[i] = Mat(field, np.array([[1]]))
    code.dec_mats["t"] = (Mat(field, np.array([[p - 1]])),) * 300
    tm = transfer(net, code)
    assert tm.terminal_maps[0, 0, 0, 0] == (300 * (p - 1)) % p
    ref = reference_transfer(net, code)[1]["t"][0]
    assert np.array_equal(tm.terminal_maps[0, 0], ref)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_edge_matrix_is_the_dense_form_of_the_reference_blocks(case):
    name, k, p = case
    _, passing, failing = all_codes(name, k, p, seed=k * 1000 + p % 1000 + 1)
    for code in passing + failing:
        net = code.net
        ref_edges, _ = reference_transfer(net, code)
        tm = transfer(net, code)
        r = code.r
        for ei, blocks in enumerate(ref_edges):
            dense = np.zeros((code.l, r * len(net.source_order)), dtype=np.int64)
            for pos, blk in blocks.items():
                dense[:, pos * r : (pos + 1) * r] = blk
            got = tm.edge_matrix(ei)
            assert got.shape == dense.shape and np.array_equal(got.a, dense), ei


def diamond():
    """Two sources reach c along two relays each, and t taps c, the relays
    and s1: edge c -> t sums each source over two paths, so a position
    takes several products before the reduction."""
    nodes = [Node("s1", SOURCE), Node("s2", SOURCE), Node("a", INTERMEDIATE),
             Node("b", INTERMEDIATE), Node("c", INTERMEDIATE), Node("t", TERMINAL)]
    edges = [Edge("s1", "a"), Edge("s2", "a"), Edge("s1", "b"), Edge("s2", "b"), Edge("s2", "b", 1),
             Edge("a", "c"), Edge("b", "c"), Edge("b", "c", 1), Edge("c", "t"), Edge("a", "t"),
             Edge("s1", "t")]
    return SumNetwork(nodes, edges)


@pytest.mark.parametrize("p", PRIMES)
def test_sums_over_several_paths_match_the_reference(p):
    net = diamond()
    rng = np.random.default_rng(p % 1000)
    for code in (random_code(net, 2, 3, p, rng), random_code(net, 2, 2, p, rng, density=0.5)):
        ref_edges, ref_terminals = reference_transfer(net, code)
        tm = transfer(net, code)
        for ei, ref in enumerate(ref_edges):
            got = message_blocks(tm, ei)
            assert set(got) == set(ref), ei
            assert all(np.array_equal(got[pos], ref[pos]) for pos in ref), ei
        for pos, blk in ref_terminals["t"].items():
            assert np.array_equal(tm.terminal_maps[0, pos], blk)


# --- malformed codes -----------------------------------------------------------------------


def _first_relayed_edge(net):
    return next(i for i, e in enumerate(net.edges) if net.role(e.tail) != SOURCE)


def _drop_source(code):
    del code.src_mats[min(code.src_mats)]


def _misshape_source(code):
    ei = max(code.src_mats)
    code.src_mats[ei] = Mat(code.field, np.zeros((code.l + 1, code.r), dtype=np.int64))


def _misshape_in_edge(code):
    ei = _first_relayed_edge(code.net)
    bad = Mat(code.field, np.zeros((code.l, code.l + 1), dtype=np.int64))
    code.in_mats[ei] = code.in_mats[ei][:-1] + (bad,)


def _misshape_decoder(code):
    t = code.net.terminals[-1]
    bad = Mat(code.field, np.zeros((code.r + 1, code.l), dtype=np.int64))
    code.dec_mats[t] = (bad,) + code.dec_mats[t][1:]


def _shorten_in_edges(code):
    ei = _first_relayed_edge(code.net)
    code.in_mats[ei] = code.in_mats[ei][:-1]


def _shorten_decoders(code):
    t = code.net.terminals[0]
    code.dec_mats[t] = code.dec_mats[t][:-1]


def _drop_in_edges(code):
    del code.in_mats[_first_relayed_edge(code.net)]


def _drop_decoders(code):
    del code.dec_mats[code.net.terminals[-1]]


def _one_object_as_source_and_decoder(code):
    """Every source matrix is one l x r object, which also sits in one
    decoder slot, where r x l is required (r != l)."""
    shared = Mat(code.field, np.ones((code.l, code.r), dtype=np.int64))
    for ei in code.src_mats:
        code.src_mats[ei] = shared
    t = code.net.terminals[-1]
    code.dec_mats[t] = code.dec_mats[t][:-1] + (shared,)


MALFORMED = [
    _drop_source,
    _misshape_source,
    _misshape_in_edge,
    _misshape_decoder,
    _shorten_in_edges,
    _shorten_decoders,
    _drop_in_edges,
    _drop_decoders,
    _one_object_as_source_and_decoder,
]


@pytest.mark.parametrize("spoil", MALFORMED, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("palette", [0, 2], ids=["distinct", "shared"])
def test_a_malformed_code_is_refused_as_check_shapes_refuses_it(spoil, palette):
    net = build_n1(2, 2)
    code = random_code(net, 2, 3, 5, np.random.default_rng(3), palette=palette)
    transfer(net, code)
    spoil(code)
    with pytest.raises(Exception) as want:
        code.check_shapes()
    with pytest.raises(Exception) as got:
        transfer(net, code)
    assert got.type is want.type
    assert str(got.value) == str(want.value)


# --- topological order ------------------------------------------------------------------------


def test_topo_order_returns_an_independent_list():
    net = build_n1(2, 2)
    first = topo_order(net)
    want = list(first)
    first.reverse()
    first.append(-1)
    assert topo_order(net) == want


def test_a_cyclic_network_raises_on_every_call():
    net = SumNetwork(
        [Node("s", SOURCE), Node("a", INTERMEDIATE), Node("b", INTERMEDIATE), Node("t", TERMINAL)],
        [Edge("s", "a"), Edge("a", "b"), Edge("b", "a"), Edge("b", "t")],
    )
    for _ in range(3):
        with pytest.raises(CycleError):
            topo_order(net)
    assert "cycle detected" in validate(net)
    with pytest.raises(CycleError):
        transfer(net, random_code(net, 1, 1, 2, np.random.default_rng(0)))
    assert "cycle detected" in validate(net)


# --- metamorphic checks ------------------------------------------------------------------


def permuted_in_edges(code, rng):
    """The same code on a network whose every node lists its in-edges in a
    random order, each node's matrices permuted to match."""
    net = code.net
    in_order, perms = {}, {}
    for node in net.in_order:
        order = net.in_edges(node)
        perm = rng.permutation(len(order))
        perms[node] = perm
        in_order[node] = [order[i] for i in perm]
    new_net = SumNetwork(net.nodes, net.edges, in_order, list(net.source_order))
    out = FracLinCode(new_net, code.r, code.l, code.field, dict(code.src_mats))
    for ei, mats in code.in_mats.items():
        out.in_mats[ei] = tuple(mats[i] for i in perms[net.edges[ei].tail])
    for t, mats in code.dec_mats.items():
        out.dec_mats[t] = tuple(mats[i] for i in perms[t])
    return out


@pytest.mark.parametrize("case", [c for c in CASES if c[2] in (2, 5)], ids=_case_id)
def test_permuting_in_edge_order_leaves_verify_unchanged(case):
    name, k, p = case
    _, passing, failing = all_codes(name, k, p, seed=7)
    rng = np.random.default_rng(11)
    for code in passing + failing:
        before = verify(code.net, code)
        moved = permuted_in_edges(code, rng)
        after = verify(moved.net, moved)
        assert (after.ok, after.first_failed) == (before.ok, before.first_failed)
        assert after.residual_ranks == before.residual_ranks
        assert {t: m.a.tobytes() for t, m in after.residuals.items()} == {
            t: m.a.tobytes() for t, m in before.residuals.items()
        }


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "family,m,q,p", [("n1", 2, 2, 2), ("n1", 3, 2, 2), ("n2", 2, 3, 2), ("n2", 2, 2, 5)]
)
def test_merge_unroll_verify_round_trip(family, m, q, p, k):
    base = build_n1(m, q) if family == "n1" else build_n2(m, q)
    merged = scheme_merged(family, m, q, p, k)
    loaded = code_from_json(merged.net, code_to_json(merged))
    assert verify(merged.net, loaded).ok
    unrolled = unroll_merged(loaded, k, base)
    assert unrolled.net is base
    assert (unrolled.r, unrolled.l) == (2 * k, (m + 1) * k)
    assert verify(base, unrolled).ok
    again = code_from_json(base, code_to_json(unrolled))
    assert code_to_json(again) == code_to_json(unrolled)
    assert verify(base, again).ok


def _with_in_mats(code, in_mats):
    """The code with the in-edge matrices of some edges replaced."""
    mats = {**code.in_mats, **in_mats}
    return FracLinCode(code.net, code.r, code.l, code.field, code.src_mats, mats, code.dec_mats)


@pytest.mark.parametrize(
    "family,p,mode", [("n1", 2, "n1-with-groups"), ("n2", 3, "n2-middle-only")]
)
def test_a_basis_change_on_a_middle_edge_leaves_verify_and_the_bound_unchanged(family, p, mode):
    """G on a middle edge's in-edge matrices and G^-1 on every edge out of
    its head carry the same messages past that head."""
    net = (build_n1 if family == "n1" else build_n2)(2, 2)
    code = scheme(net, family, 2, 2, p)
    field, l = code.field, code.l
    rng = np.random.default_rng(5)
    g = Mat(field, rng.integers(0, p, size=(l, l)))
    while rank(g) < l or np.array_equal(g.a, np.eye(l)):
        g = Mat(field, rng.integers(0, p, size=(l, l)))
    g_inv = solve_right(g, Mat.identity(field, l))
    assert np.array_equal(matmul_mod(g_inv.a, g.a, p), np.eye(l))

    me = net.middle_edges()[0]
    changed = {me: tuple(Mat(field, matmul_mod(g.a, m.a, p)) for m in code.in_mats[me])}
    alone = _with_in_mats(code, changed)
    for e in net.out_edges(net.label_table[net.head[me]]):
        at = net.in_edges_of(net.tail[e]).tolist().index(me)
        mats = list(code.in_mats[e])
        mats[at] = Mat(field, matmul_mod(mats[at].a, g_inv.a, p))
        changed[e] = tuple(mats)
    changed_code = _with_in_mats(code, changed)

    before, after = verify(net, code), verify(net, changed_code)
    assert before.ok and after.to_json() == before.to_json()
    assert (
        bound_check(net, changed_code, mode, 2, 2).rank == bound_check(net, code, mode, 2, 2).rank
    )
    assert not verify(net, alone).ok  # the control: G without its inverse downstream


def test_a_code_bound_to_another_network_is_refused():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    other = build_n2(2, 2)
    refused = "^net: the code is bound to another network$"
    for call in (
        lambda: transfer(other, code),
        lambda: verify(other, code),
        lambda: bound_check(other, code, "n2-middle-only", 2, 2),
        lambda: composites_from_code(other, code),
    ):
        with pytest.raises(ValueError, match=refused):
            call()
    equal = build_n1(2, 2)
    assert equal is not code.net and verify(equal, code).ok
    assert bound_check(equal, code, "n1-with-groups", 2, 2).consistent
