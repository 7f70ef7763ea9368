"""`transfer` and `verify_transfer` against the per-slot composition they
replaced, and metamorphic checks of `verify`.

The reference below is the previous implementation, kept as it was: every
edge and every terminal in-edge goes through the block-accumulating
composition, one product per slot, and verification walks the blocks of
each terminal.
"""

import re

import numpy as np
import pytest

from sumnets._core_py import matmul_mod
from sumnets.analysis import bound_check, composites_from_code, routing_code
from sumnets.coding import (
    FracLinCode,
    UnverifiedCodeError,
    _relay,
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
from rebuild import rebuilt
from test_network import CYCLE_CASES, _topo_or_cycle, reference_topo_order

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

    src_mats, in_mats = {}, {}
    for i, e in enumerate(net.edges):
        if net.role(e.tail) == SOURCE:
            src_mats[i] = draw(l, r)
        else:
            in_mats[i] = tuple(draw(l, l) for _ in net.in_edges(e.tail))
    dec_mats = {t: tuple(draw(r, l) for _ in net.in_edges(t)) for t in net.terminals}
    return FracLinCode(net, r, l, field, src_mats, in_mats, dec_mats)


def corrupted(code, rng):
    """A copy of `code` with one decoder entry of one terminal changed."""
    t = code.net.terminals[rng.integers(len(code.net.terminals))]
    mats = list(code.dec_mats[t])
    j = int(rng.integers(len(mats)))
    bad = mats[j].a.copy()
    i, c = rng.integers(bad.shape[0]), rng.integers(bad.shape[1])
    bad[i, c] = (bad[i, c] + 1) % code.field.p
    mats[j] = Mat(code.field, bad)
    return rebuilt(code, dec_mats={t: tuple(mats)})


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
    one = Mat(field, np.array([[1]]))
    code = FracLinCode(net, 1, 1, field, dict.fromkeys(range(300), one), {},
                       {"t": (Mat(field, np.array([[p - 1]])),) * 300})
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
#
# Each case changes a code's mappings (copied to dicts) and returns the
# message that building a code from them must raise.


def _first_relayed_edge(net):
    return next(i for i, e in enumerate(net.edges) if net.role(e.tail) != SOURCE)


def _drop_source(code, src, ins, dec):
    e = min(src)
    del src[e]
    return f"edge {code.net.edge_label(e)}: missing or misshaped source matrix"


def _misshape_source(code, src, ins, dec):
    e = max(src)
    src[e] = Mat(code.field, np.zeros((code.l + 1, code.r), dtype=np.int64))
    return f"edge {code.net.edge_label(e)}: missing or misshaped source matrix"


def _misshape_in_edge(code, src, ins, dec):
    e = _first_relayed_edge(code.net)
    bad = Mat(code.field, np.zeros((code.l, code.l + 1), dtype=np.int64))
    ins[e] = ins[e][:-1] + (bad,)
    return f"edge {code.net.edge_label(e)}: expected {code.l}x{code.l} matrices"


def _misshape_decoder(code, src, ins, dec):
    t = code.net.terminals[-1]
    bad = Mat(code.field, np.zeros((code.r + 1, code.l), dtype=np.int64))
    dec[t] = (bad,) + dec[t][1:]
    return f"terminal {t}: expected {code.r}x{code.l} decoders"


def _shorten_in_edges(code, src, ins, dec):
    e = _first_relayed_edge(code.net)
    ins[e] = ins[e][:-1]
    return f"edge {code.net.edge_label(e)}: in-edge matrix list mismatch"


def _shorten_decoders(code, src, ins, dec):
    t = code.net.terminals[0]
    dec[t] = dec[t][:-1]
    return f"terminal {t}: decoder list mismatch"


def _drop_in_edges(code, src, ins, dec):
    e = _first_relayed_edge(code.net)
    del ins[e]
    return f"edge {code.net.edge_label(e)}: in-edge matrix list mismatch"


def _drop_decoders(code, src, ins, dec):
    t = code.net.terminals[-1]
    del dec[t]
    return f"terminal {t}: decoder list mismatch"


def _one_object_as_source_and_decoder(code, src, ins, dec):
    """Every source matrix is one l x r object, which also sits in one
    decoder slot, where r x l is required (r != l)."""
    shared = Mat(code.field, np.ones((code.l, code.r), dtype=np.int64))
    src.update(dict.fromkeys(src, shared))
    t = code.net.terminals[-1]
    dec[t] = dec[t][:-1] + (shared,)
    return f"terminal {t}: expected {code.r}x{code.l} decoders"


def _three_faults(code, src, ins, dec):
    """A misshaped decoder, the last source misshaped and the first
    relayed edge's list shortened: the lower of the two edges is named."""
    _misshape_decoder(code, src, ins, dec)
    at_source = _misshape_source(code, src, ins, dec)
    at_relay = _shorten_in_edges(code, src, ins, dec)
    return at_source if max(src) < _first_relayed_edge(code.net) else at_relay


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
    _three_faults,
]
# The cases whose every row keeps its length, so that they can be laid out as a table.
AS_TABLE = [_drop_source, _misshape_source, _misshape_in_edge, _misshape_decoder,
            _one_object_as_source_and_decoder]


def _spoiled(spoil, palette):
    """(the spoiled mappings, the message building a code from them raises)."""
    net = build_n1(2, 2)
    code = random_code(net, 2, 3, 5, np.random.default_rng(3), palette=palette)
    src, ins, dec = dict(code.src_mats), dict(code.in_mats), dict(code.dec_mats)
    want = spoil(code, src, ins, dec)
    return code, (src, ins, dec), f"^{re.escape(want)}$"


@pytest.mark.parametrize("spoil", MALFORMED, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("palette", [0, 2], ids=["distinct", "shared"])
def test_a_malformed_code_is_refused_when_built(spoil, palette):
    code, mappings, want = _spoiled(spoil, palette)
    with pytest.raises(ValueError, match=want):
        FracLinCode(code.net, code.r, code.l, code.field, *mappings)


@pytest.mark.parametrize("spoil", AS_TABLE, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("palette", [0, 2], ids=["distinct", "shared"])
def test_a_malformed_table_is_refused_as_its_mappings_are(spoil, palette):
    """The same code as a table of its distinct objects, a missing entry as -1."""
    code, (src, ins, dec), want = _spoiled(spoil, palette)
    lay = code.net.layout()
    parts = (
        [[src.get(e)] for e in lay.source_edges.tolist()],
        [ins[e] for e in lay.relayed_edges.tolist()],
        [dec[t] for t in code.net.terminals],
    )
    table = list({id(m): m for part in parts for row in part for m in row if m is not None}.values())
    at = {id(m): i for i, m in enumerate(table)}
    arrays = [[at.get(id(m), -1) for row in part for m in row] for part in parts]
    with pytest.raises(ValueError, match=want):
        FracLinCode._of_table(code.net, code.r, code.l, code.field, table, *arrays)


def test_a_table_index_past_the_table_is_refused():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    label = code.net.edge_label(int(code.net.layout().source_edges[0]))
    src = code.src_idx.copy()
    src[0] = len(code.mats)
    with pytest.raises(ValueError, match=rf"^edge {re.escape(label)}: missing or misshaped"):
        FracLinCode._of_table(code.net, code.r, code.l, code.field, code.mats, src,
                              code.in_idx, code.dec_idx)


def test_a_key_that_names_no_slot_is_refused():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    relayed = _first_relayed_edge(code.net)
    for changes in ({"src_mats": {relayed: code.mats[0]}}, {"in_mats": {min(code.src_mats): ()}},
                    {"dec_mats": {"s_1_1": ()}}):
        with pytest.raises(KeyError):
            rebuilt(code, **changes)


# --- topological order ------------------------------------------------------------------------


def test_topo_order_returns_an_independent_list():
    net = build_n1(2, 2)
    first = topo_order(net)
    want = list(first)
    first.reverse()
    first.append(-1)
    assert topo_order(net) == want


CYCLIC = {
    "s-a-b-a-t": SumNetwork(
        [Node("s", SOURCE), Node("a", INTERMEDIATE), Node("b", INTERMEDIATE), Node("t", TERMINAL)],
        [Edge("s", "a"), Edge("a", "b"), Edge("b", "a"), Edge("b", "t")],
    ),
    **{name: net for name, net in CYCLE_CASES.items()
       if _topo_or_cycle(reference_topo_order, net) == "cycle detected"},
}


@pytest.mark.parametrize("name", sorted(CYCLIC))
def test_a_cyclic_network_raises_on_every_call(name):
    net = CYCLIC[name]
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
    in_mats = {
        ei: tuple(mats[i] for i in perms[net.edges[ei].tail]) for ei, mats in code.in_mats.items()
    }
    dec_mats = {t: tuple(mats[i] for i in perms[t]) for t, mats in code.dec_mats.items()}
    return rebuilt(code, new_net, in_mats=in_mats, dec_mats=dec_mats)


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
    alone = rebuilt(code, in_mats=changed)
    for e in np.flatnonzero(net.tail == net.head[me]).tolist():
        at = net.in_edges_of(net.tail[e]).tolist().index(me)
        mats = list(code.in_mats[e])
        mats[at] = Mat(field, matmul_mod(mats[at].a, g_inv.a, p))
        changed[e] = tuple(mats)
    changed_code = rebuilt(code, in_mats=changed)

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


# --- the grouped transfer on general DAGs ------------------------------------------------


def deep_dag(rng, depth=5, width=3, n_sources=3, n_terminals=3):
    """A random DAG with `depth` layers of relays: every relay reads 1-3
    edges (some parallel) from sources and earlier layers, and every
    terminal reads 2-5 edges from sources and relays of any layer, so the
    terminals tap messages of mixed widths."""
    sources = [f"s{i}" for i in range(n_sources)]
    layers = [[f"a{d}_{i}" for i in range(width)] for d in range(depth)]
    terminals = [f"t{i}" for i in range(n_terminals)]
    nodes = [Node(s, SOURCE) for s in sources]
    nodes += [Node(x, INTERMEDIATE) for layer in layers for x in layer]
    nodes += [Node(t, TERMINAL) for t in terminals]
    par = {}
    edges = []

    def connect(tail, head):
        key = (tail, head)
        par[key] = par.get(key, -1) + 1
        edges.append(Edge(tail, head, par[key]))

    for d, layer in enumerate(layers):
        earlier = sources + [x for prev in layers[:d] for x in prev]
        for x in layer:
            for _ in range(rng.integers(1, 4)):
                # Mostly the layer just before, so that paths run deep.
                pool = layers[d - 1] if d and rng.random() < 0.7 else earlier
                connect(pool[rng.integers(len(pool))], x)
    readable = sources + [x for layer in layers for x in layer]
    for t in terminals:
        for _ in range(rng.integers(2, 6)):
            connect(readable[rng.integers(len(readable))], t)
    return SumNetwork(nodes, edges)


def mixed_code(net, r, l, p, rng):
    """In-edge matrices drawn from a zero, an identity, two shared random
    matrices, equal copies of them and fresh ones; decoders and source
    matrices likewise with zeros among them."""
    field = PrimeField(p)

    def drawer(rows, cols):
        zero = Mat(field, np.zeros((rows, cols), dtype=np.int64))
        eye = Mat(field, np.eye(rows, cols, dtype=np.int64))
        shared = [Mat(field, rng.integers(0, p, size=(rows, cols))) for _ in range(2)]

        def draw():
            pick = rng.integers(6)
            if pick < 2:
                return (zero, eye)[pick]
            if pick < 4:
                return shared[pick - 2]
            if pick == 4:
                return Mat(field, shared[0].a.copy())
            return Mat(field, rng.integers(0, p, size=(rows, cols)))

        return draw

    src, relay, dec = drawer(l, r), drawer(l, l), drawer(r, l)
    src_mats, in_mats = {}, {}
    for i, e in enumerate(net.edges):
        if net.role(e.tail) == SOURCE:
            src_mats[i] = src()
        else:
            in_mats[i] = tuple(relay() for _ in net.in_edges(e.tail))
    dec_mats = {t: tuple(dec() for _ in net.in_edges(t)) for t in net.terminals}
    return FracLinCode(net, r, l, field, src_mats, in_mats, dec_mats)


def assert_relays_in_order(code):
    """`_relay` gives the relayed edges of `reference_topo_order`, each
    after the relayed in-edges of its tail."""
    net = code.net
    order = list(_relay(code))
    from_source = net.role_mask(SOURCE)[net.tail]
    assert sorted(order) == sorted(e for e in reference_topo_order(net) if not from_source[e])
    at = {e: k for k, e in enumerate(order)}
    for e in order:
        assert all(at[i] < at[e] for i in net.in_edges_of(net.tail[e]).tolist() if i in at), e


def assert_matches_the_reference(code):
    net = code.net
    assert_relays_in_order(code)
    ref_edges, ref_terminals = reference_transfer(net, code)
    tm = transfer(net, code)
    for ei, ref in enumerate(ref_edges):
        got = message_blocks(tm, ei)
        assert set(got) == set(ref), ei
        assert all(np.array_equal(got[pos], ref[pos]) for pos in ref), ei
    for i, t in enumerate(net.terminals):
        dense = np.zeros((len(net.source_order), code.r, code.r), dtype=np.int64)
        for pos, blk in ref_terminals[t].items():
            dense[pos] = blk
        assert np.array_equal(tm.terminal_maps[i], dense), t
    ok, first, _ = reference_verify(net, code, ref_terminals)
    report = verify_transfer(tm)
    assert (report.ok, report.first_failed) == (ok, first)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(6))
def test_grouped_transfer_matches_the_reference_on_deep_dags(seed, p):
    rng = np.random.default_rng(seed * 7919 + p % 1000)
    net = deep_dag(rng, depth=4 + seed % 3)
    assert validate(net) == []
    for r, l in ((1, 1), (2, 3), (3, 2)):
        assert_matches_the_reference(mixed_code(net, r, l, p, rng))


@pytest.mark.parametrize("name", [name for name in sorted(CYCLE_CASES) if name.startswith("dag")])
def test_grouped_transfer_matches_the_reference_on_random_dags(name):
    """Random roles, parallel edges and shuffled in-edge orders."""
    net = CYCLE_CASES[name]
    rng = np.random.default_rng(len(net.tail))
    assert_matches_the_reference(mixed_code(net, 2, 3, 5, rng))


@pytest.mark.parametrize("p", PRIMES)
def test_grouped_transfer_matches_the_reference_on_merged_families(p):
    rng = np.random.default_rng(p % 1000 + 3)
    for net in (k_copy_merge(build_n1(2, 2), 2), k_copy_merge(build_n2(2, 3), 3)):
        assert_matches_the_reference(mixed_code(net, 2, 3, p, rng))


def test_identity_relays_pass_messages_on_without_a_product(monkeypatch):
    """The scheme's relays are all identities: composing it makes one
    product per message a terminal taps and one per distinct direct
    (decoder, source matrix) pair, none per relayed in-edge slot."""
    import sumnets.coding as coding

    code = scheme_merged("n1", 2, 2, 2, 3)
    calls = []
    real = coding.matmul_mod

    def counted(a, b, p):
        calls.append((a.shape, b.shape))
        return real(a, b, p)

    monkeypatch.setattr(coding, "matmul_mod", counted)
    assert verify(code.net, code).ok
    # Each middle edge's message is tapped; copy c's direct decoder and
    # source matrix are one pair per copy.
    assert len(calls) == len(code.net.middle_edges()) + 3
    assert all(a[0] % code.r == 0 and a[1] == code.l for a, _ in calls)


# --- compose once ---------------------------------------------------------------------------


def _verified_merge():
    """A verified 2-copy n1(2,2) scheme, its base and a source edge whose
    matrix the bound's rank needs."""
    code = scheme_merged("n1", 2, 2, 2, 2)
    assert verify(code.net, code).ok
    return code, build_n1(2, 2)


def _zero_source(code):
    e = min(code.src_mats)
    return rebuilt(code, src_mats={e: Mat(code.field, np.zeros((code.l, code.r), dtype=np.int64))})


def _one_decoder(code):
    t = code.net.terminals[0]
    mats = code.dec_mats[t]
    return rebuilt(code, dec_mats={t: (mats[0],) * len(mats)})


def _zero_in_edges(code):
    e = code.net.middle_edges()[0]
    zero = Mat(code.field, np.zeros((code.l, code.l), dtype=np.int64))
    return rebuilt(code, in_mats={e: (zero,) * len(code.in_mats[e])})


def test_a_verified_code_cannot_change_under_its_verdict():
    """Writing a zero matrix into a verified code's table and pointing its
    source slots at it used to leave the verdict in place, so that
    `bound_check` passed and `unroll_merged` unrolled a failing code."""
    net = build_n1(2, 2)
    code = scheme(net, "n1", 2, 2, 2)
    assert verify(net, code).ok
    zero = Mat(code.field, np.zeros((code.l, code.r), dtype=np.int64))
    with pytest.raises(AttributeError):
        code.mats.append(zero)
    with pytest.raises(AttributeError):
        code.mats[0].a = zero.a
    for name in ("src_idx", "in_idx", "dec_idx"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(code, name)[:] = 0
    for name in ("mats", "src_idx", "in_idx", "dec_idx", "src_mats", "in_mats", "dec_mats"):
        with pytest.raises(AttributeError):
            setattr(code, name, getattr(code, name))
    with pytest.raises(TypeError):
        code.src_mats[min(code.src_mats)] = zero
    assert verify_transfer(transfer(net, code)).ok

    changed = rebuilt(code, src_mats=dict.fromkeys(code.src_mats, zero))
    assert not verify_transfer(transfer(net, changed)).ok
    with pytest.raises(UnverifiedCodeError):
        bound_check(net, changed, "n1-with-groups", 2, 2)
    with pytest.raises(UnverifiedCodeError):
        unroll_merged(changed, 1, net)


@pytest.mark.parametrize("change", [_zero_source, _one_decoder, _zero_in_edges],
                         ids=lambda f: f.__name__.strip("_"))
def test_a_code_rebuilt_with_one_change_is_unverified_to_bound_check_and_unroll(change):
    code, base = _verified_merge()
    changed = change(code)
    with pytest.raises(UnverifiedCodeError):
        bound_check(changed.net, changed, "n1-with-groups", 2, 2)
    with pytest.raises(UnverifiedCodeError):
        unroll_merged(changed, 2, base)
    assert not verify(changed.net, changed).ok


def test_bound_check_and_unroll_use_what_verify_left(monkeypatch):
    import sumnets.coding as coding

    code, base = _verified_merge()
    fresh = code_from_json(code.net, code_to_json(code))
    want_bound = bound_check(code.net, fresh, "n1-with-groups", 2, 2)
    want_unrolled = code_to_json(unroll_merged(fresh, 2, base))

    def refuse(net, code):
        raise AssertionError("composed again")

    monkeypatch.setattr(coding, "transfer", refuse)
    assert bound_check(code.net, code, "n1-with-groups", 2, 2) == want_bound
    assert code_to_json(unroll_merged(code, 2, base)) == want_unrolled
    # bound_check verified `fresh` itself, and kept that verdict too.
    assert bound_check(code.net, fresh, "n1-with-groups", 2, 2) == want_bound
    # A code rebuilt with the same values is a new code, with no verdict.
    again = rebuilt(code)
    for call in (lambda: bound_check(again.net, again, "n1-with-groups", 2, 2),
                 lambda: unroll_merged(again, 2, base)):
        with pytest.raises(AssertionError, match="composed again"):
            call()


def test_a_failed_verify_is_kept_and_a_mended_rebuild_verifies(monkeypatch):
    import sumnets.coding as coding

    code, base = _verified_merge()
    failing = _zero_source(code)
    assert not verify(failing.net, failing).ok
    with monkeypatch.context() as patch:
        patch.setattr(coding, "transfer", lambda net, code: 1 / 0)
        with pytest.raises(UnverifiedCodeError):
            bound_check(failing.net, failing, "n1-with-groups", 2, 2)
        with pytest.raises(UnverifiedCodeError):
            unroll_merged(failing, 2, base)
    e = min(code.src_mats)
    mended = rebuilt(failing, src_mats={e: code.src_mats[e]})
    assert bound_check(mended.net, mended, "n1-with-groups", 2, 2).ok
    assert verify(base, unroll_merged(mended, 2, base)).ok
