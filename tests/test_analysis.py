import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

import sumnets.analysis
from sumnets.analysis import (
    BudgetExceededError,
    CompositeEncoding,
    Exhaustive,
    Random,
    bound_check,
    capacity,
    composites_from_code,
    feasible_decoders,
    routing_code,
    search,
    wrong_char_bound,
)
from sumnets._core_py import solvable_mod
from sumnets.coding import (
    UnsupportedNetworkError,
    UnverifiedCodeError,
    code_to_json,
    layer_shape,
    scheme,
    scheme_merged,
    transfer,
    verify,
)
from sumnets.constructions import (
    IN_SET,
    RateTarget,
    build_bottleneck2,
    build_for_rate,
    build_n1,
    build_n2,
    k_copy_merge,
)
from sumnets.galois import PrimeField
from sumnets.matrix import Mat
from sumnets.network import INTERMEDIATE, SOURCE, TERMINAL, Edge, Node, SumNetwork

from test_coding import code_mats
from test_constructions import _shuffled
from rebuild import rebuilt


def bottleneck_composite(p, a, b):
    net = build_bottleneck2()
    middle = net.middle_edges()[0]
    f = PrimeField(p)
    return net, CompositeEncoding(1, 1, f, {middle: Mat(f, np.array([[a, b]]))})


# --- decoder feasibility -----------------------------------------------------


def test_scheme_composites_are_feasible_and_sound():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    comps = composites_from_code(code.net, code)
    result = feasible_decoders(code.net, comps)
    assert result.feasible
    assert verify(code.net, result.code).ok


def test_zero_column_composite_is_infeasible():
    net, comps = bottleneck_composite(2, 1, 0)
    result = feasible_decoders(net, comps)
    assert not result.feasible
    assert result.failed_terminal == "t_1"


def test_gf3_equal_coefficients_feasible_unequal_not():
    net, comps = bottleneck_composite(3, 1, 1)
    result = feasible_decoders(net, comps)
    assert result.feasible
    assert verify(net, result.code).ok

    net, comps = bottleneck_composite(3, 1, 2)
    assert not feasible_decoders(net, comps).feasible


def test_feasible_decoders_on_family_two_composites():
    code = scheme(build_n2(2, 3), "n2", 2, 3, 2)
    comps = composites_from_code(code.net, code)
    result = feasible_decoders(code.net, comps)
    assert result.feasible
    assert verify(code.net, result.code).ok


@pytest.mark.parametrize(
    "mats, message",
    [
        ({}, "composite encoding does not cover exactly the middle edges"),
        ({2: [[1]]}, "composite for middle edge 2: expected shape (1, 2)"),
    ],
)
def test_feasible_decoders_refuses_composites_that_do_not_fit_the_shape(mats, message):
    f = PrimeField(2)
    comps = CompositeEncoding(1, 1, f, {me: Mat(f, np.array(rows)) for me, rows in mats.items()})
    with pytest.raises(ValueError) as err:
        feasible_decoders(build_bottleneck2(), comps)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: SumNetwork([Node("s", SOURCE), Node("t", TERMINAL)], [Edge("s", "t")]),
            "network has no middle edges",
        ),
        (lambda: four_source_direct_net(["s_1"]), "terminal t_3 cannot decode the sum"),
    ],
)
def test_routing_code_refusals(make, message):
    with pytest.raises(UnsupportedNetworkError) as err:
        routing_code(make(), 2)
    assert str(err.value) == message


# --- search ----------------------------------------------------------------


def brute_force_bottleneck_solutions(p):
    """Independent oracle: enumerate every encoder AND decoder assignment
    on the two-source bottleneck and collect the end-to-end middle-edge
    maps admitting a full solution."""
    winners = set()
    # coefficients: source edges (a, b), u->middle (e, f), middle->v is the
    # edge itself, v->t forwarding (g1, g2), decoders (d1, d2)
    for a, b, e, f, g1, g2, d1, d2 in itertools.product(range(p), repeat=8):
        c1 = (e * a) % p  # middle-edge coefficient on X_1
        c2 = (f * b) % p  # on X_2
        z1 = ((d1 * g1 * c1) % p, (d1 * g1 * c2) % p)
        z2 = ((d2 * g2 * c1) % p, (d2 * g2 * c2) % p)
        if z1 == (1, 1) and z2 == (1, 1):
            winners.add((c1, c2))
    return winners


@pytest.mark.parametrize("p,expected", [(2, 1), (3, 2)])
def test_exhaustive_search_matches_brute_force_oracle(p, expected):
    net = build_bottleneck2()
    result = search(net, 1, 1, p, Exhaustive())
    assert result.tried == p**2
    assert len(result.found) == expected
    found = {
        tuple(composites_from_code(net, code).mats[net.middle_edges()[0]].flat())
        for code in result.found
    }
    assert found == brute_force_bottleneck_solutions(p)
    for code in result.found:
        assert verify(net, code).ok


def test_exhaustive_budget_enforced():
    with pytest.raises(BudgetExceededError):
        search(build_n1(2, 2), 2, 3, 2, Exhaustive(budget=1000))


def test_random_search_is_deterministic_and_finds_nothing_at_wrong_characteristic():
    net = build_n1(2, 2)
    r1 = search(net, 2, 3, 3, Random(n=200, seed=1))
    r2 = search(net, 2, 3, 3, Random(n=200, seed=1))
    assert r1.tried == r2.tried == 200
    assert len(r1.found) == len(r2.found) == 0


@pytest.mark.parametrize(
    "r, l, strategy, name",
    [
        (0, 3, Random(n=5, seed=1), "r"),
        (-1, 3, Random(n=5, seed=1), "r"),
        (2, 0, Random(n=5, seed=1), "l"),
        (2, -2, Exhaustive(), "l"),
        (2, 3, Random(n=0, seed=1), "n"),
        (2, 3, Random(n=-3, seed=1), "n"),
        (2, 3, Random(n=5, seed=-1), "seed"),
    ],
)
def test_search_rejects_out_of_range_numbers(r, l, strategy, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        search(build_n1(1, 2), r, l, 3, strategy)


def test_decoder_solve_codes_share_equal_matrices():
    """A code from the decoder solve holds one Mat per distinct matrix, so
    transfer takes one direct product per distinct value."""
    codes = [routing_code(build_n1(2, 2), 2)]
    codes += search(build_n1(1, 2), 2, 2, 2, Random(500, 1)).found
    assert len(codes) > 1
    for code in codes:
        mats = code_mats(code)
        assert len({id(m) for m in mats}) == len({(m.shape, m.a.tobytes()) for m in mats})
        assert verify(code.net, code).ok


def test_random_search_can_find_bottleneck_solutions():
    net = build_bottleneck2()
    result = search(net, 1, 1, 2, Random(n=50, seed=0))
    assert result.found
    for code in result.found:
        assert verify(net, code).ok


FOUR_SOURCES = ["s_1", "s_2", "s_3", "s_4"]


def four_source_direct_net(t_3_directs=()):
    """Four sources share one middle edge; t_1 also has s_1 directly.
    With t_3_directs, a third terminal reads direct edges from those
    sources and nothing else."""
    t_3 = [Node("t_3", TERMINAL)] if t_3_directs else []
    return SumNetwork(
        [Node(s, SOURCE) for s in FOUR_SOURCES]
        + [Node("u", INTERMEDIATE), Node("v", INTERMEDIATE)]
        + [Node("t_1", TERMINAL), Node("t_2", TERMINAL)]
        + t_3,
        [Edge(s, "u") for s in FOUR_SOURCES]
        + [Edge("u", "v"), Edge("v", "t_1"), Edge("v", "t_2"), Edge("s_1", "t_1")]
        + [Edge(s, "t_3") for s in t_3_directs],
    )


def two_tap_direct_net():
    """Two middle edges both carry s_1 and s_2; t_1 taps both and has one
    direct edge from s_1, t_2 taps both.  At r = 2 > l = 1, t_1 can
    recover s_2 from its taps, but one direct edge cannot carry s_1."""
    return SumNetwork(
        [Node("s_1", SOURCE), Node("s_2", SOURCE)]
        + [Node(x, INTERMEDIATE) for x in ("u_1", "u_2", "v_1", "v_2")]
        + [Node("t_1", TERMINAL), Node("t_2", TERMINAL)],
        [Edge(s, u) for u in ("u_1", "u_2") for s in ("s_1", "s_2")]
        + [Edge("u_1", "v_1"), Edge("u_2", "v_2")]
        + [Edge(v, t) for t in ("t_1", "t_2") for v in ("v_1", "v_2")]
        + [Edge("s_1", "t_1")],
    )


def test_direct_edge_residual_does_not_overflow_at_the_modulus_ceiling():
    # t_1's decoder for the middle edge must cancel a product of two
    # entries near 2^31.
    net = four_source_direct_net()
    for p in (5, 2**31 - 1):
        result = search(net, 2, 8, p, Random(n=20, seed=3))
        assert result.found
        for code in result.found:
            assert verify(net, code).ok


# --- batched screen against the per-candidate loop --------------------------------


def reference_search(net, r, l, p, strategy):
    """The loop search ran before it screened in batches: every candidate's
    composites go to feasible_decoders, one at a time, in stream order.
    Returns (found codes, tried, rejections per terminal)."""
    field = PrimeField(p)
    shape = layer_shape(net)
    sizes = (l * r * np.diff(shape.feed_ptr)).tolist()
    ends = list(itertools.accumulate(sizes))
    total = ends[-1] if ends else 0
    if isinstance(strategy, Exhaustive):
        stream = itertools.product(range(p), repeat=total)
    else:
        rng = np.random.default_rng(strategy.seed)
        stream = (rng.integers(0, p, size=total, dtype=np.int64) for _ in range(strategy.n))
    found, tried, rejected = [], 0, {}
    for cells in stream:
        tried += 1
        cells = np.asarray(cells, dtype=np.int64)
        mats = {
            me: Mat(field, cells[end - size : end].reshape(l, -1))
            for me, size, end in zip(shape.middle.tolist(), sizes, ends)
        }
        result = feasible_decoders(net, CompositeEncoding(r, l, field, mats))
        if result.feasible:
            found.append(result.code)
        else:
            t = result.failed_terminal
            rejected[t] = rejected.get(t, 0) + 1
    return found, tried, {t: rejected[t] for t in net.terminals if t in rejected}


def nodes_reversed(net):
    """The same network with its node list, and so its terminal order,
    reversed."""
    return SumNetwork(list(reversed(net.nodes)), net.edges, net.in_order, list(net.source_order))


SCREEN_CASES = [
    ("n1(1,2)", lambda: build_n1(1, 2), 2, 2, 2, Random(n=500, seed=1)),
    ("n1(1,2)", lambda: build_n1(1, 2), 1, 2, 3, Random(n=1, seed=4)),
    ("n1(1,2)", lambda: build_n1(1, 2), 1, 1, 2, Exhaustive()),
    ("n2(1,2)", lambda: build_n2(1, 2), 1, 1, 3, Exhaustive()),
    ("n2(1,2)", lambda: build_n2(1, 2), 1, 2, 5, Random(n=37, seed=2)),
    ("n2(1,3)", lambda: build_n2(1, 3), 1, 2, 2, Random(n=300, seed=1)),
    ("n2(1,3)", lambda: build_n2(1, 3), 1, 2, 3, Random(n=300, seed=1)),
    ("n2(1,3)", lambda: build_n2(1, 3), 1, 2, 5, Random(n=300, seed=1)),
    ("n2(1,3)", lambda: build_n2(1, 3), 2, 2, 3, Random(n=1, seed=0)),
    ("bottleneck2", build_bottleneck2, 1, 1, 5, Exhaustive()),
    ("bottleneck2", build_bottleneck2, 2, 2, 2, Random(n=101, seed=0)),
    ("four-source", four_source_direct_net, 2, 8, 2**31 - 1, Random(n=20, seed=3)),
    ("four-source", four_source_direct_net, 2, 3, 127, Random(n=41, seed=5)),
    ("four-source", four_source_direct_net, 3, 2, 3, Random(n=50, seed=0)),
    # t_3 has every source directly: nothing to solve, every candidate passes it.
    ("t_3-all-direct", lambda: four_source_direct_net(FOUR_SOURCES), 2, 8, 5, Random(n=20, seed=3)),
    # t_3 has s_1 only, and no tap to read the rest from: it rejects everything.
    ("t_3-s_1-only", lambda: four_source_direct_net(["s_1"]), 2, 8, 5, Random(n=20, seed=3)),
    # Networks with blocks.  The n1 ones screen theirs at t_1, where some
    # candidates pass the block and are rejected by the full system.
    ("n1(2,2)", lambda: build_n1(2, 2), 1, 1, 2, Random(n=400, seed=1)),
    ("n2(2,3)", lambda: build_n2(2, 3), 1, 2, 3, Random(n=300, seed=2)),
    ("n1(3,2)x2", lambda: k_copy_merge(build_n1(3, 2), 2), 2, 2, 2, Random(n=200, seed=0)),
    ("n2(3,2)", lambda: build_n2(3, 2), 1, 2, 2, Random(n=300, seed=0)),
    # The n2 terminals with a block come last, and the two cases above
    # reject every candidate before them; in reverse node order they are
    # screened first.
    ("n2(2,3)-reversed", lambda: nodes_reversed(build_n2(2, 3)), 1, 2, 3, Random(n=300, seed=0)),
    ("n2(3,2)-reversed", lambda: nodes_reversed(build_n2(3, 2)), 1, 3, 2, Random(n=300, seed=0)),
    ("n2(3,2)-reversed", lambda: nodes_reversed(build_n2(3, 2)), 2, 3, 2, Random(n=300, seed=0)),
    # t_1 taps 31 edges and has no block: s_1 is read by every tap and two
    # sources by each tap alone, so every smaller tap set has as many
    # columns as rows.  A pick that tried every union of tap sets ran
    # through ~2^31 of them here before it gave up.
    ("n1(2,30)", lambda: build_n1(2, 30), 1, 2, 2, Random(n=20, seed=0)),
]


def _case_id(case):
    name, _, r, l, p, strategy = case
    return f"{name}-r{r}l{l}-p{p}-{type(strategy).__name__}{getattr(strategy, 'n', '')}"


@pytest.mark.parametrize("screen_bytes", [None, 4096, 1], ids=["default", "small", "one"])
@pytest.mark.parametrize(
    "name, make, r, l, p, strategy", SCREEN_CASES, ids=map(_case_id, SCREEN_CASES)
)
def test_search_matches_the_per_candidate_loop(
    monkeypatch, screen_bytes, name, make, r, l, p, strategy
):
    # A budget of 1 byte screens one candidate per chunk; 4096 gives chunks
    # of a few candidates, so most counts leave a partial last chunk.
    if screen_bytes is not None:
        monkeypatch.setattr(sumnets.analysis, "_SCREEN_BYTES", screen_bytes)
    net = make()
    want_found, want_tried, want_rejected = reference_search(net, r, l, p, strategy)
    result = search(net, r, l, p, strategy)
    assert result.tried == want_tried
    assert [code_to_json(c) for c in result.found] == [code_to_json(c) for c in want_found]
    assert result.rejected_at == want_rejected
    assert sum(result.rejected_at.values()) == result.tried - len(result.found)


RATE_3_5 = RateTarget(3, 5, (2,), IN_SET)


@pytest.mark.parametrize(
    "make, blocks",
    [
        (lambda: scheme(build_n1(2, 2), "n1", 2, 2, 2), 5),
        (lambda: scheme_merged("n1", 3, 2, 2, 2), 12),
        (lambda: scheme(build_n2(2, 3), "n2", 2, 3, 2), 4),
        (lambda: scheme_merged("n2", 3, 2, 3, 2), 9),
        (lambda: scheme(build_for_rate(RATE_3_5)[0], "n1", 9, 2, 2), 117),
    ],
    ids=["n1(2,2)", "n1(3,2)x2", "n2(2,3)", "n2(3,2)x2", "rate-3/5"],
)
def test_verified_codes_pass_every_block_and_no_other_tap_reads_its_columns(make, blocks):
    # A block is exact only if the taps left out of it are zero on its
    # columns; then every code with decoders, as a verified code's
    # composites have, solves it.
    code = make()
    net, r, l, p = code.net, code.r, code.l, code.field.p
    shape = layer_shape(net)
    comps = composites_from_code(net, code)
    cells = np.concatenate([comps.mats[me].a.ravel() for me in shape.middle.tolist()] + [[0]])
    systems = sumnets.analysis._DecoderSystems(net, shape, r, l)
    seen = 0
    for i in range(len(net.terminals)):
        gather, rhs, _, _ = systems.of(i)
        block = systems.block(i)
        if block is None:
            continue
        seen += 1
        rows, cols = block
        assert len(cols) > len(rows) and len(rows) < len(gather)
        outside = np.setdiff1d(np.arange(len(gather)), rows)
        assert (gather[np.ix_(outside, cols)] == systems.starts[-1]).all()
        x = np.vstack([cells[gather[np.ix_(rows, cols)]], rhs[:, cols]])[None]
        assert solvable_mod(x, len(rows), p).tolist() == [True]
    assert seen == blocks


@pytest.mark.parametrize("p", [2, 3, 5])
def test_n2_1_3_has_rate_one_half_codes_in_every_characteristic(p):
    net = build_n2(1, 3)
    result = search(net, 1, 2, p, Random(n=300, seed=1))
    assert result.found
    for code in result.found:
        assert verify(net, code).ok


@pytest.mark.parametrize("screen_bytes", [None, 1], ids=["default", "one"])
def test_direct_edges_too_narrow_raise_as_in_the_per_candidate_loop(monkeypatch, screen_bytes):
    if screen_bytes is not None:
        monkeypatch.setattr(sumnets.analysis, "_SCREEN_BYTES", screen_bytes)
    net = two_tap_direct_net()
    with pytest.raises(UnsupportedNetworkError) as want:
        reference_search(net, 2, 1, 3, Random(n=30, seed=0))
    with pytest.raises(UnsupportedNetworkError) as got:
        search(net, 2, 1, 3, Random(n=30, seed=0))
    assert str(got.value) == str(want.value)
    assert "s_1 -> t_1" in str(got.value)


def test_search_refuses_to_return_a_candidate_feasible_decoders_rejects(monkeypatch):
    net = build_bottleneck2()
    rejects = lambda *a, **k: sumnets.analysis.DecodeResult(None, "t_1")  # noqa: E731
    monkeypatch.setattr(sumnets.analysis, "_decode", rejects)
    with pytest.raises(RuntimeError, match="internal error"):
        search(net, 1, 1, 2, Exhaustive())


def test_a_screen_that_passes_everything_cannot_return_a_wrong_code(monkeypatch):
    # Over GF(3), n1(1,2) has no rate-1 code: the decoder solve behind the
    # screen must catch every candidate a broken screen lets through.
    passes = lambda x, m, p: np.ones(len(x), dtype=bool)  # noqa: E731
    monkeypatch.setattr(sumnets.analysis, "solvable_mod", passes)
    with pytest.raises(RuntimeError, match="internal error"):
        search(build_n1(1, 2), 2, 2, 3, Random(n=20, seed=1))


# --- capacity formulas --------------------------------------------------------


def test_capacity_examples():
    assert capacity("n1", 9, 2, 3) == Fraction(3, 5)
    assert capacity("n1", 1, 2, 1) == 1
    assert capacity("n2", 3, 2, 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        capacity("n3", 2, 2)


def test_wrong_char_bound_examples():
    assert wrong_char_bound(2, 2) == Fraction(6, 11)
    assert wrong_char_bound(3, 2) == Fraction(3, 7)  # 2/(4 + 2/3)


def test_wrong_char_bound_strictly_below_capacity():
    for m in range(1, 11):
        for q in range(2, 31):
            assert wrong_char_bound(m, q) < Fraction(2, m + 1)


# --- bound certificates ----------------------------------------------------------


def test_group_recovery_certificate():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    report = bound_check(code.net, code, "n1-with-groups", 2, 2)
    assert report.rank == report.required == 2 * 11
    assert report.implied == Fraction(2, 3)
    assert report.ok
    assert "PASS" in report.to_text()


def test_bound_report_names_the_stacked_matrix():
    # n1(1,2) over GF(2): a rate-1 code with r = l = 2 on 4 sources and
    # 3 middle edges; the m*r selector rows are one I_r block each.
    code = scheme(build_n1(1, 2), "n1", 1, 2, 2)
    assert (code.r, code.l) == (2, 2)
    report = bound_check(code.net, code, "n1-with-groups", 1, 2)
    tm = transfer(code.net, code)
    middle_nonzeros = sum(int(np.count_nonzero(tm.edge_matrix(me).a)) for me in code.net.middle_edges())
    assert report.stacked_shape == (1 * 2 + 3 * 2, 2 * 4)
    assert report.stacked_nonzeros == 1 * 2 + middle_nonzeros
    assert f"stacked recovery map: 8x8, {report.stacked_nonzeros} nonzeros\n" in report.to_text()
    doc = report.to_json()
    assert doc["stacked_shape"] == [8, 8]
    assert doc["stacked_nonzeros"] == report.stacked_nonzeros
    assert doc["rank"] == 8 and doc["pass"] is True


def test_middle_only_certificate_on_routing_code():
    net = build_n1(2, 2)
    code = routing_code(net, 3)
    report = bound_check(net, code, "n1-middle-only", 2, 2)
    assert report.rank == report.required == 11
    assert report.implied == Fraction(6, 11)
    assert report.ok


def test_family_two_certificate():
    code = scheme(build_n2(2, 2), "n2", 2, 2, 3)
    report = bound_check(code.net, code, "n2-middle-only", 2, 2)
    assert report.rank == report.required == 2 * 9
    assert report.implied == Fraction(2, 3)
    assert report.ok


def test_family_two_redundancy_certificate():
    net = build_n2(2, 2)
    code = routing_code(net, 2)
    report = bound_check(net, code, "n2-redundancy", 2, 2)
    assert report.rank == report.required == 9
    assert report.implied == Fraction(6, 11)
    assert report.redundancy_ok is True
    assert report.ok
    assert report.to_json()["pass"] is True


def test_bound_check_requires_verifying_code():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    zero = Mat(code.field, np.zeros((code.l, code.r), dtype=np.int64))
    code = rebuilt(code, src_mats={0: zero})
    with pytest.raises(UnverifiedCodeError):
        bound_check(code.net, code, "n1-with-groups", 2, 2)


def test_bound_check_rejects_inapplicable_mode():
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    with pytest.raises(ValueError):
        bound_check(code.net, code, "n2-redundancy", 2, 2)
    with pytest.raises(ValueError):
        bound_check(code.net, code, "sideways", 2, 2)


@pytest.mark.parametrize("verifying", [True, False])
def test_bound_check_refuses_a_mode_before_any_transfer(monkeypatch, verifying):
    import sumnets.coding

    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    if not verifying:
        zero = Mat(code.field, np.zeros((code.l, code.r), dtype=np.int64))
        code = rebuilt(code, src_mats={0: zero})

    def no_transfer(*args):
        raise AssertionError("transfer ran for a mode that does not apply")

    monkeypatch.setattr(sumnets.coding, "transfer", no_transfer)
    with pytest.raises(ValueError, match="does not apply"):
        bound_check(code.net, code, "n2-middle-only", 2, 2)


@pytest.mark.parametrize("m,q,message", [(0, 2, "m must be >= 1, got 0"), (1, -1, "q must be >= 2, got -1")])
def test_bound_check_refuses_m_and_q_out_of_range(m, q, message):
    code = scheme(build_n1(2, 2), "n1", 2, 2, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        bound_check(code.net, code, "n1-with-groups", m, q)


def one_source_three_middle_net():
    """s_1 feeds three middle edges u_1_j -> v_1_j, all read by t_1."""
    js = (1, 2, 3)
    return SumNetwork(
        [Node("s_1", SOURCE), Node("t_1", TERMINAL)]
        + [Node(f"{x}_1_{j}", INTERMEDIATE) for x in ("u", "v") for j in js],
        [Edge("s_1", f"u_1_{j}") for j in js]
        + [Edge(f"u_1_{j}", f"v_1_{j}") for j in js]
        + [Edge(f"v_1_{j}", "t_1") for j in js],
    )


def test_group_mode_refuses_a_network_with_only_the_group_sources():
    # m = 1 group source and nothing else: the implied bound would divide by zero.
    net = one_source_three_middle_net()
    code = routing_code(net, 2)
    assert verify(net, code).ok
    with pytest.raises(ValueError, match=r"^mode n1-with-groups .* m=1; the network has 1$"):
        bound_check(net, code, "n1-with-groups", 1, 2)


def test_rate_always_satisfies_its_certificate():
    cases = [
        (scheme(build_n1(3, 6), "n1", 3, 6, 2), "n1-with-groups", 3, 6),
        (scheme(build_n2(3, 2), "n2", 3, 2, 5), "n2-middle-only", 3, 2),
    ]
    for code, mode, m, q in cases:
        report = bound_check(code.net, code, mode, m, q)
        assert report.consistent
        assert Fraction(code.r, code.l) <= report.implied


# --- layer_shape on the arrays against the walk it replaced ---------------------------


@dataclass
class ReferenceShape:
    """What the reference walk returns: middle edge indices; per middle
    edge, the source labels wired into its tail; per terminal, (position,
    middle edge) taps and source label -> direct in-edge positions."""

    middle: list[int]
    src_order: dict[int, list[str]]
    term_taps: dict[str, list[tuple[int, int]]]
    term_directs: dict[str, dict[str, list[int]]]


def reference_layer_shape(net: SumNetwork) -> ReferenceShape:
    """An earlier body of `coding.layer_shape`, kept verbatim: a walk
    over Edge objects and the terminals' in-edges."""
    middle = net.middle_edges()
    edges = net.edges
    sources = set(net.sources)
    terminals = net.terminals
    terminal_set = set(terminals)
    u_nodes: dict[str, int] = {}
    v_nodes: dict[str, int] = {}
    for me in middle:
        e = edges[me]
        if e.tail in u_nodes or e.head in v_nodes:
            raise UnsupportedNetworkError("intermediate node on two middle edges")
        u_nodes[e.tail] = me
        v_nodes[e.head] = me
    src_order: dict[int, list[str]] = {}
    for label in net.intermediates:
        if label in u_nodes:
            me = u_nodes[label]
            if np.flatnonzero(net.tail == net.entries_of([label])[0]).tolist() != [me]:
                raise UnsupportedNetworkError(f"node {label} must feed only its middle edge")
            tails = []
            for ei in net.in_edges(label):
                tail = edges[ei].tail
                if tail not in sources:
                    raise UnsupportedNetworkError(f"non-source feed into {label}")
                if tail in tails:
                    raise UnsupportedNetworkError(f"duplicate source edge {tail} -> {label}")
                tails.append(tail)
            src_order[me] = tails
        elif label in v_nodes:
            out = np.flatnonzero(net.tail == net.entries_of([label])[0]).tolist()
            if any(edges[i].head not in terminal_set for i in out):
                raise UnsupportedNetworkError(f"node {label} must feed terminals only")
            if len(net.in_edges(label)) != 1:
                raise UnsupportedNetworkError(f"node {label} must have a single in-edge")
        else:
            raise UnsupportedNetworkError(f"intermediate {label} is on no middle edge")
    term_taps: dict[str, list[tuple[int, int]]] = {}
    term_directs: dict[str, dict[str, list[int]]] = {}
    for t in terminals:
        taps: list[tuple[int, int]] = []
        directs: dict[str, list[int]] = {}
        for pos, ei in enumerate(net.in_edges(t)):
            tail = edges[ei].tail
            if tail in sources:
                directs.setdefault(tail, []).append(pos)
            else:
                taps.append((pos, v_nodes[tail]))
        term_taps[t] = taps
        term_directs[t] = directs
    return ReferenceShape(middle, src_order, term_taps, term_directs)


def assert_shape_as_reference(net: SumNetwork) -> None:
    """layer_shape's arrays hold what the reference's dicts hold: the
    feeds as source positions, the taps slot by slot, and the direct
    slots grouped by source in first-slot order, as the decoder systems
    read them.  Where the reference refuses, layer_shape raises the same
    UnsupportedNetworkError; where the reference's tap lookup raises a
    KeyError, layer_shape raises an UnsupportedNetworkError naming that
    label."""
    try:
        want = reference_layer_shape(net)
    except UnsupportedNetworkError as exc:
        with pytest.raises(UnsupportedNetworkError) as err:
            layer_shape(net)
        assert str(err.value) == str(exc)
        return
    except KeyError as exc:
        with pytest.raises(UnsupportedNetworkError, match=re.escape(exc.args[0])):
            layer_shape(net)
        return
    got = layer_shape(net)
    assert got.middle.tolist() == want.middle
    pos = {s: i for i, s in enumerate(net.source_order)}
    for i, me in enumerate(want.middle):
        assert got.feeds_of(i).tolist() == [pos[s] for s in want.src_order[me]]
    lay = net.layout()
    tap = np.full(len(lay.term_edges), -1)
    for i, t in enumerate(net.terminals):
        for slot, me in want.term_taps[t]:
            tap[lay.term_ptr[i] + slot] = want.middle.index(me)
    assert got.tap.tolist() == tap.tolist()
    systems = sumnets.analysis._DecoderSystems(net, got, 1, 1)
    for i, t in enumerate(net.terminals):
        directs = [(pos[s], slots) for s, slots in want.term_directs[t].items()]
        assert list(systems.of(i)[3].items()) == directs


FAMILY_CELLS = [(b, m, q) for b in (build_n1, build_n2) for m in (1, 2, 3) for q in (2, 3, 6)]


@pytest.mark.parametrize("build,m,q", FAMILY_CELLS, ids=lambda x: getattr(x, "__name__", x))
def test_layer_shape_matches_the_reference_on_every_family_cell(build, m, q):
    assert_shape_as_reference(build(m, q))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("build,m,q", [(build_n1, 2, 2), (build_n2, 2, 3), (build_n1, 9, 2)])
def test_layer_shape_matches_the_reference_on_merges(build, m, q, k):
    assert_shape_as_reference(k_copy_merge(build(m, q), k))


@pytest.mark.parametrize("seed", range(3))
def test_layer_shape_matches_the_reference_with_shuffled_in_edges(seed):
    assert_shape_as_reference(_shuffled(k_copy_merge(build_n2(2, 2), 2), seed)[0])


def _rejected_networks():
    """Networks layer_shape refuses, one per message; in the last, a
    terminal reads a terminal, which the reference's tap lookup refuses
    with a KeyError."""
    s1, s2, t1 = Node("s_1", SOURCE), Node("s_2", SOURCE), Node("t_1", TERMINAL)
    inter = [Node(x, INTERMEDIATE) for x in ("u", "v", "w")]
    base = [Edge("s_1", "u"), Edge("s_2", "u"), Edge("u", "v"), Edge("v", "t_1")]
    nets = {
        "two middles into v": SumNetwork([s1, s2, *inter, t1], base + [Edge("w", "v"), Edge("s_1", "w")]),
        "two middles from u": SumNetwork([s1, s2, *inter, t1], base + [Edge("u", "w"), Edge("w", "t_1")]),
        "u feeds a terminal": SumNetwork([s1, s2, *inter[:2], t1], base + [Edge("u", "t_1")]),
        "middle feeds a middle": SumNetwork(
            [s1, s2, *inter, t1], base[:3] + [Edge("v", "w"), Edge("w", "t_1")]
        ),
        "duplicate feed": SumNetwork([s1, s2, *inter[:2], t1], base + [Edge("s_1", "u", 1)]),
        "v feeds a source": SumNetwork([s1, s2, *inter[:2], t1], base + [Edge("v", "s_1")]),
        "v has two in-edges": SumNetwork([s1, s2, *inter[:2], t1], base + [Edge("s_1", "v")]),
        "idle intermediate": SumNetwork([s1, s2, *inter, t1], base),
        "terminal feeds a terminal": SumNetwork(
            [s1, s2, *inter[:2], t1, Node("t_2", TERMINAL)], base + [Edge("t_1", "t_2")]
        ),
    }
    return nets


REJECTED = _rejected_networks()


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_layer_shape_refuses_as_the_reference_refuses(name):
    with pytest.raises((UnsupportedNetworkError, KeyError)):
        reference_layer_shape(REJECTED[name])
    assert_shape_as_reference(REJECTED[name])
