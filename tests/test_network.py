"""The network model, its file reader and writer, `validate` and
`topo_order`.

`reference_deserialize`, `reference_validate` and `reference_topo_order`
below are the bodies of `network.deserialize`, `network.validate` and
`network._topo_order` from before the network moved to int arrays, kept
verbatim except that they call each other.  They work on `Node` and
`Edge` objects and label-keyed dicts.  The array versions must accept
exactly the documents the reference accepts, refuse the rest with the
same message, and report the same violations in the same order.
"""

import heapq
import json

import numpy as np
import pytest

from sumnets.constructions import (
    IN_SET,
    RateTarget,
    build_bottleneck2,
    build_for_rate,
    build_n1,
    build_n2,
    k_copy_merge,
)
from sumnets.network import (
    FORMAT_VERSION,
    INTERMEDIATE,
    ROLES,
    SOURCE,
    TERMINAL,
    CycleError,
    Edge,
    NetworkFormatError,
    Node,
    SumNetwork,
    _expect,
    _level_order,
    _read_by_position,
    deserialize,
    serialize,
    to_dot,
    topo_order,
    validate,
)

from test_constructions import _shuffled
from test_golden import BUILDERS, NETWORKS

# --- the reference reader -----------------------------------------------------------


def reference_validate(net: SumNetwork) -> list[str]:
    """All structural invariants; returns a list of violations (empty = ok)."""
    violations: list[str] = []
    seen_labels: set[str] = set()
    for n in net.nodes:
        if n.label in seen_labels:
            violations.append(f"duplicate node label {n.label!r}")
        seen_labels.add(n.label)
        if n.role not in ROLES:
            violations.append(f"unknown role {n.role!r} on node {n.label!r}")

    seen_edges: set[tuple[str, str, int]] = set()
    for i, e in enumerate(net.edges):
        key = (e.tail, e.head, e.par)
        if key in seen_edges:
            violations.append(f"duplicate edge {e.label}")
        seen_edges.add(key)
        for end in (e.tail, e.head):
            if end not in seen_labels:
                violations.append(f"edge {e.label} references unknown node {end!r}")
        if net.has_node(e.tail) and net.role(e.tail) == TERMINAL:
            violations.append(f"terminal has out-edge: {e.label}")
        if net.has_node(e.head) and net.role(e.head) == SOURCE:
            violations.append(f"source has in-edge: {e.label}")

    natural = {n.label: set() for n in net.nodes}
    for i, e in enumerate(net.edges):
        if e.head in natural:
            natural[e.head].add(i)
    for label, order in net.in_order.items():
        if set(order) != natural.get(label, set()) or len(order) != len(set(order)):
            violations.append(f"in_order for {label!r} is not a permutation of its in-edges")

    srcs = [s for s in net.source_order]
    if sorted(srcs) != sorted(net.sources) or len(srcs) != len(set(srcs)):
        violations.append("source_order is not a permutation of the sources")

    try:
        reference_topo_order(net)
    except CycleError:
        violations.append("cycle detected")
    return violations


def reference_topo_order(net: SumNetwork) -> list[int]:
    pending = {n.label: len(net.in_order.get(n.label, ())) for n in net.nodes}
    ready: list[int] = []
    emitted = [False] * len(net.edges)
    for i, e in enumerate(net.edges):
        if pending.get(e.tail, 0) == 0:
            heapq.heappush(ready, i)
    out: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        if emitted[i]:
            continue
        emitted[i] = True
        out.append(i)
        head = net.edges[i].head
        if head in pending:
            pending[head] -= 1
            if pending[head] == 0:
                for j in np.flatnonzero(net.tail == net.entries_of([head])[0]).tolist():
                    heapq.heappush(ready, j)
    if len(out) != len(net.edges):
        raise CycleError("cycle detected")
    return out


def reference_deserialize(data: bytes) -> SumNetwork:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NetworkFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise NetworkFormatError(
            "not valid JSON: the network file nests deeper than the recursion limit"
        ) from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("top level must be an object")
    version = _expect(doc, "version", int)
    if version != FORMAT_VERSION:
        raise NetworkFormatError(f"unsupported version {version}")
    nodes = []
    for i, item in enumerate(_expect(doc, "nodes", list)):
        if not isinstance(item, dict):
            raise NetworkFormatError(f"nodes[{i}] must be an object")
        label = item.get("label")
        role = item.get("role")
        if not isinstance(label, str):
            raise NetworkFormatError(f"nodes[{i}].label must be a string")
        if role not in ROLES:
            raise NetworkFormatError(f"nodes[{i}].role: unknown role {role!r}")
        nodes.append(Node(label, role))
    labels = {n.label for n in nodes}
    edges = []
    for i, item in enumerate(_expect(doc, "edges", list)):
        if not isinstance(item, dict):
            raise NetworkFormatError(f"edges[{i}] must be an object")
        tail, head, par = item.get("tail"), item.get("head"), item.get("par")
        if not isinstance(tail, str) or not isinstance(head, str):
            raise NetworkFormatError(f"edges[{i}].tail/head must be strings")
        if tail not in labels:
            raise NetworkFormatError(f"edges[{i}].tail: unknown node {tail!r}")
        if head not in labels:
            raise NetworkFormatError(f"edges[{i}].head: unknown node {head!r}")
        if type(par) is not int:
            raise NetworkFormatError(f"edges[{i}].par must be an integer")
        edges.append(Edge(tail, head, par))
    in_order_raw = _expect(doc, "in_order", dict)
    in_order: dict[str, list[int]] = {}
    for label, order in in_order_raw.items():
        if label not in labels:
            raise NetworkFormatError(f"in_order[{label!r}]: unknown node")
        if not isinstance(order, list) or not all(
            type(i) is int and 0 <= i < len(edges) for i in order
        ):
            raise NetworkFormatError(f"in_order[{label!r}] must list edge indices")
        in_order[label] = order
    source_order = _expect(doc, "source_order", list)
    if not all(isinstance(s, str) for s in source_order):
        raise NetworkFormatError("source_order must list node labels")
    return SumNetwork(nodes, edges, in_order, list(source_order))


def _topo_or_cycle(order, net):
    try:
        return order(net)
    except CycleError as exc:
        return str(exc)


def assert_checks_as_reference(net: SumNetwork) -> None:
    """`validate` and `topo_order` agree with the references on net."""
    assert validate(net) == reference_validate(net)
    assert _topo_or_cycle(topo_order, net) == _topo_or_cycle(reference_topo_order, net)


def assert_reads_as_reference(data: bytes) -> None:
    """`deserialize` loads what the reference loads, and then validates
    it the same way, or refuses with the same message."""
    try:
        want = reference_deserialize(data)
    except NetworkFormatError as exc:
        with pytest.raises(NetworkFormatError) as err:
            deserialize(data)
        assert str(err.value) == str(exc)
        return
    got = deserialize(data)
    assert got == want
    assert got.nodes == want.nodes and got.edges == want.edges
    assert got.in_order == want.in_order and got.source_order == want.source_order
    assert_checks_as_reference(got)
    assert serialize(got) == serialize(want)


def tiny_path():
    nodes = [Node("s", SOURCE), Node("u", INTERMEDIATE), Node("t", TERMINAL)]
    edges = [Edge("s", "u"), Edge("u", "t")]
    return SumNetwork(nodes, edges)


def test_validate_built_network_ok():
    assert validate(build_n1(2, 2)) == []


def test_validate_rejects_edge_into_source():
    net = SumNetwork(
        [Node("s", SOURCE), Node("t", TERMINAL)],
        [Edge("s", "t"), Edge("t", "s")],
    )
    problems = validate(net)
    assert any("source has in-edge" in v for v in problems)
    assert any("terminal has out-edge" in v for v in problems)


def random_network(seed: int, kind: str) -> SumNetwork:
    """A random network with parallel edges: a DAG with every in-edge
    order shuffled ("dag"), the same with back edges ("cyclic"), or a DAG
    where the in-edge order of one node with in-edges drops one, repeats
    one or adds a foreign edge ("unlisted")."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    roles = [SOURCE] + [ROLES[i] for i in rng.integers(0, 3, size=n - 1)]
    nodes = [Node(f"x{i}", role) for i, role in enumerate(roles)]
    pairs = [tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(rng.integers(1, 3 * n))]
    if kind == "cyclic":
        pairs += [(b, a) for a, b in pairs[: rng.integers(1, 3)]]
    edges = [Edge(f"x{a}", f"x{b}", k) for k, (a, b) in enumerate(pairs)]
    orders = [rng.permutation([k for k, (_, b) in enumerate(pairs) if b == i]).tolist() for i in range(n)]
    if kind == "unlisted":
        order = orders[pairs[rng.integers(len(pairs))][1]]
        change = rng.integers(3)
        if change == 0:
            order.pop()
        elif change == 1:
            order.append(order[0])
        else:
            order.append(int(rng.integers(len(edges))))
    return SumNetwork(nodes, edges, {f"x{i}": order for i, order in enumerate(orders)})


CYCLE_CASES = {
    "two nodes": SumNetwork(
        [Node("a", INTERMEDIATE), Node("b", INTERMEDIATE)], [Edge("a", "b"), Edge("b", "a")]
    ),
    **{f"{kind} {seed}": random_network(seed, kind)
       for kind in ("dag", "cyclic", "unlisted") for seed in range(12)},
}


@pytest.mark.parametrize("name", sorted(CYCLE_CASES))
def test_validate_detects_cycle(name):
    """validate's verdict and the level order (`_level_order`) follow the
    heap (`reference_topo_order`): both release a node when as many edges
    into it have gone as its in-edge order lists."""
    net = CYCLE_CASES[name]
    want = _topo_or_cycle(reference_topo_order, net)
    cyclic = want == "cycle detected"
    assert ("cycle detected" in validate(net)) == cyclic
    if not name.startswith("unlisted"):
        assert cyclic == name.startswith(("two", "cyclic"))
    if cyclic:
        for order in (topo_order, _level_order):
            with pytest.raises(CycleError):
                order(net)
        return
    order = _level_order(net).tolist()
    assert sorted(order) == sorted(want)
    listed = np.diff(net.in_ptr)
    gone = np.zeros(len(net.label_table), dtype=int)  # edges gone into each node
    for e in order:
        assert gone[net.tail[e]] >= listed[net.tail[e]], e
        gone[net.head[e]] += 1


def test_validate_duplicate_edges_and_labels():
    net = SumNetwork(
        [Node("s", SOURCE), Node("s", SOURCE), Node("t", TERMINAL)],
        [Edge("s", "t", 0), Edge("s", "t", 0)],
    )
    problems = validate(net)
    assert any("duplicate node label" in v for v in problems)
    assert any("duplicate edge" in v for v in problems)


def test_parallel_edges_are_distinct():
    net = SumNetwork(
        [Node("s", SOURCE), Node("t", TERMINAL)],
        [Edge("s", "t", 0), Edge("s", "t", 1)],
    )
    assert validate(net) == []
    assert net.edges[0].label != net.edges[1].label


def test_topo_order_trivia():
    single = SumNetwork([Node("s", SOURCE), Node("t", TERMINAL)], [Edge("s", "t")])
    assert topo_order(single) == [0]
    assert topo_order(tiny_path()) == [0, 1]


def test_topo_order_respects_precedence_on_built_network():
    net = build_n1(2, 2)
    order = topo_order(net)
    assert sorted(order) == list(range(len(net.edges)))
    position = {ei: at for at, ei in enumerate(order)}
    for ei, e in enumerate(net.edges):
        for upstream in net.in_edges(e.tail):
            assert position[upstream] < position[ei]


def test_topo_order_deterministic():
    net = build_n1(3, 2)
    assert topo_order(net) == topo_order(net)


def test_serialize_round_trip_byte_identical():
    net = build_n1(2, 2)
    data = serialize(net)
    again = deserialize(data)
    assert again == net
    assert serialize(again) == data
    assert data.endswith(b"\n")


def test_deserialize_rejects_truncated_input():
    data = serialize(tiny_path())
    with pytest.raises(NetworkFormatError):
        deserialize(data[: len(data) // 2])


def test_deserialize_rejects_unknown_role_naming_the_field():
    bad = serialize(tiny_path()).replace(b'"role":"source"', b'"role":"sink"')
    with pytest.raises(NetworkFormatError, match="role"):
        deserialize(bad)


def test_deserialize_rejects_missing_field():
    with pytest.raises(NetworkFormatError, match="version"):
        deserialize(b"{}")


@pytest.mark.parametrize(
    "data", [b"[" * 100_000, b"[" * 100_000 + b"]" * 100_000], ids=["unterminated", "balanced"]
)
def test_deserialize_refuses_json_nested_past_the_recursion_limit(data):
    message = "^not valid JSON: the network file nests deeper"
    with pytest.raises(NetworkFormatError, match=message):
        deserialize(data)


def test_deserialize_rejects_bad_edge_index_in_order():
    data = serialize(tiny_path()).replace(b'"u":[0]', b'"u":[9]')
    with pytest.raises(NetworkFormatError, match="in_order"):
        deserialize(data)


@pytest.mark.parametrize(
    "old, new, field",
    [
        (b'{"head":"u","par":0,"tail":"s"}', b'{"head":"u","par":0,"tail":"x"}', "edges[0].tail"),
        (b'{"head":"t","par":0,"tail":"u"}', b'{"head":"y","par":0,"tail":"u"}', "edges[1].head"),
        (b'"u":[0]', b'"u":[0],"ghost":[]', "in_order['ghost']"),
    ],
)
def test_deserialize_rejects_dangling_references(old, new, field):
    data = serialize(tiny_path())
    assert old in data
    with pytest.raises(NetworkFormatError) as err:
        deserialize(data.replace(old, new))
    assert str(err.value).startswith(field)


def test_dot_export():
    dot = to_dot(build_n1(2, 2))
    assert dot.startswith("digraph")
    assert dot.count("color=red") == 6  # m(q+1) highlighted middle edges
    assert '"s_1" [shape=box];' in dot
    assert '"t_1" [shape=doublecircle];' in dot
    single = to_dot(tiny_path())
    assert '"s" -> "u";' in single


def test_dot_of_empty_network():
    dot = to_dot(SumNetwork([], []))
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")


@pytest.mark.parametrize(
    "old, new, field",
    [
        (b'"version":1', b'"version":true', "field 'version'"),
        (b'{"head":"u","par":0,"tail":"s"}', b'{"head":"u","par":false,"tail":"s"}', "edges[0].par"),
        (b'{"head":"t","par":0,"tail":"u"}', b'{"head":"t","par":true,"tail":"u"}', "edges[1].par"),
        (b'"u":[0]', b'"u":[false]', "in_order['u']"),
        (b'"t":[1]', b'"t":[true]', "in_order['t']"),
    ],
)
def test_deserialize_refuses_a_boolean_where_an_integer_belongs(old, new, field):
    data = serialize(tiny_path())
    assert old in data
    with pytest.raises(NetworkFormatError) as err:
        deserialize(data.replace(old, new))
    assert str(err.value).startswith(field)


# --- the array reader and checks against the reference ----------------------------------


def _malformed():
    """(name, document) pairs: the malformed documents of the tests
    above, and more, each refused or loaded as the reference does."""
    path = serialize(tiny_path())
    n1 = serialize(build_n1(1, 2))
    doc = json.loads(n1)
    cases = {
        "truncated": path[: len(path) // 2],
        "not utf-8": b"\xff" + path,
        "not an object": b"[1, 2]",
        "empty object": b"{}",
        "sink role": path.replace(b'"role":"source"', b'"role":"sink"'),
        "bad in_order index": path.replace(b'"u":[0]', b'"u":[9]'),
        "negative in_order index": path.replace(b'"u":[0]', b'"u":[-1]'),
        "in_order not a list": path.replace(b'"u":[0]', b'"u":0'),
        "in_order float": path.replace(b'"u":[0]', b'"u":[0.0]'),
        "unknown tail": path.replace(b'"tail":"s"', b'"tail":"x"'),
        "unknown head": path.replace(b'"head":"t"', b'"head":"y"'),
        "ghost in_order": path.replace(b'"u":[0]', b'"u":[0],"ghost":[]'),
        "version true": path.replace(b'"version":1', b'"version":true'),
        "version 2": path.replace(b'"version":1', b'"version":2'),
        "par false": path.replace(b'"par":0,"tail":"s"', b'"par":false,"tail":"s"'),
        "par float": path.replace(b'"par":0,"tail":"u"', b'"par":1.0,"tail":"u"'),
        "par huge": path.replace(b'"par":0,"tail":"u"', b'"par":100000000000000000000,"tail":"u"'),
        "par negative": path.replace(b'"par":0,"tail":"u"', b'"par":-9223372036854775809,"tail":"u"'),
        "in_order true": path.replace(b'"t":[1]', b'"t":[true]'),
        "nested": b"[" * 100_000,
    }
    for field, junk in [("nodes", {}), ("edges", 5), ("in_order", []), ("source_order", "s")]:
        bad = dict(doc, **{field: junk})
        cases[f"{field} of the wrong type"] = json.dumps(bad).encode()
        cases[f"{field} missing"] = json.dumps({k: v for k, v in doc.items() if k != field}).encode()
    edited = [
        ("edge not an object", lambda d: d["edges"].__setitem__(3, [1])),
        ("tail not a string", lambda d: d["edges"][2].__setitem__("tail", 7)),
        ("head missing", lambda d: d["edges"][4].pop("head")),
        ("two faults, second edge first", lambda d: (d["edges"][5].__setitem__("par", "0"),
                                                     d["edges"][9].__setitem__("tail", None))),
        ("label not a string", lambda d: d["nodes"][1].__setitem__("label", None)),
        ("node not an object", lambda d: d["nodes"].__setitem__(0, "s_1")),
        ("duplicate label", lambda d: d["nodes"].append(dict(d["nodes"][0]))),
        ("duplicate label, other role", lambda d: d["nodes"].append({"label": "s_1", "role": TERMINAL})),
        ("duplicate edge", lambda d: d["edges"].__setitem__(1, d["edges"][0])),
        ("in-edge listed twice", lambda d: d["in_order"]["t_1"].append(d["in_order"]["t_1"][0])),
        ("in-edge missing", lambda d: d["in_order"]["t_1"].pop()),
        ("foreign in-edge", lambda d: d["in_order"]["t_1"].append(0)),
        ("in_order dropped", lambda d: d["in_order"].pop("u_1_1")),
        ("source_order short", lambda d: d["source_order"].pop()),
        ("source_order twice", lambda d: d["source_order"].append(d["source_order"][0])),
        ("source_order not labels", lambda d: d["source_order"].append(1)),
        ("edge into a source", lambda d: d["edges"][0].__setitem__("head", "s_1")),
        ("edge out of a terminal", lambda d: d["edges"][-1].__setitem__("tail", "t_1")),
        ("cycle", lambda d: d["edges"][0].update(tail="v_1_1", head="u_1_1")),
    ]
    for name, edit in edited:
        bad = json.loads(n1)
        edit(bad)
        cases[name] = json.dumps(bad, sort_keys=True, separators=(",", ":")).encode()
    return cases


MALFORMED = _malformed()


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_read_as_the_reference_reads_them(name):
    assert_reads_as_reference(MALFORMED[name])


@pytest.mark.parametrize(
    "net",
    [build_n1(2, 2), build_n2(2, 3), k_copy_merge(build_n1(2, 2), 3), build_bottleneck2()],
    ids=["n1(2,2)", "n2(2,3)", "n1(2,2) x 3", "bottleneck2"],
)
def test_built_networks_read_as_the_reference_reads_them(net):
    assert_reads_as_reference(serialize(net))


def _hand_built():
    s, u, v, t = Node("s", SOURCE), Node("u", INTERMEDIATE), Node("v", INTERMEDIATE), Node("t", TERMINAL)
    path = [Edge("s", "u"), Edge("u", "v"), Edge("v", "t")]
    return {
        "duplicate labels": SumNetwork([s, u, Node("u", TERMINAL), v, t], path),
        "duplicate edges": SumNetwork([s, u, v, t], path + [Edge("s", "u"), Edge("u", "v", 1)]),
        "cycle": SumNetwork([s, u, v, t], path + [Edge("v", "u")]),
        "source in, terminal out": SumNetwork([s, u, v, t], path + [Edge("t", "s")]),
        "in_order short": SumNetwork([s, u, v, t], path, {"u": [], "v": [1], "t": [2]}),
        "in_order foreign": SumNetwork([s, u, v, t], path, {"u": [0], "v": [1, 2], "t": [2]}),
        "in_order out of range": SumNetwork([s, u, v, t], path, {"u": [0], "v": [1], "t": [7, -1]}),
        "in_order twice": SumNetwork([s, u, v, t], path, {"u": [0, 0], "v": [1], "t": [2]}),
        "source_order": SumNetwork([s, u, v, t], path, None, ["s", "s", "t"]),
        "empty": SumNetwork([], []),
        "huge par": SumNetwork([s, t], [Edge("s", "t", 2**80), Edge("s", "t", -1), Edge("s", "t", 2**80)]),
    }


HAND_BUILT = _hand_built()


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_networks_check_as_the_reference_checks_them(name):
    assert_checks_as_reference(HAND_BUILT[name])


@pytest.mark.parametrize(
    "nodes,edges,message",
    [
        (
            [Node("s", SOURCE), Node("u", "relay"), Node("v", 3), Node("t", TERMINAL)],
            [Edge("s", "u"), Edge("u", "v"), Edge("v", "t"), Edge("v", "x")],
            "unknown role 'relay' on node 'u'",
        ),
        (
            [Node("s", SOURCE), Node("t", TERMINAL)],
            [Edge("s", "t"), Edge("y", "z", 2), Edge("s", "x")],
            "edge (y,z,2) references unknown node 'y'",
        ),
    ],
    ids=["unknown role", "unknown ends"],
)
def test_the_constructor_refuses_unknown_roles_and_ends(nodes, edges, message):
    """The first offender is named: roles in node order, then edge ends
    in edge order, tail before head, with `reference_validate`'s message."""
    with pytest.raises(NetworkFormatError) as err:
        SumNetwork(nodes, edges)
    assert str(err.value) == message


@pytest.mark.parametrize("seed", range(4))
def test_shuffled_networks_check_as_the_reference_checks_them(seed):
    """Edge list and every in-edge order shuffled: the smallest ready edge
    still comes first in both topological orders."""
    shuffled, _ = _shuffled(k_copy_merge(build_n2(2, 2), 2), seed)
    assert validate(shuffled) == []
    assert_checks_as_reference(shuffled)
    assert_reads_as_reference(serialize(shuffled))


def test_views_round_trip_through_the_object_constructor():
    net = k_copy_merge(build_n1(1, 2), 2)
    again = SumNetwork(net.nodes, net.edges, net.in_order, list(net.source_order))
    assert again == net
    assert serialize(again) == serialize(net)
    assert net.edge_labels() == [e.label for e in net.edges]
    assert net.middle_edges() == [
        i for i, e in enumerate(net.edges) if {net.role(e.tail), net.role(e.head)} == {INTERMEDIATE}
    ]


def test_the_rate_three_fifths_pipeline_makes_no_edge_objects(monkeypatch):
    """build -> scheme -> write -> read -> validate -> code read -> verify
    -> bound_check -> base build -> unroll -> verify, as the pipeline
    benchmark runs it, on arrays alone, with both files read by position."""
    from sumnets import network
    from sumnets.analysis import bound_check
    from sumnets.coding import code_from_json, code_to_json, scheme_merged, unroll_merged, verify
    from sumnets.constructions import IN_SET, RateTarget, build_for_rate

    made = []
    init = network.Edge.__init__
    monkeypatch.setattr(network.Edge, "__init__", lambda self, *a, **k: made.append(a) or init(self, *a, **k))
    parsed = []  # the length of every text json.loads is given
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, *a, **k: parsed.append(len(text)) or loads(text, *a, **k))
    net, meta = build_for_rate(RateTarget(3, 5, (2,), IN_SET))
    code = scheme_merged(meta["family"], meta["m"], meta["q"], 2, meta["k"])
    net2 = deserialize(serialize(net))
    assert validate(net2) == []
    data = code_to_json(code)
    code2 = code_from_json(net2, data)
    assert code_to_json(code2) == data  # the 56,187-edge file reads back byte for byte
    assert verify(net2, code2).ok
    assert bound_check(net2, code2, "n1-with-groups", meta["m"], meta["q"]).ok
    base = build_n1(meta["m"], meta["q"])
    assert verify(base, unroll_merged(code2, meta["k"], base)).ok
    assert made == []
    # Both files are read by position: no text near the 2.75 MB network
    # file or the 15 MB code file is parsed whole.
    assert parsed and max(parsed) < 2**20
    Edge("s", "t")
    assert len(made) == 1  # the count sees an Edge when one is made


# --- the read by position against the reference -------------------------------------------
RATE_THREE_FIFTHS = build_for_rate(RateTarget(3, 5, (2,), IN_SET))[0]


def _labelled(labels: list[str], pars=(0,)) -> SumNetwork:
    """A source per label, each wired into v by one edge per par, and v into t."""
    nodes = [Node(s, SOURCE) for s in labels] + [Node("v", INTERMEDIATE), Node("t", TERMINAL)]
    return SumNetwork(nodes, [Edge(s, "v", p) for s in labels for p in pars] + [Edge("v", "t")])


# Labels of 8, 9, 16 and 17 bytes and longer, some sharing their first 16
# bytes, and the empty label: one 8-byte word per label is not enough.
LONG_LABELS = ["s" * 8, "s" * 9, "s" * 16, "s" * 17, "abcdefghijklmnopA", "abcdefghijklmnopB",
               "a_source_with_a_label_of_forty_one_bytes", "", "s_1", "s_10"]
# Labels that JSON escapes.  Their encoded text is matched as any other
# label is, except that a quote puts a quote into the edge section, which
# then is read as JSON.
ESCAPED_LABELS = ["s\\2", "s\x013", "s\x7f4", "s_ü", "s\U0001f600", "s\\"]

WRITTEN = {
    **{f"{family}({m},{q})": BUILDERS[family](m, q) for family, m, q in NETWORKS},
    "n1(2,2) x 3": k_copy_merge(build_n1(2, 2), 3),
    "bottleneck2": build_bottleneck2(),
    "rate 3/5": RATE_THREE_FIFTHS,
    "long labels": _labelled(LONG_LABELS),
    "escaped labels": _labelled(ESCAPED_LABELS),
    "pars 9, 10, -1 and nine digits": _labelled(["a", "b"], (9, 10, -1, 999_999_999, -999_999_999)),
    "duplicate labels": HAND_BUILT["duplicate labels"],
    "duplicate edges": HAND_BUILT["duplicate edges"],
    **{name: net for name, net in CYCLE_CASES.items() if name.endswith((" 0", " 1"))},
}


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_written_networks_are_read_by_position_as_the_reference_reads_them(name):
    data = serialize(WRITTEN[name])
    assert _read_by_position(data) == WRITTEN[name]
    assert_reads_as_reference(data)


# One byte of the edge section changed, put in or taken out.
EDIT_BYTES = [b'"', b"\\", b",", b":", b"{", b"}", b"[", b"]", b"0", b"1", b"9", b"-", b".",
              b"e", b" ", b"s", b"_", b"\x00", b"\xff"]


def _edited(data: bytes, seed: int, count: int) -> dict[str, bytes]:
    """data with one byte at a seeded position of its edge section flipped,
    inserted or deleted, for each of count positions."""
    rng = np.random.default_rng(seed)
    end = data.index(b'],"in_order":') + 2
    out = {}
    for at in sorted(rng.choice(end, size=min(count, end), replace=False).tolist()):
        byte = EDIT_BYTES[int(rng.integers(len(EDIT_BYTES)))]
        out[f"flip {at} to {byte!r}"] = data[:at] + byte + data[at + 1 :]
        out[f"insert {byte!r} at {at}"] = data[:at] + byte + data[at:]
        out[f"delete {at}"] = data[:at] + data[at + 1 :]
    return out


EDITED = {
    f"{name}: {edit}": data
    for seed, name in enumerate(
        ["n1(1,2)", "n2(2,3)", "long labels", "escaped labels", "pars 9, 10, -1 and nine digits"]
    )
    for edit, data in _edited(serialize(WRITTEN[name]), seed, 40).items()
}
EDITED.update(
    (f"rate 3/5: {edit}", data) for edit, data in _edited(serialize(RATE_THREE_FIFTHS), 7, 1).items()
)


@pytest.mark.parametrize("name", sorted(EDITED))
def test_edited_edge_sections_read_as_the_reference_reads_them(name):
    assert_reads_as_reference(EDITED[name])


def _laid_out():
    """Files that differ from the writer's layout in one way each."""
    path = serialize(tiny_path())
    doc = json.loads(path)
    edge = b'"par":0,"tail":"u"'
    cases = {
        **{f"par {text.decode()}": path.replace(edge, b'"par":' + text + b',"tail":"u"')
           for text in [b"01", b"-0", b"-1", b"1.0", b"1e0", b"true", b"null", b'"0"', b"", b"-",
                        b"123456789", b"-123456789", b"1234567890", b"-1234567890",
                        b"99999999999999999999"]},
        "a label with a quote": serialize(_labelled(['s"1', *ESCAPED_LABELS])),
        "no comma after the edges": path.replace(b'}],"in_order"', b'}] "in_order"'),
        "a letter after the edges": path.replace(b'}],"in_order"', b'}]x"in_order"'),
        "indent": json.dumps(doc, sort_keys=True, indent=1).encode(),
        "spaced separators": json.dumps(doc, sort_keys=True).encode(),
        "space after the list opens": path.replace(b'"edges":[', b'"edges":[ '),
        "newline between edges": path.replace(b'"s"},{', b'"s"},\n{'),
        "space before the list closes": path.replace(b'"u"}],', b'"u"} ],'),
        "edge keys out of order": path.replace(b'{"head":"u","par":0,"tail":"s"}',
                                               b'{"tail":"s","head":"u","par":0}'),
        "fields out of order": json.dumps(dict(reversed(list(doc.items()))), separators=(",", ":")).encode(),
        "a fourth edge key": path.replace(b'"tail":"s"}', b'"tail":"s","x":1}'),
        "a later empty edges": path.replace(b'"version":1}', b'"version":1,"edges":[]}'),
        "a later equal edges": path.replace(
            b'"version":1}', b'"version":1,"edges":' + json.dumps(doc["edges"]).encode() + b"}"
        ),
        "a later reversed edges": path.replace(
            b'"version":1}', b'"version":1,"edges":' + json.dumps(doc["edges"][::-1]).encode() + b"}"
        ),
        "only edges": path[: path.index(b',"in_order"')] + b"}",
        "nothing after the edges": path[: path.index(b',"in_order"')],
        "no edges": serialize(SumNetwork([Node("s", SOURCE)], [])),
        "unknown tail": path.replace(b'"tail":"u"', b'"tail":"w"'),
        "tail a prefix of a label": serialize(_labelled(["s_10"])).replace(b'"tail":"s_10"', b'"tail":"s_1"'),
        "tail with a NUL after a label": path.replace(b'"tail":"u"', b'"tail":"u\x00"'),
    }
    return cases


LAID_OUT = _laid_out()
# Each is an integer of at most nine digits as the writer writes it.
BY_POSITION = {"par -1", "par 123456789", "par -123456789"}


@pytest.mark.parametrize("name", sorted(LAID_OUT))
def test_files_in_another_layout_read_as_the_reference_reads_them(name):
    data = LAID_OUT[name]
    assert (_read_by_position(data) is not None) == (name in BY_POSITION)
    assert_reads_as_reference(data)


def test_an_int_past_the_digit_limit_is_refused_as_not_valid_json():
    data = serialize(build_n1(1, 2)).replace(b'"version":1', b'"x":' + b"9" * 5000 + b',"version":1')
    with pytest.raises(NetworkFormatError, match=r"^not valid JSON: Exceeds the limit \(4300 digits\)"):
        deserialize(data)
