import pytest

from sumnets.constructions import build_n1
from sumnets.network import (
    INTERMEDIATE,
    SOURCE,
    TERMINAL,
    CycleError,
    Edge,
    NetworkFormatError,
    Node,
    SumNetwork,
    deserialize,
    serialize,
    to_dot,
    topo_order,
    validate,
)


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


def test_validate_detects_cycle():
    net = SumNetwork(
        [Node("a", INTERMEDIATE), Node("b", INTERMEDIATE)],
        [Edge("a", "b"), Edge("b", "a")],
    )
    assert any("cycle" in v for v in validate(net))
    with pytest.raises(CycleError):
        topo_order(net)


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
