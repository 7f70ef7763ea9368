"""The sum-network data model.

A sum-network is a DAG whose nodes carry one of three roles; every
terminal demands the sum of all source blocks.  Edges are identified by
(tail, head, parallel index) where tail is the origin and head the
destination (this is the convention used throughout the file format and
the DOT export).  Per-node in-edge order is explicit and serialized,
because decoding matrices are positional.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

import numpy as np

SOURCE = "source"
INTERMEDIATE = "intermediate"
TERMINAL = "terminal"
ROLES = (SOURCE, INTERMEDIATE, TERMINAL)

FORMAT_VERSION = 1


class NetworkFormatError(ValueError):
    """Raised on malformed network files; the message names the field."""


class CycleError(ValueError):
    """Raised when a topological order is requested on a cyclic graph."""


@dataclass(frozen=True)
class Node:
    label: str
    role: str


@dataclass(frozen=True)
class Edge:
    tail: str  # origin node
    head: str  # destination node
    par: int = 0  # parallel-edge index

    @property
    def label(self) -> str:
        return f"({self.tail},{self.head},{self.par})"


class SumNetwork:
    """Immutable DAG with roles, parallel edges and fixed in-edge order.

    The topological order and the `EdgeLayout` are computed on first use
    and kept, which is sound only because nothing changes a network after
    construction; neither enters `__eq__`.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[Edge],
        in_order: Optional[dict[str, list[int]]] = None,
        source_order: Optional[list[str]] = None,
    ):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._node_by_label = {n.label: n for n in self.nodes}

        natural: dict[str, list[int]] = {n.label: [] for n in self.nodes}
        self._out_edges: dict[str, list[int]] = {n.label: [] for n in self.nodes}
        for i, e in enumerate(self.edges):
            if e.head in natural:
                natural[e.head].append(i)
            if e.tail in self._out_edges:
                self._out_edges[e.tail].append(i)
        if in_order is None:
            in_order = natural
        self.in_order: dict[str, tuple[int, ...]] = {
            n.label: tuple(in_order.get(n.label, ())) for n in self.nodes
        }
        if source_order is None:
            source_order = [n.label for n in self.nodes if n.role == SOURCE]
        self.source_order: tuple[str, ...] = tuple(source_order)
        self._topo: Optional[np.ndarray] = None
        self._layout: Optional[EdgeLayout] = None

    # --- basic queries -------------------------------------------------

    def has_node(self, label: str) -> bool:
        return label in self._node_by_label

    def role(self, label: str) -> str:
        return self._node_by_label[label].role

    def labels(self, role: str) -> list[str]:
        return [n.label for n in self.nodes if n.role == role]

    @property
    def sources(self) -> list[str]:
        return self.labels(SOURCE)

    @property
    def terminals(self) -> list[str]:
        return self.labels(TERMINAL)

    @property
    def intermediates(self) -> list[str]:
        return self.labels(INTERMEDIATE)

    def in_edges(self, label: str) -> tuple[int, ...]:
        return self.in_order[label]

    def out_edges(self, label: str) -> list[int]:
        return self._out_edges[label]

    def edge_index_by_label(self) -> dict[str, int]:
        return {e.label: i for i, e in enumerate(self.edges)}

    def middle_edges(self) -> list[int]:
        """Edges between two intermediate nodes, in edge order."""
        inner = set(self.intermediates)
        return [i for i, e in enumerate(self.edges) if e.tail in inner and e.head in inner]

    def layout(self) -> "EdgeLayout":
        """The edge structure as int arrays, built on the first call."""
        if self._layout is None:
            self._layout = EdgeLayout(self)
        return self._layout

    def __eq__(self, other):
        """Equal exactly when both hold the same fields of the network file."""
        return (
            isinstance(other, SumNetwork)
            and other.nodes == self.nodes
            and other.edges == self.edges
            and other.in_order == self.in_order
            and other.source_order == self.source_order
        )

    def __repr__(self):
        return f"SumNetwork({len(self.nodes)} nodes, {len(self.edges)} edges)"


class EdgeLayout:
    """A network's edge structure as int arrays.

    src_pos[e]: the position in `source_order` of edge e's tail, or -1
    when the tail is not a source.  source_edges and relayed_edges: the
    edges with and without a source tail, ascending.

    The terminals' in-edges in CSR form: terminal i, in `terminals`
    order, owns slots term_ptr[i] .. term_ptr[i+1]-1, slot s holding
    in-edge term_edges[s] of terminal slot_term[s], in the terminal's
    in-edge order.  direct_slots and relayed_slots: the slots whose edge
    leaves a source, and the others.
    """

    def __init__(self, net: SumNetwork):
        pos = {s: i for i, s in enumerate(net.source_order)}
        role = net.role
        self.src_pos = np.array(
            [pos[e.tail] if role(e.tail) == SOURCE else -1 for e in net.edges], dtype=np.intp
        )
        self.source_edges = np.flatnonzero(self.src_pos >= 0)
        self.relayed_edges = np.flatnonzero(self.src_pos < 0)
        ins = [net.in_edges(t) for t in net.terminals]
        degrees = np.fromiter(map(len, ins), dtype=np.intp, count=len(ins))
        self.term_ptr = np.concatenate([[0], np.cumsum(degrees)])
        self.term_edges = np.fromiter(
            chain.from_iterable(ins), dtype=np.intp, count=self.term_ptr[-1]
        )
        self.slot_term = np.repeat(np.arange(len(ins)), degrees)
        direct = self.src_pos[self.term_edges] >= 0
        self.direct_slots = np.flatnonzero(direct)
        self.relayed_slots = np.flatnonzero(~direct)


# --- validation ---------------------------------------------------------


def validate(net: SumNetwork) -> list[str]:
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
        topo_order(net)
    except CycleError:
        violations.append("cycle detected")
    return violations


# --- topological edge order ----------------------------------------------


def topo_order(net: SumNetwork) -> list[int]:
    """Deterministic edge order: every edge after all in-edges of its tail.

    Ties are broken by edge index, so the order is stable across runs.
    It is computed once per network; each call returns a fresh list.  A
    cyclic network raises `CycleError` on every call.
    """
    if net._topo is None:
        net._topo = np.array(_topo_order(net), dtype=np.intp)
    return net._topo.tolist()


def _topo_order(net: SumNetwork) -> list[int]:
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
                for j in net.out_edges(head):
                    heapq.heappush(ready, j)
    if len(out) != len(net.edges):
        raise CycleError("cycle detected")
    return out


# --- serialization --------------------------------------------------------


def serialize(net: SumNetwork) -> bytes:
    doc = {
        "version": FORMAT_VERSION,
        "nodes": [{"label": n.label, "role": n.role} for n in net.nodes],
        "edges": [{"tail": e.tail, "head": e.head, "par": e.par} for e in net.edges],
        "in_order": {label: list(order) for label, order in net.in_order.items()},
        "source_order": list(net.source_order),
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _expect(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise NetworkFormatError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise NetworkFormatError(f"field {key!r} has wrong type")
    return value


def deserialize(data: bytes) -> SumNetwork:
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


# --- DOT export ------------------------------------------------------------


def to_dot(net: SumNetwork) -> str:
    """DOT digraph: sources as boxes, terminals as double circles,
    middle edges highlighted."""
    lines = ["digraph sumnet {"]
    for n in net.nodes:
        if n.role == SOURCE:
            lines.append(f'  "{n.label}" [shape=box];')
        elif n.role == TERMINAL:
            lines.append(f'  "{n.label}" [shape=doublecircle];')
        else:
            lines.append(f'  "{n.label}";')
    middles = set(net.middle_edges())
    for i, e in enumerate(net.edges):
        attr = " [color=red,penwidth=2]" if i in middles else ""
        lines.append(f'  "{e.tail}" -> "{e.head}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
