"""The sum-network data model.

A sum-network is a DAG whose nodes carry one of three roles; every
terminal demands the sum of all source blocks.  Edges are identified by
(tail, head, parallel index) where tail is the origin and head the
destination (this is the convention used throughout the file format and
the DOT export).  Per-node in-edge order is explicit and serialized,
because decoding matrices are positional.

A network is held as int arrays over a table of node labels, so it keeps
no Python object per edge; `Node` and `Edge` objects are made only for
code that asks for `nodes` or `edges`.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

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


def _int_array(values) -> np.ndarray:
    """values as int64 if all lie in [-2^31, 2^31), else as Python ints
    (object dtype), so that sums and multiples of them taken by the merge
    and its readers cannot wrap."""
    try:
        out = np.array(values, dtype=np.int64)
        if not out.size or (out.min() >= -(2**31) and out.max() < 2**31):
            return out
    except OverflowError:
        pass
    return np.array(values, dtype=object)


class SumNetwork:
    """Immutable DAG with roles, parallel edges and fixed in-edge order.

    Storage, read-only after construction:
      label_table     the node labels in node order, then any edge end that
                      names no node (only a hand-built network has one;
                      `validate` reports it); an index into it is an entry
      role_codes      per entry, its role as an index into role_names, or
                      -1 for an entry that is no node
      role_names      ROLES, then any other role a hand-built node carries
      tail, head      edge e runs from entry tail[e] to entry head[e]
      par             the parallel indices (int64, or Python ints if one
                      lies outside [-2^31, 2^31))
      in_ptr, in_idx  the in-edge order in CSR form: entry x's in-edges
                      are in_idx[in_ptr[x]:in_ptr[x+1]]
      source_order    source labels in source-vector order
    A label that two nodes carry is one entry for edges and in-edge
    order, its last node's, whose role `role` reports.

    The constructor takes `Node` and `Edge` objects; the builders and the
    file reader use `from_arrays`.  `nodes`, `edges` and the label-keyed
    `in_order` are made on first read.  The topological order and the
    `EdgeLayout` are computed on first use and kept, which is sound only
    because nothing changes a network after construction; none of these
    enter `__eq__`.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[Edge],
        in_order: Optional[dict[str, Sequence[int]]] = None,
        source_order: Optional[list[str]] = None,
    ):
        nodes = tuple(nodes)
        edges = tuple(edges)
        labels = [n.label for n in nodes]
        index = {label: x for x, label in enumerate(labels)}
        role_names = list(ROLES)
        codes = []
        for n in nodes:
            if n.role not in role_names:
                role_names.append(n.role)
            codes.append(role_names.index(n.role))

        def entry(label: str) -> int:
            x = index.get(label)
            if x is None:
                x = index[label] = len(labels)
                labels.append(label)
                codes.append(-1)
            return x

        ends = [(entry(e.tail), entry(e.head)) for e in edges]
        tail = np.array([t for t, _ in ends], dtype=np.intp)
        head = np.array([h for _, h in ends], dtype=np.intp)
        orders = None
        if in_order is not None:
            orders = [()] * len(labels)
            for x, label in enumerate(labels[: len(nodes)]):
                if index[label] == x:
                    orders[x] = in_order.get(label, ())
        if source_order is None:
            source_order = [n.label for n in nodes if n.role == SOURCE]
        self._store(
            labels, len(nodes), tuple(role_names), codes, tail, head,
            _int_array([e.par for e in edges]), orders, source_order, index,
        )

    @classmethod
    def from_arrays(
        cls,
        labels: list[str],
        role_codes,
        tail,
        head,
        par,
        source_order: Sequence[str],
        in_orders: Optional[Sequence[Sequence[int]]] = None,
    ) -> "SumNetwork":
        """The network of nodes labels[x] with role ROLES[role_codes[x]],
        edges from tail[e] to head[e] with par[e], and in-edge order
        in_orders[x] per node (by default, each node's in-edges in edge
        order)."""
        net = cls.__new__(cls)
        net._store(
            list(labels), len(labels), ROLES, role_codes, np.asarray(tail, dtype=np.intp),
            np.asarray(head, dtype=np.intp), _int_array(par), in_orders, source_order,
        )
        return net

    def _store(self, labels, n_nodes, role_names, codes, tail, head, par, orders, source_order,
               index=None):
        self.label_table: list[str] = labels
        self.n_nodes = n_nodes
        self.role_names: tuple[str, ...] = role_names
        self.role_codes = np.asarray(codes, dtype=np.int8)
        self.tail, self.head, self.par = tail, head, par
        if index is None:
            index = {label: x for x, label in enumerate(labels)}
        self._index: dict[str, int] = index
        if orders is None:  # each node's in-edges in edge order
            into = np.flatnonzero(head < n_nodes)
            self.in_idx = into[np.argsort(head[into], kind="stable")]
            degrees = np.bincount(head[into], minlength=len(labels))
        else:
            self.in_idx = np.fromiter(chain.from_iterable(orders), dtype=np.intp)
            degrees = np.fromiter(map(len, orders), dtype=np.intp, count=len(orders))
        self.in_ptr = np.zeros(len(labels) + 1, dtype=np.intp)
        np.cumsum(degrees, out=self.in_ptr[1:])
        self.source_order: tuple[str, ...] = tuple(source_order)
        self._topo: Optional[np.ndarray] = None
        self._layout: Optional[EdgeLayout] = None

    # --- views ------------------------------------------------------------

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        names = self.role_names
        codes = self.role_codes[: self.n_nodes].tolist()
        return tuple(Node(label, names[c]) for label, c in zip(self.label_table, codes))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        t = self.label_table
        ends = zip(self.tail.tolist(), self.head.tolist(), self.par.tolist())
        return tuple(Edge(t[a], t[b], p) for a, b, p in ends)

    @cached_property
    def in_order(self) -> dict[str, tuple[int, ...]]:
        return {label: self.in_edges(label) for label in self.label_table[: self.n_nodes]}

    # --- basic queries -------------------------------------------------

    def _entry(self, label: str) -> int:
        """The entry of the node labelled `label`; KeyError if there is none."""
        x = self._index[label]
        if x >= self.n_nodes:
            raise KeyError(label)
        return x

    def entries_of(self, labels: Iterable[str]) -> np.ndarray:
        """The entry of each node label, -1 for a label no node carries."""
        n, get = self.n_nodes, self._index.get
        return np.array([x if (x := get(s, n)) < n else -1 for s in labels], dtype=np.intp)

    def has_node(self, label: str) -> bool:
        return self._index.get(label, self.n_nodes) < self.n_nodes

    def role(self, label: str) -> str:
        return self.role_names[self.role_codes[self._entry(label)]]

    def role_mask(self, role: str) -> np.ndarray:
        """Per entry, whether it is a node of this role."""
        code = self.role_names.index(role) if role in self.role_names else -2
        return self.role_codes == code

    def entries(self, role: str) -> np.ndarray:
        """The entries of the nodes of this role, in node order."""
        labels = self.labels(role)
        return np.fromiter(map(self._index.__getitem__, labels), dtype=np.intp, count=len(labels))

    def labels(self, role: str) -> list[str]:
        return [self.label_table[x] for x in np.flatnonzero(self.role_mask(role)).tolist()]

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
        return tuple(self.in_edges_of(self._entry(label)).tolist())

    def in_edges_of(self, x: int) -> np.ndarray:
        """The in-edges of entry x, in order."""
        return self.in_idx[self.in_ptr[x] : self.in_ptr[x + 1]]

    def out_edges(self, label: str) -> list[int]:
        return np.flatnonzero(self.tail == self._entry(label)).tolist()

    def edge_label(self, i: int) -> str:
        t = self.label_table
        return f"({t[self.tail[i]]},{t[self.head[i]]},{self.par[i]})"

    def edge_labels(self) -> list[str]:
        """Every edge's label, (tail,head,par), in edge order."""
        t = self.label_table
        ends = zip(self.tail.tolist(), self.head.tolist(), self.par.tolist())
        return [f"({t[a]},{t[b]},{p})" for a, b, p in ends]

    def middle_edges(self) -> list[int]:
        """Edges between two intermediate nodes, in edge order."""
        inner = self.role_mask(INTERMEDIATE)
        return np.flatnonzero(inner[self.tail] & inner[self.head]).tolist()

    def layout(self) -> "EdgeLayout":
        """The edge structure as int arrays, built on the first call."""
        if self._layout is None:
            self._layout = EdgeLayout(self)
        return self._layout

    def __eq__(self, other):
        """Equal exactly when both hold the same fields of the network file."""
        return (
            isinstance(other, SumNetwork)
            and other.n_nodes == self.n_nodes
            and other.label_table == self.label_table
            and other.role_names == self.role_names
            and np.array_equal(other.role_codes, self.role_codes)
            and np.array_equal(other.tail, self.tail)
            and np.array_equal(other.head, self.head)
            and np.array_equal(other.par, self.par)
            and np.array_equal(other.in_ptr, self.in_ptr)
            and np.array_equal(other.in_idx, self.in_idx)
            and other.source_order == self.source_order
        )

    def __repr__(self):
        return f"SumNetwork({self.n_nodes} nodes, {len(self.tail)} edges)"


def _csr_rows(ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows `rows` of (ptr, idx), in that order, as a CSR pair."""
    counts = ptr[rows + 1] - ptr[rows]
    out_ptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=out_ptr[1:])
    at = np.repeat(ptr[rows] - out_ptr[:-1], counts) + np.arange(out_ptr[-1])
    return out_ptr, idx[at]


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
        pos = np.full(len(net.label_table), -1, dtype=np.intp)
        for i, s in enumerate(net.source_order):
            if net.has_node(s):
                pos[net._entry(s)] = i
        from_source = net.role_mask(SOURCE)[net.tail]
        unplaced = np.flatnonzero(from_source & (pos[net.tail] < 0))
        if unplaced.size:
            raise KeyError(net.label_table[net.tail[unplaced[0]]])
        self.src_pos = np.where(from_source, pos[net.tail], -1)
        self.source_edges = np.flatnonzero(from_source)
        self.relayed_edges = np.flatnonzero(~from_source)
        self.term_ptr, self.term_edges = _csr_rows(net.in_ptr, net.in_idx, net.entries(TERMINAL))
        degrees = np.diff(self.term_ptr)
        self.slot_term = np.repeat(np.arange(len(degrees)), degrees)
        direct = self.src_pos[self.term_edges] >= 0
        self.direct_slots = np.flatnonzero(direct)
        self.relayed_slots = np.flatnonzero(~direct)


# --- validation ---------------------------------------------------------


def validate(net: SumNetwork) -> list[str]:
    """All structural invariants; returns a list of violations (empty = ok)."""
    violations: list[str] = []
    n = net.n_nodes
    labels = net.label_table
    seen_labels: set[str] = set()
    for label, code in zip(labels, net.role_codes[:n].tolist()):
        if label in seen_labels:
            violations.append(f"duplicate node label {label!r}")
        seen_labels.add(label)
        if code >= len(ROLES):
            violations.append(f"unknown role {net.role_names[code]!r} on node {label!r}")

    tail, head = net.tail, net.head
    n_edges = len(tail)
    # An edge is a duplicate when an earlier edge has the same ends and par.
    _, par_rank = np.unique(net.par, return_inverse=True)
    by_key = np.lexsort((par_rank.ravel(), head, tail))
    same = (np.diff(tail[by_key]) == 0) & (np.diff(head[by_key]) == 0)
    same &= np.diff(par_rank.ravel()[by_key]) == 0
    duplicate = np.zeros(n_edges, dtype=bool)
    duplicate[by_key[1:][same]] = True
    faults = [
        (duplicate, lambda i: f"duplicate edge {net.edge_label(i)}"),
        (tail >= n, lambda i: f"edge {net.edge_label(i)} references unknown node {labels[tail[i]]!r}"),
        (head >= n, lambda i: f"edge {net.edge_label(i)} references unknown node {labels[head[i]]!r}"),
        (net.role_mask(TERMINAL)[tail], lambda i: f"terminal has out-edge: {net.edge_label(i)}"),
        (net.role_mask(SOURCE)[head], lambda i: f"source has in-edge: {net.edge_label(i)}"),
    ]
    for i in np.flatnonzero(np.any([mask for mask, _ in faults], axis=0)).tolist():
        violations += [message(i) for mask, message in faults if mask[i]]

    # A node's in-edge order is bad unless it lists each edge into the node once.
    ptr, idx = net.in_ptr, net.in_idx
    slot_node = np.repeat(np.arange(len(labels)), np.diff(ptr))
    listed = (idx >= 0) & (idx < n_edges)
    listed[listed] = head[idx[listed]] == slot_node[listed]
    times = np.bincount(idx[listed], minlength=n_edges)
    bad = np.zeros(len(labels), dtype=bool)
    bad[slot_node[~listed]] = True
    bad[head[(head < n) & (times != 1)]] = True
    for label in dict.fromkeys(labels[:n]):
        if bad[net._index[label]]:
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
    """The smallest ready edge first; an edge is ready once as many edges
    into its tail have gone as the tail's in-edge order lists."""
    tail = net.tail
    by_tail = np.argsort(tail, kind="stable")
    out_ptr = np.searchsorted(tail[by_tail], np.arange(len(net.label_table) + 1)).tolist()
    by_tail = by_tail.tolist()
    pending = np.diff(net.in_ptr)
    ready = np.flatnonzero(pending[tail] == 0).tolist()  # ascending, so a heap
    pending = pending.tolist()
    head = net.head.tolist()
    out: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        out.append(i)
        h = head[i]
        pending[h] -= 1
        if pending[h] == 0:
            for j in by_tail[out_ptr[h] : out_ptr[h + 1]]:
                heapq.heappush(ready, j)
    if len(out) != len(tail):
        raise CycleError("cycle detected")
    return out


# --- serialization --------------------------------------------------------


_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def serialize(net: SumNetwork) -> bytes:
    """`json.dumps(doc, sort_keys=True, separators=(",", ":"))` plus a
    newline, byte for byte, with each label encoded once."""
    n = net.n_nodes
    text = [_ENCODE(label) for label in net.label_table]
    roles = [_ENCODE(role) for role in net.role_names]
    ends = zip(net.tail.tolist(), net.head.tolist(), net.par.tolist())
    edges = ",".join([f'{{"head":{text[h]},"par":{p},"tail":{text[t]}}}' for t, h, p in ends])
    idx, ptr = net.in_idx.tolist(), net.in_ptr.tolist()
    first = {label: net._index[label] for label in net.label_table[:n]}
    in_order = ",".join(
        f"{text[x]}:{str(idx[ptr[x] : ptr[x + 1]]).replace(' ', '')}"
        for _, x in sorted(first.items())
    )
    codes = net.role_codes[:n].tolist()
    nodes = ",".join([f'{{"label":{text[x]},"role":{roles[c]}}}' for x, c in enumerate(codes)])
    return (
        f'{{"edges":[{edges}],"in_order":{{{in_order}}},"nodes":[{nodes}],'
        f'"source_order":{_ENCODE(list(net.source_order))},"version":{FORMAT_VERSION}}}\n'
    ).encode("utf-8")


def _expect(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise NetworkFormatError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise NetworkFormatError(f"field {key!r} has wrong type")
    return value


def _edge_fault(i: int, item, index: dict[str, int]) -> Optional[str]:
    """What is wrong with edges[i] of a network file, if anything."""
    if not isinstance(item, dict):
        return f"edges[{i}] must be an object"
    tail, head, par = item.get("tail"), item.get("head"), item.get("par")
    if not isinstance(tail, str) or not isinstance(head, str):
        return f"edges[{i}].tail/head must be strings"
    if tail not in index:
        return f"edges[{i}].tail: unknown node {tail!r}"
    if head not in index:
        return f"edges[{i}].head: unknown node {head!r}"
    if type(par) is not int:
        return f"edges[{i}].par must be an integer"
    return None


def _edge_arrays(items: list, index: dict[str, int]):
    """(tail, head, par) of the edges of a network file, or None if an edge
    has a fault; the checks are `_edge_fault`'s, taken list by list."""
    if not all(type(item) is dict for item in items):
        return None
    tails = [item.get("tail") for item in items]
    heads = [item.get("head") for item in items]
    pars = [item.get("par") for item in items]
    if not all(type(x) is str for x in chain(tails, heads)):
        return None
    tail = list(map(index.get, tails))
    head = list(map(index.get, heads))
    if None in tail or None in head or not all(type(p) is int for p in pars):
        return None
    return tail, head, pars


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
    labels, codes = [], []
    for i, item in enumerate(_expect(doc, "nodes", list)):
        if not isinstance(item, dict):
            raise NetworkFormatError(f"nodes[{i}] must be an object")
        label = item.get("label")
        role = item.get("role")
        if not isinstance(label, str):
            raise NetworkFormatError(f"nodes[{i}].label must be a string")
        if role not in ROLES:
            raise NetworkFormatError(f"nodes[{i}].role: unknown role {role!r}")
        labels.append(label)
        codes.append(ROLES.index(role))
    index = {label: x for x, label in enumerate(labels)}
    items = _expect(doc, "edges", list)
    edges = _edge_arrays(items, index)
    if edges is None:
        for i, item in enumerate(items):
            fault = _edge_fault(i, item, index)
            if fault:
                raise NetworkFormatError(fault)
    n_edges = len(items)
    in_order_raw = _expect(doc, "in_order", dict)
    orders: list = [()] * len(labels)
    for label, order in in_order_raw.items():
        if label not in index:
            raise NetworkFormatError(f"in_order[{label!r}]: unknown node")
        if not isinstance(order, list) or (
            order
            and (set(map(type, order)) != {int} or min(order) < 0 or max(order) >= n_edges)
        ):
            raise NetworkFormatError(f"in_order[{label!r}] must list edge indices")
        orders[index[label]] = order
    source_order = _expect(doc, "source_order", list)
    if not all(isinstance(s, str) for s in source_order):
        raise NetworkFormatError("source_order must list node labels")
    return SumNetwork.from_arrays(labels, codes, *edges, source_order, orders)


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
    t = net.label_table
    for i, (a, b) in enumerate(zip(net.tail.tolist(), net.head.tolist())):
        attr = " [color=red,penwidth=2]" if i in middles else ""
        lines.append(f'  "{t[a]}" -> "{t[b]}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
