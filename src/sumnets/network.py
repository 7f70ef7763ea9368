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
    """Raised on a malformed network file, or on `Node` and `Edge` objects
    that make no network; the message names the field."""


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
      label_table     the node labels in node order; an index into it is
                      an entry
      role_codes      per entry, its role as an index into ROLES
      tail, head      edge e runs from entry tail[e] to entry head[e]
      par             the parallel indices (int64, or Python ints if one
                      lies outside [-2^31, 2^31))
      in_ptr, in_idx  the in-edge order in CSR form: entry x's in-edges
                      are in_idx[in_ptr[x]:in_ptr[x+1]]
      source_order    source labels in source-vector order
    A label that two nodes carry is one entry for edges and in-edge
    order, its last node's, whose role `role` reports.

    The constructor takes `Node` and `Edge` objects and raises
    NetworkFormatError at the first role outside ROLES, then at the first
    edge end that names no node, as the file reader refuses both; the
    builders and the file reader use `from_arrays`.  `nodes`, `edges` and
    the label-keyed `in_order` are made on first read.  The topological
    order and the `EdgeLayout` are computed on first use and kept, which
    is sound only because nothing changes a network after construction;
    none of these enter `__eq__`.
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
        for n in nodes:
            if n.role not in ROLES:
                raise NetworkFormatError(f"unknown role {n.role!r} on node {n.label!r}")
        index = {n.label: x for x, n in enumerate(nodes)}
        for e in edges:
            for end in (e.tail, e.head):
                if end not in index:
                    raise NetworkFormatError(f"edge {e.label} references unknown node {end!r}")
        orders = None
        if in_order is not None:
            orders = [()] * len(nodes)
            for label, x in index.items():
                orders[x] = in_order.get(label, ())
        if source_order is None:
            source_order = [n.label for n in nodes if n.role == SOURCE]
        self._store(
            [n.label for n in nodes],
            [ROLES.index(n.role) for n in nodes],
            np.array([index[e.tail] for e in edges], dtype=np.intp),
            np.array([index[e.head] for e in edges], dtype=np.intp),
            _int_array([e.par for e in edges]),
            orders,
            source_order,
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
            list(labels), role_codes, np.asarray(tail, dtype=np.intp),
            np.asarray(head, dtype=np.intp), _int_array(par), in_orders, source_order,
        )
        return net

    def _store(self, labels, codes, tail, head, par, orders, source_order):
        self.label_table: list[str] = labels
        self.role_codes = np.asarray(codes, dtype=np.int8)
        self.tail, self.head, self.par = tail, head, par
        self._index: dict[str, int] = {label: x for x, label in enumerate(labels)}
        if orders is None:  # each node's in-edges in edge order
            self.in_idx = np.argsort(head, kind="stable")
            degrees = np.bincount(head, minlength=len(labels))
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
        codes = self.role_codes.tolist()
        return tuple(Node(label, ROLES[c]) for label, c in zip(self.label_table, codes))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        t = self.label_table
        ends = zip(self.tail.tolist(), self.head.tolist(), self.par.tolist())
        return tuple(Edge(t[a], t[b], p) for a, b, p in ends)

    @cached_property
    def in_order(self) -> dict[str, tuple[int, ...]]:
        return {label: self.in_edges(label) for label in self.label_table}

    # --- basic queries -------------------------------------------------

    def entries_of(self, labels: Iterable[str]) -> np.ndarray:
        """The entry of each node label, -1 for a label no node carries."""
        get = self._index.get
        return np.array([get(s, -1) for s in labels], dtype=np.intp)

    def has_node(self, label: str) -> bool:
        return label in self._index

    def role(self, label: str) -> str:
        return ROLES[self.role_codes[self._index[label]]]

    def role_mask(self, role: str) -> np.ndarray:
        """Per entry, whether it is a node of this role."""
        return self.role_codes == ROLES.index(role)

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
        return tuple(self.in_edges_of(self._index[label]).tolist())

    def in_edges_of(self, x: int) -> np.ndarray:
        """The in-edges of entry x, in order."""
        return self.in_idx[self.in_ptr[x] : self.in_ptr[x + 1]]

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
            and other.label_table == self.label_table
            and np.array_equal(other.role_codes, self.role_codes)
            and np.array_equal(other.tail, self.tail)
            and np.array_equal(other.head, self.head)
            and np.array_equal(other.par, self.par)
            and np.array_equal(other.in_ptr, self.in_ptr)
            and np.array_equal(other.in_idx, self.in_idx)
            and other.source_order == self.source_order
        )

    def __repr__(self):
        return f"SumNetwork({len(self.label_table)} nodes, {len(self.tail)} edges)"


def _csr_rows(ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows `rows` of (ptr, idx), in that order, as a CSR pair."""
    counts = ptr[rows + 1] - ptr[rows]
    out_ptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=out_ptr[1:])
    at = np.repeat(ptr[rows] - out_ptr[:-1], counts) + np.arange(out_ptr[-1])
    return out_ptr, idx[at]


class EdgeLayout:
    """A network's edge structure as int arrays.

    source_edges and relayed_edges: the edges with and without a source
    tail, ascending; edge_row[e]: e's position in the one that holds it.
    The in-edge slots of the relayed edges in CSR form:
    relayed edge relayed_edges[j] owns slots in_slot_ptr[j] ..
    in_slot_ptr[j+1]-1, slot s reading in-edge in_slot_edges[s], in the
    tail's in-edge order.

    The terminals' in-edges in CSR form: terminal i, in `terminals`
    order, owns slots term_ptr[i] .. term_ptr[i+1]-1, slot s holding
    in-edge term_edges[s] of terminal slot_term[s], in the terminal's
    in-edge order.  term_rows: each terminal label's terminal positions.

    src_pos[e]: the position in `source_order` of edge e's tail, or -1
    when the tail is not a source.  direct_slots and relayed_slots: the
    terminal slots whose edge leaves a source, and the others.  These
    three raise NetworkFormatError on every read when `source_order` omits
    a source that has an out-edge; the rest needs only the roles and the
    in-edge order, so a code can be laid out over such a network.
    """

    def __init__(self, net: SumNetwork):
        from_source = net.role_mask(SOURCE)[net.tail]
        self.source_edges = np.flatnonzero(from_source)
        self.relayed_edges = np.flatnonzero(~from_source)
        self.edge_row = np.empty(len(net.tail), dtype=np.intp)
        for edges in (self.source_edges, self.relayed_edges):
            self.edge_row[edges] = np.arange(len(edges))
        self.in_slot_ptr, self.in_slot_edges = _csr_rows(
            net.in_ptr, net.in_idx, net.tail[self.relayed_edges]
        )
        self.term_ptr, self.term_edges = _csr_rows(net.in_ptr, net.in_idx, net.entries(TERMINAL))
        degrees = np.diff(self.term_ptr)
        self.slot_term = np.repeat(np.arange(len(degrees)), degrees)
        self.term_rows: dict[str, list[int]] = {}
        for i, t in enumerate(net.terminals):
            self.term_rows.setdefault(t, []).append(i)

        pos = np.full(len(net.label_table), -1, dtype=np.intp)
        for i, s in enumerate(net.source_order):
            if net.has_node(s):
                pos[net._index[s]] = i
        unplaced = self.source_edges[pos[net.tail[self.source_edges]] < 0]
        self._unplaced = None
        if unplaced.size:
            self._unplaced = net.label_table[net.tail[unplaced[0]]]
        self._src_pos = np.where(from_source, pos[net.tail], -1)
        direct = self._src_pos[self.term_edges] >= 0
        self._split = np.flatnonzero(direct), np.flatnonzero(~direct)

    def _placed(self) -> None:
        if self._unplaced is not None:
            raise NetworkFormatError(f"source_order does not list source {self._unplaced!r}")

    @property
    def src_pos(self) -> np.ndarray:
        self._placed()
        return self._src_pos

    @property
    def direct_slots(self) -> np.ndarray:
        self._placed()
        return self._split[0]

    @property
    def relayed_slots(self) -> np.ndarray:
        self._placed()
        return self._split[1]


# --- validation ---------------------------------------------------------


def validate(net: SumNetwork) -> list[str]:
    """All structural invariants; returns a list of violations (empty = ok).
    A cycle is found by peeling the network level by level
    (`_level_order`), which leaves edges over exactly when `topo_order`
    would raise."""
    violations: list[str] = []
    labels = net.label_table
    seen_labels: set[str] = set()
    for label in labels:
        if label in seen_labels:
            violations.append(f"duplicate node label {label!r}")
        seen_labels.add(label)

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
    bad[head[times != 1]] = True
    for label, x in net._index.items():  # each label once, at its last node
        if bad[x]:
            violations.append(f"in_order for {label!r} is not a permutation of its in-edges")

    srcs = [s for s in net.source_order]
    if sorted(srcs) != sorted(net.sources) or len(srcs) != len(set(srcs)):
        violations.append("source_order is not a permutation of the sources")

    try:
        _level_order(net)
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


def _level_order(net: SumNetwork) -> np.ndarray:
    """Every edge, level by level (Kahn's algorithm by levels), with
    `_topo_order`'s rule: a node is released once, when as many edges
    into it have gone as its in-edge order lists.  Level 0 leaves the
    nodes that list no in-edges, level k+1 the nodes that level k
    released; within a level the edges go by tail, then by index.  An
    edge whose tail lists its in-edges truly so comes after all of them.
    Raises `CycleError` when edges are left over, exactly when
    `topo_order` raises.  Each level is a few array operations."""
    tail, n = net.tail, len(net.label_table)
    by_tail = np.argsort(tail, kind="stable")
    out_ptr = np.searchsorted(tail[by_tail], np.arange(n + 1))
    pending = np.diff(net.in_ptr)
    nodes = np.flatnonzero(pending == 0)
    levels = []
    while nodes.size:
        edges = _csr_rows(out_ptr, by_tail, nodes)[1]
        levels.append(edges)
        heads, gone = np.unique(net.head[edges], return_counts=True)
        before = pending[heads]
        pending[heads] = before - gone
        nodes = heads[(before > 0) & (before <= gone)]
    order = np.concatenate(levels) if levels else np.zeros(0, dtype=np.intp)
    if len(order) != len(tail):
        raise CycleError("cycle detected")
    return order


# --- serialization --------------------------------------------------------


_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def serialize(net: SumNetwork) -> bytes:
    """`json.dumps(doc, sort_keys=True, separators=(",", ":"))` plus a
    newline, byte for byte, with each label encoded once."""
    text = [_ENCODE(label) for label in net.label_table]
    roles = [_ENCODE(role) for role in ROLES]
    ends = zip(net.tail.tolist(), net.head.tolist(), net.par.tolist())
    edges = ",".join([f'{{"head":{text[h]},"par":{p},"tail":{text[t]}}}' for t, h, p in ends])
    idx, ptr = net.in_idx.tolist(), net.in_ptr.tolist()
    in_order = ",".join(
        f"{text[x]}:{str(idx[ptr[x] : ptr[x + 1]]).replace(' ', '')}"
        for _, x in sorted(net._index.items())
    )
    codes = net.role_codes.tolist()
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


def _listed_edges(doc: dict, index: dict[str, int]):
    """(tail, head, par) of the "edges" list of a parsed file; raises
    NetworkFormatError at its first faulty edge."""
    items = _expect(doc, "edges", list)
    edges = _edge_arrays(items, index)
    if edges is None:
        for i, item in enumerate(items):
            fault = _edge_fault(i, item, index)
            if fault:
                raise NetworkFormatError(fault)
    return edges


def deserialize(data: bytes) -> SumNetwork:
    """The network of a v1 file.  A file whose edge section is laid out
    byte for byte as `serialize` lays it out is read by position
    (`_read_by_position`); any other goes through `json.loads`, which
    alone gives the refusals."""
    net = _read_by_position(data)
    if net is not None:
        return net
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an int past Python's digit limit
        raise NetworkFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise NetworkFormatError(
            "not valid JSON: the network file nests deeper than the recursion limit"
        ) from None
    return _network(doc, lambda index: _listed_edges(doc, index))


def _network(doc, edges) -> SumNetwork:
    """The network of a parsed file, checked field by field in file-format
    order; edges(index) gives (tail, head, par) once the nodes are read."""
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
    tail, head, par = edges(index)
    n_edges = len(tail)
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
    return SumNetwork.from_arrays(labels, codes, tail, head, par, source_order, orders)


# --- reading by position ----------------------------------------------------------------

# The glue of an edge object as `serialize` writes it, one native-order
# 8-byte word each: before the head, between head and par, before the tail.
_HEAD, _PAR, _TAIL = np.frombuffer(b'{"head":' b'","par":' b',"tail":', dtype=np.uint64)
# _MASKS[j] keeps the first j bytes of a word.
_MASKS = np.frombuffer(b"".join(b"\xff" * j + bytes(8 - j) for j in range(9)), dtype=np.uint64)


def _words(buf: np.ndarray) -> np.ndarray:
    """The 8-byte word at every byte offset of buf, read unaligned in place."""
    return np.ndarray((len(buf) - 7,), dtype=np.uint64, buffer=buf, strides=(1,))


def _read_by_position(data: bytes) -> Optional[SumNetwork]:
    """The network of a file whose edge section `serialize` wrote, or None.

    The edge section is read from the positions of its quotes, found with
    numpy: edge k holds quotes 2+10k .. 11+10k, the glue between them is
    checked one 8-byte word at a time, each head and tail is matched
    byte for byte against the JSON-encoded node labels, and each par is
    read from its digits.  An encoded label holds no unescaped quote and
    never ends in an odd run of backslashes, so a matched span is one
    whole JSON string that decodes to its label.  Only the rest of the
    file (nodes, in_order, source_order and version) goes through
    `json.loads`, and every check of the JSON path runs on it.  None, and
    so the JSON path, wherever the layout, a label or a check differs:
    other spacing or key order, a label with a quote, a par that is not a
    plain integer of at most nine digits, a second "edges" key, or any
    fault."""
    if not data.startswith(b'{"edges":[{"'):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    quotes = np.flatnonzero(buf == ord('"'))
    q = quotes[2 : 2 + (len(quotes) - 2) // 10 * 10].reshape(-1, 10)
    last = buf[np.minimum(q[:, 9] + 2, len(buf) - 1)] != ord(",")  # no edge follows
    if not last.any():
        return None
    q = q[: np.argmax(last) + 1]
    end = int(q[-1, 9]) + 2  # the "]" that closes the list
    if end + 1 >= len(buf) or buf[end] != ord("]") or buf[end + 1] != ord(","):
        return None
    words = _words(buf)
    ok = (words[q[:, 0] - 1] == _HEAD) & (words[q[:, 3]] == _PAR) & (words[q[:, 6] - 1] == _TAIL)
    ok &= (q[:, 2] == q[:, 0] + 7) & (q[:, 8] == q[:, 6] + 7) & (buf[q[:, 9] + 1] == ord("}"))
    ok[1:] &= q[1:, 0] == q[:-1, 9] + 4  # "}," then the next edge's "{"
    if not ok.all():
        return None
    par = _plain_ints(buf, q[:, 3] + 8, q[:, 6] - 1)  # between glue checked above
    if par is None:
        return None
    try:
        rest = json.loads("{" + data[end + 2 :].decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if not isinstance(rest, dict) or "edges" in rest:
        return None
    start = np.concatenate([q[:, 8], q[:, 2]]) + 1  # every tail, then every head
    stop = np.concatenate([q[:, 9], q[:, 3]])

    def edges(index: dict[str, int]):
        tail, head = _label_entries(buf, index, start, stop).reshape(2, -1)
        return tail, head, par

    try:
        return _network(rest, edges)
    except NetworkFormatError:
        return None


def _plain_ints(buf: np.ndarray, start: np.ndarray, stop: np.ndarray) -> Optional[np.ndarray]:
    """The integers buf[start:stop], or None unless each is written as
    `str` writes an int of at most nine digits: "0", or an optional minus
    and a digit run without a leading zero."""
    neg = buf[start] == ord("-")
    start = start + neg
    size = stop - start
    if not size.size or size.min() < 1 or size.max() > 9:
        return None
    if ((buf[start] == ord("0")) & (neg | (size > 1))).any():
        return None
    value = np.zeros(len(start), dtype=np.int64)
    for j in range(int(size.max())):
        live = j < size
        digit = buf[start + j].astype(np.int64) - ord("0")
        if (live & ((digit < 0) | (digit > 9))).any():
            return None
        value = np.where(live, value * 10 + digit, value)
    return np.where(neg, -value, value)


def _label_entries(buf: np.ndarray, index: dict[str, int], start, stop) -> np.ndarray:
    """The entry of the node label that each span buf[start:stop] writes,
    compared byte for byte with the labels as `serialize` encodes them.
    Spans and labels are looked up by a key made of their 8-byte words
    and then compared whole; raises NetworkFormatError where a span is no
    encoded label, or meets another label of the same key."""
    names = {_ENCODE(label)[1:-1].encode(): x for label, x in index.items()}
    if not names:
        raise NetworkFormatError("no nodes")
    width = 8 * max(1, -(-max(map(len, names)) // 8))
    table = np.frombuffer(b"".join(name.ljust(width, b"\0") for name in names), dtype=np.uint64)
    table = table.reshape(len(names), -1)
    size = stop - start
    padded = np.zeros(len(buf) + width, dtype=np.uint8)
    padded[: len(buf)] = buf
    words = _words(padded)
    spans = np.stack(
        [words[start + i] & _MASKS[np.clip(size - i, 0, 8)] for i in range(0, width, 8)], axis=1
    )
    keys = _word_key(table)
    by_key = np.argsort(keys)
    at = by_key[np.minimum(np.searchsorted(keys[by_key], _word_key(spans)), len(by_key) - 1)]
    sizes = np.fromiter(map(len, names), dtype=np.intp, count=len(names))
    if not ((sizes[at] == size) & (table[at] == spans).all(axis=1)).all():
        raise NetworkFormatError("an edge end is no encoded node label")
    return np.fromiter(names.values(), dtype=np.intp, count=len(names))[at]


def _word_key(words: np.ndarray) -> np.ndarray:
    """One uint64 per row of words, the row itself when it is one word."""
    key = words[:, 0].copy()
    for col in words.T[1:]:
        key = key * np.uint64(0x9E3779B97F4A7C15) + col
    return key


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
