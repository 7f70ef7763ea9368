"""Fractional linear codes, the capacity-achieving schemes, and the verifier.

An (r,l) fractional linear code assigns an l x r matrix to every edge
leaving a source, an l x l matrix per in-edge to every other edge, and an
r x l matrix per in-edge to every terminal.  The verifier composes these
along a topological edge order into transfer matrices (edge message as a
linear function of the concatenated source vector) and checks that every
terminal's output map is [I_r | I_r | ... | I_r], i.e. the sum of all
source blocks.

Scheme slot layout (l = m+1 per middle edge, 1-indexed slots):
  slots 1-2         the 2-component combination Y'_ij
  slots 3 .. m+1    one scalar per partner group x != i: first the
                    first-symbol carriers for x > i (ascending), then the
                    second-symbol carriers for x < i (ascending)
so the first-symbol slot for pair (i,x), x > i, is 2+(x-i) and the
second-symbol slot for (x,i), x < i, is 2+(m-i)+x.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import chain, count
from typing import Optional, Sequence

import numpy as np

from ._core_py import matmul_mod
from .constructions import build_merged, edge_origins, parse_label
from .galois import PrimeField
from .matrix import Mat, rank
from .network import INTERMEDIATE, SOURCE, TERMINAL, SumNetwork, _csr_rows, topo_order

CODE_FORMAT_VERSION = 1


class CharacteristicError(ValueError):
    """The requested scheme does not exist over this characteristic."""


class UnverifiedCodeError(ValueError):
    """An operation requiring a verifying code received a failing one."""


class CodeFormatError(ValueError):
    """Raised on malformed code files."""


class UnsupportedNetworkError(ValueError):
    """The network is not of the three-layer-plus-direct shape."""


@dataclass
class FracLinCode:
    """An (r,l) fractional linear code bound to a network.

    src_mats: edge index -> l x r matrix, for every edge leaving a source.
    in_mats:  edge index -> per-in-edge l x l matrices (aligned with the
              in-edge order of the edge's tail node).
    dec_mats: terminal label -> per-in-edge r x l matrices.
    """

    net: SumNetwork
    r: int
    l: int
    field: PrimeField
    src_mats: dict[int, Mat] = dc_field(default_factory=dict)
    in_mats: dict[int, tuple[Mat, ...]] = dc_field(default_factory=dict)
    dec_mats: dict[str, tuple[Mat, ...]] = dc_field(default_factory=dict)

    def check_shapes(self) -> None:
        net = self.net
        from_source = net.role_mask(SOURCE)[net.tail].tolist()
        degrees = np.diff(net.in_ptr)[net.tail].tolist()
        for i, (label, src, degree) in enumerate(zip(net.edge_labels(), from_source, degrees)):
            if src:
                m = self.src_mats.get(i)
                if m is None or m.shape != (self.l, self.r):
                    raise ValueError(f"edge {label}: missing or misshaped source matrix")
            else:
                mats = self.in_mats.get(i)
                if mats is None or len(mats) != degree:
                    raise ValueError(f"edge {label}: in-edge matrix list mismatch")
                for m in mats:
                    if m.shape != (self.l, self.l):
                        raise ValueError(f"edge {label}: expected {self.l}x{self.l} matrices")
        for t in net.terminals:
            mats = self.dec_mats.get(t)
            ins = net.in_edges(t)
            if mats is None or len(mats) != len(ins):
                raise ValueError(f"terminal {t}: decoder list mismatch")
            for m in mats:
                if m.shape != (self.r, self.l):
                    raise ValueError(f"terminal {t}: expected {self.r}x{self.l} decoders")


# --- transfer matrices ------------------------------------------------------


class TransferMap:
    """Edge and terminal maps from the global source vector.

    Terminals are one (n_terminals, n_sources, r, r) array,
    `terminal_maps`, in `net.terminals` order.  An edge leaving a source
    carries its source matrix, read from the code.  Every other edge
    carries, in `messages`, (source positions, one l x (n*r) array) whose
    j-th l x r block is the map from source positions[j].  `edge_matrix`
    gives an edge's dense form on demand.
    """

    def __init__(self, code: FracLinCode):
        self.net = net = code.net
        self.r = code.r
        self.l = code.l
        self.field = code.field
        self._src_mats = code.src_mats
        self.messages: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.terminal_maps = np.zeros(
            (len(net.terminals), self.n_sources, self.r, self.r), dtype=np.int64
        )

    @property
    def n_sources(self) -> int:
        return len(self.net.source_order)

    def message(self, edge_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(source positions, l x (n*r) array) carried by the edge."""
        pos = self.net.layout().src_pos[edge_index]
        if pos >= 0:
            return np.array([pos]), self._src_mats[edge_index].a
        return self.messages[edge_index]

    def edge_matrix(self, edge_index: int) -> Mat:
        pos, msg = self.message(edge_index)
        out = np.zeros((self.l, self.n_sources, self.r), dtype=np.int64)
        out[:, pos] = msg.reshape(self.l, -1, self.r)
        return Mat(self.field, out.reshape(self.l, -1))


def _ids(objects: list) -> np.ndarray:
    return np.fromiter(map(id, objects), dtype=np.uint64, count=len(objects))


def _shapes_ok(objects: list, ids: np.ndarray, shape: tuple[int, int]) -> bool:
    """Every object is present and of `shape`; each distinct object is looked at once."""
    if (ids == id(None)).any():
        return False
    _, first = np.unique(ids, return_index=True)
    return all(objects[i].shape == shape for i in first.tolist())


def _flat_slots(tuples: list, degrees) -> Optional[list]:
    """The tuples' items in order, or None if a tuple is missing or of the wrong length."""
    if any(t is None for t in tuples) or not np.array_equal(list(map(len, tuples)), degrees):
        return None
    return list(chain.from_iterable(tuples))


def _checked_slots(code: FracLinCode):
    """(ids of the source matrices per source edge, decoders per terminal
    slot, their ids), with every shape checked.  On a missing or misshaped
    entry, `check_shapes` raises, naming the first bad entry."""
    net = code.net
    lay = net.layout()
    r, l = code.r, code.l
    srcs = list(map(code.src_mats.get, lay.source_edges.tolist()))
    relayed = lay.relayed_edges.tolist()
    ins = _flat_slots(
        [code.in_mats.get(ei) for ei in relayed], np.diff(net.in_ptr)[net.tail[relayed]]
    )
    decs = _flat_slots([code.dec_mats.get(t) for t in net.terminals], np.diff(lay.term_ptr))
    src_ids = _ids(srcs)
    dec_ids = _ids(decs or [])
    if not (
        ins is not None
        and decs is not None
        and _shapes_ok(srcs, src_ids, (l, r))
        and _shapes_ok(ins, _ids(ins), (l, l))
        and _shapes_ok(decs, dec_ids, (r, l))
    ):
        code.check_shapes()  # it checks the same conditions entry by entry, so it raises
    return src_ids, decs, dec_ids


def _scatter_sum(parts: list[tuple[np.ndarray, np.ndarray]], rows: int, r: int, p: int):
    """The sum of messages (source positions, rows x (n*r) array), reduced mod p."""
    if not parts:
        return np.zeros(0, dtype=np.intp), np.zeros((rows, 0), dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    # Asking for the inverse also keeps np.unique from importing numpy.ma.
    pos, where = np.unique(np.concatenate([q for q, _ in parts]), return_inverse=True)
    acc = np.zeros((rows, pos.size, r), dtype=np.int64)
    start = 0
    for q, a in parts:
        acc[:, where[start : start + q.size]] += a.reshape(rows, -1, r)
        start += q.size
    acc %= p
    return pos, acc.reshape(rows, -1)


def transfer(net: SumNetwork, code: FracLinCode) -> TransferMap:
    """Compose all local maps in topological order.

    Every edge not leaving a source gets one product per nonzero in-edge
    matrix, taken with the whole stacked message of that in-edge; so does
    every terminal in-edge from such an edge.  A terminal in-edge straight
    from a source adds dec @ src to the terminal's block for that source;
    those products are computed once per distinct (decoder, source
    matrix) pair and scattered with one `np.add.at` each.  Each entry of
    `terminal_maps` sums fewer than 2^32 terms below 2^31 before its one
    reduction, so int64 cannot overflow.  Raises ValueError unless `net`
    is the code's own network or equal to it.
    """
    if not (net is code.net or net == code.net):
        raise ValueError("net: the code is bound to another network")
    net = code.net
    src_ids, decs, dec_ids = _checked_slots(code)
    lay = net.layout()
    r, l, p = code.r, code.l, code.field.p
    tm = TransferMap(code)

    order = np.array(topo_order(net), dtype=np.intp)
    relayed = order[lay.src_pos[order] < 0]
    for ei, tail in zip(relayed.tolist(), net.tail[relayed].tolist()):
        parts = []
        for m, in_ei in zip(code.in_mats[ei], net.in_edges_of(tail).tolist()):
            if m.a.any():
                pos, msg = tm.message(in_ei)
                if pos.size:
                    parts.append((pos, matmul_mod(m.a, msg, p)))
        tm.messages[ei] = _scatter_sum(parts, l, r, p)

    slots = lay.relayed_slots
    tap_edges, tap_terms = lay.term_edges[slots].tolist(), lay.slot_term[slots].tolist()
    for s, ei, ti in zip(slots.tolist(), tap_edges, tap_terms):
        dec = decs[s].a
        if dec.any():
            pos, msg = tm.message(ei)
            if pos.size:
                prod = matmul_mod(dec, msg, p).reshape(r, -1, r)
                tm.terminal_maps[ti, pos] += prod.transpose(1, 0, 2)

    direct = lay.direct_slots
    if direct.size:
        edges = lay.term_edges[direct]
        src_id_of = np.zeros(len(net.tail), dtype=np.uint64)
        src_id_of[lay.source_edges] = src_ids
        _, dec_key = np.unique(dec_ids[direct], return_inverse=True)
        src_keys, src_key = np.unique(src_id_of[edges], return_inverse=True)
        _, first, pair = np.unique(
            dec_key * len(src_keys) + src_key, return_index=True, return_inverse=True
        )
        # Distinct object pairs, then distinct by bytes: one product each.
        index: dict[tuple[bytes, bytes], int] = {}
        products: list[np.ndarray] = []
        which = np.empty(len(first), dtype=np.intp)
        for k, (s, ei) in enumerate(zip(direct[first].tolist(), edges[first].tolist())):
            dec, src = decs[s].a, code.src_mats[ei].a
            key = (dec.tobytes(), src.tobytes())
            if key not in index:
                index[key] = len(products)
                products.append(matmul_mod(dec, src, p))
            which[k] = index[key]
        # Scatter product by product, so no per-slot copy of the blocks is made.
        slot_product = which[pair]
        by_product = np.argsort(slot_product, kind="stable")
        bounds = np.searchsorted(slot_product[by_product], np.arange(len(products) + 1))
        terms, positions = lay.slot_term[direct], lay.src_pos[edges]
        for j, prod in enumerate(products):
            sel = by_product[bounds[j] : bounds[j + 1]]
            np.add.at(tm.terminal_maps, (terms[sel], positions[sel]), prod)
    tm.terminal_maps %= p
    return tm


# --- verification ------------------------------------------------------------


@dataclass
class VerifyReport:
    ok: bool
    residuals: dict[str, Mat]  # failing terminals only
    first_failed: Optional[str]
    residual_ranks: dict[str, int] = dc_field(default_factory=dict)  # failing terminals only

    def to_text(self) -> str:
        if self.ok:
            return "PASS: every terminal recovers the sum of all sources\n"
        lines = [f"FAIL: {len(self.residuals)} terminal(s) do not recover the sum"]
        lines.append(f"first failing terminal: {self.first_failed}")
        lines.append(f"residual rank of {self.first_failed}: {self.residual_ranks[self.first_failed]}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "pass": self.ok,
            "first_failed": self.first_failed,
            "failing_terminals": sorted(self.residuals),
            "residual_ranks": self.residual_ranks,
        }


def verify(net: SumNetwork, code: FracLinCode) -> VerifyReport:
    """Pass iff every terminal transfer equals [I_r | ... | I_r]."""
    return verify_transfer(transfer(net, code))


def verify_transfer(tm: TransferMap) -> VerifyReport:
    """Compare every terminal map with [I_r | ... | I_r] at once; the
    residual (map minus target) and its rank are built only for the
    terminals that fail."""
    diff = (tm.terminal_maps - np.eye(tm.r, dtype=np.int64)) % tm.field.p
    terminals = tm.net.terminals
    residuals: dict[str, Mat] = {}
    ranks: dict[str, int] = {}
    for i in np.flatnonzero(diff.any(axis=(1, 2, 3))):
        # Block (pos) of the residual occupies columns pos*r .. pos*r + r - 1.
        res = Mat(tm.field, diff[i].transpose(1, 0, 2).reshape(tm.r, -1))
        residuals[terminals[i]] = res
        ranks[terminals[i]] = rank(res)
    first = next(iter(residuals), None)
    return VerifyReport(not residuals, residuals, first, ranks)


# --- three-layer shape ---------------------------------------------------------


@dataclass
class LayerShape:
    """Structure of a bottleneck-family network, as index arrays.

    middle: the middle edge indices, ascending; "middle edge i" below is
    middle[i].  feeds[feed_ptr[i] : feed_ptr[i+1]]: the `source_order`
    positions of the sources wired into the tail of middle edge i, in the
    tail's in-edge order.  tap[s], per terminal slot s of `net.layout()`:
    the middle edge i that a relayed slot reads, or -1 for a direct slot.
    """

    middle: np.ndarray
    feed_ptr: np.ndarray
    feeds: np.ndarray
    tap: np.ndarray

    def feeds_of(self, i: int) -> np.ndarray:
        return self.feeds[self.feed_ptr[i] : self.feed_ptr[i + 1]]


def layer_shape(net: SumNetwork) -> LayerShape:
    """Detect the u -> middle -> v layering; raises if it does not hold.

    Read from the arrays: per node for the intermediates, per array for
    the terminals' in-edges."""
    labels = net.label_table
    tail, head = net.tail, net.head
    inner = net.role_mask(INTERMEDIATE)
    middle = np.flatnonzero(inner[tail] & inner[head])
    u_of = np.full(len(labels), -1, dtype=np.intp)  # the middle edge i an entry feeds
    v_of = np.full(len(labels), -1, dtype=np.intp)  # the middle edge i into an entry
    for ends, of in ((tail[middle], u_of), (head[middle], v_of)):
        if np.unique(ends).size != ends.size:
            raise UnsupportedNetworkError("intermediate node on two middle edges")
        of[ends] = np.arange(len(middle))
    source = net.role_mask(SOURCE).tolist()
    out_degree = np.bincount(tail, minlength=len(labels)).tolist()
    beyond = np.bincount(tail[~net.role_mask(TERMINAL)[head]], minlength=len(labels)).tolist()
    feeds = tail[net.in_idx].tolist()  # the tail of each in-edge slot
    ptr = net.in_ptr.tolist()
    feeding, fed = u_of.tolist(), v_of.tolist()
    for label, x in zip(net.intermediates, net.entries(INTERMEDIATE).tolist()):
        if feeding[x] >= 0:
            if out_degree[x] != 1:
                raise UnsupportedNetworkError(f"node {label} must feed only its middle edge")
            tails: list[int] = []
            for t in feeds[ptr[x] : ptr[x + 1]]:
                if not source[t]:
                    raise UnsupportedNetworkError(f"non-source feed into {label}")
                if t in tails:
                    raise UnsupportedNetworkError(f"duplicate source edge {labels[t]} -> {label}")
                tails.append(t)
        elif fed[x] >= 0:
            if beyond[x]:
                raise UnsupportedNetworkError(f"node {label} must feed terminals only")
            if ptr[x + 1] - ptr[x] != 1:
                raise UnsupportedNetworkError(f"node {label} must have a single in-edge")
        else:
            raise UnsupportedNetworkError(f"intermediate {label} is on no middle edge")

    lay = net.layout()
    feed_ptr, feed_edges = _csr_rows(net.in_ptr, net.in_idx, tail[middle])
    relayed = lay.relayed_slots
    tap = np.full(len(lay.term_edges), -1, dtype=np.intp)
    tap[relayed] = v_of[tail[lay.term_edges[relayed]]]
    if (tap[relayed] < 0).any():
        s = relayed[np.argmax(tap[relayed] < 0)]
        raise UnsupportedNetworkError(
            f"terminal {net.terminals[lay.slot_term[s]]} reads {labels[tail[lay.term_edges[s]]]},"
            " which is neither a source nor a middle edge's head"
        )
    return LayerShape(middle, feed_ptr, lay.src_pos[feed_edges], tap)


# --- shared building blocks -----------------------------------------------------


def _identity_in_mats(net: SumNetwork, code: FracLinCode, identity: Mat) -> None:
    """Identity forwarding on every edge not leaving a source; edges whose
    tails have the same in-degree share one tuple."""
    relayed = np.flatnonzero(~net.role_mask(SOURCE)[net.tail])
    degrees = np.diff(net.in_ptr)[net.tail[relayed]].tolist()
    by_degree = {d: (identity,) * d for d in set(degrees)}
    code.in_mats.update(zip(relayed.tolist(), map(by_degree.__getitem__, degrees)))


def _slot_first(i: int, x: int) -> int:
    """0-indexed slot of the first-symbol carrier for pair (i,x), x > i, on e_ij."""
    return 1 + (x - i)


def _slot_second(m: int, i: int, x: int) -> int:
    """0-indexed slot of the second-symbol carrier for pair (x,i), x < i, on e_ij."""
    return 1 + (m - i) + x


# --- the family schemes ----------------------------------------------------------------


def _family_scheme(
    net: SumNetwork, field: PrimeField, m: int, qinv: Optional[int] = None
) -> FracLinCode:
    """The code `scheme` describes, for n1, or for n2 given qinv = q^{-1}
    in the field; k is the largest copy.  The characteristic is not checked.
    """
    p = field.p
    copies = edge_origins(net)[-1]
    r, l = 2 * int(copies.max() if copies.size else 1), m + 1
    code = FracLinCode(net, r, l, field)
    labels = [parse_label(x) for x in net.label_table[: net.n_nodes]]
    if any(kind == "u" and idx[0] > m for kind, idx in labels):
        raise ValueError(f"the network has a group beyond m = {m}")
    proj = Mat(field, np.eye(2, l, dtype=np.int64))
    pad = Mat(field, np.eye(l, 2, dtype=np.int64))
    scaled = proj if qinv is None else Mat(field, proj.a * qinv % p)
    widened: dict[tuple[int, int, int], Mat] = {}

    def widen(mat: Mat, copy: int, axis: int) -> Mat:
        """mat zero-padded to r along `axis`, onto components 2*copy-1 and
        2*copy; built once per (base Mat, copy, axis)."""
        key = (id(mat), copy, axis)
        out = widened.get(key)
        if out is None:
            width = [(0, 0), (0, 0)]
            width[axis] = (2 * copy - 2, r - 2 * copy)
            out = widened[key] = Mat(field, np.pad(mat.a, width))
        return out

    @cache
    def source(idx: tuple[int, ...], i: int) -> Mat:
        """The base matrix of an edge from source s_<idx> into u_<i>_<j>."""
        a = np.eye(l, 2, dtype=np.int64)
        if len(idx) == 3:
            x1, x2, _ = idx
            if x1 == i:  # pair (i, x2), x2 > i: first symbol carrier
                a[_slot_first(i, x2), 0] = 1
            else:  # pair (x1, i), x1 < i: second symbol carrier
                a[_slot_second(m, i, x1), 1] = 1
        return Mat(field, a)

    @cache
    def partner(a: int, b: int, scale: int, row: int) -> Mat:
        """scale * proj, less scale times the partner slot of pair (a, b)
        in the first (row 0) or second (row 1) symbol's row."""
        d = proj.a * scale % p
        d[row, _slot_first(a, b) if row == 0 else _slot_second(m, b, a)] = -scale % p
        return Mat(field, d)

    def taps(kind: str, idx: tuple[int, ...]) -> tuple[int, Mat, Mat]:
        """(g, decoder of a tap from group g, decoder of every other tap)."""
        if kind == "t" and len(idx) == 3:
            return idx[0], partner(idx[0], idx[1], 1, 0), partner(idx[0], idx[1], 1, 1)
        if kind == "tp" and qinv is not None:
            # q^{-1} (sum_j Y'_aj + sum_j Y'_bj - sum_j W_abj) + directs
            return idx[0], partner(idx[0], idx[1], qinv, 0), partner(idx[0], idx[1], qinv, 1)
        if kind == "t" and len(idx) == 1:
            # t_i: q^{-1} sum_j Y'_ij (n2), or sum_j Y'_ij with q+1 = 1 (n1), + directs
            return 0, scaled, scaled
        return 0, proj, proj

    # Source edges: a direct edge pads, by copy; an edge into u_<i>_<j>
    # carries its source's matrix for group i.
    tail, head = net.tail, net.head
    from_source = net.role_mask(SOURCE)
    src = np.flatnonzero(from_source[tail])
    direct = net.role_mask(TERMINAL)[head[src]]
    direct_copies, at = np.unique(copies[src[direct]], return_inverse=True)
    mats = [widen(pad, c, 1) for c in direct_copies.tolist()]
    key = np.empty(len(src), dtype=np.intp)
    key[direct] = at.ravel()
    for j in np.flatnonzero(~direct).tolist():
        ei = src[j]
        key[j] = len(mats)
        mats.append(widen(source(labels[tail[ei]][1], labels[head[ei]][1][0]), int(copies[ei]), 1))
    code.src_mats.update(zip(src.tolist(), map(mats.__getitem__, key.tolist())))
    _identity_in_mats(net, code, Mat.identity(field, l))

    # A decoder projects (0) for a direct in-edge, else reads the tap as
    # own (1) or other (2) by the tail's group, widened by copy.
    group = np.array([idx[0] for _, idx in labels] + [0] * (len(net.label_table) - net.n_nodes))
    ins_kind = np.where(from_source[tail], 0, 2)
    for t, x in zip(net.terminals, net.entries(TERMINAL).tolist()):
        g, own, other = taps(*labels[x])
        ins = net.in_edges_of(x)
        kind = np.where((ins_kind[ins] == 2) & (group[tail[ins]] == g), 1, ins_kind[ins])
        pairs = kind * (r // 2 + 1) + copies[ins]
        made = {
            int(pairs[j]): widen((proj, own, other)[kind[j]], int(copies[ins[j]]), 0)
            for j in np.unique(pairs, return_index=True)[1].tolist()
        }
        code.dec_mats[t] = tuple(map(made.__getitem__, pairs.tolist()))
    return code


def _checked_field(family: str, q: int, p: int) -> PrimeField:
    """GF(p), if the family's scheme exists over it; raises otherwise."""
    field = PrimeField(p)
    if family not in ("n1", "n2"):
        raise ValueError(f"unknown family {family!r}")
    if (q % p == 0) != (family == "n1"):
        need, have = ("", "does not divide") if family == "n1" else ("not ", "divides")
        raise CharacteristicError(
            f"the {family} scheme requires the characteristic {need}to divide q ({p} {have} {q})"
        )
    return field


def scheme(net: SumNetwork, family: str, m: int, q: int, p: int) -> FracLinCode:
    """The (2k, m+1) code on `net`, which is family(m, q) or its k-copy
    merge, in any edge and in-edge order.  Copy c carries source
    components 2c-1 and 2c through the family's (2, m+1) code, so each
    slot's matrix follows from the labels and the copy of the edge it reads.

    Source edges into u_ij put the source's two symbols in slots 1-2 and,
    for a triple source, one symbol in its partner-group slot; direct
    edges pad.  Every other edge forwards by identity.  A tap from
    v_<g>_<j> into t_<a>_<b>_<c> subtracts a's partner slot when g = a and
    b's otherwise.  Every other decoder projects onto slots 1-2, except in
    n2, where the taps into t_<i> and tp_<a>_<b> are scaled by q^{-1} and
    tp's subtract as t_<a>_<b>_<c>'s do.  Raises CharacteristicError
    unless the characteristic divides q (n1: t_i sums Y'_ij over j, and
    q+1 = 1) or does not (n2).
    """
    field = _checked_field(family, q, p)
    qinv = pow(q % p, -1, p) if family == "n2" else None
    return _family_scheme(net, field, m, qinv)


def scheme_merged(family: str, m: int, q: int, p: int, k: int) -> FracLinCode:
    """The (2k, m+1) code on the k-copy merge (the base itself when k = 1)."""
    _checked_field(family, q, p)
    return scheme(build_merged(family, m, q, k)[0], family, m, q, p)


# --- code unrolling (merged -> base at k times the block length) ----------------------


def unroll_merged(merged_code: FracLinCode, k: int, base: Optional[SumNetwork] = None) -> FracLinCode:
    """Turn a verifying (r,l) code on a k-copy merge into an (r, l*k) code
    on the base network: each base edge carries the stacked messages of
    its k images.  The merge may list its edges and in-edges in any order:
    each merged edge's base edge and copy are read from its labels
    (`edge_origins`).  Raises ValueError unless every base edge has
    exactly one image in each copy 1..k; a merge of a base with parallel
    direct edges reads as copies beyond k, so it is refused."""
    if not verify(merged_code.net, merged_code).ok:
        raise UnverifiedCodeError("input code does not verify on the merged network")
    if k == 1 and base is None:
        return merged_code
    if base is None:
        raise ValueError("base network required to unroll a k>1 merge")
    merged = merged_code.net
    if len(merged.tail) != k * len(base.tail):
        raise ValueError(
            f"merged network has {len(merged.tail)} edges, expected {k} x {len(base.tail)}"
        )
    images = _merge_images(merged, base, k)
    field = merged_code.field
    r, l = merged_code.r, merged_code.l
    code = FracLinCode(base, r, l * k, field)
    built: dict[tuple, Mat] = {}

    def combine(make, parts: list[Mat]) -> Mat:
        """make(arrays of parts) as a Mat, built once per (make, part objects)."""
        key = (make, *map(id, parts))
        out = built.get(key)
        if out is None:
            out = built[key] = Mat(field, make([m.a for m in parts]))
        return out

    def combined(make, parts: list[Mat]) -> list[Mat]:
        """combine(make, row) for each row of k parts, once per distinct row."""
        if not parts:
            return []
        _, first, which = np.unique(
            _ids(parts).reshape(-1, k), axis=0, return_index=True, return_inverse=True
        )
        made = [combine(make, parts[f * k : (f + 1) * k]) for f in first.tolist()]
        return list(map(made.__getitem__, which.ravel().tolist()))

    position = np.full(len(merged.tail), -1, dtype=np.intp)
    position[merged.in_idx] = np.arange(len(merged.in_idx)) - np.repeat(
        merged.in_ptr[:-1], np.diff(merged.in_ptr)
    )

    def read(ins: np.ndarray, readers: np.ndarray) -> list[list[int]]:
        """For each base in-edge in ins, the position of its copy-c image in
        the in-edge order of merged node readers[c - 1], per copy c."""
        imgs = images[ins]
        wrong = (merged.head[imgs] != readers) | (position[imgs] < 0)
        if wrong.any():
            label = merged.edge_label(imgs[wrong][0])
            raise ValueError(f"merged edge {label} is not an in-edge of the copy that reads it")
        return position[imgs].tolist()

    # In copy c, base in-edge b is read through its copy-c image.
    from_source = base.role_mask(SOURCE)[base.tail]
    src = np.flatnonzero(from_source)
    parts = list(map(merged_code.src_mats.__getitem__, images[src].ravel().tolist()))
    code.src_mats.update(zip(src.tolist(), combined(np.vstack, parts)))
    for be in np.flatnonzero(~from_source).tolist():
        readers = images[be]
        mats = [merged_code.in_mats[me] for me in readers.tolist()]
        code.in_mats[be] = tuple(
            combine(_block_diag, [mats[c][j] for c, j in enumerate(row)])
            for row in read(base.in_edges_of(base.tail[be]), merged.tail[readers])
        )
    for t, x, y in zip(base.terminals, base.entries(TERMINAL), merged.entries_of(base.terminals)):
        dec = merged_code.dec_mats[t]
        at = read(base.in_edges_of(x), np.full(k, y))
        code.dec_mats[t] = tuple(combined(np.hstack, [dec[j] for row in at for j in row]))
    return code


def _merge_images(merged: SumNetwork, base: SumNetwork, k: int) -> np.ndarray:
    """images[b, c - 1]: the merged edge that is copy c of base edge b, read
    from the labels (`edge_origins`).  Raises ValueError at the first
    merged edge that copies no base edge, lies outside copies 1..k, or is
    a second image of one base edge in one copy."""
    stems, tail, head, par, copy = edge_origins(merged)
    entry = base.entries_of(stems)
    # One int key per (tail, head, par), par ranked over both networks.
    _, par_rank = np.unique(np.concatenate([base.par, par]), return_inverse=True)
    width = len(base.label_table) + 1
    ends = (np.concatenate([base.tail, entry[tail]]) + 1) * width
    ends += np.concatenate([base.head, entry[head]]) + 1
    keys = ends * (par_rank.max(initial=0) + 1) + par_rank.ravel()
    base_keys, merged_keys = keys[: len(base.tail)], keys[len(base.tail) :]
    by_key = np.argsort(base_keys, kind="stable")
    at = np.searchsorted(base_keys[by_key], merged_keys, side="right") - 1
    found = at >= 0
    found[found] = base_keys[by_key[at[found]]] == merged_keys[found]
    origin = np.where(found, by_key[at], -1)  # the last base edge of that key, as a dict keeps
    outside = (copy < 1) | (copy > k)
    slot = origin * k + copy - 1
    placed = np.flatnonzero(found & ~outside)
    placed = placed[np.argsort(slot[placed], kind="stable")]
    second = np.zeros(len(slot), dtype=bool)
    second[placed[1:][np.diff(slot[placed]) == 0]] = True
    bad = ~found | outside | second
    if bad.any():
        me = int(np.argmax(bad))
        label = merged.edge_label(me)
        if not found[me]:
            raise ValueError(f"merged edge {label} copies no edge of the base")
        if outside[me]:
            bound = f"> k = {k}" if copy[me] > k else "< 1"
            raise ValueError(f"merged edge {label} lies in copy {copy[me]} {bound}")
        raise ValueError(
            f"base edge {base.edge_label(origin[me])} has a second image in copy {copy[me]}"
        )
    images = np.empty((len(base.tail), k), dtype=np.intp)
    images.ravel()[slot] = np.arange(len(slot))
    return images


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    n = blocks[0].shape[0]
    out = np.zeros((n * len(blocks), n * len(blocks)), dtype=np.int64)
    for c, blk in enumerate(blocks):
        out[c * n : (c + 1) * n, c * n : (c + 1) * n] = blk
    return out


# --- code files ------------------------------------------------------------------------


_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def code_to_json(code: FracLinCode) -> bytes:
    """The v1 code file: `json.dumps(doc, sort_keys=True, separators=(",", ":"))`
    plus a newline, byte for byte."""
    return _code_text(code).encode("utf-8")


def _code_text(code: FracLinCode) -> str:
    """The code file's text, joined once from one list of fragments.  Each
    node label, Mat object and in-edge or decoder tuple is encoded once; an
    edge key is put together from its ends' encoded labels, as JSON escapes
    a string character by character.  Keys come in `sort_keys` order, by
    label.  The fragments are freed on return, before the text is encoded."""
    net = code.net
    mat_texts: dict[int, str] = {}  # id(Mat) -> its entry list as JSON
    tuple_texts: dict[int, str] = {}  # id(tuple of Mats) -> its list of entry lists

    def mat_text(m: Mat) -> str:
        out = mat_texts.get(id(m))
        if out is None:
            out = mat_texts[id(m)] = _ENCODE(m.flat())
        return out

    def tuple_text(mats: Sequence[Mat]) -> str:
        out = tuple_texts.get(id(mats))
        if out is None:
            out = tuple_texts[id(mats)] = "[" + ",".join(map(mat_text, mats)) + "]"
        return out

    names = [_ENCODE(label)[1:-1] for label in net.label_table]
    ends = zip(net.tail.tolist(), net.head.tolist(), net.par.tolist())
    keys = [f',"({names[t]},{names[h]},{p})":' for t, h, p in ends]
    from_source = net.role_mask(SOURCE)[net.tail].tolist()
    src, ins = code.src_mats, code.in_mats
    values = [mat_text(src[i]) if s else tuple_text(ins[i]) for i, s in enumerate(from_source)]
    by_label = dict(zip(net.edge_labels(), count()))  # a repeated label keeps its last edge
    order = list(map(by_label.__getitem__, sorted(by_label)))
    del by_label  # the labels are not needed for the join
    edges = [""] * (2 * len(order))
    edges[0::2] = map(keys.__getitem__, order)
    edges[1::2] = map(values.__getitem__, order)
    decoders = {t: tuple_text(code.dec_mats[t]) for t in net.terminals}
    terminals = []
    for t in sorted(decoders):
        terminals += (f",{_ENCODE(t)}:", decoders[t])
    for section in (edges, terminals):
        if section:
            section[0] = section[0][1:]  # no comma before the first key
    return "".join(
        [
            '{"edge_matrices":{', *edges, f'}},"l":{_ENCODE(code.l)},"p":{_ENCODE(code.field.p)}',
            f',"r":{_ENCODE(code.r)},"terminal_matrices":{{', *terminals,
            f'}},"version":{_ENCODE(CODE_FORMAT_VERSION)}}}\n',
        ]
    )


def _as_mat(field: PrimeField, flat, rows: int, cols: int, what: str) -> Mat:
    """A flat JSON list of rows*cols integers as a matrix.  numpy infers
    int64 (bool if all are booleans) exactly when every entry is an
    integer or boolean in the int64 range; anything else infers another
    kind, or raises."""
    try:
        a = np.array(flat)
    except (ValueError, OverflowError) as exc:
        raise CodeFormatError(f"{what}: entries must be integers") from exc
    if a.shape != (rows * cols,):
        raise CodeFormatError(f"{what}: expected {rows * cols} entries")
    if a.dtype.kind not in "ib":
        raise CodeFormatError(f"{what}: entries must be integers")
    return Mat(field, a.reshape(rows, cols))


# An array literal of integers only, however spaced.
_ARRAY = re.compile(rb"\[[ \t\n\r0-9,-]*\]")


def _split_strings(data: bytes) -> list[bytes]:
    """data.split(b'"') with the pieces around each escaped quote joined
    again, so that the pieces alternate: outside strings (even), then a
    string's body (odd; the last one is unterminated if their count is
    even).  A quote is escaped when an odd run of backslashes precedes
    it.  JSON has backslashes only in strings; a text with one outside
    them is no JSON, whatever its pieces, and its own error is raised.
    Each run of joined pieces is joined once, so the time stays linear."""
    pieces = data.split(b'"')
    if b"\\" not in data:
        return pieces
    joined = []  # k: the quote after piece k is escaped
    for k, piece in enumerate(pieces[:-1]):
        if piece.endswith(b"\\") and (len(piece) - len(piece.rstrip(b"\\"))) % 2:
            joined.append(k)
    out, start, first = [], 0, 0
    for n, k in enumerate(joined):
        if n + 1 < len(joined) and joined[n + 1] == k + 1:
            continue  # the run of joins goes on
        out += pieces[start : joined[first]]
        out.append(b'"'.join(pieces[joined[first] : k + 2]))
        start, first = k + 2, n + 1
    return out + pieces[start:]


def _parse_code_file(data: bytes) -> tuple[object, list[list[int]]]:
    """json.loads of the UTF-8 text with every all-integer array replaced
    by a reference [k], and the value of the k-th distinct array text.

    The bytes are split at their quotes (a quote byte is never part of a
    multi-byte character); the references are substituted once per
    distinct piece outside strings (71 in the rate-3/5 code file, for
    112,212 matrices), and each distinct array text is decoded once.  A
    skeleton list that holds exactly one int is a reference, because every
    all-integer array was replaced.  Either part fails to decode only
    when the text does, so the text's own error is raised."""
    data.decode("utf-8")  # raises where the text is not UTF-8
    pieces = _split_strings(data)
    refs: dict[bytes, bytes] = {}

    def ref(m: re.Match) -> bytes:
        out = refs.get(m.group())
        if out is None:
            out = refs[m.group()] = b"[%d]" % len(refs)
        return out

    outside = pieces[0::2]
    subs = dict.fromkeys(outside)
    for piece in subs:
        subs[piece] = _ARRAY.sub(ref, piece)
    pieces[0::2] = map(subs.__getitem__, outside)
    skeleton = b'"'.join(pieces).decode("utf-8")
    del pieces, outside, subs  # before the skeleton is parsed
    try:
        return json.loads(skeleton), [json.loads(array.decode()) for array in refs]
    except json.JSONDecodeError:
        json.loads(data.decode("utf-8"))
        raise


def _is_ref(x) -> bool:
    return type(x) is list and len(x) == 1 and type(x[0]) is int


def _ref_ids(entry: list) -> Optional[tuple[int, ...]]:
    """The references of a skeleton list made only of references, else None."""
    try:
        ids = tuple([k for (k,) in entry])
    except (TypeError, ValueError):  # an item that is not a one-item sequence
        return None
    if set(map(type, entry)) <= {list} and set(map(type, ids)) <= {int}:
        return ids
    return None


def _resolve(x, arrays: list[list[int]]):
    """A skeleton value with every reference replaced by its array: the
    value json.loads gives for the original text."""
    if _is_ref(x):
        return arrays[x[0]]
    if type(x) is list:
        return [_resolve(y, arrays) for y in x]
    if type(x) is dict:
        return {k: _resolve(v, arrays) for k, v in x.items()}
    return x


class _MatTable:
    """One read-only Mat per distinct entry list of a code file.

    A reference is looked up once per (array, rows, cols), and a list of
    references once per (rows, cols, references).  Equal tuples
    of JSON values are equal matrices, with one exception: a float equal
    to an integer (1.0 == 1, with the same hash).  A list that matches a
    stored one holds only integers, booleans and such floats, and its sum
    is a float exactly when it holds a float, so that sum rejects it as
    `_as_mat` would.
    """

    def __init__(self, field: PrimeField, arrays: list[list[int]]):
        self.field = field
        self.arrays = arrays
        self.refs: dict[tuple[int, int, int], Mat] = {}
        self.rows: dict[tuple, tuple[Mat, ...]] = {}
        self.mats: dict[tuple, Mat] = {}

    def get(self, flat, rows: int, cols: int, what: str, j: Optional[int] = None) -> Mat:
        """The matrix for skeleton value `flat`; `what`, or `what[j]`, names it in errors."""
        if _is_ref(flat):
            key = (flat[0], rows, cols)
            mat = self.refs.get(key)
            if mat is None:
                mat = self.refs[key] = self._get(self.arrays[flat[0]], rows, cols, what, j)
            return mat
        return self._get(_resolve(flat, self.arrays), rows, cols, what, j)

    def row(self, entry, degree: int, rows: int, cols: int, what: str) -> tuple[Mat, ...]:
        """The matrices of an in-edge or decoder list, one per in-edge; a
        list made only of references is looked up once per (rows, cols,
        references)."""
        if _is_ref(entry):
            entry = self.arrays[entry[0]]
        if not isinstance(entry, list) or len(entry) != degree:
            raise CodeFormatError(f"{what}: expected {degree} matrices")
        ids = _ref_ids(entry)
        mats = None if ids is None else self.rows.get((rows, cols, ids))
        if mats is None:
            mats = tuple(self.get(flat, rows, cols, what, j) for j, flat in enumerate(entry))
            if ids is not None:
                self.rows[rows, cols, ids] = mats
        return mats

    def _get(self, flat, rows: int, cols: int, what: str, j: Optional[int]) -> Mat:
        if j is not None:
            what = f"{what}[{j}]"
        try:
            key = (rows, cols, tuple(flat))
            mat = self.mats.get(key)
        except TypeError:  # not a list, or a list holding lists or objects
            return _as_mat(self.field, flat, rows, cols, what)
        if mat is None:
            mat = self.mats[key] = _as_mat(self.field, flat, rows, cols, what)
            mat.a.flags.writeable = False
        elif isinstance(sum(flat), float):
            raise CodeFormatError(f"{what}: entries must be integers")
        return mat


def code_from_json(net: SumNetwork, data: bytes) -> FracLinCode:
    """Load a v1 code file; equal entry lists share one read-only Mat."""
    try:
        return _code_from_json(net, data)
    except RecursionError:  # from parsing, or from resolving what was parsed
        raise CodeFormatError(
            "not valid JSON: the code file nests deeper than the recursion limit"
        ) from None


def _code_from_json(net: SumNetwork, data: bytes) -> FracLinCode:
    try:
        doc, arrays = _parse_code_file(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodeFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CodeFormatError("top level must be an object")
    for key in ("version", "r", "l", "p", "edge_matrices", "terminal_matrices"):
        if key not in doc:
            raise CodeFormatError(f"missing field {key!r}")
    version = _resolve(doc["version"], arrays)
    if type(version) is not int or version != CODE_FORMAT_VERSION:
        raise CodeFormatError(f"unsupported version {version}")
    r, l, p = (_resolve(doc[key], arrays) for key in ("r", "l", "p"))
    for key, value in (("r", r), ("l", l), ("p", p)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodeFormatError(f"field {key!r} must be an integer, got {value!r}")
        if key != "p" and value < 1:
            raise CodeFormatError(f"field {key!r} must be positive, got {value}")
    try:
        field = PrimeField(p)
    except ValueError as exc:
        raise CodeFormatError(f"field 'p': {exc}") from exc
    for key in ("edge_matrices", "terminal_matrices"):
        if not isinstance(doc[key], dict):
            raise CodeFormatError(f"field {key!r} must be an object")
    code = FracLinCode(net, r, l, field)
    table = _MatTable(field, arrays)
    missing = object()
    edge_matrices = doc["edge_matrices"]
    from_source = net.role_mask(SOURCE)[net.tail].tolist()
    degrees = np.diff(net.in_ptr)[net.tail].tolist()
    get, src_mats, in_mats = edge_matrices.get, code.src_mats, code.in_mats
    for i, (label, src) in enumerate(zip(net.edge_labels(), from_source)):
        entry = get(label, missing)
        if entry is missing:
            raise CodeFormatError(f"edge_matrices missing edge {label}")
        if not src:
            in_mats[i] = table.row(entry, degrees[i], l, l, f"edge {label}")
        elif type(entry) is list and len(entry) == 1 and type(entry[0]) is int:  # _is_ref
            mat = table.refs.get((entry[0], l, r))
            src_mats[i] = mat if mat is not None else table.get(entry, l, r, f"edge {label}")
        else:
            src_mats[i] = table.get(entry, l, r, f"edge {label}")
    terminal_matrices = doc["terminal_matrices"]
    for t in net.terminals:
        if t not in terminal_matrices:
            raise CodeFormatError(f"terminal_matrices missing terminal {t}")
        degree = len(net.in_edges(t))
        code.dec_mats[t] = table.row(terminal_matrices[t], degree, r, l, f"terminal {t}")
    return code
