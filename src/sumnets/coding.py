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
import operator
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import chain, compress, repeat
from typing import Optional

import numpy as np

from ._core_py import matmul_mod
from .constructions import build_merged, edge_origins, parse_label
from .galois import PrimeField
from .matrix import Mat, rank
from .network import INTERMEDIATE, SOURCE, TERMINAL, SumNetwork, _csr_rows, _level_order
from .network import topo_order  # noqa: F401  (a module attribute that tracers wrap)

CODE_FORMAT_VERSION = 1


class CharacteristicError(ValueError):
    """The requested scheme does not exist over this characteristic."""


class UnverifiedCodeError(ValueError):
    """An operation requiring a verifying code received a failing one."""


class CodeFormatError(ValueError):
    """Raised on malformed code files."""


class UnsupportedNetworkError(ValueError):
    """The network is not of the three-layer-plus-direct shape."""


class FracLinCode:
    """An (r,l) fractional linear code bound to a network, held as a table.

    mats: the table, a tuple of one Mat per distinct matrix.  Three
    read-only int arrays index it over the slots of `net.layout()`:
      src_idx  per source edge (`source_edges`), its l x r matrix;
      in_idx   per in-edge slot of a relayed edge (`in_slot_ptr`), its
               l x l matrix, in the tail's in-edge order;
      dec_idx  per terminal slot (`term_ptr`), its r x l decoder.

    src_mats (edge index -> Mat), in_mats (edge index -> tuple, one per
    in-edge of the tail) and dec_mats (terminal label -> tuple) are
    read-only mapping views of the table.  The constructor takes three
    such mappings and puts each distinct object in the table once.  It
    raises KeyError on a key that names no slot, and ValueError at the
    first edge, then terminal, whose entry is missing, misshaped, or a
    tuple of another length than the in-degree; `_of_table` checks its
    arrays in the same order.  A row of no slots (a node without
    in-edges) is (), and may be left out.  A code cannot change once
    built, so the verdict and messages that `verify` leaves on it hold
    for `bound_check` and `unroll_merged`; codes compare by identity.
    """

    def __init__(
        self,
        net: SumNetwork,
        r: int,
        l: int,
        field: PrimeField,
        src_mats: Mapping,
        in_mats: Mapping,
        dec_mats: Mapping,
    ):
        lay = net.layout()
        at: dict[int, int] = {}  # id(entry) -> its table index
        mats: list[Mat] = []
        arrays: list[list[int]] = []
        unfit: list[list[int]] = []  # per mapping, the rows of another length than their slots
        for given, keys, ptr in (
            (src_mats, lay.source_edges.tolist(), None),
            (in_mats, lay.relayed_edges.tolist(), lay.in_slot_ptr),
            (dec_mats, net.terminals, lay.term_ptr),
        ):
            extra = set(given).difference(keys)
            if extra:
                raise KeyError(next(iter(extra)))
            ids, rows = [], []
            degrees = np.diff(ptr).tolist() if ptr is not None else [1] * len(keys)
            for j, (key, degree) in enumerate(zip(keys, degrees)):
                row = (given.get(key),) if ptr is None else given.get(key, ())
                if len(row) != degree:
                    rows.append(j)
                    row = (None,) * degree  # None: index -1
                for m in row:
                    i = -1 if m is None else at.setdefault(id(m), len(mats))
                    if i == len(mats):
                        mats.append(m)
                    ids.append(i)
            arrays.append(ids)
            unfit.append(rows)
        self._hold(net, r, l, field, mats, *arrays)
        self._check(*unfit[1:])

    @classmethod
    def _of_table(cls, net, r, l, field, mats, src_idx, in_idx, dec_idx) -> "FracLinCode":
        """A code from its table and index arrays, checked as the constructor checks one."""
        code = cls.__new__(cls)
        code._hold(net, r, l, field, mats, src_idx, in_idx, dec_idx)
        code._check()
        return code

    def _check(self, unfit_in: Sequence[int] = (), unfit_dec: Sequence[int] = ()) -> None:
        """Raise ValueError at the first edge, then terminal, with a slot
        whose table index is out of range or whose entry is misshaped, or
        whose row (relayed edge or terminal position) the constructor
        found of another length than the in-degree.  Each array is read
        once through a per-entry mask of misshaped entries."""
        net, lay, r, l = self.net, self.net.layout(), self.r, self.l
        shapes = [getattr(m, "shape", None) for m in self.mats]
        first = []  # per array, its first row with a bad slot, if any
        for idx, shape, ptr in (
            (self.src_idx, (l, r), np.arange(len(lay.source_edges) + 1)),
            (self.in_idx, (l, l), lay.in_slot_ptr),
            (self.dec_idx, (r, l), lay.term_ptr),
        ):
            if len(idx) != ptr[-1]:
                raise ValueError(f"{len(idx)} table indices for {ptr[-1]} slots")
            misfit = np.array([s != shape for s in shapes] + [True])  # the last for a bad index
            bad = np.flatnonzero(misfit[np.clip(idx, -1, len(shapes))])
            first.append((np.searchsorted(ptr, bad[:1], side="right") - 1).tolist())
        ins = min([*first[1], *unfit_in], default=None)
        dec = min([*first[2], *unfit_dec], default=None)
        edges = [(int(lay.source_edges[j]), "missing or misshaped source matrix") for j in first[0]]
        if ins is not None:
            what = "in-edge matrix list mismatch" if ins in unfit_in else f"expected {l}x{l} matrices"
            edges.append((int(lay.relayed_edges[ins]), what))
        if edges:
            e, what = min(edges)
            raise ValueError(f"edge {net.edge_label(e)}: {what}")
        if dec is not None:
            what = "decoder list mismatch" if dec in unfit_dec else f"expected {r}x{l} decoders"
            raise ValueError(f"terminal {net.terminals[dec]}: {what}")

    def _hold(self, net, r, l, field, mats, src_idx, in_idx, dec_idx) -> None:
        self._net, self._r, self._l, self._field = net, r, l, field
        self._mats = tuple(mats)
        arrays = [np.array(idx, dtype=np.intp) for idx in (src_idx, in_idx, dec_idx)]
        for idx in arrays:
            idx.flags.writeable = False
        self._src_idx, self._in_idx, self._dec_idx = arrays
        self._composed: Optional[tuple[bool, Optional[dict]]] = None  # what verify left

    net = property(lambda self: self._net)
    r = property(lambda self: self._r)
    l = property(lambda self: self._l)
    field = property(lambda self: self._field)
    mats = property(lambda self: self._mats)
    src_idx = property(lambda self: self._src_idx)
    in_idx = property(lambda self: self._in_idx)
    dec_idx = property(lambda self: self._dec_idx)
    src_mats = property(lambda self: _View(self, "src"))
    in_mats = property(lambda self: _View(self, "in"))
    dec_mats = property(lambda self: _View(self, "dec"))

    def __repr__(self):
        size = f"r={self.r}, l={self.l}, {self.field!r}, {len(self.mats)} matrices"
        return f"FracLinCode({self.net!r}, {size})"


class _View(Mapping):
    """A view of one index array: edge index -> source matrix (`src_idx`),
    edge index -> in-edge matrices (`in_idx`) or terminal label ->
    decoders (`dec_idx`), the last two a tuple per key."""

    def __init__(self, code: FracLinCode, kind: str):
        self._code, self._kind = code, kind
        self._lay = lay = code.net.layout()
        if kind == "src":
            self._keys, self._ptr, self._idx = lay.source_edges, None, code.src_idx
        elif kind == "in":
            self._keys, self._ptr, self._idx = lay.relayed_edges, lay.in_slot_ptr, code.in_idx
        else:
            self._keys, self._ptr, self._idx = code.net.terminals, lay.term_ptr, code.dec_idx

    def __getitem__(self, key):
        lay, keys = self._lay, self._keys
        if self._kind == "dec":
            j = lay.term_rows[key][0] if isinstance(key, str) and key in lay.term_rows else -1
        else:
            try:
                e = operator.index(key)
            except TypeError:
                raise KeyError(key) from None
            j = int(lay.edge_row[e]) if 0 <= e < len(lay.edge_row) else -1
            j = j if 0 <= j < len(keys) and keys[j] == e else -1
        if j < 0:
            raise KeyError(key)
        if self._ptr is None:
            return self._code.mats[self._idx[j]]
        ids = self._idx[self._ptr[j] : self._ptr[j + 1]].tolist()
        return tuple(map(self._code.mats.__getitem__, ids))

    def __iter__(self):
        return iter(self._keys if self._kind == "dec" else self._keys.tolist())

    def __len__(self) -> int:
        return len(self._keys)


# --- transfer matrices ------------------------------------------------------


class TransferMap:
    """Edge and terminal maps from the global source vector.

    Terminals are one (n_terminals, n_sources, r, r) array,
    `terminal_maps`, in `net.terminals` order, or None on the map that
    `bound_check` rebuilds from what `verify` left on a code.  An edge
    leaving a source carries its source matrix, read from the code.
    Every other edge carries, in `messages`, (source positions, one
    l x (n*r) array) whose j-th l x r block is the map from source
    positions[j].  `edge_matrix` gives an edge's dense form on demand.
    """

    def __init__(self, code: FracLinCode, messages: Optional[dict] = None, terminal_maps=None):
        self.net = code.net
        self.r = code.r
        self.l = code.l
        self.field = code.field
        self._code = code
        self.messages: dict[int, tuple[np.ndarray, np.ndarray]] = messages or {}
        self.terminal_maps = terminal_maps

    @property
    def n_sources(self) -> int:
        return len(self.net.source_order)

    def message(self, edge_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(source positions, l x (n*r) array) carried by the edge."""
        pos = self.net.layout().src_pos[edge_index]
        if pos >= 0:
            return np.array([pos]), self._code.src_mats[edge_index].a
        return self.messages[edge_index]

    def edge_matrix(self, edge_index: int) -> Mat:
        pos, msg = self.message(edge_index)
        out = np.zeros((self.l, self.n_sources, self.r), dtype=np.int64)
        out[:, pos] = msg.reshape(self.l, -1, self.r)
        return Mat(self.field, out.reshape(self.l, -1))


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


def _kinds(code: FracLinCode, ids: np.ndarray) -> np.ndarray:
    """Per table entry, looked at once for each one in ids: 0 when zero,
    1 when an identity, else 2."""
    kind = np.full(len(code.mats), 2, dtype=np.int8)
    for i in np.unique(ids).tolist():
        a = code.mats[i].a
        kind[i] = 0 if not a.any() else 1 if np.array_equal(a, np.eye(*a.shape)) else 2
    return kind


def _relay(code: FracLinCode) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The message of every relayed edge, level by level (`_level_order`,
    which raises CycleError on a cyclic network), so that each comes
    after the in-edges of its tail.  A zero in-edge matrix is skipped and
    an identity one passes its in-edge's message on, so an edge with one
    such in-edge shares its message object; any other takes one product
    with the whole message."""
    net, lay = code.net, code.net.layout()
    r, l, p = code.r, code.l, code.field.p
    src_pos = lay.src_pos
    order = _level_order(net)
    relayed = order[src_pos[order] < 0]
    rows = lay.edge_row[relayed].tolist()
    ptr = lay.in_slot_ptr.tolist()
    ins = lay.in_slot_edges.tolist()
    ids = code.in_idx.tolist()
    kind = _kinds(code, code.in_idx)[code.in_idx].tolist()
    mats = code.mats
    # Source edges carry their matrix at their one position.
    feeds = np.unique(lay.in_slot_edges[src_pos[lay.in_slot_edges] >= 0])
    at = src_pos[feeds][:, None]
    src = code.src_idx[lay.edge_row[feeds]].tolist()
    known = {e: (at[j], mats[i].a) for j, (e, i) in enumerate(zip(feeds.tolist(), src))}
    messages: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for ei, j in zip(relayed.tolist(), rows):
        parts = []
        for s in range(ptr[j], ptr[j + 1]):
            if kind[s]:
                part = known[ins[s]]
                if part[0].size:
                    if kind[s] == 2:
                        part = (part[0], matmul_mod(mats[ids[s]].a, part[1], p))
                    parts.append(part)
        known[ei] = messages[ei] = _scatter_sum(parts, l, r, p)
    return messages


def _terminal_maps(code: FracLinCode, messages: dict) -> np.ndarray:
    """The (T, S, r, r) terminal maps, reduced once at the end.

    Taps: the decoders of a terminal that read one message are summed,
    and each distinct message takes one product with the sums of every
    terminal that reads it stacked.  Direct slots: each terminal's
    count of slots per (source, distinct decoder and source matrix pair)
    times that pair's product.  Each entry sums fewer than 2^32 terms
    below 2^31 before the reduction, so int64 cannot overflow."""
    net, lay = code.net, code.net.layout()
    r, l, p = code.r, code.l, code.field.p
    n_terms, n_src = len(lay.term_ptr) - 1, len(net.source_order)
    maps = np.zeros((n_terms, n_src, r, r), dtype=np.int64)
    zero = _kinds(code, code.dec_idx) == 0

    taps = lay.relayed_slots
    taps = taps[~zero[code.dec_idx[taps]]]
    if taps.size:
        edges = lay.term_edges[taps].tolist()
        msg_ids = np.fromiter((id(messages[e]) for e in edges), dtype=np.uint64, count=len(edges))
        _, first, group = np.unique(msg_ids, return_index=True, return_inverse=True)
        terms = lay.slot_term[taps]
        order = np.lexsort((terms, group))
        key = group[order] * n_terms + terms[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        stack = np.stack([code.mats[i].a for i in code.dec_idx[taps[order]].tolist()])
        sums = np.add.reduceat(stack, starts, axis=0) % p
        sum_terms, sum_group = terms[order][starts], group[order][starts]
        bounds = np.searchsorted(sum_group, np.arange(len(first) + 1))
        for g, e in enumerate(lay.term_edges[taps[first]].tolist()):
            pos, msg = messages[e]
            lo, hi = bounds[g], bounds[g + 1]
            if pos.size and hi > lo:
                prod = matmul_mod(sums[lo:hi].reshape(-1, l), msg, p)
                blocks = prod.reshape(hi - lo, r, pos.size, r).transpose(0, 2, 1, 3)
                maps[sum_terms[lo:hi, None], pos[None, :]] += blocks

    direct = lay.direct_slots
    direct = direct[~zero[code.dec_idx[direct]]]
    if direct.size:
        edges = lay.term_edges[direct]
        n = len(code.mats)
        pair_key = code.dec_idx[direct] * n + code.src_idx[lay.edge_row[edges]]
        pairs, pair = np.unique(pair_key, return_inverse=True)
        products = [
            matmul_mod(code.mats[d].a, code.mats[e].a, p)
            for d, e in zip((pairs // n).tolist(), (pairs % n).tolist())
        ]
        key = (lay.slot_term[direct] * len(pairs) + pair) * n_src + lay.src_pos[edges]
        cells, counts = np.unique(key, return_counts=True)
        segment, pos = np.divmod(cells, n_src)
        starts = np.flatnonzero(np.diff(segment, prepend=-1))
        repeated = (np.maximum.reduceat(counts, starts) > 1).tolist() if starts.size else []
        starts = starts.tolist()
        bounds = zip(starts, starts[1:] + [len(cells)], segment[starts].tolist(), repeated)
        # One (terminal, product) segment at a time, so no block is made per slot.
        for lo, hi, seg, many in bounds:
            t, j = divmod(seg, len(pairs))
            if products[j].any():
                prod = products[j]
                maps[t, pos[lo:hi]] += counts[lo:hi, None, None] * prod if many else prod
    maps %= p
    return maps


def transfer(net: SumNetwork, code: FracLinCode) -> TransferMap:
    """Compose all local maps in topological order.

    Each distinct in-edge matrix is classed once as zero, identity or
    other: a zero slot adds nothing, an identity slot passes its
    in-edge's message on with no product, and any other takes one
    product with the whole stacked message of that in-edge.  The
    terminal maps take one product per distinct message, with the
    decoders of every terminal that reads it stacked, and one product
    per distinct (decoder, source matrix) pair of the direct slots,
    scaled by how often each terminal and source use it.  Raises
    ValueError unless `net` is the code's own network or equal to it;
    the code's shapes were checked when it was built.
    """
    if not (net is code.net or net == code.net):
        raise ValueError("net: the code is bound to another network")
    code.net.layout().src_pos  # raises when source_order omits a source
    messages = _relay(code)
    return TransferMap(code, messages, _terminal_maps(code, messages))


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
    """Pass iff every terminal transfer equals [I_r | ... | I_r].  The
    verdict, and for a passing code the relayed edges' messages, stay on
    the code, which cannot change, so that `bound_check` and
    `unroll_merged` do not compose it again."""
    tm = transfer(net, code)
    report = verify_transfer(tm)
    code._composed = (report.ok, tm.messages if report.ok else None)
    return report


def verify_transfer(tm: TransferMap) -> VerifyReport:
    """Compare every terminal map with [I_r | ... | I_r] at once; the
    residual (map minus target) and its rank are built only for the
    terminals that fail."""
    eye = np.eye(tm.r, dtype=np.int64)
    terminals = tm.net.terminals
    residuals: dict[str, Mat] = {}
    ranks: dict[str, int] = {}
    failing = (tm.terminal_maps != eye % tm.field.p).any(axis=(1, 2, 3))
    for i in np.flatnonzero(failing):
        # Block (pos) of the residual occupies columns pos*r .. pos*r + r - 1.
        diff = (tm.terminal_maps[i] - eye) % tm.field.p
        res = Mat(tm.field, diff.transpose(1, 0, 2).reshape(tm.r, -1))
        residuals[terminals[i]] = res
        ranks[terminals[i]] = rank(res)
    first = next(iter(residuals), None)
    return VerifyReport(not residuals, residuals, first, ranks)


def _verified(net: SumNetwork, code: FracLinCode, refusal: str) -> TransferMap:
    """The code's composition without terminal maps, as `verify` left it,
    verified now if it has not been; raises UnverifiedCodeError(refusal)
    unless the code verifies, and ValueError unless `net` is the code's
    own or equal."""
    if not (net is code.net or net == code.net):
        raise ValueError("net: the code is bound to another network")
    if code._composed is None:
        verify(net, code)
    ok, messages = code._composed
    if not ok:
        raise UnverifiedCodeError(refusal)
    return TransferMap(code, messages)


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
    labels = [parse_label(x) for x in net.label_table]
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
            shape, at = list(mat.shape), [slice(None), slice(None)]
            shape[axis], at[axis] = r, slice(2 * copy - 2, 2 * copy)
            a = np.zeros(shape, dtype=np.int64)
            a[tuple(at)] = mat.a
            out = widened[key] = Mat(field, a)
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

    table: dict[tuple, int] = {}  # (shape, entries) -> its index in mats
    mats: list[Mat] = []

    def add(mat: Mat) -> int:
        """The table index of mat's value, one Mat per distinct matrix."""
        key = (mat.shape, mat.a.tobytes())
        i = table.get(key)
        if i is None:
            i = table[key] = len(mats)
            mats.append(mat)
        return i

    # Source edges: a direct edge pads, by copy; an edge into u_<i>_<j>
    # carries its source's matrix for group i.
    lay = net.layout()
    tail, head = net.tail, net.head
    from_source = net.role_mask(SOURCE)
    src = lay.source_edges
    direct = net.role_mask(TERMINAL)[head[src]]
    direct_copies, at = np.unique(copies[src[direct]], return_inverse=True)
    src_idx = np.empty(len(src), dtype=np.intp)
    pads = [add(widen(pad, c, 1)) for c in direct_copies.tolist()]
    src_idx[direct] = np.array(pads, dtype=np.intp)[at]
    for j in np.flatnonzero(~direct).tolist():
        ei = src[j]
        base = source(labels[tail[ei]][1], labels[head[ei]][1][0])
        src_idx[j] = add(widen(base, int(copies[ei]), 1))
    in_idx = np.full(len(lay.in_slot_edges), add(Mat.identity(field, l)), dtype=np.intp)

    # A decoder projects (0) for a direct in-edge, else reads the tap as
    # own (1) or other (2) by the tail's group, widened by copy.
    bases = [proj]  # the distinct unwidened decoders, proj first
    base_of = {id(proj): 0}
    g, own, other = [], [], []
    for x in net.entries(TERMINAL).tolist():
        g_t, *reads = taps(*labels[x])
        g.append(g_t)
        for mat, out in zip(reads, (own, other)):
            if id(mat) not in base_of:
                base_of[id(mat)] = len(bases)
                bases.append(mat)
            out.append(base_of[id(mat)])
    g, own, other = (np.array(a, dtype=np.intp) for a in (g, own, other))
    group = np.array([idx[0] for _, idx in labels])
    ins, term = lay.term_edges, lay.slot_term
    base = np.where(group[tail[ins]] == g[term], own[term], other[term])
    base[from_source[tail[ins]]] = 0
    keys, which = np.unique(base * (r // 2 + 1) + copies[ins], return_inverse=True)
    made = [add(widen(bases[k // (r // 2 + 1)], k % (r // 2 + 1), 0)) for k in keys.tolist()]
    dec_idx = np.array(made, dtype=np.intp)[which.ravel()]
    return FracLinCode._of_table(net, r, l, field, mats, src_idx, in_idx, dec_idx)


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
    direct edges reads as copies beyond k, so it is refused.  The verdict
    that `verify` left on the input is used; an input not yet verified is
    verified here.

    Every base slot reads k merged table entries, one per copy; each
    distinct row of k entries is stacked (sources), put on the diagonal
    (in-edges) or set side by side (decoders) once."""
    _verified(merged_code.net, merged_code, "input code does not verify on the merged network")
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
    lay, mlay = base.layout(), merged.layout()
    position = np.full(len(merged.tail), -1, dtype=np.intp)
    position[merged.in_idx] = np.arange(len(merged.in_idx)) - np.repeat(
        merged.in_ptr[:-1], np.diff(merged.in_ptr)
    )

    def read(ins: np.ndarray, readers: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Per base in-edge slot (rows) and copy c (columns): the merged
        slot, starts plus the position of the in-edge's copy-c image in
        the in-edge order of merged node readers[:, c - 1]."""
        imgs = images[ins]
        wrong = (merged.head[imgs] != readers) | (position[imgs] < 0)
        if wrong.any():
            label = merged.edge_label(imgs[wrong][0])
            raise ValueError(f"merged edge {label} is not an in-edge of the copy that reads it")
        return starts + position[imgs]

    # In copy c, base in-edge b is read through its copy-c image.
    src_ids = merged_code.src_idx[mlay.edge_row[images[lay.source_edges]]]
    # The image of each relayed base edge reads its slots in the image's tail.
    owner = np.repeat(np.arange(len(lay.relayed_edges)), np.diff(lay.in_slot_ptr))
    image = images[lay.relayed_edges[owner]]
    row = mlay.edge_row[image]
    in_ids = merged_code.in_idx[read(lay.in_slot_edges, merged.tail[image], mlay.in_slot_ptr[row])]
    # Terminal t of the base reads through terminal t of the merge.
    term_row = np.array([mlay.term_rows.get(t, [0])[0] for t in base.terminals], dtype=np.intp)
    reader = merged.entries_of(base.terminals)[lay.slot_term]
    starts = mlay.term_ptr[term_row[lay.slot_term]][:, None]
    readers = np.repeat(reader[:, None], k, axis=1)
    dec_ids = merged_code.dec_idx[read(lay.term_edges, readers, starts)]

    field, mats = merged_code.field, merged_code.mats
    table: list[Mat] = []
    built = []
    for ids, make in ((src_ids, np.vstack), (in_ids, _block_diag), (dec_ids, np.hstack)):
        first, which = _distinct_rows(ids)
        built.append(len(table) + which)
        table += [Mat(field, make([mats[i].a for i in row])) for row in ids[first].tolist()]
    r, l = merged_code.r, merged_code.l
    return FracLinCode._of_table(base, r, l * k, field, table, *built)


def _distinct_rows(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct row, per row its distinct row's number)
    of a 2-d array of table indices, ranked one column at a time so that
    no key exceeds rows x (entries + 1)."""
    key = np.zeros(len(ids), dtype=np.int64)
    for col in ids.T:
        _, key = np.unique(key * (int(col.max(initial=0)) + 1) + col, return_inverse=True)
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    return first, which.ravel()


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


def _edge_keys(net: SumNetwork, end: str = "") -> tuple[np.ndarray, np.ndarray, list[list[str]]]:
    """(per key of the edge_matrices section, in sorted order, its edge;
    per edge, its key's position; the keys as three columns, per key
    "(tail,", "head," and "par)" + end with the node labels JSON-escaped,
    so that a key is the concatenation of its row).  Edges that repeat a
    label share one key, which holds the last of them.

    Keys sort as their labels (tail,head,par).  When no node label holds
    a ",", that is np.lexsort over ranks: of the node labels with ","
    appended (equal labels rank equal) for tail and head, and of the
    distinct par texts with ")" appended.  Otherwise the label strings
    themselves are ranked."""
    n_edges, labels = len(net.tail), net.label_table
    pars, par_at = np.unique(net.par, return_inverse=True)
    par_at = par_at.ravel()
    par_texts = [f"{p})" for p in pars.tolist()]
    if any("," in label for label in labels):
        strings = net.edge_labels()
        ranks = {s: k for k, s in enumerate(sorted(set(strings)))}
        columns = [np.fromiter(map(ranks.__getitem__, strings), dtype=np.intp, count=n_edges)]
    else:
        ranks = {s: k for k, s in enumerate(sorted(set(labels), key=lambda s: s + ","))}
        node_rank = np.fromiter(map(ranks.__getitem__, labels), dtype=np.intp, count=len(labels))
        par_rank = np.empty(len(pars), dtype=np.intp)
        par_rank[sorted(range(len(pars)), key=par_texts.__getitem__)] = np.arange(len(pars))
        columns = [par_rank[par_at], node_rank[net.head], node_rank[net.tail]]
    by_key = np.lexsort(columns)  # stable, so the edges of a key stay in edge order
    opens = np.zeros(n_edges, dtype=bool)  # in key order, whether an edge opens a key
    opens[:1] = True
    for column in columns:
        opens[1:] |= np.diff(column[by_key]) != 0
    closes = np.ones(n_edges, dtype=bool)
    closes[:-1] = opens[1:]
    where = np.empty(n_edges, dtype=np.intp)
    where[by_key] = np.cumsum(opens) - 1
    order = by_key[closes]
    names = [_ENCODE(label)[1:-1] for label in labels]
    columns = [
        np.array([f"({name}," for name in names], dtype=object)[net.tail[order]],
        np.array([f"{name}," for name in names], dtype=object)[net.head[order]],
        np.array([t + end for t in par_texts], dtype=object)[par_at[order]],
    ]
    return order, where, [column.tolist() for column in columns]


def code_to_json(code: FracLinCode) -> bytes:
    """The v1 code file: `json.dumps(doc, sort_keys=True, separators=(",", ":"))`
    plus a newline, byte for byte."""
    return _code_text(code, end="\n").encode("utf-8")


def _code_rows(idx: np.ndarray, ptr: np.ndarray) -> list[tuple[int, ...]]:
    """Per CSR row of slots, the tuple of its table indices."""
    idx, ptr = idx.tolist(), ptr.tolist()
    return [tuple(idx[lo:hi]) for lo, hi in zip(ptr, ptr[1:])]


def _code_text(
    code: FracLinCode, indent: Optional[int] = None, depth: int = 0, end: str = ""
) -> str:
    """The code file's text, then `end`, joined once from one list of
    fragments: compact, or as `json.dumps(doc, sort_keys=True,
    indent=indent)` lays the doc out `depth` levels deep.  Each node label,
    table entry and distinct row of table indices is encoded once, and
    the glue around a value (quote, colon, separator) is joined to each
    distinct value text once, so an object section is its keys
    interleaved with glued values.  Keys come in `sort_keys` order, by
    label.  An edge key is its label, unless a node label needs escaping:
    then it is put together from its ends' encoded labels, as JSON
    escapes a string character by character.  The fragments are freed on
    return, before the text is encoded."""
    net, lay = code.net, code.net.layout()
    colon = ":" if indent is None else ": "
    def nl(level: int) -> str:
        return "" if indent is None else "\n" + " " * (indent * (depth + level))

    sep = "," + nl(2)

    def listing(items: list[str], level: int) -> str:
        """A JSON list at `level` of encoded items."""
        if not items:
            return "[]"
        return "[" + nl(level + 1) + ("," + nl(level + 1)).join(items) + nl(level) + "]"

    def texts(level: int, *slots: np.ndarray) -> list[str]:
        """The entry list at `level` of each table entry in slots, "" for the others."""
        out = [""] * len(code.mats)
        for i in np.unique(np.concatenate(slots)).tolist():
            out[i] = listing(list(map(str, code.mats[i].flat())), level)
        return out

    at_source, in_row = texts(2, code.src_idx), texts(3, code.in_idx, code.dec_idx)

    def distinct(rows: list[tuple]) -> tuple[list[str], list[int]]:
        """(the list of entry lists of each distinct row of table indices,
        per row its distinct row's number)."""
        number = {row: k for k, row in enumerate(dict.fromkeys(rows))}
        texts = [listing(list(map(in_row.__getitem__, row)), 2) for row in number]
        return texts, list(map(number.__getitem__, rows))

    def members(keys: list[list[str]], values: list[str], at) -> list[str]:
        """The members of an object at level 1, each at level 2: member k
        holds values[at[k]], and its key (a JSON string's body) is the
        concatenation of column k of keys."""
        if not at:
            return []
        glued = [f'"{colon}{text}{sep}"' for text in values]
        step = len(keys) + 1
        out = [nl(2) + '"'] * (step * len(at) + 1)
        for j, column in enumerate(keys):
            out[j + 1 :: step] = column
        out[step::step] = map(glued.__getitem__, at)
        out[-1] = f'"{colon}{values[at[-1]]}'  # no separator after the last member
        out.append(nl(1))
        return out

    # Per edge, its value's place in at_source, or past it in the rows' texts.
    rows, row_of = distinct(_code_rows(code.in_idx, lay.in_slot_ptr))
    value = np.empty(len(net.tail), dtype=np.intp)
    value[lay.source_edges] = code.src_idx
    value[lay.relayed_edges] = len(at_source) + np.array(row_of, dtype=np.intp)
    order, _, keys = _edge_keys(net)
    edges = members(keys, at_source + rows, value[order].tolist())
    del keys
    decoders, dec_of = distinct(_code_rows(code.dec_idx, lay.term_ptr))
    by_terminal = dict(zip(net.terminals, dec_of))  # a repeated label keeps its last terminal
    terminals = sorted(by_terminal)
    terminals = members(
        [[_ENCODE(t)[1:-1] for t in terminals]], decoders, [by_terminal[t] for t in terminals]
    )
    item = "," + nl(1)
    return "".join(
        [
            "{", nl(1), f'"edge_matrices"{colon}{{', *edges, "}", item,
            f'"l"{colon}{_ENCODE(code.l)}', item, f'"p"{colon}{_ENCODE(code.field.p)}', item,
            f'"r"{colon}{_ENCODE(code.r)}', item, f'"terminal_matrices"{colon}{{', *terminals,
            "}", item, f'"version"{colon}{_ENCODE(CODE_FORMAT_VERSION)}', nl(0), "}", end,
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


# An all-integer array literal, however spaced, where a JSON value may
# stand: after whitespace, a comma, a colon, an opening bracket or the
# start of a piece between quotes, and before whitespace, a comma, a
# closing bracket or the end of the piece.  A bare number in its place
# parses exactly where the array does, and cannot run into a neighbour.
_ARRAY = re.compile(rb"((?<![^ \t\n\r,:\[])\[[ \t\n\r0-9,-]*\](?![^ \t\n\r,\]}]))")
_DIGITS = re.compile(rb"[0-9]+")


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


def _parse_code_file(
    data: bytes, keys: Optional[list[list[str]]] = None
) -> tuple[object, dict[int, list], Optional[tuple[list, np.ndarray]]]:
    """(the document, the arrays of its references, the edge section or
    None): json.loads of the UTF-8 text with every all-integer array that
    stands as a value replaced by a bare integer reference (`_skeleton`).

    Given the keys that the writer writes for a network, as the columns
    `_edge_keys(net, '"')` gives, a file that opens with that
    edge_matrices section, keys in that order and nothing else between
    them, is read by position (`_cut_section`): the document's section
    is left empty, and the section is (the skeleton value of each
    distinct value text, per key the number of its text).  Any other
    file, or one whose cut text does not parse, is read whole.  The
    bytes are split at their quotes (a quote byte is never part of a
    multi-byte character) once for both.  Every byte outside the arrays
    is decoded as UTF-8 on the way.  A text that does not decode raises
    its own error, from reading it whole; where it decodes but a
    reference has more digits than Python reads as an int, it is read
    with no references."""
    pieces = _split_strings(data)
    cut = _cut_section(pieces, keys) if keys and keys[0] else None
    if cut is not None:
        skeleton, at = cut
        try:
            top, arrays = _skeleton(skeleton)
        except (ValueError, RecursionError):
            top = None
        # The distinct values, each a bare integer, are one array reference.
        if type(top) is list and len(top) == 2 and type(top[1]) is list:
            return top[0], arrays, (top[1], at)
    try:
        return (*_skeleton(pieces), None)
    except ValueError:  # not UTF-8, a JSONDecodeError, or an int of too many digits
        return json.loads(data.decode("utf-8")), {}, None


def _cut_section(
    pieces: list[bytes], keys: list[list[str]]
) -> Optional[tuple[list[bytes], np.ndarray]]:
    """Where the pieces open with the edge_matrices section that the
    writer writes with these keys: (the pieces of the text
    `[{"edge_matrices":{}, ...the rest of the file...}, [each distinct
    value text, once]]`; per key, the number of its value text), else
    None.  The section's keys are compared joined, as one string; each
    distinct value text must parse alone, as one JSON value; and no
    string in the rest may read edge_matrices, escaped or not, so that no
    later key replaces the section.  The file is then JSON exactly when that text
    parses as a list of two."""
    n = len(keys[0])
    if len(pieces) < 2 * n + 5 or not len(pieces) % 2:
        return None
    if pieces[:3] != [b"{", b"edge_matrices", b":{"]:
        return None
    joined = [""] * (3 * n)
    joined[0::3], joined[1::3], joined[2::3] = keys
    if b'"'.join(pieces[3 : 2 * n + 3 : 2]) + b'"' != "".join(joined).encode("utf-8"):
        return None
    del joined
    values = pieces[4 : 2 * n + 4 : 2]  # ':' value ',', the last with '}' before its ','
    if not values[-1].endswith(b"},"):
        return None
    values[-1] = values[-1][:-2] + b","
    rest = pieces[2 * n + 3 :]
    if any(_names_section(text) for text in rest[0::2]):
        return None
    number = dict.fromkeys(values)
    for k, text in enumerate(number):
        if text[:1] != b":" or text[-1:] != b",":
            return None
        try:
            json.loads(text[1:-1].decode("utf-8"))
        except (ValueError, RecursionError):
            return None
        number[text] = k
    at = np.fromiter(map(number.__getitem__, values), dtype=np.intp, count=n)
    rest[-1] += b",[" + b",".join(text[1:-1] for text in number) + b"]]"
    return [b"[{", b"edge_matrices", b":{},", *rest], at


def _names_section(text: bytes) -> bool:
    """Whether a string body may read edge_matrices: it does, or it holds
    an escape that decodes to it or does not decode."""
    if b"\\" not in text:
        return text == b"edge_matrices"
    try:
        return json.loads(b'"' + text + b'"') == "edge_matrices"
    except ValueError:
        return True


def _skeleton(pieces: list[bytes]) -> tuple[object, dict[int, list]]:
    """json.loads of the pieces joined at quotes, with every all-integer
    array that stands as a value replaced by a bare integer reference,
    and the array of each reference; raises ValueError where either part
    does not decode.  Empties pieces before parsing.

    References count up from 10^d, d the longest run of digits outside
    strings and those arrays, so every integer the skeleton keeps is a
    literal below the first reference: on the rate-3/5 code file they are
    100-202, small ints that CPython caches.  Each distinct piece outside
    strings is split at its arrays once, and each distinct array text is
    decoded once.  Either part fails to decode only when the whole text
    does, or where a reference has more digits than Python reads as an
    int."""
    outside = pieces[0::2]
    parts = dict.fromkeys(outside)  # piece -> [between, array, between, ..., between]
    for piece in parts:
        parts[piece] = _ARRAY.split(piece)
    texts = dict.fromkeys(chain.from_iterable(split[1::2] for split in parts.values()))
    between = b" ".join(chain.from_iterable(split[0::2] for split in parts.values()))
    d = max(map(len, _DIGITS.findall(between)), default=1)
    base = 10**d
    for k, text in enumerate(texts):  # base + k, written without converting base
        texts[text] = b"%d%0*d" % (1 + k // base, d, k % base)
    for piece, split in parts.items():
        split[1::2] = map(texts.__getitem__, split[1::2])
        parts[piece] = b"".join(split)
    pieces[0::2] = map(parts.__getitem__, outside)
    skeleton = b'"'.join(pieces).decode("utf-8")
    del outside, parts
    pieces.clear()  # before the skeleton is parsed
    return json.loads(skeleton), {base + k: json.loads(text) for k, text in enumerate(texts)}


def _resolve(x, arrays: dict[int, list]):
    """A skeleton value with every reference replaced by its array: the
    value json.loads gives for the original text."""
    if type(x) is int:
        return arrays.get(x, x)
    if type(x) is list:
        return [_resolve(y, arrays) for y in x]
    if type(x) is dict:
        return {k: _resolve(v, arrays) for k, v in x.items()}
    return x


def _ints(value) -> bool:
    """Whether a skeleton value is a list of ints (references or not)."""
    return type(value) is list and set(map(type, value)) <= {int}


def _tried(read, value):
    """read(value), or None where it raises CodeFormatError or RecursionError."""
    try:
        return read(value)
    except (CodeFormatError, RecursionError):
        return None


def _numbered(keys: list, values: list) -> tuple[list, np.ndarray]:
    """(one value of each distinct key, in order of first appearance; per
    value, the number of its key).  Equal keys must stand for equal
    values."""
    first = dict(zip(keys, values))
    number = {key: k for k, key in enumerate(first)}
    which = np.fromiter(map(number.__getitem__, keys), dtype=np.intp, count=len(keys))
    return list(first.values()), which


def _numbered_ints(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the first position of each distinct int key, in order of first
    appearance; per key, its number)."""
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.arange(len(order))
    return first[order], number[which.ravel()]


def _column_keys(values: list) -> list:
    """Per skeleton value of a matrix, its key for `_numbered`: an int (a
    reference or not) by itself, any other value by its object."""
    if set(map(type, values)) <= {int}:
        return values
    return [v if type(v) is int else (id(v),) for v in values]


def _row_keys(entries: list[tuple[object, int]]) -> list:
    """Per (skeleton value of a matrix list, in-degree), its key for
    `_numbered`: a list of ints by its ints, any other value by its object."""
    return [(tuple(v), d) if _ints(v) else ((id(v), None), d) for v, d in entries]


class _MatTable:
    """The table of a code being read: one read-only Mat per distinct
    (rows, cols, entry list) of the file, returned by index.

    `column` and `rows` read the entries of many slots at once, once per
    distinct skeleton value (`_numbered`, `_column_keys`, `_row_keys`): a
    value of ints (a reference, or a list of references) is known by its
    ints, any other value by its object, so a value that differs from
    another only in type is read apart from it.  Equal tuples of JSON
    values are equal matrices, with one exception: a float equal to an
    integer (1.0 == 1, with the same hash).  A list that matches a stored
    one holds only integers, booleans and such floats, and its sum is a
    float exactly when it holds a float, so that sum rejects it as
    `_as_mat` would.
    """

    def __init__(self, field: PrimeField, arrays: dict[int, list]):
        self.field = field
        self.arrays = arrays
        self.mats: list[Mat] = []
        self.index: dict[tuple, int] = {}

    def column(
        self, values: list, which: np.ndarray, rows: int, cols: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(per slot, the table index of the rows x cols matrix that its
        skeleton value values[which[slot]] gives, -1 where it gives none;
        the mask of those)."""
        got = [_tried(lambda v: self.matrix(v, rows, cols, ""), v) for v in values]
        idx = np.array([-1 if i is None else i for i in got], dtype=np.intp)[which]
        return idx, idx < 0

    def rows(
        self, entries: list, which: np.ndarray, rows: int, cols: int
    ) -> tuple[list, np.ndarray]:
        """(per slot, the tuple of rows x cols matrices, one per in-edge,
        that the list of its entries[which[slot]] = (skeleton value,
        in-degree) gives, or of -1s where it gives none; the mask of
        those).  Each distinct int in the lists of ints is read once."""
        items: dict[int, Optional[int]] = {}  # an int in a list of ints -> its matrix

        def read(entry: tuple[list, int]) -> Optional[tuple[int, ...]]:
            value, degree = entry
            if not _ints(value):
                return self.row(value, degree, rows, cols, "")
            for x in set(value).difference(items):
                items[x] = _tried(lambda v: self.matrix(v, rows, cols, ""), x)
            out = tuple(map(items.__getitem__, value))
            return None if len(out) != degree or None in out else out

        got = [_tried(read, entry) for entry in entries]
        filled = [(-1,) * d if row is None else row for row, (_, d) in zip(got, entries)]
        bad = np.array([row is None for row in got], dtype=bool)
        return list(map(filled.__getitem__, which.tolist())), bad[which]

    def matrix(self, value, rows: int, cols: int, what: str) -> int:
        """The table index of the matrix a skeleton value gives; `what` names it in errors."""
        return self._get(_resolve(value, self.arrays), rows, cols, what)

    def row(self, value, degree: int, rows: int, cols: int, what: str) -> tuple[int, ...]:
        """The matrices of the in-edge or decoder list a skeleton value
        gives, one per in-edge; `what`, or `what[j]`, names it in errors."""
        entry = _resolve(value, self.arrays)
        if not isinstance(entry, list) or len(entry) != degree:
            raise CodeFormatError(f"{what}: expected {degree} matrices")
        return tuple(self._get(flat, rows, cols, f"{what}[{j}]") for j, flat in enumerate(entry))

    def _get(self, flat, rows: int, cols: int, what: str) -> int:
        """The table index of a JSON value's matrix."""
        try:
            key = (rows, cols, tuple(flat))
            i = self.index.get(key)
        except TypeError:  # not a list, or a list holding lists or objects
            return self._add(_as_mat(self.field, flat, rows, cols, what))
        if i is None:
            i = self.index[key] = self._add(_as_mat(self.field, flat, rows, cols, what))
        elif isinstance(sum(flat), float):
            raise CodeFormatError(f"{what}: entries must be integers")
        return i

    def _add(self, mat: Mat) -> int:
        self.mats.append(mat)
        return len(self.mats) - 1


_MISSING = object()  # the entry of a key that a section lacks


def code_from_json(net: SumNetwork, data: bytes) -> FracLinCode:
    """Load a v1 code file into a table: equal entry lists of one shape
    are one read-only Mat."""
    try:
        return _code_from_json(net, data)
    except RecursionError:  # from parsing, or from resolving what was parsed
        raise CodeFormatError(
            "not valid JSON: the code file nests deeper than the recursion limit"
        ) from None


def _code_from_json(net: SumNetwork, data: bytes) -> FracLinCode:
    """Every edge's entry is taken at once, and read once per distinct
    value (`_MatTable.column`, `_MatTable.rows`): from the section that
    `_parse_code_file` cut by position, or else looked up by label.  Only
    the first edge, then terminal, in order whose entry is missing or
    gives no matrix is read again, by itself, to raise its error."""
    where = keys = None  # per edge its key's position, and the keys, for a cut by position
    if data.startswith(b'{"edge_matrices":{"'):
        _, where, keys = _edge_keys(net, '"')
    try:
        doc, arrays, section = _parse_code_file(data, keys)
    except ValueError as exc:  # not UTF-8, not JSON, or an int past Python's digit limit
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
    table = _MatTable(field, arrays)
    lay = net.layout()
    from_source = net.role_mask(SOURCE)[net.tail]
    degrees = np.diff(net.in_ptr)[net.tail]
    relayed_degrees = degrees[lay.relayed_edges].tolist()
    if section is None:
        entries = list(map(doc["edge_matrices"].get, net.edge_labels(), repeat(_MISSING)))
        entry = entries.__getitem__
        sources = list(compress(entries, from_source.tolist()))
        sources = _numbered(_column_keys(sources), sources)
        relayed = list(zip(compress(entries, (~from_source).tolist()), relayed_degrees))
        relayed = _numbered(_row_keys(relayed), relayed)
    else:  # one slot per distinct value text, and per in-degree for the relayed edges
        values, at = section
        number = at[where]
        entry = lambda e: values[number[e]]  # noqa: E731
        first, which = _numbered_ints(number[lay.source_edges])
        sources = [values[i] for i in number[lay.source_edges[first]].tolist()], which
        kinds = number[lay.relayed_edges] * (int(degrees.max(initial=0)) + 1) + relayed_degrees
        first, which = _numbered_ints(kinds)
        ends = lay.relayed_edges[first]
        relayed = [(values[i], d) for i, d in zip(number[ends].tolist(), degrees[ends].tolist())], which
    src, bad_src = table.column(*sources, l, r)
    ins, bad_in = table.rows(*relayed, l, l)
    bad = np.zeros(len(net.tail), dtype=bool)
    bad[lay.source_edges], bad[lay.relayed_edges] = bad_src, bad_in
    if bad.any():
        e = int(np.argmax(bad))
        what = f"edge {net.edge_label(e)}"
        if entry(e) is _MISSING:
            raise CodeFormatError(f"edge_matrices missing {what}")
        if from_source[e]:
            table.matrix(entry(e), l, r, what)
        else:
            table.row(entry(e), int(degrees[e]), l, l, what)
    terminals = net.terminals
    found = map(doc["terminal_matrices"].get, terminals, repeat(_MISSING))
    entries = list(zip(found, np.diff(lay.term_ptr).tolist()))
    decs, bad = table.rows(*_numbered(_row_keys(entries), entries), r, l)
    if bad.any():
        j = int(np.argmax(bad))
        value, degree = entries[j]
        if value is _MISSING:
            raise CodeFormatError(f"terminal_matrices missing terminal {terminals[j]}")
        table.row(value, degree, r, l, f"terminal {terminals[j]}")
    ins, decs = (np.fromiter(chain.from_iterable(x), dtype=np.intp) for x in (ins, decs))
    return FracLinCode._of_table(net, r, l, field, table.mats, src, ins, decs)
