"""Decoder feasibility, code search, and rank-counting bound certificates.

All coding freedom in the bottleneck families lives on the middle edges,
and every source reaches every middle edge it can reach through a private
source edge.  A code is therefore fully captured by its *composite
encodings*: the end-to-end l x (r*|S_e|) map from the reachable sources
onto each middle edge.  Feasibility of a rate then reduces to, per
terminal, a linear solve for decoders against the stacked composites.

Bound certificates mechanize the counting arguments: if a verified code
lets some set of maps recover every source block (rank = r*|S|), then
dimension counting forces r/l below a closed-form bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from ._core_py import matmul_mod, rref_mod, solvable_mod
from .coding import (
    FracLinCode,
    LayerShape,
    UnsupportedNetworkError,
    _verified,
    layer_shape,
    transfer,
)
from .constructions import _check_mq, capacity, n2_s_ij, parse_label, s1
from .galois import PrimeField
from .matrix import Mat, solve_right
from .network import SumNetwork

MODES = ("n1-with-groups", "n1-middle-only", "n2-middle-only", "n2-redundancy")


class BudgetExceededError(ValueError):
    """Exhaustive search over a space larger than the configured budget."""


# --- composite encodings -----------------------------------------------------


@dataclass
class CompositeEncoding:
    """Per middle edge, the l x (r*|S_e|) source-to-edge map, with block
    columns in the declared S_e order."""

    r: int
    l: int
    field: PrimeField
    mats: dict[int, Mat]  # middle edge index -> composite matrix

    def check_shapes(self, shape: LayerShape) -> None:
        widths = dict(zip(shape.middle.tolist(), np.diff(shape.feed_ptr).tolist()))
        if set(self.mats) != set(widths):
            raise ValueError("composite encoding does not cover exactly the middle edges")
        for me, mat in self.mats.items():
            want = (self.l, self.r * widths[me])
            if mat.shape != want:
                raise ValueError(f"composite for middle edge {me}: expected shape {want}")


def composites_from_code(net: SumNetwork, code: FracLinCode) -> CompositeEncoding:
    """Extract the composite encodings realized by an arbitrary code."""
    shape = layer_shape(net)
    tm = transfer(net, code)
    mats: dict[int, Mat] = {}
    for i, me in enumerate(shape.middle.tolist()):
        blocks = tm.edge_matrix(me).a.reshape(code.l, -1, code.r)
        mats[me] = Mat(code.field, blocks[:, shape.feeds_of(i)].reshape(code.l, -1))
    return CompositeEncoding(code.r, code.l, code.field, mats)


# --- decoder feasibility ------------------------------------------------------


@dataclass
class DecodeResult:
    code: Optional[FracLinCode]
    failed_terminal: Optional[str]

    @property
    def feasible(self) -> bool:
        return self.code is not None


def _direct_chunks(r: int, l: int, count: int, source: str, terminal: str) -> list[range]:
    """Split the r source components across `count` parallel direct edges."""
    chunk = -(-r // count)
    if chunk > l:
        raise UnsupportedNetworkError(
            f"direct edges {source} -> {terminal} cannot carry {r} components in blocks of {l}"
        )
    return [range(i * chunk, min(r, (i + 1) * chunk)) for i in range(count)]


class _DecoderSystems:
    """The per-terminal decoder systems of a network at (r, l), read from
    the flat cells of a composite encoding.

    starts: where each middle edge's composite starts in the cells, in
    shape.middle order, then the cell count; the composite of middle edge
    i is l x r|S_e|, row-major.  The cells hold one more, zero, cell at
    starts[-1].  `of(i)` builds terminal i's system on first use.
    """

    def __init__(self, net: SumNetwork, shape: LayerShape, r: int, l: int):
        self.net, self.shape, self.r, self.l = net, shape, r, l
        self.starts = [l * r * x for x in shape.feed_ptr.tolist()]
        self._built: dict[int, tuple] = {}
        self._blocks: dict[int, Optional[tuple[np.ndarray, np.ndarray]]] = {}

    def composite(self, cells: np.ndarray, i: int) -> np.ndarray:
        """Middle edge i's composite, a view of the cells."""
        return cells[self.starts[i] : self.starts[i + 1]].reshape(self.l, -1)

    def of(self, i: int) -> tuple:
        """Terminal i's stacked composites as a gather index into the
        cells, the right-hand side, its taps and its direct slots.

        The sources to recover, nd, are those without a direct edge into
        the terminal, in source order.  The stack has l rows per tap, in
        tap order, and r columns per source of nd: the tapped edge's
        composite block for that source, or zeros where the edge does not
        carry it.  gather[i, j] is the cell of entry (i, j); a zero entry
        reads the zero cell at starts[-1].  The right-hand side is I_r
        under every source of nd.  Taps are (slot, middle edge) pairs, a
        slot being a position in the terminal's in-edge order; direct
        slots map each direct source to its slots, by first slot.
        """
        if i not in self._built:
            r, l, shape, lay = self.r, self.l, self.shape, self.net.layout()
            lo, hi = lay.term_ptr[i], lay.term_ptr[i + 1]
            tap = shape.tap[lo:hi]
            slots: dict[int, list[int]] = {}
            direct = np.flatnonzero(tap < 0)
            for pos, s in zip(direct.tolist(), lay.src_pos[lay.term_edges[lo + direct]].tolist()):
                slots.setdefault(s, []).append(pos)
            col = np.zeros(len(self.net.source_order), dtype=np.intp)
            col[list(slots)] = -1
            nd = np.flatnonzero(col == 0)
            col[nd] = np.arange(len(nd))
            taps = [(pos, int(tap[pos])) for pos in np.flatnonzero(tap >= 0).tolist()]
            gather = np.full((l * len(taps), r * len(nd)), self.starts[-1], dtype=np.intp)
            for k, (_, me) in enumerate(taps):
                cols = col[shape.feeds_of(me)]
                block = np.arange(self.starts[me], self.starts[me + 1]).reshape(l, len(cols), r)
                rows = gather[k * l : (k + 1) * l].reshape(l, len(nd), r)
                rows[:, cols[cols >= 0]] = block[:, cols >= 0]
            rhs = np.tile(np.eye(r, dtype=np.int64), (1, len(nd)))
            self._built[i] = gather, rhs, taps, slots
        return self._built[i]

    def block(self, i: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Terminal i's block, the (rows, columns) of its stack that
        `_block` picks, or None; built on first use, which only the search
        screen makes."""
        if i not in self._blocks:
            gather, _, taps, _ = self.of(i)
            shape = (len(taps), self.l, gather.shape[1] // self.r, self.r)
            reads = (gather.reshape(shape) != self.starts[-1]).any(axis=(1, 3))
            self._blocks[i] = _block(reads, self.r, self.l)
        return self._blocks[i]


def _block(reads: np.ndarray, r: int, l: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The rows and columns of a terminal's block, a sub-system of its
    stack that every solvable candidate also solves, or None.

    reads[k, j]: whether tap k's composite carries source j.  For a set T
    of taps, its sources are those that no tap outside T carries; on
    their columns every row outside T is zero, so D A = B restricted to
    them is D_T A[T, them] = B[:, them], with no unknown from outside T.
    With no more columns, r per source, than rows, l per tap, a generic
    A[T, them] has full column rank and solves any right-hand side, so a
    block needs more columns than rows.  T is tried only as one source's
    own tap set, other than all taps: one (sources x taps) by (taps x
    sources) product counts the sources of every such T.  A union of
    several tap sets could qualify where none alone does; it is not
    looked for.  The block takes the smallest qualifying T, then the one
    with the most sources, then the lowest bitmask (tap k as bit k).
    """
    size = reads.sum(axis=0)
    # n[j]: the sources whose taps all lie in source j's tap set.
    n = ((~reads).T.astype(np.int64) @ reads.astype(np.int64) == 0).sum(axis=1)
    ok = np.flatnonzero((r * n > l * size) & (size < len(reads)))
    if not ok.size:
        return None
    t = reads[:, ok[np.lexsort(np.vstack([reads[:, ok], -n[ok], size[ok]]))[0]]]
    rows = np.flatnonzero(np.repeat(t, l))
    cols = np.flatnonzero(np.repeat(~reads[~t].any(axis=0), r))
    return rows, cols


def feasible_decoders(net: SumNetwork, composites: CompositeEncoding) -> DecodeResult:
    """Solve for terminal decoders realizing the sum under the given
    composites, or report the first terminal where no decoders exist.

    Per terminal, decoder matrices on the tapped middle edges must
    reproduce I_r on every source block without a direct edge into the
    terminal; direct-edge decoders then absorb whatever residual remains
    on the directly-supplied blocks (always possible: the parallel direct
    edges jointly forward the full block).  The rate (r, l) is the
    composites' own.
    """
    shape = layer_shape(net)
    composites.check_shapes(shape)
    cells = np.concatenate([composites.mats[me].a.ravel() for me in shape.middle.tolist()] + [[0]])
    systems = _DecoderSystems(net, shape, composites.r, composites.l)
    return _decode(systems, composites.field, cells)


def _decode(systems: _DecoderSystems, field: PrimeField, cells: np.ndarray) -> DecodeResult:
    """`feasible_decoders` on the int64 cells of a composite encoding,
    with their zero cell.  The code is built as a table, one Mat per
    distinct matrix."""
    net, shape, r, l = systems.net, systems.shape, systems.r, systems.l
    lay = net.layout()
    p = field.p
    mats: list[Mat] = []
    made: dict[tuple, int] = {}

    def index(a: np.ndarray) -> int:
        """The table index of the canonical int64 array a, added on first use."""
        key = (a.shape, a.tobytes())
        i = made.get(key)
        if i is None:
            i = made[key] = len(mats)
            mats.append(Mat(field, a))
        return i

    # The solved decoders, if they exist for every terminal.
    dec_idx = np.empty(len(lay.term_edges), dtype=np.intp)
    direct_src: dict[int, int] = {}
    eye = np.eye(r, dtype=np.int64)
    zero = index(np.zeros((r, l), dtype=np.int64))
    for i, t in enumerate(net.terminals):
        lo, hi = lay.term_ptr[i], lay.term_ptr[i + 1]
        gather, rhs, taps, directs = systems.of(i)
        if gather.size:
            d = solve_right(Mat(field, cells[gather]), Mat(field, rhs))
            if d is None:
                return DecodeResult(None, t)
            d_arr = d.a
        else:
            if gather.shape[1]:  # sources to recover but nothing to read them from
                return DecodeResult(None, t)
            d_arr = np.zeros((r, l * len(taps)), dtype=np.int64)

        row = dec_idx[lo:hi]
        row[:] = zero
        tap_mats = []
        for k, (pos, _) in enumerate(taps):
            dm = d_arr[:, k * l : (k + 1) * l]
            row[pos] = index(dm)
            tap_mats.append(dm)

        # Residual correction on directly-supplied blocks.
        contrib = {s: np.zeros((r, r), dtype=np.int64) for s in directs}
        for (_, me), dm in zip(taps, tap_mats):
            comp = systems.composite(cells, me)
            for j, s in enumerate(shape.feeds_of(me).tolist()):
                if s in contrib:
                    contrib[s] = (contrib[s] + matmul_mod(dm, comp[:, j * r : (j + 1) * r], p)) % p
        for s, positions in directs.items():
            residual = (eye - contrib[s]) % p
            chunks = _direct_chunks(r, l, len(positions), net.source_order[s], t)
            for pos, rows in zip(positions, chunks):
                ei = int(lay.term_edges[lo + pos])
                if ei not in direct_src:
                    a = np.zeros((l, r), dtype=np.int64)
                    a[np.arange(len(rows)), list(rows)] = 1
                    direct_src[ei] = index(a)
                dmat = np.zeros((r, l), dtype=np.int64)
                dmat[:, : len(rows)] = residual[:, list(rows)]
                row[pos] = index(dmat)

    # Assemble the full code: composites realized on the source edges,
    # identity forwarding elsewhere.
    src_of: dict[int, int] = {}
    for i, me in enumerate(shape.middle.tolist()):
        comp = systems.composite(cells, i)
        for j, ei in enumerate(net.in_edges_of(net.tail[me]).tolist()):
            src_of[ei] = index(comp[:, j * r : (j + 1) * r])
    src_of.update(direct_src)
    src_idx = np.array([src_of.get(e, -1) for e in lay.source_edges.tolist()], dtype=np.intp)
    in_idx = np.full(len(lay.in_slot_edges), index(np.eye(l, dtype=np.int64)), dtype=np.intp)
    code = FracLinCode._of_table(net, r, l, field, mats, src_idx, in_idx, dec_idx)
    return DecodeResult(code, None)


def routing_code(net: SumNetwork, p: int) -> FracLinCode:
    """Characteristic-independent baseline (r=1, l = widest middle edge):
    every middle edge forwards its sources verbatim, source j in slot j,
    and feasible_decoders picks the decoders."""
    shape = layer_shape(net)
    if not shape.middle.size:
        raise UnsupportedNetworkError("network has no middle edges")
    field = PrimeField(p)
    widths = np.diff(shape.feed_ptr).tolist()
    l = max(widths)
    mats = {me: Mat(field, np.eye(l, w)) for me, w in zip(shape.middle.tolist(), widths)}
    result = feasible_decoders(net, CompositeEncoding(1, l, field, mats))
    if result.code is None:
        raise UnsupportedNetworkError(f"terminal {result.failed_terminal} cannot decode the sum")
    return result.code


# --- search --------------------------------------------------------------------


@dataclass(frozen=True)
class Exhaustive:
    budget: int = 1_000_000


@dataclass(frozen=True)
class Random:
    n: int
    seed: int


@dataclass
class SearchResult:
    found: list[FracLinCode]
    tried: int
    # Candidates rejected at each terminal that rejected any, in terminal
    # order; the counts sum to tried - len(found).
    rejected_at: dict[str, int]


# Working set of one screened chunk of search candidates, in bytes: their
# cells plus, per candidate, the largest terminal system at 8 bytes an
# entry (for p <= 127 the int8 gathered stack, its int16 working copy and
# the update's temporary take at most 5).  On the rate-3/5 network over
# GF(3) it gives chunks of 5.  Larger chunks eliminate faster per
# candidate but raise the resident peak, the search workload's tightest
# metric: chunks of 11 and 17 ran passes 15% and 23% faster and raised
# `peak_rss_mb` by 0.8 and 1.9 MB (numpy 2.4.6, 2-vCPU x86-64).  Those
# passes screened every candidate on the full 96 x 168 system; with the
# 36 x 54 block screened first, larger chunks were not timed again.
_SCREEN_BYTES = 1 << 20

# The most one candidate's cells and largest system, or a found code's
# l x l identity, may take, in bytes; search refuses larger (r, l) before
# it allocates.
_MAX_BYTES = 1 << 30


def search(
    net: SumNetwork, r: int, l: int, p: int, strategy: Union[Exhaustive, Random]
) -> SearchResult:
    """Enumerate or sample composite encodings and keep those with
    feasible decoders.  Deterministic: exhaustive order is lexicographic,
    random sampling is fixed by the seed.

    Candidates are screened in chunks, one terminal at a time in terminal
    order: `solvable_mod` decides every survivor's decoder system at once,
    read from the chunk's cells through the terminal's gather index.
    Where the terminal has a block (`_block`), it decides the block first
    and the full system only for the block's survivors.  The block's
    columns are zero in every row it leaves out, so decoders for the full
    system solve it too: it rejects only candidates that the full system
    rejects, and its rejections count at its terminal.  Only candidates
    that pass every terminal have their decoders solved, in stream order,
    as `feasible_decoders` does and on the same per-terminal systems, to
    build their codes.
    """
    for name, value in (("r", r), ("l", l)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if isinstance(strategy, Random):
        if strategy.n < 1:
            raise ValueError(f"n must be >= 1, got {strategy.n}")
        if strategy.seed < 0:
            raise ValueError(f"seed must be >= 0, got {strategy.seed}")
    field = PrimeField(p)
    shape = layer_shape(net)
    systems = _DecoderSystems(net, shape, r, l)
    total_cells = systems.starts[-1]
    if isinstance(strategy, Exhaustive):
        space = p**total_cells
        if space > strategy.budget:
            raise BudgetExceededError(
                f"exhaustive space {p}^{total_cells} exceeds budget {strategy.budget}"
            )
        stream = itertools.product(range(p), repeat=total_cells)
    elif isinstance(strategy, Random):
        rng = np.random.default_rng(strategy.seed)
        space = strategy.n
        stream = (rng.integers(0, p, size=total_cells, dtype=np.int64) for _ in range(strategy.n))
    else:
        raise TypeError(f"unknown search strategy {strategy!r}")

    terminals = net.terminals
    lay = net.layout()
    n_src = len(net.source_order)
    relayed = shape.tap >= 0
    n_taps = np.bincount(lay.slot_term[relayed], minlength=len(terminals)).tolist()
    pairs = np.sort(lay.slot_term[~relayed] * n_src + lay.src_pos[lay.term_edges[~relayed]])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # each (terminal, direct source) once
    n_direct = np.bincount(pairs // n_src, minlength=len(terminals)).tolist()
    largest = max(((l * a + r) * r * (n_src - b) for a, b in zip(n_taps, n_direct)), default=0)
    # Residues in narrow cells; one pad cell past each candidate's own
    # holds the zero that gathers read.
    dtype = np.int8 if p <= 127 else np.int32
    row_bytes = np.dtype(dtype).itemsize * (total_cells + 1)
    for what, need in (("one candidate", row_bytes + 8 * largest), ("a found code", 8 * l * l)):
        if need > _MAX_BYTES:
            raise ValueError(f"r={r}, l={l}: {what} would take {need} bytes, more than {_MAX_BYTES}")
    size = min(space, max(1, _SCREEN_BYTES // (row_bytes + 8 * largest)))
    chunk = np.zeros((size, total_cells + 1), dtype=dtype)
    rejected = dict.fromkeys(terminals, 0)

    def solvable(cells: np.ndarray, members: np.ndarray, gather: np.ndarray, rhs: np.ndarray):
        """Whether each member, a row of cells, solves D A = rhs with A
        read through gather."""
        m, n = gather.shape
        x = np.empty((members.size, m + r, n), dtype=dtype)
        x[:, :m] = cells[members[:, None, None], gather]
        x[:, m:] = rhs
        return solvable_mod(x, m, p)

    def screen(cells: np.ndarray) -> np.ndarray:
        """Indices of the rows of cells that pass every terminal."""
        alive = np.arange(len(cells))
        for i, t in enumerate(terminals):
            if not alive.size:
                break
            gather, rhs, _, directs = systems.of(i)
            if gather.size:
                block = systems.block(i)
                ok = np.ones(alive.size, dtype=bool)
                if block is not None:
                    rows, cols = block
                    ok = solvable(cells, alive, gather[np.ix_(rows, cols)], rhs[:, cols])
                if ok.any():
                    ok[ok] = solvable(cells, alive[ok], gather, rhs)
            else:  # nothing to recover, or nothing to read it from
                ok = np.full(alive.size, not gather.shape[1])
            rejected[t] += int(alive.size - np.count_nonzero(ok))
            if ok.any():
                # feasible_decoders refuses these direct edges for any
                # candidate that reaches them.
                for s, positions in directs.items():
                    _direct_chunks(r, l, len(positions), net.source_order[s], t)
            alive = alive[ok]
        return alive

    found: list[FracLinCode] = []
    tried = 0
    for cells in stream:
        chunk[tried % size, :total_cells] = cells
        tried += 1
        if tried % size and tried < space:
            continue  # the chunk is neither full nor the stream's last
        held = chunk[: (tried - 1) % size + 1]
        for own in held[screen(held)].astype(np.int64):
            result = _decode(systems, field, own)
            if not result.feasible:
                raise RuntimeError(
                    f"internal error: search screen passed a candidate that "
                    f"feasible_decoders rejects at {result.failed_terminal}"
                )
            found.append(result.code)
    return SearchResult(found, tried, {t: n for t, n in rejected.items() if n})


# --- wrong-characteristic bound ----------------------------------------------------


def wrong_char_bound(m: int, q: int) -> Fraction:
    """Rate bound 2/(m+1+2/(q+1)) when the characteristic is on the wrong
    side of q; strictly below the capacity 2/(m+1)."""
    if m < 1 or q < 2:
        raise ValueError(f"invalid parameters m={m}, q={q}")
    return Fraction(2 * (q + 1), (m + 1) * (q + 1) + 2)


# --- bound certificates ------------------------------------------------------------


@dataclass
class BoundReport:
    """Rank-count certificate: the stacked recovery map of a verified code
    has full rank r*|S|, so row counting forces r/l <= implied."""

    mode: str
    rank: int
    required: int
    implied: Fraction
    closed_form: Fraction
    rate: Fraction
    consistent: bool  # rank == required (must hold for any verified code)
    satisfied: bool  # rate <= implied
    stacked_shape: tuple[int, int]  # the matrix whose rank was counted
    stacked_nonzeros: int
    redundancy_ok: Optional[bool] = None  # n2-redundancy only

    @property
    def ok(self) -> bool:
        return self.consistent and self.satisfied and self.redundancy_ok is not False

    def to_text(self) -> str:
        lines = [
            f"mode: {self.mode}",
            f"rank of stacked recovery map: {self.rank} (required {self.required})",
            f"stacked recovery map: {self.stacked_shape[0]}x{self.stacked_shape[1]},"
            f" {self.stacked_nonzeros} nonzeros",
            f"implied bound: r/l <= {self.implied}",
            f"closed form: {self.closed_form}",
            f"code rate: {self.rate}",
        ]
        if self.redundancy_ok is not None:
            lines.append(f"redundancy check: {'ok' if self.redundancy_ok else 'FAILED'}")
        if not self.consistent:
            lines.append("soundness violation: rank deficit on a verified code")
        lines.append("certificate: PASS" if self.ok else "certificate: FAIL")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "rank": self.rank,
            "required": self.required,
            "implied": [self.implied.numerator, self.implied.denominator],
            "closed_form": [self.closed_form.numerator, self.closed_form.denominator],
            "rate": [self.rate.numerator, self.rate.denominator],
            "consistent": self.consistent,
            "satisfied": self.satisfied,
            "stacked_shape": list(self.stacked_shape),
            "stacked_nonzeros": self.stacked_nonzeros,
            "redundancy_ok": self.redundancy_ok,
            "pass": self.ok,
        }


def bound_check(net: SumNetwork, code: FracLinCode, mode: str, m: int, q: int) -> BoundReport:
    """Certify the counting bound realized by a verified code.

    n1-with-groups: the m group-source blocks plus all middle-edge messages
    recover every source (rank r*|S|), so rm + l*E >= r*|S| and
    r/l <= 2k/(m+1).

    n1-middle-only / n2-middle-only: the middle-edge messages alone recover every
    source, so l*E >= r*|S|.

    n2-redundancy: additionally, the m per-group sums over S_{i,q+1} are
    already determined by the first q middle edges of each group
    (rank does not grow when those selector rows are appended), which
    tightens the count to l*E >= r*(|S| + m).

    The middle edges' messages and the verdict are those `verify` left on
    the code, which cannot change after it; a code not yet verified is
    verified here.  Raises UnverifiedCodeError unless it verifies.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    _check_mq(m, q)
    r, l = code.r, code.l
    n_src = len(net.source_order)
    required = r * n_src
    middles = net.middle_edges()
    n_mid = len(middles)
    if n_mid == 0 or n_mid % (m * (q + 1)) != 0:
        raise ValueError(f"middle edge count {n_mid} does not match m={m}, q={q}")
    k = n_mid // (m * (q + 1))
    groups = m if mode == "n1-with-groups" else 0
    if n_src <= groups:
        raise ValueError(
            f"mode {mode} needs more than {groups} source(s) for m={m}; the network has {n_src}"
        )

    # The mode is checked on the network alone, before any transfer.
    selectors = np.zeros((0, required), dtype=np.int64)
    if mode == "n1-with-groups":
        selectors = _selector_rows(net, r, [ [s1(i)] for i in range(1, m + 1) ])
        implied = Fraction(n_mid, n_src - m)
        closed = capacity("n1", m, q, k)
    elif mode == "n1-middle-only":
        implied = Fraction(n_mid, n_src)
        closed = k * wrong_char_bound(m, q)
    elif mode == "n2-middle-only":
        implied = Fraction(n_mid, n_src)
        closed = capacity("n2", m, q, k)
    else:  # n2-redundancy
        # Middle edge u_<i>_<j> -> v_<i>_<j> is kept when j <= q.
        first_q = [me for me in middles if parse_label(net.label_table[net.tail[me]])[1][1] <= q]
        group_sums = _selector_rows(net, r, [n2_s_ij(m, q, i, q + 1) for i in range(1, m + 1)])
        implied = Fraction(n_mid, n_src + m)
        closed = k * wrong_char_bound(m, q)
    if implied != closed:
        raise ValueError(
            f"mode {mode} does not apply: implied bound {implied} != closed form {closed}"
        )

    tm = _verified(net, code, "bound_check requires a verifying code")
    stacked = np.vstack([selectors] + [tm.edge_matrix(me).a for me in middles])
    stacked_shape = stacked.shape
    stacked_nonzeros = int(np.count_nonzero(stacked))
    got_rank, _ = rref_mod(stacked, code.field.p)
    redundancy_ok = None
    if mode == "n2-redundancy":
        redundancy_ok = _group_sum_redundancy(tm, first_q, group_sums)

    rate = Fraction(r, l)
    return BoundReport(
        mode=mode,
        rank=got_rank,
        required=required,
        implied=implied,
        closed_form=closed,
        rate=rate,
        consistent=got_rank == required,
        satisfied=rate <= implied,
        stacked_shape=stacked_shape,
        stacked_nonzeros=stacked_nonzeros,
        redundancy_ok=redundancy_ok,
    )


def _selector_rows(net: SumNetwork, r: int, groups: list[list[str]]) -> np.ndarray:
    """For each group of source labels, r rows with I_r on every listed
    source block (the map X |-> sum of those blocks)."""
    order = net.source_order
    out = np.zeros((r * len(groups), r * len(order)), dtype=np.int64)
    eye = np.eye(r, dtype=np.int64)
    for g, labels in enumerate(groups):
        for s in labels:
            if s not in order:
                raise ValueError(f"network has no source {s!r}")
            i = order.index(s)
            out[g * r : (g + 1) * r, i * r : (i + 1) * r] += eye
    return out


def _group_sum_redundancy(tm, first_q: list[int], group_sums: np.ndarray) -> bool:
    """The per-group sums over S_{i,q+1} (the rows group_sums) add no
    rank beyond the middle edges first_q, those with index j <= q:
    appending those selector rows leaves the rank unchanged."""
    p = tm.field.p
    base = np.vstack([tm.edge_matrix(me).a for me in first_q])
    rank_base, _ = rref_mod(base.copy(), p)
    rank_aug, _ = rref_mod(np.vstack([base, group_sums % p]), p)
    return rank_aug == rank_base
