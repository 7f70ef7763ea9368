"""Parametric sum-network builders.

Two families are built here.  In family one (``n1``) every rate-2/(m+1)
solution requires the field characteristic to divide q; in family two
(``n2``) it must not divide q.  Both share the same skeleton: m groups of
q+1 bottleneck ("middle") edges u_ij -> v_ij, sources wired into the u
side, terminals fed from the v side, and direct source->terminal edges
covering everything a terminal cannot see through its middle edges.

Label scheme (fixed so files are byte-reproducible):
  s_<i>, s_<i>_<j>, s_<a>_<b>_<c>    sources
  u_<i>_<j>, v_<i>_<j>               intermediates
  t_<i>, t_<i>_<j>, t_<a>_<b>_<c>    terminals, plus tp_<a>_<b> in n2
  _c<t>                              copy suffix added by the k-copy merge
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Callable

import numpy as np

from .galois import MAX_MODULUS, PrimeField
from .network import INTERMEDIATE, ROLES, SOURCE, TERMINAL, SumNetwork

IN_SET = "in-set"
NOT_IN_SET = "not-in-set"
MAX_EDGES = 2**22  # the most edges `build_merged` builds; it peaks near 80 bytes per edge


@dataclass(frozen=True)
class RateTarget:
    k: int
    n: int
    primes: tuple[int, ...]
    mode: str

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError(f"rate {self.k}/{self.n} must be positive")
        if not self.primes:
            raise ValueError("prime set must be nonempty")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be distinct")
        for p in self.primes:
            PrimeField(p)
        if self.mode not in (IN_SET, NOT_IN_SET):
            raise ValueError(f"unknown mode {self.mode!r}")


def _check_mq(m: int, q: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")


# --- labels ---------------------------------------------------------------


def s1(i: int) -> str:
    return f"s_{i}"


def s2(i: int, j: int) -> str:
    return f"s_{i}_{j}"


def s3(a: int, b: int, c: int) -> str:
    return f"s_{a}_{b}_{c}"


def u_lab(i: int, j: int) -> str:
    return f"u_{i}_{j}"


def v_lab(i: int, j: int) -> str:
    return f"v_{i}_{j}"


def t1(i: int) -> str:
    return f"t_{i}"


def t2(i: int, j: int) -> str:
    return f"t_{i}_{j}"


def t3(a: int, b: int, c: int) -> str:
    return f"t_{a}_{b}_{c}"


def t4(a: int, b: int) -> str:
    return f"tp_{a}_{b}"


_LABEL = re.compile(r"(tp|[stuv])((?:_[1-9][0-9]*)+)(_c[1-9][0-9]*)?")
_ARITY = {"s": (1, 2, 3), "t": (1, 2, 3), "u": (2,), "v": (2,), "tp": (2,)}


def parse_label(label: str) -> tuple[str, tuple[int, ...]]:
    """The kind (s, u, v, t or tp) and indices of a label printed above;
    the _c<copy> suffix the merge adds to u and v labels is dropped.
    Raises ValueError naming any label outside the scheme."""
    kind, indices, _, _ = _parse_label(label)
    return kind, indices


def _parse_label(label: str) -> tuple[str, tuple[int, ...], str, int]:
    """As parse_label, plus the label without its _c<copy> suffix and the
    copy (1 without one)."""
    match = _LABEL.fullmatch(label)
    if match:
        kind, digits, copy = match.groups()
        indices = tuple(int(x) for x in digits[1:].split("_"))
        if len(indices) in _ARITY[kind] and (copy is None or kind in ("u", "v")):
            return kind, indices, label[: match.end(2)], int(copy[2:]) if copy else 1
    raise ValueError(f"node label {label!r} is outside the label scheme")


def _triples(m: int, q: int):
    for a in range(1, m):
        for b in range(a + 1, m + 1):
            for c in range(1, q + 2):
                yield a, b, c


# --- reachable-source sets --------------------------------------------------


def n1_s_ij(m: int, q: int, i: int, j: int) -> list[str]:
    """Sources with a path to tail(e_ij) in family n1; always m+1 of them."""
    out = [s1(i), s2(i, j)]
    out += [s3(x, i, j) for x in range(1, i)]
    out += [s3(i, x, j) for x in range(i + 1, m + 1)]
    return out


def n2_s_ij(m: int, q: int, i: int, j: int) -> list[str]:
    """Sources with a path to tail(e_ij) in family n2; always q*m of them."""
    out = [s2(i, x) for x in range(1, q + 2) if x != j]
    for x in range(1, i):
        out += [s3(x, i, y) for y in range(1, q + 2) if y != j]
    for x in range(i + 1, m + 1):
        out += [s3(i, x, y) for y in range(1, q + 2) if y != j]
    return out


# --- builder core -----------------------------------------------------------


class _Builder:
    """Nodes and edges as they are added, edges by node entry."""

    def __init__(self):
        self.labels: list[str] = []
        self.roles: list[int] = []
        self.entry: dict[str, int] = {}
        self.tails: list[int] = []
        self.heads: list[int] = []

    def node(self, label: str, role: str) -> None:
        self.entry[label] = len(self.labels)
        self.labels.append(label)
        self.roles.append(ROLES.index(role))

    def edges(self, tails, heads) -> None:
        """Edges tails[i] -> heads[i], with par 0, given by label."""
        self.tails += map(self.entry.__getitem__, tails)
        self.heads += map(self.entry.__getitem__, heads)

    def network(self, source_order: list[str]) -> SumNetwork:
        """The network, each node's in-edges in edge order."""
        par = np.zeros(len(self.tails), dtype=np.int64)
        return SumNetwork.from_arrays(
            self.labels, self.roles, self.tails, self.heads, par, source_order
        )


def _terminals(m: int, q: int) -> list[tuple[str, list[tuple[int, int]]]]:
    """The terminals both families share, each with the (i, j) middle edges it taps."""
    groups = range(1, q + 2)
    return (
        [(t1(i), [(i, j) for j in groups]) for i in range(1, m + 1)]
        + [(t2(i, j), [(i, j)]) for i in range(1, m + 1) for j in groups]
        + [(t3(a, b, c), [(a, c), (b, c)]) for a, b, c in _triples(m, q)]
    )


def _build_family(
    m: int,
    q: int,
    source_order: list[str],
    s_ij: Callable[[int, int, int, int], list[str]],
    terminals: list[tuple[str, list[tuple[int, int]]]],
) -> SumNetwork:
    """The skeleton both families share.

    source_order: source labels; s_ij(m, q, i, j): sources wired into
    u_ij, in that order (decoders rely on it); terminals: (label, taps)
    pairs, taps being the (i, j) middle edges the terminal reads.  Each
    terminal gets one direct edge from every source that none of its taps
    can see, in source order.
    """
    _check_mq(m, q)
    b = _Builder()
    middles = [(i, j) for i in range(1, m + 1) for j in range(1, q + 2)]
    for s in source_order:
        b.node(s, SOURCE)
    for i, j in middles:
        b.node(u_lab(i, j), INTERMEDIATE)
        b.node(v_lab(i, j), INTERMEDIATE)
    for t, _ in terminals:
        b.node(t, TERMINAL)

    reach = {(i, j): s_ij(m, q, i, j) for i, j in middles}
    for (i, j), sources in reach.items():
        b.edges(sources, [u_lab(i, j)] * len(sources))
    b.edges([u_lab(i, j) for i, j in middles], [v_lab(i, j) for i, j in middles])
    taps = [(v_lab(i, j), t) for t, ij in terminals for i, j in ij]
    b.edges([v for v, _ in taps], [t for _, t in taps])
    # seen[t, s]: some tap of terminal t sees source s.
    seen = np.zeros((len(terminals), len(source_order)), dtype=bool)
    for row, (_, ij) in enumerate(terminals):
        for tap in ij:
            seen[row, [b.entry[s] for s in reach[tap]]] = True
    rows, cols = np.nonzero(~seen)
    first_terminal = b.entry[terminals[0][0]] if terminals else 0
    b.tails += cols.tolist()
    b.heads += (rows + first_terminal).tolist()
    return b.network(source_order)


def _pair_and_triple_sources(m: int, q: int) -> list[str]:
    return [s2(i, j) for i in range(1, m + 1) for j in range(1, q + 2)] + [
        s3(a, b, c) for a, b, c in _triples(m, q)
    ]


def build_n1(m: int, q: int) -> SumNetwork:
    """Family n1: rate 2/(m+1) achievable iff the characteristic divides q."""
    sources = [s1(i) for i in range(1, m + 1)] + _pair_and_triple_sources(m, q)
    return _build_family(m, q, sources, n1_s_ij, _terminals(m, q))


def build_n2(m: int, q: int) -> SumNetwork:
    """Family n2: rate 2/(m+1) achievable iff the characteristic does NOT divide q.

    Besides the shared terminals it has one tp_<a>_<b> per group pair,
    tapping every middle edge of both groups.
    """
    extra = [
        (t4(a, b), [(a, j) for j in range(1, q + 2)] + [(b, j) for j in range(1, q + 2)])
        for a in range(1, m)
        for b in range(a + 1, m + 1)
    ]
    return _build_family(m, q, _pair_and_triple_sources(m, q), n2_s_ij, _terminals(m, q) + extra)


# --- counts (closed forms, checked against the builders by the tests) -------


def n1_counts(m: int, q: int) -> dict[str, int]:
    n_src = m + m * (q + 1) + comb(m, 2) * (q + 1)
    return {
        "sources": n_src,
        "terminals": n_src,
        "intermediates": 2 * m * (q + 1),
        "middle_edges": m * (q + 1),
    }


def n2_counts(m: int, q: int) -> dict[str, int]:
    n_src = m * (q + 1) + comb(m, 2) * (q + 1)
    return {
        "sources": n_src,
        "terminals": m + m * (q + 1) + comb(m, 2) * (q + 1) + comb(m, 2),
        "intermediates": 2 * m * (q + 1),
        "middle_edges": m * (q + 1),
    }


# --- k-copy merge ------------------------------------------------------------


def copy_label(label: str, copy: int) -> str:
    return f"{label}_c{copy}"


def k_copy_merge(base: SumNetwork, k: int) -> SumNetwork:
    """k disjoint copies with same-labeled sources/terminals identified.

    The merge lists the base's non-intermediate nodes, then per copy the
    intermediates; per copy, the images of the base edges node by node
    in in-edge order; and each node's in-edges in edge order.  Copy c of
    an edge gives its intermediate ends the suffix _c<c>; a direct
    source->terminal edge keeps both ends and shifts par by
    (c-1) * stride, stride being one more than the largest par in the
    base.  `edge_origins` reads the copies back.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = base.n_nodes
    inner = base.role_mask(INTERMEDIATE)[:n]
    outer = np.flatnonzero(~inner)
    inside = np.flatnonzero(inner)
    labels = [base.label_table[x] for x in outer.tolist()]
    roles = [base.role_codes[outer]]
    # entry[c - 1][x]: the merged entry of base entry x in copy c.
    entry = np.zeros((k, n), dtype=np.intp)
    entry[:, outer] = np.arange(len(outer))
    for copy in range(1, k + 1):
        entry[copy - 1, inside] = len(labels) + np.arange(len(inside))
        labels += [copy_label(base.label_table[x], copy) for x in inside.tolist()]
        roles.append(base.role_codes[inside])
    order = base.in_idx
    tail, head, par = base.tail[order], base.head[order], base.par[order]
    direct = ~(inner[tail] | inner[head])
    stride = (base.par.max() if len(base.par) else 0) + 1
    shift = np.zeros(len(par), dtype=par.dtype)
    shift[direct] = stride
    return SumNetwork.from_arrays(
        labels,
        np.concatenate(roles),
        np.concatenate([entry[c][tail] for c in range(k)]),
        np.concatenate([entry[c][head] for c in range(k)]),
        np.concatenate([par + c * shift for c in range(k)]),
        base.source_order,
    )


def edge_origins(net: SumNetwork) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each edge of a family network or its k-copy merge, in edge
    order, the base edge it copies and its copy, read back from the labels
    as `k_copy_merge` writes them: (stems, tail, head, par, copy), with
    tail and head indexing stems, the entries of `net.label_table` less
    any _c<copy> suffix.  An intermediate end loses its suffix, copy 1
    without one; an edge takes the copy of its tail if that is
    intermediate, else of its head.  A direct source->terminal edge keeps
    its ends and is copy par + 1 of the base edge with par 0.

    The direct-edge rule holds for a base whose direct edges all have
    par 0, as every family base has.  A merge of a base with parallel
    direct edges reads as copies beyond k, which a caller must refuse.
    """
    stems = list(net.label_table)
    node_copy = np.zeros(len(stems), dtype=np.int64)
    for x in np.flatnonzero(net.role_mask(INTERMEDIATE)).tolist():
        _, _, stems[x], node_copy[x] = _parse_label(stems[x])
    tail, head = net.tail, net.head
    copy = np.where(node_copy[tail] > 0, node_copy[tail], node_copy[head])
    direct = copy == 0
    par = np.where(direct, 0, net.par)
    copy = np.where(direct, net.par + 1, copy)
    return stems, tail, head, par, copy


# --- family builders with their manifests ---------------------------------------


def capacity(family: str, m: int, q: int, k: int = 1) -> Fraction:
    """Linear coding capacity 2k/(m+1) of the k-copy merge of either family."""
    if family not in ("n1", "n2"):
        raise ValueError(f"unknown family {family!r}")
    _check_mq(m, q)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return Fraction(2 * k, m + 1)


def build_merged(family: str, m: int, q: int, k: int = 1) -> tuple[SumNetwork, dict]:
    """The k-copy merge of n1(m, q) or n2(m, q) (the base itself when
    k = 1), with a manifest of its parameters and capacity.  Refuses, before
    building, an edge bound past MAX_EDGES: each base edge is a middle edge
    or joins a source or v node to a u node or terminal, once per pair."""
    cap = capacity(family, m, q, k)
    c = (n1_counts if family == "n1" else n2_counts)(m, q)
    s, t, mid = c["sources"], c["terminals"], c["middle_edges"]
    if k * (s + mid) * (t + mid + 1) > MAX_EDGES:
        raise ValueError(f"{family}(m={m}, q={q}, k={k}) may pass the {MAX_EDGES}-edge build ceiling")
    base = build_n1(m, q) if family == "n1" else build_n2(m, q)
    net = k_copy_merge(base, k) if k > 1 else base
    manifest = {
        "family": family,
        "m": m,
        "q": q,
        "k": k,
        "capacity_num": cap.numerator,
        "capacity_den": cap.denominator,
    }
    return net, manifest


def build_for_rate(target: RateTarget) -> tuple[SumNetwork, dict]:
    """Network with capacity k/n whose rate-k/n codes exist exactly on the
    requested side of the prime set: q = product of the primes, m = 2n-1,
    base family by mode, merged k times."""
    q = prod(target.primes)
    if q >= MAX_MODULUS:
        raise ValueError(f"q={q} exceeds the field modulus ceiling {MAX_MODULUS}")
    family = "n1" if target.mode == IN_SET else "n2"
    net, manifest = build_merged(family, 2 * target.n - 1, q, target.k)
    manifest.update(primes=sorted(target.primes), mode=target.mode)
    return net, manifest


# --- tiny oracle network --------------------------------------------------------


def build_bottleneck2() -> SumNetwork:
    """2 sources -> one middle edge -> 2 terminals; no direct edges.

    Small enough for exhaustive code search, used as the oracle network
    for the search machinery.
    """
    b = _Builder()
    for s in ("s_1", "s_2"):
        b.node(s, SOURCE)
    b.node("u_1_1", INTERMEDIATE)
    b.node("v_1_1", INTERMEDIATE)
    for t in ("t_1", "t_2"):
        b.node(t, TERMINAL)
    b.edges(["s_1", "s_2", "u_1_1", "v_1_1", "v_1_1"], ["u_1_1", "u_1_1", "v_1_1", "t_1", "t_2"])
    return b.network(["s_1", "s_2"])
