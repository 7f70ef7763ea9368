"""The benchmark workloads: set-up, one timed pass, and the known-answer
checks that decide each verdict.

Every call into sumnets goes through a module attribute (``coding.verify``,
not a name imported from it), so the traced run's wrappers and the tests'
deliberate corruptions take effect.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from sumnets import analysis, coding, constructions, network

# The ROADMAP north-star target: rate 3/5 in the set {2}, i.e. the 3-copy
# merge of n1(9, 2) carrying a (6,10) code over GF(2).
RATE_3_5 = constructions.RateTarget(3, 5, (2,), constructions.IN_SET)
MERGED = ("n1", 9, 2, 3)  # family, m, q, k of that target
BOUND_RANK = 864  # r * |S| = 6 * 144

SEARCH_R, SEARCH_L, SEARCH_P = 6, 10, 3
CANDIDATES_PER_PASS = 50


@dataclass
class PassResult:
    seconds: float
    items_ms: list[float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --- pipeline-3of5 ----------------------------------------------------------------


@dataclass
class PipelineState:
    workdir: Path
    # Digest of the first pass's network and code files, once they have
    # passed the round-trip checks; later passes must write the same bytes.
    checked_digest: Optional[bytes] = None


def pipeline_setup(rng: np.random.Generator, workdir: Path) -> PipelineState:
    return PipelineState(workdir)


def pipeline_pass(state: PipelineState, tr) -> PassResult:
    """build -> scheme -> write -> read (the CLI's path) -> verify ->
    bound_check -> unroll to (6,30) -> verify the unrolled code."""
    errors: list[str] = []
    out: dict = {}
    t0 = perf_counter()
    try:
        with tr.span("pass"):
            _pipeline_stages(state, tr, out)
    except Exception as exc:  # a stage that raises is a failed verdict
        errors.append(_describe(exc))
    seconds = perf_counter() - t0
    if not errors:
        errors = _pipeline_checks(state, out)
    extras = {
        "network.file_bytes": len(out.get("net_bytes", b"")),
        "coding.code_file_bytes": len(out.get("code_bytes", b"")),
    }
    return PassResult(seconds, [seconds * 1e3], 1, int(bool(errors)), errors, extras)


def _pipeline_stages(state: PipelineState, tr, out: dict) -> None:
    with tr.span("pipeline.build"), tr.span("constructions.build"):
        net, meta = constructions.build_for_rate(RATE_3_5)
    out["meta"] = meta
    family, m, q, k = meta["family"], meta["m"], meta["q"], meta["k"]
    with tr.span("pipeline.scheme"), tr.span("coding.scheme"):
        code = coding.scheme_merged(family, m, q, 2, k)
    with tempfile.TemporaryDirectory(dir=state.workdir) as tmp:
        net_path = Path(tmp) / "net.json"
        code_path = Path(tmp) / "code.json"
        with tr.span("pipeline.write"):
            with tr.span("network.serialize"):
                net_bytes = network.serialize(net)
            with tr.span("coding.code_to_json"):
                code_bytes = coding.code_to_json(code)
            net_path.write_bytes(net_bytes)
            code_path.write_bytes(code_bytes)
        del net, code
        with tr.span("pipeline.read"):
            nb = net_path.read_bytes()
            cb = code_path.read_bytes()
            with tr.span("network.deserialize"):
                net2 = network.deserialize(nb)
            with tr.span("network.validate"):
                out["problems"] = network.validate(net2)
            with tr.span("coding.code_from_json"):
                code2 = coding.code_from_json(net2, cb)
    out.update(net_bytes=nb, code_bytes=cb, net=net2, code=code2)
    with tr.span("pipeline.verify"), tr.span("coding.verify"):
        out["verify"] = coding.verify(net2, code2)
    with tr.span("pipeline.bound_check"), tr.span("analysis.bound_check"):
        out["bound"] = analysis.bound_check(net2, code2, "n1-with-groups", m, q)
    with tr.span("pipeline.unroll"):
        with tr.span("constructions.build"):
            base = constructions.build_n1(m, q)
        with tr.span("coding.unroll"):
            unrolled = coding.unroll_merged(code2, k, base)
        with tr.span("coding.verify"):
            out["verify_unrolled"] = coding.verify(base, unrolled)
    out["unrolled_shape"] = (unrolled.r, unrolled.l)


def _pipeline_checks(state: PipelineState, out: dict) -> list[str]:
    """Known answers for the rate-3/5 pipeline; untimed.  The files are
    re-encoded on the first pass only (2 s); later passes compare bytes."""
    errors = []
    meta = out["meta"]
    if (meta["family"], meta["m"], meta["q"], meta["k"]) != MERGED:
        errors.append(f"build: unexpected parameters {meta}")
    if out["problems"]:
        errors.append(f"validate: {out['problems'][:3]}")
    if not out["verify"].ok:
        errors.append(f"verify: first failing terminal {out['verify'].first_failed}")
    bound = out["bound"]
    if not (bound.rank == bound.required == BOUND_RANK and bound.ok):
        errors.append(f"bound_check: rank {bound.rank}, required {bound.required}, ok {bound.ok}")
    digest = hashlib.sha256(out["net_bytes"] + b"\0" + out["code_bytes"]).digest()
    if state.checked_digest is None:
        if network.serialize(out["net"]) != out["net_bytes"]:
            errors.append("network file: serialize(deserialize(b)) != b")
        if coding.code_to_json(out["code"]) != out["code_bytes"]:
            errors.append("code file: re-encoding is not byte-identical")
        if not errors:
            state.checked_digest = digest
    elif digest != state.checked_digest:
        errors.append("network or code file differs from the first pass")
    if out["unrolled_shape"] != (6, 30):
        errors.append(f"unroll: got an {out['unrolled_shape']} code, expected (6,30)")
    if not out["verify_unrolled"].ok:
        errors.append("unroll: the (6,30) code does not verify")
    return errors


# --- search-3of5-gf3 ---------------------------------------------------------------


@dataclass
class SearchState:
    net: network.SumNetwork
    rng: np.random.Generator


def search_setup(rng: np.random.Generator, workdir: Path) -> SearchState:
    net, _ = constructions.build_for_rate(RATE_3_5)
    return SearchState(net, rng)


def search_pass(state: SearchState, tr) -> PassResult:
    """One Random search of CANDIDATES_PER_PASS (6,10) composites over GF(3).

    Known answer: tried == n and nothing found, because the
    wrong-characteristic bound rules out rate 3/5 over GF(3); every code
    found is a wrong verdict.  A candidate's time is the feasible_decoders
    call that search makes for it; if search stops making one call per
    candidate, each candidate gets the pass time / n.
    """
    n = CANDIDATES_PER_PASS
    seed = int(state.rng.integers(2**32))
    items: list[float] = []
    rejected: list[Optional[str]] = []
    original = analysis.feasible_decoders

    def candidate(*args, **kwargs):
        t0 = perf_counter()
        with tr.span("analysis.feasible_decoders"):
            res = original(*args, **kwargs)
        items.append((perf_counter() - t0) * 1e3)
        rejected.append(res.failed_terminal)
        return res

    analysis.feasible_decoders = candidate
    errors: list[str] = []
    failed, found = n, 0
    t0 = perf_counter()
    try:
        with tr.span("pass"), tr.span("analysis.search"):
            result = analysis.search(
                state.net, SEARCH_R, SEARCH_L, SEARCH_P, analysis.Random(n=n, seed=seed)
            )
    except Exception as exc:  # a search that raises fails every candidate
        errors.append(_describe(exc))
    else:
        if result.tried != n:
            errors.append(f"search: tried {result.tried} of {n}")
        else:
            failed = found = len(result.found)
            if found:
                errors.append(f"search: {found} code(s) found over GF(3)")
    finally:
        analysis.feasible_decoders = original
    seconds = perf_counter() - t0
    if len(items) != n:
        items = [seconds * 1e3 / n] * n
    first_terminal = state.net.terminals[0]
    extras = {
        "analysis.found_per_tried": found / n,
        "analysis.rejected_at_first_terminal_frac": rejected.count(first_terminal) / n,
    }
    return PassResult(seconds, items, n, failed, errors, extras)


WORKLOADS = {
    "pipeline-3of5": (pipeline_setup, pipeline_pass),
    "search-3of5-gf3": (search_setup, search_pass),
}
