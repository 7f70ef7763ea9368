"""Command-line frontend.

Subcommands: build, scheme, verify, search, bounds.  Every artifact-
producing run writes a manifest next to its output so runs are
reproducible from the recorded parameters alone.

Exit codes: 0 success/verified, 1 verification failure / infeasible /
scheme refusal, 2 usage error, an unreadable or malformed input, or a
run out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from .analysis import (
    MODES,
    Exhaustive,
    Random,
    bound_check,
    search,
    wrong_char_bound,
)
from .coding import (
    CharacteristicError,
    UnverifiedCodeError,
    _code_text,
    code_from_json,
    code_to_json,
    scheme,
    verify,
)
from .constructions import (
    IN_SET,
    NOT_IN_SET,
    RateTarget,
    build_for_rate,
    build_merged,
    capacity,
    n1_counts,
    n2_counts,
)
from .galois import PrimeField
from .network import NetworkFormatError, deserialize, serialize, to_dot, validate


def _write_manifest(out: Path, doc: dict) -> Path:
    path = Path(str(out) + ".manifest.json")
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _read_manifest(net_path: Path) -> dict:
    path = Path(str(net_path) + ".manifest.json")
    if not path.exists():
        raise FileNotFoundError(f"no manifest next to {net_path} (expected {path.name})")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an int past Python's digit limit
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(
            f"manifest {path} is not valid JSON: it nests deeper than the recursion limit"
        ) from None
    if not isinstance(meta, dict):
        raise ValueError(f"manifest {path} must be a JSON object")
    for key in ("family", "m", "q", "k"):
        if key not in meta:
            raise ValueError(f"manifest lacks {key!r}; build the network with this tool")
        if key != "family" and (not isinstance(meta[key], int) or isinstance(meta[key], bool)):
            raise ValueError(f"manifest field {key!r} must be an integer, got {meta[key]!r}")
    return meta


def _load_net(path: Path):
    net = deserialize(path.read_bytes())
    problems = validate(net)
    if problems:
        raise NetworkFormatError("; ".join(problems))
    return net


def _parse_rate(text: str) -> tuple[int, int]:
    try:
        k_str, n_str = text.split("/")
        k, n = int(k_str), int(n_str)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"rate must look like k/n, got {text!r}") from exc
    return k, n


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"primes must be a comma list, got {text!r}") from exc


# --- build ---------------------------------------------------------------


def _cmd_build(args) -> int:
    started = time.perf_counter()
    if args.rate is not None:
        if args.family is not None or args.m is not None or args.q is not None:
            raise ValueError("--rate excludes --family/--m/--q")
        if args.primes is None or args.mode is None:
            raise ValueError("--rate requires --primes and --mode")
        k, n = args.rate
        target = RateTarget(k=k, n=n, primes=args.primes, mode=args.mode)
        net, meta = build_for_rate(target)
    else:
        if args.family is None or args.m is None or args.q is None:
            raise ValueError("need --family/--m/--q or --rate")
        net, meta = build_merged(args.family, args.m, args.q, args.k)
    out = Path(args.out)
    out.write_bytes(serialize(net))
    artifacts = [str(out)]
    if args.dot:
        dot_path = out.with_suffix(".dot")
        dot_path.write_text(to_dot(net), encoding="utf-8")
        artifacts.append(str(dot_path))
    manifest = {
        "command": "build",
        "parameters": meta,
        "artifacts": artifacts,
        "sources": len(net.sources),
        "terminals": len(net.terminals),
        "edges": len(net.tail),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    manifest.update(meta)
    _write_manifest(out, manifest)
    print(
        f"built {meta['family']}(m={meta['m']}, q={meta['q']}, k={meta['k']}): "
        f"{len(net.sources)} sources, {len(net.terminals)} terminals, "
        f"{len(net.tail)} edges; capacity {meta['capacity_num']}/{meta['capacity_den']}"
    )
    return 0


# --- scheme ---------------------------------------------------------------


def _cmd_scheme(args) -> int:
    started = time.perf_counter()
    net_path = Path(args.net)
    meta = _read_manifest(net_path)
    net = _load_net(net_path)
    family, m, q, k = meta["family"], meta["m"], meta["q"], meta["k"]
    capacity(family, m, q, k)  # refuses an unknown family or a bad m, q or k
    # The counts need no build, so a manifest far from the file is refused at once.
    c = (n1_counts if family == "n1" else n2_counts)(m, q)
    want = [c["sources"], c["terminals"], k * c["intermediates"], k * c["middle_edges"]]
    have = [len(net.sources), len(net.terminals), len(net.intermediates), len(net.middle_edges())]
    if have != want or net != build_merged(family, m, q, k)[0]:
        raise ValueError("network file does not match its manifest parameters")
    try:
        code = scheme(net, family, m, q, args.p)
    except CharacteristicError as exc:
        print(f"refused: {exc}")
        return 1
    out = Path(args.out)
    out.write_bytes(code_to_json(code))
    _write_manifest(
        out,
        {
            "command": "scheme",
            "parameters": {"net": str(net_path), "p": args.p},
            "r": code.r,
            "l": code.l,
            "artifacts": [str(out)],
            "wall_time_s": round(time.perf_counter() - started, 6),
        },
    )
    print(f"wrote ({code.r},{code.l}) code over GF({args.p}) to {out}")
    return 0


# --- verify ----------------------------------------------------------------


def _cmd_verify(args) -> int:
    net = _load_net(Path(args.net))
    code = code_from_json(net, Path(args.code).read_bytes())
    report = verify(net, code)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.to_text(), end="")
    return 0 if report.ok else 1


# --- search -----------------------------------------------------------------


def _search_text(result) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)` plus a newline for the
    search document {"codes", "found", "rejected_at", "tried"}, each
    found code laid out in place by the code file's writer, not encoded,
    parsed and encoded again."""
    rest = json.dumps(
        {"codes": [], "found": len(result.found), "rejected_at": result.rejected_at,
         "tried": result.tried},
        sort_keys=True,
        indent=2,
    )
    empty = '{\n  "codes": []'  # "codes" sorts first
    if not result.found:
        return rest + "\n"
    codes = ",".join("\n    " + _code_text(code, indent=2, depth=2) for code in result.found)
    return '{\n  "codes": [' + codes + "\n  ]" + rest[len(empty) :] + "\n"


def _cmd_search(args) -> int:
    started = time.perf_counter()
    net = _load_net(Path(args.net))
    if args.exhaustive:
        strategy = Exhaustive(budget=args.budget)
    else:
        if args.seed is None:
            raise ValueError("--random requires --seed")
        strategy = Random(n=args.random, seed=args.seed)
    result = search(net, args.r, args.l, args.p, strategy)
    if args.out:
        out = Path(args.out)
        out.write_text(_search_text(result), encoding="utf-8")
        _write_manifest(
            out,
            {
                "command": "search",
                "parameters": {
                    "net": args.net,
                    "r": args.r,
                    "l": args.l,
                    "p": args.p,
                    "strategy": "exhaustive" if args.exhaustive else "random",
                    "n": None if args.exhaustive else args.random,
                    "seed": args.seed,
                    "budget": args.budget if args.exhaustive else None,
                },
                "found": len(result.found),
                "tried": result.tried,
                "artifacts": [str(out)],
                "wall_time_s": round(time.perf_counter() - started, 6),
            },
        )
    print(f"tried {result.tried} composite encodings, found {len(result.found)} solution(s)")
    return 0 if result.found else 1


# --- bounds -----------------------------------------------------------------


def _cmd_bounds(args) -> int:
    net_path = Path(args.net)
    meta = _read_manifest(net_path)
    family, m, q, k = meta["family"], meta["m"], meta["q"], meta["k"]
    cap = capacity(family, m, q, k)
    wrong = k * wrong_char_bound(m, q)
    lines = [
        f"family {family}, m={m}, q={q}, k={k}",
        f"capacity: {cap}",
        f"wrong-characteristic bound: {wrong}",
    ]
    if not args.code:
        print("\n".join(lines))
        return 0
    net = _load_net(net_path)
    code = code_from_json(net, Path(args.code).read_bytes())
    mode = args.mode or ("n1-with-groups" if family == "n1" else "n2-middle-only")
    try:
        report = bound_check(net, code, mode, m, q)
    except UnverifiedCodeError as exc:
        print(f"refused: {exc}")
        return 1
    print("\n".join(lines))
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.to_text(), end="")
    return 0 if report.ok else 1


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2, as every other usage error
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sumnets",
        description="Build sum-networks, realize and verify fractional linear codes, "
        "search for codes, and check capacity bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a network and write the canonical file")
    b.add_argument("--family", choices=("n1", "n2"))
    b.add_argument("--m", type=int)
    b.add_argument("--q", type=int)
    b.add_argument("--k", type=int, default=1, help="copies to merge (default 1)")
    b.add_argument("--rate", type=_parse_rate, metavar="K/N")
    b.add_argument("--primes", type=_parse_primes, metavar="P1,P2,...")
    b.add_argument("--mode", choices=(IN_SET, NOT_IN_SET))
    b.add_argument("--out", required=True)
    b.add_argument("--dot", action="store_true", help="also write a DOT rendering")
    b.set_defaults(func=_cmd_build)

    s = sub.add_parser("scheme", help="write the capacity-achieving code for a built network")
    s.add_argument("--net", required=True)
    s.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_scheme)

    v = sub.add_parser("verify", help="check that a code makes every terminal output the sum")
    v.add_argument("--net", required=True)
    v.add_argument("--code", required=True)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

    se = sub.add_parser("search", help="search composite encodings for feasible codes")
    se.add_argument("--net", required=True)
    se.add_argument("--r", type=int, required=True)
    se.add_argument("--l", type=int, required=True)
    se.add_argument("--p", type=int, required=True)
    group = se.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--random", type=int, metavar="N")
    se.add_argument("--seed", type=int)
    se.add_argument("--budget", type=int, default=1_000_000)
    se.add_argument("--out")
    se.set_defaults(func=_cmd_search)

    bo = sub.add_parser("bounds", help="capacity formulas and rank certificates")
    bo.add_argument("--net", required=True)
    bo.add_argument("--code")
    bo.add_argument("--mode", choices=MODES)
    bo.add_argument("--json", action="store_true")
    bo.set_defaults(func=_cmd_bounds)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "p", None) is not None:
            PrimeField(args.p)  # refuses a bad modulus before any work
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
