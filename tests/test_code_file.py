"""The v1 code file codec against the plain json.dumps / json.loads codec
it replaced.

`reference_to_json`, `reference_from_json` and `_ReferenceMatTable` below
are the previous bodies of `coding.code_to_json`, `coding.code_from_json`
and `coding._MatTable`, kept verbatim.  The codec in `coding` encodes and
parses each distinct entry list once; it must write the same bytes, and
load the same entries (sharing matrices the same way) or refuse with the
same exception type and message.  Two intended differences: a `version`
of `true` or `1.0`, which the reference accepts, is refused; and an
integer literal past Python's limit on the digits of an int, where the
reference lets json's bare ValueError out, is refused as not valid JSON
with that error's message.

`reference_parse_code_file` is the regex tokenizer that
`coding._parse_code_file` replaced, kept verbatim: it scans the whole text
with one callback per string or all-integer array, and stands each array
in for a one-item list `[k]`, which `reference_resolve` (the previous
`coding._resolve`) resolves.  `_parse_code_file` stands each array in for
a bare integer instead; once resolved, both documents must be the one
json.loads gives, or both parsers must raise the same error.
"""

import json
import re
import time

import numpy as np
import pytest
from hypothesis import given

from sumnets.analysis import routing_code
from sumnets.coding import (
    CODE_FORMAT_VERSION,
    CodeFormatError,
    FracLinCode,
    _as_mat,
    _edge_keys,
    _parse_code_file,
    _resolve,
    code_from_json,
    code_to_json,
    scheme_merged,
    verify,
)
from sumnets.constructions import build_bottleneck2, k_copy_merge
from sumnets.galois import PrimeField
from sumnets.matrix import Mat
from sumnets.network import SOURCE, Edge, Node, SumNetwork

from test_fuzz import CODE, CODE_DOC, FUZZ, NET, _mutants
from test_network import EDIT_BYTES
from test_golden import BUILDERS, CODES, MERGED_ROUTING, ROUTING_CODES, SCHEMES

# --- the reference codec ------------------------------------------------------------


def reference_to_json(code: FracLinCode) -> bytes:
    net = code.net
    lists: dict[int, list[int]] = {}  # id(Mat) -> entries; each Mat object is converted once

    def flat(m: Mat) -> list[int]:
        out = lists.get(id(m))
        if out is None:
            out = lists[id(m)] = m.flat()
        return out

    edge_matrices: dict[str, object] = {}
    for i, e in enumerate(net.edges):
        if net.role(e.tail) == SOURCE:
            edge_matrices[e.label] = flat(code.src_mats[i])
        else:
            edge_matrices[e.label] = [flat(m) for m in code.in_mats[i]]
    terminal_matrices = {t: [flat(m) for m in code.dec_mats[t]] for t in net.terminals}
    doc = {
        "version": CODE_FORMAT_VERSION,
        "r": code.r,
        "l": code.l,
        "p": code.field.p,
        "edge_matrices": edge_matrices,
        "terminal_matrices": terminal_matrices,
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


class _ReferenceMatTable:
    """One read-only Mat per distinct entry list of a code file.

    Equal tuples of JSON values are equal matrices, with one exception:
    a float equal to an integer (1.0 == 1, with the same hash).  A list
    that matches a stored one holds only integers, booleans and such
    floats, and its sum is a float exactly when it holds a float, so
    that sum rejects it as `_as_mat` would.
    """

    def __init__(self, field: PrimeField):
        self.field = field
        self.mats: dict[tuple, Mat] = {}

    def get(self, flat, rows: int, cols: int, what: str) -> Mat:
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


def reference_from_json(net: SumNetwork, data: bytes) -> FracLinCode:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodeFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CodeFormatError("top level must be an object")
    for key in ("version", "r", "l", "p", "edge_matrices", "terminal_matrices"):
        if key not in doc:
            raise CodeFormatError(f"missing field {key!r}")
    if doc["version"] != CODE_FORMAT_VERSION:
        raise CodeFormatError(f"unsupported version {doc['version']}")
    for key in ("r", "l", "p"):
        value = doc[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodeFormatError(f"field {key!r} must be an integer, got {value!r}")
        if key != "p" and value < 1:
            raise CodeFormatError(f"field {key!r} must be positive, got {value}")
    r, l, p = doc["r"], doc["l"], doc["p"]
    try:
        field = PrimeField(p)
    except ValueError as exc:
        raise CodeFormatError(f"field 'p': {exc}") from exc
    for key in ("edge_matrices", "terminal_matrices"):
        if not isinstance(doc[key], dict):
            raise CodeFormatError(f"field {key!r} must be an object")
    table = _ReferenceMatTable(field)
    edge_matrices = doc["edge_matrices"]
    src_mats, in_mats, dec_mats = {}, {}, {}
    for i, e in enumerate(net.edges):
        label = e.label
        if label not in edge_matrices:
            raise CodeFormatError(f"edge_matrices missing edge {label}")
        entry = edge_matrices[label]
        if net.role(e.tail) == SOURCE:
            src_mats[i] = table.get(entry, l, r, f"edge {label}")
        else:
            ins = net.in_edges(e.tail)
            if not isinstance(entry, list) or len(entry) != len(ins):
                raise CodeFormatError(f"edge {label}: expected {len(ins)} matrices")
            in_mats[i] = tuple(
                table.get(flat, l, l, f"edge {label}[{j}]") for j, flat in enumerate(entry)
            )
    for t in net.terminals:
        if t not in doc["terminal_matrices"]:
            raise CodeFormatError(f"terminal_matrices missing terminal {t}")
        entry = doc["terminal_matrices"][t]
        ins = net.in_edges(t)
        if not isinstance(entry, list) or len(entry) != len(ins):
            raise CodeFormatError(f"terminal {t}: expected {len(ins)} matrices")
        dec_mats[t] = tuple(
            table.get(flat, r, l, f"terminal {t}[{j}]") for j, flat in enumerate(entry)
        )
    return FracLinCode(net, r, l, field, src_mats, in_mats, dec_mats)


# A JSON string, kept as it is (to the end of the text if unterminated,
# so that no later quote is taken for an opening one), or an array literal
# of integers only, however spaced.
_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|(\[[ \t\n\r0-9,-]*\])', re.DOTALL)


def reference_parse_code_file(text: str) -> tuple[object, list[list[int]]]:
    refs: dict[str, str] = {}

    def ref(m: re.Match) -> str:
        array = m.group(1)
        if array is None:
            return m.group(0)
        out = refs.get(array)
        if out is None:
            out = refs[array] = f"[{len(refs)}]"
        return out

    try:
        skeleton = json.loads(_TOKEN.sub(ref, text))
        return skeleton, [json.loads(array) for array in refs]
    except json.JSONDecodeError:
        json.loads(text)
        raise


def _is_ref(x) -> bool:
    return type(x) is list and len(x) == 1 and type(x[0]) is int


def reference_resolve(x, arrays: list[list[int]]):
    """A skeleton value with every reference replaced by its array: the
    value json.loads gives for the original text."""
    if _is_ref(x):
        return arrays[x[0]]
    if type(x) is list:
        return [reference_resolve(y, arrays) for y in x]
    if type(x) is dict:
        return {k: reference_resolve(v, arrays) for k, v in x.items()}
    return x


# --- comparing the two ----------------------------------------------------------------


def _parsed(parse, resolve, data: bytes):
    """What tokenizing, parsing and resolving gives: the document (by repr,
    so that a NaN equals itself), or the exception."""
    try:
        return ("parsed", repr(resolve(*parse(data))))
    except RecursionError:  # how deep it gets depends on the caller's stack
        return ("refused", RecursionError)
    except Exception as exc:  # compared by type and message
        return ("refused", type(exc), str(exc))


def assert_parses_as_reference(data: bytes):
    want = _parsed(
        lambda data: reference_parse_code_file(data.decode("utf-8")), reference_resolve, data
    )
    assert _parsed(lambda data: _parse_code_file(data)[:2], _resolve, data) == want
    if want[0] == "parsed":
        assert want[1] == repr(json.loads(data.decode("utf-8")))


def _slots(code: FracLinCode) -> list[Mat]:
    return (
        [code.src_mats[i] for i in sorted(code.src_mats)]
        + [m for i in sorted(code.in_mats) for m in code.in_mats[i]]
        + [m for t in sorted(code.dec_mats) for m in code.dec_mats[t]]
    )


def _outcome(reader, net: SumNetwork, data: bytes):
    """What reading gives: the exception, or the entries, the sharing of
    Mat objects between slots and their write flags."""
    try:
        code = reader(net, data)
    except Exception as exc:  # compared by type and message
        return ("refused", type(exc), str(exc))
    slots = _slots(code)
    first: dict[int, int] = {}
    sharing = [first.setdefault(id(m), k) for k, m in enumerate(slots)]
    entries = [(m.shape, m.a.dtype.str, m.a.tobytes()) for m in slots]
    writeable = [m.a.flags.writeable for m in slots]
    return ("loaded", code.r, code.l, code.field.p, entries, sharing, writeable)


def _version_is_loose(data: bytes) -> bool:
    doc = json.loads(data)
    return isinstance(doc, dict) and type(doc["version"]) is not int


def assert_reads_as_reference(net: SumNetwork, data: bytes):
    assert_parses_as_reference(data)
    want = _outcome(reference_from_json, net, data)
    got = _outcome(code_from_json, net, data)
    if want[0] == "loaded" and _version_is_loose(data):
        assert got[:2] == ("refused", CodeFormatError)
        assert got[2].startswith("unsupported version ")
    elif want[:2] == ("refused", ValueError) and want[2].startswith("Exceeds the limit"):
        assert got == ("refused", CodeFormatError, f"not valid JSON: {want[2]}")
    else:
        assert got == want
    return got


def _read_by_position(net: SumNetwork, data: bytes) -> bool:
    """Whether the reader cuts the file's edge section by position."""
    try:
        return _parse_code_file(data, _edge_keys(net, '"')[2])[2] is not None
    except (ValueError, RecursionError):  # the text's own error, from reading it whole
        return False


def _check_code(code: FracLinCode) -> bytes:
    data = code_to_json(code)
    assert data == reference_to_json(code)
    assert _read_by_position(code.net, data)
    loaded = assert_reads_as_reference(code.net, data)
    assert loaded[0] == "loaded"
    spaced = json.dumps(json.loads(data), indent=1).encode()
    assert _outcome(code_from_json, code.net, spaced) == loaded
    return data


# --- pinned codes ------------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(CODES))
def test_scheme_files_match_the_reference(key):
    family, m, q, p = key
    _check_code(SCHEMES[family](m, q, p))


def test_merged_scheme_file_matches_the_reference():
    _check_code(scheme_merged("n1", 2, 2, 2, 2))


def test_rate_three_fifths_scheme_file_matches_the_reference():
    _check_code(scheme_merged("n1", 9, 2, 2, 3))


@pytest.mark.parametrize("key", sorted(ROUTING_CODES))
def test_routing_files_match_the_reference(key):
    net = build_bottleneck2() if key[0] == "bottleneck2" else BUILDERS[key[0]](key[1], key[2])
    _check_code(routing_code(net, key[-1]))


@pytest.mark.parametrize("key", sorted(MERGED_ROUTING))
def test_merged_routing_files_match_the_reference(key):
    family, m, q, k, p = key
    _check_code(routing_code(k_copy_merge(BUILDERS[family](m, q), k), p))


# --- fuzzed documents -----------------------------------------------------------------------


@FUZZ
@given(_mutants(CODE_DOC))
def test_fuzzed_code_documents_read_as_the_reference_reads_them(data):
    assert_reads_as_reference(NET, data)
    compact = json.dumps(json.loads(data), separators=(",", ":")).encode()
    assert_reads_as_reference(NET, compact)


# --- hand-written documents -------------------------------------------------------------------

SOURCE_EDGE = "(s_1,u_1_1,0)"
RAW = "@raw@"


def _raw(path, text: str, doc=CODE_DOC) -> bytes:
    """The compact file of doc with the value at path written as the raw text."""
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = RAW
    compact = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert compact.count(f'"{RAW}"') == 1
    return compact.replace(f'"{RAW}"', text).encode()


def _in_edge():
    return next(e.label for e in NET.edges if NET.role(e.tail) != SOURCE)


ENTRY_TEXTS = [
    "[ 5 ]", "[]", "[ ]", "[true]", "[1.0]", "[01]", "[1,,2]", "[-]", "[-0,0,0,1]",
    "[1,0,0,1,]", "[1 0 0 1]", "[1e0,0,0,1]", "[ 1 ,\n0,\t0 ,\r1 ]", "[[1,0,0,1]]",
    "[9223372036854775807,0,0,1]", "[9223372036854775808,0,0,1]",
    "[-9223372036854775808,0,0,1]", "[-9223372036854775809,0,0,1]",
    "[1,0,0,100000000000000000000]", '"[1,0,0,1]"', "null", "{}", "5",
    # A literal at or past the first reference, a float equal to one (the
    # references of this file start at 10), and an array holding one.
    "1000000", "1e1", "[10,10]", "[1000000]", "[1e1,0,0,1]",
    # Past Python's limit on the digits of an int, as a value and in an array.
    "9" * 5000, "[1,0,0," + "9" * 5000 + "]",
]


@pytest.mark.parametrize("text", ENTRY_TEXTS)
@pytest.mark.parametrize("where", ["source", "in-edge slot", "in-edge list", "decoder slot"])
def test_hand_written_entries_read_as_the_reference_reads_them(text, where):
    t = NET.terminals[-1]
    path = {
        "source": ("edge_matrices", SOURCE_EDGE),
        "in-edge slot": ("edge_matrices", _in_edge(), 0),
        "in-edge list": ("edge_matrices", _in_edge()),
        "decoder slot": ("terminal_matrices", t, 1),
    }[where]
    assert_reads_as_reference(NET, _raw(path, text))


def test_a_spaced_copy_of_a_matrix_shares_the_compact_one():
    doc = CODE_DOC
    flat = doc["edge_matrices"][SOURCE_EDGE]
    other = next(
        e.label
        for e in NET.edges
        if NET.role(e.tail) == SOURCE and e.label != SOURCE_EDGE
        and doc["edge_matrices"][e.label] == flat
    )
    spaced = "[ " + " ,\n ".join(map(str, flat)) + " ]"
    data = _raw(("edge_matrices", other), spaced)
    assert_reads_as_reference(NET, data)
    code = code_from_json(NET, data)
    by_label = {e.label: i for i, e in enumerate(NET.edges)}
    a, b = code.src_mats[by_label[SOURCE_EDGE]], code.src_mats[by_label[other]]
    assert a is b and not a.a.flags.writeable


def test_a_list_of_references_is_read_once_per_shape():
    # The same list text as an in-edge list of 2x2 matrices and as a
    # decoder list of 1x2 ones: it holds a matrix of the first shape only.
    nodes = [Node("s", "source"), Node("v", "intermediate"), Node("t", "terminal")]
    net = SumNetwork(nodes, [Edge("s", "v"), Edge("v", "t")])
    doc = {
        "version": 1, "r": 1, "l": 2, "p": 2,
        "edge_matrices": {"(s,v,0)": [1, 1], "(v,t,0)": [[1, 0, 0, 1]]},
        "terminal_matrices": {"t": [[1, 0, 0, 1]]},
    }
    got = assert_reads_as_reference(net, json.dumps(doc).encode())
    assert got == ("refused", CodeFormatError, "terminal t[0]: expected 2 entries")


@pytest.mark.parametrize("key", ["version", "r", "l", "p"])
@pytest.mark.parametrize("text", ["[5]", "[ 2 ]", "[true]", "[]", "[1,2]", '"[2]"', "2.0"])
def test_an_echoed_field_shows_its_own_value(key, text):
    data = _raw((key,), text)
    got = assert_reads_as_reference(NET, data)
    assert got[0] == "refused"
    shown = json.loads(text)
    if key == "version":
        assert got[2] == f"unsupported version {shown}"
    else:
        assert got[2].endswith(f"got {shown!r}")


@pytest.mark.parametrize("value", [True, 1.0])
def test_a_version_that_is_not_an_integer_is_refused(value):
    data = _raw(("version",), json.dumps(value))
    assert _outcome(reference_from_json, NET, data)[0] == "loaded"
    with pytest.raises(CodeFormatError, match=f"^unsupported version {value}$"):
        code_from_json(NET, data)


COMPACT = code_to_json(CODE)
LAST_KEY = b'"version":1}'
KEY = f'"{SOURCE_EDGE}":'.encode()

FILES = {
    "indent-1": json.dumps(CODE_DOC, indent=1).encode(),
    "indent-tab": json.dumps(CODE_DOC, indent="\t").encode(),
    "unsorted": json.dumps(dict(reversed(list(CODE_DOC.items())))).encode(),
    "duplicate r": COMPACT.replace(b'{"edge_matrices"', b'{"r":7,"edge_matrices"'),
    "duplicate r, bad last": COMPACT.replace(LAST_KEY, b'"version":1,"r":[5]}'),
    "duplicate entry": COMPACT.replace(KEY, KEY + b"[1,2]," + KEY, 1),
    "duplicate section, bad last": COMPACT.replace(
        LAST_KEY, b'"version":1,"edge_matrices":{"x":[1]}}'
    ),
    "string with brackets": COMPACT.replace(LAST_KEY, b'"version":1,"note":"[1,2] [ 3 ] [] x"}'),
    "string with escapes": COMPACT.replace(
        LAST_KEY, b'"version":1,"note":"\\"[1,2]\\" \\\\ \\u00fc [4]"}'
    ),
    "non-ASCII string": COMPACT.replace(LAST_KEY, '"version":1,"nöte":"ü [1,2] ✓"}'.encode()),
    "key with brackets": COMPACT.replace(b'{"edge_matrices":{', b'{"edge_matrices":{"[1,2]":[3],'),
    "invalid UTF-8": COMPACT.replace(LAST_KEY, b'"version":1,"note":"\xff"}'),
    "invalid UTF-8 outside strings": b"{\xff}",
    "BOM": "﻿".encode() + COMPACT,
    "truncated half": COMPACT[: len(COMPACT) // 2],
    "truncated end": COMPACT[:-3],
    "truncated in a list": COMPACT[: COMPACT.index(b"[") + 3],
    "empty": b"",
    "whitespace": b" \n",
    "unterminated string": COMPACT.replace(LAST_KEY, b'"version":1,"note":"[1,2] \\" [3]}'),
    "unterminated at the end": COMPACT.rstrip().replace(
        LAST_KEY, b'"version":1,"note":"[1,2] \\" [3]}'
    ),
    "bad escape": COMPACT.replace(LAST_KEY, b'"version":1,"note":"\\x[1,2]"}'),
    "escaped newline": COMPACT.replace(LAST_KEY, b'"version":1,"note":"\\\n[1,2]"}'),
    "control character": COMPACT.replace(LAST_KEY, b'"version":1,"note":"\t[1,2]"}'),
    "trailing data": COMPACT + b"[1,2]",
    "two documents": COMPACT + COMPACT,
    "top-level list": b"[1,2]",
    "top-level empty list": b"[]",
    "top-level reference-like": b"[0]",
    "top-level number": b"5",
    "top-level string": b'"[1,2]"',
    "NaN entry": COMPACT.replace(b"[1,0,0,1]", b"[NaN,0,0,1]", 1),
    "missing comma": COMPACT.replace(b"[1,0,0,1]", b"[1,0,0,1][1]", 1),
    "backslash before a quote outside strings": COMPACT.replace(
        LAST_KEY, b'"version":1,\\"note":[1,2]}'
    ),
    "backslash before the first quote": b"{\\" + COMPACT[1:],
    "string ending the file in a backslash": COMPACT.rstrip().replace(
        LAST_KEY, b'"version":1,"note":"[1,2] \\'
    ),
    "string ending the file in two backslashes": COMPACT.rstrip().replace(
        LAST_KEY, b'"version":1,"note":"[1,2] \\\\'
    ),
    "CRLF": json.dumps(CODE_DOC, indent=1).replace("\n", "\r\n").encode(),
    "r as a list": COMPACT.replace(b'"r":2', b'"r":[6]'),
    "r past the first reference": COMPACT.replace(b'"r":2', b'"r":100'),
    # Each would be a number if the array were put in as a bare one.
    "digit before an array": COMPACT.replace(b":[1,0,0,1]", b":5[1,0,0,1]", 1),
    "minus before an array": COMPACT.replace(b":[1,0,0,1]", b":-[1,0,0,1]", 1),
    "digit after an array": COMPACT.replace(b"[1,0,0,1]", b"[1,0,0,1]5", 1),
    "fraction after an array": COMPACT.replace(b"[1,0,0,1]", b"[1,0,0,1].5", 1),
    "exponent after an array": COMPACT.replace(b"[1,0,0,1]", b"[1,0,0,1]e5", 1),
    "two arrays": COMPACT.replace(b"[1,0,0,1]", b"[1,0,0,1] [1]", 1),
}
# A run of n backslashes before a quote escapes it when n is odd: the
# string goes on, over an array.  Each layout is JSON for one parity only.
ESCAPE_LAYOUTS = {
    "in a value, the array inside": (b'"note":"x', b'"[1,2]"}'),
    "in a value, the array after": (b'"note":["x', b'",[1,2],"y"]}'),
    "in a key, the array inside": (b'"k', b'":[3]":[1,2]}'),
    "in a key, the array after": (b'"k', b'":[1,2]}'),
}
for n in range(1, 5):
    for where, (head, tail) in ESCAPE_LAYOUTS.items():
        FILES[f"{n} backslashes before a quote {where}"] = COMPACT.replace(
            LAST_KEY, b'"version":1,' + head + b"\\" * n + tail
        )


@pytest.mark.parametrize("name", sorted(FILES))
def test_hand_written_files_read_as_the_reference_reads_them(name):
    assert_reads_as_reference(NET, FILES[name])


def test_an_unterminated_string_of_escaped_quotes_is_refused_at_once():
    # Each escaped quote could open a string if the scan lost its place;
    # rescanning from every one would take quadratic time.
    data = b'{"note":"' + b'\\"[1]' * 200_000
    started = time.perf_counter()
    with pytest.raises(CodeFormatError, match="^not valid JSON: Unterminated string"):
        code_from_json(NET, data)
    assert time.perf_counter() - started < 2


def test_a_file_of_many_strings_with_escaped_quotes_is_read_at_once():
    # 200,000 strings each holding \\\": each escaped quote joins two pieces
    # of the split again, and joining them one by one would be quadratic.
    notes = b",".join([b'"\\\\\\""'] * 200_000)
    data = COMPACT.replace(LAST_KEY, b'"version":1,"note":[' + notes + b"]}")
    started = time.perf_counter()
    code = code_from_json(NET, data)
    assert time.perf_counter() - started < 2
    assert _outcome(lambda net, data: code, NET, data) == _outcome(code_from_json, NET, COMPACT)


def _nested(depth: int) -> bytes:
    return _raw(("version",), "[" * depth + "1" + "]" * depth)


@pytest.mark.parametrize(
    "data",
    [b"[" * 100_000, _nested(100_000), _nested(900)],
    ids=["unterminated", "balanced", "parsed-but-deeper-than-resolving-allows"],
)
def test_json_nested_past_the_recursion_limit_is_refused(data):
    # At depth 900 json.loads can succeed under the default recursion
    # limit; resolving the parsed value then runs out of stack.
    with pytest.raises(CodeFormatError, match="^not valid JSON: the code file nests deeper"):
        code_from_json(NET, data)


def test_the_hand_written_files_change_what_they_claim_to():
    for name, data in FILES.items():
        assert data != COMPACT, name


def test_labels_with_brackets_quotes_and_non_ascii_round_trip():
    # Labels that JSON escapes: brackets and quotes, non-ASCII, a control
    # character, DEL and a non-BMP character (a surrogate pair).  "s_1" and
    # "s_1!" order one way as labels and the other way inside edge labels,
    # since "," sorts after "!".
    field = PrimeField(3)
    nodes = [
        Node("s[1,2]", "source"),
        Node('s"2\\', "source"),
        Node("s\x01\x7f\U0001f600", "source"),
        Node("s_1!", "source"),
        Node("s_1", "source"),
        Node("v [3] ü", "intermediate"),
        Node('t"[1,2]"✓', "terminal"),
    ]
    names = [n.label for n in nodes]
    v, t = names[-2], names[-1]
    edges = [Edge(s, v) for s in names[:-2]] + [Edge(v, t)]
    net = SumNetwork(nodes, edges)
    one = Mat(field, np.ones((1, 1), dtype=np.int64))
    code = FracLinCode(net, 1, 1, field, dict.fromkeys(range(5), one), {5: (one,) * 5}, {t: (one,)})
    assert verify(net, code).ok
    data = _check_code(code)
    assert b"[1,2]" in data and b"\\u00fc" in data
    assert b"\\u0001\\u007f\\ud83d\\ude00" in data
    assert data.index(b'"(s_1!,v') < data.index(b'"(s_1,v')
    loaded = code_from_json(net, data)
    assert verify(net, loaded).ok
    assert all(m is loaded.src_mats[0] for m in [*loaded.src_mats.values(), *loaded.in_mats[5]])


# --- the edge section read by position ----------------------------------------------------


def _edited(data: bytes, seed: int, count: int) -> dict[str, bytes]:
    """data with one byte at a seeded position of its edge section flipped,
    inserted or deleted, for each of count positions."""
    rng = np.random.default_rng(seed)
    end = data.index(b'},"l":') + 2
    out = {}
    for at in sorted(rng.choice(end, size=min(count, end), replace=False).tolist()):
        byte = EDIT_BYTES[int(rng.integers(len(EDIT_BYTES)))]
        out[f"flip {at} to {byte!r}"] = data[:at] + byte + data[at + 1 :]
        out[f"insert {byte!r} at {at}"] = data[:at] + byte + data[at:]
        out[f"delete {at}"] = data[:at] + data[at + 1 :]
    return out


def _escaped_code() -> FracLinCode:
    """A code on a network whose labels JSON escapes, and with pars past
    one digit: its keys are read by position too."""
    field = PrimeField(3)
    labels = ['s"1', "s\\2", "s\x013", "s_ü", "s_1", "s_10"]
    nodes = [Node(x, "source") for x in labels] + [Node("v", "intermediate"), Node("t", "terminal")]
    edges = [Edge(x, "v", p) for x in labels for p in (10, -1)] + [Edge("v", "t", 9)]
    net = SumNetwork(nodes, edges)
    one = Mat(field, np.ones((1, 1), dtype=np.int64))
    two = Mat(field, np.full((1, 1), 2, dtype=np.int64))
    n = len(edges) - 1
    src = {e: (one, two)[e % 2] for e in range(n)}
    return FracLinCode(net, 1, 1, field, src, {n: (one, two) * (n // 2)}, {"t": (one,)})


ESCAPED = _escaped_code()
MERGED = scheme_merged("n1", 2, 2, 2, 2)
EDITED = {
    f"{name}: {edit}": (net, data)
    for seed, (name, net, data) in enumerate(
        [
            ("n1(1,2)", NET, COMPACT),
            ("n1(2,2) x 2", MERGED.net, code_to_json(MERGED)),
            ("escaped labels", ESCAPED.net, code_to_json(ESCAPED)),
        ]
    )
    for edit, data in _edited(data, seed, 40).items()
}


@pytest.mark.parametrize("name", sorted(EDITED))
def test_edited_edge_sections_read_as_the_reference_reads_them(name):
    assert_reads_as_reference(*EDITED[name])


def test_escaped_labels_and_long_pars_are_read_by_position():
    assert b'"(s\\"1,v,-1)"' in _check_code(ESCAPED)


def _two_edges():
    nodes = [Node("s", "source"), Node("v", "intermediate"), Node("t", "terminal")]
    return SumNetwork(nodes, [Edge("s", "v"), Edge("v", "t")])


TWO = _two_edges()
TWO_DOC = {
    "version": 1, "r": 1, "l": 1, "p": 2,
    "edge_matrices": {"(s,v,0)": [1], "(v,t,0)": [[1]]}, "terminal_matrices": {"t": [[1]]},
}
TWO_FILE = json.dumps(TWO_DOC, sort_keys=True, separators=(",", ":")).encode()
SECTION = b'"(s,v,0)":[1],"(v,t,0)":[[1]]},'
LAYOUTS = {
    "as written": TWO_FILE,
    "keys out of order": TWO_FILE.replace(SECTION, b'"(v,t,0)":[[1]],"(s,v,0)":[1]},'),
    "a key too many": TWO_FILE.replace(SECTION, SECTION[:-2] + b',"(x,y,0)":[1]},'),
    "a key missing": TWO_FILE.replace(SECTION, b'"(s,v,0)":[1]},'),
    "a key repeated": TWO_FILE.replace(SECTION, b'"(s,v,0)":[0],' + SECTION),
    "space before a value": TWO_FILE.replace(b'"(s,v,0)":[1]', b'"(s,v,0)": [1]'),
    "space before the section closes": TWO_FILE.replace(SECTION, SECTION[:-2] + b" },"),
    "a number for a matrix": TWO_FILE.replace(b'"(s,v,0)":[1]', b'"(s,v,0)":1'),
    # Every distinct value a bare integer: the list of them, appended to
    # the cut text, is itself an all-integer array.
    "a number for every matrix": TWO_FILE.replace(SECTION, b'"(s,v,0)":0,"(v,t,0)":5},'),
    "two values in one": TWO_FILE.replace(b'"(s,v,0)":[1]', b'"(s,v,0)":[1],[1]'),
    # Neither value alone is a JSON value, yet the cut text parses as a
    # list of two: the first closes what the rest leaves open, and the
    # second opens what follows.
    "values that close the rest": (
        b'{"edge_matrices":{"(s,v,0)":1]]},"(v,t,0)":[5,6},"l":[10'
    ),
    "a later equal section": TWO_FILE.replace(
        b'"version":1}', b'"version":1,"edge_matrices":' + json.dumps(TWO_DOC["edge_matrices"]).encode() + b"}"
    ),
    "a later empty section": TWO_FILE.replace(b'"version":1}', b'"version":1,"edge_matrices":{}}'),
    "a later escaped section": TWO_FILE.replace(
        b'"version":1}', b'"version":1,"edge\\u005fmatrices":{}}'
    ),
    "a later string with an escape": TWO_FILE.replace(b'"version":1}', b'"version":1,"x\\u005f":0}'),
    "a string naming the section": TWO_FILE.replace(b'"version":1}', b'"version":1,"x":"edge_matrices"}'),
    "an int past the digit limit": TWO_FILE.replace(b'"version":1}', b'"version":1,"x":' + b"9" * 5000 + b"}"),
    "deep after the section": TWO_FILE.replace(b'"version":1}', b'"version":1,"x":' + b"[" * 100_000),
    "only the section": TWO_FILE[: TWO_FILE.index(SECTION) + len(SECTION) - 1] + b"}",
    "trailing data": TWO_FILE + b"[1]",
}


# Cut by position: each value text alone is one JSON value.
BY_POSITION = {
    "as written", "a number for a matrix", "space before a value", "space before the section closes",
    "a later string with an escape",
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_files_in_another_layout_read_as_the_reference_reads_them(name):
    data = LAYOUTS[name]
    assert _read_by_position(TWO, data) == (name in BY_POSITION)
    if name == "deep after the section":
        with pytest.raises(CodeFormatError, match="^not valid JSON: the code file nests deeper"):
            code_from_json(TWO, data)
    else:
        assert_reads_as_reference(TWO, data)


def test_an_int_past_the_digit_limit_is_refused_as_not_valid_json():
    data = COMPACT.replace(LAST_KEY, b'"x":' + b"9" * 5000 + b"," + LAST_KEY)
    with pytest.raises(CodeFormatError, match=r"^not valid JSON: Exceeds the limit \(4300 digits\)"):
        code_from_json(NET, data)


# --- the key order -----------------------------------------------------------------------------


def _net(labels: list[str], pars=(0,), repeat: int = 1) -> SumNetwork:
    """Every ordered pair of labels joined by one edge per par, each edge
    `repeat` times, over nodes that carry these labels (a label given
    twice is two nodes)."""
    nodes = [Node(x, "intermediate") for x in labels]
    ends = sorted(set(labels))
    edges = [Edge(a, b, p) for a in ends for b in ends if a != b for p in pars] * repeat
    return SumNetwork(nodes, edges)


KEY_ORDER = {
    "plus, comma, space, empty": _net(["a", "a+", "a,b", "a b", ""]),
    "comma-free": _net(["a", "a+", "a b", "", "a-", "a!"]),
    "prefixes": _net(["s_1", "s_10", "s_1_0", "s_", "s"]),
    "pars 9, 10, -1": _net(["a", "b"], (9, 10, -1, 0, 1, -10)),
    "pars past int32": _net(["a", "b"], (2**40, -(2**40), 3, 2**31, -(2**31) - 1)),
    "repeated edges": _net(["a", "b", "c"], (0, 1), repeat=3),
    "repeated node labels": _net(["a", "b", "a", "c", "b"]),
    "repeated labels with commas": SumNetwork(
        [Node(x, "intermediate") for x in ["a,b", "c", "a", "b,c", "d"]],
        [Edge("a,b", "c"), Edge("a", "b,c"), Edge("a", "d"), Edge("a,b", "c"), Edge("d", "a")],
    ),
    "escaped": _net(['s"', "s\\", "s\x01", "sü", "s"]),
}


@pytest.mark.parametrize("name", sorted(KEY_ORDER))
def test_the_key_order_is_the_sorted_edge_labels(name):
    net = KEY_ORDER[name]
    order, where, columns = _edge_keys(net)
    keys = [json.loads(f'"{"".join(row)}"') for row in zip(*columns)]
    labels = net.edge_labels()
    last = dict(zip(labels, range(len(labels))))  # a repeated label keeps its last edge
    assert keys == sorted(last)
    assert order.tolist() == [last[k] for k in keys]
    assert [keys[k] for k in where.tolist()] == labels
    if name == "pars past int32":
        assert net.par.dtype == object
