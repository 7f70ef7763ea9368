"""Fuzzed code and network documents: every mutation of one field, section
or matrix entry of a valid document either loads (and the loaded object
then verifies or validates without raising) or is refused with the
format error that the CLI turns into exit code 2.  A network document is
also read by the reference reader in test_network, which must load it or
refuse it the same way."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from sumnets.cli import main

from sumnets.coding import CodeFormatError, code_from_json, code_to_json, scheme, verify
from sumnets.constructions import build_n1
from sumnets.network import NetworkFormatError, deserialize, serialize, validate

from test_network import assert_reads_as_reference

CODE = scheme(build_n1(1, 2), "n1", 1, 2, 2)
NET = CODE.net
CODE_DOC = json.loads(code_to_json(CODE))
NET_DOC = json.loads(serialize(NET))

JUNK = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([-1, 0, 2**31 - 1, 2**61 - 1, 2**63 - 1, 2**63, -(2**63) - 1]),
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-2, 2), max_size=4),
    st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _paths(doc, prefix=()):
    """The path to every value inside doc (dict keys and list indices)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutants(doc):
    """doc with the value at one path replaced by junk, or removed."""
    paths = sorted(_paths(doc), key=repr)

    @st.composite
    def mutant(draw):
        path = draw(st.sampled_from(paths))
        out = json.loads(json.dumps(doc))
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JUNK)
        return json.dumps(out).encode()

    return mutant()


@FUZZ
@given(_mutants(CODE_DOC))
def test_fuzzed_code_document_loads_or_is_refused(data):
    try:
        code = code_from_json(NET, data)
    except CodeFormatError:
        return
    verify(NET, code)


@FUZZ
@given(_mutants(NET_DOC))
def test_fuzzed_network_document_loads_or_is_refused(data):
    assert_reads_as_reference(data)
    try:
        net = deserialize(data)
    except NetworkFormatError:
        return
    validate(net)


# --- through the command line -------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@FUZZ
@given(st.one_of(
    st.tuples(_mutants(NET_DOC), st.just(code_to_json(CODE))),
    st.tuples(st.just(serialize(NET)), _mutants(CODE_DOC)),
))
def test_fuzzed_files_through_the_cli_exit_0_1_or_2_with_one_line(files):
    """A mutated network file or code file, run through `verify` and
    `bounds`: every run exits 0, 1 or 2, and an exit 2 prints exactly one
    line on stderr, with no traceback."""
    net_bytes, code_bytes = files
    with tempfile.TemporaryDirectory() as tmp:
        net_path, code_path = Path(tmp, "n.json"), Path(tmp, "c.json")
        net_path.write_bytes(net_bytes)
        code_path.write_bytes(code_bytes)
        manifest = {"family": "n1", "m": 1, "q": 2, "k": 1}
        Path(tmp, "n.json.manifest.json").write_text(json.dumps(manifest))
        for command in ("verify", "bounds"):
            status, err = _run_cli([command, "--net", str(net_path), "--code", str(code_path)])
            assert status in (0, 1, 2)
            if status == 2:
                assert err.endswith("\n") and err.count("\n") == 1, err
                assert "Traceback" not in err
