import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from sumnets import cli, constructions
from sumnets.analysis import MODES
from sumnets.cli import main
from sumnets.network import deserialize


def run(*argv):
    return main(list(argv))


def _one_line_error(capsys, *names):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    for name in names:
        assert name in err


@pytest.fixture()
def built_n1(tmp_path):
    out = tmp_path / "n1.json"
    assert run("build", "--family", "n1", "--m", "2", "--q", "2", "--out", str(out)) == 0
    return out


def test_build_writes_network_and_manifest(built_n1):
    net = deserialize(built_n1.read_bytes())
    assert len(net.sources) == 11
    manifest = json.loads((built_n1.parent / "n1.json.manifest.json").read_text())
    assert manifest["family"] == "n1"
    assert (manifest["capacity_num"], manifest["capacity_den"]) == (2, 3)


def test_build_family_two_terminal_count(tmp_path):
    out = tmp_path / "n2.json"
    assert run("build", "--family", "n2", "--m", "2", "--q", "2", "--out", str(out)) == 0
    net = deserialize(out.read_bytes())
    assert len(net.terminals) == 12


def test_build_rate_target_manifest(tmp_path):
    out = tmp_path / "merged.json"
    assert (
        run("build", "--rate", "3/5", "--primes", "2", "--mode", "in-set", "--out", str(out)) == 0
    )
    manifest = json.loads((tmp_path / "merged.json.manifest.json").read_text())
    assert (manifest["m"], manifest["q"], manifest["k"]) == (9, 2, 3)
    assert (manifest["capacity_num"], manifest["capacity_den"]) == (3, 5)


def test_build_with_dot(tmp_path):
    out = tmp_path / "n1.json"
    assert run("build", "--family", "n1", "--m", "1", "--q", "2", "--dot", "--out", str(out)) == 0
    assert (tmp_path / "n1.dot").read_text().startswith("digraph")


def test_build_usage_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert run("build", "--family", "n1", "--m", "0", "--q", "2", "--out", out) == 2
    assert run("build", "--rate", "1/2", "--out", out) == 2
    assert run("build", "--out", out) == 2


def test_scheme_verify_round_trip(built_n1, tmp_path):
    code = tmp_path / "code.json"
    assert run("scheme", "--net", str(built_n1), "--p", "2", "--out", str(code)) == 0
    assert run("verify", "--net", str(built_n1), "--code", str(code)) == 0


def test_scheme_refusal_exits_one(built_n1, tmp_path, capsys):
    code = tmp_path / "code.json"
    assert run("scheme", "--net", str(built_n1), "--p", "3", "--out", str(code)) == 1
    assert "characteristic" in capsys.readouterr().out
    assert not code.exists()


def test_scheme_rejects_non_prime_p(built_n1, tmp_path):
    assert run("scheme", "--net", str(built_n1), "--p", "4", "--out", str(tmp_path / "c.json")) == 2


def test_verify_tampered_code_exits_one(built_n1, tmp_path, capsys):
    code = tmp_path / "code.json"
    run("scheme", "--net", str(built_n1), "--p", "2", "--out", str(code))
    doc = json.loads(code.read_text())
    label = sorted(doc["terminal_matrices"])[0]
    doc["terminal_matrices"][label] = [
        [0] * len(flat) for flat in doc["terminal_matrices"][label]
    ]
    code.write_text(json.dumps(doc))
    capsys.readouterr()  # discard the scheme command's output
    assert run("verify", "--net", str(built_n1), "--code", str(code), "--json") == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False
    assert out["first_failed"]


@pytest.mark.parametrize("json_out", [True, False])
def test_verify_reports_residual_rank_of_a_corrupted_decoder(built_n1, tmp_path, capsys, json_out):
    code = tmp_path / "code.json"
    run("scheme", "--net", str(built_n1), "--p", "2", "--out", str(code))
    doc = json.loads(code.read_text())
    doc["terminal_matrices"]["t_1"][0][0] ^= 1  # one entry of one decoder, over GF(2)
    code.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["verify", "--net", str(built_n1), "--code", str(code)] + (["--json"] if json_out else [])
    assert run(*argv) == 1
    out = capsys.readouterr().out
    if json_out:
        report = json.loads(out)
        assert report["failing_terminals"] == ["t_1"]
        assert report["residual_ranks"] == {"t_1": 1}
    else:
        assert out.endswith("first failing terminal: t_1\nresidual rank of t_1: 1\n")


def test_search_exhaustive_on_bottleneck(tmp_path, capsys):
    from sumnets.constructions import build_bottleneck2
    from sumnets.network import serialize

    net_path = tmp_path / "b2.json"
    net_path.write_bytes(serialize(build_bottleneck2()))
    out = tmp_path / "results.json"
    rc = run(
        "search", "--net", str(net_path), "--r", "1", "--l", "1", "--p", "3",
        "--exhaustive", "--out", str(out),
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["tried"] == 9
    assert doc["found"] == 2
    assert len(doc["codes"]) == 2
    assert doc["rejected_at"] == {"t_1": 7}


def test_search_random_none_found_exits_one(built_n1, tmp_path):
    rc = run(
        "search", "--net", str(built_n1), "--r", "2", "--l", "3", "--p", "3",
        "--random", "50", "--seed", "7",
    )
    assert rc == 1


def test_search_random_requires_seed(built_n1):
    assert run("search", "--net", str(built_n1), "--r", "2", "--l", "3", "--p", "3",
               "--random", "5") == 2


def test_bounds_without_code(built_n1, capsys):
    assert run("bounds", "--net", str(built_n1)) == 0
    out = capsys.readouterr().out
    assert "capacity: 2/3" in out
    assert "6/11" in out


def test_bounds_with_code_appends_certificate(built_n1, tmp_path, capsys):
    code = tmp_path / "code.json"
    run("scheme", "--net", str(built_n1), "--p", "2", "--out", str(code))
    assert run("bounds", "--net", str(built_n1), "--code", str(code)) == 0
    out = capsys.readouterr().out
    assert "rank of stacked recovery map: 22" in out
    assert "certificate: PASS" in out


def test_bounds_on_a_code_that_does_not_verify_exits_1(tmp_path, capsys):
    net, code = tmp_path / "n.json", tmp_path / "code.json"
    assert run("build", "--family", "n1", "--m", "1", "--q", "2", "--out", str(net)) == 0
    assert run("scheme", "--net", str(net), "--p", "2", "--out", str(code)) == 0
    doc = json.loads(code.read_text())
    doc["terminal_matrices"]["t_1"][0][0] ^= 1  # one entry of one decoder, over GF(2)
    code.write_text(json.dumps(doc))
    assert run("verify", "--net", str(net), "--code", str(code)) == 1
    capsys.readouterr()
    assert run("bounds", "--net", str(net), "--code", str(code)) == 1
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and "verifying code" in captured.out
    assert captured.err == ""


def test_bounds_with_a_mode_that_does_not_apply_is_usage_error(built_n1, tmp_path, capsys):
    code = tmp_path / "code.json"
    assert run("scheme", "--net", str(built_n1), "--p", "2", "--out", str(code)) == 0
    capsys.readouterr()
    argv = ["bounds", "--net", str(built_n1), "--code", str(code), "--mode", "n2-middle-only"]
    assert run(*argv) == 2
    _one_line_error(capsys, "does not apply")


def test_bounds_in_group_mode_on_a_network_of_m_sources_is_usage_error(tmp_path, capsys):
    from sumnets.analysis import routing_code
    from sumnets.coding import code_to_json
    from sumnets.network import INTERMEDIATE, SOURCE, TERMINAL, Edge, Node, SumNetwork, serialize

    js = (1, 2, 3)
    net = SumNetwork(
        [Node("s_1", SOURCE), Node("t_1", TERMINAL)]
        + [Node(f"{x}_1_{j}", INTERMEDIATE) for x in ("u", "v") for j in js],
        [Edge("s_1", f"u_1_{j}") for j in js]
        + [Edge(f"u_1_{j}", f"v_1_{j}") for j in js]
        + [Edge(f"v_1_{j}", "t_1") for j in js],
    )
    net_path, code_path = tmp_path / "n.json", tmp_path / "code.json"
    net_path.write_bytes(serialize(net))
    code_path.write_bytes(code_to_json(routing_code(net, 2)))
    manifest = {"family": "n1", "m": 1, "q": 2, "k": 1}
    (tmp_path / "n.json.manifest.json").write_text(json.dumps(manifest))
    argv = ["bounds", "--net", str(net_path), "--code", str(code_path), "--mode", "n1-with-groups"]
    assert run(*argv) == 2
    _one_line_error(capsys, "m=1", "has 1")


def test_bounds_family_two_closed_form(tmp_path, capsys):
    out = tmp_path / "n2.json"
    run("build", "--family", "n2", "--m", "3", "--q", "2", "--out", str(out))
    assert run("bounds", "--net", str(out)) == 0
    text = capsys.readouterr().out
    assert "capacity: 1/2" in text
    assert "3/7" in text


def test_missing_manifest_is_usage_error(tmp_path):
    from sumnets.constructions import build_n1
    from sumnets.network import serialize

    bare = tmp_path / "bare.json"
    bare.write_bytes(serialize(build_n1(1, 2)))
    assert run("scheme", "--net", str(bare), "--p", "2", "--out", str(tmp_path / "c.json")) == 2


def test_build_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("build", "--family", "n2", "--m", "2", "--q", "3", "--k", "2", "--out", str(a))
    run("build", "--family", "n2", "--m", "2", "--q", "3", "--k", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["scheme", "bounds"])
@pytest.mark.parametrize("key", ["family", "m", "q", "k"])
def test_manifest_missing_key_is_usage_error(built_n1, tmp_path, capsys, command, key):
    manifest = built_n1.parent / "n1.json.manifest.json"
    doc = json.loads(manifest.read_text())
    del doc[key]
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    extra = ["--p", "2", "--out", str(tmp_path / "c.json")] if command == "scheme" else []
    assert run(command, "--net", str(built_n1), *extra) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert repr(key) in err


@pytest.mark.parametrize("command", ["scheme", "bounds"])
@pytest.mark.parametrize("key", ["m", "q", "k"])
def test_manifest_non_integer_is_usage_error(built_n1, tmp_path, capsys, command, key):
    manifest = built_n1.parent / "n1.json.manifest.json"
    doc = json.loads(manifest.read_text())
    doc[key] = "2"
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    extra = ["--p", "2", "--out", str(tmp_path / "c.json")] if command == "scheme" else []
    assert run(command, "--net", str(built_n1), *extra) == 2
    _one_line_error(capsys, repr(key))


@pytest.mark.parametrize("command", ["scheme", "bounds"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"{", "is not valid JSON"),
        (b"\xff", "is not valid JSON"),
        (b"[1]", "must be a JSON object"),
        pytest.param(b"[" * 100_000, "is not valid JSON", id="nested-past-the-recursion-limit"),
    ],
)
def test_malformed_manifest_names_itself(tmp_path, capsys, command, content, message):
    net = tmp_path / "n.json"
    assert run("build", "--family", "n1", "--m", "1", "--q", "2", "--out", str(net)) == 0
    manifest = tmp_path / "n.json.manifest.json"
    manifest.write_bytes(content)
    capsys.readouterr()
    extra = ["--p", "2", "--out", str(tmp_path / "c.json")] if command == "scheme" else []
    assert run(command, "--net", str(net), *extra) == 2
    _one_line_error(capsys, f"manifest {manifest} {message}")


@pytest.mark.parametrize("spoil", ["manifest-q", "manifest-q3", "manifest-huge-k", "reversed-in-order"])
def test_scheme_refuses_a_network_its_manifest_does_not_build(
    built_n1, tmp_path, capsys, monkeypatch, spoil
):
    if spoil.startswith("manifest"):
        manifest = built_n1.parent / "n1.json.manifest.json"
        doc = json.loads(manifest.read_text())
        if spoil == "manifest-q":
            doc["q"] = 4  # n1(2, 4) has a scheme over GF(2), on another network
        elif spoil == "manifest-q3":
            doc["q"] = 3  # n1(2, 3) has none over GF(2): refused, were it the file's network
        else:
            doc["k"] = 10**6  # refused on the counts, with no build

            def no_build(*args):
                raise AssertionError("a network was built for a manifest the counts refuse")

            monkeypatch.setattr(constructions, "_build_family", no_build)
        manifest.write_text(json.dumps(doc))
    else:
        doc = json.loads(built_n1.read_text())
        doc["in_order"]["t_1"].reverse()
        built_n1.write_text(json.dumps(doc))
    capsys.readouterr()
    code = tmp_path / "c.json"
    assert run("scheme", "--net", str(built_n1), "--p", "2", "--out", str(code)) == 2
    _one_line_error(capsys, "does not match its manifest")
    assert not code.exists()


def test_unreadable_code_path_is_usage_error(built_n1, tmp_path, capsys):
    capsys.readouterr()
    assert run("verify", "--net", str(built_n1), "--code", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert run("verify", "--net", str(built_n1), "--code", str(tmp_path / "absent.json")) == 2


@pytest.mark.parametrize("old, new", [(b'"tail":"s_1"', b'"tail":"nowhere"'), (b'"in_order":{', b'"in_order":{"ghost":[],')])
def test_verify_dangling_reference_is_usage_error(built_n1, tmp_path, capsys, old, new):
    code = tmp_path / "code.json"
    assert run("scheme", "--net", str(built_n1), "--p", "2", "--out", str(code)) == 0
    data = built_n1.read_bytes()
    assert old in data
    built_n1.write_bytes(data.replace(old, new, 1))
    capsys.readouterr()
    assert run("verify", "--net", str(built_n1), "--code", str(code)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("file, name", [("code", "code file"), ("net", "network file")])
def test_verify_json_nested_past_the_recursion_limit_is_usage_error(tmp_path, capsys, file, name):
    paths = {"net": tmp_path / "n1.json", "code": tmp_path / "code.json"}
    assert run("build", "--family", "n1", "--m", "1", "--q", "2", "--out", str(paths["net"])) == 0
    assert run("scheme", "--net", str(paths["net"]), "--p", "2", "--out", str(paths["code"])) == 0
    paths[file].write_bytes(b"[" * 100_000)
    capsys.readouterr()
    assert run("verify", "--net", str(paths["net"]), "--code", str(paths["code"])) == 2
    _one_line_error(capsys, name)


ENTRY = ("edge_matrices", "(s_1,u_1_1,0)", 0)


@pytest.mark.parametrize(
    "path, value, name",
    [
        (ENTRY, 2**70, "(s_1,u_1_1,0)"),
        (ENTRY, 2**63, "(s_1,u_1_1,0)"),
        (("edge_matrices",), 5, "'edge_matrices'"),
        (("edge_matrices",), None, "'edge_matrices'"),
        (("terminal_matrices",), 5, "'terminal_matrices'"),
        (("p",), 2**61 - 1, "'p'"),
    ],
    ids=["entry-2^70", "entry-2^63", "edge_matrices-5", "edge_matrices-null",
         "terminal_matrices-5", "p-2^61-1"],
)
def test_verify_malformed_code_field_is_usage_error(tmp_path, capsys, path, value, name):
    net, code = tmp_path / "n1.json", tmp_path / "code.json"
    assert run("build", "--family", "n1", "--m", "1", "--q", "2", "--out", str(net)) == 0
    assert run("scheme", "--net", str(net), "--p", "2", "--out", str(code)) == 0
    doc = json.loads(code.read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    code.write_text(json.dumps(doc))
    capsys.readouterr()
    started = time.perf_counter()
    assert run("verify", "--net", str(net), "--code", str(code)) == 2
    assert time.perf_counter() - started < 1
    _one_line_error(capsys, name)


HUGE_PRIME = str(2**61 - 1)


def test_search_huge_modulus_is_usage_error_at_once(built_n1, capsys):
    capsys.readouterr()
    started = time.perf_counter()
    argv = ["search", "--net", str(built_n1), "--r", "2", "--l", "3", "--p", HUGE_PRIME]
    assert run(*argv, "--random", "1", "--seed", "0") == 2
    assert time.perf_counter() - started < 1
    _one_line_error(capsys, "p=" + HUGE_PRIME)


def test_build_rate_huge_prime_is_usage_error_at_once(tmp_path, capsys):
    out = tmp_path / "x.json"
    started = time.perf_counter()
    argv = ["build", "--rate", "1/1", "--primes", HUGE_PRIME, "--mode", "in-set", "--out", str(out)]
    assert run(*argv) == 2
    assert time.perf_counter() - started < 1
    _one_line_error(capsys, "p=" + HUGE_PRIME)
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, name",
    [
        (
            ["--rate", "1/1", "--primes", str(2**31 - 1), "--mode", "in-set"],
            "m=1, q=2147483647, k=1",
        ),
        (["--family", "n1", "--m", "100000", "--q", "2"], "m=100000, q=2, k=1"),
    ],
    ids=["q-2^31-1", "m-100000"],
)
def test_build_past_the_edge_ceiling_is_usage_error_at_once(tmp_path, capsys, flags, name):
    out = tmp_path / "x.json"
    started = time.perf_counter()
    assert run("build", *flags, "--out", str(out)) == 2
    assert time.perf_counter() - started < 1
    _one_line_error(capsys, name, "edge build ceiling")
    assert not out.exists()


def test_build_k_zero_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run("build", "--family", "n1", "--m", "1", "--q", "2", "--k", "0", "--out", str(out)) == 2
    _one_line_error(capsys, "k must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--r", "0", "--l", "3", "--random", "5", "--seed", "1"], "r must be >= 1"),
        (["--r", "-1", "--l", "3", "--random", "5", "--seed", "1"], "r must be >= 1"),
        (["--r", "2", "--l", "-2", "--random", "5", "--seed", "1"], "l must be >= 1"),
        (["--r", "0", "--l", "3", "--exhaustive"], "r must be >= 1"),
        (["--r", "2", "--l", "3", "--random", "-3", "--seed", "1"], "n must be >= 1"),
        (["--r", "2", "--l", "3", "--random", "0", "--seed", "1"], "n must be >= 1"),
        (["--r", "2", "--l", "3", "--random", "5", "--seed", "-1"], "seed must be >= 0"),
        (["--r", "100000", "--l", "3", "--random", "1", "--seed", "0"], "r=100000, l=3"),
        (["--r", "2", "--l", "100000", "--random", "1", "--seed", "0"], "r=2, l=100000"),
    ],
)
def test_search_out_of_range_number_is_usage_error(built_n1, capsys, flags, name):
    capsys.readouterr()
    started = time.perf_counter()
    assert run("search", "--net", str(built_n1), "--p", "3", *flags) == 2
    assert time.perf_counter() - started < 1
    _one_line_error(capsys, name)


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--m", "0", "--q", "2"], "m must be >= 1"),
        (["--m", "-1", "--q", "2"], "m must be >= 1"),
        (["--m", "1", "--q", "0"], "q must be >= 2"),
    ],
)
def test_build_out_of_range_family_parameter_is_usage_error(tmp_path, capsys, flags, name):
    out = tmp_path / "x.json"
    assert run("build", "--family", "n1", *flags, "--out", str(out)) == 2
    _one_line_error(capsys, name)
    assert not out.exists()


def test_build_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(constructions, "_build_family", exhausted)
    out = tmp_path / "x.json"
    assert run("build", "--family", "n1", "--m", "2", "--q", "2", "--out", str(out)) == 2
    _one_line_error(capsys, "build", "out of memory")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, target",
    [("scheme", "scheme"), ("verify", "verify"), ("search", "search"), ("bounds", "bound_check")],
)
def test_out_of_memory_names_its_subcommand(
    built_n1, tmp_path, capsys, monkeypatch, command, target
):
    code = tmp_path / "c.json"
    assert run("scheme", "--net", str(built_n1), "--p", "2", "--out", str(code)) == 0
    capsys.readouterr()

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    out = tmp_path / "out.json"
    argv = {
        "scheme": ["--p", "2", "--out", str(out)],
        "verify": ["--code", str(code)],
        "search": [
            "--r", "1", "--l", "1", "--p", "2", "--random", "1", "--seed", "0", "--out", str(out)
        ],
        "bounds": ["--code", str(code)],
    }[command]
    assert run(command, "--net", str(built_n1), *argv) == 2
    _one_line_error(capsys, f"{command}: out of memory")
    assert not out.exists()


def test_build_rate_excludes_zero_family_parameter(tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["build", "--rate", "1/2", "--primes", "2", "--mode", "in-set", "--m", "0"]
    assert run(*argv, "--out", str(out)) == 2
    _one_line_error(capsys, "--rate excludes")
    assert not out.exists()


@pytest.mark.parametrize("old, new, name", [("u_1_1", "uA", "'uA'"), ("s_1_1", "sA", "'s_1_1'")])
def test_bounds_on_relabelled_network_is_usage_error(tmp_path, capsys, old, new, name):
    net, code = tmp_path / "n2.json", tmp_path / "code.json"
    assert run("build", "--family", "n2", "--m", "1", "--q", "2", "--out", str(net)) == 0
    assert run("scheme", "--net", str(net), "--p", "3", "--out", str(code)) == 0
    for path in (net, code):
        path.write_text(path.read_text().replace(old, new))
    assert run("verify", "--net", str(net), "--code", str(code)) == 0
    capsys.readouterr()
    assert run("bounds", "--net", str(net), "--code", str(code), "--mode", "n2-redundancy") == 2
    _one_line_error(capsys, name)


def _in_order_index_as_true(doc):
    order = next(order for order in doc["in_order"].values() if 1 in order)
    order[order.index(1)] = True


@pytest.mark.parametrize(
    "file, mutate, name",
    [
        ("net", lambda d: d.update(version=True), "'version'"),
        ("net", lambda d: d["edges"][0].update(par=True), "edges[0].par"),
        ("net", lambda d: d["edges"][0].update(par=False), "edges[0].par"),
        ("net", _in_order_index_as_true, "in_order["),
        ("code", lambda d: d.update(version=True), "version"),
        ("code", lambda d: d.update(version=1.0), "version"),
    ],
    ids=["net-version-true", "net-par-true", "net-par-false", "net-in_order-true",
         "code-version-true", "code-version-1.0"],
)
def test_verify_boolean_or_float_for_an_integer_is_usage_error(tmp_path, capsys, file, mutate, name):
    paths = {"net": tmp_path / "n1.json", "code": tmp_path / "code.json"}
    assert run("build", "--family", "n1", "--m", "1", "--q", "2", "--out", str(paths["net"])) == 0
    assert run("scheme", "--net", str(paths["net"]), "--p", "2", "--out", str(paths["code"])) == 0
    doc = json.loads(paths[file].read_text())
    mutate(doc)
    paths[file].write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--net", str(paths["net"]), "--code", str(paths["code"])) == 2
    _one_line_error(capsys, name)


# --- argument fuzz -------------------------------------------------------------------

SMALL = st.integers(-2, 4)  # m, q, k, r and l
COUNT = st.integers(-1, 50)  # counts, budgets and seeds
MODULI = st.sampled_from([-3, 0, 1, 2, 3, 4, 2**31 - 1, 2**31, 2**61])
JUNK = st.text(max_size=4)


@st.composite
def _argv(draw, net, code, out):
    """One subcommand on the n1(1,2) files, with small drawn values.  One
    run in four makes one value junk, and one in four drops one flag."""
    command = draw(st.sampled_from(["build", "scheme", "verify", "search", "bounds"]))
    if command == "build":
        if draw(st.booleans()):
            n1_or_n2 = st.sampled_from(["n1", "n2"])
            flags = [("--family", draw(n1_or_n2)), ("--m", draw(SMALL)), ("--q", draw(SMALL))]
            flags += [("--k", draw(SMALL))] if draw(st.booleans()) else []
        else:
            primes = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2))
            flags = [
                ("--rate", f"{draw(SMALL)}/{draw(st.integers(-2, 2))}"),
                ("--primes", ",".join(map(str, primes))),
                ("--mode", draw(st.sampled_from(["in-set", "not-in-set"]))),
            ]
        flags.append(("--out", out))
    elif command == "scheme":
        flags = [("--net", net), ("--p", draw(MODULI)), ("--out", out)]
    elif command == "verify":
        flags = [("--net", net), ("--code", code)]
    elif command == "search":
        flags = [("--net", net), ("--r", draw(SMALL)), ("--l", draw(SMALL)), ("--p", draw(MODULI))]
        if draw(st.booleans()):
            flags += [("--exhaustive", None), ("--budget", draw(COUNT))]
        else:
            flags += [("--random", draw(COUNT)), ("--seed", draw(COUNT))]
        flags += [("--out", out)] if draw(st.booleans()) else []
    else:
        flags = [("--net", net), ("--code", code)]
        flags += [("--mode", draw(st.sampled_from(MODES)))] if draw(st.booleans()) else []
    values = [i for i, (_, v) in enumerate(flags) if v is not None and v not in (net, code, out)]
    if values and draw(st.integers(0, 3)) == 0:
        i = draw(st.sampled_from(values))
        flags[i] = (flags[i][0], draw(JUNK))
    if draw(st.integers(0, 3)) == 0:
        del flags[draw(st.integers(0, len(flags) - 1))]
    argv = [command]
    for flag, value in flags:
        argv += [flag] if value is None else [flag, str(value)]
    return argv


@pytest.fixture(scope="module")
def n1_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    net, code = tmp / "n.json", tmp / "c.json"
    assert run("build", "--family", "n1", "--m", "1", "--q", "2", "--out", str(net)) == 0
    assert run("scheme", "--net", str(net), "--p", "2", "--out", str(code)) == 0
    return str(net), str(code), str(tmp / "out.json")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_fuzzed_arguments_exit_0_1_or_2_with_one_line(n1_files, data):
    """Every subcommand, with drawn arguments: each run exits 0, 1 or 2,
    prints no traceback, and an exit 2 prints exactly one line on stderr."""
    argv = data.draw(_argv(*n1_files))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            status = exc.code
    text = err.getvalue()
    assert status in (0, 1, 2) and "Traceback" not in text, (argv, text)
    if status == 2:
        assert text.endswith("\n") and text.count("\n") == 1, (argv, text)
