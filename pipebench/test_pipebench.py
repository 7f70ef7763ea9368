"""Tests of the benchmark itself: known answers, failure detection,
tracing counts, the bare-directory refusal and the compare verdicts.

  python3 -m pytest -q pipebench

Workers run in-process here (run.run_worker is replaced), so a test can
corrupt a sumnets function and watch the run fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import compare
import run
import tracing
import worker
import workloads
from sumnets import coding
from sumnets.matrix import Mat


@pytest.fixture
def in_process(monkeypatch):
    def fake(args, timeout):
        ns = worker.parse_args(args + ["--launched", repr(time.monotonic())])
        return worker.run(ns)

    monkeypatch.setattr(run, "run_worker", fake)


def bench(workload, seed, seconds, trace, out, capsys):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)]
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def corrupt(code: coding.FracLinCode) -> coding.FracLinCode:
    """Flip one decoder entry of the first terminal."""
    t = code.net.terminals[0]
    mats = list(code.dec_mats[t])
    bad = mats[0].a.copy()
    bad[0, 0] = (bad[0, 0] + 1) % code.field.p
    mats[0] = Mat(code.field, bad)
    code.dec_mats[t] = tuple(mats)
    return code


@pytest.mark.parametrize("workload,seconds", [("search-3of5-gf3", 0.5), ("pipeline-3of5", 0)])
def test_seed_commit_reports_every_metric_with_no_failures(workload, seconds, tmp_path,
                                                           in_process, capsys):
    code, result = bench(workload, 1, seconds, 0, tmp_path, capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in run.load_benchmark(run.ROOT / "BENCHMARK.json")["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_feasible_search_candidate_fails_the_run(tmp_path, in_process, capsys, monkeypatch):
    from sumnets import analysis

    monkeypatch.setattr(analysis, "feasible_decoders", lambda *a, **k: analysis.DecodeResult(object(), None))
    code, result = bench("search-3of5-gf3", 1, 0, 0, tmp_path, capsys)
    assert code == 1
    n = workloads.CANDIDATES_PER_PASS
    assert (result["correct"], result["attempted"], result["failed"]) == (False, n, n)


def test_corrupted_pipeline_code_fails_the_run(tmp_path, in_process, capsys, monkeypatch):
    original = coding.scheme_merged
    monkeypatch.setattr(coding, "scheme_merged", lambda *a, **k: corrupt(original(*a, **k)))
    code, result = bench("pipeline-3of5", 1, 0, 0, tmp_path, capsys)
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_traced_search_counts_one_solve_per_candidate(tmp_path, in_process, capsys):
    code, result = bench("search-3of5-gf3", 2, 0.1, 1, tmp_path, capsys)
    assert code == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    n = workloads.CANDIDATES_PER_PASS
    assert m["analysis.feasible_decoders.calls"] == n
    assert m["matrix.solve_right.calls"] == n
    assert m["kernels.rref_mod.calls"] == m["kernels.rref_mod.medium.calls"] == n
    assert m["analysis.rejected_at_first_terminal_frac"] == 1.0
    assert m["analysis.found_per_tried"] == 0.0
    listed = [x["name"] for x in run.load_benchmark(run.ROOT / "BENCHMARK.json")["per_layer"]]
    assert sorted(m) == sorted(listed)


def test_instrument_restores_the_package():
    from sumnets import analysis, matrix

    before = (coding.matmul_mod, matrix.rref_mod, analysis.rref_mod, coding.topo_order)
    with tracing.instrument(tracing.Tracer()):
        assert coding.matmul_mod is not before[0]
    assert (coding.matmul_mod, matrix.rref_mod, analysis.rref_mod, coding.topo_order) == before


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            time.sleep(0.02)
    outer, inner = tr.spans
    selfs = tr.self_times()
    assert inner.parent == outer.id
    assert selfs[outer.id] == pytest.approx(outer.duration - inner.duration)
    assert selfs[outer.id] < 0.02 <= selfs[inner.id]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "search-3of5-gf3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
    assert "sumnets sources not found" in proc.stderr


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(1, 101)))[:3] == (90.0, 90, 10)
    assert run.tail(list(range(1, 1001)))[0] == 99.0


def test_compare_verdicts():
    a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in a]
    slower = [x * 1.2 for x in a]
    pairs = lambda b: list(zip(a, b))  # noqa: E731
    assert compare.verdict(a, faster, pairs(faster), True, 0.1)[0] == "better"
    assert compare.verdict(a, slower, pairs(slower), True, 0.1)[0] == "worse"
    assert compare.verdict(a, a, pairs(a), True, 0.1)[0] == "within-bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, a, pairs(a), True, 0.1)[0] == "unresolved"
