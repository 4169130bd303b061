"""Tracing from outside eprkit, and the runner's output contract."""

import json
import shutil
import subprocess
import sys

from conftest import ROOT

import eprkit
import eprkit.element
import eprkit.epr
import eprkit.pauli
from perfbench import tracing, worker

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_child_spans():
    t = tracing.Tracer()
    # (id, name, start, end, parent, op): "a" spans 0..50 with children 5..15 and 20..40.
    t.spans[:] = [(1, "b", 5, 15, 0, 1), (2, "b", 20, 40, 0, 1), (0, "a", 0, 50, -1, 1)]
    rows = t.summary()
    assert rows["a"] == {"calls": 1, "self_ns": 20, "total_ns": 50}
    assert rows["b"] == {"calls": 2, "self_ns": 30, "total_ns": 30}


def test_wrappers_reach_every_import_site_and_come_off_again():
    original_mul = eprkit.element.Element.__mul__
    original_words = eprkit.pauli.mul_words
    t = tracing.Tracer()
    with t.installed():
        assert eprkit.element.mul_words is eprkit.pauli.mul_words is eprkit.epr.mul_words
        assert eprkit.pauli.mul_words is not original_words
        assert eprkit.element.Element.__mul__ is not original_mul
        eprkit.E(0, 1) * eprkit.E(0, 2)
    assert eprkit.element.mul_words is original_words is eprkit.epr.mul_words
    assert eprkit.element.Element.__mul__ is original_mul
    assert t.summary()["pauli.mul_words"]["calls"] == 1
    assert t.counts["element.mul.word_products"] == 1


def test_a_missing_function_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(eprkit.pauli, "commute_sign")
    t = tracing.Tracer()
    with t.installed():
        pass
    assert t.absent == {"pauli.commute_sign"}
    metrics = tracing.layer_metrics(t, 1)
    assert "pauli.commute_sign.calls" not in metrics
    assert metrics["pauli.mul_words.calls"] == 0


def test_traced_passes_count_the_same_work():
    wl = worker.make("expr_chain")
    wl.trace_ops = 6
    wl.setup()
    wl.prepare_check()
    result = worker.trace(wl, 4, None)
    assert result["counts_differ"] == [] and result["wrong"] == 0
    assert result["counts"]["exprparse.parse_expr.calls"] == 6
    names = {m for m, _, _ in tracing.LAYER_METRICS}
    assert names <= set(result["metrics"])


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    result = _result(_run("--workload", "expr_dense", "--seed", "2", "--seconds", "1",
                          "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 100
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = _result(_run("--workload", "report", "--seed", "2", "--seconds", "1",
                          "--trace", "1"))
    assert result["correct"] is True and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "report", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
