"""The benchmark's checks count wrong answers and crashes as failures."""

import itertools
import json

import pytest
from conftest import ROOT

from perfbench import clicases, exprs, run, worker
from perfbench.measure import calibration, closed_loop, never


def _run(cases, op, check, n, expected=never):
    return closed_loop(cases, op, check, seconds=0.0, min_ops=n, max_ops=n,
                       expected=expected)


@pytest.fixture(scope="module")
def report():
    wl = worker.Report()
    wl.setup()
    wl.prepare_check()
    return wl


@pytest.fixture(scope="module")
def dense():
    wl = worker.make("expr_dense")
    wl.setup()
    wl.prepare_check()
    return wl


@pytest.fixture(scope="module")
def chain():
    wl = worker.make("expr_chain")
    wl.setup()
    wl.prepare_check()
    return wl


def test_report_passes_as_built(report):
    out = _run(report.cases(0), report.op, report.check, 1)
    assert (out.failed, out.wrong) == (0, 0)


def test_corrupt_singlet_report_is_a_failure(report):
    def corrupt(case):
        return report.eprkit.run_full_report(fault="corrupt-singlet").to_json()

    out = _run(report.cases(0), corrupt, report.check, 2)
    assert (out.failed, out.wrong) == (2, 2)
    assert out.failures == {"report differs from the golden file": 2}


def test_expressions_pass_as_built(dense):
    out = _run(dense.cases(7), dense.op, dense.check, 5)
    assert (out.failed, out.wrong) == (0, 0)


@pytest.mark.parametrize("part, reason", [
    ("element", "terms differ from the oracle"),
    ("text", "printed element differs from the oracle"),
    ("mean", "expectation differs from the oracle"),
])
def test_sign_flipped_expression_result_is_a_failure(dense, part, reason):
    def flipped(case):
        el, text, mean = dense.op(case)
        if part == "element":
            el = -el
        elif part == "text":
            text = str(-el)
        else:
            mean = -mean
        return el, text, mean

    out = _run(dense.cases(7), flipped, dense.check, 3)
    assert (out.failed, out.wrong) == (3, 3)
    assert out.failures == {reason: 3}


def test_expr_error_on_an_input_within_limits_is_a_failure(dense):
    out = _run(dense.cases(7), lambda case: worker.EXPR_ERROR, dense.check, 2)
    assert out.failures == {"ExprError on an input within limits": 2}


def test_deep_chains_fail_with_recursion_error_only(chain):
    cases = list(itertools.islice(chain.cases(3), 2 * exprs.DEEP_EVERY))
    out = _run(cases, chain.op, chain.check, len(cases), chain.expected_error)
    deep = sum(c.deep for c in cases)
    assert deep == 2
    assert out.failed == deep and out.wrong == 0
    assert out.failures == {"RecursionError": deep}
    assert [c.deep for c, ok in zip(out.cases, out.ok) if not ok] == [True, True]


def test_deep_inputs_are_set_aside_from_the_timed_loop(chain):
    spec = {"seed": 3, "segment": 0, "seconds": 0.0, "min_ops": 2 * exprs.DEEP_EVERY}
    result = worker.measure(chain, [], spec)
    assert not any(result["failures"]) and all(result["ok"]) and result["wrong"] == 0
    probe = result["deep_probe"]
    assert probe["inputs"] >= 2
    assert probe["failed"] == probe["inputs"] and probe["wrong"] == 0
    assert probe["failures"] == {"RecursionError": probe["inputs"]}
    assert result["inputs"]["deep_share"] == probe["inputs"] / result["inputs"]["inputs"]


def test_another_error_on_a_deep_input_is_wrong(chain, monkeypatch):
    def crash(case):
        raise ZeroDivisionError

    deep = [c for c in itertools.islice(chain.cases(3), 2 * exprs.DEEP_EVERY) if c.deep]
    monkeypatch.setattr(chain, "op", crash)
    probe = worker.deep_probe(chain, deep)
    assert probe["wrong"] == probe["inputs"] == 2
    assert probe["failures"] == {"ZeroDivisionError": 2}


@pytest.mark.parametrize("workload", ["report", "dense"])
def test_an_exception_on_an_input_within_limits_is_wrong(request, workload):
    wl = request.getfixturevalue(workload)

    def crash(case):
        raise ZeroDivisionError

    out = _run(wl.cases(7), crash, wl.check, 3, wl.expected_error)
    assert (out.failed, out.wrong) == (3, 3)
    assert out.failures == {"ZeroDivisionError": 3}


def test_recursion_error_on_a_shallow_chain_is_wrong(chain):
    def recurse(case):
        raise RecursionError

    cases = list(itertools.islice(chain.cases(3), exprs.DEEP_EVERY))
    out = _run(cases, recurse, chain.check, len(cases), chain.expected_error)
    assert out.failed == len(cases)
    assert out.wrong == len(cases) - 1


def test_cli_run_with_children_timing_out_is_not_correct(monkeypatch, capsys):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.001)
    monkeypatch.setattr(run, "bare_start", calibration)
    assert run.main(["--workload", "cli", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    record, result = map(json.loads, capsys.readouterr().out.splitlines()[-2:])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 100
    assert set(record["failures"]) == {"TimeoutExpired", "warm-up: TimeoutExpired"}


@pytest.mark.parametrize("mangle, reason", [
    (lambda cmd: (cmd.exit, cmd.stdout + "x"), "stdout differs from the expected output"),
    (lambda cmd: (cmd.exit, cmd.stdout.replace("-", "+")), None),
    (lambda cmd: (1 - cmd.exit, cmd.stdout), "wrong exit code"),
])
def test_wrong_cli_output_is_a_failure(mangle, reason):
    commands = clicases.commands(ROOT)
    out = _run(itertools.cycle(commands), mangle, clicases.check, len(commands))
    mangled = [mangle(c) != (c.exit, c.stdout) for c in commands]
    assert out.failed == out.wrong == sum(mangled) > 0
    if reason is not None:
        assert all(reason in k for k in out.failures)


def test_cli_in_process_passes_as_built():
    wl = worker.CliInProcess()
    wl.setup()
    out = _run(wl.cases(0), wl.op, wl.check, len(wl.commands))
    assert (out.failed, out.wrong) == (0, 0)
