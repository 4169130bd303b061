"""The command-line surface: exit codes, formats, determinism, goldens."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from eprkit import cli, triples
from eprkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

BIG = "1" + "0" * 3000  # within the literal limit; its square is not


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def expected_cli_case(name):
    """The benchmark's expected argv, exit code and stdout for one command."""
    expected = Path(__file__).parent.parent / "perfbench" / "expected_cli.json"
    return next(c for c in json.loads(expected.read_text(encoding="utf-8"))["commands"]
                if c["name"] == name)


class TestVerify:
    def test_json_passes_and_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "report.json").read_text(encoding="utf-8")

    def test_md_passes_and_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "md")
        assert code == 0
        assert out == (GOLDEN / "report.md").read_text(encoding="utf-8")

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--format", "json")
        _, second, _ = run_cli(capsys, "verify", "--format", "json")
        assert first == second

    def test_json_is_well_formed_with_stable_schema(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--format", "json")
        report = json.loads(out)
        assert set(report) >= {"version", "checks", "triples", "overall"}
        assert report["overall"] == "pass"
        for check in report["checks"]:
            assert set(check) >= {"name", "paper_ref", "kind", "status",
                                  "residual_terms", "oracle_ok"}
        assert set(report["triples"]) >= {"count", "missing_from_paper",
                                          "extra_in_paper"}

    def test_injected_fault_exits_one_and_names_checks(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--inject-fault")
        assert code == 1
        assert out == (GOLDEN / "report-fault.json").read_text(encoding="utf-8")
        assert err == (GOLDEN / "report-fault.err").read_text(encoding="utf-8")
        # The Markdown report fails the same way and marks exactly the checks
        # whose JSON oracle_ok is false.
        checks = json.loads(out)["checks"]
        code, md, md_err = run_cli(capsys, "verify", "--inject-fault", "--format", "md")
        assert (code, md_err) == (1, err)
        assert md == (GOLDEN / "report-fault.md").read_text(encoding="utf-8")
        rows = [line[2:-2].split(" | ") for line in md.splitlines()
                if line.startswith("| ") and not line.startswith(("| check |", "| --- |"))]
        assert [row[0] for row in rows] == [c["name"] for c in checks]
        assert [row[4] == "DISAGREES" for row in rows] == [not c["oracle_ok"] for c in checks]
        assert "DISAGREES" in md


class TestExpect:
    def test_certain_correlator(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "E11")
        assert code == 0
        assert "mean: -1" in out
        assert "p(+1) = 0, p(-1) = 1   [born]" in out
        assert "p(+1) = -1/2, p(-1) = 3/2   [half-plus-mean]" in out

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "I")
        assert code == 0
        assert "mean: 1" in out

    def test_unbiased_cross_word(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "E12")
        assert code == 0
        assert "mean: 0" in out
        assert "p(+1) = 1/2, p(-1) = 1/2   [born]" in out

    def test_non_involution_skips_probabilities(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "psi")
        assert code == 0
        assert "mean: -1" in out
        assert "probabilities: undefined" in out

    def test_unprintable_non_involution_skips_probabilities(self, capsys):
        code, out, err = run_cli(capsys, "expect", f"{BIG}*{BIG}*E01")
        assert code == 0 and err == ""
        assert out == ("mean: 0\n"
                       "probabilities: undefined (expression squared is not the identity)\n")

    def test_negated_psi_is_the_projector(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "-psi")
        assert code == 0
        assert "mean: 1" in out

    def test_single_site_expression_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "expect", "e1")
        assert code == 2 and out == ""
        assert err == "ExprError: expect needs a two-site expression\n"


class TestTriples:
    def test_exactly_twenty_lines(self, capsys):
        code, out, _ = run_cli(capsys, "triples")
        assert code == 0
        assert len(out.splitlines()) == 20

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "triples")
        _, second, _ = run_cli(capsys, "triples")
        assert first == second

    def test_diff_names_the_omitted_sets(self, capsys):
        code, out, _ = run_cli(capsys, "triples", "--diff-paper")
        assert code == 0
        assert "(E01, E02, E03)" in out
        assert "(E10, E20, E30)" in out
        assert "(E13, E20, E33)" in out
        assert "listed but not found:\n  none" in out

    def test_diff_prints_a_listed_set_the_scan_does_not_find(self, capsys, monkeypatch):
        # E11, E22 and E33 commute, so no basic triple holds them; the published
        # list holds every set the scan finds, so the loop is empty otherwise.
        monkeypatch.setattr(triples, "PAPER_BASIC_SETS", (((1, 1), (2, 2), (3, 3)),))
        code, out, _ = run_cli(capsys, "triples", "--diff-paper")
        assert code == 0
        assert out.endswith("listed but not found:\n  (E11, E22, E33)\n")


class TestPeres:
    def test_table_and_summary(self, capsys):
        code, out, _ = run_cli(capsys, "peres")
        assert code == 0
        # header + 16 rows + blank + 2 summary lines
        assert len(out.splitlines()) == 20
        assert "satisfying all constraints: 0 of 16" in out
        assert "satisfying all but the product constraint: 4 of 16" in out

    def test_stdout_is_the_benchmarks_expected_bytes(self, capsys):
        case = expected_cli_case("peres")
        assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], "")


class TestEval:
    def test_canonical_product(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "E01*E02")
        assert code == 0
        assert out.strip() == "i*E03"

    def test_single_site_product_keeps_its_arity(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "e1*e2*e3")
        assert code == 0
        assert out == "i*e0\n"
        code, out, _ = run_cli(capsys, "eval", out.strip())
        assert code == 0
        assert out == "i*e0\n"

    def test_leading_minus_expression_is_not_an_option(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-i*E13*E01")
        assert code == 0
        assert out.strip() == "E12"

    def test_expect_with_leading_minus_and_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(capsys, "expect", "-psi", "--help")
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: eprkit expect")

    def test_psi_expands(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "psi")
        assert code == 0
        assert out.strip() == "-1/4 + 1/4*E11 + 1/4*E22 + 1/4*E33"

    def test_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "(E11+1)*psi")
        assert code == 0
        assert out.strip() == "0"

    def test_a_900_factor_product_of_a_projector_prints_reduced(self):
        # The stored denominator reaches 2**900, since no product is reduced;
        # the printed coefficients are.  A fresh process, so that the tree
        # walk's frame per factor starts from the bottom of the stack.
        text = "*".join(["(1/2+1/2*E11)"] * 900)
        result = subprocess.run([sys.executable, "-m", "eprkit", "eval", text],
                                capture_output=True, text=True, check=False)
        assert (result.returncode, result.stdout, result.stderr) == (0, "1/2 + 1/2*E11\n", "")


class TestErrorPaths:
    def test_syntax_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "eval", "E01*")
        assert code == 2
        assert "SyntaxError" in err
        assert "offset" in err

    def test_range_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "expect", "E99")
        assert code == 2
        assert "RangeError" in err

    def test_arity_conflict_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "eval", "e1*E01")
        assert code == 2
        assert "ArityConflict" in err

    def test_arity_conflict_in_a_long_chain_is_found_by_the_parser(self, capsys):
        code, out, err = run_cli(capsys, "eval", "*".join(["e1"] + ["E01"] * 2999))
        assert code == 2 and out == ""
        assert err.startswith("ArityConflictError: ")

    def test_non_ascii_digit_is_a_syntax_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "2\u00b2")
        assert code == 2 and out == ""
        assert "SyntaxError" in err and "offset 1" in err
        assert "internal error" not in err

    def test_overlong_literal_is_a_syntax_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "1" + "0" * 5000)
        assert code == 2 and out == ""
        assert "SyntaxError" in err and "offset 0" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["eval", "expect"])
    @pytest.mark.parametrize("text", ["*".join(["E01"] * 3000),
                                      "(" * 2000 + "E01" + ")" * 2000,
                                      "-" * 5000 + "E01"],
                             ids=["3000 factors", "2000 parentheses", "5000 minus signs"])
    def test_too_deep_nesting_is_an_expression_error(self, capsys, command, text):
        code, out, err = run_cli(capsys, command, text)
        assert code == 2 and out == ""
        assert err.startswith("ExprError: expression nests too deeply to evaluate "
                              "(recursion limit ")
        assert "internal error" not in err

    # The expect input's mean is -BIG**2: nothing is printed before the error.
    @pytest.mark.parametrize("command, word", [("eval", "E01"), ("expect", "E11")],
                             ids=["eval", "expect"])
    def test_result_past_the_print_limit_names_its_digits(self, capsys, command, word):
        code, out, err = run_cli(capsys, command, f"{BIG}*{BIG}*{word}")
        assert code == 2 and out == ""
        assert err == "PrintLimitError: a coefficient of 6001 digits is too long to print\n"


def test_the_readme_shell_examples_print_what_the_readme_shows(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []  # each (argv, the lines shown under it)
    for block in section.split("```sh\n")[1:]:
        shown = None
        for line in block.split("```", 1)[0].splitlines():
            if line.startswith("$ "):
                shown = []
                examples.append((shlex.split(line[2:]), shown))
            elif shown is not None:
                shown.append(line)
    assert examples and all(argv[0] == "eprkit" for argv, _ in examples)
    for (_, *argv), shown in examples:
        assert run_cli(capsys, *argv) == (0, "".join(f"{line}\n" for line in shown), "")


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "eprkit", "eval", "E13*E01"],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    assert result.stdout.strip() == "i*E12"


# Block modules before anything imports them, then run the CLI: "import name"
# raises for each name in the comma-separated first argument.
BLOCKED = """
import sys
for name in sys.argv[1].split(","):
    sys.modules[name] = None
from eprkit.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_blocked(blocked, *argv):
    return subprocess.run([sys.executable, "-c", BLOCKED, ",".join(blocked), *argv],
                          capture_output=True, text=True, check=False)


def test_runs_without_dataclasses_or_inspect():
    result = run_blocked(("dataclasses", "inspect"), "eval", "E01*E02")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "i*E03\n"


@pytest.mark.parametrize("argv", [("verify",), ("eval", "e1*e2*e3"), ("expect", "E11"),
                                  ("triples", "--diff-paper"), ("peres",)],
                         ids=lambda argv: argv[0])
def test_runs_without_numpy(argv):
    result = run_blocked(("numpy",), *argv)
    assert result.returncode == 0, result.stderr
    if argv == ("verify",):
        assert result.stdout == (GOLDEN / "report.json").read_text(encoding="utf-8")


REPORT_MODULES = ("eprkit.epr", "eprkit.matrices", "json")
EXPR_MODULES = ("eprkit.element", "eprkit.exprparse", "eprkit.singlet")


@pytest.mark.parametrize("name, blocked",
                         [("eval", (*REPORT_MODULES, "eprkit.triples")),
                          ("expect", (*REPORT_MODULES, "eprkit.triples")),
                          ("triples", REPORT_MODULES + EXPR_MODULES)],
                         ids=["eval", "expect", "triples"])
def test_command_runs_without_the_modules_it_does_not_need(name, blocked):
    case = expected_cli_case(name)
    result = run_blocked(blocked, *case["argv"])
    assert (result.returncode, result.stderr) == (case["exit"], "")
    assert result.stdout == case["stdout"]


class TestExitTwo:
    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(_):
            raise KeyError("missing")

        monkeypatch.setitem(cli._HANDLERS, "peres", broken)
        code, out, err = run_cli(capsys, "peres")
        assert (code, out) == (2, "")
        assert err == "internal error: KeyError: 'missing'\n"

    # A fresh process, so the handler loads the modules whose errors main names.
    @pytest.mark.parametrize("argv, err", [
        (("eval", "E01+"), "ExprSyntaxError: unexpected 'end of input' (offset 4)\n"),
        (("expect", f"{BIG}*{BIG}*E11"),
         "PrintLimitError: a coefficient of 6001 digits is too long to print\n"),
    ], ids=["syntax", "print limit"])
    def test_expression_errors_are_named_in_a_fresh_process(self, argv, err):
        result = subprocess.run([sys.executable, "-m", "eprkit", *argv],
                                capture_output=True, text=True, check=False)
        assert (result.returncode, result.stdout, result.stderr) == (2, "", err)
