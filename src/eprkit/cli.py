"""Command-line verifier.

Five subcommands: ``verify`` (run the whole suite, emit a canonical JSON or
Markdown report, exit 0/1 on pass/fail), ``expect`` (exact singlet mean and
both probability conventions for an expression), ``triples`` (deterministic
listing of the basic sets, optionally diffed against the published list),
``peres`` (the 16-row classical assignment table), and ``eval`` (canonical
form of an expression).  Exit code 2 signals a usage or internal error.

Each handler imports what it runs, so a cold command loads only its own
modules: ``eval`` and ``expect`` the expression and singlet layers,
``triples`` the enumeration over words, ``verify`` and ``peres`` the report.
"""

from __future__ import annotations

import argparse
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprkit",
        description="Exact verifier for the two-site singlet identity suite.",
        epilog="'/' appears only inside rational literals (3/4); to divide by i, "
               "multiply by -i (for example E13*E01*-i).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every check and report")
    p_verify.add_argument("--format", choices=("json", "md"), default="json")
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="corrupt the singlet construction first "
                               "(self-test of the failure path)")

    p_expect = sub.add_parser(
        "expect", help="exact singlet mean and outcome probabilities")
    p_expect.add_argument("expr")

    p_triples = sub.add_parser("triples", help="list the basic sets")
    p_triples.add_argument("--diff-paper", action="store_true",
                           help="append the diff against the published list")

    sub.add_parser("peres", help="print the 16-case assignment table")

    p_eval = sub.add_parser("eval", help="print the canonical element")
    p_eval.add_argument("expr")
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    from .epr import run_full_report

    report = run_full_report(fault="corrupt-singlet" if args.inject_fault else None)
    text = report.to_json() if args.format == "json" else report.to_markdown()
    sys.stdout.write(text)
    if report.overall == "pass":
        return 0
    print("failed checks: " + "; ".join(report.failing_names() or ["(structural)"]),
          file=sys.stderr)
    return 1


def _cmd_expect(args: argparse.Namespace) -> int:
    from .exprparse import ExprError, parse_expr, to_element
    from .singlet import NotAnInvolutionError, build_singlet

    s = build_singlet()
    el = to_element(parse_expr(args.expr), psi=s.psi)
    if el.arity != 2:
        raise ExprError("expect needs a two-site expression")
    print(f"mean: {s.expectation(el)}")
    try:
        born = s.outcome_probabilities(el)
        literal = s.half_plus_mean_probabilities(el)
        print(f"p(+1) = {born[0]}, p(-1) = {born[1]}   [born]")
        print(f"p(+1) = {literal[0]}, p(-1) = {literal[1]}   [half-plus-mean]")
    except NotAnInvolutionError:
        print("probabilities: undefined (expression squared is not the identity)")
    return 0


def _cmd_triples(args: argparse.Namespace) -> int:
    from .triples import diff_with_paper_list, enumerate_basic_triples

    found = enumerate_basic_triples()
    for t in found:
        cyc = ", ".join(w.name for w in t.cyclic)
        print(f"{t}  cycle ({cyc})")
    if args.diff_paper:
        diff = diff_with_paper_list(found)
        print()
        print(f"enumerated: {diff.found_count}")
        print("found but not in the published list:")
        for t in diff.missing_from_paper:
            print(f"  {t}")
        print("listed but not found:")
        if diff.extra_in_paper:
            for ws in diff.extra_in_paper:
                print("  (" + ", ".join(w.name for w in ws) + ")")
        else:
            print("  none")
    return 0


def _cmd_peres(_: argparse.Namespace) -> int:
    from .epr import all_assignments, constraint_flags, peres_counts

    tables = all_assignments()
    heads = [f"m({word})" for word in tables[0]]
    flags = [constraint_flags(table) for table in tables]
    print(f"{' '.join(heads)} | {' '.join(flags[0])} | all")
    for table, row in zip(tables, flags):
        print(" ".join(f"{v:+{len(head)}d}" for head, v in zip(heads, table.values()))
              + " | " + " ".join(f"{str(ok):{len(name)}}" for name, ok in row.items())
              + f" | {'yes' if all(row.values()) else 'no'}")
    counts = peres_counts(flags)
    print()
    print(f"satisfying all constraints: {counts['solutions']} of {counts['assignments']}")
    print("satisfying all but the product constraint: "
          f"{counts['solutions_without_product_constraint']} of {counts['assignments']}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .exprparse import parse_expr, to_element
    from .singlet import build_singlet

    print(to_element(parse_expr(args.expr), psi=build_singlet().psi))
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "expect": _cmd_expect,
    "triples": _cmd_triples,
    "peres": _cmd_peres,
    "eval": _cmd_eval,
}


def _separate_expression(argv: list[str]) -> list[str]:
    """Let expressions beginning with '-' reach the expr positional.

    Without this, argparse reads "-i*E13*E01" as an option.  The help flag
    is hoisted in front of a '--' separator that precedes the rest.
    """
    if not argv or argv[0] not in ("eval", "expect") or "--" in argv:
        return argv
    help_flags = ("-h", "--help")
    rest = argv[1:]
    flags = [a for a in rest if a in help_flags]
    positionals = [a for a in rest if a not in help_flags]
    return [argv[0], *flags, "--", *positionals]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_separate_expression(
        list(sys.argv[1:]) if argv is None else list(argv)))
    try:
        return _HANDLERS[args.command](args)
    except RecursionError:  # the parser and the tree walk recurse on nesting
        print("ExprError: expression nests too deeply to evaluate "
              f"(recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit code 2 contract
        # Only a command that has loaded these modules can raise their errors.
        from .element import PrintLimitError
        from .exprparse import ExprError

        prefix = "" if isinstance(exc, (ExprError, PrintLimitError)) else "internal error: "
        print(f"{prefix}{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
