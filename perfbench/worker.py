"""One benchmark worker: a fresh process that sets up eprkit and runs a workload.

Run from the repository root with ``src`` and the root on PYTHONPATH::

    python -m perfbench.worker '{"workload": "report", "seed": 1, "mode": "trace"}'

It prints one JSON object.  Every mode first times the set-up: importing
eprkit, calling ``build_singlet()`` and the warm-up operations, whose results
are dropped.  Mode ``setup`` stops there.  Then:

- ``measure`` runs one segment of the untraced closed loop and reports each
  operation's time and verdict, the worker's peak RSS and the input
  properties;
- ``trace`` runs a fixed list of operations once untraced and twice traced,
  checks that the two traced passes count exactly the same work, and reports
  the per-layer metrics of the first traced pass, the tracing overhead and
  the warm in-process time of each CLI command.

Inputs beyond the recursion limit (the deep ``expr_chain`` inputs) are never
timed: every timed operation is one the program can answer.  They are set
aside as the stream yields them and run once each afterwards, untimed, by
``deep_probe``; a RecursionError there is the known limit and is reported,
any other failure makes the run incorrect.
"""

from __future__ import annotations

import io
import itertools
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from . import clicases, exprs
from .measure import closed_loop, never, repeat_share, timed_setup
from .tracing import Tracer, exact_counts, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "report.json"

# The result of an operation that ended in a clean ExprError.
EXPR_ERROR = "ExprError"
# Timed in-process runs of each CLI command in a traced run.
MAIN_REPS = 3
# The warm-up inputs do not depend on the run's seed, so set-up does the
# same work in every run.
WARMUP_SEED = 0
# Deep inputs the traced run of every workload probes.
DEEP_PROBE = 8


class Report:
    """A warm ``run_full_report()`` plus ``to_json()``, byte-compared with the golden file."""

    warmups = 2
    trace_ops = 3

    def cases(self, seed: int, stream: str = "measure"):
        return itertools.repeat(None)

    def key(self, case) -> str:
        return "run_full_report"

    def setup(self) -> None:
        import eprkit

        self.eprkit = eprkit
        eprkit.build_singlet()

    def fresh(self) -> None:
        """Each operation builds its own singlet; nothing carries over."""

    def op(self, case) -> str:
        return self.eprkit.run_full_report().to_json()

    def prepare_check(self) -> None:
        self.golden = GOLDEN.read_text(encoding="utf-8")

    def check(self, case, out: str) -> str | None:
        return None if out == self.golden else "report differs from the golden file"

    expected_error = staticmethod(never)

    def properties(self, cases: list) -> dict:
        return {}


class Expr:
    """parse_expr, to_element, str and expectation on one reused SingletState."""

    warmups = 5
    trace_ops = 40

    def __init__(self, stream):
        self.stream = stream

    def cases(self, seed: int, stream: str = "measure"):
        return self.stream(seed, stream)

    def key(self, case: exprs.Case) -> str:
        return case.text

    def setup(self) -> None:
        import eprkit

        self.eprkit = eprkit
        self.fresh()

    def fresh(self) -> None:
        self.state = self.eprkit.build_singlet()

    def op(self, case: exprs.Case):
        e = self.eprkit
        try:
            el = e.to_element(e.parse_expr(case.text))
        except e.ExprError:
            return EXPR_ERROR
        return el, str(el), self.state.expectation(el)

    def prepare_check(self) -> None:
        from . import oracle

        self.oracle = oracle

    def check(self, case: exprs.Case, out) -> str | None:
        if out is EXPR_ERROR:
            # Rejecting an input beyond the recursion limit is a clean answer.
            return None if case.deep else "ExprError on an input within limits"
        want = self.oracle.expected(case.tree)
        el, text, mean = out
        terms = {tuple(w): (Fraction(c.re), Fraction(c.im)) for w, c in el.terms.items()}
        if terms != want.terms:
            return "terms differ from the oracle"
        if self.oracle.parse_canonical(text) != want.terms:
            return "printed element differs from the oracle"
        if (Fraction(mean.re), Fraction(mean.im)) != want.mean:
            return "expectation differs from the oracle"
        return None

    def expected_error(self, case: exprs.Case, exc: BaseException) -> bool:
        """Only an input beyond the recursion limit may fail, and only by RecursionError."""
        return case.deep and isinstance(exc, RecursionError)

    def properties(self, cases: list) -> dict:
        return exprs.properties(cases)


class CliInProcess:
    """The CLI command cycle through ``eprkit.cli.main`` in this process."""

    warmups = 5
    trace_ops = 5

    def __init__(self):
        self.commands = clicases.commands(ROOT)

    def cases(self, seed: int, stream: str = "measure"):
        return itertools.cycle(self.commands)

    def key(self, case: clicases.Command) -> tuple:
        return case.argv

    def setup(self) -> None:
        import eprkit.cli

        self.cli = eprkit.cli
        eprkit.build_singlet()

    def fresh(self) -> None:
        """Each command builds what it needs."""

    def op(self, case: clicases.Command) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(list(case.argv))
        return code, out.getvalue()

    def prepare_check(self) -> None:
        pass

    def check(self, case: clicases.Command, out) -> str | None:
        return clicases.check(case, out)

    expected_error = staticmethod(never)

    def properties(self, cases: list) -> dict:
        return {}


def make(workload: str):
    if workload == "report":
        return Report()
    if workload == "expr_dense":
        return Expr(exprs.dense_stream)
    if workload == "expr_chain":
        return Expr(exprs.chain_stream)
    if workload == "cli":
        return CliInProcess()
    raise ValueError(f"unknown workload {workload!r}")


def _failures(outcome) -> dict:
    return dict(sorted(outcome.failures.items()))


def within_limits(cases, deep: list):
    """The cases the program can answer; those beyond the recursion limit
    are appended to ``deep`` instead."""
    for case in cases:
        if getattr(case, "deep", False):
            deep.append(case)
        else:
            yield case


def _exact_pass(wl, cases: list, op):
    return closed_loop(cases, op, wl.check, seconds=0.0, min_ops=len(cases),
                       max_ops=len(cases), expected=wl.expected_error)


def deep_probe(wl, deep: list) -> dict:
    """Each deep input once, untimed, checked like a timed one."""
    out = _exact_pass(wl, deep, wl.op)
    return {"inputs": out.attempted, "failed": out.failed, "wrong": out.wrong,
            "failures": _failures(out)}


def measure(wl, warm: list, spec: dict) -> dict:
    deep: list = []
    cases = within_limits(wl.cases(spec["seed"], f"measure{spec['segment']}"), deep)
    out = closed_loop(cases, wl.op, wl.check, seconds=spec["seconds"],
                      min_ops=spec["min_ops"], expected=wl.expected_error)
    return {
        "durations": out.durations, "calib": out.calib, "ok": out.ok, "wrong": out.wrong,
        "failures": _failures(out),
        "deep_probe": deep_probe(wl, deep),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # Properties of the stream as generated, deep inputs included.
        "inputs": {"inputs": out.attempted + len(deep),
                   "repeat_share": repeat_share(map(wl.key, warm), map(wl.key, out.cases)),
                   **wl.properties(out.cases + deep)},
    }


def traced_deep_probe(seed: int) -> dict:
    """The first DEEP_PROBE deep inputs of the seed's chain stream, probed."""
    wl = make("expr_chain")
    wl.setup()
    wl.prepare_check()
    deep: list = []
    for _ in within_limits(wl.cases(seed, "deep"), deep):
        if len(deep) >= DEEP_PROBE:
            break
    return deep_probe(wl, deep[:DEEP_PROBE])


def cli_main_ms() -> tuple[dict[str, float], int]:
    """Warm in-process time of each CLI command, and how many printed wrong output."""
    cli = CliInProcess()
    cli.setup()
    metrics, wrong = {}, 0
    for cmd in cli.commands:
        cli.op(cmd)
        times = []
        for _ in range(MAIN_REPS):
            t0 = time.perf_counter()
            result = cli.op(cmd)
            times.append((time.perf_counter() - t0) * 1e3)
            wrong += cli.check(cmd, result) is not None
        metrics[f"cli.main_ms.{cmd.name}"] = statistics.median(times)
    return metrics, wrong


def trace(wl, seed: int, spans_path: str | None) -> dict:
    cases = list(itertools.islice(within_limits(wl.cases(seed, "trace"), []),
                                  wl.trace_ops))
    wl.fresh()
    untraced = _exact_pass(wl, cases, wl.op)
    main_ms, main_wrong = cli_main_ms()
    tracer = Tracer()
    passes = []
    with tracer.installed():
        for _ in range(2):
            tracer.reset()
            wl.fresh()
            out = _exact_pass(wl, cases, tracer.around(wl.op))
            passes.append((out, exact_counts(tracer)))
            if len(passes) == 1:
                metrics = layer_metrics(tracer, len(cases))
                if spans_path:
                    tracer.write(Path(spans_path))
    (first, counts), (second, counts_again) = passes
    differing = sorted(k for k in counts.keys() | counts_again.keys()
                       if counts.get(k) != counts_again.get(k))
    metrics.update(main_ms)
    probe = traced_deep_probe(seed)
    metrics["exprparse.deep_failed_share"] = probe["failed"] / probe["inputs"]
    metrics["trace.overhead_ratio"] = (untraced.end_to_end()["ops_per_s"]
                                       / first.end_to_end()["ops_per_s"])
    runs = (untraced, first, second)
    return {
        "metrics": metrics,
        "attempted": sum(o.attempted for o in runs) + MAIN_REPS * len(main_ms),
        "failed": sum(o.failed for o in runs) + main_wrong,
        "wrong": sum(o.wrong for o in runs) + main_wrong + probe["wrong"],
        "failures": {f"pass{i}: {k}": v for i, o in enumerate(runs)
                     for k, v in _failures(o).items()},
        "deep_probe": probe,
        "counts": counts,
        "counts_differ": differing,
        "absent": sorted(tracer.absent),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    wl = make(spec["workload"])
    seed = spec["seed"]
    warm = list(itertools.islice(wl.cases(WARMUP_SEED, "warmup"), wl.warmups))

    def setup() -> None:
        wl.setup()
        for case in warm:
            wl.op(case)

    setup_raw, setup_cal = timed_setup(setup)
    result = {"setup_raw_s": setup_raw, "setup_s": setup_cal}
    wl.prepare_check()
    if spec["mode"] == "measure":
        result.update(measure(wl, warm, spec))
    elif spec["mode"] == "trace":
        result.update(trace(wl, seed, spec.get("spans")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
