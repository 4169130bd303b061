"""Spans and counts around eprkit's public functions, installed from outside.

A wrapper replaces a function at every eprkit module that imported it (so
``eprkit.element.mul_words`` and ``eprkit.epr.mul_words`` as well as
``eprkit.pauli.mul_words``) and a method on its class, so no source file
changes.  Each wrapped call records a span: id, name, start, end, parent span
and operation id.  Spans stay in memory and are written out when the run
ends.  ``Scalar`` arithmetic runs tens of thousands of times per operation,
so it is only counted.

A span name none of whose targets still exists is listed in
``Tracer.absent``, and every metric drawn from it is left out of the result
rather than reported as zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

EPR_STAGES = (
    "verify_combined_elements",
    "verify_singlet_construction",
    "verify_singlet_constraints",
    "verify_product_constraint",
    "verify_derived_identities",
    "verify_constraint_family",
    "fallacy_trace",
    "verify_resolution",
)

# (span name, module, attribute); "Class.method" patches the class.
SPANNED = (
    ("pauli.mul_words", "eprkit.pauli", "mul_words"),
    ("pauli.commute_sign", "eprkit.pauli", "commute_sign"),
    ("element.mul", "eprkit.element", "Element.__mul__"),
    ("element.add", "eprkit.element", "Element.__add__"),
    ("element.add", "eprkit.element", "Element.__radd__"),
    ("element.add", "eprkit.element", "Element.__sub__"),
    ("element.add", "eprkit.element", "Element.__rsub__"),
    ("element.add", "eprkit.element", "Element.__neg__"),
    ("singlet.build_singlet", "eprkit.singlet", "build_singlet"),
    ("singlet.expectation", "eprkit.singlet", "SingletState.expectation"),
    ("matrices.element_matrix", "eprkit.matrices", "element_matrix"),
    ("matrices.word_matrix", "eprkit.matrices", "word_matrix"),
    ("matrices.approx_equal", "eprkit.matrices", "approx_equal"),
    ("triples.enumerate_basic_triples", "eprkit.triples", "enumerate_basic_triples"),
    ("triples.diff_with_paper_list", "eprkit.triples", "diff_with_paper_list"),
    ("triples.build_incidence", "eprkit.triples", "build_incidence"),
    *((f"epr.{stage}", "eprkit.epr", stage) for stage in EPR_STAGES),
    ("epr.run_full_report", "eprkit.epr", "run_full_report"),
    ("epr.to_json", "eprkit.epr", "VerificationReport.to_json"),
    ("exprparse.parse_expr", "eprkit.exprparse", "parse_expr"),
    ("exprparse.to_element", "eprkit.exprparse", "to_element"),
)

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__")
COUNTED = tuple(("element.scalar.ops", "eprkit.element", f"Scalar.{m}")
                for m in SCALAR_OPS)


def _mul_hook(counts: Counter, args: tuple, result) -> None:
    a, b = args
    if type(a) is type(b) and result is not NotImplemented:
        counts["element.mul.word_products"] += len(a.terms) * len(b.terms)
        counts["element.mul.terms_out"] += len(result.terms)


def _report_hook(counts: Counter, args: tuple, result) -> None:
    counts["epr.checks"] += len(result.checks)


def _parse_hook(counts: Counter, args: tuple, result) -> None:
    counts["exprparse.input_chars"] += len(args[0])


_HOOKS = {
    "element.mul": _mul_hook,
    "epr.run_full_report": _report_hook,
    "exprparse.parse_expr": _parse_hook,
}


class Tracer:
    """Holds the spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.op_id = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._ids = itertools.count()

    def around(self, op):
        """``op`` with each call tagged by a fresh operation id."""
        def traced_op(case):
            self.op_id += 1
            self._stack.clear()
            return op(case)
        return traced_op

    def _span(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # ``del`` first: it cannot fail near the recursion limit, so
                # the stack stays consistent even if the clock call does.
                del stack[-1]
                spans.append((span_id, name, start, clock(), parent, tracer.op_id))
            if hook is not None:
                hook(counts, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import eprkit

        for info in pkgutil.iter_modules(eprkit.__path__):
            if info.name != "__main__":
                importlib.import_module(f"eprkit.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "eprkit" or n.startswith("eprkit.")]
        found = set()
        for targets, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for name, module, attr in targets:
                owner_name, _, method = attr.partition(".")
                owner = getattr(sys.modules.get(module), owner_name, None)
                target = vars(owner).get(method) if method and owner else owner
                if target is None:
                    continue
                found.add(name)
                wrapper = make(name, target)
                if method:
                    self._patch(owner, method, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is target:
                            self._patch(m, key, wrapper)
        self.absent = {name for name, _, _ in SPANNED + COUNTED} - found

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, self time and inclusive time in ns."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[span_id]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


# Per-layer metrics: (name, kind, source); units are in BENCHMARK.json.
# "calls" and "self_ms" are per operation of the traced pass, "ms" is the
# inclusive time per call, "count" is a counter per operation.
def _calls_self(source: str) -> tuple:
    return ((f"{source}.calls", "calls", source), (f"{source}.self_ms", "self_ms", source))


def _ms(source: str) -> tuple:
    return ((f"{source}.ms", "ms", source),)


LAYER_METRICS = (
    *_calls_self("pauli.mul_words"),
    *_calls_self("pauli.commute_sign"),
    *_calls_self("element.mul"),
    ("element.mul.word_products", "count", "element.mul"),
    ("element.mul.terms_out", "count", "element.mul"),
    ("element.mul.fill_ratio", "ratio", "element.mul"),
    *_calls_self("element.add"),
    ("element.scalar.ops", "count", "element.scalar.ops"),
    *_ms("singlet.build_singlet"),
    *_calls_self("singlet.expectation"),
    *_calls_self("matrices.element_matrix"),
    *_calls_self("matrices.word_matrix"),
    *_calls_self("matrices.approx_equal"),
    *_ms("triples.enumerate_basic_triples"),
    *_ms("triples.diff_with_paper_list"),
    *_ms("triples.build_incidence"),
    *(m for stage in EPR_STAGES for m in _ms(f"epr.{stage}")),
    ("epr.run_full_report.self_ms", "self_ms", "epr.run_full_report"),
    *_ms("epr.to_json"),
    ("epr.checks", "count", "epr.run_full_report"),
    *_calls_self("exprparse.parse_expr"),
    ("exprparse.to_element.self_ms", "self_ms", "exprparse.to_element"),
    ("exprparse.input_chars", "count", "exprparse.parse_expr"),
)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """The traced pass's per-layer metrics; absent targets are left out."""
    rows = tracer.summary()
    out: dict[str, float] = {}
    for name, kind, source in LAYER_METRICS:
        if source in tracer.absent:
            continue
        row = rows.get(source, {"calls": 0, "self_ns": 0, "total_ns": 0})
        if kind == "calls":
            out[name] = row["calls"] / n_ops
        elif kind == "self_ms":
            out[name] = row["self_ns"] / 1e6 / n_ops
        elif kind == "ms":
            out[name] = row["total_ns"] / 1e6 / row["calls"] if row["calls"] else 0.0
        elif kind == "count":
            out[name] = tracer.counts[name] / n_ops
        else:
            products = tracer.counts["element.mul.word_products"]
            out[name] = tracer.counts["element.mul.terms_out"] / products if products else 0.0
    return out


def exact_counts(tracer: Tracer) -> dict[str, int]:
    """Everything that must repeat exactly between two traced passes."""
    out = {f"{name}.calls": row["calls"] for name, row in tracer.summary().items()}
    out.update(tracer.counts)
    return dict(sorted(out.items()))
