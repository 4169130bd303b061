"""eprkit benchmark: four workloads, end-to-end figures, per-layer tracing.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

Workloads (each a closed loop with one caller):

- ``report``: a warm ``run_full_report()`` plus ``to_json()`` per operation,
  byte-compared with ``tests/golden/report.json``; every operation repeats
  the same work.
- ``expr_dense``: products of 2-4 sums of 8-16 words with Gaussian-rational
  coefficients over 2, 3, 5 and 7; ``parse_expr``, ``to_element``, ``str`` and
  ``expectation`` on one reused ``SingletState``; every input is distinct.
- ``expr_chain``: products of 100-600 bare words and +-i.  One input in
  twenty of the generated stream is deeper than the recursion limit
  (1100-1600 factors or 1000-1200 nested parentheses) and fails with
  RecursionError at this version; those inputs are set aside from the timed
  loop and run once each afterwards, untimed (``deep_probe`` in the record).
- ``cli``: cold ``python -m eprkit`` children cycling through verify, eval,
  expect, triples --diff-paper and peres, stdout and exit code checked.

With ``--trace 0`` a run measures for ``--seconds`` and at least 100
operations and reports ``latency_ms.p50``, ``latency_ms.p90``, ``ops_per_s``,
``setup_s`` and ``peak_rss_mb``.  Times are calibrated against a fixed loop
(see ``perfbench/measure.py``); the raw wall-clock figures are in the record.
The run is split into five segments, each in a fresh worker followed by one
worker that only sets up, or for ``cli`` each after one warm-up cycle of cold
commands, so the ten (``cli``: five) set-up samples whose median is
``setup_s`` are spread over the run.  With ``--trace 1`` it runs a fixed list
of operations with wrappers around eprkit's functions and reports every
per-layer metric named in ``BENCHMARK.json`` (in wall time), the cold
start-up figures ``cli.*`` included, whatever the workload.  Inputs come from
``--seed``.  Every result is checked: expressions against the exact numpy
oracle in ``perfbench/oracle.py``, reports and CLI output against the golden
report and ``perfbench/expected_cli.json``.  An operation that raises counts
as wrong, and so makes the run incorrect, unless it is a RecursionError on
an input beyond the recursion limit; the share of those that fail is
``exprparse.deep_failed_share`` in the traced run.

The last line of stdout is the result object; the line before it is the
full record (environment, input properties, failures, the deep probe),
which is also written to ``perfbench/out/``.  Failed timed operations are
counted in ``failed``; their share is ``failed_ratio`` in the record.

The benchmark's own tests: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import clicases  # noqa: E402
from perfbench.measure import (  # noqa: E402
    CALIB_REF_S, MIN_OPS, Outcome, calibrated, closed_loop, pool, repeat_share)

WORKLOADS = ("report", "expr_dense", "expr_chain", "cli")
OUT = ROOT / "perfbench" / "out"
SEGMENTS = 5
# Set-up-only workers after each segment's worker.
SETUP_ONLY = 1
CLI_SEGMENTS = 5
PROBE_REPS = 5
PROBE_CYCLES = 3
WORKER_TIMEOUT_S = 170
CHILD_TIMEOUT_S = 60
# A bare interpreter starts in about this long on the test host when it is
# not slowed down.
BARE_REF_S = 0.05


def _child_env(*paths: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths)
    return env


CLI_ENV = _child_env(ROOT / "src")
WORKER_ENV = _child_env(ROOT / "src", ROOT)


def _git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    top, commit = proc.stdout.split()
    return commit if Path(top).resolve() == ROOT else None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_worker(spec: dict) -> dict:
    proc = subprocess.run([sys.executable, "-m", "perfbench.worker", json.dumps(spec)],
                          cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {spec} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_python(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CLI_ENV, check=True,
                   timeout=CHILD_TIMEOUT_S)


def bare_start() -> float:
    """Calibration for a cold child: the start of a bare interpreter.

    Starting a process follows the host's load in a way the in-process
    calibration loop does not (ten runs of the cli workload on a 2-vCPU VM:
    spread of ``latency_ms.p90`` 0.165 calibrated against the loop, 0.024
    against a bare start); no change to eprkit moves a bare start.  Scaled
    so that ``calibrated`` gives ``t * BARE_REF_S / bare``.
    """
    return _timed(run_python, "pass") * CALIB_REF_S / BARE_REF_S


def run_cold(cmd: clicases.Command) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "eprkit", *cmd.argv], cwd=ROOT, env=CLI_ENV,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=False)
    return proc.returncode, proc.stdout


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _pooled_inputs(parts: list[dict]) -> dict:
    n = sum(p["inputs"] for p in parts)
    out = {"inputs": n}
    for key in ("repeat_share", "deep_share"):
        if all(key in p for p in parts):
            out[key] = sum(p[key] * p["inputs"] for p in parts) / n
    out["segments"] = parts
    return out


def _summary(out: Outcome, setups: list[float], raw_setups: list[float]) -> dict:
    return {**out.end_to_end(), "setup_s": statistics.median(setups),
            "setup_samples_s": setups,
            "raw": {**out.raw(), "setup_s": statistics.median(raw_setups)},
            "attempted": out.attempted, "failed": out.failed, "wrong": out.wrong,
            "failures": dict(sorted(out.failures.items()))}


def measure_in_workers(workload: str, seed: int, seconds: int) -> dict:
    """SEGMENTS fresh workers in turn, each timing its set-up and then
    measuring its share of the run, each followed by SETUP_ONLY workers that
    only time their set-up; so the set-up samples are spread over the run."""
    parts, setups = [], []
    for k in range(SEGMENTS):
        parts.append(run_worker({"workload": workload, "seed": seed, "mode": "measure",
                                 "segment": k, "seconds": seconds / SEGMENTS,
                                 "min_ops": math.ceil(MIN_OPS / SEGMENTS)}))
        setups += [parts[-1]] + [run_worker({"workload": workload, "seed": seed,
                                             "mode": "setup"}) for _ in range(SETUP_ONLY)]
    out = pool(Outcome(durations=p["durations"], calib=p["calib"], ok=p["ok"],
                       wrong=p["wrong"], failures=Counter(p["failures"])) for p in parts)
    deep = {"inputs": 0, "failed": 0, "wrong": 0, "failures": Counter()}
    for p in parts:
        for key, value in p["deep_probe"].items():
            deep[key] += Counter(value) if key == "failures" else value
    return {**_summary(out, [p["setup_s"] for p in setups],
                       [p["setup_raw_s"] for p in setups]),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
            "inputs": _pooled_inputs([p["inputs"] for p in parts]),
            "deep_probe": deep}


def measure_cli(seconds: int) -> dict:
    """Cold children; before each of CLI_SEGMENTS stretches one warm-up
    cycle, whose duration is a set-up sample."""
    commands = clicases.commands(ROOT)
    setups, raw_setups, parts = [], [], []
    wrong_warmups = Counter()
    for _ in range(CLI_SEGMENTS):
        # Calibrated child by child, as the measured operations are.
        warm = closed_loop(commands, run_cold, clicases.check, seconds=0.0,
                           min_ops=len(commands), calibrate=bare_start)
        raw_setups.append(sum(warm.durations))
        setups.append(sum(map(calibrated, warm.durations, warm.calib)))
        wrong_warmups.update({f"warm-up: {k}": v for k, v in warm.failures.items()})
        parts.append(closed_loop(itertools.cycle(commands), run_cold, clicases.check,
                                 seconds=seconds / CLI_SEGMENTS,
                                 min_ops=math.ceil(MIN_OPS / CLI_SEGMENTS),
                                 calibrate=bare_start))
    out = pool(parts)
    # A warm-up is not a measured operation, but a wrong one fails the run.
    out.wrong += sum(wrong_warmups.values())
    out.failures.update(wrong_warmups)
    return {
        **_summary(out, setups, raw_setups),
        # Only cold eprkit children have run in this process.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "inputs": {"inputs": out.attempted,
                   "repeat_share": repeat_share((c.argv for c in commands),
                                                (c.argv for c in out.cases)),
                   "commands": [c.name for c in commands]},
    }


def startup_probe() -> tuple[dict[str, float], Outcome]:
    """Cold start-up: bare interpreter, imports, and each CLI command cold."""
    def median_ms(code: str) -> float:
        return statistics.median(_timed(run_python, code) for _ in range(PROBE_REPS)) * 1e3

    floor = median_ms("pass")
    metrics = {
        "cli.interpreter_ms": floor,
        "cli.import_numpy_ms": median_ms("import numpy") - floor,
        "cli.import_ms": median_ms("import eprkit") - floor,
    }
    commands = clicases.commands(ROOT)
    n = PROBE_CYCLES * len(commands)
    out = closed_loop(itertools.cycle(commands), run_cold, clicases.check, seconds=0.0,
                      min_ops=n, max_ops=n)
    for cmd in commands:
        times = [d * 1e3 for c, d in zip(out.cases, out.durations) if c is cmd]
        metrics[f"cli.cold_ms.{cmd.name}"] = statistics.median(times)
    return metrics, out


def traced(workload: str, seed: int) -> dict:
    spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    result = run_worker({"workload": workload, "seed": seed, "mode": "trace",
                         "spans": str(spans)})
    probe, out = startup_probe()
    result["metrics"].update(probe)
    result["attempted"] += out.attempted
    result["failed"] += out.failed
    result["wrong"] += out.wrong
    result["failures"].update({f"cold: {k}": v for k, v in out.failures.items()})
    result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def _declared(trace: int) -> list[dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return declared["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/eprkit/__init__.py", "tests/golden/report.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an eprkit checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    if args.trace:
        result = traced(args.workload, args.seed)
        measured = result["metrics"]
        correct = result["wrong"] == 0 and not result["counts_differ"]
    else:
        if args.workload == "cli":
            result = measure_cli(args.seconds)
        else:
            result = measure_in_workers(args.workload, args.seed, args.seconds)
        measured = result
        correct = result["wrong"] == 0 and result.get("deep_probe", {}).get("wrong", 0) == 0

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in _declared(args.trace) if m["name"] in measured}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "failed_ratio": result["failed"] / result["attempted"],
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{args.workload:>10} {name:<40} {m['value']:>14.4f} {m['unit']}",
              file=sys.stderr)
    print(f"{args.workload:>10} {'failed_ratio':<40} {record['failed_ratio']:>14.4f}",
          file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
