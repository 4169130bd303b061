"""The closed loop every workload runs, and the statistics taken from it.

One caller issues the next operation only after the previous one finished.
Only the operation is timed; generating an input and checking the result
against the oracle happen outside the timed region.

Calibrated time.  On a shared host the speed of the same code swings by up
to 2x for seconds at a time (measured on a 2-vCPU VM), far more than the
differences the benchmark has to resolve.  So a fixed calibration loop runs
between operations, and the end-to-end times are scaled to a host on which
that loop takes ``CALIB_REF_S``: ``t * CALIB_REF_S / c``, with ``c`` the
mean of the calibrations right before and right after the operation, each
the median of ``OP_CALIBS`` loops so that one preempted loop does not skew
an operation's figure (report ``latency_ms.p90`` spread over ten seeds
0.108 with one loop, 0.075 with three).  The loop is
pure-Python exact-rational arithmetic, the same kind of work eprkit does,
and it is part of the benchmark, so no change to eprkit moves it.  Cold CLI
children are calibrated against the start of a bare interpreter instead
(see ``perfbench/run.py``).  Raw wall times are reported next to the
calibrated ones in every record.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable

# A run keeps going until both limits are met, so every run has enough
# samples for the 90th percentile (ten beyond it).
MIN_OPS = 100
# Hard stop for one loop; a run has at most five, inside the 180 s it may take.
MAX_LOOP_S = 25.0
# The calibration loop takes about this long on the test host when it is not
# slowed down, so calibrated figures read close to undisturbed wall time.
CALIB_REF_S = 1e-3
# Calibration loops run before and after each set-up sample.
SETUP_CALIBS = 5
# Calibration loops whose median is one calibration between operations.
OP_CALIBS = 3


def calibration() -> float:
    """Wall time of the fixed calibration loop.

    The garbage collector is off meanwhile, so a large heap left behind by
    the program cannot slow the loop down and so shrink calibrated times.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict[int, Fraction] = {}
        for i in range(190):
            a = Fraction(i % 7 + 1, i % 5 + 2)
            b = Fraction(i % 3 + 1, i % 11 + 1)
            acc[i & 15] = acc.get(i & 15, 0) + a * b
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def op_calibration() -> float:
    return statistics.median(calibration() for _ in range(OP_CALIBS))


def calibrated(seconds: float, calib: float) -> float:
    return seconds * CALIB_REF_S / calib


def timed_setup(fn: Callable[[], Any]) -> tuple[float, float]:
    """Wall time of ``fn()`` and the same time calibrated.

    Set-up runs once per sample and takes far longer than one calibration
    loop, so it is calibrated against the mean of ``SETUP_CALIBS`` loops
    before and ``SETUP_CALIBS`` after it.
    """
    calibs = [calibration() for _ in range(SETUP_CALIBS)]
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    calibs += [calibration() for _ in range(SETUP_CALIBS)]
    return seconds, calibrated(seconds, statistics.fmean(calibs))


def figures(durations: list[float], ok: list[bool]) -> dict[str, float]:
    """Latency percentiles and throughput of one run's operations."""
    # A failed operation misses any latency limit, so it sorts last.
    lat = sorted(d * 1e3 if good else math.inf for d, good in zip(durations, ok))
    return {
        "latency_ms.p50": nearest_rank(lat, 0.50),
        "latency_ms.p90": nearest_rank(lat, 0.90),
        "ops_per_s": sum(ok) / sum(durations),
    }


@dataclass
class Outcome:
    """What one closed loop measured."""

    durations: list[float] = field(default_factory=list)
    calib: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    # Failures the workload does not allow: wrong results and unexpected
    # exceptions.  A run is correct only when this is 0.
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)
    cases: list[Any] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.ok)

    def end_to_end(self) -> dict[str, float]:
        """Figures in calibrated time."""
        return figures(list(map(calibrated, self.durations, self.calib)), self.ok)

    def raw(self) -> dict[str, float]:
        """The same figures in wall time."""
        return figures(self.durations, self.ok)


def pool(parts: Iterable[Outcome]) -> Outcome:
    """One outcome from the segments of a run."""
    out = Outcome()
    for part in parts:
        out.durations += part.durations
        out.calib += part.calib
        out.ok += part.ok
        out.wrong += part.wrong
        out.failures.update(part.failures)
        out.cases += part.cases
    return out


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def never(case: Any, exc: BaseException) -> bool:
    return False


def closed_loop(cases: Iterable, op: Callable[[Any], Any],
                check: Callable[[Any, Any], str | None], *, seconds: float,
                min_ops: int = MIN_OPS, max_ops: int | None = None,
                expected: Callable[[Any, BaseException], bool] = never,
                calibrate: Callable[[], float] = op_calibration) -> Outcome:
    """Run ``op`` on successive cases until ``seconds`` and ``min_ops`` are met.

    ``check`` returns None for a correct result and a reason otherwise.  An
    exception raised by ``op`` is a failure recorded by its type, and also
    wrong unless ``expected(case, exc)`` allows it; a wrong result is a
    failure recorded by its reason.  ``calibrate`` runs between operations;
    each operation is calibrated against the mean of the runs before and
    after it.
    """
    out = Outcome()
    clock = time.perf_counter
    start = clock()
    before = calibrate()
    for case in cases:
        t0 = clock()
        try:
            result = op(case)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            out.durations.append(clock() - t0)
            after = calibrate()
            out.ok.append(False)
            out.failures[type(exc).__name__] += 1
            out.wrong += not expected(case, exc)
        else:
            out.durations.append(clock() - t0)
            after = calibrate()
            reason = check(case, result)
            out.ok.append(reason is None)
            if reason is not None:
                out.wrong += 1
                out.failures[reason] += 1
        out.calib.append((before + after) / 2)
        before = after
        out.cases.append(case)
        n = len(out.durations)
        if max_ops is not None and n >= max_ops:
            break
        elapsed = clock() - start
        if (elapsed >= seconds and n >= min_ops) or elapsed >= MAX_LOOP_S:
            break
    return out


def repeat_share(warm_keys: Iterable, keys: Iterable) -> float:
    """Share of operations whose input was already seen, warm-ups included."""
    seen = set(warm_keys)
    repeats = n = 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
        n += 1
    return repeats / n if n else 0.0
