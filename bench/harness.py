"""Measurement plumbing shared by every paqlbench workload.

Nothing here knows what a package query is: it times operations,
repeats set-up, runs whole cycles until the measuring window closes,
reads the peak resident set, and turns the collected
:class:`OpResult` rows into the five end-to-end metrics.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Set-ups per run; ``setup_s`` is their median, so one slow disk
#: flush or a cold import in the first does not become the metric.
#: A set-up of a tenth of a second is as noisy as it is short, so
#: cheap set-ups repeat until they fill ``SETUP_FILL_SECONDS``.
SETUP_REPEATS = 3
SETUP_FILL_SECONDS = 1.0
SETUP_MAX_REPEATS = 9


def enough_setups(seconds):
    """Whether the set-ups timed so far (``seconds``) suffice."""
    return len(seconds) >= SETUP_REPEATS and (
        sum(seconds) >= SETUP_FILL_SECONDS or len(seconds) >= SETUP_MAX_REPEATS
    )

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


@dataclass
class Op:
    """One user-visible request of a workload's seeded stream.

    ``state`` counts the mutations applied before the op within its
    ``scope`` (the cycle, where cycles mutate differently), so an
    oracle key names one question over one relation content;
    ``payload`` carries rows/rids for mutations.
    """

    kind: str  # "query" | "append" | "delete" | "restart"
    family: str
    text: str = ""
    state: int = 0
    payload: object = None
    scope: str = ""

    @property
    def key(self):
        return f"{self.scope}|{self.state}|{self.text}"


@dataclass
class OpResult:
    """What one executed :class:`Op` returned, and how long it took."""

    op: Op
    op_id: int
    cycle: int
    seconds: float
    ok: bool = True
    error: str = ""
    status: str = ""
    objective: float | None = None
    cached: bool = False
    #: Small per-op facts the traced pass keeps (node counts, stage
    #: rows, store deltas); empty in untraced runs.
    facts: dict = field(default_factory=dict)

    def fail(self, message):
        self.ok = False
        self.error = self.error or message


def percentile(values, fraction):
    """Linear-interpolated percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def midmean(values):
    """Mean of the middle half of ``values`` (the interquartile mean).

    Like the median it ignores the slowest and fastest quarter, so a
    burst that hits a few cycles does not move it; unlike the median
    it moves smoothly when the machine flips between two speeds.
    """
    ordered = sorted(values)
    if len(ordered) < 4:
        return median(ordered)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def timed(function, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


# -- memory -------------------------------------------------------------------


def _status_kb(pid, field_name):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def reset_peak_rss():
    """Start the high-water mark again from the current resident set.

    Set-up (dataset generators, the sqlite bulk load) allocates more
    than the query path does; without the reset the builder, not the
    evaluator, would be what ``peak_rss_mb`` reports.  Where the kernel
    refuses the write the metric falls back to the whole-process peak,
    which is the same on every run in that environment.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(pid=None):
    """Peak resident set of ``pid`` (default: this process) in MB."""
    kb = _status_kb(pid or os.getpid(), "VmHWM")
    if kb is None:
        if pid is not None:
            return 0.0
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


# -- scratch space ------------------------------------------------------------


class WorkDir:
    """A per-process scratch directory under ``bench/out``.

    The benchmark may write only inside its checkout, so stores and
    sqlite files live here and are removed on exit, also after a
    failure.
    """

    def __init__(self):
        self.path = OUT_DIR / f"work-{os.getpid()}"
        self._serial = 0

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        # sqlite spills and tempfile defaults stay inside the checkout
        # too (the server subprocess inherits the environment).
        self._saved = {v: os.environ.get(v) for v in ("TMPDIR", "SQLITE_TMPDIR")}
        self._saved_tempdir = tempfile.tempdir
        for variable in self._saved:
            os.environ[variable] = str(self.path)
        tempfile.tempdir = str(self.path)
        return self

    def __exit__(self, *exc_info):
        for variable, value in self._saved.items():
            if value is None:
                os.environ.pop(variable, None)
            else:
                os.environ[variable] = value
        tempfile.tempdir = self._saved_tempdir
        shutil.rmtree(self.path, ignore_errors=True)
        return False

    def fresh(self, stem):
        """A new, not yet existing path named after ``stem``."""
        self._serial += 1
        return self.path / f"{stem}-{self._serial}"


# -- the measured run ---------------------------------------------------------


def measure(workload, context, seconds, tracer, cycles=None):
    """Run whole cycles until ``seconds`` have passed (or exactly
    ``cycles`` of them, when given).

    A cycle is the workload's unit of fixed composition (the same
    shares of query families, hits, misses and mutations every time),
    so a faster program runs more cycles but never a different mix.
    Untraced runs execute cycles 0, 1, 2, ...; traced runs execute
    each cycle twice — first plain, then with spans on — so the
    tracing overhead is a paired comparison over identical inputs.

    Returns ``(untraced_rows, traced_rows, walls)``; ``walls[c]`` is
    the wall clock of untraced cycle ``c``.
    """
    plain, traced, walls = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        cycle = len(walls)
        rows, elapsed = timed(workload.run_cycle, context, cycle, None)
        plain.extend(rows)
        walls.append(elapsed)
        if tracer is not None:
            traced.extend(workload.run_cycle(context, cycle, tracer))
        if len(walls) >= cycles if cycles else time.perf_counter() >= deadline:
            break
    return plain, traced, walls


def end_to_end_metrics(workload, setup_seconds, rows, walls, peak_rss):
    """The five end-to-end metrics of one untraced run, by name.

    Throughput and both latency percentiles are taken **within each
    cycle** and the interquartile mean over the window's cycles is
    reported.  The reference box has bursts of seconds in which
    everything runs up to twice as slow; a statistic pooled over the
    window moves with every burst, the middle half of equally composed
    cycles does not.
    """
    by_cycle = {}
    for row in rows:
        by_cycle.setdefault(row.cycle, []).append(row)
    throughput, middle, tail = [], [], []
    for cycle, cycle_rows in by_cycle.items():
        latencies = [row.seconds for row in cycle_rows]
        busy = workload.busy_seconds(cycle_rows, walls[cycle])
        throughput.append(ratio(len(cycle_rows), busy))
        middle.append(percentile(latencies, 0.50))
        tail.append(percentile(latencies, workload.tail_percentile))
    return {
        "setup_s": (median(setup_seconds), "s"),
        "ops_per_s": (midmean(throughput), "1/s"),
        "latency_ms_p50": (midmean(middle) * 1e3, "ms"),
        "latency_ms_tail": (midmean(tail) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def log(message):
    """Progress goes to stderr; stdout carries the result."""
    print(message, file=sys.stderr, flush=True)
