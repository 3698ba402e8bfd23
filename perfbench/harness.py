"""Measurement plumbing shared by the three workloads.

* :class:`Tracer` keeps spans in memory and wraps public library calls
  from the benchmark's own files; nothing inside ``src/`` is instrumented.
* :func:`calibration_ms` times a fixed interpreter loop, so a slow host
  phase can be told apart from a regression.
* :func:`peak_rss_mb` / :func:`children_peak_rss_mb` read the kernel's
  high-water marks through ``getrusage``.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

_perf = time.perf_counter


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


@dataclass
class SpanStats:
    """Aggregate of every span that shares one name."""

    calls: int = 0
    total_s: float = 0.0  # inclusive
    self_s: float = 0.0  # minus the time covered by child spans


class Tracer:
    """In-memory span recorder: name, start, end and parent of every span.

    Spans nest through an explicit stack, so a span's parent is the span
    that was open when it started.  :meth:`wrap` is the only way to open
    one: it returns a function that records a span around each call of
    the wrapped one.  :meth:`patched` installs such wrappers on module or
    class attributes for the duration of a ``with`` block.
    """

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self.parents: "list[int]" = []
        self.starts: "list[float]" = []
        self.ends: "list[float]" = []
        self._stack: "list[int]" = []

    def open(self, name: str) -> int:
        """Start a span now; returns its index for :meth:`close`."""
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_perf())
        return index

    def close(self, index: int) -> None:
        """End the innermost span, which must be ``index``."""
        self.ends[index] = _perf()
        self._stack.pop()

    def current(self) -> "str | None":
        """Name of the innermost open span."""
        return self.names[self._stack[-1]] if self._stack else None

    def wrap(self, name: "str | Callable[[str | None], str]", fn: Callable) -> Callable:
        """``fn`` with a span around every call.

        ``name`` may be a function of the enclosing span's name, for calls
        (such as ``os.fsync``) whose layer depends on who made them.
        """
        open_, close = self.open, self.close
        resolve = name if callable(name) else None
        current = self.current

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_(resolve(current()) if resolve else name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def wrap_iter(self, name: str, fn: Callable[..., Iterator]) -> Callable[..., Iterator]:
        """``fn`` returning an iterator; one span around each ``next``."""
        open_, close = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Iterator:
            iterator = iter(fn(*args, **kwargs))
            while True:
                index = open_(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    close(index)
                    return
                except BaseException:
                    close(index)
                    raise
                close(index)
                yield item

        return traced

    def patched(self, *targets: "tuple[Any, str, Any]", iterators: "tuple[tuple[Any, str, str], ...]" = ()):
        """Replace ``owner.attr`` by a traced wrapper inside the block.

        Each target is ``(owner, attr, span_name)``; ``iterators`` take the
        same triples for generator functions.
        """
        with contextlib.ExitStack() as stack:
            for owner, attr, name in targets:
                stack.enter_context(replaced(owner, attr, lambda fn, name=name: self.wrap(name, fn)))
            for owner, attr, name in iterators:
                stack.enter_context(replaced(owner, attr, lambda fn, name=name: self.wrap_iter(name, fn)))
            return stack.pop_all()

    def stats(self) -> "dict[str, SpanStats]":
        """Per-name calls, inclusive time and self time."""
        covered = [0.0] * len(self.starts)
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
        out: "dict[str, SpanStats]" = {}
        for index, name in enumerate(self.names):
            entry = out.setdefault(name, SpanStats())
            entry.calls += 1
            entry.total_s += durations[index]
            entry.self_s += durations[index] - covered[index]
        return out


@contextlib.contextmanager
def replaced(owner: Any, attr: str, make: Callable[[Any], Any]) -> Iterator[None]:
    """Set ``owner.attr`` to ``make(original)`` inside the block, then restore it."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@dataclass
class Breakdown:
    """Self times of the named layers against the traced total."""

    total_s: float
    layers: "dict[str, SpanStats]" = field(default_factory=dict)

    def get(self, name: str) -> SpanStats:
        return self.layers.get(name, SpanStats())

    @property
    def coverage_pct(self) -> float:
        """Share of the traced total that the layer self times account for."""
        covered = sum(entry.self_s for entry in self.layers.values())
        return 100.0 * covered / self.total_s if self.total_s > 0 else 0.0


# --------------------------------------------------------------------- #
# Host probes
# --------------------------------------------------------------------- #


def _calibration_loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i
    return total


def calibration_ms(repeats: int = 9, iterations: int = 100_000) -> float:
    """Median wall time of a fixed pure-Python loop, in milliseconds."""
    samples = []
    for _ in range(repeats):
        start = _perf()
        _calibration_loop(iterations)
        samples.append((_perf() - start) * 1e3)
    return statistics.median(samples)


_CALIBRATION_SCRIPT = """
import time
def loop():
    total = 0
    for i in range(20_000):
        total += i * i
best = float("inf")
for _ in range({samples}):
    start = time.perf_counter()
    loop()
    best = min(best, time.perf_counter() - start)
print(best * 1e3)
"""


def best_calibration_ms(samples: int = 25, processes: int = 1) -> float:
    """Least wall time of a short fixed loop over ``samples`` tries, in ms.

    With ``processes`` > 1 the loop runs in that many bare interpreters at
    once and the slowest one's best time is returned: a pool of that size
    runs at the pace of its slowest processor.  The interpreters stay
    smaller than any pool worker, so ``children_peak_rss_mb`` still reads
    the workers.
    """
    if processes == 1:
        return min(calibration_ms(1, 20_000) for _ in range(samples))
    script = _CALIBRATION_SCRIPT.format(samples=samples)
    children = [
        subprocess.Popen([sys.executable, "-S", "-c", script], stdout=subprocess.PIPE, text=True)
        for _ in range(processes)
    ]
    return max(float(child.communicate()[0]) for child in children)


def _maxrss_mb(who: int) -> float:
    kib = resource.getrusage(who).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return kib / (1024 * 1024) if sys.platform == "darwin" else kib / 1024


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return _maxrss_mb(resource.RUSAGE_SELF)


def children_peak_rss_mb() -> float:
    """Largest peak resident memory of any waited-for child, in MiB."""
    return _maxrss_mb(resource.RUSAGE_CHILDREN)


def percentile_ms(samples_s: "list[float]", q: int) -> float:
    """The ``q``-th percentile (1-99) of second-valued samples, in ms."""
    if len(samples_s) == 1:
        return samples_s[0] * 1e3
    return statistics.quantiles(samples_s, n=100, method="inclusive")[q - 1] * 1e3


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #


@dataclass
class Checks:
    """Output checks: operations attempted and failed."""

    attempted: int = 0
    failed: int = 0
    problems: "list[str]" = field(default_factory=list)

    def expect(self, ok: bool, problem: str) -> None:
        """Count one checked operation; record ``problem`` when not ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


@dataclass
class Pass:
    """One timed repetition over a workload's fixed inputs."""

    operations: int
    seconds: float
    latencies_s: "list[float]"
    output: Any = None
    breakdown: "Breakdown | None" = None
    layers: "dict[str, float]" = field(default_factory=dict)


class WorkloadBase:
    """Defaults for the parent-side hooks of a workload.

    The parent process builds inputs that every repetition shares
    (:meth:`prepare_shared`) and judges what the repetitions report; the
    repetitions themselves call ``setup``, ``prepare``, ``run``,
    ``finish``, ``report`` and ``layer_metrics``.
    """

    #: Seeded input sets; repetition ``r`` runs set ``r % SETS``.  A run
    #: times every unit of a set ``REPS // SETS`` times.
    SETS = 1
    #: Whether a unit keeps its best latency over those repetitions (short
    #: host stalls left out) or its median.
    BEST_OF_REPS = True
    #: Processes the timed work keeps busy; the calibration loop runs in as
    #: many at once.
    BUSY_PROCESSES = 1
    #: Share of the slowest units that ``throughput`` leaves out.
    TRIM = 0.0

    def prepare_shared(self) -> None:
        """Inputs every repetition reads (untimed); none by default."""

    def shared_checks(self) -> Checks:
        """Checks made while preparing the shared inputs."""
        return Checks()

    def check_report(self, report: "dict[str, Any]") -> Checks:
        """Checks on one repetition's report that need the shared inputs."""
        return Checks()

    def shared_layers(self, traced: "dict[str, Any]") -> "dict[str, float]":
        """Per-layer metrics measured by the parent."""
        return {}

    def prepare(self, input_set: int) -> None:
        """Build the inputs of set ``input_set`` (untimed); none by default."""

    def report(self, result: Pass) -> "dict[str, Any]":
        """What :meth:`check_report` needs from a repetition, as JSON."""
        return {}

    def close(self) -> None:
        """Release what ``setup`` acquired."""


#: Every per-layer metric and its unit.  A traced run reports all of them;
#: layers its workload bypasses read 0.
PER_LAYER_UNITS = {
    "machine.calib_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    # serve
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "server.self_us": "us",
    "state.submit_us": "us",
    "state.share_us": "us",
    "state.cancel_us": "us",
    "sim_kernels.advance_calls_per_req": "calls/req",
    "sim_kernels.advance_us": "us",
    "sim_kernels.events": "count",
    "policy.allocate_calls_per_req": "calls/req",
    "journal.append_us": "us",
    "journal.fsyncs": "count",
    "journal.fsync_s": "s",
    "journal.snapshots": "count",
    "journal.snapshot_ms": "ms",
    # trace-sweep
    "stream.parse_s": "s",
    "stream.fold_s": "s",
    "stream.rows": "count",
    "stream.chunks": "count",
    "exec.map_batch_s": "s",
    "exec.publish_s": "s",
    "exec.shm_bytes": "bytes",
    "sim_kernels.simulate_s": "s",
    "kernels.lower_bound_s": "s",
    "exec.overhead_s": "s",
    "exec.worker_rss_mb": "MB",
    # exact-opt
    "exact.lps_solved": "count",
    "exact.nodes_expanded": "count",
    "exact.pruned": "count",
    "exact.floors_certified": "count",
    "lp.build_s": "s",
    "lp.lockstep_calls": "count",
    "lp.lockstep_s": "s",
    "lp.highs_calls": "count",
    "lp.highs_s": "s",
    "exact.search_self_s": "s",
}
