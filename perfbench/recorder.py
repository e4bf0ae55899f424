"""Call timing and span recording for the benchmark's calls into monocomp.

Every measurement is taken here, outside the library: the benchmark wraps each
public call it makes.  Durations are always kept (some end-to-end metrics are
built from them).  With tracing on, each call also leaves a span -- name,
start, end, parent span and operation id -- held in memory until the run
writes them out.

Before each call, and once at the end of a pass, the recorder times a fixed
reference kernel of the benchmark's own.  The host this runs on changes speed
by up to half within a minute, for reasons outside the process; dividing each
call's time by the reference times around it takes much of that out.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from contextlib import contextmanager

_REF_MASKS = [random.Random(i).getrandbits(2048) for i in range(32)]


def reference_kernel() -> float:
    """Seconds taken by fixed pure-Python work shaped like the program's:
    lowest-set-bit walks over wide ints, then small-int list and dict
    updates.  It never changes, so it measures the host, not the program."""
    start = time.perf_counter()
    counts = [0] * 2048
    for row in _REF_MASKS:
        while row:
            low = row & -row
            counts[low.bit_length() - 1] += 1
            row ^= low
    table: dict[int, int] = {}
    for i in range(60_000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + counts[i & 2047]
    return time.perf_counter() - start


class Recorder:
    """Times the public calls of one run and keeps their latest results."""

    def __init__(self):
        self.tracing = False
        self.spans: list[dict] = []
        self.durations: dict[str, list[float]] = {}
        self.results: dict[str, object] = {}
        self._stack: list[int] = []
        self._op: str | None = None
        self.timeline: list[tuple[float, float]] = []  # (reference s, call s)

    def start_pass(self) -> None:
        self.results.clear()
        self.timeline = []

    def end_pass(self) -> tuple[float, float]:
        """(seconds in calls, the same in multiples of the reference kernel
        time, each call divided by the mean of the references around it)."""
        refs = [ref for ref, _ in self.timeline] + [reference_kernel()]
        seconds = sum(d for _, d in self.timeline)
        rel = sum(d / ((refs[i] + refs[i + 1]) / 2) for i, (_, d) in enumerate(self.timeline))
        return seconds, rel

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, op_id: str):
        """Group the calls of one operation; a call that raises ends the
        operation, is reported on stderr, and its result stays missing so
        the reference check counts it as failed."""
        self._op = op_id
        try:
            with self.span("op:" + op_id):
                yield
        except Exception:  # the run must go on and count the failure
            print(f"operation {op_id} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        finally:
            self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        self.results.pop(name, None)
        ref = reference_kernel()
        with self.span(name):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
        self.timeline.append((ref, elapsed))
        self.durations.setdefault(name, []).append(elapsed)
        self.results[name] = out
        return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """A span's duration minus the time its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
