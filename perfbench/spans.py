"""In-memory span recording and self-time arithmetic.

A span is one timed call at a layer boundary: ``(name, start, end,
parent)``.  The recorder keeps every span in flat arrays while the
traced run executes and writes them out afterwards.  A layer's *self
time* is the summed duration of its spans minus the time their direct
child spans cover; calls are strictly nested (one thread, one stack),
so the self times of all layers add up to the duration of the root span.

Nothing here imports the program under test, so the arithmetic can be
checked on synthetic call trees (``perfbench/tests``).
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from typing import Callable, Iterator

Clock = Callable[[], float]


class SpanRecorder:
    """Stack-based span recorder with compact array storage."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        #: Free-form counts recorded at the same boundaries (yielded
        #: cases, bytes written, ...), keyed by metric name.
        self.counts: dict[str, float] = {}

    def intern(self, name: str) -> int:
        """The numeric id of ``name`` (allocated on first use)."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self.names)
            self.names.append(name)
            self._name_ids[name] = name_id
        return name_id

    def enter(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {index} closed while span {popped} was innermost"
            )

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def __len__(self) -> int:
        return len(self.start)

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of every span called ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == name_id
        ]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per-name ``calls``, inclusive ``total_s`` and ``self_s``.

        ``self_s`` is each span's duration minus its direct children's
        durations, summed over the name's spans.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        count = len(self.start)
        child_time = [0.0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child_time[parent] += self.end[i] - self.start[i]
        table = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for i in range(count):
            row = table[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[i]
        return table

    def dump(self, path: str) -> None:
        """Write the spans as a NumPy ``.npz`` (names, start, end, parent)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def wrap_call(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """``fn`` with every call recorded as one span called ``name``."""
    name_id = recorder.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.enter(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit(index)

    return wrapper


def wrap_stream(
    recorder: SpanRecorder, name: str, fn: Callable, items: str
) -> Callable:
    """``fn`` returning an iterator, timed only while it produces values.

    The call itself and every ``next()`` on the returned iterator are
    spans called ``name``; time the consumer spends between two
    ``next()`` calls is not.  Each yielded value adds one to the count
    ``items``.  Calls are counted under ``<name>.calls`` so they stay
    distinguishable from the per-item spans.
    """
    name_id = recorder.intern(name)
    calls = f"{name}.calls"

    def timed(iterator: Iterator) -> Iterator:
        while True:
            index = recorder.enter(name_id)
            try:
                value = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.exit(index)
            recorder.count(items)
            yield value

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count(calls)
        index = recorder.enter(name_id)
        try:
            iterator = iter(fn(*args, **kwargs))
        finally:
            recorder.exit(index)
        return timed(iterator)

    return wrapper


def _rank(samples: int, per_mille: int) -> int:
    """Nearest rank (1-based) of the ``per_mille``/10 percentile."""
    return max(1, -(-per_mille * samples // 1000))


def tail_percentile(samples: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    for per_mille in (999, 990, 950, 900, 750, 500):
        if samples - _rank(samples, per_mille) >= 10:
            return per_mille / 10
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of ``values``."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), round(q * 10)) - 1]
