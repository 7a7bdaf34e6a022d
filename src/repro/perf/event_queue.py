"""Pluggable event queues for the discrete-event machine kernels.

Both queues order events by ``(time, kind, seq)`` where ``seq`` is a
global push counter — exactly the order the machines have always used —
so any two queues drive *bit-identical* executions.  They differ only in
how the next event is located:

* :class:`IndexedEventQueue` — the production kernel.  Events are bucketed
  per timestamp with a min-heap over bucket times, so the kernel *skips
  ahead* to the next actionable time and drains each timestamp as one
  sorted batch.  Cost: ``O(E log T_distinct)`` for ``E`` events.

* :class:`TickScanQueue` — the per-tick scanning reference kernel.  It
  advances the clock one tick at a time and, per tick, scans every
  processor's pending-event list for work due now — the classic simulator
  loop whose ``O(T * (p + in_flight))`` cost the event-driven kernel
  exists to avoid.  It is kept as the equivalence oracle for the golden
  trace suite and as the measured baseline of ``bench_kernel``.

Ordering contract (shared by both implementations):

* pushes during the drain of time ``t``'s batch may target ``t`` itself
  (e.g. a zero-overhead submission); they are inserted into the still
  undrained remainder in ``(kind, seq)`` position, matching what a heap
  would do;
* pushes into the past are only legal while the queue is *empty* (the
  machine's quiescence release re-seeds lingering processors at their own,
  possibly older, clocks); the queue then rewinds.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any

from repro.perf.counters import KernelCounters

__all__ = [
    "IndexedEventQueue",
    "TickScanQueue",
    "KERNELS",
    "make_event_queue",
]

#: Known kernel names, in (production, reference) order.  Suites
#: parameterized over this tuple (golden traces, ordering contract)
#: cover both.
KERNELS = ("event", "tick")


class IndexedEventQueue:
    """Timestamp-indexed queue with skip-ahead and per-timestamp batches."""

    def __init__(self, p: int = 0) -> None:
        self.counters = KernelCounters(kernel="event")
        self._seq = 0
        self._size = 0
        self._buckets: dict[int, list[tuple[int, int, int, Any]]] = {}
        self._times: list[int] = []  # min-heap; one live entry per bucket
        self._cur: list[tuple[int, int, int, Any]] = []
        self._cur_i = 0
        self._cur_time: int | None = None
        self._prev_time: int | None = None

    def __len__(self) -> int:
        return self._size

    def push(self, time: int, kind: int, pid: int, data: Any = None) -> None:
        self._seq += 1
        item = (kind, self._seq, pid, data)
        if self._cur_time is not None and time <= self._cur_time:
            if self._cur_i < len(self._cur):
                # Mid-batch push: only the current timestamp is admissible.
                if time < self._cur_time:
                    raise ValueError(
                        f"push into the past: t={time} while draining "
                        f"t={self._cur_time}"
                    )
                insort(self._cur, item, lo=self._cur_i)
                self._size += 1
                self.counters.queue_highwater = max(
                    self.counters.queue_highwater, self._size
                )
                return
            # Batch drained: a push at or before the current time re-seeds
            # the queue (quiescence release); rewind and bucket normally.
            self._cur_time = None
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = []
            heapq.heappush(self._times, time)
        bucket.append(item)
        self._size += 1
        self.counters.queue_highwater = max(self.counters.queue_highwater, self._size)

    def pop(self) -> tuple[int, int, int, Any] | None:
        """Next event as ``(time, kind, pid, data)``, or ``None``."""
        if self._cur_i >= len(self._cur):
            if not self._times:
                return None
            t = heapq.heappop(self._times)
            batch = self._buckets.pop(t)
            batch.sort()
            self._cur = batch
            self._cur_i = 0
            self._cur_time = t
            self.counters.batches += 1
            prev = self._prev_time if self._prev_time is not None else -1
            self.counters.ticks_skipped += max(0, t - prev - 1)
            self._prev_time = t
        kind, _seq, pid, data = self._cur[self._cur_i]
        self._cur_i += 1
        self._size -= 1
        self.counters.events += 1
        return (self._cur_time, kind, pid, data)  # type: ignore[return-value]

    def front_snapshot(self, n: int = 8) -> list[dict]:
        """The next (up to) ``n`` pending events, in processing order —
        the ``DeadlockError`` diagnostics' view of what the kernel would
        do next."""
        out: list[dict] = []
        for kind, _seq, pid, _data in self._cur[self._cur_i :]:
            if len(out) >= n:
                return out
            out.append({"time": self._cur_time, "kind": kind, "pid": pid})
        for t in sorted(self._buckets):
            for kind, _seq, pid, _data in sorted(self._buckets[t]):
                if len(out) >= n:
                    return out
                out.append({"time": t, "kind": kind, "pid": pid})
        return out


class TickScanQueue:
    """Per-tick scanning reference kernel (the pre-event-queue semantics).

    Keeps one pending-event list per processor and, at every clock tick,
    scans all ``p`` lists for events due at that tick.  Never skips a
    tick: ``counters.batches`` counts every tick visited and
    ``counters.ticks_skipped`` stays 0 by construction.
    """

    def __init__(self, p: int) -> None:
        self.counters = KernelCounters(kernel="tick")
        self._p = p
        self._seq = 0
        self._size = 0
        self._pending: list[list[tuple[int, int, int, Any]]] = [
            [] for _ in range(max(1, p))
        ]
        self._now = -1
        self._cur: list[tuple[int, int, int, Any]] = []
        self._cur_i = 0

    def __len__(self) -> int:
        return self._size

    def push(self, time: int, kind: int, pid: int, data: Any = None) -> None:
        self._seq += 1
        if self._cur_i < len(self._cur):
            if time < self._now:
                raise ValueError(
                    f"push into the past: t={time} while scanning t={self._now}"
                )
            if time == self._now:
                insort(self._cur, (kind, self._seq, pid, data), lo=self._cur_i)
                self._size += 1
                self.counters.queue_highwater = max(
                    self.counters.queue_highwater, self._size
                )
                return
        elif time <= self._now:
            # Quiescence release may re-seed behind the scan point.
            self._now = time - 1
        slot = pid if 0 <= pid < len(self._pending) else 0
        self._pending[slot].append((time, kind, self._seq, data))
        self._size += 1
        self.counters.queue_highwater = max(self.counters.queue_highwater, self._size)

    def pop(self) -> tuple[int, int, int, Any] | None:
        if self._cur_i >= len(self._cur):
            if not self._size:
                return None
            while True:
                self._now += 1
                self.counters.batches += 1
                due: list[tuple[int, int, int, Any]] = []
                # The per-tick scanning loop: visit every processor's
                # pending list at every single tick.
                for pid, events in enumerate(self._pending):
                    if not events:
                        continue
                    keep = []
                    for time, kind, seq, data in events:
                        if time == self._now:
                            due.append((kind, seq, pid, data))
                        else:
                            keep.append((time, kind, seq, data))
                    self._pending[pid] = keep
                if due:
                    due.sort()
                    self._cur = due
                    self._cur_i = 0
                    break
        kind, _seq, pid, data = self._cur[self._cur_i]
        self._cur_i += 1
        self._size -= 1
        self.counters.events += 1
        return (self._now, kind, pid, data)

    def front_snapshot(self, n: int = 8) -> list[dict]:
        out: list[dict] = []
        for kind, _seq, pid, _data in self._cur[self._cur_i :]:
            out.append({"time": self._now, "kind": kind, "pid": pid})
        rest = [
            (time, kind, seq, pid)
            for pid, events in enumerate(self._pending)
            for time, kind, seq, _data in events
        ]
        rest.sort()
        out.extend({"time": t, "kind": k, "pid": pid} for t, k, _s, pid in rest)
        return out[:n]


def make_event_queue(kernel: str, p: int):
    """Instantiate the named kernel's queue for a ``p``-processor machine."""
    if kernel == "event":
        return IndexedEventQueue(p)
    if kernel == "tick":
        return TickScanQueue(p)
    raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
