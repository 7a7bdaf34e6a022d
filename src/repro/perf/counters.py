"""Lightweight instrumentation counters for the simulation kernels.

Every engine (LogP event loop, BSP superstep loop, packet router) exposes
a :class:`KernelCounters` on its result object so experiments and the
``bench_kernel`` regression gate can report events/sec and quantify how
much work the event-driven kernels avoid relative to per-tick scanning.

The four fields have one engine-specific reading each — see
``docs/PERF.md`` for the exact table — but the common shape is:

* ``events``  — units of real work processed (machine events, program
  instructions, transmission attempts),
* ``batches`` — scheduling rounds (distinct event timestamps, supersteps,
  router steps),
* ``ticks_skipped`` — work a per-tick kernel would have done that the
  event-driven kernel skipped (empty clock ticks, idle-edge scans,
  simulated clock units crossed in one jump),
* ``queue_highwater`` — peak size of the kernel's pending-work structure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelCounters"]


@dataclass
class KernelCounters:
    """Work accounting for one kernel run (all counts start at zero)."""

    #: Name of the kernel that produced the run ("event", "tick", ...).
    kernel: str = "event"
    #: Units of real work processed.
    events: int = 0
    #: Scheduling rounds (distinct timestamps / supersteps / router steps).
    batches: int = 0
    #: Per-tick work avoided by skip-ahead / active-set tracking.
    ticks_skipped: int = 0
    #: Peak size of the pending-work structure.
    queue_highwater: int = 0

    @property
    def events_per_batch(self) -> float:
        """Mean amount of real work per scheduling round."""
        return self.events / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form for JSON serialization (benchmarks, goldens)."""
        return {
            "kernel": self.kernel,
            "events": self.events,
            "batches": self.batches,
            "ticks_skipped": self.ticks_skipped,
            "queue_highwater": self.queue_highwater,
        }
