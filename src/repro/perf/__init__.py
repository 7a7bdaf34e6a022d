"""Event-driven kernel substrate: queues, counters, and plan caches.

See ``docs/PERF.md`` for the design, the equivalence argument between
the ``"event"`` and ``"tick"`` kernels, and how ``bench_kernel`` gates
regressions on the numbers these counters produce.
"""

from repro.perf.counters import KernelCounters
from repro.perf.event_queue import (
    KERNELS,
    IndexedEventQueue,
    TickScanQueue,
    make_event_queue,
)
from repro.perf.memo import (
    PlanCache,
    clear_plan_caches,
    plan_cache,
    plan_cache_stats,
)

__all__ = [
    "KernelCounters",
    "IndexedEventQueue",
    "TickScanQueue",
    "KERNELS",
    "make_event_queue",
    "PlanCache",
    "plan_cache",
    "plan_cache_stats",
    "clear_plan_caches",
]
