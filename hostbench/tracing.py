"""Host-time spans around calls into repro's public functions.

The benchmark never edits the program: a traced run replaces a fixed set
of public functions and methods (:data:`INSTRUMENTS`) with thin wrappers
that record ``perf_counter_ns`` spans, and puts the originals back when
it ends.  Untraced runs install nothing, so they measure the program
as shipped.

* Sync spans nest on a per-thread stack; a span's *self* time is its
  duration minus the durations of the spans it encloses.
* ``SimulationService.submit`` is a coroutine that may suspend, so it
  gets no stack frame.  It opens an *op record* in a ``ContextVar``
  instead: sync spans that run inside that request's task add their
  self time to the record, and the record keeps the request's key and
  the moment its ``store.get`` returned.
* ``run_pool`` records when each item's job started and when its entry
  landed (by wrapping the ``on_result`` callback), so a miss request's
  wait can be split into dispatch wait, pool time and store append.
* Pool workers are forked from the traced process; the wrappers switch
  themselves off in the child (``os.register_at_fork``).  A worker's
  compute is only seen through what crosses the pool boundary: the
  entry's ``wall_s`` and the pool's wall time.

Spans are kept in memory and written at exit as Chrome ``trace_event``
JSON (loadable in Perfetto).  High-frequency leaf calls
(``NetworkDelivery.propose_delay``) are aggregated but not written as
events, and at most :data:`MAX_EVENTS` events are kept.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from types import SimpleNamespace

now = time.perf_counter_ns


def _bsp_counts(tracer, args, result):
    tracer.count("bsp.supersteps", len(result.ledger))
    tracer.count("bsp.h_words", sum(rec.h for rec in result.ledger))


def _logp_counts(tracer, args, result):
    k = result.kernel
    tracer.count("logp.events", k.events)
    tracer.count("logp.batches", k.batches)
    tracer.highwater("logp.queue_highwater", k.queue_highwater)


def _delivery_counts(tracer, args, result):
    # propose_delay(self, msg, accept_time, L): a delay beyond L is a
    # violation of the LogP latency bound by the network.
    if result > args[3]:
        tracer.count("network.violations", 1)


def _route_counts(tracer, args, result):
    tracer.count("route.events", result.kernel.events)
    tracer.count("route.packets", result.packets)


def _append_counts(tracer, args, result):
    tracer.count("store.appends", 1)


def _pool_counts(tracer, args, result):
    tracer.count("pool.busy_ns", int(result.busy_s * 1e9))
    tracer.count("pool.capacity_ns", int(result.workers * result.wall_s * 1e9))


#: (module, attribute path, layer, count hook, write Chrome events).
INSTRUMENTS = (
    ("repro.engine.request", "RunRequest.from_dict", "request.parse", None, True),
    ("repro.engine.request", "RunRequest.coerce", "request.parse", None, True),
    ("repro.engine.request", "RunRequest.key", "request.key", None, True),
    ("repro.campaign.store", "ShardedStore.get", "store.get", None, True),
    ("repro.campaign.store", "ShardedStore.append", "store.append", None, True),
    ("repro.campaign.store", "ResultStore.append", "store.append", _append_counts, True),
    ("repro.service.service", "SimulationService.submit", "service.submit", None, True),
    ("repro.campaign.pool", "run_pool", "pool.call", _pool_counts, True),
    ("repro.campaign.runner", "run_campaign", "campaign.run", None, True),
    ("repro.engine.request", "build_stack", "engine.build_stack", None, True),
    ("repro.engine.stack", "Stack.run", "engine.run", None, True),
    ("repro.bsp.machine", "BSPMachine.run", "bsp.machine", _bsp_counts, True),
    ("repro.core.bsp_on_logp", "simulate_bsp_on_logp", "bsp.driver", None, True),
    ("repro.logp.machine", "LogPMachine.run", "logp.machine", _logp_counts, True),
    ("repro.networks.backed", "NetworkDelivery.propose_delay", "network.delivery",
     _delivery_counts, False),
    ("repro.networks.routing_sim", "route_packets", "route", _route_counts, True),
)


#: Chrome events kept per run; later spans are aggregated, not written.
MAX_EVENTS = 50_000


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.origin = now()
        self.events: list[dict] = []
        self.dropped = 0
        self.active = False
        self.op = contextvars.ContextVar("hostbench_op", default=None)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._op_ids = itertools.count(1)
        self._thread_names: dict[int, str] = {}
        self.reset()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    # -- windows ---------------------------------------------------------

    def reset(self) -> None:
        """Start a new aggregation window (Chrome events are kept)."""
        with self._lock:
            self.self_ns: dict[str, int] = defaultdict(int)
            self.total_ns: dict[str, int] = defaultdict(int)
            self.calls: dict[str, int] = defaultdict(int)
            self.counts: dict[str, int] = defaultdict(int)
            self.requests: list[dict] = []
            self.pool_start: dict[str, int] = {}
            self.landed: dict[str, tuple] = {}

    def take(self, ops: int) -> SimpleNamespace:
        """End the window: its aggregates, with the operation count the
        per-operation means divide by; a fresh window starts."""
        window = SimpleNamespace(
            ops=ops, self_ns=self.self_ns, total_ns=self.total_ns,
            calls=self.calls, counts=self.counts, requests=self.requests,
            pool_start=self.pool_start, landed=self.landed)
        self.reset()
        return window

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def highwater(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], n)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            self._thread_names[thread.ident] = thread.name
        return stack

    def _event(self, name: str, t0: int, t1: int, args: dict) -> None:
        if len(self.events) >= MAX_EVENTS:
            self.dropped += 1
            return
        self.events.append((name, t0, t1, threading.get_ident(), args))

    def _close(self, layer, t0, t1, self_ns, chrome, args, result, hook,
               parent) -> None:
        rec = self.op.get()
        with self._lock:
            self.self_ns[layer] += self_ns
            self.total_ns[layer] += t1 - t0
            self.calls[layer] += 1
        if rec is not None:
            rec["layers"][layer] = rec["layers"].get(layer, 0) + self_ns
            rec["children"] += self_ns
            if layer == "store.get":
                rec["key"] = args[1]
                rec["t_get_end"] = t1
        if hook is not None:
            hook(self, args, result)
        if chrome:
            meta = {"op": rec["id"]} if rec is not None else {}
            if parent is not None:
                meta["parent"] = parent
            self._event(layer, t0, t1, meta)

    # -- wrappers --------------------------------------------------------

    def _wrap_sync(self, fn, layer, hook, chrome):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if layer == "pool.call":
                tracer._pool_started(args, kwargs)
            stack = tracer._stack()
            frame = [0, layer]  # [child time, layer] of this span
            stack.append(frame)
            result = returned = None
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                parent = None
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                # Count hooks read the result: only calls that returned.
                tracer._close(layer, t0, t1, dur - frame[0], chrome, args,
                              result, hook if returned else None, parent)

        return wrapper

    def _wrap_async(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            rec = {"id": next(tracer._op_ids), "layers": {}, "children": 0,
                   "key": None, "t_get_end": None, "t0": now()}
            token = tracer.op.set(rec)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec["t1"] = now()
                tracer.op.reset(token)
                with tracer._lock:
                    tracer.requests.append(rec)
                tracer._event(layer, rec["t0"], rec["t1"], {"op": rec["id"]})

        return wrapper

    def _pool_started(self, args, kwargs) -> None:
        """``run_pool(target, items, ..., on_result=cb)``: note when each
        item's job started and time its entry's landing."""
        t = now()
        with self._lock:
            for item in args[1]:
                self.pool_start[item["key"]] = t
            self.counts["pool.points"] += len(args[1])
            self.counts["pool.started"] += 1
        callback = kwargs["on_result"]
        tracer = self

        def on_result(entry):
            t_land = now()
            try:
                callback(entry)
            finally:
                with tracer._lock:
                    tracer.landed[entry["key"]] = (
                        t_land, now(), entry.get("wall_s") or 0.0)
                    tracer.counts["pool.ok"] += entry.get("status") == "ok"

        kwargs["on_result"] = on_result

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        for module_name, path, layer, hook, chrome in INSTRUMENTS:
            module = importlib.import_module(module_name)
            owner = module
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap_sync(raw.__func__, layer, hook, chrome))
            elif inspect.iscoroutinefunction(raw):
                wrapped = self._wrap_async(raw, layer)
            else:
                wrapped = self._wrap_sync(raw, layer, hook, chrome)
            self._patch(owner, attr, raw, wrapped)
            if owner is module:
                # Modules that imported the function by name hold their
                # own reference to it; patch those aliases too.
                for other in list(sys.modules.values()):
                    if (other is not module
                            and getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, "__dict__", {}).get(attr) is raw):
                        self._patch(other, attr, raw, wrapped)
        self.active = True

    def _patch(self, owner, attr, raw, wrapped) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write_chrome(self, path) -> None:
        """Write the kept spans as Chrome trace_event JSON."""
        pid = os.getpid()
        meta = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                 "args": {"name": "hostbench (host time)"}}]
        meta += [{"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                  "args": {"name": name}}
                 for tid, name in self._thread_names.items()]
        spans = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                  "ts": (t0 - self.origin) / 1000, "dur": (t1 - t0) / 1000,
                  "pid": pid, "tid": tid, "args": args}
                 for name, t0, t1, tid, args in self.events]
        doc = {"traceEvents": meta + spans, "displayTimeUnit": "ms",
               "otherData": {"dropped_events": self.dropped}}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_table(rows: dict[str, float], total: float) -> list[tuple]:
    """``(layer, total, share)`` rows plus the ``unattributed`` remainder,
    so the rows always add up to ``total``."""
    out = [(name, value, value / total if total else 0.0)
           for name, value in rows.items() if value]
    rest = total - sum(rows.values())
    out.append(("unattributed", rest, rest / total if total else 0.0))
    return out
