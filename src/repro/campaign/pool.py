"""Multiprocessing worker pool: chunked work-stealing, crash isolation.

The pool shards a campaign's pending points across ``workers`` OS
processes.  Scheduling is *chunked work-stealing*: the parent splits the
work list into small chunks on a shared queue and every worker pulls its
next chunk when it finishes the last one, so fast workers naturally
steal load from slow ones without any balancing logic in the parent.

Failure philosophy mirrors :mod:`repro.faults`, lifted to the harness:

* a point that **raises** fails that point (``status="failed"``);
* a point that exceeds the per-point **timeout** is interrupted inside
  the worker via ``SIGALRM`` (``status="timeout"``); where the alarm
  cannot fire (non-main thread, no ``setitimer``) a watchdog thread
  still times the point out, loudly warning that it cannot interrupt it;
* a worker process that **dies** (segfault, ``os._exit``, OOM-kill)
  fails only the point it had started — the parent re-queues the rest
  of the dead worker's chunk, spawns a replacement (bounded by a respawn
  budget), and the campaign keeps going.  If every worker is gone and
  the budget is spent, the parent finishes the remaining points serially
  rather than deadlock.

Each worker reports on its own pipe, whose ``send`` returns only once
the frame is written.  Everything a worker reported before it died is
therefore readable after its death, and the parent reads it all before
charging the crash: only a point whose ``start`` has no matching
``done`` is ever recorded as ``crashed``.

Every completed point is reported to the caller *as it lands* via the
``on_result`` callback (the runner appends it to the
:class:`~repro.campaign.store.ResultStore` immediately — that is what
makes kill-and-resume lossless).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from multiprocessing.connection import Connection, wait as wait_ready

__all__ = ["run_pool", "run_serial", "execute_point"]

#: Upper bound on points per chunk; small chunks keep stealing granular.
MAX_CHUNK = 8


def _watchdog_execute(target_fn, point: dict, timeout_s: float, key: str):
    """Timeout fallback where SIGALRM cannot fire (non-main thread, or a
    platform without ``setitimer``): run the target in a daemon thread
    and give up waiting after ``timeout_s``.  The point is reported as
    ``timeout`` either way, but unlike the alarm path the target cannot
    be *interrupted* — it keeps running in its thread until the process
    exits, so the degradation is surfaced as a ``RuntimeWarning`` rather
    than hidden.  Returns ``(status, record, error)``."""
    import threading
    import warnings

    box: dict = {}

    def _body() -> None:
        try:
            box["record"] = target_fn(point)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            box["error"] = f"{type(exc).__name__}: {exc}"

    thread = threading.Thread(
        target=_body, daemon=True, name=f"campaign-watchdog-{key}"
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        warnings.warn(
            f"point {key}: SIGALRM unavailable here, so the watchdog "
            f"thread timed the point out after {timeout_s}s but cannot "
            f"interrupt it; the target keeps running in a daemon thread "
            f"until this process exits",
            RuntimeWarning,
            stacklevel=3,
        )
        return "timeout", None, f"point {key} exceeded {timeout_s}s (watchdog)"
    if "error" in box:
        return "failed", None, box["error"]
    return "ok", box.get("record"), None


def execute_point(target_fn, item: dict, timeout_s: float | None) -> dict:
    """Run one point under an optional timeout; never raises.

    The timeout is enforced by ``SIGALRM``/``setitimer`` when possible
    (main thread of a worker process — the normal pool path).  Called
    from a non-main thread or a platform without ``setitimer``, it
    degrades to a watchdog thread (:func:`_watchdog_execute`): same
    ``timeout`` status, but with a visible ``RuntimeWarning`` because
    the overrunning target cannot actually be interrupted.

    Returns the store entry: ``{key, index, point, status, record,
    error, wall_s}`` with ``status`` one of ``ok | failed | timeout``.
    """
    import signal
    import threading

    key, index, point = item["key"], item["index"], item["point"]
    use_alarm = (
        timeout_s is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )

    def _on_alarm(signum, frame):
        raise TimeoutError(f"point {key} exceeded {timeout_s}s")

    t0 = time.perf_counter()
    status, record, error = "ok", None, None
    old_handler = None
    if timeout_s is not None and not use_alarm:
        status, record, error = _watchdog_execute(target_fn, point, timeout_s, key)
        return {
            "key": key,
            "index": index,
            "point": point,
            "status": status,
            "record": record,
            "error": error,
            "wall_s": round(time.perf_counter() - t0, 6),
        }
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        record = target_fn(point)
    except TimeoutError as exc:
        status, error = "timeout", str(exc)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        status, error = "failed", f"{type(exc).__name__}: {exc}"
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
    return {
        "key": key,
        "index": index,
        "point": point,
        "status": status,
        "record": record,
        "error": error,
        "wall_s": round(time.perf_counter() - t0, 6),
    }


def run_serial(target_fn, items, timeout_s, on_result) -> None:
    """In-process fallback (``parallel <= 1`` and the pool's last
    resort): same entry shape, same callback protocol."""
    for item in items:
        entry = execute_point(target_fn, item, timeout_s)
        entry["worker"] = 0
        on_result(entry)


def _worker_main(worker_id: int, target_name: str, timeout_s, task_q, conn):
    """Worker process body: pull chunks until the ``None`` sentinel,
    reporting each step on ``conn`` (this worker's own pipe)."""
    from repro.campaign.targets import resolve_target

    try:
        target_fn = resolve_target(target_name)
    except Exception as exc:  # bad target: fail fast, visibly
        conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        return
    busy = 0.0
    while True:
        chunk = task_q.get()
        if chunk is None:
            break
        conn.send(("chunk", [item["key"] for item in chunk]))
        for item in chunk:
            conn.send(("start", item["key"]))
            entry = execute_point(target_fn, item, timeout_s)
            entry["worker"] = worker_id
            busy += entry["wall_s"]
            conn.send(("done", entry))
    conn.send(("exit", busy))


def _isolated_main(target_name: str, item: dict, timeout_s, conn) -> None:
    """Single-shot subprocess body for :func:`_run_isolated`."""
    from repro.campaign.targets import resolve_target

    conn.send(execute_point(resolve_target(target_name), item, timeout_s))


def _run_isolated(ctx, target_name: str, item: dict, timeout_s) -> dict:
    """Run one point in a dedicated subprocess; a dying process yields a
    ``crashed`` entry instead of killing the caller."""
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_isolated_main,
        args=(target_name, item, timeout_s, writer),
        daemon=True,
    )
    t0 = time.perf_counter()
    proc.start()
    writer.close()  # the child holds the only write end: EOF means it died
    entry = None
    # Readable once the entry is written, or at EOF when the child died.
    if reader.poll((timeout_s or 0) + 30.0):
        try:
            entry = reader.recv()
        except (EOFError, OSError):
            entry = None
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=2.0)
    reader.close()
    if entry is None:
        entry = {
            "key": item["key"],
            "index": item["index"],
            "point": item["point"],
            "status": "crashed",
            "record": None,
            "error": "isolated worker process died while running this point",
            "wall_s": round(time.perf_counter() - t0, 6),
        }
    entry["worker"] = -1
    return entry


def _chunks(items: list, workers: int) -> list[list]:
    if not items:
        return []
    size = max(1, min(MAX_CHUNK, len(items) // (workers * 4) or 1))
    return [items[i : i + size] for i in range(0, len(items), size)]


class PoolStats:
    """What the pool can say about its own efficiency."""

    def __init__(self) -> None:
        self.workers = 0
        self.respawns = 0
        self.crashed_workers = 0
        self.busy_s = 0.0
        self.wall_s = 0.0

    def utilization(self) -> float:
        denom = self.workers * self.wall_s
        return self.busy_s / denom if denom else 0.0


def run_pool(
    target_name: str,
    items: list[dict],
    *,
    workers: int,
    timeout_s: float | None,
    on_result,
    stop_after: int | None = None,
) -> PoolStats:
    """Shard ``items`` over ``workers`` processes; report entries via
    ``on_result`` as they complete.

    ``stop_after`` simulates a kill for resume testing and the CI smoke:
    once that many entries have landed, outstanding workers are
    terminated and the remaining points are left unrun (the store keeps
    what finished).
    """
    stats = PoolStats()
    stats.workers = workers
    t_start = time.perf_counter()
    if workers <= 1 or len(items) <= 1:
        from repro.campaign.targets import resolve_target

        target_fn = resolve_target(target_name)
        done = 0
        for item in items:
            if stop_after is not None and done >= stop_after:
                break
            entry = execute_point(target_fn, item, timeout_s)
            entry["worker"] = 0
            on_result(entry)
            stats.busy_s += entry["wall_s"]
            done += 1
        stats.workers = 1
        stats.wall_s = time.perf_counter() - t_start
        return stats

    ctx = mp.get_context()
    task_q = ctx.Queue()
    for chunk in _chunks(items, workers):
        task_q.put(chunk)

    procs: dict[int, mp.Process] = {}  # every worker ever started
    conns: dict[int, Connection] = {}  # worker -> its report pipe, until EOF
    unreaped: set[int] = set()  # workers whose end is not yet handled
    next_id = 0

    def _spawn() -> None:
        nonlocal next_id
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(next_id, target_name, timeout_s, task_q, writer),
            daemon=True,
        )
        proc.start()
        writer.close()  # the worker holds the only write end
        procs[next_id] = proc
        conns[next_id] = reader
        unreaped.add(next_id)
        next_id += 1

    for _ in range(workers):
        _spawn()

    remaining = {item["key"] for item in items}
    by_key = {item["key"]: item for item in items}
    claimed: dict[int, list[str]] = {}  # worker -> chunk keys not yet done
    started: dict[int, str] = {}  # worker -> key started and not yet done
    respawn_budget = workers
    exited: set[int] = set()
    done_count = 0
    stopping = False

    def _record(entry: dict) -> None:
        nonlocal done_count
        remaining.discard(entry["key"])
        on_result(entry)
        done_count += 1

    def _on_message(worker_id: int, msg: tuple) -> None:
        nonlocal stopping
        kind, payload = msg
        if kind == "chunk":
            claimed[worker_id] = list(payload)
        elif kind == "start":
            started[worker_id] = payload
        elif kind == "done":
            key = payload["key"]
            if started.get(worker_id) == key:
                del started[worker_id]
            keys = claimed.get(worker_id)
            if keys and key in keys:
                keys.remove(key)
            if key in remaining and not stopping:
                stats.busy_s += payload.get("wall_s", 0.0)
                _record(payload)
                if stop_after is not None and done_count >= stop_after:
                    stopping = True
        elif kind == "exit":
            exited.add(worker_id)
        elif kind == "fatal":
            for proc in procs.values():
                proc.terminate()
            raise RuntimeError(f"campaign worker {worker_id}: {payload}")

    def _drain(worker_id: int) -> None:
        """Handle every frame the worker has written so far; at EOF its
        pipe is closed and leaves the wait set."""
        conn = conns.get(worker_id)
        if conn is None:
            return
        try:
            while conn.poll():
                _on_message(worker_id, conn.recv())
        except (EOFError, OSError):
            del conns[worker_id]
            conn.close()

    def _handle_crash(worker_id: int) -> None:
        """Fail the in-flight point, requeue the rest of the chunk."""
        nonlocal respawn_budget
        stats.crashed_workers += 1
        key = started.pop(worker_id, None)
        chunk_keys = claimed.pop(worker_id, [])
        if key is not None and key in remaining:
            item = by_key[key]
            _record(
                {
                    "key": key,
                    "index": item["index"],
                    "point": item["point"],
                    "status": "crashed",
                    "record": None,
                    "error": "worker process died while running this point",
                    "wall_s": 0.0,
                    "worker": worker_id,
                }
            )
        requeue = [by_key[k] for k in chunk_keys if k in remaining]
        if requeue:
            task_q.put(requeue)
        if respawn_budget > 0 and remaining and not stopping:
            respawn_budget -= 1
            stats.respawns += 1
            _spawn()

    def _reap(worker_id: int) -> None:
        """The worker's process has ended: read everything it reported,
        then charge a crash only if it never said it was exiting."""
        _drain(worker_id)
        conn = conns.pop(worker_id, None)
        if conn is not None:  # a surviving child of the point keeps it open
            conn.close()
        unreaped.discard(worker_id)
        procs[worker_id].join(timeout=0)
        if worker_id not in exited:
            _handle_crash(worker_id)

    def _pump(timeout: float) -> bool:
        """Wait up to ``timeout`` for reports or worker exits and handle
        them; False when nothing arrived."""
        pipes = {conn: wid for wid, conn in conns.items()}
        sentinels = {procs[wid].sentinel: wid for wid in unreaped}
        ready = wait_ready([*pipes, *sentinels], timeout)
        for obj in ready:
            if obj in pipes:
                _drain(pipes[obj])
        for obj in ready:
            if obj in sentinels:
                _reap(sentinels[obj])
        return bool(ready)

    def _finish_isolated() -> None:
        """Last resort (all workers dead, or orphaned points nobody will
        ever claim): run each leftover point in its own single-shot
        subprocess, so a point that kills its process cannot take the
        campaign down with it."""
        nonlocal stopping
        while True:
            try:
                task_q.get_nowait()
            except queue_mod.Empty:
                break
        for key in sorted(remaining, key=lambda k: by_key[k]["index"]):
            if stop_after is not None and done_count >= stop_after:
                stopping = True
                break
            entry = _run_isolated(ctx, target_name, by_key[key], timeout_s)
            stats.busy_s += entry["wall_s"]
            _record(entry)

    idle_rounds = 0
    while remaining and not stopping:
        if not unreaped:
            # Every worker is gone and the respawn budget is spent.
            _finish_isolated()
            break
        if _pump(0.25):
            idle_rounds = 0
            continue
        idle_rounds += 1
        if idle_rounds >= 20 and not started:
            # Workers alive but idle, nothing in flight, results missing:
            # a worker died between claiming a chunk and reporting it.
            # The orphaned points will never be claimed — run them here.
            _finish_isolated()
            break

    # Shut down: terminate on stop_after, else sentinels for live workers.
    if stopping:
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
    else:
        for _ in unreaped:
            task_q.put(None)
        deadline = time.monotonic() + 5.0
        while unreaped and time.monotonic() < deadline:
            _pump(0.1)
        for wid in unreaped:
            procs[wid].terminate()
    for proc in procs.values():
        proc.join(timeout=2.0)
    for conn in conns.values():
        conn.close()
    task_q.cancel_join_thread()
    stats.wall_s = time.perf_counter() - t_start
    return stats
