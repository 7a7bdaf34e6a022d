"""Host-time benchmark of the BSP/LogP reproduction, end to end and by layer.

Run one workload from the root of a checkout::

    python3 hostbench/run.py --workload serve_hit --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the program as shipped and reports the
end-to-end metrics.  ``--trace 1`` measures the first half of
``--seconds`` untraced and the second half traced, reports the
per-layer metrics and the trace overhead, prints the layer tables, and
writes a Chrome trace to ``.hostbench/trace-<workload>-<seed>.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.  See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".hostbench"
WORKLOAD_NAMES = ("serve_hit", "serve_miss", "sweep_route", "stack_3layer")


def calibrate() -> float:
    """A fixed pure-Python loop (median of 5, in ms): host drift, not
    program speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def host_facts() -> str:
    import numpy
    from repro.campaign.fingerprint import code_fingerprint

    head = ROOT / ".git" / "HEAD"
    commit = "n/a (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} commit={commit} "
            f"source_fingerprint={code_fingerprint()[:16]}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


async def run_serve(wl, args, tracer):
    for i in range(wl.setups):
        t0 = time.perf_counter()
        await wl.setup()
        wl.setup_s.append(time.perf_counter() - t0)
        if i < wl.setups - 1:
            await wl.teardown()
    try:
        phases = await measure_phases(wl, args, tracer, is_async=True)
        rss = peak_rss_mb()
        wl.reconcile()
        stats = wl.svc.stats.as_dict()
    finally:
        await wl.teardown()
    verify(wl, tracer)
    return phases, rss, stats


def run_sync(wl, args, tracer):
    wl.setup()
    phases = asyncio.run(measure_phases(wl, args, tracer, is_async=False))
    rss = peak_rss_mb()
    verify(wl, tracer)
    return phases, rss, None


async def measure_phases(wl, args, tracer, *, is_async):
    """Untraced: one phase of ``--seconds``.  Traced: half untraced, then
    half traced.  Returns ``[(ops, elapsed_s, traced, ops_per_s)]``."""

    async def phase(seconds, t):
        before = len(wl.latencies)
        if is_async:
            elapsed = await wl.measure(seconds, t)
        else:
            elapsed = wl.measure(seconds, t)
        ops = len(wl.latencies) - before
        if wl.name == "sweep_route":
            ops *= len(wl.points)  # an operation is a grid point
        return ops, elapsed, t is not None, wl.figures[0]

    if tracer is None:
        return [await phase(args.seconds, None)]
    first = await phase(args.seconds / 2, None)
    wl.plan_cache = [plan_cache_totals()]
    tracer.install()
    try:
        if is_async:
            # The service binds run_pool when it starts: restart it traced.
            await wl.teardown()
            await wl.setup()
        second = await phase(args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    wl.plan_cache.append(plan_cache_totals())
    return [first, second]


def verify(wl, tracer) -> None:
    """In-process recompute of a sample; traced, it gives the per-point
    compute rows for workloads whose points run in pool workers."""
    from loads import compute_rows

    if tracer is None or wl.name == "stack_3layer":
        wl.verify()
        return
    tracer.install()
    try:
        tracer.reset()
        t0 = time.perf_counter_ns()
        wl.verify()
        total = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    calls = tracer.calls["engine.run"]
    window = tracer.take(calls)
    wl.windows["recompute"] = window
    wl.layers["in-process recompute"] = [calls, total, compute_rows(window, total)]


def e2e_metrics(wl, rss) -> tuple[dict, str]:
    from loads import fast, percentile, tail

    rate, p50, pct, tail_s, above, scope = wl.figures
    raw_pct, raw_tail, _ = tail(wl.latencies)
    ok = wl.attempted - wl.failed
    metrics = {
        "throughput_ops": (rate, "1/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (fast(wl.setup_s), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "ok_ratio": (ok / wl.attempted if wl.attempted else 0.0, "ratio"),
    }
    note = (f"latency_tail_ms is p{pct} ({above} samples above it); figures "
            f"{scope}. Unfiltered over all {len(wl.latencies)} "
            f"operations: p50 {percentile(wl.latencies, 50) * 1000:.4f} ms, "
            f"p{raw_pct} {raw_tail * 1000:.4f} ms. setup_s is the fast decile of "
            f"{len(wl.setup_s)} set-ups (first {wl.setup_s[0]:.4f} s, median "
            f"{statistics.median(wl.setup_s):.4f} s, max {max(wl.setup_s):.4f} s)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, note


def per_op(window, layer: str, scale: float) -> float:
    return window.self_ns[layer] / window.ops / scale if window and window.ops else 0.0


def layer_metrics(wl, phases, stats) -> dict:
    """Every per-layer metric; a layer the workload never reaches reads 0.
    Compute layers come from the timed window when it reached them, else
    from the traced in-process recompute."""
    prim = wl.windows.get("primary")
    recompute = wl.windows.get("recompute")

    def pick(layer):
        if prim is not None and prim.calls.get(layer):
            return prim
        return recompute if recompute is not None and recompute.calls.get(layer) else None

    def count(name, window=None):
        w = window if window is not None else prim
        return w.counts.get(name, 0) if w is not None else 0

    out: dict[str, tuple] = {}
    rows = getattr(prim, "rows", None)
    misses = sum(1 for r in prim.requests if r["key"] in prim.landed) if rows else 0
    if rows:
        n = prim.ops
        out["protocol.overhead_us"] = (rows["protocol.overhead"] / n / 1e3, "us")
        out["service.submit_self_us"] = (rows["service.submit"] / n / 1e3, "us")
        out["service.dispatch_wait_ms"] = (
            rows["service.dispatch_wait"] / misses / 1e6 if misses else 0.0, "ms")
    else:
        for name, unit in (("protocol.overhead_us", "us"), ("service.submit_self_us", "us"),
                           ("service.dispatch_wait_ms", "ms")):
            out[name] = (0.0, unit)
    stats = stats or {}
    for name in ("hit", "miss", "dedup", "pool_jobs", "pool_points"):
        out[f"service.{name}"] = (stats.get(name, 0), "count")
    jobs = stats.get("pool_jobs", 0)
    out["service.batch_points"] = (stats.get("pool_points", 0) / jobs if jobs else 0.0, "points")

    w = pick("request.parse")
    out["request.parse_us"] = (per_op(w, "request.parse", 1e3), "us")
    out["request.key_us"] = (per_op(pick("request.key"), "request.key", 1e3), "us")
    out["request.calls"] = (sum((w.calls.get(k, 0) if w else 0)
                                for k in ("request.parse", "request.key")), "count")
    w = pick("store.get")
    out["store.get_us"] = (per_op(w, "store.get", 1e3), "us")
    out["store.gets"] = (w.calls.get("store.get", 0) if w else 0, "count")
    w = pick("store.append")
    out["store.append_ms"] = (per_op(w, "store.append", 1e6), "ms")
    out["store.appends"] = (count("store.appends", w), "count")

    w = pick("pool.call")
    calls = w.calls.get("pool.call", 0) if w else 0
    points = count("pool.points", w)
    busy, capacity = count("pool.busy_ns", w), count("pool.capacity_ns", w)
    out["pool.call_ms"] = (w.total_ns["pool.call"] / calls / 1e6 if calls else 0.0, "ms")
    out["pool.calls"] = (calls, "count")
    out["pool.compute_ms"] = (busy / points / 1e6 if points else 0.0, "ms")
    if rows and misses:
        transit = rows["pool.transit"] / misses
    elif points:  # the pool's wall time its workers were not computing
        transit = w.total_ns["pool.call"] * (1 - busy / capacity) / points
    else:
        transit = 0.0
    out["pool.transit_ms"] = (transit / 1e6, "ms")
    out["pool.utilization"] = (busy / capacity if capacity else 0.0, "ratio")
    out["pool.ok_ratio"] = (count("pool.ok", w) / points if points else 0.0, "ratio")
    w = pick("campaign.run")
    out["campaign.self_ms"] = (
        w.self_ns["campaign.run"] / w.calls["campaign.run"] / 1e6 if w else 0.0, "ms")

    for metric, layer in (("engine.build_stack_ms", "engine.build_stack"),
                          ("engine.run_ms", "engine.run"),
                          ("bsp.machine_ms", "bsp.machine"),
                          ("bsp.driver_ms", "bsp.driver"),
                          ("logp.machine_self_ms", "logp.machine"),
                          ("network.delivery_ms", "network.delivery"),
                          ("route.ms", "route")):
        out[metric] = (per_op(pick(layer), layer, 1e6), "ms")

    def per_op_count(name, layer):
        w = pick(layer)
        return w.counts.get(name, 0) / w.ops if w is not None and w.ops else 0.0

    out["bsp.supersteps"] = (per_op_count("bsp.supersteps", "bsp.machine"), "count")
    out["bsp.h_words"] = (per_op_count("bsp.h_words", "bsp.machine"), "count")
    for name in ("logp.events", "logp.batches"):
        out[name] = (per_op_count(name, "logp.machine"), "count")
    w = pick("logp.machine")
    events = w.counts.get("logp.events", 0) if w else 0
    out["logp.ns_per_event"] = (w.self_ns["logp.machine"] / events if events else 0.0, "ns")
    out["logp.queue_highwater"] = (w.counts.get("logp.queue_highwater", 0) if w else 0, "count")
    w = pick("network.delivery")
    out["network.delivery_calls"] = (
        w.calls["network.delivery"] / w.ops if w is not None and w.ops else 0.0, "count")
    out["network.violations"] = (per_op_count("network.violations", "network.delivery"), "count")
    for name in ("route.events", "route.packets"):
        out[name] = (per_op_count(name, "route"), "count")
    w = pick("route")
    events = w.counts.get("route.events", 0) if w else 0
    out["route.ns_per_event"] = (w.self_ns["route"] / events if events else 0.0, "ns")

    hits = wl.plan_cache[1][0] - wl.plan_cache[0][0]
    misses_pc = wl.plan_cache[1][1] - wl.plan_cache[0][1]
    out["perf.plan_cache_hits"] = (hits, "count")
    out["perf.plan_cache_misses"] = (misses_pc, "count")

    first = next(iter(wl.layers.values()))
    out["unattributed_share"] = (first[2][-1][2], "ratio")
    out["trace_overhead"] = (1 - phases[1][3] / phases[0][3], "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def plan_cache_totals() -> tuple[int, int]:
    from repro.perf.memo import plan_cache_stats

    stats = plan_cache_stats().values()
    return (sum(s.get("hits", 0) for s in stats), sum(s.get("misses", 0) for s in stats))


def print_tables(wl) -> None:
    for title, (ops, total_ns, rows) in wl.layers.items():
        print(f"-- layer table: {title} ({ops} operations, "
              f"mean {total_ns / max(1, ops) / 1e6:.4f} ms each) --")
        for name, value, share in rows:
            print(f"   {name:24s} {value / max(1, ops) / 1e6:12.4f} ms/op {share * 100:7.2f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hostbench: no repro sources under {ROOT / 'src'}; run it "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import loads
    from tracing import Tracer

    print(host_facts())
    calibration = [calibrate()]
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    wl = loads.WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    try:
        if args.workload.startswith("serve_"):
            phases, rss, stats = asyncio.run(run_serve(wl, args, tracer))
        else:
            phases, rss, stats = run_sync(wl, args, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = loads.Ledger(STATE)
    ledger.settle(wl)
    calibration.append(calibrate())

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} phases (ops, s, traced, ops/s): "
          f"{[(o, round(e, 3), t, round(r, 3)) for o, e, t, r in phases]}")
    print(f"calibration loop: start {calibration[0]:.2f} ms, end "
          f"{calibration[1]:.2f} ms, drift {(calibration[1] / calibration[0] - 1) * 100:+.1f} %")
    print(f"digests: {ledger.checked} compared with earlier runs, {ledger.added} new")
    if wl.known_failures:
        print("known compute-time failures (predicted type, checked): "
              + ", ".join(f"{k}={v}" for k, v in sorted(wl.known_failures.items())))
    if stats is not None:
        print("service stats: " + json.dumps({k: v for k, v in stats.items() if k != "latency"}))
    for problem in wl.problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = layer_metrics(wl, phases, stats)
        print_tables(wl)
        path = STATE / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_chrome(path)
        print(f"trace: {len(tracer.events)} spans written to {path.relative_to(ROOT)} "
              f"({tracer.dropped} dropped); trace overhead "
              f"{metrics['trace_overhead']['value'] * 100:+.1f} % of untraced throughput_ops")
    else:
        metrics, note = e2e_metrics(wl, rss)
        print(note)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    correct = not wl.problems
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
