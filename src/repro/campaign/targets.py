"""Campaign targets: the functions a grid point is applied to.

A target takes one **point** — a plain dict of parameters produced by
:meth:`CampaignSpec.points` — and returns one JSON-serializable
**record**.  Records carry the fields the paper's tables plot plus,
where a closed form exists, a ``cost_check`` block in the
:meth:`~repro.obs.check.CostCheckReport.as_dict` shape so the
regression gate (:mod:`repro.campaign.gate`) can fit and compare
residuals without re-running anything.

A target is addressed by its id in :data:`TARGETS` (``"request"``,
``"workload"``, ``"theorem2"``, ``"cb"``, ``"demo"``, ``"dist"``) — the
builtins plus anything registered through :func:`register_target`.
Stack chains, Theorem 1 among them, run through ``"request"``: a grid
point *is* a :class:`~repro.engine.request.RunRequest` document.

:func:`register_target` is the public extension point: register a
callable under a bare id and any :class:`~repro.campaign.spec.
CampaignSpec` (or the service) can address it by name.  One caveat for
user-registered targets: campaign *worker processes* import this module
fresh, so a target registered only in the parent is visible to the
serial path (``workers<=1``) and the service, not to process workers —
put registrations in an importable module if you need the pool.

Targets run inside worker processes, so they import lazily, take only
JSON-serializable input, and must be deterministic in the point (that is
what makes cached records bit-identical across reruns).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ParameterError

__all__ = ["TARGETS", "register_target", "resolve_target", "run_point"]

#: Target ids -> runner callables.  Builtins self-register below via
#: :func:`register_target`.
TARGETS: dict[str, Callable[[dict], dict]] = {}


def register_target(
    name: str,
    fn: Callable[..., dict] | None = None,
    *,
    replace: bool = False,
) -> Callable:
    """Register ``fn`` as the campaign target addressed by ``name``.

    The target callable takes one grid **point** (a plain dict) plus an
    optional ``obs=`` keyword and returns one JSON-serializable record::

        from repro.campaign import register_target

        @register_target("square")
        def square(point, obs=None):
            x = int(point.get("x", 0))
            return {"x": x, "y": x * x}

    Usable directly (``register_target("square", square)``) or as a
    decorator, returning ``fn`` unchanged either way.  Names must be
    non-empty strings.  Registering an already-taken name raises
    :class:`~repro.errors.ParameterError` unless ``replace=True``.
    """
    if fn is None:
        return lambda f: register_target(name, f, replace=replace)
    if not isinstance(name, str) or not name.strip():
        raise ParameterError(
            f"target name must be a non-empty string, got {name!r}"
        )
    if not callable(fn):
        raise ParameterError(
            f"target {name!r} must be callable, got {type(fn).__name__}"
        )
    if name in TARGETS and not replace:
        raise ParameterError(
            f"target {name!r} is already registered "
            f"(pass replace=True to override)"
        )
    TARGETS[name] = fn
    return fn


def _logp_params(point: dict):
    from repro.models.params import LogPParams

    return LogPParams(
        p=int(point.get("p", 16)),
        L=int(point.get("L", 8)),
        o=int(point.get("o", 1)),
        G=int(point.get("G", 2)),
    )


def _target_theorem2(point: dict, obs=None) -> dict:
    """One Theorem-2 run: a balanced ``h``-relation through the Section
    4.2 deterministic protocol, with the measured slowdown checked as a
    ``factor`` residual against the paper's ``S(L, G, p, h)``."""
    from repro.core.det_routing import measure_det_routing
    from repro.models.cost import slowdown_S, t_route_small
    from repro.obs.check import CostCheckReport
    from repro.routing.workloads import balanced_h_relation

    params = _logp_params(point)
    h = int(point.get("h", 4))
    seed = int(point.get("seed", 0))
    m = measure_det_routing(params, balanced_h_relation(params.p, h, seed=seed))
    ideal = t_route_small(h, params)
    observed = m.total_time / max(1, params.G * h + params.L)
    predicted = slowdown_S(params, h)
    check = CostCheckReport(model=f"Theorem 2 (p={params.p}, h={h})")
    check.add("slowdown vs predicted S", observed, predicted, "factor")
    check.add("T total >= 2o+G(h-1)+L", -m.total_time, -ideal, "upper")
    return {
        "p": params.p,
        "h": h,
        "h_discovered": m.h,
        "scheme": m.outcomes[0].sort_scheme,
        "total_time": m.total_time,
        "t_sort": m.phase_time("sorted") - m.phase_time("r_known"),
        "t_cycles": m.phase_time("done") - m.phase_time("s_known"),
        "ideal": ideal,
        "observed_slowdown": round(observed, 6),
        "predicted_slowdown": round(predicted, 6),
        "cost_check": check.as_dict(),
    }


def _target_cb(point: dict, obs=None) -> dict:
    """One Combine-and-Broadcast run checked against Propositions 1/2."""
    import operator

    from repro.core.cb import measure_cb
    from repro.models.cost import cb_time_lower, cb_time_upper
    from repro.obs.check import CostCheckReport

    params = _logp_params(point)
    m = measure_cb(params, [1] * params.p, operator.add, op_cost=0)
    lower = cb_time_lower(params)
    upper = cb_time_upper(params)
    check = CostCheckReport(model=f"CB (p={params.p}, L={params.L}, G={params.G})")
    check.add("T_CB >= Prop1 lower", -m.t_cb, -lower, "upper")
    check.add("T_CB <= paper upper", m.t_cb, upper, "upper")
    return {
        "p": params.p,
        "L": params.L,
        "G": params.G,
        "capacity": params.capacity,
        "t_cb": m.t_cb,
        "lower": lower,
        "upper": upper,
        "cost_check": check.as_dict(),
    }


def _target_demo(point: dict, obs=None) -> dict:
    """Deterministic micro-target for tests, docs, and the smoke make
    target: squares ``x``; ``mode`` forces the failure paths the pool
    must isolate (``fail`` raises, ``crash`` kills the worker process,
    ``timeout`` sleeps past any reasonable per-point budget)."""
    mode = str(point.get("mode", "ok"))
    if mode == "fail":
        raise RuntimeError("demo target asked to fail")
    if mode == "crash":
        import os

        os._exit(17)
    if mode == "timeout":
        import time

        time.sleep(float(point.get("sleep_s", 60.0)))
    x = int(point.get("x", 0))
    return {"x": x, "y": x * x, "seed": point.get("seed", 0)}


def _target_dist(point: dict, obs=None) -> dict:
    """One real-process socket run (:mod:`repro.dist`), audited.

    Point keys: ``program`` (ring/alltoall/pingpong/flood), ``p``,
    ``rounds``, ``seed``, wire-fault rates ``drop``/``dup``/``delay``
    (plus ``max_extra_delay``), and ``kill`` as a ``"pid:superstep"``
    string.  The record keeps only the *deterministic* outcome — final
    states, reference match, audit verdict — never wall-clock or retry
    counts, so cached reruns stay bit-identical even though the wire
    timing differs run to run.
    """
    import tempfile

    from repro.dist import run_dist, run_reference
    from repro.faults.plan import FaultPlan

    program = str(point.get("program", "ring"))
    p = int(point.get("p", 2))
    rounds = int(point.get("rounds", 3))
    seed = int(point.get("seed", 0))
    rates = {
        "drop_rate": float(point.get("drop", 0.0)),
        "dup_rate": float(point.get("dup", 0.0)),
        "delay_rate": float(point.get("delay", 0.0)),
    }
    if rates["delay_rate"]:
        rates["max_extra_delay"] = int(point.get("max_extra_delay", 5))
    crash = None
    kill = str(point.get("kill", "") or "")
    if kill:
        pid_s, _, s_s = kill.partition(":")
        crash = {int(pid_s): int(s_s)}
    plan = None
    if crash or any(rates.values()):
        plan = FaultPlan(seed=seed, crash=crash, **rates)
    log_dir = tempfile.mkdtemp(prefix="repro-dist-pt-")
    kwargs = {"rounds": rounds}
    result = run_dist(program, p, kwargs=kwargs, plan=plan, log_dir=log_dir)
    report = result.analyze()
    expected = run_reference(program, p, kwargs)
    return {
        "program": program,
        "p": p,
        "rounds": rounds,
        "seed": seed,
        "kill": kill,
        **{k: v for k, v in point.items() if k in ("drop", "dup", "delay")},
        "states": result.results,
        "reference_match": result.results == expected,
        "audit_clean": report["clean"],
        "violations": report["protocol_violations"] + report["model_violations"],
    }


def _target_request(point: dict, obs=None) -> dict:
    """One :class:`~repro.engine.request.RunRequest` point: parse the
    request document, build its Stack through the one shared assembly
    path, run it, and record the shared ``as_row`` projection plus the
    cost-check block.  This is the compute path behind
    :class:`~repro.service.SimulationService` misses, and works as a
    plain campaign target too (grid points *are* request documents).

    When the request sets ``metrics``, the run carries its own
    :class:`~repro.obs.Observation` and the registry snapshot is
    embedded in the record — that flag is part of the request's cache
    key, so metrics-bearing records never alias bare ones.
    """
    from repro.engine.request import RunRequest, build_stack
    from repro.obs import CostModelCheck

    req = RunRequest.coerce(point)
    if req.metrics and obs is None:
        from repro.obs import Observation

        obs = Observation()
    stack = build_stack(req)
    result = stack.run(obs=obs)
    row = result.as_row() if hasattr(result, "as_row") else {}
    record = {"request": req.to_dict(), "chain": stack.describe(), **row}
    try:
        record["cost_check"] = CostModelCheck.check(result).as_dict()
    except TypeError:
        pass
    if req.metrics and obs is not None:
        record["metrics"] = obs.metrics.as_dict()
    return record


def _target_workload(point: dict, obs=None) -> dict:
    """One :mod:`repro.workloads` registry point: resolve the entry,
    run it end-to-end through the request path, fold its analytic cost
    model into the ledger check, and validate reference output.

    Point keys: ``workload`` (registry name, required), ``p``, ``seed``,
    optional ``chain`` (defaults to the entry's native model) and
    ``kernel``, plus the entry's own parameter axes (``n``,
    ``keys_per_proc``, ...).  Grid points the entry does not support
    (wrong divisibility, non-power-of-two ``p``, ...) come back as
    ``{"skipped": ...}`` records instead of failures, so dense cartesian
    grids can sweep sparse valid regions."""
    from repro.workloads import get, run_workload

    name = str(point.get("workload", ""))
    w = get(name)  # raises with the known names on a miss
    p = int(point.get("p", w.defaults["p"]))
    seed = int(point.get("seed", 0))
    reserved = ("workload", "p", "seed", "chain", "kernel")
    params = {k: v for k, v in point.items() if k not in reserved}
    merged = {k: v for k, v in w.merged(params).items() if k != "seed"}
    base = {"workload": name, "p": p, "seed": seed, **merged}
    if w.supports is not None and not w.supports(p, merged):
        return {**base, "skipped": "unsupported grid point"}
    run = run_workload(
        name,
        p=p,
        seed=seed,
        params=params,
        chain=point.get("chain"),
        kernel=point.get("kernel"),
        obs=obs,
    )
    record = run.as_record()
    record.pop("request", None)  # the point already names the coordinates
    return {**base, **record}


register_target("theorem2", _target_theorem2)
register_target("cb", _target_cb)
register_target("demo", _target_demo)
register_target("dist", _target_dist)
register_target("request", _target_request)
register_target("workload", _target_workload)


def resolve_target(name: str) -> Callable[[dict], dict]:
    """Resolve a spec's ``target`` string to its runner callable."""
    fn = TARGETS.get(name)
    if fn is None:
        known = ", ".join(sorted(TARGETS))
        raise ParameterError(
            f"unknown campaign target {name!r} (known: {known}; "
            f"register your own with repro.campaign.register_target)"
        )
    return fn


def run_point(target: str, point: dict, obs=None) -> dict:
    """Resolve and run one point (the serial path and the CLI reuse).

    ``obs`` threads an :class:`~repro.obs.Observation` into targets that
    support one — the CLI's ``--metrics``/``--trace`` path.  Campaign
    workers always pass ``None``: per-point observation would entangle
    records with registry state and break their bit-identical caching.
    """
    return resolve_target(target)(point, obs=obs)
