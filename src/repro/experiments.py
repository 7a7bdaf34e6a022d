"""Command-line experiment runner: regenerate the paper's tables.

``python -m repro.experiments list`` shows the experiment ids (matching
DESIGN.md's index) and the built-in campaign names; ``python -m
repro.experiments run <id> [...]`` or ``run all`` prints the
corresponding tables (``--parallel N`` shards the ids over worker
processes).  ``python -m repro.experiments inspect <chain>`` runs a
demo program through a named :class:`~repro.engine.stack.Stack` chain
(``bsp-on-logp-on-network``, ``logp-on-bsp``, ...) and prints its
result row, cost-model residuals, and — with the shared observability
flags — metrics and traces.  ``python -m repro.experiments campaign
<name>`` runs a resumable, cache-backed parameter sweep over a
multiprocessing pool (``--parallel``, ``--resume``, ``--force``,
``--gate``; see :mod:`repro.campaign` and ``docs/CAMPAIGN.md``).

Shared flags (``run`` and ``inspect``):

* ``--json`` — emit one machine-readable JSON document per experiment
  alongside each pretty table, rows built on the shared
  :meth:`~repro.engine.result.MachineResult.as_row` projection where the
  underlying reports provide it;
* ``--metrics`` — attach an :class:`~repro.obs.Observation` and print
  its metric registry after the run;
* ``--trace OUT.json`` — additionally record layer-labelled spans and
  write a Chrome ``trace_event`` file loadable in Perfetto
  (``run`` with several ids writes one file per id, the id spliced in
  before the extension).

The pytest benchmarks in ``benchmarks/`` run the same code with shape
assertions and persistence; this runner is the zero-dependency way to
eyeball results.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.perf.event_queue import KERNELS
from repro.util.tables import render_table

__all__ = ["main", "EXPERIMENTS", "ExperimentTable"]


@dataclass
class ExperimentTable:
    """One experiment's outcome: a pretty table plus machine-readable rows.

    ``rows`` holds the display tuples exactly as :func:`render_table`
    shows them; ``records``, when supplied, holds richer per-row dicts —
    typically a :meth:`MachineResult.as_row` projection merged with the
    experiment's configuration axes.  When absent, records are derived
    by zipping the display columns.  ``extras`` holds pre-rendered
    blocks (cost-check reports, ...) printed after the main table.
    """

    id: str
    title: str
    columns: list[str]
    rows: list[tuple]
    records: list[dict] | None = field(default=None)
    extras: list[str] = field(default_factory=list)

    def render(self) -> str:
        out = render_table(self.columns, self.rows, title=self.title)
        for block in self.extras:
            out += "\n\n" + block
        return out

    def as_json(self) -> dict:
        records = self.records
        if records is None:
            records = [dict(zip(self.columns, row)) for row in self.rows]
        return {"id": self.id, "title": self.title, "rows": records}


def _exp_table1(obs=None) -> ExperimentTable:
    from repro.models.cost import TABLE1
    from repro.networks.params import TOPOLOGY_BUILDERS, measure_network_params

    rows = []
    for name, builder in TOPOLOGY_BUILDERS.items():
        for p in (16, 64):
            topo, config = builder(p)
            meas = measure_network_params(
                topo, table_name=name, hs=(1, 2, 4, 8), seeds=(0, 1),
                config=config, obs=obs,
            )
            th_g, th_d = meas.theory()
            costs = TABLE1[name]
            rows.append(
                (
                    name,
                    meas.p,
                    f"{meas.gamma:.2f}",
                    f"{th_g:.1f} ~ {costs.gamma_expr}",
                    f"{meas.delta:.2f}",
                    f"{th_d:.1f} ~ {costs.delta_expr}",
                )
            )
    return ExperimentTable(
        "T1",
        "T1 — Table 1: fitted T(h) = gamma h + delta per topology",
        ["topology", "p", "gamma fit", "gamma Table 1", "delta fit", "delta Table 1"],
        rows,
    )


def _exp_theorem1(obs=None) -> ExperimentTable:
    """A view over ``logp-on-bsp`` points of the ``request`` campaign
    target: the CLI table and the ``th1-grid`` campaign run the exact
    same per-point code, so their records are interchangeable."""
    from repro.campaign.targets import run_point
    from repro.models.params import LogPParams
    from repro.obs.check import CostCheckReport

    logp = LogPParams(p=16, L=8, o=1, G=2)
    rows = []
    records = []
    extras = []
    for gs, ls in ((1, 1), (4, 1), (1, 4), (4, 4)):
        g, l = logp.G * gs, logp.L * ls
        point = {"chain": "logp-on-bsp", "program": "alltoall", "p": logp.p,
                 "params": {"L": logp.L, "o": logp.o, "G": logp.G, "g": g, "l": l}}
        rec = run_point("request", point, obs=obs)
        check = CostCheckReport.from_dict(rec["cost_check"])
        rows.append(
            (
                f"g={g}, l={l}",
                rec["windows"],
                rec["max_window_h"],
                logp.capacity,
                f"{rec['slowdown']:.2f}",
                f"{rec['predicted_slowdown']:.2f}",
                rec["outputs_match"],
                check.ok(),
            )
        )
        records.append(rec)
        if not extras:  # full residual detail for the matched machine
            extras.append(check.render())
    return ExperimentTable(
        "TH1",
        "TH1 — Theorem 1: stall-free LogP (all-to-all) on BSP  [LogP p=16, L=8, o=1, G=2]",
        ["BSP machine", "cycles", "max h", "ceil(L/G)", "slowdown", "predicted",
         "outputs match", "residuals ok"],
        rows,
        records=records,
        extras=extras,
    )


def _exp_cb(obs=None) -> ExperimentTable:
    """A view over the ``cb`` campaign target (the ``cb-grid`` code)."""
    from repro.campaign.targets import run_point

    rows = []
    for p in (8, 64, 512):
        for L, G in ((8, 8), (8, 2), (16, 2)):
            rec = run_point("cb", {"p": p, "L": L, "o": 1, "G": G})
            rows.append(
                (
                    p,
                    rec["capacity"],
                    rec["t_cb"],
                    f"{rec['lower']:.0f}",
                    f"{rec['upper']:.0f}",
                )
            )
    return ExperimentTable(
        "P1",
        "P1 — Propositions 1/2: Combine-and-Broadcast cost (o=1)",
        ["p", "ceil(L/G)", "T_CB", "Prop1 lower", "paper upper"],
        rows,
    )


def _exp_theorem2(obs=None) -> ExperimentTable:
    """A view over the ``theorem2`` campaign target (the ``th2-grid``
    code); each relation is drawn with ``seed=h``."""
    from repro.campaign.targets import run_point

    L, G = 8, 2
    rows = []
    for h in (1, 4, 16, 64, 256, 512):
        rec = run_point("theorem2", {"p": 16, "L": L, "o": 1, "G": G, "h": h, "seed": h})
        rows.append(
            (
                h,
                rec["scheme"],
                rec["total_time"],
                rec["ideal"],
                f"{rec['total_time'] / (G * h + L):.1f}",
            )
        )
    return ExperimentTable(
        "TH2",
        "TH2 — Theorem 2: deterministic h-relation routing (p=16, L=8, o=1, G=2)",
        ["h", "scheme", "T total", "optimal", "T/(Gh+L)"],
        rows,
    )


def _exp_theorem3(obs=None) -> ExperimentTable:
    from repro.core.rand_routing import measure_rand_routing
    from repro.models.params import LogPParams
    from repro.routing.workloads import balanced_h_relation

    params = LogPParams(p=16, L=16, o=1, G=2)
    pairs = balanced_h_relation(params.p, 16, seed=123)
    rows = []
    for R in (2, 4, 8, 16):
        runs = [measure_rand_routing(params, pairs, seed=s, R=R) for s in range(6)]
        rows.append(
            (
                R,
                f"{sum(r.stalled for r in runs)}/6",
                f"{sum(r.clean for r in runs)}/6",
                max(r.total_time for r in runs),
                params.G * 16,
            )
        )
    return ExperimentTable(
        "TH3",
        "TH3 — Theorem 3: randomized routing, stall probability vs batch budget",
        ["R", "stalled", "clean", "T max", "G h"],
        rows,
    )


def _exp_stalling(obs=None) -> ExperimentTable:
    from repro.core.stalling import measure_hotspot, measure_stall_storm
    from repro.models.params import LogPParams

    params = LogPParams(p=32, L=8, o=1, G=2)
    rows = []
    for k in (4, 8, 16, 31):
        rep = measure_hotspot(params, k)
        rows.append(("hot spot", k, rep.makespan, rep.predicted, rep.num_stalls))
    for h in (4, 8, 16):
        rep = measure_stall_storm(params, h)
        rows.append(("convoy", h, rep.makespan, rep.worst_case_bound, len(rep.result.stalls)))
    return ExperimentTable(
        "ST",
        "ST — stalling: hot-spot drain rate and the O(Gh^2) worst case (p=32, L=8, o=1, G=2)",
        ["workload", "k / h", "makespan", "bound", "stalls"],
        rows,
    )


def _exp_observation1(obs=None) -> ExperimentTable:
    from repro.core.network_support import survey_observation1

    rows = [
        (r.name, r.p, r.g_star, r.l_star, r.G_star, r.L_star,
         f"{r.G_over_g:.2f}", f"{r.L_over_lg:.2f}")
        for r in survey_observation1(
            (
                "d-dim array",
                "hypercube (multi-port)",
                "hypercube (single-port)",
                "butterfly",
                "ccc",
                "shuffle-exchange",
                "mesh-of-trees",
            ),
            (16, 64),
        )
    ]
    return ExperimentTable(
        "OB1",
        "OB1 — Observation 1: best attainable parameters per network",
        ["topology", "p", "g*", "l*", "G*", "L*", "G*/g*", "L*/(l*+g*)"],
        rows,
    )


def _exp_workpreserving(obs=None) -> ExperimentTable:
    from repro.core.logp_on_bsp import simulate_logp_on_bsp_workpreserving
    from repro.models.params import LogPParams
    from repro.programs import logp_sum_program

    params = LogPParams(p=16, L=8, o=1, G=2)
    rows = []
    records = []
    for bsp_p in (16, 8, 4, 2, 1):
        rep = simulate_logp_on_bsp_workpreserving(
            params, logp_sum_program(), bsp_p, obs=obs
        )
        rows.append(
            (bsp_p, params.p // bsp_p, rep.bsp.total_cost, rep.work,
             f"{rep.slowdown:.1f}", rep.outputs_match)
        )
        records.append({"bsp_p": bsp_p, "work": rep.work, **rep.as_row()})
    return ExperimentTable(
        "WP",
        "WP — footnote 1: work-preserving Theorem 1 simulation (LogP p=16)",
        ["p'", "charges/host", "T_BSP", "work p'*T", "slowdown", "outputs match"],
        rows,
        records=records,
    )


#: id -> (description, builder).  Builders accept an optional
#: ``obs=Observation(...)``; experiments whose drivers support it (T1,
#: TH1, WP) publish metrics/spans into it, the rest ignore it.
EXPERIMENTS: dict[str, tuple[str, Callable[..., ExperimentTable]]] = {
    "T1": ("Table 1: network bandwidth/latency parameters", _exp_table1),
    "TH1": ("Theorem 1: LogP on BSP", _exp_theorem1),
    "P1": ("Propositions 1/2: Combine-and-Broadcast", _exp_cb),
    "TH2": ("Theorem 2: deterministic BSP on LogP", _exp_theorem2),
    "TH3": ("Theorem 3: randomized routing", _exp_theorem3),
    "ST": ("Sections 2.2/3: stalling analyses", _exp_stalling),
    "OB1": ("Observation 1: direct implementations on networks", _exp_observation1),
    "WP": ("Footnote 1: work-preserving simulation", _exp_workpreserving),
}


# -- inspect: run a demo program through a named Stack chain -------------


def _inspect(args) -> int:
    from repro.engine.request import RunRequest
    from repro.engine.stack import Stack
    from repro.errors import ProgramError
    from repro.obs import CostModelCheck, Observation

    try:
        stack = Stack.from_request(
            RunRequest(
                chain=args.chain,
                p=args.p,
                topology=args.topology,
                kernel=getattr(args, "kernel", None),
            )
        )
    except (ValueError, KeyError) as exc:
        print(f"inspect: {exc}", file=sys.stderr)
        return 2
    obs = Observation(trace=bool(args.trace))
    try:
        result = stack.run(obs=obs)
    except ProgramError as exc:
        print(f"inspect: {exc}", file=sys.stderr)
        return 2

    row = result.as_row()
    doc: dict = {"chain": stack.describe(), "result": row}
    print(f"stack: {stack.describe()}  ->  {type(result).__name__}")
    print(render_table(
        ["field", "value"],
        [(k, json.dumps(v, default=str) if isinstance(v, dict) else v)
         for k, v in row.items()],
    ))
    try:
        check = CostModelCheck.check(result)
    except TypeError:
        check = None
    if check is not None:
        print()
        print(check.render())
        doc["cost_check"] = check.as_dict()
    for block in _obs_blocks(
        obs, doc, metrics=args.metrics, trace_path=args.trace,
        title=stack.describe(),
    ):
        print()
        print(block)
    if args.trace and args.metrics:
        print()
        print(obs.flamegraph())
    if args.json:
        print(json.dumps(doc, default=str))
    return 0


def _trace_path(base: str, exp_id: str, multi: bool) -> str:
    if not multi:
        return base
    stem, dot, ext = base.rpartition(".")
    return f"{stem}.{exp_id}.{ext}" if dot else f"{base}.{exp_id}"


def _obs_blocks(obs, doc: dict, *, metrics: bool, trace_path: str | None,
                title: str) -> list[str]:
    """The shared ``--metrics`` / ``--trace`` epilogue every subcommand
    used to hand-roll: render the registry, write the Chrome trace, and
    fold both into the JSON document.  Returns printable text blocks."""
    blocks: list[str] = []
    if obs is None:
        return blocks
    if metrics:
        blocks.append(obs.render_metrics(title=f"metrics — {title}"))
        doc["metrics"] = obs.metrics.as_dict()
    if trace_path:
        obs.write_trace(trace_path)
        blocks.append(
            f"trace written to {trace_path} ({len(obs.tracer.spans)} spans; "
            f"load in Perfetto / chrome://tracing)"
        )
        doc["trace"] = trace_path
    return blocks


def _experiment_output(exp_id: str, *, as_json: bool, metrics: bool,
                       trace_path: str | None) -> str:
    """Run one experiment id and return its full printable output —
    table, optional JSON document, metrics, trace notice.  One code path
    for serial ``run``, parallel ``run``, and the campaign targets."""
    from repro.obs import Observation

    obs = Observation(trace=bool(trace_path)) if (metrics or trace_path) else None
    table = EXPERIMENTS[exp_id][1](obs=obs)
    parts = [table.render()]
    doc = table.as_json()
    blocks = _obs_blocks(
        obs, doc, metrics=metrics, trace_path=trace_path, title=exp_id
    )
    if as_json:
        parts.append(json.dumps(doc, default=str))
    parts.extend(blocks)
    return "\n\n".join(parts)


def _run_experiments(args) -> int:
    ids = list(EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; try 'list'", file=sys.stderr)
        return 2
    multi = len(ids) > 1
    jobs = [
        (
            i,
            {
                "as_json": args.json,
                "metrics": args.metrics,
                "trace_path": _trace_path(args.trace, i, multi) if args.trace else None,
            },
        )
        for i in ids
    ]
    workers = max(1, getattr(args, "parallel", 1) or 1)
    if workers > 1 and len(jobs) > 1:
        import multiprocessing as mp

        with mp.get_context().Pool(min(workers, len(jobs))) as pool:
            outputs = pool.starmap(_experiment_job, jobs)
    else:
        outputs = [_experiment_job(i, kwargs) for i, kwargs in jobs]
    for text in outputs:
        print(text)
        print()
    return 0


def _experiment_job(exp_id: str, kwargs: dict) -> str:
    """Picklable wrapper for the ``run --parallel`` worker pool."""
    return _experiment_output(exp_id, **kwargs)


# -- campaign: resumable, cache-backed sweeps over a worker pool --------


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_axes(pairs: list[str]) -> list[tuple[str, tuple]]:
    out = []
    for pair in pairs or ():
        name, eq, values = pair.partition("=")
        if not eq:
            raise ValueError(f"expected axis=v1,v2,... got {pair!r}")
        out.append((name, tuple(_parse_value(v) for v in values.split(","))))
    return out


def _campaign_spec(args):
    """Resolve the positional name: a built-in campaign, or an ad-hoc
    spec assembled from a target id plus ``--grid``/``--base`` axes."""
    from repro.campaign import CAMPAIGNS, CampaignSpec

    overrides = {}
    if args.seeds:
        overrides["seeds"] = tuple(int(s) for s in args.seeds.split(","))
    if args.timeout is not None:
        overrides["timeout_s"] = args.timeout
    spec = CAMPAIGNS.get(args.name)
    if spec is not None:
        if args.grid or args.base:
            raise ValueError(
                f"{args.name!r} is a built-in campaign; --grid/--base only "
                f"apply to ad-hoc targets"
            )
        if overrides:
            doc = spec.as_dict()
            doc.update(
                {"seeds": list(overrides.get("seeds", spec.seeds)),
                 "timeout_s": overrides.get("timeout_s", spec.timeout_s)}
            )
            spec = CampaignSpec.from_dict(doc)
        return spec
    grid = _parse_axes(args.grid)
    base = [(name, values[0]) for name, values in _parse_axes(args.base)]
    return CampaignSpec(
        name=args.store_name or args.name,
        target=args.name,
        grid=tuple(grid),
        base=tuple(base),
        seeds=overrides.get("seeds", (0,)),
        timeout_s=overrides.get("timeout_s"),
        description="ad-hoc CLI campaign",
    )


def _campaign(args) -> int:
    from repro.campaign import RegressionGate, run_campaign
    from repro.errors import ParameterError
    from repro.obs import Observation

    try:
        spec = _campaign_spec(args)
    except (ValueError, ParameterError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    obs = Observation(trace=bool(args.trace)) if (args.metrics or args.trace) else None
    try:
        report = run_campaign(
            spec,
            store_dir=args.store,
            parallel=args.parallel,
            force=args.force,
            stop_after=args.stop_after,
            obs=obs,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    except (ValueError, ParameterError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    doc = report.as_dict()
    rc = 0 if (report.ok or report.interrupted) else 1
    if args.gate or args.update_gate:
        gate = RegressionGate()
        records = report.records()
        if args.update_gate:
            path = gate.update(records, args.update_gate, campaign=spec.name)
            print(f"\ngate baseline written to {path}")
        if args.gate:
            result = gate.check(records, args.gate)
            print()
            print(result.render())
            doc["gate"] = {"ok": result.ok, "failures": result.failures}
            if not result.ok:
                rc = 1
    blocks = _obs_blocks(
        obs, doc, metrics=args.metrics, trace_path=args.trace,
        title=f"campaign {spec.name}",
    )
    if args.json:
        print()
        print(json.dumps(doc, default=str))
    for block in blocks:
        print()
        print(block)
    if report.interrupted:
        print(
            f"\ninterrupted after {report.ran} point(s); rerun to resume "
            f"from {report.store_dir}",
        )
    return rc


# -- dist: the real-process socket backend ------------------------------


def _parse_faults(spec: str | None, kills: list[str] | None, seed: int):
    """Build a FaultPlan from ``--faults k=v,...`` and ``--kill PID:S``."""
    from repro.faults import FaultPlan

    rates: dict = {}
    for pair in (spec.split(",") if spec else ()):
        key, eq, value = pair.partition("=")
        if not eq:
            raise ValueError(f"--faults expects k=v pairs, got {pair!r}")
        aliases = {"drop": "drop_rate", "dup": "dup_rate",
                   "delay": "delay_rate", "reorder": "reorder_rate",
                   "max_extra_delay": "max_extra_delay"}
        field = aliases.get(key, key)
        rates[field] = int(value) if field == "max_extra_delay" else float(value)
    crash = {}
    for pair in kills or ():
        pid, colon, s = pair.partition(":")
        if not colon:
            raise ValueError(f"--kill expects PID:SUPERSTEP, got {pair!r}")
        crash[int(pid)] = int(s)
    if not rates and not crash:
        return None
    if rates.get("delay_rate") and not rates.get("max_extra_delay"):
        rates["max_extra_delay"] = 5
    return FaultPlan(seed=seed, crash=crash or None, **rates)


def _dist(args) -> int:
    import tempfile

    from repro.dist import DistParams, run_reference
    from repro.engine import Stack
    from repro.errors import DistRunError, ParameterError
    from repro.obs import Observation

    try:
        plan = _parse_faults(args.faults, args.kill, args.seed)
    except (ValueError, ParameterError) as exc:
        print(f"dist: {exc}", file=sys.stderr)
        return 2
    kwargs = {"rounds": args.rounds}
    log_dir = args.log_dir or tempfile.mkdtemp(prefix="repro-dist-")
    params = DistParams(run_timeout_s=args.timeout)
    obs = Observation(trace=bool(args.trace)) if (args.metrics or args.trace) else None
    stack = Stack(args.program).on_dist(
        args.p, kwargs=kwargs, params=params, log_dir=log_dir
    )
    try:
        result = stack.run(faults=plan, obs=obs)
    except DistRunError as exc:
        print(f"dist run failed loudly (as designed): {exc}", file=sys.stderr)
        return 1
    expected = run_reference(args.program, args.p, kwargs)
    correct = result.results == expected
    print(f"program {args.program!r} on {args.p} real processes: "
          f"{result.rounds} rounds in {result.wall_s:.3f}s "
          f"({result.restarts} restart(s))")
    print(f"final states: {result.results}")
    print(f"matches in-process reference: {correct}")
    if plan is not None:
        print(f"wire faults injected: {result.wire_faults}  "
              f"channel: retransmits={result.channel_stats['retransmits']} "
              f"dup_received={result.channel_stats['dup_received']}")
    report = result.analyze()
    print(f"log audit ({report['events']} events across "
          f"{len(report['files'])} files): "
          f"{'clean' if report['clean'] else 'VIOLATIONS'}")
    for v in report["protocol_violations"] + report["model_violations"]:
        print(f"  - {v}")
    print(f"event logs kept in {log_dir}")
    doc = {
        "result": result.summary(),
        "states": result.results,
        "reference_match": correct,
        "audit": {k: report[k] for k in
                  ("events", "clean", "protocol_violations",
                   "model_violations", "torn")},
        "log_dir": log_dir,
    }
    for block in _obs_blocks(
        obs, doc, metrics=args.metrics, trace_path=args.trace,
        title=f"dist {args.program}",
    ):
        print()
        print(block)
    if args.json:
        print()
        print(json.dumps(doc, default=str))
    return 0 if (correct and report["clean"]) else 1


# -- serve / request: simulation-as-a-service ---------------------------


def _parse_request_params(pairs: list[str] | None) -> dict:
    out = {}
    for pair in pairs or ():
        key, eq, value = pair.partition("=")
        if not eq:
            raise ValueError(f"--param expects K=V (K in L,o,G,g,l), got {pair!r}")
        out[key] = int(value)
    return out


def _print_service_stats(stats: dict) -> None:
    from repro.util.tables import render_table

    rows = [
        (k, stats[k])
        for k in ("requests", "served", "hit", "dedup", "miss", "failed",
                  "pool_jobs", "pool_points", "hit_rate", "reconciled")
    ]
    print(render_table(["counter", "value"], rows, title="service stats"))


def _serve(args) -> int:
    import asyncio

    from repro.service import ServiceConfig, SimulationService
    from repro.service import serve as serve_tcp

    cfg = ServiceConfig(
        store_dir=args.store,
        shards=args.shards,
        workers=args.workers,
        timeout_s=args.timeout,
        batch_window_s=args.batch_window,
    )
    if args.smoke:
        return _serve_smoke(cfg, args)

    async def _main() -> None:
        async with SimulationService(cfg) as svc:
            server = await serve_tcp(svc, args.host, args.port)
            sock = server.sockets[0].getsockname()
            print(
                f"serving on {sock[0]}:{sock[1]}  "
                f"(store {cfg.store_dir}, {cfg.shards} shards, "
                f"workers={cfg.workers}; ops: run/stats/reload/ping)",
                flush=True,
            )
            try:
                async with server:
                    await server.serve_forever()
            finally:
                _print_service_stats(svc.stats.as_dict())
                if args.metrics:
                    from repro.obs import Observation

                    obs = Observation()
                    obs.observe_service(svc.stats)
                    print()
                    print(obs.render_metrics(title="metrics — service"))

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_smoke(cfg, args) -> int:
    """Self-contained end-to-end smoke: real server, real socket client,
    mixed hit/miss/dedup traffic, counters asserted to reconcile.  Backs
    ``make serve-smoke`` and the service-smoke CI job."""
    import asyncio
    import dataclasses

    from repro.service import ServiceClient, SimulationService
    from repro.service import serve as serve_tcp

    cfg = dataclasses.replace(cfg, batch_window_s=max(cfg.batch_window_s, 0.05))
    docs = [{"chain": "bsp", "p": 4, "seed": s} for s in range(3)]
    copies = 4

    async def _main() -> tuple[dict, list]:
        async with SimulationService(cfg) as svc:
            server = await serve_tcp(svc, args.host, 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(args.host, port)
            assert await client.ping()
            # Wave 1: `copies` concurrent copies of each unique request
            # — one miss per unique key, the rest dedup against it.
            wave1 = await asyncio.gather(
                *(client.run(d) for d in docs for _ in range(copies))
            )
            # Wave 2: the same requests again — all cache hits.
            wave2 = await asyncio.gather(*(client.run(d) for d in docs))
            stats = await client.stats()
            await client.close()
            server.close()
            await server.wait_closed()
            return stats, wave1 + wave2

    stats, responses = asyncio.run(_main())
    n = len(docs)
    checks = [
        ("every response ok", all(r.get("ok") for r in responses)),
        ("requests == issued", stats["requests"] == n * copies + n),
        ("counters reconcile", stats["reconciled"]),
        (f"miss == {n} unique", stats["miss"] == n),
        (f"dedup == {n * (copies - 1)}", stats["dedup"] == n * (copies - 1)),
        (f"hit == {n} repeats", stats["hit"] == n),
        ("pool saw only unique points", stats["pool_points"] == n),
        ("no failures", stats["failed"] == 0),
    ]
    _print_service_stats(stats)
    ok = True
    for label, passed in checks:
        print(f"  {'PASS' if passed else 'FAIL'}  {label}")
        ok = ok and passed
    print(f"serve smoke: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _request(args) -> int:
    from repro.engine.request import RunRequest
    from repro.errors import ParameterError

    try:
        req = RunRequest(
            chain=args.chain,
            program=args.program,
            workload=args.workload,
            args=_parse_workload_params(args.arg),
            p=args.p,
            topology=args.topology,
            params=_parse_request_params(args.param),
            seed=args.seed,
            kernel=args.kernel,
            metrics=args.with_metrics,
        )
    except (ValueError, ParameterError) as exc:
        print(f"request: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        from repro.campaign import code_fingerprint

        print(json.dumps(
            {"request": req.to_dict(), "key": req.key(code_fingerprint())},
            indent=2,
        ))
        return 0
    docs = [req.to_dict()] * max(1, args.count)
    if args.local:
        import asyncio
        import tempfile

        from repro.service import ServiceConfig, SimulationService

        store = args.store or tempfile.mkdtemp(prefix="repro-service-")

        async def _go():
            cfg = ServiceConfig(store_dir=store, shards=args.shards, workers=0)
            async with SimulationService(cfg) as svc:
                rs = await asyncio.gather(*(svc.submit(d) for d in docs))
                return rs, svc.stats.as_dict()

        responses, stats = asyncio.run(_go())
    else:
        from repro.service import request_sync

        try:
            responses = request_sync(args.host, args.port, docs)
        except ConnectionError as exc:
            print(
                f"request: cannot reach {args.host}:{args.port} ({exc}); "
                f"start one with 'serve' or use --local",
                file=sys.stderr,
            )
            return 2
        stats = None
    for resp in responses:
        outcome = resp.get("outcome", "?")
        status = resp.get("status", "?")
        print(f"{req.describe()}  ->  {outcome}/{status}  key={resp.get('key')}")
        if resp.get("error"):
            print(f"  error: {resp['error']}")
    if stats is not None:
        print()
        _print_service_stats(stats)
    if args.json:
        print()
        print(json.dumps(responses if len(responses) > 1 else responses[0],
                         default=str))
    return 0 if all(r.get("ok") for r in responses) else 1


def _parse_workload_params(pairs: list[str] | None) -> dict:
    out: dict = {}
    for pair in pairs or []:
        key, _, value = pair.partition("=")
        if not key or not value:
            raise SystemExit(f"workloads: bad --param {pair!r} (want K=V)")
        out[key] = _parse_value(value)
    return out


def _workload_run_line(run) -> str:
    result = run.result
    cost = getattr(result, "total_cost", None)
    if cost is None:
        cost = getattr(result, "makespan", "?")
    steps = getattr(result, "num_supersteps", "-")
    status = "ok" if run.ok else "FAIL"
    status += "+val" if run.validated else ""
    return (
        f"{run.workload.name:20s} p={run.request.p:<3d} "
        f"cost={cost:<8} supersteps={steps:<4} {status}"
    )


def _workloads_list(args) -> int:
    from repro.workloads import iter_workloads

    for w in iter_workloads(family=getattr(args, "family", None)):
        space = "  ".join(f"{k}={list(v)}" for k, v in sorted(w.space.items()))
        print(f"{w.name:20s} [{w.family}/{w.model}]  {space}")
    return 0


def _workloads_describe(args) -> int:
    from repro.errors import ParameterError
    from repro.workloads import get

    try:
        w = get(args.name)
    except ParameterError as exc:
        print(f"workloads: {exc}", file=sys.stderr)
        return 2
    print(w.describe())
    print(f"  campaign: {w.spec(quick=True).name} (target=workload)")
    return 0


def _workloads_run(args) -> int:
    from repro.workloads import get, iter_workloads, run_workload

    if args.all:
        targets = list(iter_workloads(family=args.family))
    else:
        if not args.name:
            print("workloads: give a workload name or --all", file=sys.stderr)
            return 2
        targets = [get(args.name)]
    records = []
    all_ok = True
    for w in targets:
        points = (
            list(w.points(quick=True, seeds=(args.seed,)))
            if args.quick
            else [{"p": args.p or int(w.defaults["p"]), "seed": args.seed,
                   **_parse_workload_params(args.param)}]
        )
        runs = []
        for point in points:
            point = dict(point)
            p, seed = point.pop("p"), point.pop("seed")
            run = run_workload(
                w.name, p=p, seed=seed, params=point, chain=args.chain,
                kernel=args.kernel, validate=not args.no_validate,
            )
            runs.append(run)
            all_ok = all_ok and run.ok
            print(_workload_run_line(run))
            if args.verbose or not run.ok:
                print(run.report.render())
        records.append({
            "workload": w.name,
            "family": w.family,
            "points": [r.as_record() for r in runs],
            "ok": all(r.ok for r in runs),
        })
    if args.out:
        doc = {
            "tool": "experiments workloads run",
            "quick": bool(args.quick),
            "seed": args.seed,
            "ok": all_ok,
            "workloads": records,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, default=str)
        print(f"wrote {args.out}")
    return 0 if all_ok else 1


def _workloads_sweep(args) -> int:
    from repro.workloads import (
        scalability_study,
        sorting_regime_study,
        streaming_bound_study,
    )

    studies = {
        "sorting-regimes": lambda: sorting_regime_study(
            seed=args.seed, quick=args.quick
        ),
        "streaming-bound": lambda: streaming_bound_study(
            seed=args.seed, quick=args.quick
        ),
        "numeric-scalability": lambda: scalability_study(
            seed=args.seed, quick=args.quick
        ),
    }
    doc = studies[args.study]()
    if args.study == "sorting-regimes":
        cx = doc["crossover"]
        for row in doc["rows"]:
            print(f"keys/proc={row['keys_per_proc']:<5d} winner={row['winner']}")
        print(
            f"crossover: measured keys/proc={cx['measured_keys_per_proc']} "
            f"predicted={cx['predicted_keys_per_proc']}"
        )
    elif args.study == "streaming-bound":
        for row in doc["rows"]:
            print(
                f"{row['streamed']:20s} chunk={row['chunk']:<3d} "
                f"supersteps={row['streamed_supersteps']} "
                f"(predicted {row['predicted_supersteps']}) "
                f"max-h={row['max_h_send']} "
                f"bound={'holds' if row['bound_holds'] else 'VIOLATED'}"
            )
    else:
        for name, k in doc["kernels"].items():
            print(
                f"{name:10s} peak p: measured={k['peak_measured_p']} "
                f"predicted={k['peak_predicted_p']} "
                f"continuous={k['peak_continuous']} "
                f"{'agree' if k['peaks_agree'] else 'DISAGREE'}"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, default=str)
        print(f"wrote {args.out}")
    return 0


def _workloads(args) -> int:
    return {
        "list": _workloads_list,
        "describe": _workloads_describe,
        "run": _workloads_run,
        "sweep": _workloads_sweep,
    }[args.wcommand](args)


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document per experiment "
        "after its table (rows use the shared MachineResult.as_row "
        "projection where available)",
    )
    sub.add_argument(
        "--metrics",
        action="store_true",
        help="attach an Observation and print its metric registry",
    )
    sub.add_argument(
        "--trace",
        metavar="OUT.json",
        help="record layer-labelled spans and write a Chrome trace_event "
        "file (loadable in Perfetto)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's quantitative artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids and built-in campaigns")
    run = sub.add_parser("run", help="run experiments by id (or 'all')")
    run.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="run the listed experiments across N worker processes",
    )
    _add_obs_flags(run)
    camp = sub.add_parser(
        "campaign",
        help="run a resumable, cache-backed parameter sweep over a "
        "worker pool (see docs/CAMPAIGN.md)",
    )
    camp.add_argument(
        "name",
        help="a built-in campaign name (see 'list'), or a target id "
        "(request, workload, theorem2, cb, demo, dist) combined with --grid",
    )
    camp.add_argument(
        "--grid",
        action="append",
        metavar="AXIS=V1,V2,...",
        help="add a grid axis to an ad-hoc campaign (repeatable)",
    )
    camp.add_argument(
        "--base",
        action="append",
        metavar="KEY=VALUE",
        help="fixed parameter merged under every point (repeatable)",
    )
    camp.add_argument("--seeds", metavar="S1,S2,...", help="per-point seeds")
    camp.add_argument(
        "--parallel", type=int, default=1, metavar="N", help="worker processes"
    )
    camp.add_argument(
        "--resume",
        action="store_true",
        help="resume from the store's cached points (the default; spelled "
        "out for scripts that want to be explicit)",
    )
    camp.add_argument(
        "--force",
        action="store_true",
        help="drop every cached point and recompute from scratch",
    )
    camp.add_argument(
        "--store", metavar="DIR", help="store directory (default campaigns/<name>)"
    )
    camp.add_argument(
        "--store-name", metavar="NAME", help="store/campaign name for ad-hoc targets"
    )
    camp.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="per-point timeout"
    )
    camp.add_argument(
        "--stop-after",
        type=int,
        metavar="N",
        help="abandon the run after N completed points (simulated kill; "
        "the store keeps them and the next run resumes)",
    )
    camp.add_argument(
        "--gate",
        metavar="BASELINE.json",
        help="fit the sweep's cost-model residuals and fail on shape "
        "regressions vs this committed baseline",
    )
    camp.add_argument(
        "--update-gate",
        metavar="BASELINE.json",
        help="(re)write the gate baseline from this sweep",
    )
    _add_obs_flags(camp)
    inspect_p = sub.add_parser(
        "inspect",
        help="run a demo program through a Stack chain "
        "(e.g. bsp-on-logp-on-network) and report on it",
    )
    inspect_p.add_argument(
        "chain",
        help="layer chain, guest first: bsp, logp, logp-on-bsp, "
        "bsp-on-logp, bsp-on-network, logp-on-network, "
        "bsp-on-logp-on-network",
    )
    inspect_p.add_argument(
        "--p", type=int, default=8, help="processor count (default 8)"
    )
    inspect_p.add_argument(
        "--topology",
        default="hypercube (multi-port)",
        help="Table 1 topology name for network layers "
        "(default: 'hypercube (multi-port)')",
    )
    inspect_p.add_argument(
        "--kernel",
        choices=KERNELS,
        default=None,
        help="event-queue kernel for the host machine / router: 'event' "
        "(production) or 'tick' (reference scan); default: each layer's own",
    )
    _add_obs_flags(inspect_p)
    dist_p = sub.add_parser(
        "dist",
        help="run a program on real OS processes over TCP sockets, with "
        "optional seeded fault injection (see docs/DIST.md)",
    )
    dist_p.add_argument(
        "program",
        nargs="?",
        default="ring",
        help="dist program name (ring, alltoall, pingpong, flood); "
        "default ring",
    )
    dist_p.add_argument("--p", type=int, default=3, help="worker processes")
    dist_p.add_argument("--rounds", type=int, default=4, help="supersteps")
    dist_p.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed (same seed = same fault scenario, here and "
        "in the simulators)",
    )
    dist_p.add_argument(
        "--faults",
        metavar="K=V,...",
        help="wire-fault rates, e.g. drop=0.2,dup=0.1,delay=0.1 "
        "(keys: drop, dup, delay, reorder, max_extra_delay)",
    )
    dist_p.add_argument(
        "--kill",
        action="append",
        metavar="PID:S",
        help="SIGKILL worker PID mid-superstep S (repeatable)",
    )
    dist_p.add_argument(
        "--log-dir", metavar="DIR",
        help="event-log directory (default: a fresh temp dir, kept)",
    )
    dist_p.add_argument(
        "--timeout", type=float, default=60.0,
        help="whole-run deadline in seconds (default 60)",
    )
    _add_obs_flags(dist_p)
    serve_p = sub.add_parser(
        "serve",
        help="serve RunRequest documents over TCP: cache hits from the "
        "sharded store, in-flight dedup, misses batched to the pool "
        "(see docs/SERVICE.md)",
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port", type=int, default=7997,
        help="bind port (0 = ephemeral; default 7997)",
    )
    serve_p.add_argument(
        "--store", metavar="DIR", default="campaigns/service",
        help="sharded result-store root, shareable between servers "
        "(default campaigns/service)",
    )
    serve_p.add_argument(
        "--shards", type=int, default=16,
        help="key-prefix shard count, pinned at first open (default 16)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=0,
        help="pool processes for miss batches; 0 computes in-process "
        "(default 0)",
    )
    serve_p.add_argument(
        "--timeout", type=float, default=60.0, help="per-point timeout",
    )
    serve_p.add_argument(
        "--batch-window", type=float, default=0.01, metavar="SECONDS",
        help="miss-coalescing window before a pool dispatch (default 0.01)",
    )
    serve_p.add_argument(
        "--smoke", action="store_true",
        help="self-contained end-to-end smoke: ephemeral port, mixed "
        "hit/miss/dedup traffic over a real socket, counters asserted",
    )
    _add_obs_flags(serve_p)
    req_p = sub.add_parser(
        "request",
        help="build one RunRequest and resolve it — against a running "
        "'serve' instance, or --local in-process",
    )
    req_p.add_argument(
        "chain",
        help="layer chain, guest first (bsp, bsp-on-logp, "
        "bsp-on-logp-on-network, bsp-on-dist, ...)",
    )
    req_p.add_argument(
        "--program", default="default",
        help="named guest program (default: the chain's demo program)",
    )
    req_p.add_argument(
        "--workload", default=None,
        help="registered workload name (see 'workloads list'); mutually "
        "exclusive with --program",
    )
    req_p.add_argument(
        "--arg", action="append", metavar="K=V",
        help="workload parameter (with --workload; repeatable)",
    )
    req_p.add_argument("--p", type=int, default=8, help="processor count")
    req_p.add_argument(
        "--topology", default="hypercube (multi-port)",
        help="Table 1 topology for network layers",
    )
    req_p.add_argument(
        "--param", action="append", metavar="K=V",
        help="model-parameter override (K in L,o,G,g,l; repeatable)",
    )
    req_p.add_argument("--seed", type=int, default=0, help="request seed")
    req_p.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="event-queue kernel for layers that own a queue",
    )
    req_p.add_argument(
        "--with-metrics", action="store_true",
        help="set the request's metrics flag: the computed record embeds "
        "its Observation registry (separate cache entry)",
    )
    req_p.add_argument("--host", default="127.0.0.1", help="server address")
    req_p.add_argument("--port", type=int, default=7997, help="server port")
    req_p.add_argument(
        "--local", action="store_true",
        help="no server: run an in-process service against --store",
    )
    req_p.add_argument(
        "--store", metavar="DIR",
        help="store root for --local (default: a fresh temp dir)",
    )
    req_p.add_argument(
        "--shards", type=int, default=16, help="shard count for --local",
    )
    req_p.add_argument(
        "--count", type=int, default=1, metavar="N",
        help="submit N concurrent copies (exercises in-flight dedup)",
    )
    req_p.add_argument(
        "--dry-run", action="store_true",
        help="print the request document and its cache key; run nothing",
    )
    req_p.add_argument(
        "--json", action="store_true",
        help="also print the raw response document(s)",
    )
    wl_p = sub.add_parser(
        "workloads",
        help="the workload library: list/describe/run registered "
        "workloads and drive the family studies (see docs/WORKLOADS.md)",
    )
    wsub = wl_p.add_subparsers(dest="wcommand", required=True)
    wl_list = wsub.add_parser(
        "list", help="one line per registered workload with its sweep space"
    )
    wl_list.add_argument("--family", help="only this family")
    wl_desc = wsub.add_parser(
        "describe", help="full space/quick/defaults/model card for one workload"
    )
    wl_desc.add_argument("name", help="registered workload name")
    wl_run = wsub.add_parser(
        "run",
        help="run workload points end-to-end via RunRequest, fold the "
        "analytic cost model into the ledger check, validate output",
    )
    wl_run.add_argument("name", nargs="?", help="workload name (or --all)")
    wl_run.add_argument(
        "--all", action="store_true", help="run every registered workload"
    )
    wl_run.add_argument("--family", help="with --all: only this family")
    wl_run.add_argument(
        "--quick", action="store_true",
        help="sweep the quick grid instead of one defaults point",
    )
    wl_run.add_argument("--p", type=int, help="processor count override")
    wl_run.add_argument("--seed", type=int, default=0, help="run seed")
    wl_run.add_argument(
        "--param", action="append", metavar="K=V",
        help="workload parameter override (repeatable)",
    )
    wl_run.add_argument(
        "--chain", help="layer chain override (default: the workload's model)"
    )
    wl_run.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="event-queue kernel for layers that own a queue",
    )
    wl_run.add_argument(
        "--no-validate", action="store_true",
        help="skip reference-output validation",
    )
    wl_run.add_argument(
        "--verbose", action="store_true",
        help="print the full residual table for every point",
    )
    wl_run.add_argument(
        "--out", metavar="OUT.json", help="write a JSON artifact of all runs"
    )
    wl_sweep = wsub.add_parser(
        "sweep", help="drive one of the three family studies"
    )
    wl_sweep.add_argument(
        "study",
        choices=["sorting-regimes", "streaming-bound", "numeric-scalability"],
    )
    wl_sweep.add_argument("--quick", action="store_true", help="trimmed grid")
    wl_sweep.add_argument("--seed", type=int, default=0, help="study seed")
    wl_sweep.add_argument(
        "--out", metavar="OUT.json", help="write the study document as JSON"
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        from repro.campaign import CAMPAIGNS
        from repro.workloads import iter_workloads

        for key, (desc, _fn) in EXPERIMENTS.items():
            print(f"{key:5s} {desc}")
        print()
        for name, spec in CAMPAIGNS.items():
            print(f"{name:10s} {spec.description} [campaign]")
        print()
        for w in iter_workloads():
            space = "  ".join(
                f"{k}={list(v)}" for k, v in sorted(w.space.items())
            )
            print(f"{w.name:20s} {space} [workload/{w.family}]")
        return 0
    if args.command == "inspect":
        return _inspect(args)
    if args.command == "campaign":
        return _campaign(args)
    if args.command == "dist":
        return _dist(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "request":
        return _request(args)
    if args.command == "workloads":
        return _workloads(args)
    return _run_experiments(args)


if __name__ == "__main__":
    raise SystemExit(main())
