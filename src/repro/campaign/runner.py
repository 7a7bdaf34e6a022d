"""Campaign orchestration: cache check, dispatch, persist, report.

``run_campaign(spec)`` is the whole lifecycle:

1. resolve the target (an unknown id fails here, before anything is
   written), fingerprint the code and expand the spec into keyed work
   items;
2. open the :class:`~repro.campaign.store.ResultStore` and split items
   into **cached** (an ``ok`` entry exists for the key) and **pending**;
3. run pending points — serially, or sharded over a
   :mod:`~repro.campaign.pool` worker pool — appending each entry to
   the store the moment it lands;
4. compact the store to exactly the spec's current keys (dropping
   superseded and invalidated entries) and write the index;
5. publish campaign metrics (points/sec, cache hit rate, worker
   utilization) into an :class:`~repro.obs.Observation` when given one.

Resume is therefore not a mode but a consequence: a killed campaign's
store already holds everything that finished, and the next run's step 2
skips it.  ``force=True`` truncates the store first; a changed code
fingerprint orphans every old key so step 2 finds nothing to skip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.fingerprint import code_fingerprint
from repro.campaign.pool import run_pool
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.campaign.targets import resolve_target

__all__ = ["CampaignReport", "run_campaign", "default_store_dir"]

#: Default parent directory for campaign stores (relative to cwd).
STORE_ROOT = Path("campaigns")


def default_store_dir(spec: CampaignSpec) -> Path:
    return STORE_ROOT / spec.name


@dataclass
class CampaignReport:
    """Outcome of one ``run_campaign`` invocation."""

    spec: CampaignSpec
    store_dir: Path
    fingerprint: str
    total: int
    ran: int
    cached: int
    failed: int
    interrupted: bool
    wall_s: float
    workers: int
    utilization: float
    stale_dropped: int = 0
    ran_keys: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    entries: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.interrupted

    @property
    def points_per_s(self) -> float:
        return self.ran / self.wall_s if self.wall_s else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.total if self.total else 0.0

    def records(self) -> list[dict]:
        """The completed points' target records, in grid order."""
        return [
            entry["record"]
            for entry in self.entries
            if entry.get("status") == "ok" and entry.get("record") is not None
        ]

    def render(self) -> str:
        from repro.util.tables import render_table

        status = (
            "interrupted"
            if self.interrupted
            else ("ok" if not self.failed else f"{self.failed} failed")
        )
        rows = [
            ("campaign", self.spec.name),
            ("target", self.spec.target),
            ("store", str(self.store_dir)),
            ("points", self.total),
            ("ran", self.ran),
            ("cached", f"{self.cached} ({self.cache_hit_rate * 100:.0f}% hit rate)"),
            ("failed", self.failed),
            ("status", status),
            ("wall", f"{self.wall_s:.2f}s"),
            ("throughput", f"{self.points_per_s:.1f} points/s"),
            ("workers", self.workers),
            ("utilization", f"{self.utilization * 100:.0f}%"),
        ]
        return render_table(
            ["field", "value"], rows, title=f"campaign — {self.spec.name}"
        )

    def as_dict(self) -> dict:
        return {
            "campaign": self.spec.name,
            "target": self.spec.target,
            "store": str(self.store_dir),
            "fingerprint": self.fingerprint,
            "total": self.total,
            "ran": self.ran,
            "cached": self.cached,
            "failed": self.failed,
            "interrupted": self.interrupted,
            "wall_s": round(self.wall_s, 4),
            "points_per_s": round(self.points_per_s, 2),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "workers": self.workers,
            "utilization": round(self.utilization, 4),
            "failures": self.failures,
        }


def run_campaign(
    spec: CampaignSpec,
    *,
    store_dir: str | Path | None = None,
    parallel: int = 1,
    force: bool = False,
    obs=None,
    stop_after: int | None = None,
    timeout_s: float | None = None,
    fingerprint: str | None = None,
    progress=None,
) -> CampaignReport:
    """Run (or resume) a campaign; see the module docstring.

    Parameters beyond the spec:

    * ``parallel`` — worker process count (``<= 1`` runs in-process);
    * ``force`` — drop every cached entry and recompute from scratch;
    * ``stop_after`` — abandon the run after this many points complete
      (simulated kill; the store keeps them and a later run resumes);
    * ``timeout_s`` — per-point timeout (defaults to the spec's);
    * ``fingerprint`` — cache-key override (tests; defaults to the
      hashed package source);
    * ``obs`` — an :class:`~repro.obs.Observation` to publish campaign
      metrics into;
    * ``progress`` — optional ``callable(str)`` for one-line updates.
    """
    resolve_target(spec.target)
    say = progress or (lambda _msg: None)
    fp = fingerprint if fingerprint is not None else code_fingerprint()
    items = spec.items(fp)
    timeout = timeout_s if timeout_s is not None else spec.timeout_s
    directory = Path(store_dir) if store_dir is not None else default_store_dir(spec)

    t0 = time.perf_counter()
    with ResultStore(directory).open(spec, fp, force=force) as store:
        valid_keys = [item["key"] for item in items]
        cached = store.completed()
        pending = [item for item in items if item["key"] not in cached]
        say(
            f"campaign {spec.name}: {len(items)} points, "
            f"{len(items) - len(pending)} cached, {len(pending)} to run"
        )

        ran_keys: list[str] = []

        def on_result(entry: dict) -> None:
            store.append(entry)
            ran_keys.append(entry["key"])
            if entry["status"] != "ok":
                say(
                    f"  point {entry['index']} {entry['status']}: "
                    f"{entry.get('error')}"
                )

        stats = run_pool(
            spec.target,
            pending,
            workers=max(1, parallel),
            timeout_s=timeout,
            on_result=on_result,
            stop_after=stop_after,
        )
        interrupted = stop_after is not None and len(ran_keys) < len(pending)
        stale = 0
        if not interrupted:
            stale = store.compact(valid_keys)
        entries = store.entries()
        ordered = [
            entries[item["key"]] for item in items if item["key"] in entries
        ]
        failures = [
            {
                "index": e["index"],
                "key": e["key"],
                "status": e["status"],
                "error": e.get("error"),
            }
            for e in ordered
            if e.get("status") != "ok"
        ]

    wall = time.perf_counter() - t0
    report = CampaignReport(
        spec=spec,
        store_dir=directory,
        fingerprint=fp,
        total=len(items),
        ran=len(ran_keys),
        cached=len(items) - len(pending),
        failed=len(failures),
        interrupted=interrupted,
        wall_s=wall,
        workers=stats.workers,
        utilization=stats.utilization(),
        stale_dropped=stale,
        ran_keys=ran_keys,
        failures=failures,
        entries=ordered,
    )
    if obs is not None and obs:
        obs.observe_campaign(report)
    return report
