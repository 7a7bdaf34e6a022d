"""Experiment TH1 — **Theorem 1**: stall-free LogP on BSP.

Regenerates the theorem's quantitative content as a **campaign**: the
(program, g/G, l/L) grid is a declarative
:class:`~repro.campaign.CampaignSpec` of ``logp-on-bsp``
:class:`~repro.engine.request.RunRequest` documents run through
:func:`~repro.campaign.run_campaign` (worker pool + content-addressed
result store) on the ``request`` target, and every assertion below
consumes the JSON records that target emitted — the same records
``python -m repro.experiments campaign th1-grid`` caches on disk.  The
claims: across the grid the measured slowdown of the cycle simulation
tracks ``O(1 + g/G + l/L)`` and per-cycle h-relations stay within the
capacity ``ceil(L/G)``.
"""

import pytest

from repro.campaign import CampaignSpec, run_campaign, run_point
from repro.models.params import LogPParams
from repro.util.tables import render_table

LOGP = LogPParams(p=16, L=8, o=1, G=2)
KERNELS = ("ring", "sum", "alltoall")
SCALES = (1, 4, 8)

SPEC = CampaignSpec(
    name="bench-theorem1",
    target="request",
    grid=(
        ("program", KERNELS),
        (
            "params",
            tuple(
                {"L": LOGP.L, "o": LOGP.o, "G": LOGP.G, "g": LOGP.G * gs, "l": LOGP.L * ls}
                for gs in SCALES
                for ls in SCALES
            ),
        ),
    ),
    base={"chain": "logp-on-bsp", "p": LOGP.p},
    description="Theorem 1 slowdown grid: LogP kernels on scaled BSP hosts",
)


def host(kname: str, gs: int, ls: int) -> tuple:
    """The sweep key of ``kname`` on the BSP host g = gs*G, l = ls*L."""
    return (kname, LOGP.G * gs, LOGP.L * ls)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    report = run_campaign(
        SPEC,
        store_dir=tmp_path_factory.mktemp("bench-theorem1"),
        parallel=2,
    )
    assert report.failed == 0 and not report.interrupted
    records = report.records()
    assert len(records) == len(SPEC)
    out = {}
    for rec in records:
        req = rec["request"]
        assert rec["outputs_match"], req
        out[(req["program"], req["params"]["g"], req["params"]["l"])] = rec
    return out


def test_theorem1_report(sweep, publish, publish_json, benchmark):
    benchmark.pedantic(
        lambda: run_point("request", {**dict(SPEC.base), "program": "sum"}),
        rounds=1,
        iterations=1,
    )
    rows = []
    for (kname, g, l), rec in sweep.items():
        rows.append(
            (
                kname,
                f"g={g}",
                f"l={l}",
                rec["windows"],
                rec["max_window_h"],
                LOGP.capacity,
                f"{rec['slowdown']:.2f}",
                f"{rec['predicted_slowdown']:.2f}",
            )
        )
    publish(
        "theorem1_logp_on_bsp",
        render_table(
            ["kernel", "BSP g", "BSP l", "cycles", "max h", "ceil(L/G)", "slowdown", "O(1+g/G+l/L)"],
            rows,
            title=f"Theorem 1: LogP(p={LOGP.p}, L={LOGP.L}, o={LOGP.o}, G={LOGP.G}) simulated on BSP",
        ),
    )
    publish_json(
        "theorem1_logp_on_bsp",
        {"campaign": SPEC.as_dict(), "records": list(sweep.values())},
    )


def test_slowdown_below_prediction(sweep):
    for key, rec in sweep.items():
        assert rec["slowdown"] <= rec["predicted_slowdown"] * 1.05, key


def test_capacity_bound_holds(sweep):
    for key, rec in sweep.items():
        assert rec["max_window_h"] <= LOGP.capacity, key


def test_matched_machine_constant_slowdown(sweep):
    """On the matched machine the slowdown is a small constant (<= the
    predicted 1 + g/G + l/L = 5 here)."""
    for kname in KERNELS:
        assert sweep[host(kname, 1, 1)]["slowdown"] <= 5.0


def test_slowdown_monotone_in_g_and_l(sweep):
    for kname in KERNELS:
        base = sweep[host(kname, 1, 1)]["slowdown"]
        assert sweep[host(kname, 4, 1)]["slowdown"] >= base
        assert sweep[host(kname, 1, 4)]["slowdown"] >= base
        assert sweep[host(kname, 8, 8)]["slowdown"] >= sweep[host(kname, 4, 4)]["slowdown"]


def test_rerun_is_fully_cached(sweep, tmp_path):
    """A second run over the same spec against a warm store computes
    nothing — every record is served from the content-addressed cache,
    byte-identical to the first run's."""
    store = tmp_path / "store"
    first = run_campaign(SPEC, store_dir=store)
    second = run_campaign(SPEC, store_dir=store)
    assert first.ran == len(SPEC) and first.cached == 0
    assert second.ran == 0 and second.cached == len(SPEC)
    assert second.records() == first.records()
