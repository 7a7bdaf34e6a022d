"""Built-in campaign specs: the paper's sweeps, declared once.

These are the grids the benchmarks and the CLI share (``python -m
repro.experiments campaign <name>``).  Each is a plain
:class:`~repro.campaign.spec.CampaignSpec`; benchmarks wrap them rather
than re-looping, so a sweep's definition lives in exactly one place.
"""

from __future__ import annotations

from repro.campaign.spec import CampaignSpec

__all__ = ["CAMPAIGNS", "SAMPLE_SORT_GRID", "SORTING_REGIMES"]

#: Theorem 1 across BSP machines: 3 programs x 8 (g, l) hosts = 24
#: ``logp-on-bsp`` requests on the LogP(p=16, L=8, o=1, G=2) guest, with
#: g = G x (1, 2, 4, 8) and l = L x (1, 4).
TH1_GRID = CampaignSpec(
    name="th1-grid",
    target="request",
    grid=(
        ("program", ("sum", "ring", "alltoall")),
        (
            "params",
            tuple(
                {"L": 8, "o": 1, "G": 2, "g": 2 * gs, "l": 8 * ls}
                for gs in (1, 2, 4, 8)
                for ls in (1, 4)
            ),
        ),
    ),
    base=(("chain", "logp-on-bsp"), ("p", 16)),
    description="Theorem 1: LogP-on-BSP slowdown across g/l scalings (24 points)",
)

#: Theorem 2 across relation degrees and machine sizes; the sweep
#: crosses the bitonic/columnsort scheme boundary.
TH2_GRID = CampaignSpec(
    name="th2-grid",
    target="theorem2",
    grid=(
        ("p", (8, 16)),
        ("h", (1, 4, 16, 64, 256)),
    ),
    base=(("L", 8), ("o", 1), ("G", 2)),
    seeds=(1, 2),
    description="Theorem 2: deterministic routing slowdown vs S(L,G,p,h) (20 points)",
)

#: Propositions 1/2 across machine sizes and (L, G) regimes.
CB_GRID = CampaignSpec(
    name="cb-grid",
    target="cb",
    grid=(
        ("p", (8, 64, 512)),
        ("L", (8, 16)),
        ("G", (2, 8)),
    ),
    base=(("o", 1),),
    description="Propositions 1/2: Combine-and-Broadcast cost bounds (12 points)",
)

#: The (previously orphaned) direct BSP sample sort as a campaign:
#: reachable from ``experiments campaign sample-sort-grid`` via the
#: ``workload`` target, sweeping machine size against keys per processor.
SAMPLE_SORT_GRID = CampaignSpec(
    name="sample-sort-grid",
    target="workload",
    grid=(
        ("workload", ("sample-sort",)),
        ("p", (2, 4, 8)),
        ("keys_per_proc", (16, 32, 64)),
    ),
    description="Direct BSP sample sort: cost ledger across p x n/p (9 points)",
)

#: The sorting-regime study grid: all three word-accurate sorters across
#: n/p at p=8 (invalid points — columnsort below 2(p-1)², non-power-of-
#: two bitonic — are recorded as skipped, not failed).
SORTING_REGIMES = CampaignSpec(
    name="sorting-regimes",
    target="workload",
    grid=(
        ("workload", ("sample-sort-unit", "bitonic-sort", "columnsort")),
        ("p", (8,)),
        ("keys_per_proc", (8, 16, 32, 64, 128)),
    ),
    description="Sorting regimes: sample vs bitonic vs Columnsort over n/p (15 points)",
)

CAMPAIGNS: dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        TH1_GRID,
        TH2_GRID,
        CB_GRID,
        SAMPLE_SORT_GRID,
        SORTING_REGIMES,
    )
}
