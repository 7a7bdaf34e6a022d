"""Unit tests for the kernel benchmark's per-workload regression gate.

The gate logic lives in ``benchmarks/bench_kernel.py`` (an argparse CLI,
imported here by file path).  These tests feed ``check()`` synthetic
reports so the rules are pinned without running any timed workload:

* the gated kernel (``event``, the default) has an absolute 1.0x floor
  on every workload — binding even for workloads with no committed
  baseline;
* any other kernel in a report carries only the ratio gate against its
  own committed speedup;
* committed baselines are read in both the v2 per-kernel layout and the
  legacy v1 event-only one.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_kernel.py"
)
_spec = importlib.util.spec_from_file_location("bench_kernel", BENCH_PATH)
bench_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernel)


def entry(event=None, floor=1.0, **others) -> dict:
    """A workload entry; ``others`` are ungated kernels' speedups."""
    speedups = {"event": event, **others}
    kernels = {k: {"speedup": v} for k, v in speedups.items() if v is not None}
    return {"floor": floor, "kernels": kernels}


def test_gated_kernel_is_the_default():
    assert bench_kernel.GATED_KERNEL == "event"
    assert bench_kernel.MEASURED_KERNELS == ("event",)


def report(**workloads) -> dict:
    return {"workloads": workloads}


class TestAbsoluteFloor:
    def test_sub_floor_gated_kernel_fails(self):
        rep = report(dense=entry(event=0.93))
        assert bench_kernel.check(rep, committed=None) == 1

    def test_floor_binds_without_committed_entry(self):
        """A brand-new workload cannot ship below 1.0x: the floor fires
        even when the committed file has never seen the workload."""
        committed = {"workloads": {}, "gate_ratio": 0.8}
        rep = report(brand_new=entry(event=0.5))
        assert bench_kernel.check(rep, committed) == 1

    def test_floor_binds_even_when_committed_speedup_is_low(self):
        """A low committed speedup must not relax the absolute floor."""
        committed = {
            "workloads": {"dense": entry(event=0.4)},
            "gate_ratio": 0.8,
        }
        rep = report(dense=entry(event=0.9))
        assert bench_kernel.check(rep, committed) == 1

    def test_at_floor_passes(self):
        rep = report(dense=entry(event=1.0))
        assert bench_kernel.check(rep, committed=None) == 0

    def test_per_workload_floor_override(self):
        rep = report(dense=entry(event=1.3, floor=1.5))
        assert bench_kernel.check(rep, committed=None) == 1


class TestRatioGate:
    def test_ungated_kernel_has_no_floor(self):
        """Sub-1.0x on a kernel other than the gated one is not a
        failure: only the gated kernel carries the absolute floor."""
        rep = report(dense=entry(event=1.4, other=0.75))
        assert bench_kernel.check(rep, committed=None) == 0

    def test_regression_against_committed_fails(self):
        committed = {
            "workloads": {"w": entry(event=2.0)},
            "gate_ratio": 0.8,
        }
        rep = report(w=entry(event=1.2))  # 1.2 < 0.8 * 2.0
        assert bench_kernel.check(rep, committed) == 1

    def test_within_ratio_passes(self):
        committed = {
            "workloads": {"w": entry(event=2.0, other=2.0)},
            "gate_ratio": 0.8,
        }
        rep = report(w=entry(event=1.7, other=1.7))
        assert bench_kernel.check(rep, committed) == 0

    def test_failures_accumulate_per_kernel_and_workload(self):
        committed = {
            "workloads": {"w": entry(event=2.0, other=2.0)},
            "gate_ratio": 0.8,
        }
        rep = report(
            w=entry(event=1.0, other=0.9),  # two ratio fails
            v=entry(event=0.8),  # floor fail (uncommitted workload)
        )
        assert bench_kernel.check(rep, committed) == 3


class TestCommittedSpeedupLayouts:
    def test_v2_per_kernel_layout(self):
        e = entry(event=2.5, other=3.0)
        assert bench_kernel._committed_speedup(e, "event") == 2.5
        assert bench_kernel._committed_speedup(e, "other") == 3.0

    def test_legacy_v1_event_only_layout(self):
        legacy = {"speedup": 2.0, "baseline": {}, "current": {}}
        assert bench_kernel._committed_speedup(legacy, "event") == 2.0
        assert bench_kernel._committed_speedup(legacy, "other") is None

    def test_missing_entry(self):
        assert bench_kernel._committed_speedup(None, "event") is None
