"""Chaos regression: seeded fault injection must be kernel-invariant.

The router's vectorized multiport step draws its link faults in
*batches* from the same RNG stream the scalar paths draw one at a time.
These tests pin that a chaotic seeded run (drops, duplicates, delays,
reorders on the LogP medium; lossy links in the packet router) produces
identical fault fates and traces under both kernels and through the
vectorized step: a batched draw that consumed the stream in a different
order would show up here as diverging fates even when aggregate counts
happen to agree.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, reliable
from repro.logp.machine import LogPMachine
from repro.models.params import LogPParams
from repro.networks import Hypercube
from repro.networks.routing_sim import (
    RoutingConfig,
    _route_packets_tick,
    _route_packets_vectorized,
    build_paths,
    route_h_relation,
)
from repro.routing.workloads import balanced_h_relation
from repro.obs import Observation
from repro.perf.event_queue import KERNELS
from repro.programs import logp_sum_program

PARAMS = LogPParams(p=8, L=8, o=2, G=2)

CHAOS_PLAN = FaultPlan(
    seed=23,
    drop_rate=0.3,
    dup_rate=0.2,
    delay_rate=0.3,
    max_extra_delay=6,
    reorder_rate=0.2,
)


def _fates(log) -> dict:
    """Uid-free projection of a FaultLog (uids are process-global, so
    two identical executions in one process see different uids)."""
    return {
        "dropped": [(s, d, t) for _uid, s, d, t in log.dropped],
        "duplicated": [d for _orig, _ghost, d in log.duplicated],
        "delayed": [extra for _uid, extra in log.delayed],
        "reordered": len(log.reordered),
        "crashes": list(log.crashes),
        "summary": log.summary(),
    }


def _logp_chaos_run(kernel: str) -> dict:
    machine = LogPMachine(
        PARAMS, faults=CHAOS_PLAN, record_trace=True, kernel=kernel
    )
    res = machine.run(reliable(logp_sum_program()))
    return {
        "results": res.results,
        "makespan": res.makespan,
        "total_messages": res.total_messages,
        "stalls": [
            (s.sender, s.dest, s.submit_time, s.accept_time) for s in res.stalls
        ],
        "submissions": [(t, src) for t, src, _uid in res.trace.submissions],
        "deliveries": [(t, dest) for t, dest, _uid in res.trace.deliveries],
        "fates": _fates(res.fault_log),
    }


class TestLogPChaosKernelInvariant:
    def test_fault_fates_and_traces_identical(self):
        base = _logp_chaos_run("event")
        # The plan actually fired — an accidentally-clean run would make
        # this test vacuous.
        assert base["fates"]["summary"]["dropped"] > 0
        assert base["fates"]["summary"]["duplicated"] > 0
        assert base["fates"]["summary"]["delayed"] > 0
        for kernel in KERNELS[1:]:
            assert _logp_chaos_run(kernel) == base, (
                f"kernel {kernel!r} diverged from 'event' under faults"
            )


def _routing_chaos_run(kernel: str, **cfg) -> dict:
    obs = Observation(trace=True)
    config = RoutingConfig(link_fault_rate=0.3, seed=7, kernel=kernel, **cfg)
    outcome = route_h_relation(Hypercube(32), 8, seed=5, config=config, obs=obs)
    return {
        "outcome": (
            outcome.time,
            outcome.packets,
            outcome.total_hops,
            outcome.max_queue,
            outcome.retransmissions,
        ),
        "hops": [
            (s.end, s.args["packet"], s.args["link"])
            for s in obs.tracer.spans
            if s.name == "hop"
        ],
    }


class TestRoutingChaosKernelInvariant:
    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param({}, id="multiport"),
            pytest.param({"single_port": True}, id="singleport"),
            pytest.param({"valiant": True}, id="valiant"),
        ],
    )
    def test_lossy_links_identical_across_kernels(self, cfg):
        base = _routing_chaos_run("event", **cfg)
        assert base["outcome"][4] > 0  # retransmissions: faults fired
        assert base["hops"]  # the hop trace is actually populated
        for kernel in KERNELS[1:]:
            assert _routing_chaos_run(kernel, **cfg) == base, (
                f"kernel {kernel!r} diverged from 'event' on lossy links"
            )

    @pytest.mark.parametrize(
        "valiant",
        [pytest.param(False, id="multiport"), pytest.param(True, id="valiant")],
    )
    def test_vectorized_step_identical_to_tick(self, valiant):
        """The 256-packet chaos case is below the size cut, so
        ``route_packets`` runs it scalar; drive the vectorized step
        directly and compare it with the tick scan hop for hop."""
        topo = Hypercube(32)
        paths = build_paths(
            topo, balanced_h_relation(topo.p, 8, seed=5), valiant=valiant, seed=6
        )
        config = RoutingConfig(link_fault_rate=0.3, seed=7)
        runs = [
            route(paths, config, Observation(trace=True))
            for route in (_route_packets_vectorized, _route_packets_tick)
        ]
        (vec, vec_occ, vec_hops), (ref, ref_occ, ref_hops) = runs
        assert vec.retransmissions > 0  # faults fired
        assert vec_hops  # the hop trace is actually populated
        fields = ("time", "packets", "total_hops", "max_queue", "retransmissions")
        assert [getattr(vec, f) for f in fields] == [getattr(ref, f) for f in fields]
        assert vec_occ == ref_occ
        assert vec_hops == ref_hops
