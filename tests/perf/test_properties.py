"""Property-based tests (hypothesis) for the LogP engine semantics.

Random send/compute/wait programs over random admissible parameters,
checked against the paper's §2.2 rules reconstructed *from the trace*:

* **capacity** — at no instant does any destination hold more than
  ``ceil(L/G)`` accepted-but-undelivered messages;
* **stalling rule, soundness** — a stalled submission is accepted
  exactly when a delivery frees a slot at its destination;
* **stalling rule, completeness** — a submission accepted without
  stalling really had a free slot at its acceptance instant;
* **gap rule** — a processor's consecutive submissions (and
  acquisitions) are at least ``G`` apart;
* **kernel equivalence** — both kernels (``event``, ``tick``) drive
  bit-identical executions on every generated program;
* **density sweep** — programs parameterized by event density, from
  skip-ahead-friendly sparse phases to a saturated clock, stay
  kernel-equivalent; h-relations from one packet per host to
  saturated links route identically through the router's vectorized
  step and the tick reference scan, faults on and off, hop for hop.

The CI profile (``HYPOTHESIS_PROFILE=ci``, registered in
``tests/conftest.py``) is derandomized so failures reproduce exactly.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.logp.instructions import Compute, Send, TryRecv, WaitUntil  # noqa: E402
from repro.logp.machine import LogPMachine  # noqa: E402
from repro.logp.trace import accept_times_from_result  # noqa: E402
from repro.models.params import LogPParams  # noqa: E402
from repro.perf.event_queue import KERNELS, make_event_queue  # noqa: E402


@st.composite
def logp_params(draw) -> LogPParams:
    """Admissible §2.2 parameters: ``max{2, o} <= G <= L``."""
    p = draw(st.integers(2, 6))
    o = draw(st.integers(0, 3))
    G = draw(st.integers(max(2, o), 6))
    L = draw(st.integers(G, 3 * G))
    return LogPParams(p=p, L=L, o=o, G=G)


#: One program step, as data: ("send", dest_offset) | ("compute", ops)
#: | ("wait", dt).  Receive-free programs cannot deadlock, so every
#: generated case runs to quiescence.
step = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 4)),
    st.tuples(st.just("compute"), st.integers(1, 5)),
    st.tuples(st.just("wait"), st.integers(1, 10)),
)

program_steps = st.lists(st.lists(step, max_size=6), min_size=2, max_size=6)


def build_programs(steps_per_pid, p: int):
    def make(pid: int, steps):
        def prog(ctx):
            for op, arg in steps:
                if op == "send":
                    yield Send((pid + 1 + arg % (p - 1)) % p, arg)
                elif op == "compute":
                    yield Compute(arg)
                else:
                    yield WaitUntil(ctx.clock + arg)
            return pid

        return prog

    padded = (steps_per_pid * p)[:p]
    return [make(pid, padded[pid]) for pid in range(p)]


def run_traced(params: LogPParams, programs, kernel: str = "event"):
    machine = LogPMachine(
        params, record_trace=True, check_invariants=True, kernel=kernel
    )
    return machine.run(programs)


def in_transit_intervals(res):
    """Per destination: [accept, delivery) interval per message."""
    accept = accept_times_from_result(res)
    deliver = {uid: t for t, _dest, uid in res.trace.deliveries}
    by_dest: dict[int, list[tuple[int, int]]] = {}
    for _t, dest, uid in res.trace.deliveries:
        by_dest.setdefault(dest, []).append((accept[uid], deliver[uid]))
    return by_dest


def concurrent_peak(intervals):
    """Max overlap of [a, b) intervals; a slot freed at t is reusable at t."""
    events = []
    for a, b in intervals:
        events.append((a, 1))
        events.append((b, -1))
    peak = cur = 0
    for _t, d in sorted(events, key=lambda e: (e[0], e[1])):
        cur += d
        peak = max(peak, cur)
    return peak


@given(params=logp_params(), steps=program_steps)
@settings(max_examples=40)
def test_capacity_never_exceeded(params, steps):
    res = run_traced(params, build_programs(steps, params.p))
    assert params.capacity == -(-params.L // params.G)
    for dest, intervals in in_transit_intervals(res).items():
        assert concurrent_peak(intervals) <= params.capacity, (
            f"destination {dest} exceeded capacity {params.capacity}"
        )


@given(params=logp_params(), steps=program_steps)
@settings(max_examples=40)
def test_stalling_rule_soundness(params, steps):
    """A stalled submission unblocks exactly when a delivery to its
    destination frees a slot, and stalls only under a full destination."""
    res = run_traced(params, build_programs(steps, params.p))
    delivery_times = {(t, dest) for t, dest, _uid in res.trace.deliveries}
    intervals = in_transit_intervals(res)
    for s in res.stalls:
        assert s.accept_time > s.submit_time
        assert (s.accept_time, s.dest) in delivery_times, (
            "stall resolved without a delivery freeing a slot"
        )
        # While stalled, the destination sat at full capacity.
        blocking = [
            (a, b)
            for a, b in intervals.get(s.dest, [])
            if a <= s.submit_time and b > s.submit_time
        ]
        assert len(blocking) >= params.capacity


@given(params=logp_params(), steps=program_steps)
@settings(max_examples=40)
def test_stalling_rule_completeness(params, steps):
    """Every acceptance had a free slot at its instant: fewer than
    ``capacity`` messages accepted strictly earlier were still in
    transit (deliveries at the instant itself free their slot first)."""
    res = run_traced(params, build_programs(steps, params.p))
    accept = accept_times_from_result(res)
    deliver = {uid: t for t, _dest, uid in res.trace.deliveries}
    dest_of = {uid: dest for _t, dest, uid in res.trace.deliveries}
    for uid, t in accept.items():
        dest = dest_of[uid]
        occupied = sum(
            1
            for other, a in accept.items()
            if other != uid
            and dest_of[other] == dest
            and a < t
            and deliver[other] > t
        )
        assert occupied < params.capacity, (
            f"message accepted at t={t} into a full destination {dest}"
        )


@given(params=logp_params(), steps=program_steps)
@settings(max_examples=40)
def test_gap_rule_on_submissions_and_acquisitions(params, steps):
    """Consecutive submissions (resp. acquisitions) by one processor are
    >= G apart.  Note the rule binds *submissions*, not acceptances — a
    stalled message's delayed acceptance may land within G of the
    destination's other traffic."""
    res = run_traced(params, build_programs(steps, params.p))
    by_src: dict[int, list[int]] = {}
    for t, src, _uid in res.trace.submissions:
        by_src.setdefault(src, []).append(t)
    by_acq: dict[int, list[int]] = {}
    for t_start, _t_end, pid, _uid in res.trace.acquisitions:
        by_acq.setdefault(pid, []).append(t_start)
    for label, groups in (("submitted", by_src), ("acquired", by_acq)):
        for pid, times in groups.items():
            times.sort()
            for earlier, later in zip(times, times[1:]):
                assert later - earlier >= params.G, (
                    f"processor {pid} {label} twice within the gap"
                )


def uid_free_projection(res) -> dict:
    """Everything observable about a run except process-global uids and
    kernel counters — the projection the kernels must agree on."""
    return {
        "results": res.results,
        "makespan": res.makespan,
        "total_messages": res.total_messages,
        "buffer_highwater": res.buffer_highwater,
        "stalls": [
            (s.sender, s.dest, s.submit_time, s.accept_time) for s in res.stalls
        ],
        "submissions": [(t, ep) for t, ep, _uid in res.trace.submissions],
        "deliveries": [(t, ep) for t, ep, _uid in res.trace.deliveries],
        "acquisitions": [
            (a, b, pid) for a, b, pid, _uid in res.trace.acquisitions
        ],
    }


@given(params=logp_params(), steps=program_steps)
@settings(max_examples=25)
def test_kernels_bit_identical(params, steps):
    """The tentpole guarantee, as a property: every queue kernel drives
    the same execution on arbitrary programs (uid-free projections)."""
    programs = build_programs(steps, params.p)
    base = uid_free_projection(run_traced(params, programs, kernel="event"))
    for kernel in KERNELS[1:]:
        other = uid_free_projection(run_traced(params, programs, kernel=kernel))
        assert other == base, f"kernel {kernel!r} diverged from 'event'"


# --------------------------------------------------------------------------
# Density sweep: sparse -> saturated programs under both kernels.
#
# Compute/WaitUntil resolve *inline* (they only move the local clock, no
# queue traffic), so event density is driven with network instructions.
# A density program has two phases, clock-aligned across processors by
# symmetry (every pid runs the same ring program): a *sparse* phase of
# ``sparse_len`` wakes spaced ``gap`` ticks apart, each submitting one
# message — a wave of events every ``gap`` ticks — and a *dense* tail of
# ``dense_len`` TryRecv steps: once the buffer is drained each poll
# costs exactly one queue event per processor per tick, a saturated
# clock with density ~ p >= 2.
# --------------------------------------------------------------------------


def build_density_programs(p: int, sparse_len: int, dense_len: int, gap: int):
    def make(pid: int):
        dest = (pid + 1) % p

        def prog(ctx):
            for _ in range(sparse_len):
                yield WaitUntil(ctx.clock + gap)
                yield Send(dest, 0)
            for _ in range(dense_len):
                yield TryRecv()
            return 0

        return prog

    return [make(pid) for pid in range(p)]


@st.composite
def density_profiles(draw):
    """(sparse_len, dense_len, gap_extra) spanning sparse-only,
    dense-only, and sparse-then-saturated programs."""
    sparse_len = draw(st.integers(0, 8))
    dense_len = draw(st.integers(0, 12))
    gap_extra = draw(st.integers(0, 5))
    return sparse_len, dense_len, gap_extra


@given(params=logp_params(), profile=density_profiles())
@settings(max_examples=25)
def test_density_sweep_kernels_equivalent(params, profile):
    """Across the whole density range, the kernels stay bit-identical."""
    sparse_len, dense_len, gap_extra = profile
    gap = 4 * params.p + gap_extra
    programs = build_density_programs(params.p, sparse_len, dense_len, gap)
    runs = {k: run_traced(params, programs, kernel=k) for k in KERNELS}
    base = uid_free_projection(runs["event"])
    for kernel in KERNELS[1:]:
        assert uid_free_projection(runs[kernel]) == base, kernel


def route_three_ways(paths, config):
    """(outcome, occupancy, hops) from the vectorized step, the tick
    reference scan, and the scalar active-set loop, all traced."""
    from repro.networks.routing_sim import (
        _route_packets_event,
        _route_packets_tick,
        _route_packets_vectorized,
    )
    from repro.obs import Observation

    return [
        route(paths, config, Observation(trace=True))
        for route in (_route_packets_vectorized, _route_packets_tick, _route_packets_event)
    ]


@given(
    p=st.sampled_from([4, 8, 16, 32]),
    h=st.integers(0, 12),
    valiant=st.booleans(),
    fault_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 99),
)
@settings(max_examples=40)
def test_routing_density_sweep_vectorized_matches_tick(p, h, valiant, fault_rate, seed):
    """From near-empty links (h=1) to saturated ones, the vectorized
    multi-port FIFO step makes the tick scan's every transmission — same
    outcome, same per-link occupancy, same hop trace in pop order, same
    fault-stream draws — and reports the scalar active-set loop's
    counters, so ``route_packets`` can pick either by size."""
    from repro.networks import Hypercube
    from repro.networks.routing_sim import RoutingConfig, build_paths
    from repro.routing.workloads import balanced_h_relation

    topo = Hypercube(p)
    pairs = balanced_h_relation(topo.p, h, seed=seed)
    paths = build_paths(topo, pairs, valiant=valiant, seed=seed + 1)
    config = RoutingConfig(link_fault_rate=fault_rate, seed=seed)
    (vec, vec_occ, vec_hops), (ref, ref_occ, ref_hops), (ev, _, _) = route_three_ways(
        paths, config
    )
    fields = ("time", "packets", "total_hops", "max_queue", "retransmissions")
    assert [getattr(vec, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert vec_occ == ref_occ
    assert vec_hops == ref_hops
    assert vec.kernel.events == ref.kernel.events
    assert vec.kernel.batches == ref.kernel.batches
    assert vec.kernel.as_dict() == ev.kernel.as_dict()


#: Interleaved queue operations: ("push", dt, kind, pid) pushes at
#: ``last_popped_time + dt`` (dt=0 after a drained batch is the
#: quiescence-rewind hazard);
#: ("pop",) pops one event from every queue and compares.
queue_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(0, 6),
            st.integers(0, 3),
            st.integers(0, 7),
        ),
        st.tuples(st.just("pop")),
    ),
    max_size=60,
)


@given(ops=queue_ops)
@settings(max_examples=50)
def test_event_queues_agree_under_interleaved_ops(ops):
    """The raw ordering contract: identical push/pop interleavings give
    identical pop sequences on both queues, including same-time
    mid-batch pushes and at-current-time re-seeds after a drain."""
    queues = {k: make_event_queue(k, 8) for k in KERNELS}
    now = 0
    seq = 0
    for op in ops:
        if op[0] == "push":
            _, dt, kind, pid = op
            for q in queues.values():
                q.push(now + dt, kind, pid, seq)
            seq += 1
        else:
            popped = {k: q.pop() for k, q in queues.items()}
            assert len(set(popped.values())) == 1, popped
            if popped["event"] is not None:
                now = popped["event"][0]
    while True:
        popped = {k: q.pop() for k, q in queues.items()}
        assert len(set(popped.values())) == 1, popped
        if popped["event"] is None:
            break
    assert all(len(q) == 0 for q in queues.values())
