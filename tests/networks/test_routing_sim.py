import pytest

from repro.errors import RoutingError
from repro.networks import ArrayND, Hypercube, MeshOfTrees
from repro.networks import routing_sim
from repro.networks.routing_sim import (
    VECTORIZE_MIN_PACKETS,
    RoutingConfig,
    build_paths,
    route_h_relation,
    route_packets,
)
from repro.obs import Observation
from repro.routing.workloads import balanced_h_relation
from repro.networks.params import TOPOLOGY_BUILDERS, measure_network_params


class TestRoutePackets:
    def test_single_packet_takes_path_length(self):
        t = Hypercube(8)
        paths = [t.route(0, 7)]
        out = route_packets(t, paths)
        assert out.time == 3
        assert out.total_hops == 3

    def test_edge_contention_serializes(self):
        """Two packets over the same edge need two steps on that edge."""
        t = ArrayND((3, 1))
        paths = [t.route(0, 2), t.route(0, 2)]
        out = route_packets(t, paths)
        assert out.time == 3  # 2 hops each, second waits one step

    def test_single_port_slower_than_multi_port(self):
        t = Hypercube(16)
        # node 0 sends to all 4 neighbors: multi-port 1 step, single-port 4
        paths = [t.route(0, 1 << b) for b in range(4)]
        multi = route_packets(t, paths, RoutingConfig(single_port=False))
        single = route_packets(t, paths, RoutingConfig(single_port=True))
        assert multi.time == 1
        assert single.time == 4

    def test_zero_length_paths(self):
        t = Hypercube(4)
        out = route_packets(t, [[0], [1]])
        assert out.time == 0 and out.total_hops == 0

    def test_farthest_first_priority_runs(self):
        t = ArrayND((6, 6))
        cfg = RoutingConfig(priority="farthest")
        out = route_h_relation(t, 4, seed=0, config=cfg)
        assert out.time > 0

    def test_unknown_priority_rejected(self):
        t = ArrayND((2, 2))
        with pytest.raises(RoutingError):
            route_packets(t, [t.route(0, 3)], RoutingConfig(priority="lifo"))

    @pytest.mark.parametrize("fault_rate", [0.0, 0.25])
    @pytest.mark.parametrize(
        "n", [VECTORIZE_MIN_PACKETS - 1, VECTORIZE_MIN_PACKETS], ids=["below_cut", "at_cut"]
    )
    def test_size_cut_matches_tick(self, n, fault_rate, monkeypatch):
        """Either side of the size cut, ``route_packets`` under the event
        kernel makes exactly the tick scan's transmissions — and takes
        the vectorized step only from the cut on."""
        t = Hypercube(32)
        paths = build_paths(t, balanced_h_relation(t.p, 16, seed=3), seed=4)[:n]
        vectorized = []
        real = routing_sim._route_packets_vectorized

        def spy(*args):
            vectorized.append(True)
            return real(*args)

        monkeypatch.setattr(routing_sim, "_route_packets_vectorized", spy)
        runs = {}
        for kernel in ("event", "tick"):
            obs = Observation(trace=True)
            cfg = RoutingConfig(link_fault_rate=fault_rate, seed=5, kernel=kernel)
            out = route_packets(t, paths, cfg, obs=obs)
            hops = [(s.end, s.args["packet"], s.args["link"])
                    for s in obs.tracer.spans if s.name == "hop"]
            runs[kernel] = (out.time, out.total_hops, out.max_queue,
                            out.retransmissions, hops)
        assert runs["event"] == runs["tick"]
        assert vectorized == ([True] if n >= VECTORIZE_MIN_PACKETS else [])

    def test_max_steps_guard(self):
        t = ArrayND((4, 4))
        cfg = RoutingConfig(max_steps=1)
        with pytest.raises(RoutingError, match="max_steps"):
            route_h_relation(t, 8, seed=0, config=cfg)


class TestBuildPaths:
    def test_valiant_goes_through_intermediate(self):
        t = Hypercube(16)
        pairs = [(0, 15)] * 8
        direct = build_paths(t, pairs, valiant=False)
        indirect = build_paths(t, pairs, valiant=True, seed=3)
        assert all(p == direct[0] for p in direct)
        assert len(set(map(tuple, indirect))) > 1  # randomization visible

    def test_paths_respect_host_mapping(self):
        t = MeshOfTrees(4)
        pairs = [(0, 15), (3, 7)]
        for path, (s, d) in zip(build_paths(t, pairs), pairs):
            assert path[0] == t.hosts[s] and path[-1] == t.hosts[d]


class TestHRelationScaling:
    def test_time_grows_with_h(self):
        t = Hypercube(32)
        t1 = route_h_relation(t, 1, seed=0).time
        t8 = route_h_relation(t, 8, seed=0).time
        assert t8 > t1

    def test_h_zero_is_instant(self):
        t = Hypercube(8)
        assert route_h_relation(t, 0, seed=0).time == 0

    def test_all_builders_produce_working_instances(self):
        for name, builder in TOPOLOGY_BUILDERS.items():
            topo, cfg = builder(16)
            out = route_h_relation(topo, 2, seed=1, config=cfg)
            assert out.time > 0, name


class TestParamFit:
    def test_fit_reports_reasonable_values(self):
        topo, cfg = TOPOLOGY_BUILDERS["hypercube (single-port)"](32)
        meas = measure_network_params(
            topo, table_name="hypercube (single-port)", hs=(1, 2, 4), seeds=(0,), config=cfg
        )
        assert meas.gamma > 0
        assert meas.r2 > 0.5
        assert meas.diameter == 5

    def test_theory_lookup(self):
        topo, cfg = TOPOLOGY_BUILDERS["d-dim array"](64)
        meas = measure_network_params(
            topo, table_name="d-dim array", hs=(1, 2), seeds=(0,), config=cfg
        )
        gamma_th, delta_th = meas.theory(d=2)
        assert gamma_th == pytest.approx(8.0)
        assert delta_th == pytest.approx(8.0)
