"""The RunRequest schema: one entry point, versioned, round-tripping."""

import json

import pytest

from repro.engine.request import (
    REQUEST_VERSION,
    RunRequest,
    build_stack,
    parse_chain,
)
from repro.engine.stack import Stack
from repro.errors import ParameterError, ProgramError


class TestSchema:
    def test_roundtrips_through_json(self):
        req = RunRequest(chain="bsp-on-logp-on-network", p=8,
                         params={"L": 16, "g": 4}, seed=3, kernel="tick")
        doc = json.loads(json.dumps(req.to_dict()))
        assert RunRequest.from_dict(doc) == req

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ParameterError, match=r"no field\(s\) \['routing'\]"):
            RunRequest.from_dict({"chain": "bsp", "routing": "offline"})

    def test_newer_version_rejected_loudly(self):
        with pytest.raises(ParameterError, match="newest understood"):
            RunRequest(chain="bsp", version=REQUEST_VERSION + 1)

    def test_unknown_chain_program_kernel_param(self):
        with pytest.raises(ParameterError, match="unknown guest model"):
            RunRequest(chain="mpi")
        with pytest.raises(ParameterError, match="program 'nope' unknown"):
            RunRequest(chain="bsp", program="nope")
        with pytest.raises(ParameterError, match="kernel 'warp' unknown"):
            RunRequest(chain="bsp-on-logp", kernel="warp")
        with pytest.raises(
            ParameterError, match=r"kernel 'adaptive' unknown \(known: event, superstep, tick\)"
        ):
            RunRequest(chain="bsp-on-logp", kernel="adaptive")
        with pytest.raises(ParameterError, match="params key 'x'"):
            RunRequest(chain="bsp", params={"x": 1})

    def test_chain_spelling_normalized(self):
        assert RunRequest(chain="BSP_on_LogP").chain == "bsp-on-logp"

    def test_key_is_deterministic_and_fingerprint_scoped(self):
        req = RunRequest(chain="bsp-on-logp", p=4)
        assert req.key("fp") == req.key("fp")
        assert req.key("fp") != req.key("other-code")
        assert req.key("fp") != RunRequest(chain="bsp-on-logp", p=8).key("fp")

    def test_metrics_flag_changes_the_key(self):
        bare = RunRequest(chain="bsp", p=4)
        with_metrics = RunRequest(chain="bsp", p=4, metrics=True)
        assert bare.key("fp") != with_metrics.key("fp")

    def test_parse_chain(self):
        assert parse_chain("bsp-on-logp-on-network") == ("bsp", ["logp", "network"])
        assert parse_chain("logp") == ("logp", ["logp"])
        assert parse_chain("bsp-on-dist") == ("bsp", ["dist"])


class TestStackRoundTrip:
    def test_from_request_runs_and_to_request_roundtrips(self):
        req = RunRequest(chain="bsp-on-logp", p=4, kernel="tick")
        stack = Stack.from_request(req)
        assert stack.to_request() == req
        result = stack.run()
        assert result.slowdown > 0

    def test_hand_built_stack_has_no_request(self):
        from repro.models.params import LogPParams
        from repro.programs import bsp_prefix_program

        stack = Stack(bsp_prefix_program()).on_logp(LogPParams(p=4, L=8, o=1, G=2))
        with pytest.raises(ProgramError, match="not built from a RunRequest"):
            stack.to_request()

    def test_request_build_matches_inspect_cli(self, capsys):
        """The one shared assembly path really is the CLI's: the
        ``inspect`` result row equals the request-built stack's."""
        from repro.experiments import main

        assert main(["inspect", "logp-on-bsp", "--p", "4", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        doc = json.loads([ln for ln in lines if ln.startswith("{")][-1])
        row = build_stack(RunRequest(chain="logp-on-bsp", p=4)).run().as_row()
        assert doc["result"] == row

    def test_param_overrides_reach_the_machines(self):
        base = build_stack(RunRequest(chain="bsp-on-logp", p=4)).run()
        slowed = build_stack(
            RunRequest(chain="bsp-on-logp", p=4, params={"L": 64})
        ).run()
        assert slowed.total_logp_time > base.total_logp_time

    def test_network_chain_rounds_p_to_topology(self):
        stack = build_stack(
            RunRequest(chain="bsp-on-network", p=7, topology="d-dim array")
        )
        result = stack.run()
        assert result.as_row()  # runs on the rounded grid
