"""The public target registry: register_target and the request target."""

import pytest

from repro.campaign import TARGETS, register_target, resolve_target, run_point
from repro.errors import ParameterError


@pytest.fixture
def scratch_registry():
    """Snapshot TARGETS so tests can register freely without leaking."""
    before = dict(TARGETS)
    yield TARGETS
    TARGETS.clear()
    TARGETS.update(before)


class TestRegisterTarget:
    def test_direct_and_decorator_forms(self, scratch_registry):
        def square(point, obs=None):
            return {"y": point["x"] ** 2}

        assert register_target("square", square) is square
        assert resolve_target("square") is square

        @register_target("cube")
        def cube(point, obs=None):
            return {"y": point["x"] ** 3}

        assert run_point("cube", {"x": 3}) == {"y": 27}

    def test_duplicate_name_is_a_clear_error(self, scratch_registry):
        register_target("dup", lambda point, obs=None: {})
        with pytest.raises(ParameterError, match="already registered"):
            register_target("dup", lambda point, obs=None: {})

    def test_replace_overrides(self, scratch_registry):
        register_target("v", lambda point, obs=None: {"v": 1})
        register_target("v", lambda point, obs=None: {"v": 2}, replace=True)
        assert run_point("v", {}) == {"v": 2}

    def test_empty_name_and_non_callable_rejected(self, scratch_registry):
        with pytest.raises(ParameterError, match="non-empty string"):
            register_target("  ", lambda point, obs=None: {})
        with pytest.raises(ParameterError, match="must be callable"):
            register_target("notfn", 42)

    def test_unknown_target_error_mentions_the_registry(self):
        with pytest.raises(ParameterError, match="register_target"):
            resolve_target("no-such-target")

    def test_builtins_are_registered_through_the_public_api(self):
        for name in ("theorem2", "cb", "demo", "dist", "request", "workload"):
            assert name in TARGETS, name


class TestRequestTarget:
    def test_run_point_request(self):
        record = run_point("request", {"chain": "bsp-on-logp", "p": 4})
        assert record["request"]["chain"] == "bsp-on-logp"
        assert record["chain"]  # human-readable stack description
        assert record["slowdown"] > 0

    def test_request_target_metrics_flag(self):
        record = run_point(
            "request", {"chain": "bsp", "p": 4, "metrics": True}
        )
        assert "metrics" in record and record["metrics"]["counters"]

    def test_request_target_rejects_bad_points(self):
        with pytest.raises(ParameterError, match="unknown guest model"):
            run_point("request", {"chain": "mpi"})
