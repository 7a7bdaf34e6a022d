"""CampaignSpec: expansion order, content-addressed keys, registry."""

import pytest

from repro.campaign import CAMPAIGNS, CampaignSpec, point_key, resolve_target
from repro.campaign.spec import canonical_json
from repro.errors import ParameterError


def spec(**kwargs) -> CampaignSpec:
    base = dict(
        name="t",
        target="demo",
        grid=(("x", (1, 2)), ("y", (10, 20))),
        base={"c": 7},
    )
    base.update(kwargs)
    return CampaignSpec(**base)


class TestExpansion:
    def test_cartesian_product_in_axis_order_seed_fastest(self):
        s = spec(seeds=(0, 1))
        pts = s.points()
        assert len(pts) == len(s) == 8
        assert pts[0] == {"c": 7, "x": 1, "y": 10, "seed": 0}
        assert pts[1] == {"c": 7, "x": 1, "y": 10, "seed": 1}
        assert pts[2] == {"c": 7, "x": 1, "y": 20, "seed": 0}
        assert pts[-1] == {"c": 7, "x": 2, "y": 20, "seed": 1}

    def test_axis_overrides_base(self):
        s = spec(base={"x": 99, "c": 7})
        assert all(pt["x"] in (1, 2) for pt in s.points())

    def test_gridless_spec_is_one_point_per_seed(self):
        s = CampaignSpec(name="t", target="demo", seeds=(3, 4))
        assert [pt["seed"] for pt in s.points()] == [3, 4]

    def test_items_are_indexed_and_keyed(self):
        s = spec()
        items = s.items("fp")
        assert [it["index"] for it in items] == list(range(4))
        assert len({it["key"] for it in items}) == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            CampaignSpec(name="", target="demo")
        with pytest.raises(ParameterError):
            CampaignSpec(name="t", target="")
        with pytest.raises(ParameterError):
            CampaignSpec(name="t", target="demo", grid=(("x", ()),))
        with pytest.raises(ParameterError):
            CampaignSpec(name="t", target="demo", seeds=())


class TestKeys:
    def test_key_is_deterministic(self):
        pt = {"x": 1, "seed": 0}
        assert point_key("demo", pt, "fp") == point_key("demo", dict(pt), "fp")

    def test_key_changes_with_point_target_and_fingerprint(self):
        pt = {"x": 1, "seed": 0}
        k = point_key("demo", pt, "fp")
        assert point_key("demo", {"x": 2, "seed": 0}, "fp") != k
        assert point_key("cb", pt, "fp") != k
        assert point_key("demo", pt, "fp2") != k

    def test_key_ignores_dict_insertion_order(self):
        a = {"x": 1, "seed": 0}
        b = {"seed": 0, "x": 1}
        assert point_key("demo", a, "fp") == point_key("demo", b, "fp")

    def test_canonical_json_freezes_tuples(self):
        assert canonical_json({"a": (1, 2)}) == '{"a":[1,2]}'


class TestRoundTrip:
    def test_as_dict_from_dict_preserves_keys(self):
        s = spec(seeds=(0, 1), timeout_s=5.0, description="d")
        clone = CampaignSpec.from_dict(s.as_dict())
        assert clone == s
        assert [it["key"] for it in clone.items("fp")] == [
            it["key"] for it in s.items("fp")
        ]

    def test_describe_mentions_size(self):
        assert "= 4 points" in spec().describe()


class TestBuiltinRegistry:
    def test_th1_grid_has_at_least_24_points(self):
        assert len(CAMPAIGNS["th1-grid"]) >= 24

    def test_all_builtins_resolve_and_expand(self):
        for name, s in CAMPAIGNS.items():
            assert s.name == name
            assert callable(resolve_target(s.target))
            assert len(s.points()) == len(s) > 0
