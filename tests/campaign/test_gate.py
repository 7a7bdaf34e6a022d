"""Regression gate: fit residual families across a sweep, compare bounds."""

from pathlib import Path

import pytest

from repro.campaign import CAMPAIGNS, RegressionGate, fit_bounds, run_campaign
from repro.campaign.gate import GATE_KIND
from repro.campaign.io import load_json


def records(scale: float = 1.0, slowdown_scale: float = 1.0) -> list[dict]:
    """A synthetic sweep: per point one exact ledger row (indexed name)
    and one factor-kind slowdown residual."""
    out = []
    for x in range(1, 6):
        out.append(
            {
                "x": x,
                "cost_check": {
                    "model": "synthetic",
                    "residuals": [
                        {
                            "name": f"superstep[{x}] cost",
                            "kind": "exact",
                            "observed": 2.0 * x * scale,
                            "predicted": 2.0 * x,
                        },
                        {
                            "name": "slowdown vs predicted",
                            "kind": "factor",
                            "observed": 1.5 * x * slowdown_scale,
                            "predicted": float(x),
                        },
                    ],
                },
            }
        )
    return out


class TestFitBounds:
    def test_indexed_names_collapse_into_one_family(self):
        summary = fit_bounds(records())
        assert set(summary) == {"superstep[*] cost", "slowdown vs predicted"}
        fam = summary["superstep[*] cost"]
        assert fam["count"] == 5
        assert fam["ok_frac"] == 1.0
        assert fam["slope"] == pytest.approx(1.0)

    def test_factor_family_fits_its_constant(self):
        fam = fit_bounds(records())["slowdown vs predicted"]
        assert fam["slope"] == pytest.approx(1.5)
        assert fam["mean_ratio"] == pytest.approx(1.5)
        assert fam["ok_frac"] == 1.0  # 1.5x is inside the factor band

    def test_records_without_cost_check_are_ignored(self):
        assert fit_bounds([{"x": 1}]) == {}


class TestGate:
    def test_baseline_roundtrip_passes(self, tmp_path):
        path = tmp_path / "baseline.json"
        gate = RegressionGate()
        gate.update(records(), path, campaign="synthetic")
        doc = load_json(path, kind=GATE_KIND)
        assert doc["campaign"] == "synthetic"
        result = gate.check(records(), path)
        assert result.ok, result.failures
        assert "regression gate — ok" in result.render()

    def test_slope_drift_fails(self, tmp_path):
        path = tmp_path / "baseline.json"
        gate = RegressionGate()
        gate.update(records(), path)
        result = gate.check(records(scale=2.0), path)
        assert not result.ok
        assert any("slope drifted" in f for f in result.failures)
        assert "FAIL" in result.render()

    def test_drift_within_tolerance_passes(self, tmp_path):
        path = tmp_path / "baseline.json"
        gate = RegressionGate()
        gate.update(records(), path)
        # a 10% shift of the factor family stays inside RATIO_TOL and the
        # factor band, so every check still passes
        assert gate.check(records(slowdown_scale=1.1), path).ok

    def test_ok_fraction_drop_fails(self, tmp_path):
        path = tmp_path / "baseline.json"
        gate = RegressionGate()
        gate.update(records(), path)
        # push the slowdown outside the factor band for every point:
        # ok_frac collapses (and the ratio drifts with it)
        result = gate.check(records(slowdown_scale=10.0), path)
        assert not result.ok
        assert any("ok fraction regressed" in f for f in result.failures)

    def test_disappeared_family_fails(self, tmp_path):
        path = tmp_path / "baseline.json"
        gate = RegressionGate()
        gate.update(records(), path)
        pruned = records()
        for rec in pruned:
            rec["cost_check"]["residuals"] = rec["cost_check"]["residuals"][:1]
        result = gate.check(pruned, path)
        assert any("disappeared" in f for f in result.failures)

    def test_wrong_schema_kind_is_rejected(self, tmp_path):
        from repro.campaign.io import dump_json

        path = tmp_path / "other.json"
        dump_json(path, "something.else", {"families": {}})
        with pytest.raises(ValueError, match="schema kind"):
            RegressionGate().check(records(), path)


class TestCommittedBaseline:
    def test_th1_grid_passes_its_committed_baseline(self, tmp_path):
        """The built-in Theorem 1 sweep, run in process, fits the
        committed ``campaign_th1.json`` (the CI campaign-smoke gate)."""
        baseline = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "baselines" / "campaign_th1.json"
        )
        report = run_campaign(CAMPAIGNS["th1-grid"], store_dir=tmp_path, parallel=1)
        assert report.ok and report.ran == len(CAMPAIGNS["th1-grid"]) == 24
        result = RegressionGate().check(report.records(), baseline)
        assert result.ok, result.render()
