"""The campaign subcommand of python -m repro.experiments."""

import json

from repro.experiments import main


def run_cli(*argv) -> int:
    return main(list(argv))


class TestCampaignCLI:
    def test_list_shows_builtin_campaigns(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        assert "th1-grid" in out and "[campaign]" in out

    def test_adhoc_campaign_runs_and_caches(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert run_cli("campaign", "demo", "--grid", "x=1,2,3", "--store", store) == 0
        out = capsys.readouterr().out
        assert "campaign — demo" in out
        assert "0% hit rate" in out

        assert run_cli("campaign", "demo", "--grid", "x=1,2,3", "--store", store) == 0
        assert "100% hit rate" in capsys.readouterr().out

    def test_json_document(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert run_cli(
            "campaign", "demo", "--grid", "x=1", "--store", store, "--json"
        ) == 0
        out = capsys.readouterr().out
        doc = json.loads([ln for ln in out.splitlines() if ln.startswith("{")][0])
        assert doc["campaign"] == "demo"
        assert doc["total"] == 1 and doc["failed"] == 0

    def test_failed_points_set_exit_code(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        rc = run_cli("campaign", "demo", "--grid", "mode=ok,fail", "--store", store)
        assert rc == 1
        assert "1 failed" in capsys.readouterr().out

    def test_stop_after_reports_resume_hint(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        rc = run_cli(
            "campaign", "demo", "--grid", "x=1,2,3", "--store", store,
            "--stop-after", "1",
        )
        assert rc == 0  # interrupted is not failure
        assert "rerun to resume" in capsys.readouterr().out

    def test_builtin_rejects_grid_flags(self, capsys):
        assert run_cli("campaign", "th1-grid", "--grid", "x=1") == 2
        assert "built-in campaign" in capsys.readouterr().err

    def test_unknown_target_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("campaign", "nope") == 2
        assert "unknown campaign target" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no store was opened

    def test_gate_update_then_check(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        gate = str(tmp_path / "gate.json")
        assert run_cli(
            "campaign", "theorem2", "--grid", "h=1,4", "--base", "p=8",
            "--store", store, "--update-gate", gate,
        ) == 0
        assert "gate baseline written" in capsys.readouterr().out
        assert run_cli(
            "campaign", "theorem2", "--grid", "h=1,4", "--base", "p=8",
            "--store", store, "--gate", gate,
        ) == 0
        out = capsys.readouterr().out
        assert "regression gate — ok" in out
        assert "100% hit rate" in out  # second run came from the cache

    def test_metrics_flag_prints_campaign_metrics(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert run_cli(
            "campaign", "demo", "--grid", "x=1,2", "--store", store, "--metrics"
        ) == 0
        out = capsys.readouterr().out
        assert "campaign.points" in out
        assert "campaign.cache_hit_rate" in out

    def test_parallel_flag_runs_the_pool(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert run_cli(
            "campaign", "demo", "--grid", "x=1,2,3,4", "--store", store,
            "--parallel", "2",
        ) == 0
        assert "workers |" in capsys.readouterr().out.replace("  ", " ")
