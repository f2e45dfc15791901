"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, main


class TestList:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig8a" in output
        assert "table2" in output
        assert "youtube" in output


class TestDatasets:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "youtube-small" in output
        assert "|V|=" in output


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig8m", "--scale", "quick", "--seed", "2"]) == 0
        output = capsys.readouterr().out
        assert "fig8m" in output
        assert "Summary:" in output

    def test_run_writes_output_file(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        assert main(["run", "fig8c", "--scale", "quick", "--output", str(report)]) == 0
        capsys.readouterr()
        assert report.exists()
        assert "fig8c" in report.read_text(encoding="utf-8")

    def test_unknown_experiment_errors(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "fig8zz"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestSubscribe:
    def test_subscribe_reports_maintenance_and_verifies(self, tmp_path, capsys):
        import json

        out = tmp_path / "subscribe.json"
        assert (
            main(
                [
                    "subscribe",
                    "--dataset",
                    "youtube-small",
                    "--count",
                    "8",
                    "--batches",
                    "2",
                    "--ops",
                    "10",
                    "--confine",
                    "0.3",
                    "--executor",
                    "serial",
                    "--verify",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "registered: 8 subscriptions" in output
        assert "verify=ok" in output and "MISMATCH" not in output
        assert "replay: every pushed log replays" in output
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["subscriptions"] == 8 and payload["batches"] == 2
        assert payload["verify_failures"] == 0 and payload["replay_parity"] is True
        assert 0.0 <= payload["affected_fraction"] <= 1.0
        # Every pushed delta is a snapshot or a change on some subscription.
        assert payload["deltas_pushed"] == payload["answer_deltas"] + 8

    def test_subscribe_rejects_bad_confine(self):
        with pytest.raises(SystemExit):
            main(["subscribe", "--confine", "1.5"])


class TestTrace:
    def test_trace_prints_waterfall_and_exports_chrome_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "--dataset",
                    "youtube-small",
                    "--count",
                    "40",
                    "--batches",
                    "2",
                    "--executor",
                    "serial",
                    "--export",
                    str(out),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "trace " in output and "service.query" in output
        payload = json.loads(out.read_text(encoding="utf-8"))
        events = payload["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        assert events[0]["name"] == "service.query"


class TestCommandTable:
    """Every entry of the command table runs end to end at tiny sizes."""

    @staticmethod
    def _smoke(name, tmp_path):
        """``(argv list, expected output)`` of one command's smoke run."""
        snapshot = str(tmp_path / "metrics.json")
        return {
            "list": ([["list"]], "experiments:"),
            "run": ([["run", "fig8m", "--scale", "quick"]], "Summary:"),
            "datasets": ([["datasets"]], "|V|="),
            "batch": ([["batch", "--count", "5", "--output", str(tmp_path / "batch.json")]], "plan: backend="),
            "update": ([["update", "--batches", "1", "--ops", "5", "--queries", "5", "--verify"]], "verify=ok"),
            "subscribe": ([["subscribe", "--count", "2", "--batches", "1", "--ops", "5"]], "registered: 2"),
            "shard": ([["shard", "-k", "2", "--count", "5", "--compare-unsharded"]], "vs unsharded: agreement="),
            "trace": ([["trace", "--count", "5", "--batches", "1", "--executor", "serial"]], "p99 exemplar"),
            # stats --input reads the snapshot a batch wrote with --metrics-json.
            "stats": (
                [["batch", "--count", "5", "--metrics-json", snapshot], ["stats", "--input", snapshot]],
                "service.batch.seconds",
            ),
        }[name]

    @pytest.mark.parametrize("name", [command.name for command in COMMANDS])
    def test_every_command_runs(self, name, tmp_path, capsys):
        runs, expected = self._smoke(name, tmp_path)
        for argv in runs:
            assert main(argv) == 0, argv
        assert expected in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("command", "flag"),
        [
            ("batch", "--count"),
            ("batch", "--repeat"),
            ("batch", "--workers"),
            ("update", "--batches"),
            ("update", "--ops"),
            ("update", "--queries"),
            ("subscribe", "--count"),
            ("shard", "--shards"),
            ("shard", "--halo-depth"),
            ("trace", "--batches"),
            ("stats", "--count"),
        ],
    )
    def test_count_flags_reject_values_below_one(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
