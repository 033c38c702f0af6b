"""Tests for the ``python -m repro`` CLI."""

import json
import re
from pathlib import Path

import pytest

from repro import __main__ as cli
from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table5", "fig4", "fig9"):
            assert name in out
        assert "trace" in out

    def test_unknown_experiment_errors(self):
        # Removed subcommand names fail like any unknown word: they
        # must not fall through to a traced run or a default.
        for command in ("nonsense", "bench", "profile", "perf-gate"):
            with pytest.raises(SystemExit):
                main([command])

    def test_docs_name_only_live_commands(self):
        """Every ``python -m repro <word>`` in the docs is a command
        the CLI still has."""
        live = set(cli._experiments()) | {
            "list", "all", "scale", "trace", "analyze", "fuzz"}
        root = Path(__file__).resolve().parents[2]
        texts = {name: (root / name).read_text(encoding="utf-8")
                 for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")}
        texts["repro.__main__"] = cli.__doc__
        dead = {
            (name, word)
            for name, text in texts.items()
            for word in re.findall(r"python -m repro ([a-z][\w-]*)", text)
            if word not in live
        }
        assert not dead, f"docs name removed commands: {sorted(dead)}"

    def test_spec_table_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "insert_entry" in out
        assert "regenerated in" in out

    def test_table3_runs(self, capsys):
        assert main(["table3"]) == 0
        assert "L-COM" in capsys.readouterr().out


class TestTraceCli:
    def test_trace_fig5_smoke(self, capsys, tmp_path):
        """``trace fig5`` writes a valid Chrome trace with at least one
        span per cross-server operation and no invariant violations."""
        out_file = tmp_path / "trace_fig5.json"
        code = main([
            "trace", "fig5", "--scale", "0.0005",
            "--out", str(out_file), "--seed", "1",
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "invariant violations: 0" in printed

        doc = json.loads(out_file.read_text())
        spans_by_op = {}
        for e in doc["traceEvents"]:
            if e.get("ph") == "X" and "op_id" in e.get("args", {}):
                spans_by_op.setdefault(e["args"]["op_id"], []).append(e)
        # cross-server ops executed on two servers (= two pids)
        cross = {
            op: spans
            for op, spans in spans_by_op.items()
            if len({s["pid"] for s in spans}) > 1
        }
        assert cross, "no cross-server operations in the trace"
        for op, spans in cross.items():
            assert len(spans) >= 1, f"no spans for {op}"

    def test_trace_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["trace", "fig4"])

    def test_trace_without_target_errors(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_trace_metrics_flag(self, capsys, tmp_path):
        out_file = tmp_path / "t.json"
        code = main([
            "trace", "fig5", "--scale", "0.0003",
            "--out", str(out_file), "--metrics",
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "per-server metrics:" in printed
        assert "commit.decisions" in printed
