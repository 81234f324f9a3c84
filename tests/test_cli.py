"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph.generators import chain_graph
from repro.graph.io import save_graph


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "chain.nt"
    save_graph(chain_graph(4), path)
    return str(path)


class TestQuery:
    def test_query_outputs_pairs(self, graph_file, capsys):
        rc = main(["query", graph_file, "(n0, next+, ?y)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n0\tn1" in out
        assert "n0\tn4" in out

    def test_query_with_baseline_engine(self, graph_file, capsys):
        rc = main([
            "query", graph_file, "(n0, next+, ?y)",
            "--engine", "alp-jena",
        ])
        assert rc == 0
        assert "n0\tn4" in capsys.readouterr().out

    def test_query_limit(self, graph_file, capsys):
        main(["query", graph_file, "(?x, next*, ?y)", "--limit", "2"])
        out = capsys.readouterr()
        assert len(out.out.strip().splitlines()) == 2
        assert "TRUNCATED" in out.err


class TestExplainAnalyze:
    def test_profile_is_not_a_subcommand(self, graph_file, capsys):
        """The per-phase table is part of ``explain --analyze``; there
        is no separate ``profile`` command."""
        with pytest.raises(SystemExit) as info:
            main(["profile", graph_file, "(n0, next+, ?y)"])
        assert info.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    def test_analyze_prints_the_phase_table(self, graph_file, capsys):
        rc = main(["explain", graph_file, "(n0, next+, ?y)", "--analyze"])
        assert rc == 0
        out = capsys.readouterr().out
        for phase in ("predicates_from_objects",
                      "subjects_from_predicates", "subjects_to_objects"):
            assert phase in out
        assert "object_ranges" in out


class TestMatch:
    def test_match_wildcard(self, graph_file, capsys):
        rc = main(["match", graph_file, "?", "next", "?"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n0\tnext\tn1" in out
        assert len(out.strip().splitlines()) == 4

    def test_match_bound(self, graph_file, capsys):
        rc = main(["match", graph_file, "n1", "?", "?"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n1\tnext\tn2" in out
        assert "n1\t^next\tn0" in out

    def test_match_limit(self, graph_file, capsys):
        main(["match", graph_file, "?", "?", "?", "--limit", "3"])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3


class TestStats:
    def test_stats(self, graph_file, capsys):
        rc = main(["stats", graph_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nodes            : 5" in out
        assert "bytes/edge" in out


class TestGenerate:
    def test_generate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "synth.nt"
        rc = main([
            "generate", str(out_path),
            "--nodes", "50", "--edges", "200", "--predicates", "8",
        ])
        assert rc == 0
        assert out_path.exists()
        rc = main(["stats", str(out_path)])
        assert rc == 0


class TestBench:
    def test_table1_via_cli(self, capsys):
        rc = main([
            "bench", "table1",
            "--scale", "0.01", "--nodes", "200", "--edges", "1000",
            "--predicates", "12",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out


class TestLayering:
    def test_serving_imports_leave_the_bench_harness_out(self):
        """``bench`` imports core / matrix / serve, never the reverse:
        starting the CLI, a serving tier, the router or EXPLAIN loads
        no ``repro.bench`` module."""
        import importlib.util
        import subprocess
        import sys

        modules = ["repro.cli", "repro.serve", "repro.obs.explain"]
        if importlib.util.find_spec("scipy") is not None:
            modules.append("repro.matrix.routed")
        code = (
            f"import sys, {', '.join(modules)}\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.bench')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"
