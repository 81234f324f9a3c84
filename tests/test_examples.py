"""Smoke tests: every example script must run end to end."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, name: str, argv: list[str]):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "quickstart.py", [])
    assert "Baq → SA" in out or "Baq  → SA" in out.replace("  ", " ")
    assert "Metro reachability" in out


def test_transport_network(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "transport_network.py",
        ["--lines", "2", "--stations", "5", "--bus", "6"],
    )
    assert "stations reachable" in out
    assert "impossible" not in out.split("out-and-back")[0]


def test_knowledge_graph(monkeypatch, capsys):
    # shrink the graph through the module's constants? the script is
    # parameterless, so just run it (it is sized for ~2s).
    out = run_example(monkeypatch, capsys, "knowledge_graph.py", [])
    assert "all engines agree" in out


def test_advanced_features(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "advanced_features.py", [])
    assert "leapfrog join" in out
    assert "answers identical" in out


def test_chrome_trace(monkeypatch, capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    out = run_example(
        monkeypatch, capsys, "chrome_trace.py",
        ["--out", str(trace_path)],
    )
    assert "latency histogram" in out
    assert "slow-query log" in out
    assert "wrote Chrome trace" in out
    import json

    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    assert all(e["ph"] == "X" for e in trace["traceEvents"])


@pytest.mark.slow
def test_query_log_analysis(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "query_log_analysis.py",
        ["--scale", "0.01", "--timeout", "1.0"],
    )
    assert "pattern mix" in out
    assert "mean time per pattern" in out


@pytest.mark.concurrency
def test_live_telemetry(monkeypatch, capsys, tmp_path):
    stem = tmp_path / "live-telemetry"
    out = run_example(
        monkeypatch, capsys, "live_telemetry.py",
        ["--queries", "20", "--out", str(stem)],
    )
    assert "/healthz ok" in out
    assert "/metrics ok" in out
    assert "/debug/vars ok" in out
    assert "/debug/space ok" in out
    assert "all checks passed" in out
    assert stem.with_suffix(".queries.jsonl").exists()
    assert stem.with_suffix(".flight.json").exists()
