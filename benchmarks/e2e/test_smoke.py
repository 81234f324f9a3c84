"""Smoke test of the benchmark itself (not part of the tier-1 suite):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs every workload in ``--smoke`` mode, traced and untraced, and holds
the output against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
from measure import answer_of  # noqa: E402
from spec import END_TO_END, LIMIT, PER_LAYER, TIMEOUT_S, WORKLOADS  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(*arguments, **kwargs):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, **kwargs)


def _serving() -> list[str]:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                words = handle.read().split(b"\0")
        except OSError:
            continue
        if b"repro" in words and b"serve" in words:
            found.append(pid)
    return found


@pytest.fixture(scope="module")
def smoke():
    """``{(workload, trace): (stdout lines, last-line JSON)}``."""
    shm_before = set(os.listdir("/dev/shm"))
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = _run("--workload", name, "--smoke", "--trace", str(trace))
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            out[name, trace] = (lines, json.loads(lines[-1]))
    assert set(os.listdir("/dev/shm")) == shm_before
    assert _serving() == []
    return out


def test_benchmark_json_is_within_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = {e["name"]: e for e in BENCHMARK["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


def test_benchmark_json_agrees_with_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == list(PER_LAYER)


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(smoke, trace,
                                                        declared):
    for name in WORKLOADS:
        lines, result = smoke[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) \
            == [m["name"] for m in BENCHMARK[declared]]
        for metric in BENCHMARK[declared]:
            value = result["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
            assert any(line.split()[:1] == [metric["name"]]
                       and line.split()[-1] == metric["unit"]
                       for line in lines), metric["name"]
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layers_report_where_they_are_used(smoke):
    library, wire = smoke["var2var", 1][1], smoke["served_uncached", 1][1]
    for name, row in (("core.self_share", library),
                      ("succinct.rank_ops_per_query", library),
                      ("serve.execute_ms_p50", wire),
                      ("serve.ipc_ms_p50", wire), ("serve.shm_mb", wire)):
        assert row["metrics"][name]["value"] > 0, name
    assert wire["metrics"]["serve.cache_hit_ratio"]["value"] == 0
    assert library["metrics"]["serve.execute_ms_p50"]["value"] == 0


def test_span_files_close(smoke):
    for name in WORKLOADS:
        with open(HERE / "_work" / f"trace-{name}.json",
                  encoding="utf-8") as handle:
            trace = json.load(handle)
        spans = trace["spans"]
        assert spans and trace["fields"][:5] == [
            "name", "start", "end", "parent", "request"]
        covered = [0.0] * len(spans)
        for span_name, start, end, parent, request, _ in spans:
            assert end >= start
            if parent >= 0:
                assert spans[parent][4] == request
                covered[parent] += end - start
        for (span_name, start, end, *_), children in zip(spans, covered):
            # self time + children's time == the span, and self time >= 0
            assert children <= (end - start) * (1 + 1e-9) + 1e-9, span_name


def test_a_corrupted_golden_is_a_failure(tmp_path, monkeypatch):
    from repro import RingIndex
    from repro.graph.io import load_graph

    with run.Context(WORKLOADS["anchored"], 0, 1, False, False) as ctx:
        keys = [r.key for r in ctx.requests[:60]]
        engine = RingIndex.from_graph(load_graph(ctx.graph_path)).engine
        answers = [answer_of(engine.evaluate(key, timeout=TIMEOUT_S,
                                             limit=LIMIT)) for key in keys]
        golden = check.expectations("anchored", 0, False, keys, ctx.graph_path)
        assert check.failures(keys, answers, golden, True) == []

        with open(check.GOLDEN, encoding="utf-8") as handle:
            corrupted = json.load(handle)
        corrupted["anchored"][keys[7]][1] ^= 1
        del corrupted["anchored"][keys[9]]
        path = tmp_path / "seed0.json"
        path.write_text(json.dumps(corrupted))
        monkeypatch.setattr(check, "GOLDEN", path)
        golden = check.expectations("anchored", 0, False, keys, ctx.graph_path)
        failed = check.failures(keys, answers, golden, True)
        assert len(failed) == 2
        assert failed[0].startswith(keys[7]) and failed[1].startswith(keys[9])


def test_wire_workloads_refuse_a_one_core_host():
    cpu = min(os.sched_getaffinity(0))
    done = _run("--workload", "served_cached", "--smoke",
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert done.returncode != 0 and "one core" in done.stderr
    assert done.stdout == ""


_ORPHANS = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # orphans are re-parented to us
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state, parent = handle.read().rsplit(b")", 1)[1].split()[:2]
    except OSError:
        continue
    if int(parent) == os.getpid() and state != b"Z":
        left.append(pid)
print(code, left)
"""


@pytest.mark.parametrize("workload", ["anchored", "served_uncached"])
def test_no_process_outlives_a_run(workload):
    """Not even by a moment: the traced runs create a shared-memory
    segment, and ``multiprocessing``'s resource tracker used to end
    only after the run had exited."""
    done = subprocess.run(
        [sys.executable, "-c", _ORPHANS, sys.executable, str(HERE / "run.py"),
         "--workload", workload, "--smoke", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.stdout.split() == ["0", "[]"]


def test_fails_cleanly_without_the_program(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    the benchmark's own directory exist: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "anchored",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
