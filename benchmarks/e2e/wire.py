"""The wire path: ``python -m repro serve`` driven over HTTP.

The server is a subprocess started exactly as a user would start it;
this side is the load generator: ``CONNECTIONS`` keep-alive callers in
one process, each sending its next request only after the previous
reply's trailer was read (a closed loop — callers of a KG endpoint wait
for their reply).  Everything reported comes from outside the server:
client clocks, response headers and trailers, ``/proc`` of the server's
process tree, and the ``.stats`` command on its stdin.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time

from measure import (
    cpu_seconds,
    digest,
    enough_passes,
    median,
    peak_rss_mib,
    percentile,
    process_tree,
    ratio,
    wait_gone,
)
from spec import CONNECTIONS
from tracing import Tracer

_URL = re.compile(r"query API: http://([^:/]+):(\d+)/query")
_IPC_STAGES = ("request_serialize", "pipe_to_worker", "reply_transfer")


class Server:
    """One ``repro serve`` subprocess with the HTTP front door."""

    def __init__(self, ctx):
        self._stderr_path = ctx.work / "server.err"
        self._timeout = ctx.timeout + 30
        begun = time.perf_counter()
        with open(self._stderr_path, "w", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(ctx.graph_path),
                 "--http-port", "0", "--max-pending", "64",
                 "--timeout", str(ctx.timeout), "--limit", str(ctx.limit),
                 *ctx.workload.server_args],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
                text=True, cwd=ctx.work,
                env={**os.environ, "PYTHONPATH": str(ctx.src)},
            )
        try:
            self.host, self.port = self._wait_for_url()
            # The space audit, cold: lazy batch mirrors appear with the
            # first query that needs one, which depends on the seed.
            asked = time.perf_counter()
            self.space, self.start_stats = self.ask(".space")
            audit = time.perf_counter() - asked
            first = self.connect()
            status, _, _ = first.post(ctx.requests[0].text)
            first.close()
            if status != 200:
                raise RuntimeError(f"first query answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - begun - audit
        self.pids = process_tree(self.process.pid)

    def _wait_for_url(self) -> tuple[str, int]:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            found = _URL.search(self._stderr_path.read_text(encoding="utf-8"))
            if found:
                return found.group(1), int(found.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            "server did not come up:\n"
            + self._stderr_path.read_text(encoding="utf-8")[-2000:])

    def connect(self) -> "Caller":
        return Caller(self.host, self.port, self._timeout)

    def ask(self, *commands: str) -> tuple[list[str], dict]:
        """Type REPL ``commands`` and then ``.stats``; returns the lines
        the commands printed and the service's statistics (whose JSON
        marks where their output ends)."""
        self.process.stdin.write("".join(f"{c}\n" for c in commands)
                                 + ".stats\n")
        self.process.stdin.flush()
        lines = []
        for line in self.process.stdout:
            lines.append(line.rstrip("\n"))
            if lines[-1] == "}":
                break
        start = lines.index("{")
        return lines[:start], json.loads("\n".join(lines[start:]))

    def stop(self) -> list[int]:
        """``.quit`` and wait until the server and everything it started
        (workers, its resource tracker) has ended; returns the processes
        that stayed and had to be killed."""
        process = self.process
        tree = process_tree(process.pid)  # now: a dead parent hides them
        if process.poll() is None:
            try:
                process.stdin.write(".quit\n")
                process.stdin.flush()
                process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                pass
        # workers first: a killed parent cannot reap them
        killed = wait_gone(tree[::-1], grace=5 if process.poll() is not None
                           else 0)
        process.wait()
        for stream in (process.stdin, process.stdout):
            stream.close()
        return killed


class Caller:
    """One keep-alive HTTP connection."""

    def __init__(self, host: str, port: int, timeout: float):
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def post(self, text: str):
        """``POST /query``; returns ``(status, headers, body bytes)`` once
        the whole NDJSON stream, trailer included, was read."""
        self._conn.request(
            "POST", "/query", body=json.dumps({"query": text}),
            headers={"Content-Type": "application/json"})
        response = self._conn.getresponse()
        return response.status, response.headers, response.read()

    def close(self) -> None:
        self._conn.close()


def _trailer(body: bytes) -> dict:
    return json.loads(body[body.rindex(b"\n", 0, len(body) - 1) + 1:])


def _answer(status: int, body: bytes) -> dict:
    """A fully parsed and digested answer (the check pass)."""
    if status != 200:
        return {"error": f"HTTP {status}: {body[:200]!r}"}
    records = [json.loads(line) for line in body.splitlines()]
    pairs = [pair for r in records if r["kind"] == "page"
             for pair in r["pairs"]]
    stats = records[-1]["stats"]
    if len(pairs) != records[-1]["n_results"]:
        return {"error": f"{len(pairs)} pairs streamed, trailer says "
                         f"{records[-1]['n_results']}"}
    return {"n": len(pairs), "crc": digest(pairs),
            "truncated": stats["truncated"], "timed_out": stats["timed_out"]}


def _pass(server: Server, requests, on_reply) -> dict:
    """One closed-loop pass of ``requests`` over ``CONNECTIONS`` callers.
    ``on_reply(i, sent, done, status, headers, body)`` runs after the
    latency clock stopped."""
    n = len(requests)
    latency = [0.0] * n
    take = itertools.count()
    errors: list[BaseException] = []

    def caller() -> None:
        connection = server.connect()
        try:
            while (i := next(take)) < n:
                sent = time.perf_counter()
                try:
                    status, headers, body = connection.post(requests[i].text)
                except (OSError, http.client.HTTPException) as exc:
                    status, headers, body = 0, {}, repr(exc).encode()
                    connection.close()
                    connection = server.connect()
                done = time.perf_counter()
                latency[i] = done - sent
                on_reply(i, sent, done, status, headers, body)
        except BaseException as exc:  # noqa: BLE001 - re-raised by _pass
            errors.append(exc)
        finally:
            connection.close()

    cpu, start = cpu_seconds(server.pids), time.perf_counter()
    threads = [threading.Thread(target=caller) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return {"wall": time.perf_counter() - start,
            "cpu": cpu_seconds(server.pids) - cpu, "latency": latency}


def _sized_pass(server: Server, requests) -> dict:
    """A timed pass: replies are only sized (trailer count, -1 = failed)."""
    sizes = [-1] * len(requests)

    def on_reply(i, sent, done, status, headers, body):
        if status == 200:
            trailer = _trailer(body)
            if not trailer["stats"]["timed_out"]:
                sizes[i] = trailer["n_results"]

    return {**_pass(server, requests, on_reply), "sizes": sizes}


def run(ctx) -> dict:
    """Run one wire workload; ``ctx`` is ``run.Context``."""
    shm_before = set(os.listdir("/dev/shm"))
    setups = []
    for _ in range(ctx.setups - 1):
        server = Server(ctx)
        setups.append(server.setup_s)
        server.stop()
    server = Server(ctx)
    setups.append(server.setup_s)
    try:
        answers: list = [None] * len(ctx.requests)

        def check(i, sent, done, status, headers, body):
            answers[i] = _answer(status, body)

        _pass(server, ctx.requests, check)
        measured = {"setups": setups, "answers": answers, "passes": []}
        if ctx.trace:
            quarter = ctx.requests[:max(1, len(ctx.requests) // 4)]
            measured["attempted_extra"] = 2 * len(quarter)
            measured["layer"] = _traced(server, quarter, ctx)
        else:
            begun = time.perf_counter()
            while True:
                measured["passes"].append(_sized_pass(server, ctx.requests))
                if enough_passes(time.perf_counter() - begun,
                                 len(measured["passes"]), ctx.seconds):
                    break
        _, stats = server.ask()
        measured["peak_rss_mb"] = peak_rss_mib(server.pids)
        measured["index_bits_per_triple"] = _index_bits(
            server.space, server.start_stats)
        if ctx.trace:
            measured["layer"].update({
                "serve.shm_mb":
                    stats.get("pool", {}).get("shm_bytes", 0) / 2 ** 20,
                "serve.cache_bytes": stats["cache"]["bytes"],
            })
    finally:
        killed = server.stop()
    leaked = set(os.listdir("/dev/shm")) - shm_before
    if killed or leaked:
        raise RuntimeError(f"the server left behind: processes {killed}, "
                           f"/dev/shm {sorted(leaked)}")
    return measured


def _index_bits(space: list[str], stats: dict) -> float:
    """Bits per completed triple of the state queries are served from:
    the shared-memory segment for the process pool, otherwise the ring
    plus the matrix store, as the service's own ``.space`` audit (rows
    of ``component  bytes ...``) reports them."""
    triples = int(stats["fingerprint"].split("-")[0])
    served = stats.get("pool", {}).get("shm_bytes")
    if not served:
        audited: dict[str, int] = {}
        for row in space:
            cells = row.split()
            if len(cells) >= 2 and cells[1].replace(",", "").isdigit():
                audited.setdefault(cells[0], int(cells[1].replace(",", "")))
        served = audited["ring"] + audited.get("matrix", 0)
    return served * 8 / triples


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------


def _stages(header: str) -> dict[str, float]:
    return {name: float(seconds) for name, seconds in
            (part.split("=") for part in header.split(";") if part)}


def _traced(server: Server, requests, ctx) -> dict[str, float]:
    """Untraced then traced pass over ``requests``.  The traced pass
    keeps, per request, the server's ``X-Query-Stages`` decomposition
    as child spans of the client's request span; what the stages do not
    cover is HTTP overhead (framing, loop scheduling, the socket)."""
    untraced = _sized_pass(server, requests)

    tracer = Tracer()
    lock = threading.Lock()
    rows: list[dict] = []

    def on_reply(i, sent, done, status, headers, body):
        row = {"status": status, "bytes": len(body), "latency": done - sent,
               "stages": {}, "pairs": 0, "cached": False, "backend": ""}
        if status == 200:
            trailer = _trailer(body)
            row["stages"] = _stages(headers.get("X-Query-Stages", ""))
            row["pairs"] = trailer["n_results"]
            row["cached"] = trailer["stats"]["cached"]
            row["backend"] = trailer["stats"].get("backend", "")
        with lock:
            rows.append(row)
            root = len(tracer.spans)
            tracer.spans.append(["client.request", sent, done, -1, i, 0])
            at = sent  # durations are the server's; offsets are nominal
            for name, seconds in row["stages"].items():
                tracer.spans.append(
                    [f"serve.{name}", at, at + seconds, root, i, 0])
                at += seconds

    traced = _pass(server, requests, on_reply)
    tracer.dump(ctx.trace_file, workload=ctx.workload.name,
                requests=len(requests), untraced_wall=untraced["wall"],
                traced_wall=traced["wall"])

    ok = [r for r in rows if r["status"] == 200]
    evaluated = [r for r in ok if not r["cached"]]

    def stage_ms(*names):
        return [sum(r["stages"].get(n, 0.0) for n in names) * 1e3
                for r in evaluated]

    overhead = [(r["latency"] - sum(r["stages"].values())) * 1e3 for r in ok]
    total_bytes = sum(r["bytes"] for r in ok)
    return {
        "serve.http_overhead_ms_p50": median(overhead),
        "serve.http_overhead_ms_p95": percentile(overhead, 0.95),
        "serve.admission_us_p50": median(stage_ms("admission")) * 1e3,
        "serve.queue_wait_ms_p50": median(stage_ms("queue_wait")),
        "serve.queue_wait_ms_p95": percentile(stage_ms("queue_wait"), 0.95),
        "serve.execute_ms_p50": median(stage_ms("execute")),
        "serve.execute_ms_p95": percentile(stage_ms("execute"), 0.95),
        "serve.ipc_ms_p50": median(stage_ms(*_IPC_STAGES)),
        "serve.ipc_ms_p95": percentile(stage_ms(*_IPC_STAGES), 0.95),
        "serve.settle_ms_p50": median(stage_ms("settle")),
        "serve.worker_utilization":
            ratio(sum(stage_ms("execute")) / 1e3, traced["wall"]),
        "serve.stream_mb_per_s": ratio(total_bytes / 1e6, traced["wall"]),
        "serve.bytes_per_pair":
            ratio(total_bytes, sum(r["pairs"] for r in ok)),
        "serve.rejected_429": sum(r["status"] == 429 for r in rows),
        "serve.cache_hit_ratio": ratio(len(ok) - len(evaluated), len(ok)),
        "matrix.routed_share":
            ratio(sum(r["backend"] == "matrix" for r in evaluated),
                  len(evaluated)),
        "obs.trace_overhead_ratio": ratio(traced["wall"], untraced["wall"]),
    }
