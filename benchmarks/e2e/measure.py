"""Small measurement helpers shared by the runners."""

from __future__ import annotations

import os
import signal
import statistics
import sys
import time
import zlib


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def digest(pairs) -> int:
    """CRC-32 of the sorted ``subject<TAB>object`` lines of an answer."""
    lines = "\n".join(f"{s}\t{o}" for s, o in sorted(map(tuple, pairs)))
    return zlib.crc32(lines.encode("utf-8"))


def answer_of(result) -> dict:
    """What is checked of one ``QueryResult``: size, digest, flags."""
    return {"n": len(result.pairs), "crc": digest(result.pairs),
            "truncated": result.stats.truncated,
            "timed_out": result.stats.timed_out}


def enough_passes(elapsed: float, passes: int, seconds: float) -> bool:
    """Whole passes only, rounded to the count nearest ``seconds``: a
    pass cut short would drop a seed-dependent set of heavy requests."""
    return elapsed + 0.5 * elapsed / passes >= seconds


def per_request_median(passes: list[list[float]]) -> list[float]:
    """Each request's latency as the median over the passes, so a burst
    of machine noise during one pass moves no percentile."""
    return [statistics.median(sample) for sample in zip(*passes)]


# ----------------------------------------------------------------------
# /proc readers (Linux): CPU and peak RSS of a process tree
# ----------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid) -> list[bytes] | None:
    """``/proc/<pid>/stat`` after the command name: state is field 0,
    ppid 1, utime 11, stime 12.  ``None`` when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def process_tree(root: int) -> list[int]:
    """``root`` and its live descendants (workers, resource tracker)."""
    parent: dict[int, int] = {}
    for entry in filter(str.isdigit, os.listdir("/proc")):
        fields = _stat_fields(entry)
        if fields:
            parent[int(entry)] = int(fields[1])
    tree, frontier = [root], [root]
    while frontier:
        pid = frontier.pop()
        children = [c for c, p in parent.items() if p == pid]
        tree.extend(children)
        frontier.extend(children)
    return tree


def cpu_seconds(pids) -> float:
    """user+sys CPU seconds consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _TICK


def peak_rss_mib(pids) -> float:
    """Sum of ``VmHWM`` over ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kib / 1024


def alive(pids) -> list[int]:
    """Those of ``pids`` that still run (a zombie has ended)."""
    return [pid for pid in pids
            if (fields := _stat_fields(pid)) and fields[0] != b"Z"]


def wait_gone(pids, grace: float) -> list[int]:
    """Wait up to ``grace`` seconds for ``pids`` to end, then kill what
    is left and wait for that too; returns what had to be killed."""
    deadline = time.monotonic() + grace
    while (left := alive(pids)) and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while alive(left):
        time.sleep(0.02)
    return left


def end_descendants(grace: float = 2.0) -> list[int]:
    """On every way out of a run: stop what this process still has
    running and wait until each has ended.  ``multiprocessing``'s
    resource tracker (started by the first shared-memory segment this
    process creates) otherwise outlives its parent by a moment."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe, waits for it
    killed = wait_gone(process_tree(os.getpid())[1:], grace)
    try:
        while os.waitpid(-1, os.WNOHANG) != (0, 0):
            pass
    except ChildProcessError:
        pass
    return killed
