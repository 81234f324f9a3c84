"""Open-loop HTTP load generation against the real front-door socket.

The serving benchmarks so far replay queries *closed-loop*: each
client waits for a completion before offering the next query, so the
offered load self-regulates and the admission controller rarely sees a
queue it has to refuse.  Real front doors face **open-loop** arrivals:
requests arrive on the arrival process's schedule whether or not the
previous ones finished, so overload shows up as real queueing and the
fast-reject path actually runs.  This module generates that traffic
against :class:`~repro.serve.http.HTTPQueryServer` over TCP — every
number in the resulting report is *client-observed* through the whole
stack (socket, HTTP parse, admission, engine, NDJSON streaming), not a
server-side self-measurement.

The arrival process is a seeded **Poisson + Pareto mixture**: with
probability ``1 - pareto_share`` the next inter-arrival gap is
exponential (the memoryless Poisson baseline), otherwise Pareto with
tail index ``pareto_alpha`` scaled to the *same mean* — so the mixture
keeps the configured average rate while adding the bursty clustering
heavy-tailed think times produce.  Bursts are the point: a generator
whose arrivals are evenly spaced never exercises the admission bound
at rates a queue can drain on average.

``python -m repro.bench.loadgen`` runs the pinned nominal + overload
profiles against a freshly built benchmark index and prints the
report; ``--assert-rejections`` exits non-zero unless the overload
profile observed at least one 429 with ``Retry-After`` — the CI smoke
contract.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import threading
import time

from repro.bench.stats import percentile

#: The pinned load profiles — comparable across PRs only at identical
#: parameters.  ``overload`` offers arrivals well above the
#: single-worker service rate at a deliberately small admission
#: bound, so a non-zero rejection rate is the *expected* outcome, not
#: a flake.  The cache is disabled: cache hits settle at
#: submit without occupying a queue slot, so a cached service can
#: absorb any offered rate and the overload profile would prove
#: nothing.
LOADGEN_PARAMS = dict(
    profiles=dict(
        nominal=dict(rate=30.0, duration=3.0),
        overload=dict(rate=400.0, duration=3.0),
    ),
    pareto_share=0.3,
    pareto_alpha=1.3,
    timeout_ms=2_000.0,
    page_size=500,
    workers=1,
    max_pending=4,
    cache_size=0,
    seed=0x5EED,
)


def generate_arrivals(
    rate: float,
    duration: float,
    rng: random.Random,
    pareto_share: float = 0.3,
    pareto_alpha: float = 1.3,
) -> list[float]:
    """Arrival instants (seconds from start) of the mixture process.

    Each gap is exponential with mean ``1/rate``, or — with
    probability ``pareto_share`` — Pareto(``pareto_alpha``) rescaled
    to that same mean (``paretovariate`` has mean ``α/(α-1)``, so the
    scale factor is ``(α-1)/α · 1/rate``).  The sequence is fully
    determined by ``rng``.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if not 1.0 < pareto_alpha:
        raise ValueError("pareto_alpha must be > 1 (finite mean)")
    mean_gap = 1.0 / rate
    pareto_scale = mean_gap * (pareto_alpha - 1.0) / pareto_alpha
    arrivals: list[float] = []
    t = 0.0
    while True:
        if rng.random() < pareto_share:
            gap = pareto_scale * rng.paretovariate(pareto_alpha)
        else:
            gap = rng.expovariate(rate)
        t += gap
        if t >= duration:
            return arrivals
        arrivals.append(t)


def _one_request(host: str, port: int, query: str, timeout_ms: float,
                 page_size: int, outcomes: list, lock: threading.Lock,
                 client_timeout: float) -> None:
    """Fire one ``POST /query`` and record what the client observed."""
    body = json.dumps({
        "query": query,
        "timeout_ms": timeout_ms,
        "page_size": page_size,
    }).encode("utf-8")
    outcome = {"status": 0, "latency": 0.0, "retry_after": None,
               "timed_out": None, "error": None}
    t0 = time.perf_counter()
    try:
        conn = http.client.HTTPConnection(host, port,
                                          timeout=client_timeout)
        try:
            conn.request("POST", "/query", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = resp.read()    # drain the full stream
            outcome["status"] = resp.status
            if resp.status == 429:
                outcome["retry_after"] = resp.getheader("Retry-After")
            elif resp.status == 200:
                trailer = json.loads(
                    payload.decode("utf-8").splitlines()[-1]
                )
                outcome["timed_out"] = trailer["stats"]["timed_out"]
        finally:
            conn.close()
    except Exception as exc:  # noqa: BLE001 - loadgen records, never dies
        outcome["error"] = type(exc).__name__
    outcome["latency"] = time.perf_counter() - t0
    with lock:
        outcomes.append(outcome)


def run_open_loop(
    host: str,
    port: int,
    queries: list[str],
    arrivals: list[float],
    timeout_ms: float = 2_000.0,
    page_size: int = 500,
    seed: int = 0,
    client_timeout: float = 30.0,
) -> dict:
    """Drive ``arrivals`` against a live socket, open-loop.

    One thread per arrival, started at its scheduled instant whether
    or not earlier requests completed — nothing a slow server does can
    reduce the offered load.  Queries are drawn round-robin from
    ``queries`` after a seeded shuffle.  Returns the raw client-side
    summary; see :func:`summarize_outcomes` for the derived rates.
    """
    order = list(queries)
    random.Random(seed).shuffle(order)
    outcomes: list = []
    lock = threading.Lock()
    threads: list[threading.Thread] = []
    start = time.perf_counter()
    for i, at in enumerate(arrivals):
        delay = at - (time.perf_counter() - start)
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(
            target=_one_request,
            args=(host, port, order[i % len(order)], timeout_ms,
                  page_size, outcomes, lock, client_timeout),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=client_timeout)
    elapsed = time.perf_counter() - start
    return summarize_outcomes(outcomes, offered=len(arrivals),
                              elapsed=elapsed)


def summarize_outcomes(outcomes: list, offered: int,
                       elapsed: float) -> dict:
    """Client-observed rates and tails from raw request outcomes."""
    accepted = [o for o in outcomes if o["status"] == 200]
    rejected = [o for o in outcomes if o["status"] == 429]
    errors = [o for o in outcomes
              if o["error"] is not None or o["status"] not in (200, 429)]
    completed = len(outcomes)
    latencies = sorted(o["latency"] for o in accepted)
    tails = {}
    if latencies:
        tails = {
            "mean": sum(latencies) / len(latencies),
            "p50": percentile(latencies, 50),
            "p90": percentile(latencies, 90),
            "p99": percentile(latencies, 99),
            "max": latencies[-1],
        }
    deadline_met = sum(1 for o in accepted if o["timed_out"] is False)
    return {
        "offered": offered,
        "completed": completed,
        "accepted": len(accepted),
        "rejected": len(rejected),
        "errors": len(errors),
        "rejection_rate": (
            len(rejected) / completed if completed else 0.0
        ),
        "retry_after_observed": sum(
            1 for o in rejected if o["retry_after"] is not None
        ),
        "deadline_met": deadline_met,
        "timed_out": sum(1 for o in accepted if o["timed_out"] is True),
        "elapsed_seconds": elapsed,
        "qps": len(accepted) / elapsed if elapsed > 0 else 0.0,
        "latency_seconds": tails,
    }


def http_load_report(
    index,
    queries: list[str],
    pool_kinds: tuple = ("threads", "processes"),
    params: "dict | None" = None,
) -> dict:
    """The open-loop report ``--out`` writes (CI's ``http-bench.json``).

    Per pool tier, per pinned profile: a fresh service (pinned small
    worker/admission configuration, cache off) behind a fresh
    :class:`HTTPQueryServer` on an ephemeral port, driven by the
    seeded open-loop generator.  The overload profile is expected to
    record ``rejected > 0`` *and* ``retry_after_observed > 0`` — the
    acceptance criterion that the fast-reject path is observable from
    outside the process.
    """
    from repro.serve import ProcessQueryService, QueryService
    from repro.serve.http import HTTPQueryServer

    pools = {"threads": QueryService, "processes": ProcessQueryService}

    p = dict(LOADGEN_PARAMS)
    if params:
        p.update(params)
    report: dict = {
        "params": {
            key: value for key, value in p.items() if key != "profiles"
        },
        "profiles": {
            name: dict(profile)
            for name, profile in p["profiles"].items()
        },
        "tiers": {},
    }
    for kind in pool_kinds:
        tier: dict = {}
        for name, profile in p["profiles"].items():
            service = pools[kind](
                index,
                workers=p["workers"],
                max_pending=p["max_pending"],
                cache_size=p["cache_size"],
            )
            try:
                with HTTPQueryServer(service, port=0) as server:
                    rng = random.Random(p["seed"])
                    arrivals = generate_arrivals(
                        profile["rate"], profile["duration"], rng,
                        pareto_share=p["pareto_share"],
                        pareto_alpha=p["pareto_alpha"],
                    )
                    tier[name] = run_open_loop(
                        server.host, server.port, queries, arrivals,
                        timeout_ms=p["timeout_ms"],
                        page_size=p["page_size"],
                        seed=p["seed"],
                    )
            finally:
                service.close()
        report["tiers"][kind] = tier
    return report


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="open-loop HTTP load against the serving front door"
    )
    parser.add_argument("--pool", nargs="*", default=("threads",),
                        choices=("threads", "processes"), metavar="KIND",
                        help="serving tiers to drive (default: threads)")
    parser.add_argument("--duration", type=float, default=None,
                        help="override both profiles' duration (seconds)")
    parser.add_argument("--rate", type=float, default=None,
                        help="override the overload profile's arrival rate")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the arrival-process seed")
    parser.add_argument("--out", default=None,
                        help="write the http report section to this path")
    parser.add_argument("--assert-rejections", action="store_true",
                        help="exit 1 unless the overload profile observed "
                             "rejected > 0 with Retry-After")
    args = parser.parse_args(argv)

    from repro.bench.context import build_context

    context = build_context(
        engine_names=(), n_nodes=600, n_edges=3_600, n_predicates=12,
        log_scale=0.1, seed=0,
    )
    queries = [str(query) for query in context.queries]
    params: dict = {}
    profiles = {
        name: dict(profile)
        for name, profile in LOADGEN_PARAMS["profiles"].items()
    }
    if args.duration is not None:
        for profile in profiles.values():
            profile["duration"] = args.duration
    if args.rate is not None:
        profiles["overload"]["rate"] = args.rate
    params["profiles"] = profiles
    if args.seed is not None:
        params["seed"] = args.seed

    report = http_load_report(
        context.index, queries, pool_kinds=tuple(args.pool),
        params=params,
    )
    for kind, tier in report["tiers"].items():
        for name, summary in tier.items():
            tails = summary["latency_seconds"]
            tail_txt = (
                f"p50={tails['p50'] * 1e3:.1f}ms "
                f"p99={tails['p99'] * 1e3:.1f}ms"
                if tails else "no accepted requests"
            )
            print(f"{kind}/{name}: offered={summary['offered']} "
                  f"accepted={summary['accepted']} "
                  f"rejected={summary['rejected']} "
                  f"(rate {summary['rejection_rate']:.2f}, "
                  f"retry-after seen {summary['retry_after_observed']}) "
                  f"qps={summary['qps']:.1f} {tail_txt}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.assert_rejections:
        for kind, tier in report["tiers"].items():
            overload = tier.get("overload")
            if overload is None:
                continue
            if overload["rejected"] < 1:
                print(f"FAIL: {kind}/overload recorded no rejections")
                return 1
            if overload["retry_after_observed"] < 1:
                print(f"FAIL: {kind}/overload 429s carried no Retry-After")
                return 1
            print(f"OK: {kind}/overload rejected="
                  f"{overload['rejected']} with Retry-After")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
