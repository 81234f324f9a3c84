"""EXPLAIN / EXPLAIN ANALYZE: plans, estimates and measured reality.

Plain EXPLAIN (``repro explain``) describes how a query *would* run:
the Glushkov position automaton, the ``B`` table mapping each
predicate to the NFA states it activates, the §5 planner's strategy
and anchor-side choice, and the cost model's pre-execution work
estimates (:func:`repro.core.planner.estimate_rpq_cost`).

EXPLAIN ANALYZE (``--analyze``) additionally *runs* the query under
full metrics — phase timers and hierarchical spans — and reports it as
a view of the run's :class:`~repro.obs.record.QueryRecord`, the same
record a slow log keeps: the estimated counts next to the record's
counters with a misestimation ratio per row, the per-phase table, and
the span tree.  Where the ratio is far from 1 is exactly where the
``B[v]``/``D[v]`` pruning beats (or loses to) the selectivity-only
cost view; this estimated-vs-actual discipline follows the evaluation
methodology of arXiv:2412.07729 and arXiv:2307.14930.

This module is imported lazily by the CLI and is deliberately not
re-exported from ``repro.obs``.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass

from repro.core.engine import offer_slow
from repro.core.planner import (
    PlanEstimate,
    estimate_rpq_cost,
    plan_inputs,
    query_working_set_bytes,
)
from repro.core.query import as_query
from repro.core.result import ENGINE_PHASES, QueryStats
from repro.obs.metrics import Metrics
from repro.obs.record import QueryRecord
from repro.obs.slowlog import SlowQueryLog


def plan_dict(index, query, engine=None) -> dict:
    """The plain-EXPLAIN plan as a JSON-ready dict.

    ``engine`` overrides the planning engine (the matrix backend or
    the cost-model router); a routing engine's plan additionally
    carries a ``routing`` section with both backends' predicted
    seconds and the decision.
    """
    inputs = plan_inputs(index, query)
    rpq, automaton, b_masks = inputs.rpq, inputs.automaton, inputs.b_masks
    dictionary = index.dictionary
    estimate = estimate_rpq_cost(index, inputs)
    if engine is None:
        engine = index.engine
    plan = engine.explain(rpq)
    plan["automaton"] = {
        "num_states": automaton.num_states,
        "nullable": automaton.nullable,
        "initial": automaton.state_mask_str(automaton.INITIAL_MASK),
        "final": automaton.state_mask_str(automaton.final_mask),
        "transitions": [
            {"source": src, "atom": str(atom), "target": tgt}
            for src, atom, tgt in automaton.transitions()
        ],
    }
    plan["b_table"] = {
        dictionary.predicate_label(pid): automaton.state_mask_str(mask)
        for pid, mask in sorted(b_masks.items())
    }
    plan["estimate"] = {
        "edges": estimate.edges,
        "touched_nodes": estimate.touched_nodes,
        "lp_nodes": estimate.lp_nodes,
        "ls_nodes": estimate.ls_nodes,
        "backward_steps": estimate.backward_steps,
        "storage_ops": estimate.storage_ops,
        "modeled_seconds": estimate.modeled_seconds,
        # Pre-execution working-set estimate (§5): the D visited array
        # sized by this automaton's state count plus the B table.
        "working_set_bytes": int(query_working_set_bytes(
            index, nfa_bits=max(16, automaton.num_states)
        )),
    }
    return plan


def format_plan(index, query, engine=None) -> str:
    """Human-readable plain EXPLAIN."""
    plan = plan_dict(index, query, engine=engine)
    auto = plan["automaton"]
    est = plan["estimate"]
    lines = [
        f"query    : {plan['query']}",
        f"shape    : {plan['shape']}",
        f"strategy : {plan['strategy']}",
    ]
    if "routing" in plan:
        lines.append(f"routing  : {plan['routing']['decision']}")
    if "anchor_side" in plan:
        lines.append(f"anchor   : {plan['anchor_side']} side bound first")
    lines += [
        "",
        f"Glushkov automaton: {auto['num_states']} states"
        f"{' (nullable)' if auto['nullable'] else ''}, "
        f"initial {auto['initial']}, final {auto['final']}",
    ]
    for t in auto["transitions"]:
        lines.append(
            f"  q{t['source']:<3d} --{t['atom']}--> q{t['target']}"
        )
    lines.append("")
    lines.append("B table (predicate -> activated states):")
    if plan["b_table"]:
        width = max(len(label) for label in plan["b_table"])
        for label, states in plan["b_table"].items():
            lines.append(f"  {label.ljust(width)}  {states}")
    else:
        lines.append("  (no predicate of the query occurs in the graph)")
    lines += [
        "",
        "cost-model estimates:",
        f"  matching edges    : {est['edges']}",
        f"  touched nodes     : {est['touched_nodes']}",
        f"  L_p wavelet nodes : {est['lp_nodes']}",
        f"  L_s wavelet nodes : {est['ls_nodes']}",
        f"  backward steps    : {est['backward_steps']}",
        f"  storage ops       : {est['storage_ops']}",
        f"  modeled time      : {est['modeled_seconds'] * 1e3:.3f} ms "
        "(ring @ 60ns/op)",
        f"  working set       : {est['working_set_bytes']:,} bytes "
        "(D visited array + B table)",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------

#: (phase label, metric label, estimate key or None, record counter)
_COMPARISON_ROWS = (
    ("predicates_from_objects", "nodes_visited", "lp_nodes", "lp_nodes"),
    ("predicates_from_objects", "nodes_pruned", None, "lp_pruned"),
    ("predicates_from_objects", "empty_ranges", None, "lp_empty"),
    ("subjects_from_predicates", "nodes_visited", "ls_nodes", "ls_nodes"),
    ("subjects_from_predicates", "nodes_pruned", None, "ls_pruned"),
    ("subjects_from_predicates", "empty_ranges", None, "ls_empty"),
    ("(all phases)", "backward_steps", "backward_steps", "backward_steps"),
    ("(all phases)", "storage_ops", "storage_ops", "storage_ops"),
)

#: Columns of the per-phase table; absent entries render as "-".
_PHASE_COLUMNS = (
    "seconds",
    "descents",
    "nodes_visited",
    "nodes_pruned",
    "empty_ranges",
    "rank_ops",
    "backward_steps",
    "object_ranges",
    "product_nodes",
)


def _table(rows, left: int) -> list[str]:
    """``rows`` as aligned text lines: the first ``left`` columns
    left-justified, the rest right-justified."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(
            cell.ljust(w) if i < left else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(r, widths))
        ).rstrip()
        for r in rows
    ]


@dataclass
class AnalyzeReport:
    """The estimated plan next to the run's query record."""

    plan: dict
    estimate: PlanEstimate
    stats: QueryStats
    record: QueryRecord
    metrics: Metrics

    def comparison(self) -> list[dict]:
        """Rows of estimated vs. actual counts with the ratio."""
        counters = self.record.counters
        est_counts = self.estimate.counts()
        rows = []
        for phase, metric, est_key, counter in _COMPARISON_ROWS:
            actual = counters[counter]
            estimated = est_counts.get(est_key) if est_key else None
            ratio = None
            if estimated is not None and actual > 0:
                ratio = estimated / actual
            rows.append({
                "phase": phase,
                "metric": metric,
                "estimated": estimated,
                "actual": actual,
                "ratio": ratio,
            })
        return rows

    def misestimation(self) -> float | None:
        """Overall estimated/actual storage-op ratio (None when the
        run did no storage work)."""
        actual = self.record.counters["storage_ops"]
        if actual <= 0:
            return None
        return self.estimate.storage_ops / actual

    def phases(self) -> dict[str, dict[str, float]]:
        """The per-phase table: counters with the record's seconds."""
        return self.stats.phase_breakdown(self.record.phase_seconds)

    def routing(self) -> dict | None:
        """Routed runs: the decision with predicted vs. actual seconds.

        ``None`` when the analyzed engine does not route.  The ratio
        is predicted/actual for the backend that ran — the router's
        own est-vs-actual discipline, in wall-clock currency.
        """
        decision = self.plan.get("routing")
        if decision is None:
            return None
        backend = decision["backend"]
        predicted = decision[f"{backend}_seconds"]
        actual = self.record.elapsed
        return {
            "backend": backend,
            "ran_backend": self.record.backend,
            "predicted_seconds": predicted,
            "actual_seconds": actual,
            "ratio": (predicted / actual) if actual > 0 else None,
        }

    def format(self) -> str:
        record = self.record
        flags = [label for label, on in (
            ("TIMEOUT", record.timed_out), ("TRUNCATED", record.truncated),
            ("CANCELLED", record.cancelled),
        ) if on]
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        if record.query_id:
            suffix += f"  [id {record.query_id}]"
        lines = [
            self.plan["_text"],
            "",
            f"ANALYZE: {record.n_results} result(s) in "
            f"{record.elapsed * 1e3:.3f} ms via {record.backend} "
            f"(modeled {self.estimate.modeled_seconds * 1e3:.3f} ms)"
            f"{suffix}",
        ]
        routing = self.routing()
        if routing is not None:
            ratio = routing["ratio"]
            ratio_text = "-" if ratio is None else f"{ratio:.2f}x"
            lines.append(
                f"routing: chose {routing['backend']} — predicted "
                f"{routing['predicted_seconds'] * 1e3:.3f} ms, actual "
                f"{routing['actual_seconds'] * 1e3:.3f} ms "
                f"(est/actual {ratio_text})"
            )
        lines.append("")
        rows = [("phase", "metric", "estimated", "actual", "est/actual")]
        for row in self.comparison():
            rows.append((
                row["phase"],
                row["metric"],
                "-" if row["estimated"] is None else str(row["estimated"]),
                str(row["actual"]),
                "-" if row["ratio"] is None else f"{row['ratio']:.2f}x",
            ))
        lines += _table(rows, left=2)
        overall = self.misestimation()
        if overall is not None:
            lines.append("")
            lines.append(
                f"misestimation: model predicted {overall:.2f}x the "
                "actual storage ops"
            )
        lines.append("")
        phases = self.phases()
        rows = [("phase", *_PHASE_COLUMNS)]
        for phase in ENGINE_PHASES:
            cells = phases[phase]
            rows.append((phase, *(
                "-" if column not in cells
                else f"{cells[column]:.4f}" if column == "seconds"
                else str(cells[column])
                for column in _PHASE_COLUMNS
            )))
        lines += _table(rows, left=1)
        spans = self.metrics.spans
        if spans is not None and len(spans):
            lines.append("")
            lines.append(
                f"span tree ({len(spans)} spans, "
                f"max depth {spans.max_depth()}):"
            )
            lines.append(spans.format_tree())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "plan": {k: v for k, v in self.plan.items() if k != "_text"},
            "record": {**self.record.to_dict(), **self.record.detail()},
            "phases": self.phases(),
            "comparison": self.comparison(),
            "misestimation": self.misestimation(),
            "routing": self.routing(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write_chrome_trace(self, path) -> None:
        """Dump the captured spans as Chrome trace-event JSON."""
        spans = self.metrics.spans
        if spans is None:
            raise ValueError("no spans were captured")
        spans.write_chrome_trace(path)


def explain_analyze(
    index,
    query,
    timeout: float | None = None,
    limit: int | None = None,
    span_capacity: int = 100_000,
    query_id: "str | None" = None,
    engine=None,
) -> AnalyzeReport:
    """Run ``query`` under full telemetry and pair its query record
    with the pre-execution estimates.

    The record is the one a slow log would keep for this run — it is
    built by the same intake (:func:`repro.core.engine.offer_slow`), so
    the report's ``record`` section equals that slow-log entry key for
    key.  Each run carries a ``query_id`` (minted when not supplied)
    stamped onto the stats, the span tree and the record, so an EXPLAIN
    ANALYZE can be correlated against a service's slow/query logs for
    the same query.  ``engine`` overrides the evaluation engine (the
    index's ring engine by default); a routing engine's report
    additionally carries the decision with predicted vs. actual seconds
    (:meth:`AnalyzeReport.routing`).
    """
    rpq = as_query(query)
    if query_id is None:
        query_id = f"explain-{uuid.uuid4().hex[:12]}"
    if engine is None:
        engine = index.engine
    inputs = plan_inputs(index, rpq)
    plan = plan_dict(index, inputs, engine=engine)
    plan["_text"] = format_plan(index, inputs, engine=engine)
    estimate = estimate_rpq_cost(index, inputs)
    metrics = Metrics(span_capacity=span_capacity)
    result = engine.evaluate(
        rpq, timeout=timeout, limit=limit, metrics=metrics,
        query_id=query_id,
    )
    log = SlowQueryLog(capacity=1)
    offer_slow(log, str(rpq), result.stats, len(result), engine.name,
               metrics)
    (record,) = log.entries()
    return AnalyzeReport(plan=plan, estimate=estimate, stats=result.stats,
                         record=record, metrics=metrics)
