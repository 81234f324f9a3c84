"""Replays of the paper's worked examples (Figs. 2–7 and §3–§4 prose).

These tests pin the reproduction to the paper: every intermediate
value printed in the running example — ring positions, rank results,
bit-parallel state sets, traversal decisions, reported solutions — is
asserted here.  The paper uses 1-based inclusive positions; the
translation to this library's 0-based half-open ranges is spelled out
inline.
"""

from __future__ import annotations

import pytest

from repro.automata.bitparallel import ForwardSimulator, ReverseSimulator
from repro.automata.glushkov import build_glushkov
from repro.automata.parser import parse_regex
from repro.core.batchrun import BatchedBackwardRun
from repro.core.engine import _Budget, _EvalContext, _Prepared
from repro.core.result import QueryStats
from repro.obs.metrics import NULL_METRICS


@pytest.fixture(scope="module")
def index(request):
    from repro.graph.datasets import SANTIAGO_NODE_ORDER, santiago_transport
    from repro.ring.builder import RingIndex

    return RingIndex.from_graph(
        santiago_transport(),
        node_order=SANTIAGO_NODE_ORDER,
        predicate_order=["l1", "l2", "l5", "bus"],
        keep_object_column=True,
    )


class TestFig2BitParallel:
    """§3.3: the Glushkov automaton of a/b*/b on the string 'abba'."""

    def setup_method(self):
        self.automaton = build_glushkov(parse_regex("a/(b*)/b"))
        self.masks = self.automaton.b_masks_symbolic()
        self.fwd = ForwardSimulator(self.automaton, self.masks)

    def test_tables(self):
        mask_str = self.automaton.state_mask_str
        assert mask_str(self.masks["a"]) == "0100"
        assert mask_str(self.masks["b"]) == "0011"
        assert mask_str(self.automaton.final_mask) == "0001"
        assert self.automaton.m == 3

    def test_trace_abba(self):
        mask_str = self.automaton.state_mask_str
        d = self.fwd.start()
        assert mask_str(d) == "1000"  # initial state active
        d = self.fwd.step(d, "a")
        assert mask_str(d) == "0100"  # T[1000] & B[a]
        d = self.fwd.step(d, "b")
        assert mask_str(d) == "0011"  # states 2 and 3 active
        assert self.fwd.is_final(d)   # D & F != 0: report match
        d = self.fwd.step(d, "b")
        assert mask_str(d) == "0011"
        assert self.fwd.is_final(d)
        d = self.fwd.step(d, "a")
        assert d == 0                 # run out of active states


class TestFig3Ring:
    """§3.4: the ring of the completed graph (16 triples)."""

    def test_sixteen_triples(self, index):
        assert len(index.ring) == 16

    def test_paper_id_assignment(self, index):
        d = index.dictionary
        # Paper ids 1..5 are our 0..4 in the same order.
        assert [d.node_label(i) for i in range(5)] == \
            ["SA", "UCh", "LH", "BA", "Baq"]
        assert d.predicate_labels == ("l1", "l2", "l5", "bus", "^bus")

    def test_object_partitions_of_lp(self, index):
        # Paper: L_p partitioned by objects 1..5; BA's block is
        # L_p[11..14] and Baq's is L_p[15..16] (1-based inclusive).
        ring = index.ring
        d = index.dictionary
        assert ring.object_range(d.node_id("BA")) == (10, 14)
        assert ring.object_range(d.node_id("Baq")) == (14, 16)

    def test_predicate_partitions_of_ls(self, index):
        # Paper: "the area of I5 in L_s [is] L_s[7..10]" (1-based).
        ring = index.ring
        d = index.dictionary
        assert ring.predicate_range(d.predicate_id("l5")) == (6, 10)
        assert ring.predicate_range(d.predicate_id("^bus")) == (13, 16)

    def test_lf_walk_of_lp16(self, index):
        # Paper: the triple at L_p[16] is BA --l5--> Baq; its subject is
        # found at L_s[10], and cyclically L_o[12] = Baq.
        ring = index.ring
        d = index.dictionary
        i = 15  # 1-based 16
        assert d.predicate_label(ring.L_p.access(i)) == "l5"
        j = ring.lf_p(i)
        assert j == 9  # 1-based 10
        assert d.node_label(ring.L_s.access(j)) == "BA"
        k = ring.lf_s(j)
        assert k == 11  # 1-based 12
        assert d.node_label(ring.L_o.access(k)) == "Baq"
        assert ring.lf_o(k) == i  # the cycle closes
        assert d.decode_triple(ring.triple_at_lp(i)) == ("BA", "l5", "Baq")

    def test_backward_search_example(self, index):
        # Paper: from L_p[11..14] (object BA), a backward step on l5
        # yields L_s[8..9] = <1, 5>: sources SA and Baq.
        ring = index.ring
        d = index.dictionary
        b_o, e_o = ring.object_range(d.node_id("BA"))
        b_s, e_s = ring.backward_step(b_o, e_o, d.predicate_id("l5"))
        assert (b_s, e_s) == (7, 9)  # 1-based inclusive [8..9]
        assert [d.node_label(ring.L_s.access(i)) for i in range(b_s, e_s)] \
            == ["SA", "Baq"]


class TestFig4WaveletTree:
    """§3.5: rank walk on the wavelet tree of L_p."""

    def test_rank4_of_5(self, index):
        # Paper: rank_4(L_p, 5) = 2 and C_p[4] = 10, so LF_p(5) = 12.
        ring = index.ring
        d = index.dictionary
        bus = d.predicate_id("bus")  # paper symbol 4
        assert ring.L_p.access(4) == bus  # L_p[5] = 4 (1-based)
        assert ring.L_p.rank(bus, 5) == 2
        # number of smaller symbols in L_s ordering = C_p[bus] = 10
        assert ring.predicate_range(bus)[0] == 10
        assert ring.lf_p(4) == 11  # 1-based 12

    def test_distinct_symbols_enumeration(self, index):
        # The §3.5 warm-up: distinct symbols of a range, here the
        # labels reaching Baq (L_p[15..16]) = {l1, l5}.
        ring = index.ring
        d = index.dictionary
        labels = [
            d.predicate_label(p)
            for p in ring.L_p.range_list_symbols(14, 16)
        ]
        assert labels == ["l1", "l5"]


class TestFig5ReverseAutomaton:
    """§4: the automaton of ^bus/l5*/l5 and its reverse tables."""

    def setup_method(self):
        self.automaton = build_glushkov(parse_regex("^bus/(l5*)/l5"))
        self.masks = self.automaton.b_masks_symbolic()
        self.reverse = ReverseSimulator(self.automaton, self.masks)

    def test_tables_match_fig2_shape(self):
        mask_str = self.automaton.state_mask_str
        assert mask_str(self.masks["^bus"]) == "0100"  # B[a] of Fig. 2
        assert mask_str(self.masks["l5"]) == "0011"    # B[b] of Fig. 2
        assert mask_str(self.automaton.final_mask) == "0001"

    def test_reverse_table_entries(self):
        mask_str = self.automaton.state_mask_str
        table = self.reverse.table
        # Paper: T'[0001] = 0110 (states 1 and 2 activated).
        assert mask_str(table[0b1000]) == "0110"  # paper's 0001
        # From the Fig. 6 trace: T'[0100] (paper 0010, state 1) = 1000.
        assert mask_str(table[0b0010]) == "1000"


class TestFig6Traversal:
    """§4.3: the full traversal of (y, ^bus/l5*/l5, Baq)."""

    def run_traversal(self, index):
        expr = parse_regex("^bus/(l5*)/l5")
        prepared = _Prepared(expr, index)
        stats = QueryStats()
        run = BatchedBackwardRun(
            index.engine, prepared,
            _EvalContext(_Budget(None), stats, NULL_METRICS),
            prune=True,
        )
        anchor = index.dictionary.node_id("Baq")
        reported = run.run(
            index.ring.object_range(anchor), start_node=anchor
        )
        return prepared.automaton, run, reported, stats

    def test_solutions(self, index):
        automaton, run, reported, _ = self.run_traversal(index)
        labels = {index.dictionary.node_label(n) for n in reported}
        assert labels == {"SA", "UCh"}

    def test_visited_state_sets(self, index):
        # The D[s] cells at the end of the Fig. 6 trace.
        automaton, run, reported, _ = self.run_traversal(index)
        d = index.dictionary
        mask_str = automaton.state_mask_str
        visited = {
            d.node_label(node): mask_str(mask)
            for node, mask in run.visited[0].items()  # the one anchor
        }
        assert visited == {
            "Baq": "0111",  # start 0001, revisited with 0110
            "BA": "0110",
            "SA": "1110",   # 0110 via l5, then 1000 via ^bus
            "UCh": "1000",
        }

    def test_product_graph_size(self, index):
        # Fig. 7: the traversal touches exactly the induced subgraph
        # G'_E: 5 accepted (node, state-set) expansions and 6 accepted
        # predicate-edge groups (the dashed loop edges are rejected at
        # the subject filter, the rest at the B[v] filter).
        _, _, _, stats = self.run_traversal(index)
        assert stats.product_nodes == 5
        assert stats.product_edges == 6

    def test_engine_end_to_end(self, index):
        # (Baq, l5+/bus, ?y) — the user-facing form of the same query.
        result = index.evaluate("(Baq, l5+/bus, ?y)")
        assert result.pairs == {("Baq", "SA"), ("Baq", "UCh")}


class TestSection3Examples:
    """§3.1: evaluation semantics on the metro expression."""

    def test_metro_reachability_pairs(self, index):
        result = index.evaluate("(?x, (l1|l2|l5)+, ?y)")
        nodes = {"SA", "UCh", "LH", "BA", "Baq"}
        assert result.pairs == {(a, b) for a in nodes for b in nodes}

    def test_fixed_subject(self, index):
        result = index.evaluate("(Baq, (l1|l2|l5)+, ?y)")
        assert ("Baq", "SA") in result.pairs

    def test_boolean_query(self, index):
        assert len(index.evaluate("(Baq, (l1|l2|l5)+, SA)")) == 1
