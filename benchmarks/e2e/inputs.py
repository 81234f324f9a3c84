"""Benchmark-owned inputs: graph, Table-1 query logs, Zipf request streams.

Everything here is driven by one integer seed through :mod:`random`
(whose streams are stable across Python versions, unlike numpy's
``Generator``), and nothing here imports the program under test: the
generators live beside the benchmark so a change to ``repro.bench`` or
``repro.graph.generators`` cannot move the goalposts.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

#: The paper's Table 1: the 20 most popular RPQ patterns of the Wikidata
#: timeout log as (pattern, count, subject kind, expression template,
#: object kind).  ``{i}`` slots take sampled predicates.
TABLE1 = (
    ("v /* c", 537, "v", "{0}/{1}*", "c"),
    ("v * c", 433, "v", "{0}*", "c"),
    ("v + c", 109, "v", "{0}+", "c"),
    ("c * v", 99, "c", "{0}*", "v"),
    ("c /* v", 95, "c", "{0}/{1}*", "v"),
    ("v / c", 54, "v", "{0}/{1}", "c"),
    ("v */* c", 44, "v", "{0}*/{1}*", "c"),
    ("v / v", 41, "v", "{0}/{1}", "v"),
    ("c + v", 36, "c", "{0}+", "v"),
    ("v | v", 31, "v", "{0}|{1}", "v"),
    ("v */*/*/* c", 28, "v", "{0}*/{1}*/{2}*/{3}*", "c"),
    ("v ^ v", 26, "v", "^{0}", "v"),
    ("v /* v", 25, "v", "{0}/{1}*", "v"),
    ("v * v", 25, "v", "{0}*", "v"),
    ("v /? c", 22, "v", "{0}/{1}?", "c"),
    ("v + v", 17, "v", "{0}+", "v"),
    ("v /+ c", 12, "v", "{0}/{1}+", "c"),
    ("v | c", 10, "v", "{0}|{1}", "c"),
    ("v ^/ v", 10, "v", "^{0}/{1}", "v"),
    ("v /^ v", 7, "v", "{0}/^{1}", "v"),
)


# ----------------------------------------------------------------------
# Graph
# ----------------------------------------------------------------------


def _zipf_cum_weights(k: int, exponent: float) -> list[float]:
    return list(itertools.accumulate((r + 1) ** -exponent for r in range(k)))


def make_graph(seed: int, nodes: int, edges: int,
               predicates: int) -> list[tuple[str, str, str]]:
    """A Wikidata-shaped labeled graph as sorted ``(s, p, o)`` triples.

    The properties RPQ cost depends on are reproduced: a Zipf predicate
    popularity (a few predicates own most edges), hub objects with heavy
    in-degree, a deep acyclic ``p0`` hierarchy over the first tenth of
    the nodes (so ``p0*`` walks long chains, like ``subclass of``), a
    popular ``p1`` from entities into that hierarchy (``instance of``),
    and two reciprocal predicate pairs.
    """
    if predicates < 8:
        raise ValueError("need at least 8 predicates")
    rng = random.Random(f"graph-{seed}")
    node = [f"n{i}" for i in range(nodes)]
    classes = max(2, nodes // 8)
    triples: set[tuple[str, str, str]] = set()

    # The taxonomy is the same on every seed (the seed moves the entities
    # around it): short chains give depth, the i//2, i//3 and i//5 links
    # give upper classes Zipf-like descendant counts.  A randomly grown
    # forest put +-25 % on every closure-bound metric from seed to seed.
    for child in range(1, classes):
        parents = {child // 2, child // 3, child // 5}
        if child % 8:
            parents.add(child - 1)
        for parent in parents:
            triples.add((node[child], "p0", node[parent]))

    popular_class = _zipf_cum_weights(classes, 1.3)
    for target in rng.choices(range(classes), cum_weights=popular_class,
                              k=edges // 8):
        triples.add((node[rng.randrange(classes, nodes)], "p1", node[target]))

    for forward, backward in (("p2", "p3"), ("p4", "p5")):
        for _ in range(edges // 40):
            s, o = rng.randrange(nodes), rng.randrange(nodes)
            if s != o:
                triples.add((node[s], forward, node[o]))
                triples.add((node[o], backward, node[s]))

    tail = predicates - 6
    popular_predicate = _zipf_cum_weights(tail, 1.1)
    remaining = max(0, edges - len(triples))
    for p in rng.choices(range(tail), cum_weights=popular_predicate,
                         k=remaining):
        s = rng.randrange(nodes)
        o = min(nodes - 1, int(rng.random() ** 3 * nodes))  # hub objects
        if s != o:
            triples.add((node[s], f"p{6 + p}", node[o]))
    return sorted(triples)


def write_triples(triples, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{s} {p} {o}\n" for s, p, o in triples)


# ----------------------------------------------------------------------
# Query logs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One RPQ; ``text`` is what the program under test receives."""

    pattern: str
    subject: str
    expr: str
    object: str

    @property
    def text(self) -> str:
        return f"({self.subject}, {self.expr}, {self.object})"

    @property
    def anchored(self) -> bool:
        return not (self.subject.startswith("?")
                    and self.object.startswith("?"))


_GOLDEN = 0.6180339887498949


def _node_number(label: str) -> int:
    return int(label[1:])


class QueryLogGenerator:
    """Draws Table-1 queries with the two properties of real logs:
    predicates in proportion to their edge count, and constants among
    the nodes actually incident to the sampled predicate.

    Two random streams on purpose.  ``rng`` (from the benchmark's seed)
    moves the constants and the order of the log.  Which strata of the
    popularity curve the predicates come from is drawn from a pinned
    stream instead: a workload has a few hundred queries whose cost
    spans four decades, and re-drawing the predicate mix per seed moved
    its median latency by ±20 % before the program did anything.
    """

    def __init__(self, triples, rng: random.Random):
        self.rng = rng
        self._mix = random.Random()
        self._walk: dict[tuple, float] = {}
        subjects: dict[str, set[str]] = {}
        objects: dict[str, set[str]] = {}
        count: dict[str, int] = {}
        for s, p, o in triples:
            subjects.setdefault(p, set()).add(s)
            objects.setdefault(p, set()).add(o)
            count[p] = count.get(p, 0) + 1
        self.predicates = sorted(count, key=lambda p: (-count[p], p))
        self._cum = list(itertools.accumulate(
            count[p] for p in self.predicates))
        # numeric order, so position in a pool tracks hubness / depth
        self._pools = {
            "subjects": {p: sorted(v, key=_node_number)
                         for p, v in subjects.items()},
            "objects": {p: sorted(v, key=_node_number)
                        for p, v in objects.items()},
        }

    def _predicates(self, k: int) -> list[str]:
        """``k`` popularity-weighted predicates by systematic sampling:
        one offset, then evenly spaced points of the popularity CDF,
        shuffled.  Same expectation as independent draws, far less
        variance in how often the few huge predicates occur.
        """
        total = self._cum[-1]
        offset = self._mix.random()
        last = len(self.predicates) - 1
        picks = [
            self.predicates[min(last, bisect.bisect_right(
                self._cum, (i + offset) / k * total))]
            for i in range(k)
        ]
        self._mix.shuffle(picks)
        return picks

    def _constant(self, side: str, predicate: str) -> str:
        """The next constant from a predicate's pool.  Each pool is
        walked by a golden-ratio sequence from a seeded start, so the
        anchors of a predicate are spread evenly over hubs and leaves
        on every seed instead of being a lucky or unlucky handful."""
        key = (side, predicate)
        at = (self._walk.get(key, self.rng.random()) + _GOLDEN) % 1.0
        self._walk[key] = at
        pool = self._pools[side][predicate]
        return pool[int(at * len(pool))]

    def _pattern(self, row, target: int, seen: set[str]) -> list[Query]:
        pattern, _, s_kind, template, o_kind = row
        slots = template.count("{")
        out: list[Query] = []
        for _ in range(20):  # refill rounds after de-duplication
            need = target - len(out)
            if need <= 0:
                break
            columns = [self._predicates(need) for _ in range(slots)]
            for preds in zip(*columns):
                subject = (self._constant("subjects", preds[0])
                           if s_kind == "c" else "?x")
                obj = (self._constant("objects", preds[-1])
                       if o_kind == "c" else "?y")
                query = Query(pattern, subject, template.format(*preds), obj)
                if query.text not in seen:
                    seen.add(query.text)
                    out.append(query)
        return out

    def log(self, scale: float, keep=lambda row: True) -> list[Query]:
        """Distinct queries following Table 1 × ``scale``, shuffled, so
        any prefix of the log has the mix of the whole."""
        self._mix.seed("table1-mix")
        seen: set[str] = set()
        queries: list[Query] = []
        for row in TABLE1:
            if keep(row):
                target = max(1, round(row[1] * scale))
                queries.extend(self._pattern(row, target, seen))
        self.rng.shuffle(queries)
        return queries


def is_anchored_row(row) -> bool:
    return "c" in (row[2], row[4])


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------


def by_pattern_share(log: list[Query]) -> list[Query]:
    """``log`` reordered so that every prefix has the pattern mix of the
    whole (each pattern's queries evenly spaced, in their given order).
    A Zipf stream over this order makes a pattern as popular as it is
    frequent, on every seed; over a shuffled log the handful of queries
    that receive a third of all requests is a lottery."""
    groups: dict[str, list[Query]] = {}
    for query in log:
        groups.setdefault(query.pattern, []).append(query)
    spaced = [((j + 0.5) / len(group), order, query)
              for order, group in enumerate(groups.values())
              for j, query in enumerate(group)]
    return [query for _, _, query in sorted(spaced, key=lambda t: t[:2])]


def zipf_stream(pool_size: int, n: int, rng: random.Random,
                exponent: float = 1.0) -> list[int]:
    """``n`` pool indexes drawn Zipf(``exponent``) over pool order."""
    return rng.choices(range(pool_size),
                       cum_weights=_zipf_cum_weights(pool_size, exponent),
                       k=n)


def respell(query: Query) -> str:
    """An equivalent spelling of ``query`` (same answer set, different
    text): union operands swapped, otherwise redundant parentheses.
    A result cache only serves it when its keys are normalised."""
    expr = query.expr
    if "|" in expr:
        left, right = expr.split("|")
        expr = f"{right}|{left}"
    else:
        expr = f"(({expr}))"
    return f"({query.subject}, {expr}, {query.object})"
