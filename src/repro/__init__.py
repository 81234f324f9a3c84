"""Ring-RPQ: time- and space-efficient regular path queries on graphs.

A from-scratch Python reproduction of Arroyuelo, Hogan, Navarro &
Rojas-Ledesma, *"Time- and Space-Efficient Regular Path Queries on
Graphs"*: a compressed (BWT + wavelet matrix) graph index — the *ring*
— paired with a bit-parallel Glushkov automaton simulation that
evaluates 2RPQs by walking only the product subgraph induced by the
query.

Quickstart::

    from repro import RingIndex
    from repro.graph import santiago_transport

    index = RingIndex.from_graph(santiago_transport())
    for s, o in index.evaluate("(Baq, l5+/bus, ?y)"):
        print(s, "→", o)

Package layout:

* :mod:`repro.succinct` — bitvectors, wavelet trees/matrices;
* :mod:`repro.graph` — labeled graph model, datasets, generators;
* :mod:`repro.ring` — the ring index and its dictionary;
* :mod:`repro.automata` — regex frontend, Glushkov/Thompson automata,
  bit-parallel simulation;
* :mod:`repro.core` — the Ring-RPQ engine (the paper's contribution);
* :mod:`repro.baselines` — the comparison engines of the evaluation;
* :mod:`repro.bench` — the harness regenerating every published table
  and figure;
* :mod:`repro.obs` — observability: phase timers, histograms, spans,
  the per-query record and ``repro explain --analyze``;
* :mod:`repro.serve` — the concurrent query service: worker pool,
  admission control, deadlines/cancellation, result caching;
* :mod:`repro.testing` — brute-force oracles for differential testing.
"""

from repro.automata.parser import parse_regex
from repro.core.engine import RingRPQEngine
from repro.core.query import RPQ, Variable
from repro.core.result import QueryResult, QueryStats
from repro.errors import (
    ConstructionError,
    OverloadedError,
    QueryCancelledError,
    QueryTimeoutError,
    RegexSyntaxError,
    ReproError,
    ResultLimitExceeded,
    UnknownSymbolError,
    WorkerCrashedError,
)
from repro.graph.model import Graph
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.ring.builder import RingIndex
from repro.ring.dictionary import Dictionary
from repro.ring.ring import Ring
from repro.serve.pool import ProcessQueryService
from repro.serve.service import QueryService

__version__ = "1.0.0"

__all__ = [
    "ConstructionError",
    "Dictionary",
    "Graph",
    "Metrics",
    "NULL_METRICS",
    "OverloadedError",
    "ProcessQueryService",
    "QueryCancelledError",
    "QueryResult",
    "QueryService",
    "QueryStats",
    "QueryTimeoutError",
    "RegexSyntaxError",
    "ReproError",
    "ResultLimitExceeded",
    "Ring",
    "RingIndex",
    "RingRPQEngine",
    "RPQ",
    "UnknownSymbolError",
    "Variable",
    "WorkerCrashedError",
    "__version__",
    "parse_regex",
]
