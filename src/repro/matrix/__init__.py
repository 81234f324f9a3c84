"""Sparse linear-algebra RPQ backend.

The ring engine of :mod:`repro.core.engine` evaluates RPQs
node-at-a-time — exactly the regime the paper's experiments show is
weakest on bulk/dense queries.  This package is the complementary
backend: the completed graph compiled to one boolean CSR matrix per
predicate (:mod:`repro.matrix.matrices`), the Glushkov product
evaluated by state-blocked boolean multiplication
(:mod:`repro.matrix.engine`), and a cost-model router that picks ring
or matrix per query (:mod:`repro.matrix.routed`, estimates included).

Importing this package requires :mod:`scipy`; the engine registry
(:mod:`repro.baselines.registry`) guards the import so environments
without scipy keep every other engine working.
"""

from repro.matrix.engine import MatrixRPQEngine
from repro.matrix.matrices import PredicateMatrices
from repro.matrix.routed import RoutedRPQEngine

__all__ = [
    "MatrixRPQEngine",
    "PredicateMatrices",
    "RoutedRPQEngine",
]
