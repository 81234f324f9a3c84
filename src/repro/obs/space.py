"""Space-audit plane: bit-level memory accounting for every storage tier.

The source paper's headline claim is *joint* time- and space-efficiency,
yet PRs 1/3/5/8 instrumented only the time axis.  This module closes the
gap: every storage structure grows a ``measure()`` hook returning a
:class:`SpaceNode`, and the helpers here assemble those nodes into typed
trees covering the built ring, the sparse-matrix backend's cache of
decoded blocks, snapshot segments (manifest layout and live
``/dev/shm`` segments), and the serving tier's mutable state (result
cache, flight ring, histograms).

Design constraints:

* **No repro imports at module scope.**  ``repro.obs.__init__`` imports
  ``instrument`` which imports ``repro.succinct.bitvector``; the storage
  classes in turn import ``repro.obs.metrics``.  To stay cycle-free this
  module depends only on the stdlib and numpy, and storage classes do
  ``from repro.obs.space import SpaceNode`` *inside* their ``measure()``
  methods.
* **Exact-sum invariant by construction.**  A branch node's byte count
  is the sum of its children; passing an inconsistent explicit total
  raises :class:`~repro.errors.InvariantViolation`.  The acceptance
  criterion "the ring total agrees with the sum of its children exactly"
  is therefore structural, not incidental.
* **One size.**  ``measure()`` is the only size API of a storage
  structure: Table 2, ``repro stats``, ``repro space``, ``/debug/space``
  and the benchmark all read these trees.
* **Mirror convention.**  Python-int mirrors (``BitVector._words_py``,
  ``BoundaryArray._py``, ...) are decode caches of the numpy payload and
  are excluded from the audit.  Aliased buffers (a view-attached
  ``BitVector`` whose ``_words`` is a slice of the snapshot's
  sentinel-extended buffer) are counted once.  No query, fingerprint or
  snapshot export stores anything on the index, so an audit reads the
  same cold and warm.
"""

from __future__ import annotations

import sys
from collections import OrderedDict, deque
from typing import Any, Iterator

import numpy as np

from repro.errors import InvariantViolation

__all__ = [
    "SpaceNode",
    "deep_getsizeof",
    "audit_manifest",
    "audit_metrics",
    "audit_service",
    "publish_space_gauges",
    "SPACE_GAUGE_FAMILY",
]

#: Gauge family used for the per-component space gauges on /metrics.
#: Rendered by ``prometheus_text`` as ``repro_space_bytes{component="..."}``.
SPACE_GAUGE_FAMILY = "space.bytes"


class SpaceNode:
    """One component in a space-audit tree.

    A *leaf* carries an explicit byte count; a *branch* derives its
    count from its children.  Supplying both an explicit ``nbytes`` and
    children is allowed only when they agree exactly — the audit's core
    invariant is that every total telescopes to its leaves.
    """

    __slots__ = ("name", "kind", "nbytes", "children", "detail")

    def __init__(
        self,
        name: str,
        nbytes: "int | None" = None,
        children: "tuple[SpaceNode, ...] | list[SpaceNode]" = (),
        kind: str = "component",
        detail: "dict[str, Any] | None" = None,
    ) -> None:
        self.name = str(name)
        self.kind = kind
        self.children: "list[SpaceNode]" = list(children)
        child_sum = sum(c.nbytes for c in self.children)
        if nbytes is None:
            if not self.children:
                raise InvariantViolation(
                    f"leaf SpaceNode {name!r} needs an explicit byte count"
                )
            nbytes = child_sum
        else:
            nbytes = int(nbytes)
            if self.children and nbytes != child_sum:
                raise InvariantViolation(
                    f"SpaceNode {name!r}: explicit total {nbytes} != "
                    f"sum of children {child_sum}"
                )
        if nbytes < 0:
            raise InvariantViolation(f"SpaceNode {name!r}: negative size {nbytes}")
        self.nbytes = int(nbytes)
        self.detail: "dict[str, Any]" = dict(detail) if detail else {}

    # -- derived quantities -------------------------------------------------

    def bits_per_triple(self, n_triples: int) -> float:
        """Bits used per triple for a graph of ``n_triples`` triples."""
        return self.nbytes * 8 / max(1, int(n_triples))

    def check(self) -> None:
        """Re-verify the exact-sum invariant over the whole subtree."""
        for _, node in self.iter_nodes():
            if node.children:
                total = sum(c.nbytes for c in node.children)
                if total != node.nbytes:
                    raise InvariantViolation(
                        f"SpaceNode {node.name!r}: total {node.nbytes} != "
                        f"sum of children {total}"
                    )

    # -- traversal ----------------------------------------------------------

    def iter_nodes(
        self, prefix: str = "", sep: str = "."
    ) -> "Iterator[tuple[str, SpaceNode]]":
        """Yield ``(dotted_path, node)`` pairs in pre-order."""
        path = f"{prefix}{sep}{self.name}" if prefix else self.name
        yield path, self
        for child in self.children:
            yield from child.iter_nodes(path, sep)

    def find(self, path: str, sep: str = ".") -> "SpaceNode | None":
        """Look up a descendant by dotted path relative to this node.

        ``find("ring.L_p")`` on an index node returns the L_p column;
        ``find(self.name)`` returns the node itself.
        """
        parts = path.split(sep)
        if not parts or parts[0] != self.name:
            return None
        node: "SpaceNode | None" = self
        for part in parts[1:]:
            assert node is not None
            node = next((c for c in node.children if c.name == part), None)
            if node is None:
                return None
        return node

    # -- serialisation ------------------------------------------------------

    def to_dict(
        self,
        n_triples: "int | None" = None,
        _parent_bytes: "int | None" = None,
    ) -> "dict[str, Any]":
        """JSON-friendly tree with bytes, share-of-parent and bits/triple."""
        out: "dict[str, Any]" = {
            "name": self.name,
            "kind": self.kind,
            "bytes": self.nbytes,
        }
        if _parent_bytes:
            out["share_of_parent"] = self.nbytes / _parent_bytes
        if n_triples:
            out["bits_per_triple"] = self.bits_per_triple(n_triples)
        if self.detail:
            out["detail"] = dict(self.detail)
        if self.children:
            out["children"] = [
                c.to_dict(n_triples, self.nbytes) for c in self.children
            ]
        return out

    def format_tree(self, n_triples: "int | None" = None, indent: int = 2) -> str:
        """Human-readable aligned tree for the ``repro space`` CLI."""
        rows: "list[tuple[str, str, str, str]]" = []

        def walk(node: "SpaceNode", depth: int, parent: "int | None") -> None:
            share = "" if not parent else f"{100.0 * node.nbytes / parent:5.1f}%"
            bpt = (
                ""
                if not n_triples
                else f"{node.bits_per_triple(n_triples):10.2f}"
            )
            rows.append(
                (" " * (indent * depth) + node.name, f"{node.nbytes:,}", share, bpt)
            )
            for child in node.children:
                walk(child, depth + 1, node.nbytes)

        walk(self, 0, None)
        name_w = max(len(r[0]) for r in rows)
        byte_w = max(len(r[1]) for r in rows)
        header = f"{'component':<{name_w}}  {'bytes':>{byte_w}}  {'share':>6}"
        if n_triples:
            header += f"  {'bits/triple':>11}"
        lines = [header]
        for name, nbytes, share, bpt in rows:
            line = f"{name:<{name_w}}  {nbytes:>{byte_w}}  {share:>6}"
            if n_triples:
                line += f"  {bpt:>11}"
            lines.append(line.rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpaceNode({self.name!r}, nbytes={self.nbytes}, "
            f"children={len(self.children)})"
        )


# ---------------------------------------------------------------------------
# Deep Python-object sizing (serving-tier mutable state)
# ---------------------------------------------------------------------------


def deep_getsizeof(obj: Any, _seen: "set[int] | None" = None) -> int:
    """Recursive ``sys.getsizeof`` over containers, counting each object once.

    Used for heap-resident serving state (cache entries, flight records,
    histogram buckets) where numpy's ``nbytes`` does not apply.  Numpy
    arrays count their payload only when they own it, so views over a
    shared buffer are not double counted.
    """
    if _seen is None:
        _seen = set()
    oid = id(obj)
    if oid in _seen:
        return 0
    _seen.add(oid)
    if isinstance(obj, np.ndarray):
        size = sys.getsizeof(obj)
        if obj.base is None and size < obj.nbytes:
            size += obj.nbytes
        return size
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += deep_getsizeof(key, _seen)
            size += deep_getsizeof(value, _seen)
    elif isinstance(obj, (list, tuple, set, frozenset, deque, OrderedDict)):
        for item in obj:
            size += deep_getsizeof(item, _seen)
    elif hasattr(obj, "__dict__"):
        size += deep_getsizeof(vars(obj), _seen)
    return size


# ---------------------------------------------------------------------------
# Tree builders
# ---------------------------------------------------------------------------


def audit_manifest(manifest: "dict[str, Any]", name: str = "snapshot") -> SpaceNode:
    """Audit a ``ring-snapshot/v2`` or ``v1`` manifest's segment layout.

    Sums every buffer from its dtype and shape, grouped by top-level
    component (``lp``, ``ls``, ``c_p``, ...; ``mat`` in a file written
    before the matrices left the snapshot; a ``c_o`` that aliases
    another buffer has no bytes of its own and shows in ``detail``
    only), and accounts the
    64-byte alignment padding explicitly so the tree's total equals the
    manifest's ``total_bytes`` *exactly* — the same number a live
    ``/dev/shm`` segment of this snapshot occupies (modulo the kernel's
    final page rounding).
    """
    groups: "OrderedDict[str, list[SpaceNode]]" = OrderedDict()
    used = 0
    for buf_name, meta in manifest["buffers"].items():
        shape = meta["shape"]
        count = 1
        for dim in shape:
            count *= int(dim)
        nbytes = int(np.dtype(meta["dtype"]).itemsize) * count
        used += nbytes
        top = buf_name.split(".", 1)[0]
        groups.setdefault(top, []).append(
            SpaceNode(buf_name.split(".", 1)[-1] if "." in buf_name else "data",
                      nbytes, kind="buffer",
                      detail={"dtype": meta["dtype"], "shape": list(shape)})
        )
    children = [
        SpaceNode(top, children=bufs, kind="buffer_group")
        for top, bufs in groups.items()
    ]
    total = int(manifest["total_bytes"])
    padding = total - used
    if padding < 0:
        raise InvariantViolation(
            f"snapshot manifest total_bytes {total} < summed buffers {used}"
        )
    children.append(
        SpaceNode("padding", padding, kind="padding",
                  detail={"alignment": 64, "buffers": len(manifest["buffers"])})
    )
    return SpaceNode(
        name,
        children=children,
        kind="snapshot_segment",
        detail={
            "format": manifest.get("format"),
            "n": manifest.get("n"),
            "buffers": len(manifest["buffers"]),
            "aliases": dict(manifest.get("aliases", {})),
        },
    )


def audit_metrics(metrics: Any, name: str = "metrics") -> SpaceNode:
    """Audit a :class:`~repro.obs.metrics.Metrics` registry's heap state:
    sparse histogram buckets plus the counter/gauge dictionaries."""
    from repro.obs.histogram import LogHistogram

    hist_children = [
        hist.measure(hist_name)
        for hist_name, hist in sorted(metrics.histograms.items())
        if isinstance(hist, LogHistogram)
    ]
    children = []
    if hist_children:
        children.append(SpaceNode("histograms", children=hist_children))
    children.append(
        SpaceNode("counters", deep_getsizeof(metrics.counters), kind="dict")
    )
    children.append(SpaceNode("gauges", deep_getsizeof(metrics.gauges), kind="dict"))
    return SpaceNode(name, children=children, kind="metrics")


def audit_service(service: Any, name: str = "service") -> SpaceNode:
    """Audit a serving tier: the index it serves plus its mutable state
    (result cache, flight recorder, metrics registry, and — for the
    process tier — the shared-memory snapshot segment)."""
    children = [service.index.measure("index")]
    cache = getattr(service, "cache", None)
    if cache is not None and hasattr(cache, "measure"):
        children.append(cache.measure("cache"))
    flight = getattr(service, "flight", None)
    if flight is not None and hasattr(flight, "measure"):
        children.append(flight.measure("flight"))
    metrics = getattr(service, "metrics", None)
    if metrics is not None and getattr(metrics, "enabled", False):
        children.append(audit_metrics(metrics, "metrics"))
    shared = getattr(service, "_shared", None)
    if shared is not None and hasattr(shared, "measure"):
        children.append(shared.measure("shm_segment"))
    return SpaceNode(name, children=children, kind="service")


# ---------------------------------------------------------------------------
# Gauge publication
# ---------------------------------------------------------------------------


def publish_space_gauges(
    metrics: Any,
    node: SpaceNode,
    family: str = SPACE_GAUGE_FAMILY,
    max_depth: int = 2,
    prefix: str = "",
) -> "dict[str, int]":
    """Publish a space tree as labelled gauges.

    Each node down to ``max_depth`` becomes one sample of the ``family``
    gauge with a ``component`` label holding its dotted path, e.g.
    ``space.bytes{component="index.ring"}``.  Callers that hold a lock
    around the metrics registry should hold it here too.  Returns the
    published ``{component: bytes}`` mapping (useful for tests).
    """
    from repro.obs.export import label_key

    published: "dict[str, int]" = {}

    def walk(n: SpaceNode, path: str, depth: int) -> None:
        component = f"{path}.{n.name}" if path else n.name
        published[component] = n.nbytes
        metrics.set_gauge(label_key(family, component=component), float(n.nbytes))
        if depth < max_depth:
            for child in n.children:
                walk(child, component, depth + 1)

    root = prefix or ""
    walk(node, root, 0)
    return published


def space_report(service: Any) -> "dict[str, Any]":
    """The ``/debug/space`` payload: the live service, audited now."""
    with service.obs_lock:
        node = audit_service(service)
    n_triples = len(service.index.ring)
    return {"tree": node.to_dict(n_triples), "n_triples": n_triples}
