"""Persistence: save / load a :class:`~repro.ring.builder.RingIndex`.

The index is written as a single ``.npz`` archive: the packed word
buffers of every wavelet-matrix level, the boundary arrays, and the
dictionary labels (as JSON inside the archive).  Loading restores the
exact structures without re-sorting the triples — the same property a
production store gets from persisting its index pages.

::

    from repro.ring.storage import load_index, save_index

    save_index(index, "wikidata.ring.npz")
    index = load_index("wikidata.ring.npz")
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro._util.bits import unpack_words
from repro.errors import ConstructionError
from repro.obs.metrics import NULL_METRICS
from repro.ring.builder import RingIndex
from repro.ring.dictionary import Dictionary
from repro.ring.ring import Ring
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_matrix import WaveletMatrix

#: Bumped whenever the on-disk layout changes.
FORMAT_VERSION = 1


def _bitvector_payload(bv: BitVector) -> np.ndarray:
    """The packed word buffer of a bitvector (little-endian uint64)."""
    return bv._words  # noqa: SLF001 - storage is a friend module


def _restore_bitvector(words: np.ndarray, n: int) -> BitVector:
    return BitVector(unpack_words(words, n))


def _dump_matrix(prefix: str, matrix: WaveletMatrix,
                 payload: dict[str, np.ndarray]) -> dict:
    meta = {
        "n": len(matrix),
        "sigma": matrix.sigma,
        "height": matrix.height,
        "zeros": matrix._zeros,  # noqa: SLF001
        "level_lengths": [len(bv) for bv in matrix._levels],  # noqa: SLF001
    }
    for i, bv in enumerate(matrix._levels):  # noqa: SLF001
        payload[f"{prefix}_level{i}"] = _bitvector_payload(bv)
    return meta


def _load_matrix(prefix: str, meta: dict, archive) -> WaveletMatrix:
    matrix = WaveletMatrix.__new__(WaveletMatrix)
    levels = []
    for i, length in enumerate(meta["level_lengths"]):
        words = archive[f"{prefix}_level{i}"]
        levels.append(_restore_bitvector(words, length))
    # Reconstruct derived tables exactly as the constructor would.
    n = int(meta["n"])
    sigma = int(meta["sigma"])
    matrix._n = n
    matrix._sigma = sigma
    matrix._height = int(meta["height"])
    matrix._levels = levels
    matrix._zeros = [int(z) for z in meta["zeros"]]
    counts = np.zeros(sigma, dtype=np.int64)
    if n:
        # Recover symbol counts by replaying the bottom-level layout:
        # decode each symbol once via access() would be O(n log σ);
        # instead rebuild counts from the sequence itself.
        decoded = np.fromiter(
            (matrix.access(i) for i in range(n)), dtype=np.int64, count=n
        )
        counts = np.bincount(decoded, minlength=sigma).astype(np.int64)
    matrix._counts = counts
    class_cum = np.zeros(sigma + 1, dtype=np.int64)
    np.cumsum(counts, out=class_cum[1:])
    matrix._class_cum = class_cum
    from repro.succinct.wavelet_matrix import _bit_reverse

    bottom_start = np.zeros(sigma, dtype=np.int64)
    order = sorted(range(sigma),
                   key=lambda c: _bit_reverse(c, matrix._height))
    acc = 0
    for c in order:
        bottom_start[c] = acc
        acc += int(counts[c])
    matrix._bottom_start = bottom_start
    return matrix


def save_index(index: RingIndex, path: str | Path) -> None:
    """Write the index (ring + dictionary) to an ``.npz`` archive."""
    ring = index.ring
    payload: dict[str, np.ndarray] = {}
    meta = {
        "format": FORMAT_VERSION,
        "n": len(ring),
        "num_nodes": ring.num_nodes,
        "num_predicates": ring.num_predicates,
        "has_object_column": ring.L_o is not None,
        "L_p": _dump_matrix("L_p", ring.L_p, payload),
        "L_s": _dump_matrix("L_s", ring.L_s, payload),
        "dictionary": {
            "nodes": list(index.dictionary.node_labels),
            "predicates": list(index.dictionary.predicate_labels),
            "inverse": [
                index.dictionary.inverse_predicate(p)
                for p in range(index.dictionary.num_predicates)
            ],
        },
    }
    payload["C_o"] = ring.C_o.to_array()
    payload["C_p"] = ring.C_p.to_array()
    if ring.L_o is not None:
        meta["L_o"] = _dump_matrix("L_o", ring.L_o, payload)
        payload["C_s"] = ring.C_s.to_array()
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **payload)


def load_index(path: str | Path) -> RingIndex:
    """Restore an index written by :func:`save_index`."""
    archive = np.load(path)
    meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
    if meta.get("format") != FORMAT_VERSION:
        raise ConstructionError(
            f"unsupported ring archive format {meta.get('format')!r}"
        )

    ring = Ring.__new__(Ring)
    ring._n = int(meta["n"])
    ring._num_nodes = int(meta["num_nodes"])
    ring._num_preds = int(meta["num_predicates"])
    ring.obs = NULL_METRICS
    ring.L_p = _load_matrix("L_p", meta["L_p"], archive)
    ring.L_s = _load_matrix("L_s", meta["L_s"], archive)
    from repro.ring.ring import BoundaryArray

    ring.C_o = BoundaryArray(archive["C_o"])
    ring.C_p = BoundaryArray(archive["C_p"])
    if meta["has_object_column"]:
        ring.L_o = _load_matrix("L_o", meta["L_o"], archive)
        ring.C_s = BoundaryArray(archive["C_s"])
    else:
        ring.L_o = None
        ring.C_s = None

    dict_meta = meta["dictionary"]
    dictionary = Dictionary(
        dict_meta["nodes"], dict_meta["predicates"],
        [int(x) for x in dict_meta["inverse"]],
    )
    return RingIndex(dictionary, ring)
