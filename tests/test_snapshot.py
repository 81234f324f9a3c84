"""The shared-memory / mmap snapshot plane (``ring-snapshot/v2``).

The contract under test: a snapshot *attach* reconstructs views — not
copies — of the ring and its wavelet-matrix columns, and an engine
over the attached index is bit-identical (pairs AND operation
counters) to one over the built index.  The ring is all a snapshot
carries: the sparse backend decodes its matrices from whichever ring
is attached, and files written while snapshots still shipped them
keep loading.  Segment lifecycle: created once, attachable many
times, fully released (no dangling ``/dev/shm`` entry) after
``close()``.
"""

from __future__ import annotations

import gc
import pickle
import sys

import numpy as np
import pytest

from repro.core.engine import RingRPQEngine
from repro.errors import ConstructionError
from repro.ring.snapshot import (
    SNAPSHOT_FORMAT,
    SharedIndexHandle,
    _lay_out,
    _write_file,
    _write_payload,
    attach_index,
    attach_token,
    load_snapshot,
    save_snapshot,
    snapshot_index,
)
from repro.serve.keys import index_fingerprint
from repro.succinct.bitvector import BitVector

WORKLOAD = [
    "(?x, p0, ?y)",
    "(?x, p0/p1, ?y)",
    "(?x, (p0|p1)*, ?y)",
    "(?x, ^p0/p1+, ?y)",
    "(?x, p2?/p3, ?y)",
]


def _fingerprints(index, queries=WORKLOAD):
    """Bit-identity probe: (pairs, counters) per query, fresh engine."""
    engine = RingRPQEngine(index, prepare_cache_size=0)
    out = []
    for query in queries:
        result = engine.evaluate(query, timeout=60)
        out.append((sorted(result.pairs),
                    result.stats.operation_counts()))
    return out


class TestManifest:
    def test_manifest_shape(self, kg_index):
        manifest, buffers = snapshot_index(kg_index)
        assert manifest["format"] == SNAPSHOT_FORMAT
        assert manifest["fingerprint"] == index_fingerprint(kg_index)
        assert manifest["n"] == len(kg_index.ring)
        assert set(manifest["buffers"]) == set(buffers)
        for name, meta in manifest["buffers"].items():
            assert meta["offset"] % 64 == 0, name
            arr = buffers[name]
            assert np.dtype(meta["dtype"]) == arr.dtype
            assert tuple(meta["shape"]) == arr.shape
        assert manifest["total_bytes"] >= max(
            m["offset"] for m in manifest["buffers"].values()
        )

    def test_buffers_are_views_not_copies(self, kg_index):
        """Flattening reuses the arrays the index holds (the single
        copy happens at segment/file write time, not here): the symbol
        tables and rank directories of a built ring and, on an
        attached one, the packed level buffers too.  A built level
        holds no sentinel-extended payload — its export is made for
        the flatten and kept by nobody."""
        manifest, buffers = snapshot_index(kg_index)
        assert buffers["lp.class_cum"] is kg_index.ring.L_p._class_cum
        assert buffers["lp.level0.cum"] is kg_index.ring.L_p._levels[0]._cum
        payload = bytearray(manifest["total_bytes"])
        _write_payload(manifest, buffers, payload)
        attached = attach_index(manifest, payload)
        _, again = snapshot_index(attached)
        level = attached.ring.L_p._levels[0]
        assert again["lp.level0.words"] is level._words_ext
        assert again["lp.level0.cum"] is level._cum

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"NOTASNAP" + b"\0" * 64)
        with pytest.raises(ConstructionError, match="bad magic"):
            load_snapshot(path)

    def test_bad_format_rejected(self, kg_index):
        manifest, buffers = snapshot_index(kg_index)
        manifest = dict(manifest, format="ring-snapshot/v999")
        with pytest.raises(ConstructionError, match="unsupported"):
            attach_index(manifest, b"")


class TestSharedMemoryPlane:
    def test_attach_is_bit_identical(self, kg_index):
        expected = _fingerprints(kg_index)
        with SharedIndexHandle.create(kg_index) as handle:
            token = pickle.loads(pickle.dumps(handle.token()))
            attached = attach_token(token)
            assert _fingerprints(attached) == expected
            assert index_fingerprint(attached) == index_fingerprint(
                kg_index
            )

    def test_segment_is_the_ring_and_serves_every_backend(self, kg_index):
        """No ``mat.`` buffer travels, yet the matrix and routed
        backends answer from the attached ring as from the built one."""
        pytest.importorskip("scipy")
        from repro.baselines.registry import make_engine

        with SharedIndexHandle.create(kg_index) as handle:
            assert not any(
                name.startswith("mat.") for name in handle.manifest["buffers"]
            )
            assert "matrix_pids" not in handle.manifest
            attached = attach_token(handle.token())
            assert not hasattr(attached, "_matrix_store")
            for backend in ("matrix", "routed"):
                built = make_engine(backend, kg_index)
                served = make_engine(backend, attached)
                for query in WORKLOAD:
                    assert served.evaluate(query, timeout=60).pairs == \
                        built.evaluate(query, timeout=60).pairs, (
                            backend, query)

    def test_segment_released_on_close(self, kg_index):
        handle = SharedIndexHandle.create(kg_index)
        name = handle.name
        assert handle.nbytes > 0
        seg = _dev_shm(name)
        if seg is not None:  # Linux: the segment is a /dev/shm file
            assert seg.exists()
        handle.close()
        handle.close()  # idempotent
        if seg is not None:
            assert not seg.exists(), "segment leaked after close()"

    def test_no_dangling_segments_across_lifecycle(self, kg_index):
        """Leak check: repeated create/attach/close cycles leave the
        shared-memory namespace exactly as they found it."""
        before = _segment_names()
        for _ in range(3):
            handle = SharedIndexHandle.create(kg_index)
            attached = attach_token(handle.token())
            _fingerprints(attached, WORKLOAD[:1])
            del attached
            gc.collect()
            handle.close()
        assert _segment_names() == before

    def test_local_attach(self, kg_index):
        expected = _fingerprints(kg_index, WORKLOAD[:2])
        handle = SharedIndexHandle.create(kg_index)
        try:
            local = handle.attach_local()
            assert _fingerprints(local, WORKLOAD[:2]) == expected
        finally:
            del local
            gc.collect()
            handle.close()


class TestFilePlane:
    def test_mmap_roundtrip(self, kg_index, tmp_path):
        path = tmp_path / "index.snap"
        written = save_snapshot(kg_index, path)
        assert written == path.stat().st_size
        loaded = load_snapshot(path, mmap=True)
        assert _fingerprints(loaded) == _fingerprints(kg_index)
        assert index_fingerprint(loaded) == index_fingerprint(kg_index)

    def test_read_roundtrip(self, kg_index, tmp_path):
        path = tmp_path / "index.snap"
        save_snapshot(kg_index, path)
        loaded = load_snapshot(path, mmap=False)
        assert _fingerprints(loaded) == _fingerprints(kg_index)

    def test_file_carries_no_matrix_store(self, kg_index, tmp_path):
        path = tmp_path / "index.snap"
        save_snapshot(kg_index, path)
        loaded = load_snapshot(path)
        assert not hasattr(loaded, "_matrix_store")
        assert _fingerprints(loaded, WORKLOAD[:2]) == _fingerprints(
            kg_index, WORKLOAD[:2]
        )


def _write_legacy_snapshot(index, path) -> dict:
    """A ``ring-snapshot/v1`` file as written while snapshots still
    shipped the compiled matrices: the ring's buffers in the v1
    layout — every table, boundary array and rank directory ``int64``,
    the directories named ``cum64``, each column's symbol ``counts``
    and a ``c_o`` of its own — then ``mat.{pid}.indptr/indices/data``
    per predicate, and the ``matrix_pids`` list.  The CSR triplets
    here are deliberately wrong (every edge in column 0): a reader
    that resurrected them instead of decoding from the ring would
    answer differently.
    """
    manifest, current = snapshot_index(index)
    ring = index.ring
    buffers = {}
    for name, array in current.items():
        if name.endswith(".words"):
            buffers[name] = array
        else:
            buffers[name + "64" if name.endswith(".cum") else name] = \
                array.astype(np.int64)
    for prefix, wm in (("lp", ring.L_p), ("ls", ring.L_s)):
        buffers[f"{prefix}.counts"] = np.diff(wm._class_cum).astype(np.int64)
    buffers["c_o"] = ring.C_o.to_array().astype(np.int64)
    manifest["format"] = "ring-snapshot/v1"
    manifest.pop("aliases", None)
    pids = [p for p in range(ring.num_predicates) if ring.predicate_count(p)]
    for pid in pids:
        nnz = ring.predicate_count(pid)
        indptr = np.full(ring.num_nodes + 1, nnz, dtype=np.int32)
        indptr[0] = 0
        buffers[f"mat.{pid}.indptr"] = indptr
        buffers[f"mat.{pid}.indices"] = np.zeros(nnz, dtype=np.int32)
        buffers[f"mat.{pid}.data"] = np.ones(nnz, dtype=bool)
    manifest["matrix_pids"] = pids
    _lay_out(manifest, buffers)
    _write_file(manifest, buffers, path)
    return manifest


class TestLegacyMatrixSnapshots:
    """Files and segments written before the matrices left the
    snapshot plane keep loading; their ``mat.*`` buffers are ignored."""

    def test_legacy_file_loads_and_decodes_from_the_ring(
            self, kg_index, tmp_path):
        pytest.importorskip("scipy")
        from repro.matrix.matrices import PredicateMatrices

        path = tmp_path / "legacy.snap"
        manifest = _write_legacy_snapshot(kg_index, path)
        assert manifest["matrix_pids"]
        assert "mat.0.indptr" in manifest["buffers"]
        loaded = load_snapshot(path)
        assert not hasattr(loaded, "_matrix_store")
        assert _fingerprints(loaded, WORKLOAD[:2]) == _fingerprints(
            kg_index, WORKLOAD[:2]
        )
        store = PredicateMatrices.from_index(loaded)
        assert store.measure().nbytes == 0  # lazily, not eagerly
        want = PredicateMatrices(kg_index.ring)
        assert store.predicates == want.predicates == manifest["matrix_pids"]
        for pid in want.predicates:
            assert (store.matrix(pid) != want.matrix(pid)).nnz == 0, pid

    def test_legacy_manifest_attaches_in_memory(self, kg_index, tmp_path):
        manifest = _write_legacy_snapshot(kg_index, tmp_path / "legacy.snap")
        payload = (tmp_path / "legacy.snap").read_bytes()
        payload = payload[len(payload) - manifest["total_bytes"]:]
        attached = attach_index(manifest, payload)
        assert _fingerprints(attached, WORKLOAD[:1]) == _fingerprints(
            kg_index, WORKLOAD[:1]
        )

    def test_legacy_file_loads_without_scipy(
            self, kg_index, tmp_path, monkeypatch):
        path = tmp_path / "legacy.snap"
        _write_legacy_snapshot(kg_index, path)
        for name in [m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")
                     or m.startswith("repro.matrix")]:
            monkeypatch.delitem(sys.modules, name)
        monkeypatch.setitem(sys.modules, "scipy", None)  # import fails
        loaded = load_snapshot(path)
        assert "repro.matrix.matrices" not in sys.modules
        assert _fingerprints(loaded, WORKLOAD[:2]) == _fingerprints(
            kg_index, WORKLOAD[:2]
        )


class TestV1Layout:
    """``ring-snapshot/v1`` files and segments — int64 tables and
    directories, per-column ``counts``, a separate ``c_o`` — attach
    and answer exactly like the index they were written from."""

    def test_v1_file_loads_and_answers_identically(self, kg_index, tmp_path):
        path = tmp_path / "v1.snap"
        manifest = _write_legacy_snapshot(kg_index, path)
        table = manifest["buffers"]
        assert manifest["format"] == "ring-snapshot/v1" != SNAPSHOT_FORMAT
        assert {"lp.counts", "ls.counts", "c_o"} <= set(table)
        assert table["lp.level0.cum64"]["dtype"] == "<i8"
        assert "lp.level0.cum" not in table
        for mmap in (True, False):
            loaded = load_snapshot(path, mmap=mmap)
            assert loaded.ring.L_p._levels[0]._cum.dtype == np.int64
            assert _fingerprints(loaded) == _fingerprints(kg_index)

    def test_v1_manifest_audits(self, kg_index, tmp_path):
        from repro.obs.space import audit_manifest

        manifest = _write_legacy_snapshot(kg_index, tmp_path / "v1.snap")
        audit = audit_manifest(manifest)
        audit.check()
        assert audit.nbytes == manifest["total_bytes"]
        assert audit.find("snapshot.c_o").nbytes == \
            8 * (kg_index.ring.num_nodes + 1)

    def test_v2_drops_what_v1_repeated(self, kg_index, tmp_path):
        manifest, buffers = snapshot_index(kg_index)
        assert not any(name.endswith(".counts") for name in buffers)
        assert "c_o" not in buffers
        assert manifest["aliases"] == {"c_o": "ls.class_cum"}
        assert buffers["lp.level0.cum"].dtype == np.uint32
        assert buffers["ls.class_cum"].dtype == np.int32
        v1 = _write_legacy_snapshot(kg_index, tmp_path / "v1.snap")
        ring_only = sum(
            np.dtype(meta["dtype"]).itemsize * int(np.prod(meta["shape"]))
            for name, meta in v1["buffers"].items()
            if not name.startswith("mat.")
        )
        assert manifest["total_bytes"] < ring_only


class TestViewConstruction:
    def test_bitvector_view_parity(self, kg_index):
        bv = kg_index.ring.L_p._levels[0]
        words_ext, cum64, n = bv.batch_data()
        view = BitVector.from_packed(words_ext, cum64, n)
        assert len(view) == len(bv)
        assert view.num_ones == bv.num_ones
        positions = np.arange(0, n + 1, dtype=np.int64)
        assert np.array_equal(
            view.rank1_many(positions), bv.rank1_many(positions)
        )
        step = max(1, n // 64)
        for i in range(0, n, step):
            assert view[i] == bv[i]
            assert view.rank1(i) == bv.rank1(i)
        for j in range(0, view.num_ones, max(1, view.num_ones // 32)):
            assert view.select1(j) == bv.select1(j)

    def test_bitvector_view_sentinel_invariant(self):
        from repro.errors import InvariantViolation

        with pytest.raises(InvariantViolation):
            BitVector.from_packed(
                np.zeros(2, dtype=np.uint64),
                np.zeros(3, dtype=np.int64),
                64,
            )

    def test_wavelet_level_count_validated(self, kg_index):
        from repro.succinct.wavelet_matrix import WaveletMatrix

        wm = kg_index.ring.L_p
        with pytest.raises(ConstructionError, match="levels"):
            WaveletMatrix.from_parts(
                wm._levels[:1] * (wm.height + 1),
                len(wm), wm.sigma, wm._class_cum, wm._bottom_start,
            )


def _dev_shm(name: str):
    from pathlib import Path

    root = Path("/dev/shm")
    return root / name if root.is_dir() else None


def _segment_names() -> set:
    from pathlib import Path

    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in root.glob("psm_*")}
