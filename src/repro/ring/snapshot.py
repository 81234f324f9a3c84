"""Zero-copy snapshots of a built ring index (`ring-snapshot/v1`).

The ring is a small, *immutable* succinct index — exactly the shape
that one physical copy in ``multiprocessing.shared_memory`` can serve
to N worker processes (the one-copy-many-readers layout of "Evaluating
Regular Path Queries on Compressed Adjacency Matrices").  This module
flattens a built :class:`~repro.ring.builder.RingIndex` into one
contiguous byte payload plus a small JSON manifest, and reconstructs
*views* — no copies — over that payload:

* :class:`SharedIndexHandle` — parent-side owner of one shared-memory
  segment per index; hands out a picklable :meth:`token
  <SharedIndexHandle.token>` that workers turn back into a live
  :class:`RingIndex` with :func:`attach_token`.
* :func:`save_snapshot` / :func:`load_snapshot` — the same manifest
  written to a file; loading ``mmap``-s the payload for instant cold
  start (the seed of the ROADMAP's on-disk index format).

Layout
------
The payload is a sequence of 64-byte-aligned numpy buffers.  The
manifest records, for every buffer, ``{dtype, shape, offset}`` under a
dotted name:

=====================  =====================================================
``lp.level{i}.words``  packed ``uint64`` words of L_p's level-``i``
                       bitvector **plus one zero sentinel word** (the
                       :meth:`BitVector.batch_data` shape)
``lp.level{i}.cum64``  the level's ``int64`` rank directory
``lp.counts`` etc.     L_p's symbol counts / class offsets / bottom starts
``ls.*`` / ``lo.*``    the same for L_s and (optional) L_o
``c_o`` ``c_p``        the boundary arrays, plain ``int64`` (an
``c_s``                Elias-Fano-compressed source ring is decoded once
                       at snapshot time; attach always yields plain)
=====================  =====================================================

That is the whole payload: the ring is the only index a serving tier
loads.  The sparse boolean backend's per-predicate matrices are a
cache decoded from whichever ring is attached
(:class:`~repro.matrix.matrices.PredicateMatrices`), so they are never
shipped.  Snapshots written before that (same ``v1`` format) also
carry ``mat.{pid}.*`` buffers and a ``matrix_pids`` list; a reader
skips both — a buffer nobody asks for is never viewed.

Structural metadata (``n``, ``sigma`` per column, node/predicate
labels, the inverse-predicate involution, the serve-layer CRC-32
fingerprint) lives in the manifest itself, so an attached index is
cache-key-compatible with the index it was snapped from.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ConstructionError
from repro.ring.dictionary import Dictionary
from repro.ring.ring import BoundaryArray, Ring
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_matrix import WaveletMatrix

SNAPSHOT_FORMAT = "ring-snapshot/v1"
_ALIGN = 64
_FILE_MAGIC = b"RPQSNAP1"


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


# ----------------------------------------------------------------------
# Flattening
# ----------------------------------------------------------------------


def _column_buffers(prefix: str, wm: WaveletMatrix, buffers: dict) -> dict:
    """Collect one wavelet matrix's buffers; return its manifest entry."""
    levels = []
    for i, bv in enumerate(wm._levels):
        words_ext, cum64, n = bv.batch_data()
        buffers[f"{prefix}.level{i}.words"] = words_ext
        buffers[f"{prefix}.level{i}.cum64"] = cum64
        levels.append({"n": n})
    buffers[f"{prefix}.counts"] = wm._counts
    buffers[f"{prefix}.class_cum"] = wm._class_cum
    buffers[f"{prefix}.bottom_start"] = wm._bottom_start
    return {"n": len(wm), "sigma": wm.sigma, "levels": levels}


def snapshot_index(index):
    """Flatten a built index into ``(manifest, buffers)``.

    ``buffers`` maps manifest buffer names to the live numpy arrays of
    the source index (no copying happens here — the copy is the single
    ``memcpy`` into the segment or file).  The manifest's ``buffers``
    table is filled with dtype/shape/offset; ``total_bytes`` is the
    aligned payload size.
    """
    from repro.serve.keys import index_fingerprint

    ring = index.ring
    dictionary = index.dictionary
    buffers: dict[str, np.ndarray] = {}
    manifest: dict = {
        "format": SNAPSHOT_FORMAT,
        "fingerprint": index_fingerprint(index),
        "n": len(ring),
        "num_nodes": ring.num_nodes,
        "num_predicates": ring.num_predicates,
        "dictionary": {
            "nodes": list(dictionary.node_labels),
            "predicates": list(dictionary.predicate_labels),
            "inverse_ids": [
                dictionary.inverse_predicate(p)
                for p in range(dictionary.num_predicates)
            ],
        },
        "columns": {
            "lp": _column_buffers("lp", ring.L_p, buffers),
            "ls": _column_buffers("ls", ring.L_s, buffers),
        },
    }
    buffers["c_o"] = ring.C_o.to_array().astype(np.int64, copy=False)
    buffers["c_p"] = ring.C_p.to_array().astype(np.int64, copy=False)
    if ring.L_o is not None and ring.C_s is not None:
        manifest["columns"]["lo"] = _column_buffers("lo", ring.L_o, buffers)
        buffers["c_s"] = ring.C_s.to_array().astype(np.int64, copy=False)

    _lay_out(manifest, buffers)
    return manifest, buffers


def _lay_out(manifest: dict, buffers: dict) -> None:
    """Fill the manifest's ``buffers`` table and ``total_bytes``: every
    buffer at the next 64-byte boundary, in insertion order."""
    table = {}
    offset = 0
    for name, arr in buffers.items():
        arr = np.ascontiguousarray(arr)
        buffers[name] = arr
        offset = _align(offset)
        table[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
        }
        offset += arr.nbytes
    manifest["buffers"] = table
    manifest["total_bytes"] = _align(offset)


def _write_payload(manifest: dict, buffers: dict, target) -> None:
    """Copy every buffer into ``target`` (a writable buffer object)."""
    view = np.frombuffer(target, dtype=np.uint8)
    for name, meta in manifest["buffers"].items():
        arr = buffers[name]
        start = meta["offset"]
        view[start:start + arr.nbytes] = np.frombuffer(arr, dtype=np.uint8)
    del view


# ----------------------------------------------------------------------
# Reconstruction (views, no copies)
# ----------------------------------------------------------------------


def _buffer_view(manifest: dict, payload, name: str) -> np.ndarray:
    meta = manifest["buffers"][name]
    dtype = np.dtype(meta["dtype"])
    count = int(np.prod(meta["shape"], dtype=np.int64))
    arr = np.frombuffer(
        payload, dtype=dtype, count=count, offset=meta["offset"]
    )
    arr.flags.writeable = False
    return arr.reshape(meta["shape"])


def _column_view(prefix: str, meta: dict, manifest: dict,
                 payload) -> WaveletMatrix:
    levels = [
        BitVector.from_packed(
            _buffer_view(manifest, payload, f"{prefix}.level{i}.words"),
            _buffer_view(manifest, payload, f"{prefix}.level{i}.cum64"),
            level["n"],
        )
        for i, level in enumerate(meta["levels"])
    ]
    return WaveletMatrix.from_parts(
        levels,
        meta["n"],
        meta["sigma"],
        _buffer_view(manifest, payload, f"{prefix}.counts"),
        _buffer_view(manifest, payload, f"{prefix}.class_cum"),
        _buffer_view(manifest, payload, f"{prefix}.bottom_start"),
    )


def attach_index(manifest: dict, payload):
    """Reconstruct a :class:`RingIndex` of views over ``payload``.

    ``payload`` is any buffer object holding the snapshot bytes — a
    shared-memory ``buf``, an ``mmap``, or plain ``bytes``.  Nothing is
    copied; the caller is responsible for keeping ``payload`` alive as
    long as the index (the public entry points pin it on the returned
    object as ``_snapshot_source``).
    """
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise ConstructionError(
            f"unsupported snapshot format {manifest.get('format')!r}; "
            f"expected {SNAPSHOT_FORMAT!r}"
        )
    from repro.ring.builder import RingIndex

    cols = manifest["columns"]
    L_p = _column_view("lp", cols["lp"], manifest, payload)
    L_s = _column_view("ls", cols["ls"], manifest, payload)
    C_o = BoundaryArray(_buffer_view(manifest, payload, "c_o"))
    C_p = BoundaryArray(_buffer_view(manifest, payload, "c_p"))
    L_o = C_s = None
    if "lo" in cols:
        L_o = _column_view("lo", cols["lo"], manifest, payload)
        C_s = BoundaryArray(_buffer_view(manifest, payload, "c_s"))
    ring = Ring.from_parts(
        L_p, C_o, L_s, C_p,
        n=manifest["n"],
        num_nodes=manifest["num_nodes"],
        num_predicates=manifest["num_predicates"],
        L_o=L_o,
        C_s=C_s,
    )
    d = manifest["dictionary"]
    dictionary = Dictionary(d["nodes"], d["predicates"], d["inverse_ids"])
    index = RingIndex(dictionary, ring)
    index._serve_fingerprint = manifest["fingerprint"]
    return index


# ----------------------------------------------------------------------
# Shared-memory plane
# ----------------------------------------------------------------------


# Names created by THIS process (or inherited over fork from the
# creator).  Kept so close() can tell which names it owns.
_created_names: set[str] = set()


def _tracker_preexisting() -> bool:
    """True when this process already talks to a resource tracker.

    Multiprocessing children — fork *and* spawn — inherit the parent's
    tracker connection, so their attach registrations land in the same
    cache the parent's ``unlink`` will clear: unregistering from a
    child would strip that shared entry early.  An *independent*
    process (no pre-existing connection) starts its own tracker on
    attach, and that private tracker would unlink the segment when the
    process exits — yanking the index out from under its siblings — so
    there the registration must be removed.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        return resource_tracker._resource_tracker._fd is not None
    except Exception:
        return False


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Remove an attach registration from a process-private tracker.

    On Python < 3.13 every ``SharedMemory(name=...)`` attach registers
    the segment with the process's resource tracker; only the creating
    parent may unlink.  See :func:`_tracker_preexisting` for when this
    is (and is not) the right call.
    """
    if shm.name in _created_names:
        return
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class SharedIndexHandle:
    """Parent-side owner of one shared-memory snapshot of an index.

    Created once per served index; every worker process turns
    :meth:`token` back into a live view-backed :class:`RingIndex` with
    :func:`attach_token`.  :meth:`close` releases the parent mapping
    and (by default) unlinks the segment — after which no new worker
    can attach, and the memory is freed once the last attached worker
    exits.
    """

    def __init__(self, manifest: dict, shm: shared_memory.SharedMemory):
        self.manifest = manifest
        self._shm = shm
        self._closed = False

    @classmethod
    def create(cls, index,
               name: str | None = None) -> "SharedIndexHandle":
        """Snapshot ``index`` into a fresh shared-memory segment."""
        manifest, buffers = snapshot_index(index)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, manifest["total_bytes"]), name=name
        )
        try:
            _write_payload(manifest, buffers, shm.buf)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        _created_names.add(shm.name)
        return cls(manifest, shm)

    @property
    def nbytes(self) -> int:
        """Payload size of the segment in bytes."""
        return int(self.manifest["total_bytes"])

    @property
    def name(self) -> str:
        """OS-level name of the segment (under ``/dev/shm`` on Linux)."""
        return self._shm.name

    def measure(self, name: str = "shm_segment"):
        """Space-audit tree of the live segment: the manifest's buffer
        layout (alignment padding accounted explicitly), so the tree's
        total equals :attr:`nbytes` — the ``/dev/shm`` file size modulo
        the kernel's final page rounding."""
        from repro.obs.space import audit_manifest

        node = audit_manifest(self.manifest, name)
        node.detail["segment"] = self._shm.name
        return node

    def token(self) -> dict:
        """A picklable attach token: segment name plus manifest."""
        return {"shm": self._shm.name, "manifest": self.manifest}

    def attach_local(self):
        """Attach in *this* process (views over the parent mapping)."""
        index = attach_index(self.manifest, self._shm.buf)
        index._snapshot_source = self
        return index

    def close(self, unlink: bool = True) -> None:
        """Release the parent mapping; ``unlink`` removes the segment.

        Safe to call twice.  Note any index returned by
        :meth:`attach_local` holds views into the mapping, so it must
        be dropped before closing — this is why the process tier hands
        local attaches only to short-lived differential tests, never
        to the serving path.
        """
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _created_names.discard(self._shm.name)

    def __enter__(self) -> "SharedIndexHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _PinnedSharedMemory(shared_memory.SharedMemory):
    """An attach-only mapping pinned for the process lifetime.

    The attached index exports numpy views into the mapping, so the
    inherited ``__del__`` → ``close()`` at interpreter shutdown would
    die with ``BufferError: cannot close exported pointers exist``.
    Workers never unmap — the OS reclaims the mapping at process exit —
    so teardown is a deliberate no-op.
    """

    def __del__(self):  # noqa: D105 - see class docstring
        pass

    def close(self) -> None:  # pragma: no cover - defensive no-op
        pass


def attach_token(token: dict):
    """Worker-side attach: token → live view-backed :class:`RingIndex`.

    The returned index pins the :class:`SharedMemory` mapping (as
    ``_snapshot_source``) so the views stay valid for the index's
    lifetime; the segment itself is never unlinked from here — that is
    the creating parent's job.
    """
    shared_tracker = _tracker_preexisting()
    shm = _PinnedSharedMemory(name=token["shm"])
    if not shared_tracker:
        _untrack(shm)
    index = attach_index(token["manifest"], shm.buf)
    index._snapshot_source = shm
    return index


# ----------------------------------------------------------------------
# File plane (mmap cold start)
# ----------------------------------------------------------------------


def save_snapshot(index, path) -> int:
    """Write the snapshot to ``path``; returns bytes written.

    Format: ``RPQSNAP1`` magic, little-endian ``uint64`` manifest
    length, the UTF-8 JSON manifest, zero padding to a 64-byte
    boundary, then the payload described by the manifest.
    """
    return _write_file(*snapshot_index(index), path)


def _write_file(manifest: dict, buffers: dict, path) -> int:
    blob = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    header = _FILE_MAGIC + len(blob).to_bytes(8, "little") + blob
    pad = _align(len(header)) - len(header)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(b"\0" * pad)
        payload = bytearray(manifest["total_bytes"])
        _write_payload(manifest, buffers, payload)
        fh.write(payload)
        return fh.tell()


def load_snapshot(path, mmap: bool = True):
    """Load a snapshot file as a view-backed :class:`RingIndex`.

    With ``mmap=True`` (default) the payload is memory-mapped
    copy-on-read: cold start touches only the pages a query actually
    walks, and N processes loading the same file share the page cache.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_FILE_MAGIC))
        if magic != _FILE_MAGIC:
            raise ConstructionError(
                f"{path}: not a ring snapshot (bad magic {magic!r})"
            )
        manifest_len = int.from_bytes(fh.read(8), "little")
        manifest = json.loads(fh.read(manifest_len).decode("utf-8"))
        payload_start = _align(len(_FILE_MAGIC) + 8 + manifest_len)
        if mmap:
            mapped = _mmap.mmap(
                fh.fileno(), 0, access=_mmap.ACCESS_READ
            )
            payload = memoryview(mapped)[payload_start:]
            index = attach_index(manifest, payload)
            index._snapshot_source = (mapped, payload)
            return index
        fh.seek(payload_start, os.SEEK_SET)
        payload = fh.read()
    index = attach_index(manifest, payload)
    index._snapshot_source = payload
    return index
