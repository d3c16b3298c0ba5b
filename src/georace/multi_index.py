"""Build all three index kinds from one entry snapshot.

build_all validates the entries into rows once, in the calling process, and
every index is built from those rows. On the process path the work is spread
over at most one process per CPU, the calling process included. The calling
process builds QuadTree and OrthoList whole. GeoHash, the longest build, is
split into chunks of rows that every process claims from a shared counter
and buckets: the forked children from the start, the calling process once
its whole builds are done. The calling process then assembles the GeoHash
index from all the buckets. The chunks keep the processes busy until the
last one is claimed, so the build takes about half the total work on two
CPUs, however that work divides between the kinds. On a single-CPU host
everything runs in the calling process, as with executor="serial" (a forked
child would only add fork and pickling overhead to the same sequential
schedule).

The snapshot reaches the children through fork: each inherits the validated
rows copy-on-write, so nothing is pickled on the way in. A child sends back
only its GeoHash buckets, and the caller unpickles them after the child has
exited, when its writes no longer copy shared pages. The snapshot stamp, a
content hash of the rows, is computed by the first child before it starts on
the chunks, or by the caller when it has none. Each index is checked against
the snapshot: QuadTree and OrthoList must hold the validated rows, and the
assembled GeoHash index must register every row of the snapshot, and no
other, in some cell. A failed check raises IndexBuildError naming the kind.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import struct
import time
from dataclasses import dataclass
from multiprocessing import get_context

from .errors import IndexBuildError, ValidationError
from .indexes import (
    GeoHashIndex,
    IndexConfig,
    IndexKind,
    RangeIndex,
    Row,
    _pack_entries,
    _rows_from_entries,
    build_index_from_rows,
)

DEFAULT_REPLICAS = ("node_00", "node_01", "node_02")

_GEOHASH = IndexKind.GEOHASH.value
_ENSEMBLE = (_GEOHASH, IndexKind.QUADTREE.value, IndexKind.ORTHOLIST.value)
# the kinds built whole, in the calling process; GeoHash, the longest build,
# is built in row chunks shared by every process
_WHOLE = (IndexKind.QUADTREE.value, IndexKind.ORTHOLIST.value)
# GeoHash rows per claimed chunk: at 9000 tiles about 5 ms of work, so the
# processes finish within a few ms of each other
_GEOHASH_CHUNK = 256


@dataclass(frozen=True)
class BuildStats:
    kind: str
    build_seconds: float
    serialized_bytes: int


class MultiIndex:
    """The three equivalent indexes plus snapshot/replica bookkeeping."""

    def __init__(
        self,
        indexes: dict[str, RangeIndex],
        snapshot: str,
        replica_assignment: dict[str, str],
        build_wall_seconds: float,
    ):
        self.indexes = indexes
        self.snapshot = snapshot
        self.replica_assignment = replica_assignment
        self.build_wall_seconds = build_wall_seconds

    @property
    def build_stats(self) -> tuple[BuildStats, ...]:
        """Per-kind build time and size; serializes each index on first use."""
        return tuple(
            BuildStats(kind, idx.build_seconds, idx.serialized_size)
            for kind, idx in self.indexes.items()
        )

    def __len__(self) -> int:
        return len(next(iter(self.indexes.values())))

    def kinds(self) -> tuple[str, ...]:
        return tuple(self.indexes)

    def to_bytes(self) -> bytes:
        """Container blob: per-kind length-prefixed serializations."""
        out = bytearray(b"GXMX")
        out += struct.pack("<HB", 1, len(self.indexes))
        for kind, idx in self.indexes.items():
            raw_kind = kind.encode("ascii")
            blob = idx.to_bytes()
            out += struct.pack("<B", len(raw_kind))
            out += raw_kind
            out += struct.pack("<Q", len(blob))
            out += blob
        return bytes(out)

    @property
    def serialized_size(self) -> int:
        return len(self.to_bytes())


def _stamp(rows: list[Row]) -> str:
    return hashlib.sha256(_pack_entries(rows)).hexdigest()[:16]


def _build_one(kind: str, rows: list[Row], config: IndexConfig) -> RangeIndex:
    return build_index_from_rows(kind, rows, config)


def _build_checked(kind: str, rows: list[Row], config: IndexConfig) -> RangeIndex:
    """Build one kind whole, name it in any failure, and check it against the rows."""
    try:
        index = _build_one(kind, rows, config)
    except Exception as exc:
        raise IndexBuildError(f"{kind}: {exc}") from exc
    if index.rows != rows:
        raise IndexBuildError(f"{kind}: built from a different entry snapshot")
    return index


def _bucket_chunk(rows: list[Row], ids: range, config: IndexConfig, buckets) -> None:
    GeoHashIndex.bucket_rows(rows, ids, config.geohash_precision, buckets)


def _bucket_claimed(rows: list[Row], config: IndexConfig, counter) -> dict[str, list[int]]:
    """GeoHash buckets of the row chunks this process claims from counter,
    until none is left; every row when there is no counter."""
    buckets: dict[str, list[int]] = {}
    try:
        if counter is None:
            _bucket_chunk(rows, range(len(rows)), config, buckets)
            return buckets
        while True:
            with counter.get_lock():
                start = counter.value
                counter.value = start + _GEOHASH_CHUNK
            if start >= len(rows):
                return buckets
            stop = min(start + _GEOHASH_CHUNK, len(rows))
            _bucket_chunk(rows, range(start, stop), config, buckets)
    except Exception as exc:
        raise IndexBuildError(f"{_GEOHASH}: {exc}") from exc


def _assemble_geohash(rows: list[Row], config: IndexConfig, parts) -> GeoHashIndex:
    """The GeoHash index from every process's buckets, checked against the rows."""
    index = GeoHashIndex.from_buckets(rows, config.geohash_precision, parts)
    registered = set().union(*index.cells().values())
    # every valid box touches at least one cell, so each row of the snapshot
    # is registered somewhere; a part bucketed from other rows breaks this
    if registered != set(range(len(rows))):
        raise IndexBuildError(f"{_GEOHASH}: built from a different entry snapshot")
    return index


def _child_build(rows: list[Row], config: IndexConfig, counter, stamp: bool, conn) -> None:
    """Forked worker: stamp the inherited rows if asked, then bucket GeoHash
    chunks until none is left, and send the stamp and buckets back."""
    # park the inherited heap in the permanent generation: this child's
    # collections then skip it instead of touching, and so copying, its pages
    gc.freeze()
    try:
        reply = (_stamp(rows) if stamp else None, _bucket_claimed(rows, config, counter))
    except IndexBuildError as exc:
        reply = str(exc)
    conn.send(reply)
    conn.close()


def _collect(proc, conn):
    """A child's stamp and GeoHash buckets.

    The reply is unpickled only after the child has exited: until then every
    page this process writes is still shared with the child and costs a
    copy-on-write fault.
    """
    try:
        payload = conn.recv_bytes()
    except EOFError:
        payload = None
    proc.join()
    if payload is None:
        raise IndexBuildError(f"{_GEOHASH}: build worker exited with code {proc.exitcode}")
    reply = pickle.loads(payload)
    if isinstance(reply, str):
        raise IndexBuildError(reply)
    return reply


def build_all(
    entries,
    *,
    config: IndexConfig | None = None,
    replicas: tuple[str, str, str] = DEFAULT_REPLICAS,
    executor: str = "auto",
    max_workers: int = 3,
) -> MultiIndex:
    """Build the GeoHash, QuadTree, and OrthoList indexes from one snapshot.

    executor="serial" builds all three in this process; "process" spreads
    them over min(max_workers, CPUs, 3) processes, this one included;
    "auto" picks "process" when both the CPU count and max_workers are at
    least 2. The output is byte-identical whichever executor runs. The
    GeoHash index's build_seconds is this process's span from its first
    chunk to the assembled index.
    """
    if executor not in ("auto", "serial", "process"):
        raise ValidationError(f"executor must be auto|serial|process, got {executor!r}")
    if max_workers < 1:
        raise ValidationError("max_workers must be >= 1")
    if len(replicas) != 3 or len(set(replicas)) != 3:
        raise ValidationError("exactly three distinct replica node ids required")
    config = config or IndexConfig()
    rows = _rows_from_entries(entries)  # validates + duplicate check once

    cpus = os.cpu_count() or 1
    use_processes = executor == "process" or (
        executor == "auto" and cpus >= 2 and max_workers >= 2
    )
    processes = min(max_workers, cpus, len(_ENSEMBLE)) if use_processes else 1
    ctx = get_context("fork")
    counter = ctx.Value("q", 0) if processes > 1 else None
    children = []
    started = time.perf_counter()
    try:
        for i in range(processes - 1):
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_child_build, args=(rows, config, counter, i == 0, send_conn), daemon=True
            )
            proc.start()
            send_conn.close()
            children.append((proc, recv_conn))
        # the children start on GeoHash chunks at once; this process joins
        # them once its whole builds are done
        built = {kind: _build_checked(kind, rows, config) for kind in _WHOLE}
        geohash_started = time.perf_counter()
        parts = [_bucket_claimed(rows, config, counter)]
        stamp = None if children else _stamp(rows)
        for proc, recv_conn in children:
            child_stamp, child_buckets = _collect(proc, recv_conn)
            stamp = stamp or child_stamp
            parts.append(child_buckets)
        built[_GEOHASH] = _assemble_geohash(rows, config, parts)
        built[_GEOHASH].build_seconds = time.perf_counter() - geohash_started
    finally:
        # a child that has replied has exited; one that has not is abandoned
        # because the build already failed
        for proc, recv_conn in children:
            recv_conn.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()
    wall = time.perf_counter() - started
    assignment = {kind: replicas[i] for i, kind in enumerate(_ENSEMBLE)}
    return MultiIndex({kind: built[kind] for kind in _ENSEMBLE}, stamp, assignment, wall)

