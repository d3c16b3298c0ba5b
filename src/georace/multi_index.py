"""Build all three index kinds from one entry snapshot.

build_all validates the entries into rows once and builds GeoHash, QuadTree
and OrthoList from those rows one after another, all in the calling process.
Each kind is a plain build_index_from_rows call, so a failure raises
IndexBuildError naming the kind, and the three indexes share one rows list.

The paper holds that building several indexes "will not cause large
overhead". Timed whole, validation included, build_all took 1.33-1.36 times
the slowest single build (GeoHash's traversal alone) in four runs of
`georace bench overhead --tiles 9000 --repeat 50` on a 2-vCPU host.
"""

from __future__ import annotations

import hashlib
import struct
import time
from functools import cached_property

from .errors import IndexBuildError, ValidationError
from .indexes import (
    SINGLE_KINDS,
    IndexConfig,
    RangeIndex,
    _pack_entries,
    _rows_from_entries,
    build_index_from_rows,
)


class MultiIndex:
    """The three equivalent indexes built from one entry snapshot."""

    def __init__(self, indexes: dict[str, RangeIndex], build_wall_seconds: float):
        self.indexes = indexes
        self.build_wall_seconds = build_wall_seconds

    def __len__(self) -> int:
        return len(next(iter(self.indexes.values())))

    @cached_property
    def snapshot(self) -> str:
        """Stamp of the entry snapshot: a content hash of the rows.

        Computed on first read, since no query needs it; an index persisted
        beside the catalog would carry it to tell which rows it covers.
        """
        rows = next(iter(self.indexes.values())).rows
        return hashlib.sha256(_pack_entries(rows)).hexdigest()[:16]

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


def build_all(entries, *, config: IndexConfig | None = None, executor: str = "auto") -> MultiIndex:
    """Build the GeoHash, QuadTree, and OrthoList indexes from one snapshot,
    one after another in this process.

    executor is checked against its old values (auto|serial|process) and
    otherwise not read: the benchmark's traced setup still passes
    SystemConfig.build_executor. Both go at the next change to the
    benchmark, like TileStore(config=). build_wall_seconds times the three
    builds, not the validation.
    """
    if executor not in ("auto", "serial", "process"):
        raise ValidationError(f"executor must be auto|serial|process, got {executor!r}")
    config = config or IndexConfig()
    rows = _rows_from_entries(entries)  # validates + duplicate check once
    started = time.perf_counter()
    built = {}
    for kind in SINGLE_KINDS:
        try:
            built[kind] = build_index_from_rows(kind, rows, config)
        except Exception as exc:
            raise IndexBuildError(f"{kind}: {exc}") from exc
    return MultiIndex(built, time.perf_counter() - started)
