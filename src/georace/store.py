"""Replicated tile store: ingest, catalog, coordinate-tree layout, failover.

Storage nodes are directories under <root>/nodes/, each holding a full
replica tree; a node is "down" while a .down marker file exists in it, so
failure injected by another process is seen by the next read that checks.
Every tile is written to 3 distinct nodes chosen round-robin over the live
nodes in ingest order.

Layout per node:   lon_<FFF>/lat_<FFF>/<YYYY>/<tile_id>/<band>.band
Catalog:           <root>/catalog.ndjson (one JSON object per tile and line,
                   insertion order = ingest order)

A replica holds band files only; the catalog row is the one record of a
tile. Ingest writes every band file to each of the tile's nodes, then
appends the tile's row to the catalog in one write, and that append is the
commit. Until it lands, the tile does not exist: a band file torn by a
crash is never read, and one corrupted later fails its SHA-256 and the read
fails over. A catalog is read only up to its last newline: a last line with
no newline is an ingest that never committed, so open skips it unparsed and
the next ingest cuts it off before appending. A complete line that does not
parse is CorruptionError. Stores whose replicas also hold a meta.json, as
earlier versions wrote, open and read the same: no code reads that file.

A catalog row holds, in this order: tile_id; the footprint (min_lon,
max_lon, min_lat, max_lat); capture_time; satellite; bands, the band labels
in scene order; rows and cols, the shape every band of the tile has; and
checksums, each band file's SHA-256. Open checks that every key is there,
that rows and cols are positive ints and that the tile id matches the
footprint, time and satellite; it reads no band file.

Replica placement is not persisted separately. The nodes holding a tile are
found by probing the node directories, in node order, which is also the
failover order for reads. Tiles never move after ingest, so each tile's
nodes are looked up once, on its first read, and kept with the tile's
directory; ingest records both directly and open probes nothing. A replica
file that has gone missing makes the read look that tile's nodes up again,
once, before it fails over.

Liveness is read from the .down markers once per call of fetch_band, or once
per query when the engine passes the live nodes in. A read verifies the band
bytes against their SHA-256 in the catalog; a replica that does not match is
skipped for the next live one, and CorruptionError, naming every bad node,
is raised only when no live replica verifies. Verified bytes whose header
shape is not the catalog's rows and cols raise CorruptionError at once:
every replica holds those same bytes, so the catalog row is at fault.

A band file is read whole, with readinto, into a buffer laid out so that
the pixels after the 14-byte header start on a 64-byte boundary; a file
longer than the buffer goes to a larger one, never cut to fit, so trailing
bytes fail the checksum.
Verified bytes are decoded without a copy: the BandGrid is a read-only view
of the buffer. The caller may pass the buffer (band_buffer) and reuse it for
the next band; otherwise each read gets a fresh one.

The query engine calls fetch_band from several threads at once, one tile
per thread, each with its own buffers. Its only write to shared state is the
single dict assignment that keeps a tile's directory and looked-up nodes in
_holders; two threads looking up the same tile store equal tuples.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Collection
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import formats
from .errors import (
    CorruptionError,
    DuplicateTileError,
    ReplicationError,
    UnavailableError,
    UnknownNodeError,
    ValidationError,
)
from .geo import BoundingBox, TimeRange, derive_tile_id, intersects, overlaps_time
from .indexes import IndexConfig, IndexEntry

REPLICATION_FACTOR = 3
_ALIGN = 64  # bytes; the band pixels of a read start on this boundary
_QUADRANTS = ("NW", "NE", "SW", "SE")

DEFAULT_BAND_LABELS = (
    "CoastalAerosol",
    "Blue",
    "Green",
    "Red",
    "NIR",
    "SWIR1",
    "SWIR2",
    "Pan",
    "Cirrus",
    "TIRS1",
)

_META_KEYS = (
    "tile_id",
    "min_lon",
    "max_lon",
    "min_lat",
    "max_lat",
    "capture_time",
    "satellite",
    "bands",
    "rows",
    "cols",
    "checksums",
)


@dataclass(frozen=True, eq=False)
class BandGrid:
    """One band as a read-only float32 grid; no-data pixels are NaN."""

    label: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.label:
            raise ValidationError("band label must be non-empty")
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError(f"band {self.label!r} must be a non-empty 2-D grid")
        if np.isinf(arr).any():
            raise ValidationError(f"band {self.label!r} contains infinities")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def _trusted(cls, label: str, values: np.ndarray) -> "BandGrid":
        """Wrap a 2-D float32 grid without copying or checking it.

        For grids this package made: NaN or finite values only, and no
        writeable array may share their memory (verified bytes in a buffer
        no one else holds, or a fresh result), except the buffer a caller
        passed to TileStore.fetch_band, which that caller owns."""
        values.flags.writeable = False
        grid = object.__new__(cls)
        object.__setattr__(grid, "label", label)
        object.__setattr__(grid, "values", values)
        return grid

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def no_data(self) -> np.ndarray:
        return np.isnan(self.values)


@dataclass(frozen=True, eq=False)
class RasterScene:
    """A multi-band capture: ordered bands over one footprint and instant."""

    bbox: BoundingBox
    capture_time: int
    satellite: str
    bands: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        if isinstance(self.capture_time, bool) or not isinstance(self.capture_time, int):
            raise ValidationError("capture_time must be an int (epoch seconds)")
        if not self.satellite:
            raise ValidationError("satellite must be non-empty")
        if not self.bands:
            raise ValidationError("scene must have at least one band")
        labels = [label for label, _ in self.bands]
        if len(set(labels)) != len(labels):
            raise ValidationError("band labels must be distinct")
        shapes = set()
        cleaned = []
        for label, grid in self.bands:
            g = BandGrid(label, grid)  # validates
            shapes.add(g.values.shape)
            cleaned.append((label, g.values))
        if len(shapes) != 1:
            raise ValidationError(f"bands disagree on dimensions: {sorted(shapes)}")
        object.__setattr__(self, "bands", tuple(cleaned))

    @property
    def rows(self) -> int:
        return self.bands[0][1].shape[0]

    @property
    def cols(self) -> int:
        return self.bands[0][1].shape[1]

    @property
    def band_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.bands)

    def band(self, label: str) -> np.ndarray:
        for name, grid in self.bands:
            if name == label:
                return grid
        raise ValidationError(f"scene has no band {label!r}")

    @property
    def tile_id(self) -> str:
        return derive_tile_id(self.bbox, self.capture_time, self.satellite)


@dataclass(frozen=True)
class TileMetadata:
    tile_id: str
    bbox: BoundingBox
    capture_time: int
    satellite: str
    band_labels: tuple[str, ...]
    shape: tuple[int, int]  # (rows, cols) of every band of the tile
    checksums: dict[str, str]

    def entry(self) -> IndexEntry:
        return IndexEntry(
            self.tile_id, self.bbox, TimeRange(self.capture_time, self.capture_time)
        )


def band_buffer(nbytes: int) -> np.ndarray:
    """A writable uint8 buffer of nbytes for one band file, placed so that
    the pixels after the file header start on a 64-byte boundary."""
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -(raw.ctypes.data + formats.HEADER_SIZE) % _ALIGN
    return raw[start:start + nbytes]


def _read_whole(fh, into: np.ndarray | None) -> np.ndarray:
    """The open file's bytes: read into `into` when they fit, else into a
    fresh band_buffer, which is then made read-only for good."""
    size = os.fstat(fh.fileno()).st_size
    buf = into if into is not None and size <= len(into) else band_buffer(size)
    n = fh.readinto(buf[:size])
    if buf is not into:
        buf.base.flags.writeable = False
    return buf[:n]


def _degree_token(prefix: str, value: float) -> str:
    v = math.floor(value)
    return f"{prefix}_{v:04d}" if v < 0 else f"{prefix}_{v:03d}"


def tile_dir(meta: TileMetadata) -> str:
    """Relative coordinate-tree directory of a tile."""
    year = datetime.fromtimestamp(meta.capture_time, tz=timezone.utc).year
    return "/".join(
        (
            _degree_token("lon", meta.bbox.min_lon),
            _degree_token("lat", meta.bbox.min_lat),
            f"{year:04d}",
            meta.tile_id,
        )
    )


def tile_path(meta: TileMetadata, band_label: str) -> str:
    """Relative path of one band file."""
    return f"{tile_dir(meta)}/{band_label}.band"


def _meta_row(meta: TileMetadata) -> str:
    doc = {
        "tile_id": meta.tile_id,
        "min_lon": meta.bbox.min_lon,
        "max_lon": meta.bbox.max_lon,
        "min_lat": meta.bbox.min_lat,
        "max_lat": meta.bbox.max_lat,
        "capture_time": meta.capture_time,
        "satellite": meta.satellite,
        "bands": list(meta.band_labels),
        "rows": meta.shape[0],
        "cols": meta.shape[1],
        "checksums": {label: meta.checksums[label] for label in meta.band_labels},
    }
    return json.dumps(doc, separators=(",", ":"))


def _committed_end(fh, size: int) -> int:
    """The length of the catalog open as fh, size bytes long, up to and
    including its last newline: what follows is a row whose append never
    completed. Read from the file, not kept in memory, so that rows another
    TileStore on the same root committed are kept."""
    end = size
    while end:
        start = max(0, end - 4096)
        fh.seek(start)
        newline = fh.read(end - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        end = start
    return 0


def _parse_meta_row(line: str, *, source: str) -> TileMetadata:
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise CorruptionError(f"{source}: unparseable row: {exc}") from exc
    missing = [k for k in _META_KEYS if k not in doc]
    if missing:
        raise CorruptionError(f"{source}: row missing keys {missing}")
    for key in ("rows", "cols"):
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise CorruptionError(f"{source}: {key} must be a positive int, got {value!r}")
    bbox = BoundingBox(doc["min_lon"], doc["max_lon"], doc["min_lat"], doc["max_lat"])
    meta = TileMetadata(
        tile_id=doc["tile_id"],
        bbox=bbox,
        capture_time=int(doc["capture_time"]),
        satellite=doc["satellite"],
        band_labels=tuple(doc["bands"]),
        shape=(doc["rows"], doc["cols"]),
        checksums=dict(doc["checksums"]),
    )
    if derive_tile_id(bbox, meta.capture_time, meta.satellite) != meta.tile_id:
        raise CorruptionError(f"{source}: tile {meta.tile_id}: id does not match metadata")
    return meta


class TileStore:
    """A rooted store of replicated tiles plus the metadata catalog."""

    MANIFEST = "store.json"
    CATALOG = "catalog.ndjson"

    def __init__(self, root: Path, n_nodes: int, config: IndexConfig):
        self.root = Path(root)
        self.config = config
        self.node_ids = tuple(f"node_{i:02d}" for i in range(n_nodes))
        self._node_roots = {node: f"{self.root}/nodes/{node}/" for node in self.node_ids}
        self._rows: list[TileMetadata] = []
        self._by_id: dict[str, TileMetadata] = {}
        # tile id -> (its coordinate-tree directory, the nodes holding it)
        self._holders: dict[str, tuple[str, tuple[str, ...]]] = {}

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, root, *, nodes: int = 3, config: IndexConfig | None = None) -> "TileStore":
        root = Path(root)
        if nodes < REPLICATION_FACTOR:
            raise ValidationError(f"need at least {REPLICATION_FACTOR} nodes, got {nodes}")
        if root.exists() and any(root.iterdir()):
            raise ValidationError(f"store root {root} exists and is not empty")
        store = cls(root, nodes, config or IndexConfig())
        for node in store.node_ids:
            (root / "nodes" / node).mkdir(parents=True)
        manifest = {"version": 1, "nodes": nodes}
        (root / cls.MANIFEST).write_text(json.dumps(manifest, separators=(",", ":")))
        (root / cls.CATALOG).touch()
        return store

    @classmethod
    def open(cls, root, *, config: IndexConfig | None = None) -> "TileStore":
        root = Path(root)
        manifest_path = root / cls.MANIFEST
        if not manifest_path.is_file():
            raise ValidationError(f"{root} is not a tile store (missing {cls.MANIFEST})")
        manifest = json.loads(manifest_path.read_text())
        store = cls(root, int(manifest["nodes"]), config or IndexConfig())
        data = (root / cls.CATALOG).read_bytes()
        committed = data[:data.rfind(b"\n") + 1]  # past it: an ingest that never committed
        for n, line in enumerate(committed.decode("utf-8").split("\n")[:-1], 1):
            line = line.strip()
            if not line:
                continue
            meta = _parse_meta_row(line, source=f"catalog row {n}")
            if meta.tile_id in store._by_id:
                raise CorruptionError(f"catalog row {n}: duplicate tile {meta.tile_id}")
            store._rows.append(meta)
            store._by_id[meta.tile_id] = meta
        return store

    # -- nodes ---------------------------------------------------------------

    def _node_dir(self, node_id: str) -> Path:
        if node_id not in self.node_ids:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        return self.root / "nodes" / node_id

    def node_alive(self, node_id: str) -> bool:
        return not (self._node_dir(node_id) / ".down").exists()

    def node_status(self) -> dict[str, bool]:
        return {node: self.node_alive(node) for node in self.node_ids}

    def fail_node(self, node_id: str) -> None:
        (self._node_dir(node_id) / ".down").touch()

    def restore_node(self, node_id: str) -> None:
        marker = self._node_dir(node_id) / ".down"
        if marker.exists():
            marker.unlink()

    def live_nodes(self) -> list[str]:
        return [node for node in self.node_ids if self.node_alive(node)]

    # -- ingest ---------------------------------------------------------------

    def ingest(self, scene: RasterScene) -> str:
        tile_id = scene.tile_id
        if tile_id in self._by_id:
            raise DuplicateTileError(
                f"tile {tile_id} (same bbox, capture_time, satellite) already ingested"
            )
        live = self.live_nodes()
        if len(live) < REPLICATION_FACTOR:
            raise ReplicationError(
                f"replication needs {REPLICATION_FACTOR} live nodes, have {len(live)}"
            )
        start = len(self._rows)
        placement = [live[(start + j) % len(live)] for j in range(REPLICATION_FACTOR)]

        blobs = {label: formats.pack_band(grid) for label, grid in scene.bands}
        checksums = {label: hashlib.sha256(blob).hexdigest() for label, blob in blobs.items()}
        meta = TileMetadata(
            tile_id=tile_id,
            bbox=scene.bbox,
            capture_time=scene.capture_time,
            satellite=scene.satellite,
            band_labels=scene.band_labels,
            shape=(scene.rows, scene.cols),
            checksums=checksums,
        )
        rel = tile_dir(meta)
        for node in placement:
            base = self._node_dir(node) / rel
            base.mkdir(parents=True, exist_ok=True)
            for label, blob in blobs.items():
                (base / f"{label}.band").write_bytes(blob)
        with open(self.root / self.CATALOG, "r+b") as fh:
            size = fh.seek(0, os.SEEK_END)
            committed = _committed_end(fh, size)
            if committed < size:  # a torn row of an ingest that never committed
                fh.truncate(committed)
            fh.seek(committed)
            fh.write((_meta_row(meta) + "\n").encode("utf-8"))  # the commit
        self._rows.append(meta)
        self._by_id[tile_id] = meta
        self._holders[tile_id] = rel, tuple(node for node in self.node_ids if node in placement)
        return tile_id

    # -- catalog ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def metadata(self, tile_id: str) -> TileMetadata:
        try:
            return self._by_id[tile_id]
        except KeyError:
            raise ValidationError(f"unknown tile {tile_id!r}") from None

    def catalog_rows(self) -> list[TileMetadata]:
        return list(self._rows)

    def entries(self) -> list[IndexEntry]:
        return [meta.entry() for meta in self._rows]

    def catalog_select(
        self,
        bbox: BoundingBox,
        trange: TimeRange,
        satellite: str | None = None,
    ) -> list[TileMetadata]:
        hits = [
            meta
            for meta in self._rows
            if intersects(meta.bbox, bbox)
            and overlaps_time(TimeRange(meta.capture_time, meta.capture_time), trange)
            and (satellite is None or meta.satellite == satellite)
        ]
        hits.sort(key=lambda m: (m.capture_time, m.tile_id))
        return hits

    # -- reads -----------------------------------------------------------------

    def _locate(self, tile_id: str) -> tuple[str, tuple[str, ...]]:
        """Probe every node for the tile's directory; (directory, holders).
        Kept only when some node holds the tile: a tile no node holds is
        probed again on its next read."""
        rel = tile_dir(self.metadata(tile_id))
        holders = tuple(
            node for node in self.node_ids if os.path.isdir(self._node_roots[node] + rel)
        )
        if holders:
            self._holders[tile_id] = rel, holders
        return rel, holders

    def placement(self, tile_id: str) -> list[str]:
        """Nodes holding this tile, in node (= failover) order."""
        return list((self._holders.get(tile_id) or self._locate(tile_id))[1])

    def fetch_band(
        self,
        tile_id: str,
        band_label: str,
        *,
        live: Collection[str] | None = None,
        into: np.ndarray | None = None,
    ) -> BandGrid:
        """One band from the first live replica whose bytes match the catalog's
        SHA-256. live: the nodes to treat as up; None reads each holder's
        .down marker. into: a band_buffer to read the file into; the grid is
        then a view of it, valid until the caller writes the buffer again. A
        file longer than into goes to a fresh buffer. Without into, every
        call reads into a fresh buffer, so no two results share memory."""
        meta = self.metadata(tile_id)
        if band_label not in meta.band_labels:
            raise ValidationError(f"tile {tile_id} has no band {band_label!r}")
        tile_rel, holders = self._holders.get(tile_id) or self._locate(tile_id)
        rel = f"{tile_rel}/{band_label}.band"
        expected = meta.checksums[band_label]
        tried: list[str] = []
        corrupt: list[str] = []
        for attempt in range(2):
            for node in holders:
                if node in tried or not (
                    self.node_alive(node) if live is None else node in live
                ):
                    continue
                tried.append(node)
                try:
                    with open(self._node_roots[node] + rel, "rb", buffering=0) as fh:
                        blob = _read_whole(fh, into)
                except FileNotFoundError:
                    if attempt == 0:
                        break  # the kept placement is stale: look it up again
                    continue
                if hashlib.sha256(blob).hexdigest() == expected:
                    values = formats.unpack_band(blob, source=rel)
                    if values.shape != meta.shape:  # the same bytes on every replica
                        raise CorruptionError(
                            f"{tile_id}/{band_label}: band is {values.shape[0]} x "
                            f"{values.shape[1]} pixels, the catalog says "
                            f"{meta.shape[0]} x {meta.shape[1]}"
                        )
                    return BandGrid._trusted(band_label, values)
                corrupt.append(node)
            else:
                break
            _, holders = self._locate(tile_id)
        if corrupt:
            raise CorruptionError(
                f"checksum mismatch for {tile_id}/{band_label} on {', '.join(corrupt)}"
            )
        raise UnavailableError(
            f"no live replica for tile {tile_id} ({len(holders)} holders, {len(tried)} readable)"
        )

    # -- scene files -------------------------------------------------------------

    def ingest_scene_file(self, path) -> str:
        bands, meta = formats.load_scene_npz(path)
        order = meta.get("band_order") or sorted(bands)
        scene = RasterScene(
            bbox=BoundingBox(
                meta["min_lon"], meta["max_lon"], meta["min_lat"], meta["max_lat"]
            ),
            capture_time=int(meta["capture_time"]),
            satellite=meta["satellite"],
            bands=tuple((label, bands[label]) for label in order),
        )
        return self.ingest(scene)
