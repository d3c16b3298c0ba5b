"""Replicated tile store: ingest, catalog, coordinate-tree layout, failover.

Storage nodes are directories under <root>/nodes/, each holding a full
replica tree; a node is "down" while a .down marker file exists in it, so
failure injected by another process is seen by the next read that checks.
Every tile is written to 3 distinct nodes chosen round-robin over the live
nodes in ingest order.

Layout per node:   lon_<FFF>/lat_<FFF>/<YYYY>/<tile_id>/<band>.band
                   lon_<FFF>/lat_<FFF>/<YYYY>/<tile_id>/meta.json
Catalog:           <root>/catalog.ndjson (one JSON object per tile, same
                   keys as meta.json, insertion order = ingest order)

Replica placement is not persisted separately. The nodes holding a tile are
found by probing the node directories, in node order, which is also the
failover order for reads. Tiles never move after ingest, so each tile's
nodes are looked up once, on its first read, and kept; ingest records them
directly and open probes nothing. A replica file that has gone missing makes
the read look that tile's nodes up again, once, before it fails over.

Liveness is read from the .down markers once per call of fetch_band, or once
per query when the engine passes the live nodes in. A read verifies the band
bytes against their SHA-256 in the catalog; a replica that does not match is
skipped for the next live one, and CorruptionError, naming every bad node,
is raised only when no live replica verifies. Verified bytes are decoded
without a copy: the BandGrid is a read-only view of them.

The query engine calls fetch_band from several threads at once, one tile
per thread. Its only write to shared state is the single dict assignment
that keeps a tile's looked-up nodes in _holders; two threads looking up the
same tile store the same tuple.
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
from .geohash import encode as geohash_encode
from .indexes import IndexConfig, IndexEntry

REPLICATION_FACTOR = 3
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
    "geohash",
    "quadtree_path",
    "grid_row",
    "grid_col",
    "checksums",
)


@dataclass(frozen=True)
class IndexKeys:
    """Per-tile index keys precomputed at ingest, recomputable from the bbox."""

    geohash: str
    quadtree_path: str
    grid_row: int
    grid_col: int


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
        writeable array may share their memory (verified immutable bytes, or
        a fresh result no one else holds)."""
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
    index_keys: IndexKeys
    checksums: dict[str, str]

    def entry(self) -> IndexEntry:
        return IndexEntry(
            self.tile_id, self.bbox, TimeRange(self.capture_time, self.capture_time)
        )


def quadtree_path(bbox: BoundingBox, max_depth: int) -> str:
    """Concatenated NW/NE/SW/SE tokens of the deepest quadrant chain fully
    containing the bbox; "" when the world root is the only container."""
    lo_x, hi_x, lo_y, hi_y = -180.0, 180.0, -90.0, 90.0
    path: list[str] = []
    while len(path) < max_depth:
        mid_x = (lo_x + hi_x) / 2.0
        mid_y = (lo_y + hi_y) / 2.0
        quads = (
            ("NW", lo_x, mid_x, mid_y, hi_y),
            ("NE", mid_x, hi_x, mid_y, hi_y),
            ("SW", lo_x, mid_x, lo_y, mid_y),
            ("SE", mid_x, hi_x, lo_y, mid_y),
        )
        for name, qlo_x, qhi_x, qlo_y, qhi_y in quads:
            if (
                qlo_x <= bbox.min_lon
                and bbox.max_lon <= qhi_x
                and qlo_y <= bbox.min_lat
                and bbox.max_lat <= qhi_y
            ):
                path.append(name)
                lo_x, hi_x, lo_y, hi_y = qlo_x, qhi_x, qlo_y, qhi_y
                break
        else:
            break
    return "".join(path)


def compute_index_keys(bbox: BoundingBox, config: IndexConfig | None = None) -> IndexKeys:
    """Index keys for a tile footprint: geohash and grid cell use the center."""
    config = config or IndexConfig()
    center = bbox.center()
    cell = config.grid_cell_deg
    n_cols = math.ceil(360.0 / cell)
    n_rows = math.ceil(180.0 / cell)
    col = min(max(int(math.floor((center.lon + 180.0) / cell)), 0), n_cols - 1)
    row = min(max(int(math.floor((90.0 - center.lat) / cell)), 0), n_rows - 1)
    return IndexKeys(
        geohash=geohash_encode(center, config.geohash_precision),
        quadtree_path=quadtree_path(bbox, config.quad_max_depth),
        grid_row=row,
        grid_col=col,
    )


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
        "geohash": meta.index_keys.geohash,
        "quadtree_path": meta.index_keys.quadtree_path,
        "grid_row": meta.index_keys.grid_row,
        "grid_col": meta.index_keys.grid_col,
        "checksums": {label: meta.checksums[label] for label in meta.band_labels},
    }
    return json.dumps(doc, separators=(",", ":"))


def _parse_meta_row(line: str, config: IndexConfig, *, source: str) -> TileMetadata:
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise CorruptionError(f"{source}: unparseable row: {exc}") from exc
    missing = [k for k in _META_KEYS if k not in doc]
    if missing:
        raise CorruptionError(f"{source}: row missing keys {missing}")
    bbox = BoundingBox(doc["min_lon"], doc["max_lon"], doc["min_lat"], doc["max_lat"])
    keys = IndexKeys(doc["geohash"], doc["quadtree_path"], doc["grid_row"], doc["grid_col"])
    meta = TileMetadata(
        tile_id=doc["tile_id"],
        bbox=bbox,
        capture_time=int(doc["capture_time"]),
        satellite=doc["satellite"],
        band_labels=tuple(doc["bands"]),
        index_keys=keys,
        checksums=dict(doc["checksums"]),
    )
    expected = compute_index_keys(bbox, config)
    if keys != expected:
        raise CorruptionError(
            f"{source}: tile {meta.tile_id}: stored index keys {keys} "
            f"disagree with bbox-derived {expected}"
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
        self._holders: dict[str, tuple[str, ...]] = {}

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
        with open(root / cls.CATALOG, "r", encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                meta = _parse_meta_row(line, store.config, source=f"catalog row {n}")
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
            index_keys=compute_index_keys(scene.bbox, self.config),
            checksums=checksums,
        )
        row = _meta_row(meta)
        rel = tile_dir(meta)
        for node in placement:
            base = self._node_dir(node) / rel
            base.mkdir(parents=True, exist_ok=True)
            for label, blob in blobs.items():
                (base / f"{label}.band").write_bytes(blob)
            (base / "meta.json").write_text(row + "\n", encoding="utf-8")
        with open(self.root / self.CATALOG, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        self._rows.append(meta)
        self._by_id[tile_id] = meta
        self._holders[tile_id] = tuple(node for node in self.node_ids if node in placement)
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

    def _locate(self, tile_id: str) -> tuple[str, ...]:
        """Probe every node for the tile's directory and keep the result."""
        rel = tile_dir(self.metadata(tile_id))
        holders = tuple(
            node for node in self.node_ids if os.path.isdir(self._node_roots[node] + rel)
        )
        self._holders[tile_id] = holders
        return holders

    def placement(self, tile_id: str) -> list[str]:
        """Nodes holding this tile, in node (= failover) order."""
        return list(self._holders.get(tile_id) or self._locate(tile_id))

    def fetch_band(
        self, tile_id: str, band_label: str, *, live: Collection[str] | None = None
    ) -> BandGrid:
        """One band from the first live replica whose bytes match the catalog's
        SHA-256. live: the nodes to treat as up; None reads each holder's
        .down marker."""
        meta = self.metadata(tile_id)
        if band_label not in meta.band_labels:
            raise ValidationError(f"tile {tile_id} has no band {band_label!r}")
        rel = tile_path(meta, band_label)
        expected = meta.checksums[band_label]
        holders = self._holders.get(tile_id) or self._locate(tile_id)
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
                    with open(self._node_roots[node] + rel, "rb") as fh:
                        blob = fh.read()
                except FileNotFoundError:
                    if attempt == 0:
                        break  # the kept placement is stale: look it up again
                    continue
                if hashlib.sha256(blob).hexdigest() == expected:
                    return BandGrid._trusted(band_label, formats.unpack_band(blob, source=rel))
                corrupt.append(node)
            else:
                break
            holders = self._locate(tile_id)
        if corrupt:
            raise CorruptionError(
                f"checksum mismatch for {tile_id}/{band_label} on {', '.join(corrupt)}"
            )
        raise UnavailableError(
            f"no live replica for tile {tile_id} ({len(holders)} holders, {len(tried)} readable)"
        )

    def band_dims(self, tile_id: str) -> tuple[int, int]:
        """(rows, cols) of a tile's bands from the first live replica header."""
        meta = self.metadata(tile_id)
        rel = tile_path(meta, meta.band_labels[0])
        for node in self.placement(tile_id):
            if self.node_alive(node):
                return formats.read_band_dims(self._node_roots[node] + rel)
        raise UnavailableError(f"no live replica for tile {tile_id}")

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
