"""Replicated multi-index storage and racing query engine for tiled rasters.

Tiles (multi-band raster scenes with a footprint, capture time, and
satellite label) are stored 3-way replicated across simulated nodes and
registered in three spatial indexes at once — GeoHash buckets, a QuadTree,
and an orthogonal linked grid. Rectangular spatio-temporal queries race
all three over the replicas and take the first answer; band math (NDVI,
RVI, DVI) runs over the selected tiles and the results are mosaicked into
a query-shaped, north-up grid.
"""

from .bandmath import InfoKind, Mosaic, assemble_mosaic, compute_index
from .engine import (
    Query,
    QueryResult,
    StageTimings,
    System,
    SystemConfig,
    execute_query,
)
from .errors import (
    CorruptionError,
    DuplicateTileError,
    GeoRaceError,
    IndexBuildError,
    IndexMismatchError,
    QueryTimeoutError,
    ReplicationError,
    UnavailableError,
    UnknownNodeError,
    ValidationError,
)
from .geo import BoundingBox, GeoPoint, TimeRange, derive_tile_id
from .indexes import IndexConfig, IndexEntry, IndexKind, build_index
from .multi_index import MultiIndex, build_all
from .racing import RaceConfig, RaceOutcome, RaceRunner
from .store import BandGrid, RasterScene, TileMetadata, TileStore
from .synth import SceneSpec, WorkloadSpec, generate_scenes, write_scenes

__version__ = "0.1.0"

__all__ = [
    "BandGrid",
    "BoundingBox",
    "CorruptionError",
    "DuplicateTileError",
    "GeoPoint",
    "GeoRaceError",
    "IndexBuildError",
    "IndexConfig",
    "IndexEntry",
    "IndexKind",
    "IndexMismatchError",
    "InfoKind",
    "Mosaic",
    "MultiIndex",
    "Query",
    "QueryResult",
    "QueryTimeoutError",
    "RaceConfig",
    "RaceOutcome",
    "RaceRunner",
    "RasterScene",
    "ReplicationError",
    "SceneSpec",
    "StageTimings",
    "System",
    "SystemConfig",
    "TileMetadata",
    "TileStore",
    "TimeRange",
    "UnavailableError",
    "UnknownNodeError",
    "ValidationError",
    "WorkloadSpec",
    "assemble_mosaic",
    "build_all",
    "build_index",
    "compute_index",
    "derive_tile_id",
    "execute_query",
    "generate_scenes",
    "write_scenes",
]
