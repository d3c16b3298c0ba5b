"""End-to-end query execution: race the indexes, fetch bands, build the mosaic.

The racing multi-index answers "which tiles" (that is the system's point);
the catalog is the satellite-filter authority and, in verification mode,
an independent cross-check of the race result. The selected tiles' bands
are fetched one tile after another, in catalog order (capture time, then
tile id), and every band of every selected tile is read and verified, even
a tile the mosaic will not show. bandmath.index_mosaic then computes the
vegetation index only over the pixels that reach the mosaic: each tile's
overlap with the query box, and only for tiles that newer captures do not
cover entirely. Node liveness is read once per query, before the first
fetch, and a query box whose mosaic would exceed
bandmath.MAX_MOSAIC_PIXELS is refused before the race.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bandmath import InfoKind, Mosaic, index_mosaic, mosaic_shape
from .errors import IndexMismatchError, ValidationError
from .geo import BoundingBox, TimeRange
from .indexes import IndexConfig
from .multi_index import MultiIndex, build_all
from .racing import RaceConfig, RaceOutcome, RaceRunner
from .store import TileStore

NIR_BAND = "NIR"
RED_BAND = "Red"


@dataclass(frozen=True)
class Query:
    """One user query: where, when, which index to compute."""

    bbox: BoundingBox
    time: TimeRange
    info: InfoKind
    satellite: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.info, InfoKind):
            object.__setattr__(self, "info", InfoKind.parse(self.info))
        if self.satellite is not None and not self.satellite:
            raise ValidationError("satellite filter, if present, must be non-empty")


@dataclass(frozen=True)
class StageTimings:
    """Per-stage wall seconds; total is the outer clock around all stages."""

    index: float
    select: float
    fetch: float
    compute: float
    total: float

    def as_millis(self) -> dict[str, float]:
        return {
            "index_ms": self.index * 1e3,
            "select_ms": self.select * 1e3,
            "fetch_ms": self.fetch * 1e3,
            "compute_ms": self.compute * 1e3,
            "total_ms": self.total * 1e3,
        }


@dataclass(frozen=True, eq=False)
class QueryResult:
    mosaic: Mosaic
    race: RaceOutcome
    timings: StageTimings
    tile_count: int
    tile_ids: tuple[str, ...]


@dataclass(frozen=True)
class SystemConfig:
    index: IndexConfig = field(default_factory=IndexConfig)
    race: RaceConfig = field(default_factory=RaceConfig)
    build_executor: str = "auto"
    default_pixel_size_deg: float = 0.25 / 256.0


class System:
    """An opened store with its multi-index and racing workers."""

    def __init__(self, store: TileStore, multi: MultiIndex, runner: RaceRunner, config: SystemConfig):
        self.store = store
        self.multi = multi
        self.runner = runner
        self.config = config
        self.pixel_size_deg = config.default_pixel_size_deg
        rows = store.catalog_rows()
        if rows:
            dims = store.band_dims(rows[0].tile_id)
            self.pixel_size_deg = rows[0].bbox.width / dims[1]

    @classmethod
    def open(cls, store_root, config: SystemConfig | None = None) -> "System":
        config = config or SystemConfig()
        store = TileStore.open(store_root, config=config.index)
        multi = build_all(
            store.entries(), config=config.index, executor=config.build_executor
        )
        runner = RaceRunner(multi.indexes, config=config.race)
        return cls(store, multi, runner, config)

    def close(self) -> None:
        self.runner.close()

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def execute_query(system: System, q: Query, *, verification: bool | None = None) -> QueryResult:
    t_total = time.perf_counter()
    mosaic_shape(q.bbox, system.pixel_size_deg)

    t0 = time.perf_counter()
    outcome = system.runner.query(q.bbox, q.time, verification=verification)
    t_index = time.perf_counter() - t0

    t0 = time.perf_counter()
    verification = system.config.race.verification if verification is None else verification
    if verification:
        catalog_ids = {m.tile_id for m in system.store.catalog_select(q.bbox, q.time)}
        if catalog_ids != set(outcome.result):
            raise IndexMismatchError(
                f"race result disagrees with catalog: "
                f"race-only={sorted(set(outcome.result) - catalog_ids)} "
                f"catalog-only={sorted(catalog_ids - set(outcome.result))}"
            )
    metas = [system.store.metadata(tid) for tid in outcome.result]
    if q.satellite is not None:
        metas = [m for m in metas if m.satellite == q.satellite]
    metas.sort(key=lambda m: (m.capture_time, m.tile_id))
    t_select = time.perf_counter() - t0

    t0 = time.perf_counter()
    store = system.store
    live = frozenset(store.live_nodes())
    fetched = [
        (meta, store.fetch_band(meta.tile_id, NIR_BAND, live=live),
         store.fetch_band(meta.tile_id, RED_BAND, live=live))
        for meta in metas
    ]
    t_fetch = time.perf_counter() - t0

    t0 = time.perf_counter()
    mosaic = index_mosaic(
        q.info, fetched, q.bbox, pixel_size_deg=None if fetched else system.pixel_size_deg
    )
    t_compute = time.perf_counter() - t0

    timings = StageTimings(
        index=t_index,
        select=t_select,
        fetch=t_fetch,
        compute=t_compute,
        total=time.perf_counter() - t_total,
    )
    return QueryResult(
        mosaic=mosaic,
        race=outcome,
        timings=timings,
        tile_count=len(metas),
        tile_ids=tuple(m.tile_id for m in metas),
    )


@dataclass
class BatchResult:
    results: list[QueryResult | None]
    errors: dict[int, str]
    elapsed_seconds: float


def batch_execute(system: System, queries: list[Query]) -> BatchResult:
    """Run queries one after another, collecting per-query errors."""
    results: list[QueryResult | None] = [None] * len(queries)
    errors: dict[int, str] = {}
    started = time.perf_counter()
    for i, q in enumerate(queries):
        try:
            results[i] = execute_query(system, q)
        except Exception as exc:
            errors[i] = f"{type(exc).__name__}: {exc}"
    return BatchResult(results, errors, time.perf_counter() - started)
