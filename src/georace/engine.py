"""End-to-end query execution: race the indexes, fetch bands, build the mosaic.

The racing multi-index answers "which tiles" (that is the system's point);
the catalog is the satellite-filter authority and, in verification mode,
an independent cross-check of the race result. Every band of every selected
tile is read and verified, even a tile the mosaic will not show. The fetch
runs on every CPU the process may use: the calling thread and the system's
persistent helper threads (one fewer than those CPUs) take tiles from one
shared sequence, each fetching a tile's NIR band, then its Red band, and the
results are kept in catalog order (capture time, then tile id). A failure is
kept with its tile, and the one of the earliest tile is raised, as a loop over
the tiles would raise it. Helpers join in only when one band holds at least
PARALLEL_FETCH_MIN_BAND_BYTES; with smaller bands, handing the interpreter
lock between threads costs more than the second CPU saves, and the calling
thread fetches every tile alone. bandmath.index_mosaic then computes the
vegetation index only over the pixels that reach the mosaic: each tile's
overlap with the query box, and only for tiles that newer captures do not
cover entirely. Node liveness is read once per query, before the first
fetch, and a query box whose mosaic would exceed
bandmath.MAX_MOSAIC_PIXELS is refused before the race.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
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
FETCH_THREAD_PREFIX = "georace-fetch"
# Below this band size a helper thread made the fetch slower on a 2-vCPU host:
# 8 px and 64 px bands took up to 2.5x as long, 128 px about as long.
PARALLEL_FETCH_MIN_BAND_BYTES = 128 * 1024


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
        # the pool starts its threads on first use, so forks made before the
        # first parallel fetch (index build, race workers) copy none of them
        self.fetch_helpers = len(os.sched_getaffinity(0)) - 1
        self.fetch_pool = (
            ThreadPoolExecutor(self.fetch_helpers, thread_name_prefix=FETCH_THREAD_PREFIX)
            if self.fetch_helpers > 0
            else None
        )
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
        try:
            self.runner.close()
        finally:
            if self.fetch_pool is not None:
                self.fetch_pool.shutdown(cancel_futures=True)

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
    fetched = _fetch(system, metas)
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


def _fetch(system: System, metas: list) -> list:
    """(meta, NIR, Red) of every tile, in the order of metas."""
    store = system.store
    live = frozenset(store.live_nodes())
    slots: list = [None] * len(metas)
    positions = iter(range(len(metas)))  # next() on a range iterator is atomic

    def drain() -> None:
        for i in positions:
            tile_id = metas[i].tile_id
            try:
                slots[i] = (metas[i], store.fetch_band(tile_id, NIR_BAND, live=live),
                            store.fetch_band(tile_id, RED_BAND, live=live))
            except Exception as exc:  # raised by the caller, in catalog order
                slots[i] = exc
                break  # tiles after this one cannot change which error is raised

    helpers = 0
    if len(metas) > 1 and system.fetch_pool is not None:
        bbox, pixel = metas[0].bbox, system.pixel_size_deg
        band_bytes = 4 * round(bbox.width / pixel) * round(bbox.height / pixel)
        if band_bytes >= PARALLEL_FETCH_MIN_BAND_BYTES:
            helpers = min(system.fetch_helpers, len(metas) - 1)
    futures = []
    try:
        for _ in range(helpers):
            futures.append(system.fetch_pool.submit(drain))
        drain()
    finally:
        # a helper still queued (behind another query's) is cancelled, never awaited
        for future in futures:
            if not future.cancel():
                future.result()
    for slot in slots:
        if isinstance(slot, Exception):
            raise slot
    return slots


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
