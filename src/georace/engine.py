"""End-to-end query execution: race the indexes, fetch bands, build the mosaic.

The racing multi-index answers "which tiles" (that is the system's point);
the catalog is the satellite-filter authority and, in verification mode,
an independent cross-check of the race result. Every band of every selected
tile is read and verified once, even a tile the mosaic will not show.

Each tile is done in one step, while its bands are still in cache: read and
SHA-256-verify its NIR, then its Red band, into two aligned buffers that the
thread reuses for every tile it takes; run the band math on the tile's crop
into the float canvas (bandmath._paint_index); and quantize that window into
the pixels of the reply's PGM (render.to_bytes_grid). The calling thread and
the system's persistent helper threads (one fewer than the CPUs the process
may use) take tiles from one shared sequence. This holds when the query's
largest band holds at least PARALLEL_FETCH_MIN_BAND_BYTES. With smaller bands,
handing the interpreter lock between threads costs more than the second CPU
saves, so the calling thread does every tile alone, and it quantizes the
canvas once at the end, since many small windows cost more to quantize than
one canvas. A canvas no tile paints is not quantized: its blank PGM already
holds the no-data byte everywhere.

The band math needs a plan, which the calling thread makes while the helpers
read and verify their first tiles: bandmath._layout lays the tiles out from
their catalog rows (footprint and band shape) and gives each tile that
reaches the mosaic the canvas pixels it owns. As every pixel has one owner,
tiles can be done in any order. The plan is exact: the store refuses a band
whose shape is not the one its catalog row records.

A fetch failure is kept with its tile, and the one of the earliest tile in
catalog order (capture time, then tile id) is raised, as a loop over the
tiles would raise it. When the tiles cannot be laid out (they disagree on
pixel size, or their mosaic would be too large at their own pixel size),
every tile is still read and verified, and nothing is painted: the earliest
fetch failure is raised, or else the layout's ValidationError. So each query
takes one path, and the reply or error is the one that a loop fetching every
tile and then assembling the mosaic gives. Node liveness is read once per
query, before the first fetch, and a query box whose mosaic would exceed
bandmath.MAX_MOSAIC_PIXELS at the store's pixel size is refused before the
race.

Timings: compute runs from the start of the per-tile steps until the plan is
made, fetch from then until the image is done, so together they are the wall
time of building the mosaic and its image.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .bandmath import InfoKind, Mosaic, _canvas, _layout, _paint_index, mosaic_shape
from .errors import IndexMismatchError, ValidationError
from .formats import HEADER_SIZE
from .geo import BoundingBox, TimeRange
from .indexes import IndexConfig
from .multi_index import MultiIndex, build_all
from .racing import RaceConfig, RaceOutcome, RaceRunner
from .render import blank_pgm, to_bytes_grid
from .store import TileStore, band_buffer

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
    """Per-stage wall seconds; total is the outer clock around all stages.

    compute is the time until the query's plan is made, while the first
    tiles are read; fetch is the rest of the per-tile steps (read, verify,
    band math and quantize into the PGM, on every thread), and for small
    tiles the quantization of the canvas."""

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
    pgm: memoryview  # read-only; the same bytes as render_pgm(mosaic, query.info)
    race: RaceOutcome
    timings: StageTimings
    tile_count: int
    tile_ids: tuple[str, ...]


@dataclass(frozen=True)
class SystemConfig:
    """Index, race and mosaic settings of an opened system.

    build_executor is accepted and not read (build_all builds in the calling
    process); it goes with build_all(executor=) at the next change to the
    benchmark, which still passes it.
    """

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
        # the pool starts its threads on first use, so race workers forked
        # before the first parallel fetch copy none of them
        self.fetch_helpers = len(os.sched_getaffinity(0)) - 1
        self.fetch_pool = (
            ThreadPoolExecutor(self.fetch_helpers, thread_name_prefix=FETCH_THREAD_PREFIX)
            if self.fetch_helpers > 0
            else None
        )
        rows = store.catalog_rows()
        self.pixel_size_deg = (
            rows[0].bbox.width / rows[0].shape[1] if rows else config.default_pixel_size_deg
        )

    @classmethod
    def open(cls, store_root, config: SystemConfig | None = None) -> "System":
        config = config or SystemConfig()
        store = TileStore.open(store_root, config=config.index)
        multi = build_all(store.entries(), config=config.index)
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
    live = frozenset(system.store.live_nodes())
    mosaic, pgm, t_compute = _build(system, q, metas, live)
    t_fetch = time.perf_counter() - t0 - t_compute

    timings = StageTimings(
        index=t_index,
        select=t_select,
        fetch=t_fetch,
        compute=t_compute,
        total=time.perf_counter() - t_total,
    )
    return QueryResult(
        mosaic=mosaic,
        pgm=pgm,
        race=outcome,
        timings=timings,
        tile_count=len(metas),
        tile_ids=tuple(m.tile_id for m in metas),
    )


def _build(system: System, q: Query, metas: list, live: frozenset):
    """Every tile's step, on the caller and the helpers. Returns the mosaic,
    its PGM and the seconds the caller took to plan."""
    store, kind, px = system.store, q.info, system.pixel_size_deg
    t0 = time.perf_counter()
    band_bytes = max((4 * math.prod(m.shape) for m in metas), default=0)
    planned = threading.Event()
    owned = {}  # tile position -> (canvas window, tile window, mask), once planned
    failures: list = [None] * len(metas)  # each tile's fetch error
    positions = iter(range(len(metas)))  # next() on a range iterator is atomic

    def drain() -> None:
        nir_buf = band_buffer(HEADER_SIZE + band_bytes)
        red_buf = band_buffer(HEADER_SIZE + band_bytes)
        for i in positions:
            tile_id = metas[i].tile_id
            try:
                nir = store.fetch_band(tile_id, NIR_BAND, live=live, into=nir_buf).values
                red = store.fetch_band(tile_id, RED_BAND, live=live, into=red_buf).values
            except Exception as exc:  # raised by the caller, in catalog order
                failures[i] = exc
                break  # tiles after this one cannot change which error is raised
            planned.wait()
            if i in owned:
                dst, src, mask = owned[i]
                window = _paint_index(kind, nir, red, canvas, dst, src, mask)
                if large:
                    where = True if mask is None else mask
                    to_bytes_grid(window, kind, out=pixels[dst], where=where)

    # Large tiles are shared with the helpers and quantized window by window,
    # as soon as computed and while in cache, so no pixel without data is
    # quantized; small ones, once over the whole canvas at the end, as a small
    # window costs more per pixel (64 px: 5.8 ns against 3.9 ns).
    large = band_bytes >= PARALLEL_FETCH_MIN_BAND_BYTES
    helpers = 0
    if large and len(metas) > 1 and system.fetch_pool is not None:
        helpers = min(system.fetch_helpers, len(metas) - 1)
    futures = []
    unplanned = None  # the layout's error: every tile is read, none painted
    try:
        for _ in range(helpers):
            futures.append(system.fetch_pool.submit(drain))
        # the helpers fetch and verify their first tiles while the caller plans
        try:
            layout = _layout([(m, m.shape) for m in metas], q.bbox, None if metas else px)
        except ValidationError as exc:
            unplanned = exc
        else:
            canvas = _canvas(layout)
            pgm, pixels = blank_pgm(layout.shape)
            owned = {i: (dst, src, mask) for i, dst, src, mask in layout.paint}
        t_plan = time.perf_counter() - t0
        planned.set()
        drain()
    finally:
        planned.set()
        # a helper still queued (behind another query's) is cancelled, never awaited
        for future in futures:
            if not future.cancel():
                future.result()
    for failure in failures:
        if failure is not None:
            raise failure
    if unplanned is not None:
        raise unplanned
    if not large and layout.paint:  # a canvas nothing was painted on is all no-data bytes
        to_bytes_grid(canvas, kind, out=pixels)
    mosaic = Mosaic._adopt(q.bbox, canvas, layout.pixel_size_deg, layout.provenance)
    return mosaic, memoryview(pgm).toreadonly(), t_plan

