"""Workloads, their seeded inputs, and the independent answers they are checked against.

Every coordinate is kept in whole pixels of the corpus grid and turned into
degrees only for the request. The tile edge (0.25 degrees) divided by each
tile size used here (8, 64, 256 px) is a power of two, so every pixel edge is
exact in float64 and the service's closed-interval tests see the same
touching boundaries as the integer scan below.

The reference answers follow the service's published rules, written out
here from scratch rather than imported:

* selection: closed intervals on box and time, the optional satellite
  filter, order by (capture_time, tile_id);
* band math: NDVI = (NIR-Red)/(NIR+Red), RVI = NIR/Red, DVI = NIR-Red in
  float32; a pixel is no-data when an input is NaN or negative, the
  denominator is zero, or the result is not finite;
* mosaic: north-up canvas of the query box, tiles painted oldest first so
  the newest capture wins, uncovered pixels no-data;
* display: clip((v - lo) / (hi - lo), 0, 1) * 254 rounded, plus 1; no-data
  is byte 0; NDVI and DVI over [-1, 1], RVI over [0, 10].
"""

from __future__ import annotations

import base64
import dataclasses
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ORIGIN_LON = 100.0
ORIGIN_LAT = 20.0
EDGE_DEG = 0.25
T0 = 1_600_000_000
REVISIT_S = 86_400
SATELLITES = ("landsat8", "gaofen1")
INFOS = ("ndvi", "rvi", "dvi")
ALL_BANDS = (
    "CoastalAerosol", "Blue", "Green", "Red", "NIR",
    "SWIR1", "SWIR2", "Pan", "Cirrus", "TIRS1",
)
DISPLAY = {"ndvi": (-1.0, 1.0), "rvi": (0.0, 10.0), "dvi": (-1.0, 1.0)}
REPLICAS = 3
_BAND_HEADER = struct.Struct("<4sHII")


@dataclass(frozen=True)
class Workload:
    name: str
    tiles: int
    size_px: int
    bands: tuple[str, ...]
    revisits: int
    nodata: float  # share of pixels that are NaN in every band
    box_tiles: tuple[float, float]  # query box edge, in tile edges
    window_s: tuple[int, int] | None  # few-second windows anchored on a capture in the box
    window_share: tuple[float, float] | None  # windows as a share of the corpus time span
    satellite_share: float  # share of queries that carry a satellite filter
    queries_per_round: int


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse_search",
            tiles=1600, size_px=8, bands=("NIR", "Red"), revisits=8, nodata=0.0,
            box_tiles=(8.0, 24.0), window_s=(1, 3), window_share=None,
            satellite_share=0.0, queries_per_round=96,
        ),
        Workload(
            name="dense_mosaic",
            tiles=200, size_px=256, bands=("NIR", "Red"), revisits=4, nodata=0.03,
            box_tiles=(1.0, 4.0), window_s=None, window_share=(0.1, 1.0),
            satellite_share=0.25, queries_per_round=96,
        ),
        Workload(
            name="ingest",
            tiles=400, size_px=64, bands=ALL_BANDS, revisits=4, nodata=0.0,
            box_tiles=(1.0, 4.0), window_s=None, window_share=(0.1, 1.0),
            satellite_share=0.25, queries_per_round=96,
        ),
    )
}


@dataclass
class Corpus:
    """Seeded tiles on a footprint grid; tile i revisits footprint i % footprints."""

    workload: Workload
    cols: int
    rows: int
    x0: np.ndarray  # pixel column of each tile's west edge
    y0: np.ndarray  # pixel row (counted northwards) of each tile's south edge
    capture: np.ndarray
    satellite: np.ndarray
    pixels: list[dict[str, np.ndarray]]
    ids: list[str | None] = field(default_factory=list)  # filled in by ingest

    @property
    def size(self) -> int:
        return self.workload.size_px

    @property
    def px_deg(self) -> float:
        return EDGE_DEG / self.size

    def __len__(self) -> int:
        return len(self.capture)

    def bbox_deg(self, i: int) -> tuple[float, float, float, float]:
        return self.box_deg(int(self.x0[i]), int(self.y0[i]), self.size, self.size)

    def box_deg(self, x: int, y: int, w: int, h: int) -> tuple[float, float, float, float]:
        px = self.px_deg
        return (ORIGIN_LON + x * px, ORIGIN_LON + (x + w) * px,
                ORIGIN_LAT + y * px, ORIGIN_LAT + (y + h) * px)

    def pixel_bytes(self) -> int:
        return sum(grid.nbytes for tile in self.pixels for grid in tile.values())


def make_corpus(w: Workload, seed: int) -> Corpus:
    rng = np.random.default_rng([seed, 1])
    footprints = math.ceil(w.tiles / w.revisits)
    cols = math.ceil(math.sqrt(footprints))
    rows = math.ceil(footprints / cols)
    i = np.arange(w.tiles)
    fp = i % footprints
    capture = T0 + (i // footprints) * REVISIT_S + fp
    satellite = np.array(SATELLITES)[rng.integers(0, len(SATELLITES), w.tiles)]
    shape = (w.size_px, w.size_px)
    pixels = []
    for _ in range(w.tiles):
        tile = {}
        for label in w.bands:
            if label == "NIR":
                grid = rng.uniform(0.2, 0.9, shape)
            elif label == "Red":
                grid = rng.uniform(0.05, 0.6, shape)
            else:
                grid = rng.uniform(0.0, 1.0, shape)
            tile[label] = grid.astype(np.float32)
        if w.nodata > 0.0:
            # every no-data rule gets pixels: NaN, negative reflectance, zero denominator
            u = rng.random(shape)
            nan = u < w.nodata
            tile["Red"][(u >= w.nodata) & (u < w.nodata * 1.1)] = -0.01
            zero = (u >= w.nodata * 1.1) & (u < w.nodata * 1.2)
            tile["Red"][zero] = 0.0
            tile["NIR"][zero] = 0.0
            for grid in tile.values():
                grid[nan] = np.nan
        pixels.append(tile)
    return Corpus(
        workload=w, cols=cols, rows=rows,
        x0=(fp % cols) * w.size_px, y0=(fp // cols) * w.size_px,
        capture=capture, satellite=satellite, pixels=pixels, ids=[None] * w.tiles,
    )


@dataclass(frozen=True)
class Query:
    """A query box in corpus pixels, a closed time window, the index to compute."""

    x: int
    y: int
    w: int
    h: int
    t0: int
    t1: int
    info: str
    satellite: str | None

    def body(self, corpus: Corpus) -> dict:
        min_lon, max_lon, min_lat, max_lat = corpus.box_deg(self.x, self.y, self.w, self.h)
        doc = {
            "min_lon": min_lon, "max_lon": max_lon, "min_lat": min_lat, "max_lat": max_lat,
            "start_time": self.t0, "end_time": self.t1, "info": self.info,
        }
        if self.satellite is not None:
            doc["satellite"] = self.satellite
        return doc


POOL_FACTOR = 16


def make_queries(corpus: Corpus, seed: int) -> list[Query]:
    """One round of queries with the same spread of sizes for every seed.

    A pool of POOL_FACTOR times the round is drawn; sorted by (tiles hit,
    pixels), it is cut into as many equal strata as the round has queries,
    and one query is taken from each. So the round's quantiles of work per
    query, and with them the latency median and tail, do not hinge on a
    few draws.
    """
    w = corpus.workload
    n = w.queries_per_round
    rng = np.random.default_rng([seed, 2])
    pool = [_draw(corpus, rng) for _ in range(n * POOL_FACTOR)]
    pool.sort(key=lambda q: (int(_hits(corpus, q).sum()), q.w * q.h))
    picked = [pool[(j * POOL_FACTOR) + int(rng.integers(0, POOL_FACTOR))] for j in range(n)]
    picked = [dataclasses.replace(q, info=INFOS[k % len(INFOS)]) for k, q in enumerate(picked)]
    return [picked[k] for k in rng.permutation(n)]


def _draw(corpus: Corpus, rng) -> Query:
    w = corpus.workload
    s = corpus.size
    width, height = corpus.cols * s, corpus.rows * s
    bw = min(width, max(1, round(rng.uniform(*w.box_tiles) * s)))
    bh = min(height, max(1, round(rng.uniform(*w.box_tiles) * s)))
    x = int(rng.integers(0, width - bw + 1))
    y = int(rng.integers(0, height - bh + 1))
    if w.window_s is not None:
        col = min((x + int(rng.integers(0, bw))) // s, corpus.cols - 1)
        row = min((y + int(rng.integers(0, bh))) // s, corpus.rows - 1)
        anchor = T0 + int(rng.integers(0, w.revisits)) * REVISIT_S + row * corpus.cols + col
        length = int(rng.integers(w.window_s[0], w.window_s[1] + 1))
        t0 = anchor - int(rng.integers(0, length + 1))
    else:
        span0, span1 = T0, int(corpus.capture.max())
        length = max(1, round(rng.uniform(*w.window_share) * (span1 - span0)))
        t0 = int(rng.integers(span0, span1 - length + 1))
    satellite = None
    if rng.random() < w.satellite_share:
        satellite = SATELLITES[int(rng.integers(0, len(SATELLITES)))]
    return Query(x, y, bw, bh, t0, t0 + length, INFOS[0], satellite)


# -- independent answers -------------------------------------------------------


def _hits(corpus: Corpus, q: Query) -> np.ndarray:
    """Closed-interval scan of every generated tile against box, window and satellite."""
    s = corpus.size
    hit = (
        (corpus.x0 <= q.x + q.w) & (q.x <= corpus.x0 + s)
        & (corpus.y0 <= q.y + q.h) & (q.y <= corpus.y0 + s)
        & (corpus.capture >= q.t0) & (corpus.capture <= q.t1)
    )
    if q.satellite is not None:
        hit &= corpus.satellite == q.satellite
    return hit


def expected_order(corpus: Corpus, q: Query) -> list[int]:
    """Tiles the query must return, by a full scan, in (capture_time, tile_id) order."""
    hit = _hits(corpus, q) & np.array([tid is not None for tid in corpus.ids])
    return sorted(np.flatnonzero(hit).tolist(), key=lambda i: (int(corpus.capture[i]), corpus.ids[i]))


def vegetation_index(info: str, nir: np.ndarray, red: np.ndarray) -> np.ndarray:
    n = nir.astype(np.float32)
    r = red.astype(np.float32)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if info == "ndvi":
            out, zero = (n - r) / (n + r), (n + r) == 0
        elif info == "rvi":
            out, zero = n / r, r == 0
        else:
            out, zero = n - r, np.zeros(n.shape, bool)
    out = out.astype(np.float32)
    out[zero | np.isnan(n) | np.isnan(r) | (n < 0) | (r < 0) | ~np.isfinite(out)] = np.nan
    return out


def display_bytes(values: np.ndarray, info: str) -> np.ndarray:
    lo, hi = DISPLAY[info]
    v = values.astype(np.float64)
    out = np.zeros(v.shape, np.uint8)
    ok = ~np.isnan(v)
    out[ok] = (np.rint(np.clip((v[ok] - lo) / (hi - lo), 0.0, 1.0) * 254.0) + 1).astype(np.uint8)
    return out


def expected_pgm(corpus: Corpus, q: Query, order: list[int]) -> bytes:
    s = corpus.size
    canvas = np.full((q.h, q.w), np.nan, np.float32)
    top = q.y + q.h  # canvas row 0 is the northern edge
    for i in order:  # oldest first, so the newest capture is painted last
        r0 = top - (int(corpus.y0[i]) + s)
        c0 = int(corpus.x0[i]) - q.x
        rs, re = max(0, r0), min(q.h, r0 + s)
        cs, ce = max(0, c0), min(q.w, c0 + s)
        if rs >= re or cs >= ce:
            continue
        grid = vegetation_index(q.info, corpus.pixels[i]["NIR"], corpus.pixels[i]["Red"])
        canvas[rs:re, cs:ce] = grid[rs - r0:re - r0, cs - c0:ce - c0]
    return f"P5\n{q.w} {q.h}\n255\n".encode("ascii") + display_bytes(canvas, q.info).tobytes()


@dataclass(frozen=True)
class Expected:
    tile_ids: list[str]
    pgm: bytes


def expected_answer(corpus: Corpus, q: Query) -> Expected:
    order = expected_order(corpus, q)
    return Expected([corpus.ids[i] for i in order], expected_pgm(corpus, q, order))


def check_reply(doc: dict, expected: Expected) -> str | None:
    """None when a /v1/query reply matches the independent answer, else why not."""
    ids = doc.get("tile_ids")
    if ids != expected.tile_ids:
        return f"tile_ids {ids} != expected {expected.tile_ids}"
    if doc.get("tile_count") != len(expected.tile_ids):
        return f"tile_count {doc.get('tile_count')} != {len(expected.tile_ids)}"
    try:
        pgm = base64.b64decode(doc.get("image_b64", ""), validate=True)
    except ValueError as exc:
        return f"image_b64 does not decode: {exc}"
    return check_pgm(pgm, expected)


def check_pgm(pgm: bytes, expected: Expected) -> str | None:
    if pgm == expected.pgm:
        return None
    if len(pgm) != len(expected.pgm):
        return f"PGM is {len(pgm)} bytes, expected {len(expected.pgm)}"
    diff = np.flatnonzero(np.frombuffer(pgm, np.uint8) != np.frombuffer(expected.pgm, np.uint8))
    return f"PGM differs in {diff.size} bytes, first at offset {diff[0]}"


def check_replicas(store_root: Path, corpus: Corpus) -> list[str]:
    """Every band of every ingested tile must sit on three nodes, each byte-equal to the input.

    Replicas are found by walking the node trees, not through the store's own
    placement lookup; band files are decoded from the documented layout
    (magic "MIXR", u16 version 1, u32 rows, u32 cols, float32 little-endian).
    """
    found: dict[tuple[str, str], list[tuple[str, str]]] = {}
    nodes_dir = Path(store_root) / "nodes"
    for node in sorted(os.listdir(nodes_dir)):
        for dirpath, _, files in os.walk(nodes_dir / node):
            for name in files:
                if name.endswith(".band"):
                    key = (os.path.basename(dirpath), name[: -len(".band")])
                    found.setdefault(key, []).append((node, os.path.join(dirpath, name)))
    problems = []
    for i, tid in enumerate(corpus.ids):
        if tid is None:
            continue
        for label, grid in corpus.pixels[i].items():
            copies = found.pop((tid, label), [])
            nodes = {node for node, _ in copies}
            if len(copies) != REPLICAS or len(nodes) != REPLICAS:
                problems.append(f"{tid}/{label}: {len(copies)} copies on nodes {sorted(nodes)}")
            want = grid.astype("<f4").tobytes()
            for node, path in copies:
                with open(path, "rb") as fh:
                    blob = fh.read()
                problem = _band_problem(blob, grid.shape, want)
                if problem:
                    problems.append(f"{tid}/{label} on {node}: {problem}")
    problems.extend(f"{tid}/{label}: band file that was never ingested" for tid, label in found)
    return problems


def _band_problem(blob: bytes, shape: tuple[int, int], want: bytes) -> str | None:
    if len(blob) < _BAND_HEADER.size:
        return "truncated header"
    magic, version, rows, cols = _BAND_HEADER.unpack_from(blob)
    if (magic, version, (rows, cols)) != (b"MIXR", 1, shape):
        return f"header {magic!r} v{version} {rows}x{cols}"
    if blob[_BAND_HEADER.size:] != want:
        return "pixels differ from the ingested scene"
    return None
