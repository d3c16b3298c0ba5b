"""Pixel-wise vegetation indices and geographic mosaic assembly.

All three indices need only the NIR and Red bands:

    NDVI = (NIR - Red) / (NIR + Red)
    RVI  = NIR / Red
    DVI  = NIR - Red

A pixel becomes no-data (NaN) when either input is no-data, either input is
a negative reflectance, or the denominator is zero, and when the result does
not fit in float32 (an RVI over a Red reflectance near zero overflows to
infinity). Grids are float32 throughout; no-data propagates as NaN.

Mosaics live on a north-up grid aligned to the query box: row 0 is the
northern edge, column 0 the western edge. Tiles are painted in catalog
order (capture_time, then tile_id, ascending), so on overlaps the newest
capture wins, ties resolved by tile_id. A mosaic of more than
MAX_MOSAIC_PIXELS pixels is refused before anything is allocated.

One layout step serves both mosaics and the query engine. It needs only
each tile's metadata and band shape, so the engine plans a query from the
catalog rows, which record both, before it reads a band. It checks that all tiles share one
square pixel size, finds each tile's overlap with the canvas, and walks the
tiles newest to oldest over a mask of claimed pixels: a tile that newer tiles
cover on every pixel of its overlap is not painted at all, and every other
tile owns the pixels of its overlap that no newer tile claimed, given as a
mask (None when it owns them all). Each canvas pixel has exactly one owner,
so tiles can be painted in any order, by several threads at once. The
provenance still names every tile with a positive-area overlap.
assemble_mosaic paints finished grids. _paint_index, the per-tile step of
the query path, runs the band-math kernel on one tile's overlap only and
writes the owned pixels straight into the canvas, so no pixel outside the
query box or under a newer tile reaches the canvas; the engine runs it from
every fetch thread. Elementwise math on a crop gives the same bits as the
same math on the whole tile, so the engine's mosaic is byte for byte
assemble_mosaic over compute_index of every tile.

Results are read-only: an index is computed into one fresh float32 array,
which its BandGrid wraps without a copy, and a Mosaic keeps its canvas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .geo import BoundingBox
from .store import BandGrid, TileMetadata

# 4096 x 4096: a 64 MiB float32 canvas (128 MiB more while it renders)
MAX_MOSAIC_PIXELS = 1 << 24


class InfoKind(Enum):
    NDVI = "ndvi"
    RVI = "rvi"
    DVI = "dvi"

    @classmethod
    def parse(cls, name: "InfoKind | str") -> "InfoKind":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValidationError(f"unknown info kind {name!r} (expected one of {valid})") from None


def _index_into(kind: InfoKind, n: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    """The band-math kernel: one index over float32 n and r, written into out."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind is InfoKind.RVI:
            np.divide(n, r, out=out)
        else:
            np.subtract(n, r, out=out)
            if kind is InfoKind.NDVI:
                out /= n + r
        # A NaN input, a zero denominator and a float32 overflow all leave a
        # non-finite value; a negative reflectance is the one case left to mask.
        bad = np.isfinite(out)
        np.logical_not(bad, out=bad)
        bad |= np.minimum(n, r) < 0.0
    out[bad] = np.nan


def compute_index(kind: InfoKind, nir: BandGrid, red: BandGrid) -> BandGrid:
    """One vegetation index, pixel-wise, dimensions preserved."""
    kind = InfoKind.parse(kind)
    if nir.values.shape != red.values.shape:
        raise ValidationError(
            f"band dimensions disagree: NIR {nir.values.shape} vs Red {red.values.shape}"
        )
    out = np.empty(nir.values.shape, dtype=np.float32)
    _index_into(kind, nir.values, red.values, out)
    return BandGrid._trusted(kind.value.upper(), out)


@dataclass(frozen=True, eq=False)
class Mosaic:
    """A query-shaped output grid assembled from tile results."""

    bbox: BoundingBox
    values: np.ndarray  # float32, NaN = no-data
    pixel_size_deg: float
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim != 2:
            raise ValidationError("mosaic grid must be 2-D")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.pixel_size_deg <= 0:
            raise ValidationError("pixel size must be positive")

    @classmethod
    def _adopt(
        cls, bbox: BoundingBox, canvas: np.ndarray, pixel_size_deg: float,
        provenance: tuple[str, ...],
    ) -> "Mosaic":
        """Take over a canvas this module painted, without a copy; no one
        else may keep a reference to it."""
        canvas.flags.writeable = False
        mosaic = object.__new__(cls)
        for name, value in (("bbox", bbox), ("values", canvas),
                            ("pixel_size_deg", pixel_size_deg), ("provenance", provenance)):
            object.__setattr__(mosaic, name, value)
        return mosaic

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def no_data(self) -> np.ndarray:
        return np.isnan(self.values)


def mosaic_shape(bbox: BoundingBox, pixel_size_deg: float) -> tuple[int, int]:
    """(rows, cols) of the mosaic over bbox; ValidationError above
    MAX_MOSAIC_PIXELS."""
    if pixel_size_deg <= 0:
        raise ValidationError("pixel size must be positive")
    rows = max(1, round(bbox.height / pixel_size_deg))
    cols = max(1, round(bbox.width / pixel_size_deg))
    if rows * cols > MAX_MOSAIC_PIXELS:
        raise ValidationError(
            f"query box needs a {rows} x {cols} pixel mosaic, above the limit of "
            f"{MAX_MOSAIC_PIXELS} pixels; narrow the box"
        )
    return rows, cols


def _canvas(layout: "_Layout") -> np.ndarray:
    """The float canvas of a layout, NaN (no-data) on every pixel no tile
    owns. A canvas the tiles own whole is left unwritten for them to paint.
    One with a gap is NaN-filled whole, and the owners overwrite their
    pixels: a fill masked to the gaps took 1.1-4 times as long as a plain
    fill of the canvas."""
    if layout.gaps is None:
        return np.empty(layout.shape, dtype=np.float32)
    return np.full(layout.shape, np.nan, dtype=np.float32)


@dataclass(frozen=True)
class _Layout:
    """Where each tile lands on the canvas, and which tiles keep a pixel."""

    pixel_size_deg: float
    shape: tuple[int, int]
    provenance: tuple[str, ...]  # every tile with a positive-area overlap, in paint order
    # (position in the input, canvas window, tile window, ownership mask over
    # the window or None for all of it) of each tile that keeps at least one
    # pixel, in catalog order
    paint: tuple[tuple[int, tuple[slice, slice], tuple[slice, slice], np.ndarray | None], ...]
    gaps: np.ndarray | None  # the canvas pixels no tile owns; None when tiles own all


def _layout(
    tiles: list[tuple[TileMetadata, tuple[int, int]]],
    query_bbox: BoundingBox,
    pixel_size_deg: float | None,
) -> _Layout:
    """Lay out tiles given as (metadata, (rows, cols)) on the query's canvas.

    All tiles must share one square pixel size (no resampling), equal to
    pixel_size_deg when that is given; an empty mosaic needs pixel_size_deg.
    """
    if not tiles:
        if pixel_size_deg is None:
            raise ValidationError("pixel size required for an empty mosaic")
        shape = mosaic_shape(query_bbox, pixel_size_deg)
        return _Layout(pixel_size_deg, shape, (), (), np.ones(shape, dtype=bool))

    sizes = {
        (round(meta.bbox.width / cols, 12), round(meta.bbox.height / rows, 12))
        for meta, (rows, cols) in tiles
    }
    if len(sizes) != 1:
        raise ValidationError(f"tiles disagree on pixel size: {sorted(sizes)}")
    size_x, size_y = next(iter(sizes))
    if abs(size_x - size_y) > 1e-9:
        raise ValidationError(f"pixels must be square, got {size_x} x {size_y}")
    if pixel_size_deg is not None and abs(size_x - pixel_size_deg) > 1e-9:
        raise ValidationError(
            f"tiles have pixel size {size_x}, expected {pixel_size_deg}"
        )
    px = size_x
    rows, cols = shape = mosaic_shape(query_bbox, px)

    order = sorted(range(len(tiles)), key=lambda i: (tiles[i][0].capture_time, tiles[i][0].tile_id))
    overlaps = []
    for i in order:
        meta, (height, width) = tiles[i]
        # tile's top-left pixel lands at this canvas offset (may be negative)
        off_r = round((query_bbox.max_lat - meta.bbox.max_lat) / px)
        off_c = round((meta.bbox.min_lon - query_bbox.min_lon) / px)
        r0, c0 = max(0, off_r), max(0, off_c)
        r1, c1 = min(rows, off_r + height), min(cols, off_c + width)
        if r0 < r1 and c0 < c1:
            overlaps.append((i, (slice(r0, r1), slice(c0, c1)),
                             (slice(r0 - off_r, r1 - off_r), slice(c0 - off_c, c1 - off_c))))

    # Newest first: a tile owns the pixels of its overlap no newer tile has
    # claimed; one that owns none would be painted over entirely, so it is
    # left out.
    claimed = np.zeros(shape, dtype=bool)
    paint = []
    for i, dst, src in reversed(overlaps):
        window = claimed[dst]
        if window.all():
            continue
        paint.append((i, dst, src, ~window if window.any() else None))
        window[...] = True
    paint.reverse()
    provenance = tuple(tiles[i][0].tile_id for i, _, _ in overlaps)
    gaps = None if claimed.all() else np.logical_not(claimed, out=claimed)
    return _Layout(px, shape, provenance, tuple(paint), gaps)


def assemble_mosaic(
    results: list[tuple[TileMetadata, BandGrid]],
    query_bbox: BoundingBox,
    *,
    pixel_size_deg: float | None = None,
) -> Mosaic:
    """Paint per-tile grids into a query-shaped mosaic.

    results must already be in catalog order; painting in that order makes
    the newest capture win overlapping pixels. Pixels no tile covers stay
    no-data. All tiles must share one pixel size (no resampling).
    """
    layout = _layout([(meta, grid.values.shape) for meta, grid in results],
                     query_bbox, pixel_size_deg)
    canvas = _canvas(layout)
    for i, dst, src, _ in layout.paint:
        canvas[dst] = results[i][1].values[src]
    return Mosaic._adopt(query_bbox, canvas, layout.pixel_size_deg, layout.provenance)


def _paint_index(
    kind: InfoKind, nir: np.ndarray, red: np.ndarray, canvas: np.ndarray,
    dst: tuple[slice, slice], src: tuple[slice, slice], mask: np.ndarray | None,
) -> np.ndarray:
    """The per-tile step: the index over the window src of one tile's float32
    nir and red, written into the canvas window dst where mask keeps it (all
    of it when mask is None). Returns the window as computed."""
    if mask is None:
        out = canvas[dst]
        _index_into(kind, nir[src], red[src], out)
        return out
    out = np.empty(mask.shape, dtype=np.float32)
    _index_into(kind, nir[src], red[src], out)
    np.copyto(canvas[dst], out, where=mask)
    return out
