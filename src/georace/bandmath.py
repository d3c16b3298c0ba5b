"""Pixel-wise vegetation indices and geographic mosaic assembly.

All three indices need only the NIR and Red bands:

    NDVI = (NIR - Red) / (NIR + Red)
    RVI  = NIR / Red
    DVI  = NIR - Red

A pixel becomes no-data (NaN) when either input is no-data, either input is
a negative reflectance, or the denominator is zero, and when the result does
not fit in float32 (an RVI over a Red reflectance near zero overflows to
infinity). Grids are float32 throughout; no-data propagates as NaN.

The query path copies no pixels it need not: an index is computed in place
in one fresh float32 array, which its BandGrid then wraps without a copy,
and a Mosaic keeps the canvas assemble_mosaic painted. Both are read-only,
and no writeable array shares their memory.

Mosaics live on a north-up grid aligned to the query box: row 0 is the
northern edge, column 0 the western edge. Tiles are painted in catalog
order (capture_time, then tile_id, ascending), so on overlaps the newest
capture wins, ties resolved by tile_id. A mosaic of more than
MAX_MOSAIC_PIXELS pixels is refused before anything is allocated.
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


def compute_index(kind: InfoKind, nir: BandGrid, red: BandGrid) -> BandGrid:
    """One vegetation index, pixel-wise, dimensions preserved."""
    if not isinstance(kind, InfoKind):
        kind = InfoKind.parse(kind)
    if nir.values.shape != red.values.shape:
        raise ValidationError(
            f"band dimensions disagree: NIR {nir.values.shape} vs Red {red.values.shape}"
        )
    n = nir.values
    r = red.values
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind is InfoKind.RVI:
            out = np.divide(n, r)
        else:
            out = np.subtract(n, r)
            if kind is InfoKind.NDVI:
                out /= n + r
        # A NaN input, a zero denominator and a float32 overflow all leave a
        # non-finite value; a negative reflectance is the one case left to mask.
        bad = np.isfinite(out)
        np.logical_not(bad, out=bad)
        bad |= np.minimum(n, r) < 0.0
    out[bad] = np.nan
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


def _pixel_size(meta: TileMetadata, grid: BandGrid) -> tuple[float, float]:
    return (
        meta.bbox.width / grid.cols,
        meta.bbox.height / grid.rows,
    )


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


def _blank(bbox: BoundingBox, pixel_size_deg: float) -> np.ndarray:
    return np.full(mosaic_shape(bbox, pixel_size_deg), np.nan, dtype=np.float32)


def empty_mosaic(bbox: BoundingBox, pixel_size_deg: float) -> Mosaic:
    return Mosaic._adopt(bbox, _blank(bbox, pixel_size_deg), pixel_size_deg, ())


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
    if not results:
        if pixel_size_deg is None:
            raise ValidationError("pixel size required for an empty mosaic")
        return empty_mosaic(query_bbox, pixel_size_deg)

    sizes = set()
    for meta, grid in results:
        sx, sy = _pixel_size(meta, grid)
        sizes.add((round(sx, 12), round(sy, 12)))
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

    canvas = _blank(query_bbox, px)
    ordered = sorted(results, key=lambda mg: (mg[0].capture_time, mg[0].tile_id))
    provenance = []
    for meta, grid in ordered:
        if not _paint(canvas, query_bbox, px, meta, grid):
            continue
        provenance.append(meta.tile_id)
    return Mosaic._adopt(query_bbox, canvas, px, tuple(provenance))


def _paint(
    canvas: np.ndarray,
    query_bbox: BoundingBox,
    px: float,
    meta: TileMetadata,
    grid: BandGrid,
) -> bool:
    """Copy the overlap between one tile and the canvas; True if any pixel."""
    rows, cols = canvas.shape
    # tile's top-left pixel lands at this canvas offset (may be negative)
    off_r = round((query_bbox.max_lat - meta.bbox.max_lat) / px)
    off_c = round((meta.bbox.min_lon - query_bbox.min_lon) / px)
    src = grid.values
    r0 = max(0, off_r)
    c0 = max(0, off_c)
    r1 = min(rows, off_r + src.shape[0])
    c1 = min(cols, off_c + src.shape[1])
    if r0 >= r1 or c0 >= c1:
        return False
    canvas[r0:r1, c0:c1] = src[r0 - off_r : r1 - off_r, c0 - off_c : c1 - off_c]
    return True
