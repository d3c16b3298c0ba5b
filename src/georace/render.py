"""Grayscale heatmap rendering of mosaics as binary PGM (P5).

Values are clipped to a fixed per-index display range, scaled to bytes
1..255 (so 0 is reserved for no-data), and written north-up row-major,
matching the mosaic orientation. NDVI and DVI display over [-1, 1]
(an NDVI of 0.0 lands on byte 128); RVI displays over [0, 10].

Quantization runs in float64, so every byte is exact, on one float64 copy
of the grid that each step updates in place; the bytes go to a new uint8
grid or into a given one. The query engine quantizes each tile's window of
the mosaic as soon as it is computed, into the pixels of a PGM made by
blank_pgm, so a query's image is ready when its mosaic is; render_pgm
renders a whole mosaic at once, to the same bytes.
"""

from __future__ import annotations

import numpy as np

from .bandmath import InfoKind, Mosaic
from .errors import ValidationError

DISPLAY_RANGES: dict[InfoKind, tuple[float, float]] = {
    InfoKind.NDVI: (-1.0, 1.0),
    InfoKind.RVI: (0.0, 10.0),
    InfoKind.DVI: (-1.0, 1.0),
}

NO_DATA_BYTE = 0


def to_bytes_grid(
    values: np.ndarray, kind: InfoKind, *, out: np.ndarray | None = None, where=True
) -> np.ndarray:
    """Quantize a float grid to the display bytes (uint8, same shape): a new
    grid, or written into out where `where` is true, and out returned."""
    lo, hi = DISPLAY_RANGES[kind]
    buf = np.array(values, dtype=np.float64)
    if buf.ndim != 2:
        raise ValidationError("heatmap input must be a 2-D grid")
    # rint(clip((v - lo) / (hi - lo), 0, 1) * 254) + 1, one step at a time
    np.subtract(buf, lo, out=buf)
    np.divide(buf, hi - lo, out=buf)
    np.clip(buf, 0.0, 1.0, out=buf)
    np.multiply(buf, 254.0, out=buf)
    np.rint(buf, out=buf)
    np.add(buf, 1.0, out=buf)
    # no-data is still NaN here, and fmax takes the number over a NaN
    np.fmax(buf, NO_DATA_BYTE, out=buf)
    if out is None:
        return buf.astype(np.uint8)
    np.copyto(out, buf, casting="unsafe", where=where)
    return out


def blank_pgm(shape: tuple[int, int]) -> tuple[bytearray, np.ndarray]:
    """A binary PGM image of (rows, cols) pixels, all no-data, and a writable
    uint8 (rows, cols) view of its pixels."""
    rows, cols = shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    pgm = bytearray(len(header) + rows * cols)  # zeroed: NO_DATA_BYTE
    pgm[:len(header)] = header
    return pgm, np.frombuffer(pgm, dtype=np.uint8, offset=len(header)).reshape(shape)


def render_pgm(mosaic: Mosaic, kind: InfoKind | str) -> bytes:
    """A mosaic as a binary PGM image; no-data pixels render black (0)."""
    pgm, pixels = blank_pgm(mosaic.values.shape)
    to_bytes_grid(mosaic.values, InfoKind.parse(kind), out=pixels)
    return bytes(pgm)
