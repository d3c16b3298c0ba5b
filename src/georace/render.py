"""Grayscale heatmap rendering of mosaics as binary PGM (P5).

Values are clipped to a fixed per-index display range, scaled to bytes
1..255 (so 0 is reserved for no-data), and written north-up row-major,
matching the mosaic orientation. NDVI and DVI display over [-1, 1]
(an NDVI of 0.0 lands on byte 128); RVI displays over [0, 10].

Quantization runs in float64, so every byte is exact, on one float64 copy
of the grid that each step updates in place; the only other array is the
uint8 result.
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


def to_bytes_grid(values: np.ndarray, kind: InfoKind) -> np.ndarray:
    """Quantize a float grid to the display bytes (uint8, same shape)."""
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
    return buf.astype(np.uint8)


def render_pgm(mosaic: Mosaic, kind: InfoKind | str) -> bytes:
    """A mosaic as a binary PGM image; no-data pixels render black (0)."""
    grid = to_bytes_grid(mosaic.values, InfoKind.parse(kind))
    rows, cols = grid.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    return header + grid.tobytes()


def write_pgm(mosaic: Mosaic, path, kind: InfoKind | str) -> None:
    with open(path, "wb") as fh:
        fh.write(render_pgm(mosaic, kind))
