"""Binary band-file codec and scene interchange files.

Band file layout (little-endian, bit-exact golden format):

    magic   4 bytes  "MIXR"
    version u16      1
    rows    u32
    cols    u32
    pixels  rows*cols float32, row-major

No-data pixels are quiet NaNs in the pixel payload; raw float32 bytes round
trip NaN payloads unchanged.

Scenes awaiting ingest travel as .npz files (one per scene): one float32
array per band plus a JSON metadata string under the "meta" key.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np

from .errors import CorruptionError, ValidationError
from .geo import BoundingBox

BAND_MAGIC = b"MIXR"
BAND_VERSION = 1
_HEADER = struct.Struct("<4sHII")
HEADER_SIZE = _HEADER.size  # 14 bytes


def pack_band(values: np.ndarray) -> bytes:
    """Serialize a 2-D float32 grid to band-file bytes."""
    if values.ndim != 2:
        raise ValidationError(f"band grid must be 2-D, got shape {values.shape}")
    if values.size == 0:
        raise ValidationError("band grid must be non-empty")
    arr = np.ascontiguousarray(values, dtype="<f4")
    rows, cols = arr.shape
    return _HEADER.pack(BAND_MAGIC, BAND_VERSION, rows, cols) + arr.tobytes()


def unpack_band(blob, *, source: str = "band file") -> np.ndarray:
    """Parse band-file bytes (any bytes-like object) into a float32 grid: a
    read-only view of the payload in blob, not a copy (copy it to write, or
    when blob may change)."""
    if len(blob) < _HEADER.size:
        raise CorruptionError(f"{source}: truncated header")
    magic, version, rows, cols = _HEADER.unpack_from(blob)
    if magic != BAND_MAGIC:
        raise CorruptionError(f"{source}: bad magic {magic!r}")
    if version != BAND_VERSION:
        raise CorruptionError(f"{source}: unsupported version {version}")
    expected = _HEADER.size + rows * cols * 4
    if len(blob) != expected:
        raise CorruptionError(
            f"{source}: payload is {len(blob)} bytes, header implies {expected}"
        )
    arr = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(rows, cols)
    arr.flags.writeable = False
    return arr


def read_band_dims(path) -> tuple[int, int]:
    """(rows, cols) from a band file header without reading pixels."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise CorruptionError(f"{path}: truncated header")
    magic, version, rows, cols = _HEADER.unpack(head)
    if magic != BAND_MAGIC or version != BAND_VERSION:
        raise CorruptionError(f"{path}: bad band file header")
    return rows, cols


def save_scene_npz(path, bands: dict[str, np.ndarray], meta: dict) -> None:
    """One scene to a .npz: per-band arrays plus a JSON meta string."""
    arrays = {f"band_{label}": np.asarray(grid, dtype=np.float32) for label, grid in bands.items()}
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_scene_npz(path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of save_scene_npz."""
    with np.load(path) as npz:
        try:
            meta = json.loads(bytes(npz["meta"]).decode("utf-8"))
        except (KeyError, ValueError) as exc:
            raise CorruptionError(f"{path}: bad scene meta block: {exc}") from exc
        bands = {
            name[len("band_"):]: npz[name].astype(np.float32)
            for name in npz.files
            if name.startswith("band_")
        }
    if not bands:
        raise CorruptionError(f"{path}: scene has no bands")
    return bands, meta


def scene_meta_dict(bbox: BoundingBox, capture_time: int, satellite: str, band_order: list[str]) -> dict:
    return {
        "min_lon": bbox.min_lon,
        "max_lon": bbox.max_lon,
        "min_lat": bbox.min_lat,
        "max_lat": bbox.max_lat,
        "capture_time": int(capture_time),
        "satellite": satellite,
        "band_order": list(band_order),
    }
