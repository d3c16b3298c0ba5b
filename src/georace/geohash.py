"""GeoHash codec: Base32 codes from alternating longitude/latitude bisection.

Encoding walks the bit stream longitude-first, halving the active interval
each bit; a point exactly on a midpoint goes to the upper half (>=). Five
bits per character through the Base32 alphabet below.

Cell geometry at precision P: ceil(5P/2) longitude bits and floor(5P/2)
latitude bits, so cells form a 2^lon_bits x 2^lat_bits grid. A cell is
half-open [min, max) on each axis except that the last cell on an axis also
owns the domain edge (lon 180, lat 90) - the same rule the >= bisection
implies.

A box maps to its touching cells: every cell whose closed extent shares at
least a boundary point with the box (touching_cells, or touch_ranges for the
column and row ranges without building the codes). Index registration and
query probing both use this inclusive set, which is what makes
boundary-abutting tiles impossible to miss under the closed intersection
rule.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ValidationError
from .geo import LAT_MAX, LAT_MIN, LON_MAX, LON_MIN, BoundingBox, GeoPoint

BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_INDEX = {c: i for i, c in enumerate(BASE32)}
_BIT_MASKS = (16, 8, 4, 2, 1)

MAX_PRECISION = 12


def _check_precision(precision: int) -> int:
    if isinstance(precision, bool) or not isinstance(precision, int):
        raise ValidationError(f"precision must be an int, got {precision!r}")
    if not (1 <= precision <= MAX_PRECISION):
        raise ValidationError(f"precision {precision} outside [1, {MAX_PRECISION}]")
    return precision


def bit_counts(precision: int) -> tuple[int, int]:
    """(longitude bits, latitude bits) at the given precision."""
    total = 5 * precision
    return (total + 1) // 2, total // 2


def cell_size(precision: int) -> tuple[float, float]:
    """(cell width, cell height) in degrees at the given precision."""
    _check_precision(precision)
    lon_bits, lat_bits = bit_counts(precision)
    return 360.0 / (1 << lon_bits), 180.0 / (1 << lat_bits)


def encode(p: GeoPoint, precision: int) -> str:
    """GeoHash code of the cell containing p at the given precision."""
    _check_precision(precision)
    lon_lo, lon_hi = LON_MIN, LON_MAX
    lat_lo, lat_hi = LAT_MIN, LAT_MAX
    chars = []
    bits = 0
    value = 0
    use_lon = True
    while len(chars) < precision:
        if use_lon:
            mid = (lon_lo + lon_hi) / 2.0
            if p.lon >= mid:
                value = (value << 1) | 1
                lon_lo = mid
            else:
                value = value << 1
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2.0
            if p.lat >= mid:
                value = (value << 1) | 1
                lat_lo = mid
            else:
                value = value << 1
                lat_hi = mid
        use_lon = not use_lon
        bits += 1
        if bits == 5:
            chars.append(BASE32[value])
            bits = 0
            value = 0
    return "".join(chars)


def decode(code: str) -> BoundingBox:
    """The exact lon/lat cell a code denotes."""
    if not isinstance(code, str) or not code:
        raise ValidationError(f"code must be a non-empty string, got {code!r}")
    if len(code) > MAX_PRECISION:
        raise ValidationError(f"code longer than {MAX_PRECISION} characters: {code!r}")
    lon_lo, lon_hi = LON_MIN, LON_MAX
    lat_lo, lat_hi = LAT_MIN, LAT_MAX
    use_lon = True
    for ch in code:
        try:
            value = _CHAR_INDEX[ch]
        except KeyError:
            raise ValidationError(f"character {ch!r} outside the GeoHash alphabet") from None
        for mask in _BIT_MASKS:
            if use_lon:
                mid = (lon_lo + lon_hi) / 2.0
                if value & mask:
                    lon_lo = mid
                else:
                    lon_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2.0
                if value & mask:
                    lat_lo = mid
                else:
                    lat_hi = mid
            use_lon = not use_lon
    return BoundingBox(lon_lo, lon_hi, lat_lo, lat_hi)


@lru_cache(maxsize=1 << 20)
def _cell_code(col: int, row: int, precision: int) -> str:
    """Code of the cell at (col, row) on the precision-P grid."""
    lon_bits, lat_bits = bit_counts(precision)
    value = 0
    for i in range(lon_bits):
        lon_bit = (col >> (lon_bits - 1 - i)) & 1
        value = (value << 1) | lon_bit
        if i < lat_bits:
            lat_bit = (row >> (lat_bits - 1 - i)) & 1
            value = (value << 1) | lat_bit
    chars = []
    for k in range(precision):
        shift = 5 * (precision - 1 - k)
        chars.append(BASE32[(value >> shift) & 0x1F])
    return "".join(chars)


def _bisect_index(value: float, lo: float, hi: float, nbits: int) -> int:
    """Axis cell index by the same >= bisection encode() uses.

    Deriving indices this way (instead of floor((v - origin) / width)) keeps
    the touching cells exactly consistent with encode for values within float
    epsilon of a cell boundary.
    """
    idx = 0
    for _ in range(nbits):
        mid = (lo + hi) / 2.0
        if value >= mid:
            idx = (idx << 1) | 1
            lo = mid
        else:
            idx <<= 1
            hi = mid
    return idx


def _touching_axis_range(lo: float, hi: float, origin: float, width: float, nbits: int) -> range:
    """Cell indices whose closed extent shares at least a point with [lo, hi]."""
    domain_hi = origin + width * (1 << nbits)
    first = _bisect_index(lo, origin, domain_hi, nbits)
    # lo exactly on its cell's lower edge: the cell below touches it too
    if first > 0 and lo == origin + first * width:
        first -= 1
    last = _bisect_index(hi, origin, domain_hi, nbits)
    return range(first, last + 1)


def touching_cells(box: BoundingBox, precision: int) -> set[str]:
    """Every precision-P cell whose closed extent touches the box."""
    cols, rows = touch_ranges(box, precision)
    return {_cell_code(c, r, precision) for c in cols for r in rows}


def touch_ranges(box: BoundingBox, precision: int) -> tuple[range, range]:
    """(column range, row range) of touching_cells, without materializing
    the cell codes; callers can bound or lazily enumerate the product."""
    _check_precision(precision)
    lon_bits, lat_bits = bit_counts(precision)
    col_w, row_h = 360.0 / (1 << lon_bits), 180.0 / (1 << lat_bits)
    cols = _touching_axis_range(box.min_lon, box.max_lon, LON_MIN, col_w, lon_bits)
    rows = _touching_axis_range(box.min_lat, box.max_lat, LAT_MIN, row_h, lat_bits)
    return cols, rows


def cell_code(col: int, row: int, precision: int) -> str:
    """Code of the cell at (column, row) in the precision-P cell grid."""
    _check_precision(precision)
    return _cell_code(col, row, precision)
