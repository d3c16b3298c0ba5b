"""Core geometry: points, boxes, time ranges, and the intersection rules.

Conventions used across the package:

* Longitudes live in [-180, 180], latitudes in [-90, 90]. No antimeridian
  wrapping: a box's min_lon must not exceed its max_lon.
* Box/box and box/point intersection is closed: boundary contact counts.
* Time ranges are closed integer intervals of Unix epoch seconds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import ValidationError

LON_MIN, LON_MAX = -180.0, 180.0
LAT_MIN, LAT_MAX = -90.0, 90.0

WORLD_BOUNDS = (LON_MIN, LON_MAX, LAT_MIN, LAT_MAX)


def _check_finite(name: str, value: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class GeoPoint:
    """A longitude/latitude pair in degrees."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        lon = _check_finite("lon", self.lon)
        lat = _check_finite("lat", self.lat)
        if not (LON_MIN <= lon <= LON_MAX):
            raise ValidationError(f"lon {lon} outside [{LON_MIN}, {LON_MAX}]")
        if not (LAT_MIN <= lat <= LAT_MAX):
            raise ValidationError(f"lat {lat} outside [{LAT_MIN}, {LAT_MAX}]")
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "lat", lat)


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned box in degrees; degenerate (zero-area) boxes are legal."""

    min_lon: float
    max_lon: float
    min_lat: float
    max_lat: float

    def __post_init__(self) -> None:
        vals = {}
        for name in ("min_lon", "max_lon", "min_lat", "max_lat"):
            vals[name] = _check_finite(name, getattr(self, name))
            object.__setattr__(self, name, vals[name])
        if vals["min_lon"] > vals["max_lon"]:
            raise ValidationError(
                f"min_lon {vals['min_lon']} > max_lon {vals['max_lon']} (no wrap-around)"
            )
        if vals["min_lat"] > vals["max_lat"]:
            raise ValidationError(f"min_lat {vals['min_lat']} > max_lat {vals['max_lat']}")
        if not (LON_MIN <= vals["min_lon"] and vals["max_lon"] <= LON_MAX):
            raise ValidationError(f"lon range outside [{LON_MIN}, {LON_MAX}]")
        if not (LAT_MIN <= vals["min_lat"] and vals["max_lat"] <= LAT_MAX):
            raise ValidationError(f"lat range outside [{LAT_MIN}, {LAT_MAX}]")

    @classmethod
    def _trusted(
        cls, min_lon: float, max_lon: float, min_lat: float, max_lat: float
    ) -> "BoundingBox":
        """A box from four floats the caller has checked as __post_init__
        would: finite, ordered and in range."""
        box = object.__new__(cls)
        box.__dict__.update(min_lon=min_lon, max_lon=max_lon, min_lat=min_lat, max_lat=max_lat)
        return box

    @property
    def width(self) -> float:
        return self.max_lon - self.min_lon

    @property
    def height(self) -> float:
        return self.max_lat - self.min_lat

    def center(self) -> GeoPoint:
        return GeoPoint((self.min_lon + self.max_lon) / 2.0, (self.min_lat + self.max_lat) / 2.0)

    def contains_point(self, p: GeoPoint) -> bool:
        return (
            self.min_lon <= p.lon <= self.max_lon and self.min_lat <= p.lat <= self.max_lat
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        return (
            self.min_lon <= other.min_lon
            and other.max_lon <= self.max_lon
            and self.min_lat <= other.min_lat
            and other.max_lat <= self.max_lat
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.min_lon, self.max_lon, self.min_lat, self.max_lat)


def intersects(a: BoundingBox, b: BoundingBox) -> bool:
    """Closed-box intersection: shared boundary points count as overlap."""
    return (
        a.min_lon <= b.max_lon
        and b.min_lon <= a.max_lon
        and a.min_lat <= b.max_lat
        and b.min_lat <= a.max_lat
    )


@dataclass(frozen=True)
class TimeRange:
    """Closed interval of Unix epoch seconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        for name in ("start", "end"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(f"{name} must be an int (epoch seconds), got {v!r}")
        if self.start > self.end:
            raise ValidationError(f"start {self.start} > end {self.end}")

    def contains(self, t: int) -> bool:
        return self.start <= t <= self.end


def overlaps_time(a: TimeRange, b: TimeRange) -> bool:
    """Closed-interval overlap: touching endpoints count."""
    return a.start <= b.end and b.start <= a.end


def derive_tile_id(bbox: BoundingBox, capture_time: int, satellite: str) -> str:
    """Deterministic opaque tile id from the identifying metadata.

    Identical (bbox, capture_time, satellite) always yields the same id.
    Float repr is shortest-round-trip, so equal floats map to equal strings.
    """
    canonical = (
        f"{bbox.min_lon!r}|{bbox.max_lon!r}|{bbox.min_lat!r}|{bbox.max_lat!r}|"
        f"{int(capture_time)}|{satellite}"
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return "t" + digest[:12]
