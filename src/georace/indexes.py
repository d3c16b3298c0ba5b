"""The three spatial range indexes plus a linear-scan baseline.

All kinds answer the same contract: given a closed query box and a closed
time range, return exactly the tile ids whose bbox intersects the box and
whose time range overlaps the query range. Indexes are immutable after
build; rebuilding from the same entry list yields byte-identical
serializations.

Registration/probing symmetry: GeoHash and grid cells are registered and
probed with the inclusive "touching" ranges (cells whose closed extent
shares at least a point with the box), then candidates are filtered by the
exact closed comparisons. Any entry a query could match shares a cell with
the query by construction, so cell conventions can never cause a miss.

Every index kind ends in one exact filter, RangeIndex._filter, a per-row
Python loop over its candidates. The linear scan makes the same closed
comparisons in its own loop over the rows themselves, with no candidate list
and no lookup by row number; it is still a plain pass over every entry.

Cancellation: query() takes an optional should_cancel callable, polled
periodically; a True return aborts the traversal by raising QueryCancelled.
"""

from __future__ import annotations

import math
import struct
import time
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from . import geohash
from .errors import DuplicateTileError, ValidationError
from .geo import LAT_MAX, LON_MIN, BoundingBox, TimeRange

# row layout: (tile_id, min_lon, max_lon, min_lat, max_lat, start, end)
Row = tuple[str, float, float, float, float, int, int]

_CANCEL_STRIDE = 64  # traversal steps between cancellation polls

# estimate_cost() coefficients, in approximate microseconds per query,
# calibrated per kind by least squares against measured traversal times on
# seeded reference workloads (9k- and 27k-tile corpora, r² ≈ 0.9). All four
# models share one measurement protocol, so their outputs are commensurate;
# the racer uses them only to rank dispatch order.
_GH_FIXED = 6.3  # geohash: setup + result-set allocation
_GH_PER_CELL = 0.0035  # one cell-code build + dict probe
_GH_PER_ROW = 0.057  # one candidate row through the exact filter
_QT_FIXED = 1.8  # quadtree: stack setup
_QT_PER_NODE = 0.12  # one node pop + overlap test
_QT_PER_ROW = 0.057  # one candidate row through the exact filter
_OL_FIXED = 6.3  # ortho grid: setup
_OL_PER_STEP = 0.06  # one row-chain link step
_OL_PER_ROW = 0.042  # one candidate row (bucket tuples batch into the set)
_LS_FIXED = 11.0  # linear scan: setup
_LS_PER_ROW = 0.08  # one row of the unindexed pass


class QueryCancelled(Exception):
    """Raised inside query() when should_cancel() reports True."""


class IndexKind(str, Enum):
    GEOHASH = "geohash"
    QUADTREE = "quadtree"
    ORTHOLIST = "ortholist"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


SINGLE_KINDS = tuple(kind.value for kind in IndexKind)


@dataclass(frozen=True)
class IndexEntry:
    """One indexable tile: id, footprint, and capture time range."""

    tile_id: str
    bbox: BoundingBox
    time: TimeRange

    def as_row(self) -> Row:
        b = self.bbox
        return (
            self.tile_id,
            b.min_lon,
            b.max_lon,
            b.min_lat,
            b.max_lat,
            self.time.start,
            self.time.end,
        )


@dataclass(frozen=True)
class IndexConfig:
    """Build-time knobs shared by all index kinds."""

    geohash_precision: int = 4
    quad_leaf_capacity: int = 32
    quad_max_depth: int = 12
    grid_cell_deg: float = 0.5

    def __post_init__(self) -> None:
        if not (1 <= self.geohash_precision <= geohash.MAX_PRECISION):
            raise ValidationError(f"geohash_precision {self.geohash_precision} outside [1, 12]")
        if self.quad_leaf_capacity < 1:
            raise ValidationError("quad_leaf_capacity must be >= 1")
        if self.quad_max_depth < 1:
            raise ValidationError("quad_max_depth must be >= 1")
        if not (0.0 < self.grid_cell_deg <= 90.0):
            raise ValidationError("grid_cell_deg must be in (0, 90]")


def _rows_from_entries(entries) -> list[Row]:
    rows: list[Row] = []
    seen: set[str] = set()
    for e in entries:
        if not isinstance(e, IndexEntry):
            raise ValidationError(f"expected IndexEntry, got {type(e).__name__}")
        if e.tile_id in seen:
            raise DuplicateTileError(f"duplicate tile id {e.tile_id!r}")
        seen.add(e.tile_id)
        rows.append(e.as_row())
    return rows


def _pack_entries(rows: list[Row]) -> bytes:
    out = bytearray(struct.pack("<I", len(rows)))
    for tile_id, lo_x, hi_x, lo_y, hi_y, t0, t1 in rows:
        raw = tile_id.encode("utf-8")
        out += struct.pack("<H", len(raw))
        out += raw
        out += struct.pack("<4d2q", lo_x, hi_x, lo_y, hi_y, t0, t1)
    return bytes(out)


def _grid_touch_range(lo: float, hi: float, origin: float, width: float, n: int, flip: bool) -> range:
    """Inclusive cell range on a uniform grid; flip reverses axis direction.

    Cells whose closed extent shares at least a point with [lo, hi]. With
    flip=True the axis counts downward from origin (used for rows counted
    from the north edge).
    """
    if flip:
        lo, hi = origin - hi, origin - lo
        origin = 0.0
    first = math.floor((lo - origin) / width)
    if first > 0 and (lo - origin) == first * width:
        first -= 1
    last = math.floor((hi - origin) / width)
    top = n - 1
    # clamp to [0, n - 1] without min()/max() calls: index builds call this
    # twice per entry
    first = 0 if first < 0 else top if first > top else first
    last = 0 if last < 0 else top if last > top else last
    return range(first, last + 1)


class RangeIndex:
    """Common behavior: exact candidate filtering, timing, serialization."""

    kind: str = "abstract"

    def __init__(self, rows: list[Row]):
        self._rows = rows
        self.build_seconds: float = 0.0
        self._blob: bytes | None = None

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[Row]:
        return self._rows

    @property
    def serialized_size(self) -> int:
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        if self._blob is None:
            self._blob = self._serialize()
        return self._blob

    def _serialize(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def query(self, box: BoundingBox, trange: TimeRange, should_cancel=None) -> set[str]:
        raise NotImplementedError  # pragma: no cover - abstract

    def estimate_cost(self, box: BoundingBox, trange: TimeRange) -> float:
        """Predicted relative query cost; used only to order dispatch."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _filter(self, candidates, box: BoundingBox, trange: TimeRange, should_cancel=None) -> set[str]:
        qlo_x, qhi_x = box.min_lon, box.max_lon
        qlo_y, qhi_y = box.min_lat, box.max_lat
        qt0, qt1 = trange.start, trange.end
        rows = self._rows
        hits: set[str] = set()
        for n, i in enumerate(candidates):
            if should_cancel is not None and n % 256 == 0 and should_cancel():
                raise QueryCancelled()
            tile_id, lo_x, hi_x, lo_y, hi_y, t0, t1 = rows[i]
            if (
                lo_x <= qhi_x
                and qlo_x <= hi_x
                and lo_y <= qhi_y
                and qlo_y <= hi_y
                and t0 <= qt1
                and qt0 <= t1
            ):
                hits.add(tile_id)
        return hits


class GeoHashIndex(RangeIndex):
    """Sorted map from precision-P geohash cell codes to entry row lists."""

    kind = IndexKind.GEOHASH.value

    def __init__(self, rows: list[Row], precision: int):
        super().__init__(rows)
        self.precision = precision
        self._cells: dict[str, tuple[int, ...]] = {}
        self._avg_bucket = 0.0
        self._cell_w, self._cell_h = geohash.cell_size(precision)
        self._est_cell_coef = _GH_PER_CELL
        self._est_scan = _LS_FIXED

    @classmethod
    def build(cls, rows: list[Row], config: IndexConfig) -> "GeoHashIndex":
        buckets: dict[str, list[int]] = {}
        cls.bucket_rows(rows, range(len(rows)), config.geohash_precision, buckets)
        return cls.from_buckets(rows, config.geohash_precision, [buckets])

    @staticmethod
    def bucket_rows(
        rows: list[Row], ids: range, precision: int, buckets: dict[str, list[int]]
    ) -> None:
        """Append each row id in ids, ascending, to the bucket of every cell
        its box touches. Disjoint id ranges can be bucketed separately, in
        any order or process, and assembled with from_buckets."""
        for i in ids:
            _, lo_x, hi_x, lo_y, hi_y, _, _ = rows[i]
            box = BoundingBox(lo_x, hi_x, lo_y, hi_y)
            for code in geohash.touching_cells(box, precision):
                buckets.setdefault(code, []).append(i)

    @classmethod
    def from_buckets(
        cls, rows: list[Row], precision: int, parts: list[dict[str, list[int]]]
    ) -> "GeoHashIndex":
        """The index over rows from bucket_rows output for disjoint id ranges.

        Cells are sorted by code and each cell's row ids ascending, so the
        result does not depend on how the rows were split into parts. A
        single part is taken as is: bucket_rows over ascending ids already
        lists each cell's ids ascending.
        """
        idx = cls(rows, precision)
        if len(parts) == 1:
            buckets = parts[0]
            idx._cells = {code: tuple(buckets[code]) for code in sorted(buckets)}
        else:
            buckets = {}
            for part in parts:
                for code, ids in part.items():
                    buckets.setdefault(code, []).extend(ids)
            idx._cells = {code: tuple(sorted(buckets[code])) for code in sorted(buckets)}
        total = sum(len(v) for v in idx._cells.values())
        idx._avg_bucket = total / len(idx._cells) if idx._cells else 0.0
        idx._est_cell_coef = _GH_PER_CELL + _GH_PER_ROW * idx._avg_bucket
        idx._est_scan = _LS_FIXED + _LS_PER_ROW * len(rows)
        return idx

    def query(self, box: BoundingBox, trange: TimeRange, should_cancel=None) -> set[str]:
        cols, rows_r = geohash.touch_ranges(box, self.precision)
        if len(cols) * len(rows_r) > max(64, len(self._cells)):
            # probing would touch more cells than the index holds; every row
            # is registered in at least one bucket, so scan them all instead
            candidates = range(len(self._rows))
            return self._filter(candidates, box, trange, should_cancel)
        cells = self._cells
        precision = self.precision
        candidates: set[int] = set()
        steps = 0
        for c in cols:
            for r in rows_r:
                steps += 1
                if should_cancel is not None and steps % _CANCEL_STRIDE == 0 and should_cancel():
                    raise QueryCancelled()
                bucket = cells.get(geohash.cell_code(c, r, precision))
                if bucket:
                    candidates.update(bucket)
        return self._filter(candidates, box, trange, should_cancel)

    def estimate_cost(self, box: BoundingBox, trange: TimeRange) -> float:
        # cells this box actually touches (alignment matters: the same box
        # size can land on 2 or 3 cell columns, and the probe cost follows);
        # kept as inline arithmetic because dispatch calls this per query
        n_cells = (
            math.floor((box.max_lon + 180.0) / self._cell_w)
            - math.floor((box.min_lon + 180.0) / self._cell_w)
            + 1
        ) * (
            math.floor((box.max_lat + 90.0) / self._cell_h)
            - math.floor((box.min_lat + 90.0) / self._cell_h)
            + 1
        )
        probe = _GH_FIXED + n_cells * self._est_cell_coef
        # query() falls back to a full scan when the box touches more cells
        # than the index holds, so the cost is capped by the scan cost
        return probe if probe < self._est_scan else self._est_scan

    def cells(self) -> dict[str, tuple[int, ...]]:
        return dict(self._cells)

    def _serialize(self) -> bytes:
        out = bytearray(b"GXGH")
        out += struct.pack("<HB", 1, self.precision)
        out += _pack_entries(self._rows)
        out += struct.pack("<I", len(self._cells))
        for code, bucket in self._cells.items():
            raw = code.encode("ascii")
            out += struct.pack("<B", len(raw))
            out += raw
            out += struct.pack(f"<I{len(bucket)}I", len(bucket), *bucket)
        return bytes(out)


class _QuadNode:
    __slots__ = ("lo_x", "hi_x", "lo_y", "hi_y", "children", "row_ids")

    def __init__(self, lo_x: float, hi_x: float, lo_y: float, hi_y: float):
        self.lo_x = lo_x
        self.hi_x = hi_x
        self.lo_y = lo_y
        self.hi_y = hi_y
        self.children: list[_QuadNode] | None = None  # NW, NE, SW, SE
        self.row_ids: list[int] = []

    def child_containing(self, lo_x: float, hi_x: float, lo_y: float, hi_y: float):
        """First child, in NW/NE/SW/SE order, holding the box whole, or None.

        The box must lie inside this node, so each child test reduces to the
        box's side of the two split lines.
        """
        nw, ne, sw, se = self.children
        mid_x, mid_y = nw.hi_x, nw.lo_y
        if mid_y <= lo_y:  # north half
            if hi_x <= mid_x:
                return nw
            return ne if mid_x <= lo_x else None
        if hi_y <= mid_y:  # south half
            if hi_x <= mid_x:
                return sw
            return se if mid_x <= lo_x else None
        return None

    def split(self) -> None:
        mid_x = (self.lo_x + self.hi_x) / 2.0
        mid_y = (self.lo_y + self.hi_y) / 2.0
        self.children = [
            _QuadNode(self.lo_x, mid_x, mid_y, self.hi_y),  # NW
            _QuadNode(mid_x, self.hi_x, mid_y, self.hi_y),  # NE
            _QuadNode(self.lo_x, mid_x, self.lo_y, mid_y),  # SW
            _QuadNode(mid_x, self.hi_x, self.lo_y, mid_y),  # SE
        ]


class QuadTreeIndex(RangeIndex):
    """Region quadtree over the world box with NW/NE/SW/SE equal bisection.

    Leaves split when they exceed leaf_capacity (until max_depth); an entry
    that no single quadrant fully contains stays at the internal node.
    """

    kind = IndexKind.QUADTREE.value

    def __init__(self, rows: list[Row], leaf_capacity: int, max_depth: int):
        super().__init__(rows)
        self.leaf_capacity = leaf_capacity
        self.max_depth = max_depth
        self.root = _QuadNode(-180.0, 180.0, -90.0, 90.0)
        self._n_nodes = 1
        # estimate_cost polynomial (derived from per-depth occupancy at the
        # end of build): cost = k0 + k1*qw + k2*qh + k3*qw*qh, capped
        self._est_k = (float(_QT_FIXED), 0.0, 0.0, 0.0)
        self._est_cap = float(_QT_FIXED)

    @classmethod
    def build(cls, rows: list[Row], config: IndexConfig) -> "QuadTreeIndex":
        idx = cls(rows, config.quad_leaf_capacity, config.quad_max_depth)
        for i, (_, lo_x, hi_x, lo_y, hi_y, _, _) in enumerate(rows):
            idx._insert(i, lo_x, hi_x, lo_y, hi_y)
        idx._fit_estimate()
        return idx

    def _fit_estimate(self) -> None:
        """Reduce the tree's shape to an expected-cost polynomial.

        Nodes at one depth share an extent (w_d, h_d), so the chance a query
        box (qw, qh) overlaps one has the closed Minkowski form
        (w_d + qw)(h_d + qh) / extent_area; summing node counts and held rows
        per depth, weighted by that chance, gives expected visits and
        candidate rows as a polynomial in qw, qh. Depths whose nodes cover
        the whole data extent are always hit and fold into the constant.
        """
        if not self._rows:
            return
        ext_w = max(r[2] for r in self._rows) - min(r[1] for r in self._rows)
        ext_h = max(r[4] for r in self._rows) - min(r[3] for r in self._rows)
        area = max(ext_w * ext_h, 1e-9)
        per_depth: dict[int, list[int]] = {}
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            bucket = per_depth.setdefault(depth, [0, 0])
            bucket[0] += 1
            bucket[1] += len(node.row_ids)
            if node.children is not None:
                stack.extend((child, depth + 1) for child in node.children)
        k0 = _QT_FIXED
        k1 = k2 = k3 = 0.0
        for depth, (n_nodes, n_rows) in per_depth.items():
            w = min(360.0 / (1 << depth), ext_w)
            h = min(180.0 / (1 << depth), ext_h)
            weight = n_nodes * _QT_PER_NODE + n_rows * _QT_PER_ROW
            if w * h >= area:  # covers the extent: every query touches it
                k0 += weight
            else:
                k0 += weight * w * h / area
                k1 += weight * h / area
                k2 += weight * w / area
                k3 += weight / area
        self._est_k = (k0, k1, k2, k3)
        self._est_cap = (
            _QT_FIXED + self._n_nodes * _QT_PER_NODE + len(self._rows) * _QT_PER_ROW
        )

    def estimate_cost(self, box: BoundingBox, trange: TimeRange) -> float:
        k0, k1, k2, k3 = self._est_k
        qw = box.max_lon - box.min_lon
        qh = box.max_lat - box.min_lat
        cost = k0 + k1 * qw + k2 * qh + k3 * qw * qh
        return cost if cost < self._est_cap else self._est_cap

    def _insert(self, row_id: int, lo_x: float, hi_x: float, lo_y: float, hi_y: float) -> None:
        node = self.root
        depth = 0
        while True:
            if node.children is not None:
                child = node.child_containing(lo_x, hi_x, lo_y, hi_y)
                if child is None:
                    node.row_ids.append(row_id)  # spans the split lines
                    return
                node = child
                depth += 1
                continue
            node.row_ids.append(row_id)
            if len(node.row_ids) > self.leaf_capacity and depth < self.max_depth:
                self._split(node)
            return

    def _split(self, node: _QuadNode) -> None:
        node.split()
        self._n_nodes += 4
        rows = self._rows
        keep: list[int] = []
        for row_id in node.row_ids:
            _, lo_x, hi_x, lo_y, hi_y, _, _ = rows[row_id]
            child = node.child_containing(lo_x, hi_x, lo_y, hi_y)
            if child is None:
                keep.append(row_id)
            else:
                child.row_ids.append(row_id)
        node.row_ids = keep

    def query(self, box: BoundingBox, trange: TimeRange, should_cancel=None) -> set[str]:
        qlo_x, qhi_x = box.min_lon, box.max_lon
        qlo_y, qhi_y = box.min_lat, box.max_lat
        candidates: list[int] = []
        stack = [self.root]
        steps = 0
        while stack:
            node = stack.pop()
            steps += 1
            if should_cancel is not None and steps % _CANCEL_STRIDE == 0 and should_cancel():
                raise QueryCancelled()
            if (
                node.lo_x > qhi_x or qlo_x > node.hi_x or node.lo_y > qhi_y or qlo_y > node.hi_y
            ):
                continue
            candidates.extend(node.row_ids)
            if node.children is not None:
                stack.extend(node.children)
        return self._filter(candidates, box, trange, should_cancel)

    def node_count(self) -> int:
        return self._n_nodes

    def _serialize(self) -> bytes:
        out = bytearray(b"GXQT")
        out += struct.pack("<HHH", 1, self.leaf_capacity, self.max_depth)
        out += _pack_entries(self._rows)
        stack = [self.root]
        while stack:
            node = stack.pop()
            has_children = node.children is not None
            out += struct.pack(f"<BI{len(node.row_ids)}I", int(has_children), len(node.row_ids), *node.row_ids)
            if has_children:
                stack.extend(reversed(node.children))
        return bytes(out)


class _GridNode:
    __slots__ = ("row", "col", "row_ids", "right")

    def __init__(self, row: int, col: int, row_ids: tuple[int, ...]):
        self.row = row
        self.col = col
        self.row_ids = row_ids
        self.right: _GridNode | None = None


class OrthoGridIndex(RangeIndex):
    """Orthogonal list over a uniform degree grid.

    Non-empty cells become nodes, kept in row-major order (row 0 touches the
    north edge, rows count southward) and linked rightward, by increasing
    longitude, within each row. Queries walk the right links of each row in
    the query's row range.
    """

    kind = IndexKind.ORTHOLIST.value

    def __init__(self, rows: list[Row], cell_deg: float):
        super().__init__(rows)
        self.cell_deg = cell_deg
        self.n_cols = math.ceil(360.0 / cell_deg)
        self.n_rows = math.ceil(180.0 / cell_deg)
        self._row_heads: dict[int, _GridNode] = {}
        self._nodes: list[_GridNode] = []
        self._avg_bucket = 0.0
        self._est_row_coef = _OL_PER_ROW
        self._est_west = LON_MIN
        self._est_step_per_deg = 0.0  # chain links walked per degree of lon

    def _cols_for(self, lo_x: float, hi_x: float) -> range:
        return _grid_touch_range(lo_x, hi_x, LON_MIN, self.cell_deg, self.n_cols, flip=False)

    def _rows_for(self, lo_y: float, hi_y: float) -> range:
        return _grid_touch_range(lo_y, hi_y, LAT_MAX, self.cell_deg, self.n_rows, flip=True)

    @classmethod
    def build(cls, rows: list[Row], config: IndexConfig) -> "OrthoGridIndex":
        idx = cls(rows, config.grid_cell_deg)
        buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
        for i, (_, lo_x, hi_x, lo_y, hi_y, _, _) in enumerate(rows):
            cols = idx._cols_for(lo_x, hi_x)
            for r in idx._rows_for(lo_y, hi_y):
                for c in cols:
                    buckets[r, c].append(i)
        idx._link(buckets)
        total = sum(len(v) for v in buckets.values())
        idx._avg_bucket = total / len(buckets) if buckets else 0.0
        idx._est_row_coef = _OL_PER_ROW * idx._avg_bucket
        if rows:
            idx._est_west = min(r[1] for r in rows)
            ext_w = max(r[2] for r in rows) - idx._est_west
            links_per_row = len(idx._nodes) / max(len(idx._row_heads), 1)
            idx._est_step_per_deg = links_per_row / max(ext_w, 1e-9)
        return idx

    def _link(self, buckets: dict[tuple[int, int], list[int]]) -> None:
        self._nodes = [
            _GridNode(r, c, tuple(buckets[(r, c)])) for r, c in sorted(buckets)
        ]
        last_in_row: dict[int, _GridNode] = {}
        for node in self._nodes:
            if node.row in last_in_row:
                last_in_row[node.row].right = node
            else:
                self._row_heads[node.row] = node
            last_in_row[node.row] = node

    def query(self, box: BoundingBox, trange: TimeRange, should_cancel=None) -> set[str]:
        cols = self._cols_for(box.min_lon, box.max_lon)
        first_col, last_col = cols.start, cols.stop - 1
        candidates: set[int] = set()
        steps = 0
        for r in self._rows_for(box.min_lat, box.max_lat):
            node = self._row_heads.get(r)
            while node is not None:
                steps += 1
                if should_cancel is not None and steps % _CANCEL_STRIDE == 0 and should_cancel():
                    raise QueryCancelled()
                if node.col > last_col:
                    break
                if node.col >= first_col:
                    candidates.update(node.row_ids)
                node = node.right
        return self._filter(candidates, box, trange, should_cancel)

    def estimate_cost(self, box: BoundingBox, trange: TimeRange) -> float:
        # each query row is walked from its chain head, so the step count
        # grows with how far east the box reaches into the data, while the
        # candidate count follows the touched cells; inline for dispatch
        # speed
        cell = self.cell_deg
        n_rows = (
            math.floor((90.0 - box.min_lat) / cell)
            - math.floor((90.0 - box.max_lat) / cell)
            + 1
        )
        n_cols = (
            math.floor((box.max_lon + 180.0) / cell)
            - math.floor((box.min_lon + 180.0) / cell)
            + 1
        )
        reach = box.max_lon - self._est_west
        if reach < 0.0:
            reach = 0.0
        steps = n_rows * reach * self._est_step_per_deg
        return _OL_FIXED + steps * _OL_PER_STEP + n_rows * n_cols * self._est_row_coef

    def node_count(self) -> int:
        return len(self._nodes)

    def _serialize(self) -> bytes:
        out = bytearray(b"GXOL")
        out += struct.pack("<Hd", 1, self.cell_deg)
        out += _pack_entries(self._rows)
        out += struct.pack("<I", len(self._nodes))
        for node in self._nodes:
            out += struct.pack(
                f"<HHI{len(node.row_ids)}I", node.row, node.col, len(node.row_ids), *node.row_ids
            )
        return bytes(out)


class LinearScanIndex(RangeIndex):
    """Plain linear traversal of every entry; the brute-force baseline."""

    kind = "brute_force"

    @classmethod
    def build(cls, rows: list[Row], config: IndexConfig) -> "LinearScanIndex":
        return cls(rows)

    def query(self, box: BoundingBox, trange: TimeRange, should_cancel=None) -> set[str]:
        qlo_x, qhi_x = box.min_lon, box.max_lon
        qlo_y, qhi_y = box.min_lat, box.max_lat
        qt0, qt1 = trange.start, trange.end
        rows = self._rows
        hits: set[str] = set()
        for start in range(0, len(rows), 256):  # polls as often as _filter
            if should_cancel is not None and should_cancel():
                raise QueryCancelled()
            for tile_id, lo_x, hi_x, lo_y, hi_y, t0, t1 in rows[start : start + 256]:
                if (
                    lo_x <= qhi_x
                    and qlo_x <= hi_x
                    and lo_y <= qhi_y
                    and qlo_y <= hi_y
                    and t0 <= qt1
                    and qt0 <= t1
                ):
                    hits.add(tile_id)
        return hits

    def estimate_cost(self, box: BoundingBox, trange: TimeRange) -> float:
        return _LS_FIXED + _LS_PER_ROW * len(self._rows)

    def _serialize(self) -> bytes:
        return b"GXLS" + struct.pack("<H", 1) + _pack_entries(self._rows)


_BUILDERS = {
    IndexKind.GEOHASH.value: GeoHashIndex.build,
    IndexKind.QUADTREE.value: QuadTreeIndex.build,
    IndexKind.ORTHOLIST.value: OrthoGridIndex.build,
    LinearScanIndex.kind: LinearScanIndex.build,
}


def build_index(kind, entries, config: IndexConfig | None = None) -> RangeIndex:
    """Build one index kind from entries; records build wall time."""
    return build_index_from_rows(kind, _rows_from_entries(entries), config)


def build_index_from_rows(kind, rows: list[Row], config: IndexConfig | None = None) -> RangeIndex:
    """Build one index kind from rows already validated by _rows_from_entries.

    build_seconds times the traversal only, not the validation.
    """
    key = kind.value if isinstance(kind, IndexKind) else str(kind)
    if key not in _BUILDERS:
        raise ValidationError(f"unknown index kind {kind!r}")
    config = config or IndexConfig()
    started = time.perf_counter()
    idx = _BUILDERS[key](rows, config)
    idx.build_seconds = time.perf_counter() - started
    return idx
