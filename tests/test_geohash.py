import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from georace.errors import ValidationError
from georace.geo import BoundingBox, GeoPoint, intersects
from georace.geohash import (
    BASE32,
    cell_size,
    decode,
    encode,
    touching_cells,
)

from conftest import oracle_geohash

points = st.builds(
    GeoPoint, st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)
)
precisions = st.integers(1, 12)


class TestOracleItself:
    """Pin the reference oracle before using it to judge the codec."""

    def test_origin(self):
        assert oracle_geohash(0.0, 0.0, 1) == "s"

    def test_known_point(self):
        # classic published reference vector
        assert oracle_geohash(10.40744, 57.64911, 11) == "u4pruydqqvj"


class TestEncode:
    def test_origin_precision_1(self):
        assert encode(GeoPoint(0.0, 0.0), 1) == "s"

    def test_known_point_precision_11(self):
        assert encode(GeoPoint(10.40744, 57.64911), 11) == "u4pruydqqvj"

    @given(points, precisions)
    def test_matches_oracle(self, p, k):
        assert encode(p, k) == oracle_geohash(p.lon, p.lat, k)

    @given(points, precisions)
    def test_prefix_law(self, p, k):
        full = encode(p, 12)
        assert full.startswith(encode(p, k))

    @pytest.mark.parametrize("bad", [0, 13, -1, 2.0, True])
    def test_precision_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            encode(GeoPoint(0.0, 0.0), bad)


class TestDecode:
    def test_s_cell(self):
        assert decode("s") == BoundingBox(0.0, 45.0, 0.0, 45.0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            decode("")

    @pytest.mark.parametrize("bad", ["a", "il", "s o", "S"])
    def test_rejects_non_alphabet(self, bad):
        with pytest.raises(ValidationError):
            decode(bad)

    def test_rejects_overlong(self):
        with pytest.raises(ValidationError):
            decode("s" * 13)

    @given(points, precisions)
    def test_roundtrip_contains_point(self, p, k):
        assert decode(encode(p, k)).contains_point(p)

    @given(st.text(alphabet=BASE32, min_size=1, max_size=12))
    def test_center_reencodes_to_same_code(self, code):
        cell = decode(code)
        assert encode(cell.center(), len(code)) == code

    @given(points, st.integers(1, 11))
    def test_nesting(self, p, k):
        coarse = decode(encode(p, k))
        fine = decode(encode(p, k + 1))
        assert coarse.contains_box(fine)


class TestCellSize:
    def test_precision_1(self):
        assert cell_size(1) == (45.0, 45.0)

    def test_precision_5_square(self):
        w, h = cell_size(5)
        assert w == h == 360.0 / 8192.0

    @given(st.integers(1, 11))
    def test_shrinks(self, k):
        w1, h1 = cell_size(k)
        w2, h2 = cell_size(k + 1)
        assert w2 < w1 and h2 <= h1


@pytest.fixture(scope="module")
def all_cells_p3():
    """Decoded boxes of all 32^3 precision-3 cells, for exhaustive oracles."""
    out = {}
    for a in BASE32:
        for b in BASE32:
            for c in BASE32:
                code = a + b + c
                out[code] = decode(code)
    return out


class TestCover:
    """The touching cells cover the box: their union holds every point of it."""

    def test_world_is_all_32(self):
        world = BoundingBox(-180.0, 180.0, -90.0, 90.0)
        assert touching_cells(world, 1) == set(BASE32)

    @given(boxes_=st.tuples(st.floats(-179.0, 170.0), st.floats(-89.0, 80.0), st.floats(0.0, 8.0), st.floats(0.0, 8.0)), k=st.integers(1, 4))
    def test_cover_cells_intersect_box(self, boxes_, k):
        x0, y0, w, h = boxes_
        box = BoundingBox(x0, min(x0 + w, 180.0), y0, min(y0 + h, 90.0))
        for code in touching_cells(box, k):
            assert intersects(decode(code), box)

    @given(boxes_=st.tuples(st.floats(-179.0, 170.0), st.floats(-89.0, 80.0), st.floats(0.01, 8.0), st.floats(0.01, 8.0)), k=st.integers(1, 4))
    def test_cover_covers_interior_points(self, boxes_, k):
        x0, y0, w, h = boxes_
        box = BoundingBox(x0, min(x0 + w, 180.0), y0, min(y0 + h, 90.0))
        cells = touching_cells(box, k)
        probe = GeoPoint((box.min_lon + box.max_lon) / 2, (box.min_lat + box.max_lat) / 2)
        assert encode(probe, k) in cells


class TestTouchingCells:
    def test_boundary_abutting_neighbors_included(self):
        # box's west edge lies on the "s"/"t" column boundary at lon 45
        box = BoundingBox(45.0, 46.0, 0.0, 1.0)
        cells = touching_cells(box, 1)
        assert "s" in cells and "t" in cells

    def test_exhaustive_closed_intersection(self, all_cells_p3):
        rng = random.Random(99)
        for _ in range(50):
            w = rng.choice((0.0, rng.uniform(0.0, 12.0)))
            x0 = rng.uniform(-180.0, 180.0 - max(w, 0.1))
            y0 = rng.uniform(-90.0, 90.0 - 6.0)
            box = BoundingBox(x0, x0 + w, y0, y0 + rng.uniform(0.0, 6.0))
            expected = {
                code for code, cell in all_cells_p3.items() if intersects(cell, box)
            }
            assert touching_cells(box, 3) == expected
