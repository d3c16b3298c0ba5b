"""Per-kind index behavior: examples, oracle equivalence, structure, formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_entries, oracle_scan, random_queries, random_rows
from georace.errors import DuplicateTileError, ValidationError
from georace.geo import BoundingBox, TimeRange
from georace.indexes import (
    SINGLE_KINDS,
    GeoHashIndex,
    IndexConfig,
    IndexEntry,
    OrthoGridIndex,
    QuadTreeIndex,
    QueryCancelled,
    build_index,
)

ALL_KINDS = SINGLE_KINDS + ("brute_force",)


def build_from_rows(kind, rows, **cfg):
    return build_index(kind, make_entries(rows), IndexConfig(**cfg))


class TestBuildValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            build_index("rtree", [])

    def test_duplicate_tile_id_rejected(self):
        rows = [
            ("t1", 0.0, 1.0, 0.0, 1.0, 0, 10),
            ("t1", 5.0, 6.0, 5.0, 6.0, 0, 10),
        ]
        for kind in ALL_KINDS:
            with pytest.raises(DuplicateTileError):
                build_from_rows(kind, rows)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_corpus_queries_empty(self, kind):
        idx = build_from_rows(kind, [])
        assert idx.query(BoundingBox(-180, 180, -90, 90), TimeRange(0, 10)) == set()


class TestExamples:
    """Hand-checked single-tile and 2x2-block cases, identical for every kind."""

    ROWS = [("t1", 10.0, 11.0, 20.0, 21.0, 100, 200)]

    BLOCK = [
        ("nw", 10.0, 11.0, 21.0, 22.0, 50, 50),
        ("ne", 11.0, 12.0, 21.0, 22.0, 60, 60),
        ("sw", 10.0, 11.0, 20.0, 21.0, 70, 70),
        ("se", 11.0, 12.0, 20.0, 21.0, 80, 80),
    ]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_tile_hit_and_miss(self, kind):
        idx = build_from_rows(kind, self.ROWS)
        assert idx.query(BoundingBox(10.5, 10.6, 20.5, 20.6), TimeRange(150, 150)) == {"t1"}
        assert idx.query(BoundingBox(30.0, 31.0, 20.0, 21.0), TimeRange(150, 150)) == set()
        assert idx.query(BoundingBox(10.5, 10.6, 20.5, 20.6), TimeRange(300, 400)) == set()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_boundary_contact_counts(self, kind):
        idx = build_from_rows(kind, self.ROWS)
        # box touching the tile's western edge, and the exact end instant
        assert idx.query(BoundingBox(9.0, 10.0, 20.0, 21.0), TimeRange(200, 500)) == {"t1"}
        # just past the corner in space
        assert idx.query(BoundingBox(11.5, 12.0, 21.5, 22.0), TimeRange(100, 200)) == set()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_two_by_two_block(self, kind):
        idx = build_from_rows(kind, self.BLOCK)
        union = BoundingBox(10.0, 12.0, 20.0, 22.0)
        assert idx.query(union, TimeRange(0, 100)) == {"nw", "ne", "sw", "se"}
        # interior point of one quadrant
        assert idx.query(BoundingBox(11.5, 11.5, 20.5, 20.5), TimeRange(0, 100)) == {"se"}


class TestOracleEquivalence:
    """Every kind returns exactly the brute-definition result set."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_random_corpus_matches_oracle(self, kind):
        rows = random_rows(250, seed=11)
        idx = build_from_rows(kind, rows)
        for box, trange in random_queries(150, seed=11):
            expected = oracle_scan(rows, box, trange)
            got = idx.query(BoundingBox(*box), TimeRange(*trange))
            assert got == expected, f"{kind} disagrees on {box} {trange}"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_coarser_and_finer_configs_match_oracle(self, kind):
        rows = random_rows(150, seed=23)
        # the fine config gets proportionally thin footprints, or geohash
        # registration would dominate the test run
        thin = [
            (tid, x0, x0 + (x1 - x0) * 0.05, y0, y0 + (y1 - y0) * 0.05, t0, t1)
            for tid, x0, x1, y0, y1, t0, t1 in rows
        ]
        cases = (
            (rows, IndexConfig(geohash_precision=3, quad_leaf_capacity=2, grid_cell_deg=5.0)),
            (thin, IndexConfig(geohash_precision=6, quad_leaf_capacity=64, quad_max_depth=4,
                               grid_cell_deg=0.5)),
        )
        for case_rows, cfg in cases:
            idx = build_index(kind, make_entries(case_rows), cfg)
            for box, trange in random_queries(60, seed=24):
                assert idx.query(BoundingBox(*box), TimeRange(*trange)) == oracle_scan(
                    case_rows, box, trange
                )

    @given(
        data=st.data(),
        qx=st.floats(-20.0, 19.0),
        qy=st.floats(-20.0, 19.0),
        qw=st.floats(0.0, 1.0),
        qh=st.floats(0.0, 1.0),
        t0=st.integers(0, 100),
        dt=st.integers(0, 50),
    )
    @settings(max_examples=60)
    def test_property_small_corpus_all_kinds(self, data, qx, qy, qw, qh, t0, dt):
        n = data.draw(st.integers(1, 25))
        rows = []
        for i in range(n):
            x0 = data.draw(st.floats(-20.0, 19.0))
            y0 = data.draw(st.floats(-20.0, 19.0))
            w = data.draw(st.sampled_from((0.0, 0.25, 0.5)))
            h = data.draw(st.sampled_from((0.0, 0.25, 0.5)))
            s = data.draw(st.integers(0, 100))
            rows.append((f"t{i}", x0, x0 + w, y0, y0 + h, s, s + data.draw(st.integers(0, 20))))
        box = (qx, qx + qw, qy, qy + qh)
        trange = (t0, t0 + dt)
        expected = oracle_scan(rows, box, trange)
        for kind in ALL_KINDS:
            idx = build_from_rows(kind, rows)
            assert idx.query(BoundingBox(*box), TimeRange(*trange)) == expected


def _quad_levels(root):
    """Node count per depth of a quadtree, root first."""
    levels, level = [], [root]
    while level:
        levels.append(len(level))
        level = [child for node in level for child in (node.children or ())]
    return levels


class TestQuadTreeStructure:
    def test_overflow_splits(self):
        rows = [(f"t{i}", 1.0 + i * 0.01, 1.01 + i * 0.01, 1.0, 1.01, 0, 0) for i in range(9)]
        idx = build_from_rows("quadtree", rows, quad_leaf_capacity=8)
        assert idx.root.children is not None
        assert len(idx.root.children) == 4

    def test_under_capacity_stays_single_node(self):
        rows = [(f"t{i}", 1.0 + i, 1.5 + i, 1.0, 1.5, 0, 0) for i in range(8)]
        idx = build_from_rows("quadtree", rows, quad_leaf_capacity=8)
        assert idx.root.children is None
        assert len(idx.root.row_ids) == 8

    def test_identical_footprints_bounded_by_max_depth(self):
        rows = [(f"t{i}", 5.0, 5.1, 5.0, 5.1, 0, 0) for i in range(40)]
        idx = build_from_rows("quadtree", rows, quad_leaf_capacity=8, quad_max_depth=3)
        # one path of splits (no split line crosses the footprint down to
        # depth 3), stopped at max depth with every row in one overfull leaf
        assert _quad_levels(idx.root) == [1, 4, 4, 4]
        node = idx.root
        while node.children is not None:
            node = next(child for child in node.children if child.children or child.row_ids)
        assert len(node.row_ids) == 40
        assert idx.query(BoundingBox(5.0, 5.1, 5.0, 5.1), TimeRange(0, 0)) == {
            f"t{i}" for i in range(40)
        }

    def test_meridian_spanning_entry_found_from_both_sides(self):
        rows = [("span", -1.0, 1.0, -1.0, 1.0, 0, 0)] + [
            (f"f{i}", 10.0 + i * 0.01, 10.01 + i * 0.01, 10.0, 10.01, 0, 0) for i in range(20)
        ]
        idx = build_from_rows("quadtree", rows, quad_leaf_capacity=2)
        assert "span" in idx.query(BoundingBox(-0.9, -0.8, 0.1, 0.2), TimeRange(0, 0))
        assert "span" in idx.query(BoundingBox(0.8, 0.9, 0.1, 0.2), TimeRange(0, 0))


def grid_cells(idx):
    """(row, col) of each ortho grid node, in the index's node order."""
    return [(node.row, node.col) for node in idx._nodes]


class TestOrthoGridStructure:
    def test_north_edge_is_row_zero(self):
        rows = [("arctic", -180.0, -179.0, 89.0, 90.0, 0, 0)]
        idx = build_from_rows("ortholist", rows, grid_cell_deg=1.0)
        assert (0, 0) in grid_cells(idx)

    def test_walk_down_rows_increase(self):
        rows = [
            ("a", 10.2, 10.8, 80.2, 80.8, 0, 0),
            ("b", 10.2, 10.8, 40.2, 40.8, 0, 0),
            ("c", 10.2, 10.8, -30.8, -30.2, 0, 0),
        ]
        idx = build_from_rows("ortholist", rows, grid_cell_deg=1.0)
        col = 190  # 10.x east -> (10 + 180) // 1
        cells = grid_cells(idx)
        assert cells == sorted(cells)  # row-major: rows count southward
        assert [r for r, c in cells if c == col] == [9, 49, 120]  # 90 - lat ceiling per row

    def test_cell_spanning_tile_registered_in_all_touched_cells(self):
        rows = [("wide", 10.2, 13.8, 50.2, 50.8, 0, 0)]
        idx = build_from_rows("ortholist", rows, grid_cell_deg=1.0)
        for lon in (10.5, 11.5, 12.5, 13.5):
            hit = idx.query(BoundingBox(lon, lon, 50.5, 50.5), TimeRange(0, 0))
            assert hit == {"wide"}


class TestSerialization:
    MAGICS = {
        "geohash": b"GXGH",
        "quadtree": b"GXQT",
        "ortholist": b"GXOL",
        "brute_force": b"GXLS",
    }

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic_and_tagged(self, kind):
        rows = random_rows(120, seed=31)
        a = build_from_rows(kind, rows).to_bytes()
        b = build_from_rows(kind, rows).to_bytes()
        assert a == b
        assert a[:4] == self.MAGICS[kind]
        assert len(a) > 10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_different_corpora_serialize_differently(self, kind):
        a = build_from_rows(kind, random_rows(50, seed=1)).to_bytes()
        b = build_from_rows(kind, random_rows(50, seed=2)).to_bytes()
        assert a != b


class TestCancellation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_cancel_callback_aborts_query(self, kind):
        rows = random_rows(200, seed=41)
        idx = build_from_rows(kind, rows)
        with pytest.raises(QueryCancelled):
            idx.query(BoundingBox(-170, 170, -80, 80), TimeRange(0, 10_000),
                      should_cancel=lambda: True)


def test_entry_helper_round_trip():
    entry = IndexEntry("t9", BoundingBox(1.0, 2.0, 3.0, 4.0), TimeRange(5, 6))
    assert entry.as_row() == ("t9", 1.0, 2.0, 3.0, 4.0, 5, 6)


def test_geohash_index_classes_exposed():
    rows = [("t1", 0.0, 0.1, 0.0, 0.1, 0, 0)]
    assert isinstance(build_from_rows("geohash", rows), GeoHashIndex)
    assert isinstance(build_from_rows("quadtree", rows), QuadTreeIndex)
    assert isinstance(build_from_rows("ortholist", rows), OrthoGridIndex)
