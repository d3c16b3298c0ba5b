"""Vegetation index math and mosaic assembly."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from georace.bandmath import (
    MAX_MOSAIC_PIXELS,
    InfoKind,
    Mosaic,
    _canvas,
    _layout,
    _paint_index,
    assemble_mosaic,
    compute_index,
    mosaic_shape,
)
from georace.errors import ValidationError
from georace.geo import BoundingBox
from georace.store import BandGrid, TileMetadata


def grid(values, label="NIR"):
    return BandGrid(label, np.asarray(values, dtype=np.float32))


def pixel_oracle(kind, n, r):
    """Scalar reference for one pixel, written independently of the array code."""
    if math.isnan(n) or math.isnan(r) or n < 0.0 or r < 0.0:
        return math.nan
    if kind is InfoKind.NDVI:
        return math.nan if n + r == 0.0 else (n - r) / (n + r)
    if kind is InfoKind.RVI:
        return math.nan if r == 0.0 else n / r
    return n - r


def reference_index(kind, n, r):
    """compute_index as first written: float32 copies, np.where on the
    denominator, one no-data mask at the end."""
    n = n.astype(np.float32)
    r = r.astype(np.float32)
    invalid = np.isnan(n) | np.isnan(r) | (n < 0.0) | (r < 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind is InfoKind.NDVI:
            denom = n + r
            out = np.where(denom == 0.0, np.nan, (n - r) / denom)
        elif kind is InfoKind.RVI:
            out = np.where(r == 0.0, np.nan, n / r)
        else:
            out = n - r
    out = out.astype(np.float32)
    out[invalid | ~np.isfinite(out)] = np.nan
    return out


def reference_index_mosaic(kind, tiles, query):
    """The index mosaic as the engine first built it: reference_index (which
    compute_index matches bit for bit) over each whole tile, then every tile
    with an overlap painted in catalog order."""
    px = tiles[0][0].bbox.width / tiles[0][1].cols
    rows, cols = canvas_shape = mosaic_shape(query, px)
    canvas = np.full(canvas_shape, np.nan, dtype=np.float32)
    provenance = []
    for meta, nir, red in sorted(tiles, key=lambda t: (t[0].capture_time, t[0].tile_id)):
        src = reference_index(kind, nir.values, red.values)
        off_r = round((query.max_lat - meta.bbox.max_lat) / px)
        off_c = round((meta.bbox.min_lon - query.min_lon) / px)
        r0 = max(0, off_r)
        c0 = max(0, off_c)
        r1 = min(rows, off_r + src.shape[0])
        c1 = min(cols, off_c + src.shape[1])
        if r0 >= r1 or c0 >= c1:
            continue
        canvas[r0:r1, c0:c1] = src[r0 - off_r : r1 - off_r, c0 - off_c : c1 - off_c]
        provenance.append(meta.tile_id)
    return canvas, tuple(provenance)


def band_pairs(*pixels):
    """(NIR, Red) pixel pairs as a 1 x k x 2 float32 array."""
    return np.array([pixels], dtype=np.float32)


def meta_for(tile_id, bbox, capture_time, satellite="landsat8", shape=None):
    """A catalog row; assemble_mosaic takes the band shape from the grids, so
    only the layout tests give one."""
    return TileMetadata(
        tile_id=tile_id,
        bbox=bbox,
        capture_time=capture_time,
        satellite=satellite,
        band_labels=("NIR", "Red"),
        shape=shape,
        checksums={},
    )


class TestInfoKind:
    def test_parse_strings_and_instances(self):
        assert InfoKind.parse("ndvi") is InfoKind.NDVI
        assert InfoKind.parse(" RVI ") is InfoKind.RVI
        assert InfoKind.parse("Dvi") is InfoKind.DVI
        assert InfoKind.parse(InfoKind.NDVI) is InfoKind.NDVI

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValidationError, match="evi"):
            InfoKind.parse("evi")


class TestComputeIndex:
    def test_known_values(self):
        nir = grid([[0.8, 0.5]])
        red = grid([[0.2, 0.5]], "Red")
        assert np.allclose(compute_index(InfoKind.NDVI, nir, red).values, [[0.6, 0.0]])
        assert np.allclose(compute_index(InfoKind.RVI, nir, red).values, [[4.0, 1.0]])
        assert np.allclose(
            compute_index(InfoKind.DVI, nir, red).values,
            np.float32(0.8) - np.float32(0.2),
            atol=0,
        ) or np.allclose(compute_index(InfoKind.DVI, nir, red).values[0, 0], 0.6)

    def test_equal_bands_give_zero_ndvi(self):
        vals = np.random.default_rng(3).uniform(0.1, 0.9, (16, 16)).astype(np.float32)
        out = compute_index("ndvi", grid(vals), grid(vals, "Red"))
        assert np.all(out.values == 0.0)

    def test_zero_denominator_is_no_data(self):
        nir = grid([[0.0]])
        red = grid([[0.0]], "Red")
        assert np.isnan(compute_index(InfoKind.NDVI, nir, red).values[0, 0])
        assert np.isnan(compute_index(InfoKind.RVI, nir, red).values[0, 0])
        # DVI has no denominator: 0 - 0 = 0
        assert compute_index(InfoKind.DVI, nir, red).values[0, 0] == 0.0

    def test_negative_reflectance_is_no_data(self):
        nir = grid([[-0.1, 0.5]])
        red = grid([[0.2, -0.5]], "Red")
        for kind in InfoKind:
            out = compute_index(kind, nir, red).values
            assert np.isnan(out).all()

    def test_nan_propagates(self):
        nir = grid([[np.nan, 0.5]])
        red = grid([[0.2, np.nan]], "Red")
        for kind in InfoKind:
            assert np.isnan(compute_index(kind, nir, red).values).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compute_index(InfoKind.NDVI, grid(np.zeros((2, 2))), grid(np.zeros((2, 3)), "Red"))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (256, 256)])
    @pytest.mark.parametrize("kind", list(InfoKind))
    def test_matches_pixel_oracle(self, kind, shape):
        rng = np.random.default_rng(hash((kind.value, shape)) % 2**31)
        n = rng.uniform(-0.2, 1.0, shape).astype(np.float32)
        r = rng.uniform(-0.2, 1.0, shape).astype(np.float32)
        n[rng.random(shape) < 0.1] = np.nan
        r[rng.random(shape) < 0.1] = np.nan
        out = compute_index(kind, grid(n), grid(r, "Red"))
        assert out.values.dtype == np.float32
        assert out.values.shape == shape
        for idx in np.ndindex(shape):
            want = pixel_oracle(kind, float(n[idx]), float(r[idx]))
            have = float(out.values[idx])
            if math.isnan(want):
                assert math.isnan(have), (idx, want, have)
            else:
                assert have == pytest.approx(want, rel=1e-5), (idx, want, have)

    @given(
        kind=st.sampled_from(list(InfoKind)),
        bands=hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(2)),
            elements=st.one_of(
                st.floats(-1.0, 2.0, width=32), st.just(math.nan)
            ),
        ),
    )
    # a Red reflectance near zero: NIR / Red overflows float32
    @example(kind=InfoKind.RVI, bands=np.array([[[1.0, 1e-45]]], dtype=np.float32))
    @settings(max_examples=80, deadline=None)
    def test_properties(self, kind, bands):
        nir = grid(bands[..., 0])
        red = grid(bands[..., 1], "Red")
        out = compute_index(kind, nir, red).values
        either_bad = (
            np.isnan(bands[..., 0])
            | np.isnan(bands[..., 1])
            | (bands[..., 0] < 0)
            | (bands[..., 1] < 0)
        )
        assert np.isnan(out[either_bad]).all()
        if kind is InfoKind.NDVI:
            ok = ~np.isnan(out)
            assert np.all(out[ok] >= -1.0) and np.all(out[ok] <= 1.0)
        if kind is InfoKind.RVI:
            ok = ~np.isnan(out)
            assert np.all(out[ok] >= 0.0)


    @given(
        kind=st.sampled_from(list(InfoKind)),
        bands=hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(2)),
            elements=st.one_of(
                st.floats(-1.0, 2.0, width=32),
                st.sampled_from([math.nan, 0.0, -0.0, 1e-45, -1e-45, 3e38]),
                st.floats(allow_infinity=False, width=32),
            ),
        ),
    )
    @example(kind=InfoKind.NDVI, bands=band_pairs((math.nan, 0.5), (0.5, math.nan)))
    @example(kind=InfoKind.RVI, bands=band_pairs((-0.1, 0.5), (0.5, -0.5), (-0.0, 0.5)))
    @example(kind=InfoKind.NDVI, bands=band_pairs((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0)))
    @example(kind=InfoKind.RVI, bands=band_pairs((0.0, 0.0), (0.7, 0.0)))
    @example(kind=InfoKind.DVI, bands=band_pairs((0.0, 0.0), (-0.0, 0.0), (math.nan, 1.0)))
    @example(kind=InfoKind.RVI, bands=band_pairs((1.0, 1e-45)))
    @example(kind=InfoKind.DVI, bands=band_pairs((3e38, -3e38), (0.2, 0.7)))
    @settings(max_examples=200, deadline=None)
    def test_bits_match_reference(self, kind, bands):
        n, r = bands[..., 0], bands[..., 1]
        got = compute_index(kind, grid(n), grid(r, "Red")).values
        want = reference_index(kind, n, r)
        assert got.dtype == np.float32 and got.shape == n.shape
        assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()

    def test_result_read_only_and_unshared(self):
        rng = np.random.default_rng(5)
        n = rng.uniform(-0.1, 1.0, (16, 16)).astype(np.float32)
        r = rng.uniform(-0.1, 1.0, (16, 16)).astype(np.float32)
        nir, red = grid(n), grid(r, "Red")
        results = [compute_index(kind, nir, red).values for kind in InfoKind]
        for i, out in enumerate(results):
            assert not out.flags.writeable
            for other in [n, r, nir.values, red.values] + results[i + 1:]:
                assert not np.shares_memory(out, other)


LAYOUT_PX = 0.25
LAYOUT_QUERY = BoundingBox(0.0, 2.0, 0.0, 2.0)  # an 8 x 8 canvas
LAYOUT_PIXELS = st.one_of(
    st.floats(-1.0, 2.0, width=32),
    st.sampled_from([math.nan, 0.0, -0.0, 1e-45, -0.5]),
)


def layout_tile(i, col, row, width, height, capture, bands):
    """Tile i with its NW pixel at canvas (row, col) of LAYOUT_QUERY."""
    lon = col * LAYOUT_PX
    lat = LAYOUT_QUERY.max_lat - row * LAYOUT_PX
    bbox = BoundingBox(lon, lon + width * LAYOUT_PX, lat - height * LAYOUT_PX, lat)
    meta = meta_for(f"t{i}", bbox, capture, shape=(height, width))
    return meta, grid(bands[..., 0]), grid(bands[..., 1], "Red")


@st.composite
def index_layouts(draw):
    """1-6 tiles around LAYOUT_QUERY, in any order: inside, overlapping,
    covering it, touching its edges from outside, or outside; capture times
    often equal."""
    tiles = []
    for i in range(draw(st.integers(1, 6))):
        col, row = draw(st.integers(-4, 9)), draw(st.integers(-4, 9))
        width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        bands = draw(hnp.arrays(np.float32, (height, width, 2), elements=LAYOUT_PIXELS))
        tiles.append(layout_tile(i, col, row, width, height, draw(st.integers(0, 2)), bands))
    return draw(st.permutations(tiles))


def filled(height, width, nir, red):
    bands = np.empty((height, width, 2), dtype=np.float32)
    bands[..., 0], bands[..., 1] = nir, red
    return bands


class TestIndexMosaic:
    @given(kind=st.sampled_from(list(InfoKind)), tiles=index_layouts(), order=st.randoms())
    # four revisits of a footprint that covers the canvas, two of them tied
    @example(kind=InfoKind.NDVI, tiles=[
        layout_tile(i, -1, -1, 10, 10, t, filled(10, 10, 0.5 + i / 8, 0.25))
        for i, t in enumerate((0, 1, 1, 2))
    ], order=random.Random(1))
    # a newer tile covers part of an older one; a third touches the east edge
    @example(kind=InfoKind.RVI, tiles=[
        layout_tile(0, 0, 0, 8, 8, 0, filled(8, 8, 0.0, 0.0)),
        layout_tile(1, 2, 2, 4, 4, 1, filled(4, 4, -0.5, 0.25)),
        layout_tile(2, 8, 0, 3, 3, 2, filled(3, 3, 0.5, math.nan)),
    ], order=random.Random(2))
    @settings(max_examples=200, deadline=None)
    def test_bits_match_full_tile_paint(self, kind, tiles, order):
        want, provenance = reference_index_mosaic(kind, tiles, LAYOUT_QUERY)
        in_catalog_order = sorted(tiles, key=lambda t: (t[0].capture_time, t[0].tile_id))
        got = assemble_mosaic(
            [(meta, compute_index(kind, nir, red)) for meta, nir, red in in_catalog_order],
            LAYOUT_QUERY,
        )
        assert got.values.dtype == np.float32 and got.values.shape == want.shape
        assert got.values.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()
        assert got.provenance == provenance
        assert got.pixel_size_deg == LAYOUT_PX
        # the engine's way: a layout from the catalog rows, then the per-tile
        # step in shuffled order; every pixel has at most one owner
        layout = _layout([(meta, meta.shape) for meta, _, _ in tiles], LAYOUT_QUERY, None)
        assert layout.provenance == provenance
        paint = list(layout.paint)
        order.shuffle(paint)
        canvas = _canvas(layout)
        owners = np.zeros(layout.shape, dtype=int)
        for i, dst, src, mask in paint:
            _, nir, red = tiles[i]
            _paint_index(kind, nir.values, red.values, canvas, dst, src, mask)
            owners[dst] += 1 if mask is None else mask
        assert owners.max() <= 1
        # the layout's gaps are the pixels no tile owns
        if layout.gaps is None:
            assert owners.all()
        else:
            assert np.array_equal(layout.gaps, owners == 0) and layout.gaps.any()
        assert canvas.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()


class TestMosaic:
    def test_identity_single_tile(self):
        bbox = BoundingBox(10.0, 11.0, 20.0, 21.0)
        vals = np.arange(16, dtype=np.float32).reshape(4, 4)
        mosaic = assemble_mosaic([(meta_for("t1", bbox, 100), grid(vals))], bbox)
        assert mosaic.values.tobytes() == vals.tobytes()
        assert mosaic.rows == 4 and mosaic.cols == 4
        assert mosaic.pixel_size_deg == pytest.approx(0.25)
        assert mosaic.provenance == ("t1",)

    def test_two_by_two_block_quadrants(self):
        tiles = []
        grids = {}
        for name, (lon, lat) in {
            "nw": (0.0, 1.0), "ne": (1.0, 1.0), "sw": (0.0, 0.0), "se": (1.0, 0.0),
        }.items():
            vals = np.full((4, 4), float(len(grids)), dtype=np.float32)
            grids[name] = vals
            tiles.append((meta_for(name, BoundingBox(lon, lon + 1, lat, lat + 1), 10), grid(vals)))
        mosaic = assemble_mosaic(tiles, BoundingBox(0.0, 2.0, 0.0, 2.0))
        assert mosaic.values.shape == (8, 8)
        # row 0 is north: NW upper-left, SE lower-right
        assert mosaic.values[:4, :4].tobytes() == grids["nw"].tobytes()
        assert mosaic.values[:4, 4:].tobytes() == grids["ne"].tobytes()
        assert mosaic.values[4:, :4].tobytes() == grids["sw"].tobytes()
        assert mosaic.values[4:, 4:].tobytes() == grids["se"].tobytes()
        assert not mosaic.no_data.any()

    def test_newest_capture_wins_overlap(self):
        bbox = BoundingBox(0.0, 1.0, 0.0, 1.0)
        old = np.full((4, 4), 1.0, dtype=np.float32)
        new = np.full((4, 4), 2.0, dtype=np.float32)
        out = assemble_mosaic(
            [(meta_for("a", bbox, 200), grid(new)), (meta_for("b", bbox, 100), grid(old))],
            bbox,
        )
        assert np.all(out.values == 2.0)
        assert out.provenance == ("b", "a")

    def test_capture_tie_broken_by_tile_id(self):
        bbox = BoundingBox(0.0, 1.0, 0.0, 1.0)
        out = assemble_mosaic(
            [
                (meta_for("t9", bbox, 100), grid(np.full((2, 2), 9.0, np.float32))),
                (meta_for("t1", bbox, 100), grid(np.full((2, 2), 1.0, np.float32))),
            ],
            bbox,
        )
        assert np.all(out.values == 9.0)

    def test_painting_matches_per_pixel_oracle(self):
        import random

        rng = random.Random(17)
        px = 0.25
        query = BoundingBox(0.0, 3.0, 0.0, 3.0)
        tiles = []
        for i in range(12):
            lon = rng.randrange(-2, 10) * px
            lat = rng.randrange(-2, 10) * px
            w = rng.randrange(1, 6)
            h = rng.randrange(1, 6)
            bbox = BoundingBox(lon, lon + w * px, lat, lat + h * px)
            vals = np.full((h, w), float(i + 1), dtype=np.float32)
            tiles.append((meta_for(f"t{i:02d}", bbox, rng.randrange(0, 4)), grid(vals)))
        mosaic = assemble_mosaic(tiles, query)
        # independent oracle: for each canvas pixel centre, latest covering tile
        ordered = sorted(tiles, key=lambda mg: (mg[0].capture_time, mg[0].tile_id))
        for r in range(mosaic.rows):
            lat_c = query.max_lat - (r + 0.5) * px
            for c in range(mosaic.cols):
                lon_c = query.min_lon + (c + 0.5) * px
                want = math.nan
                for meta, g in ordered:
                    b = meta.bbox
                    if b.min_lon < lon_c < b.max_lon and b.min_lat < lat_c < b.max_lat:
                        want = float(g.values[0, 0])
                have = float(mosaic.values[r, c])
                assert (math.isnan(want) and math.isnan(have)) or want == have

    def test_canvas_tiles_own_whole_has_no_gaps(self):
        # four tiles own every pixel: the canvas is not NaN-filled first
        tiles = [
            (meta_for(f"t{k}", BoundingBox(lon, lon + 1, lat, lat + 1), 10, shape=(4, 4)),
             grid(np.full((4, 4), float(k), np.float32)))
            for k, (lon, lat) in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        ]
        query = BoundingBox(0.0, 2.0, 0.0, 2.0)
        layout = _layout([(meta, meta.shape) for meta, _ in tiles], query, None)
        assert layout.gaps is None
        mosaic = assemble_mosaic(tiles, query)
        assert not mosaic.no_data.any()
        assert sorted(np.unique(mosaic.values)) == [0.0, 1.0, 2.0, 3.0]

    def test_canvas_gap_is_no_data(self):
        # one tile of a 2 x 2 block is missing: its quarter is the gap
        tiles = [
            (meta_for(f"t{k}", BoundingBox(lon, lon + 1, lat, lat + 1), 10, shape=(4, 4)),
             grid(np.full((4, 4), float(k), np.float32)))
            for k, (lon, lat) in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        ]
        query = BoundingBox(0.0, 2.0, 0.0, 2.0)
        layout = _layout([(meta, meta.shape) for meta, _ in tiles], query, None)
        want = np.zeros((8, 8), dtype=bool)
        want[:4, 4:] = True  # the north-east quarter
        assert np.array_equal(layout.gaps, want)
        mosaic = assemble_mosaic(tiles, query)
        assert np.array_equal(mosaic.no_data, want)
        empty = _layout([], query, 0.25)
        assert empty.gaps.all() and np.isnan(_canvas(empty)).all()

    def test_uncovered_pixels_are_no_data(self):
        tile = BoundingBox(0.0, 1.0, 0.0, 1.0)
        out = assemble_mosaic(
            [(meta_for("t", tile, 0), grid(np.ones((2, 2), np.float32)))],
            BoundingBox(0.0, 2.0, 0.0, 1.0),
        )
        assert not out.no_data[:, :2].any()
        assert out.no_data[:, 2:].all()

    def test_tile_partially_outside_query_is_clipped(self):
        tile = BoundingBox(-0.5, 0.5, -0.5, 0.5)
        out = assemble_mosaic(
            [(meta_for("t", tile, 0), grid(np.arange(4, dtype=np.float32).reshape(2, 2)))],
            BoundingBox(0.0, 1.0, 0.0, 1.0),
        )
        assert out.values.shape == (2, 2)
        # only the tile's NE pixel overlaps the query's SW pixel
        assert float(out.values[1, 0]) == 1.0
        assert np.isnan(out.values[0, 0]) and np.isnan(out.values[1, 1])

    def test_mixed_pixel_sizes_rejected(self):
        bbox = BoundingBox(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="pixel size"):
            assemble_mosaic(
                [
                    (meta_for("a", bbox, 0), grid(np.ones((2, 2), np.float32))),
                    (meta_for("b", bbox, 0), grid(np.ones((4, 4), np.float32))),
                ],
                bbox,
            )

    def test_non_square_pixels_rejected(self):
        bbox = BoundingBox(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="square"):
            assemble_mosaic([(meta_for("a", bbox, 0), grid(np.ones((2, 4), np.float32)))], bbox)

    def test_expected_pixel_size_enforced(self):
        bbox = BoundingBox(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="expected"):
            assemble_mosaic(
                [(meta_for("a", bbox, 0), grid(np.ones((2, 2), np.float32)))],
                bbox,
                pixel_size_deg=0.25,
            )

    def test_empty_needs_pixel_size(self):
        bbox = BoundingBox(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            assemble_mosaic([], bbox)
        out = assemble_mosaic([], bbox, pixel_size_deg=0.5)
        assert out.values.shape == (2, 2)
        assert out.no_data.all()
        assert out.provenance == ()

    def test_empty_mosaic_never_zero_sized(self):
        bbox = BoundingBox(0.0, 0.1, 0.0, 0.1)
        assert mosaic_shape(bbox, 10.0) == (1, 1)
        assert assemble_mosaic([], bbox, pixel_size_deg=10.0).values.shape == (1, 1)

    def test_mosaic_values_read_only(self):
        out = assemble_mosaic([], BoundingBox(0, 1, 0, 1), pixel_size_deg=0.5)
        with pytest.raises(ValueError):
            out.values[0, 0] = 1.0

    def test_assembled_canvas_read_only_and_unshared(self):
        bbox = BoundingBox(0.0, 1.0, 0.0, 1.0)
        vals = np.arange(16, dtype=np.float32).reshape(4, 4)
        tile = grid(vals)
        mosaic = assemble_mosaic([(meta_for("t", bbox, 0), tile)], bbox)
        assert not mosaic.values.flags.writeable
        with pytest.raises(ValueError):
            mosaic.values[0, 0] = 1.0
        assert not np.shares_memory(mosaic.values, vals)
        assert not np.shares_memory(mosaic.values, tile.values)

    def test_pixel_size_must_be_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            mosaic_shape(BoundingBox(0.0, 1.0, 0.0, 1.0), 0.0)
        with pytest.raises(ValidationError, match="positive"):
            assemble_mosaic([], BoundingBox(0.0, 1.0, 0.0, 1.0), pixel_size_deg=0.0)

    def test_mosaic_grid_must_be_two_dimensional(self):
        with pytest.raises(ValidationError):
            Mosaic(BoundingBox(0.0, 1.0, 0.0, 1.0), np.zeros(4, np.float32), 0.5, ())
        with pytest.raises(ValidationError):
            Mosaic(BoundingBox(0.0, 1.0, 0.0, 1.0), np.zeros((2, 2), np.float32), -0.5, ())


class TestMosaicLimit:
    WORLD = BoundingBox(-180.0, 180.0, -90.0, 90.0)
    PX = 0.25 / 256.0  # the default pixel size: 184320 x 368640 pixels, ~253 GiB

    def test_limit_is_inclusive(self):
        px = 2.0**-6
        rows = 2048
        cols = MAX_MOSAIC_PIXELS // rows
        assert rows * cols == MAX_MOSAIC_PIXELS
        assert mosaic_shape(BoundingBox(0.0, cols * px, 0.0, rows * px), px) == (rows, cols)
        with pytest.raises(ValidationError, match="limit"):
            mosaic_shape(BoundingBox(0.0, (cols + 1) * px, 0.0, rows * px), px)

    def test_world_box_refused_before_allocation(self):
        import tracemalloc

        tile = (meta_for("t", BoundingBox(0.0, 0.25, 0.0, 0.25), 0), grid(np.zeros((256, 256))))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with pytest.raises(ValidationError, match="limit"):
                assemble_mosaic([], self.WORLD, pixel_size_deg=self.PX)
            with pytest.raises(ValidationError, match="limit"):
                assemble_mosaic([tile], self.WORLD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
