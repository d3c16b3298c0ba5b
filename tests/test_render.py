"""PGM heatmap rendering."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from georace.bandmath import InfoKind, Mosaic
from georace.errors import ValidationError
from georace.geo import BoundingBox
from georace.render import (
    DISPLAY_RANGES,
    NO_DATA_BYTE,
    render_pgm,
    to_bytes_grid,
    write_pgm,
)


def reference_bytes_grid(values, kind):
    """The quantization as first written: gather the valid pixels, quantize
    them, scatter their bytes into a zeroed grid."""
    lo, hi = DISPLAY_RANGES[kind]
    arr = np.asarray(values, dtype=np.float64)
    valid = ~np.isnan(arr)
    norm = np.clip((arr - lo) / (hi - lo), 0.0, 1.0)
    out = np.zeros(arr.shape, dtype=np.uint8)
    out[valid] = (np.rint(norm[valid] * 254.0) + 1).astype(np.uint8)
    return out


# Every kind's clip edges, their float32 neighbours on both sides, the
# float32 values whose scaled value is exactly k + 0.5 (NDVI/DVI -0.5 and 0.5
# give 63.5 and 190.5; RVI 2.5 and 7.5 do too), a signed zero and no-data.
_EDGES = [-1.0, 1.0, 0.0, 10.0, -0.5, 0.5, 2.5, 7.5, -0.0, math.nan]
# float32 values that land on another byte when quantized in float32
_EDGES += [0.05118102580308914, 0.9803149104118347, 7.342519760131836, 5.688976764678955]
_EDGES += [float(np.nextafter(np.float32(v), np.float32(d)))
           for v in (-1.0, 1.0, 0.0, 10.0) for d in (-math.inf, math.inf)]
EDGE_GRID = np.array(_EDGES, dtype=np.float32).reshape(2, -1)
# float64 input keeps more half-way points exact: k = 15 for NDVI/DVI, 0 for RVI
HALFWAY_F64 = np.array([[-0.8779527559055118, 0.01968503937007874, math.nan]])


def mosaic_of(values):
    arr = np.asarray(values, dtype=np.float32)
    rows, cols = arr.shape
    px = 0.25
    return Mosaic(BoundingBox(0.0, cols * px, 0.0, rows * px), arr, px, ())


class TestQuantization:
    def test_anchor_points(self):
        vals = np.array([[-1.0, 0.0, 1.0]], dtype=np.float32)
        out = to_bytes_grid(vals, InfoKind.NDVI)
        # -1 -> 1, 0 -> 128, +1 -> 255
        assert out.tolist() == [[1, 128, 255]]

    def test_no_data_is_zero(self):
        out = to_bytes_grid(np.array([[np.nan, 0.5]], np.float32), InfoKind.NDVI)
        assert out[0, 0] == NO_DATA_BYTE
        assert out[0, 1] != NO_DATA_BYTE

    def test_out_of_range_clips(self):
        out = to_bytes_grid(np.array([[-5.0, 5.0]], np.float32), InfoKind.NDVI)
        assert out.tolist() == [[1, 255]]

    def test_rvi_range(self):
        out = to_bytes_grid(np.array([[0.0, 5.0, 10.0, 20.0]], np.float32), InfoKind.RVI)
        assert out.tolist() == [[1, 128, 255, 255]]

    def test_valid_pixels_never_collide_with_no_data(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(-3, 3, (32, 32)).astype(np.float32)
        for kind in InfoKind:
            out = to_bytes_grid(vals, kind)
            assert out.min() >= 1

    def test_monotone_in_value(self):
        vals = np.linspace(-1, 1, 255, dtype=np.float32).reshape(1, -1)
        out = to_bytes_grid(vals, InfoKind.DVI)
        assert np.all(np.diff(out.astype(int)) >= 0)

    def test_rejects_non_grid(self):
        with pytest.raises(ValidationError):
            to_bytes_grid(np.zeros(4, np.float32), InfoKind.NDVI)

    def test_display_ranges_cover_all_kinds(self):
        assert set(DISPLAY_RANGES) == set(InfoKind)

    @given(
        kind=st.sampled_from(list(InfoKind)),
        values=hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.one_of(
                st.floats(-12.0, 12.0, width=32),
                st.sampled_from(_EDGES),
                st.floats(width=32),
            ),
        ),
    )
    @example(kind=InfoKind.NDVI, values=EDGE_GRID)
    @example(kind=InfoKind.RVI, values=EDGE_GRID)
    @example(kind=InfoKind.DVI, values=EDGE_GRID)
    @example(kind=InfoKind.NDVI, values=HALFWAY_F64)
    @example(kind=InfoKind.RVI, values=HALFWAY_F64)
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_reference(self, kind, values):
        want = reference_bytes_grid(values, kind)
        got = to_bytes_grid(values, kind)
        assert got.dtype == np.uint8 and got.shape == values.shape
        assert got.tobytes() == want.tobytes()

    def test_input_left_unchanged(self):
        for dtype in (np.float32, np.float64):
            vals = np.array([[-2.0, 0.3, np.nan, 4.0]], dtype=dtype)
            before = vals.tobytes()
            to_bytes_grid(vals, InfoKind.NDVI)
            assert vals.tobytes() == before


class TestPgm:
    def test_golden_bytes(self):
        vals = np.array([[np.nan, 0.0], [1.0, -1.0]], dtype=np.float32)
        got = render_pgm(mosaic_of(vals), InfoKind.NDVI)
        assert got == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 1])

    def test_header_reports_cols_then_rows(self):
        vals = np.zeros((2, 5), dtype=np.float32)
        got = render_pgm(mosaic_of(vals), "ndvi")
        assert got.startswith(b"P5\n5 2\n255\n")
        assert len(got) == len(b"P5\n5 2\n255\n") + 10

    def test_all_no_data_renders_black(self):
        vals = np.full((3, 3), np.nan, dtype=np.float32)
        got = render_pgm(mosaic_of(vals), InfoKind.RVI)
        assert got.endswith(bytes(9))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
        m = mosaic_of(vals)
        assert render_pgm(m, InfoKind.NDVI) == render_pgm(m, InfoKind.NDVI)

    def test_kind_accepts_string(self):
        vals = np.zeros((1, 1), dtype=np.float32)
        assert render_pgm(mosaic_of(vals), "rvi") == render_pgm(mosaic_of(vals), InfoKind.RVI)

    def test_write_pgm_round_trip(self, tmp_path):
        vals = np.array([[0.25, -0.25]], dtype=np.float32)
        m = mosaic_of(vals)
        out = tmp_path / "x.pgm"
        write_pgm(m, out, InfoKind.NDVI)
        assert out.read_bytes() == render_pgm(m, InfoKind.NDVI)
