"""Binary band format and scene .npz container: round trips and corruption."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georace.errors import CorruptionError
from georace.formats import (
    load_scene_npz,
    pack_band,
    save_scene_npz,
    scene_meta_dict,
    unpack_band,
)
from georace.geo import BoundingBox


class TestBandBlob:
    def test_header_layout(self):
        grid = np.arange(6, dtype=np.float32).reshape(2, 3)
        blob = pack_band(grid)
        assert blob[:4] == b"MIXR"
        assert struct.unpack_from("<HII", blob, 4) == (1, 2, 3)
        assert len(blob) == 14 + 2 * 3 * 4

    def test_payload_is_row_major_little_endian(self):
        grid = np.array([[1.5, -2.0], [0.25, 3.0]], dtype=np.float32)
        blob = pack_band(grid)
        assert blob[14:] == struct.pack("<4f", 1.5, -2.0, 0.25, 3.0)

    def test_round_trip_bit_exact_with_nan(self):
        grid = np.array([[np.nan, 1.0], [2.0, np.nan]], dtype=np.float32)
        again = unpack_band(pack_band(grid))
        assert again.tobytes() == grid.tobytes()
        assert pack_band(again) == pack_band(grid)

    @given(
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40)
    def test_round_trip_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=(rows, cols)).astype(np.float32)
        again = unpack_band(pack_band(grid))
        assert again.shape == (rows, cols)
        assert again.tobytes() == grid.tobytes()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b[:10],  # truncated header
            lambda b: b"XXXX" + b[4:],  # wrong magic
            lambda b: b[:4] + struct.pack("<H", 9) + b[6:],  # wrong version
            lambda b: b[:-3],  # payload shorter than rows*cols
            lambda b: b + b"\x00" * 4,  # trailing junk
        ],
    )
    def test_corruption_detected(self, mutate):
        blob = pack_band(np.ones((3, 3), dtype=np.float32))
        with pytest.raises(CorruptionError):
            unpack_band(mutate(blob))


class TestSceneNpz:
    def scene(self):
        rng = np.random.default_rng(0)
        bands = {
            "NIR": rng.random((5, 4)).astype(np.float32),
            "Red": rng.random((5, 4)).astype(np.float32),
        }
        meta = scene_meta_dict(BoundingBox(0.0, 1.0, 2.0, 3.0), 1000, "landsat8", ["NIR", "Red"])
        return bands, meta

    def test_round_trip(self, tmp_path):
        bands, meta = self.scene()
        path = tmp_path / "scene.npz"
        save_scene_npz(path, bands, meta)
        loaded_bands, loaded_meta = load_scene_npz(path)
        assert loaded_meta == meta
        assert set(loaded_bands) == {"NIR", "Red"}
        for label in bands:
            assert loaded_bands[label].tobytes() == bands[label].tobytes()

    def test_write_is_deterministic(self, tmp_path):
        bands, meta = self.scene()
        save_scene_npz(tmp_path / "a.npz", bands, meta)
        save_scene_npz(tmp_path / "b.npz", bands, meta)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, band_NIR=np.ones((2, 2), dtype=np.float32))
        with pytest.raises(CorruptionError):
            load_scene_npz(path)

    def test_bandless_scene_rejected(self, tmp_path):
        bands, meta = self.scene()
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            meta=np.frombuffer(b'{"x": 1}', dtype=np.uint8),
        )
        with pytest.raises(CorruptionError):
            load_scene_npz(path)
