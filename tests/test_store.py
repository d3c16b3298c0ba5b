"""Replicated tile store: layout, replication, failover, integrity guards."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from conftest import oracle_scan
from georace.errors import (
    CorruptionError,
    DuplicateTileError,
    ReplicationError,
    UnavailableError,
    UnknownNodeError,
    ValidationError,
)
from georace.geo import BoundingBox, TimeRange
from georace.indexes import IndexConfig
from georace.store import (
    DEFAULT_BAND_LABELS,
    RasterScene,
    TileStore,
    compute_index_keys,
    quadtree_path,
    tile_dir,
    tile_path,
)
from georace.synth import SceneSpec, generate_scenes, write_scenes


def scene_at(lon, lat, t, satellite="landsat8", size=8, edge=1.0, labels=("NIR", "Red")):
    rng = np.random.default_rng(int(t) % 2**31)
    return RasterScene(
        bbox=BoundingBox(lon, lon + edge, lat, lat + edge),
        capture_time=t,
        satellite=satellite,
        bands=tuple((label, rng.random((size, size)).astype(np.float32)) for label in labels),
    )


@pytest.fixture
def store(tmp_path):
    return TileStore.create(tmp_path / "store")


class TestLifecycle:
    def test_create_rejects_too_few_nodes(self, tmp_path):
        with pytest.raises(ValidationError):
            TileStore.create(tmp_path / "s", nodes=2)

    def test_create_rejects_nonempty_root(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "junk").write_text("x")
        with pytest.raises(ValidationError):
            TileStore.create(root)

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(ValidationError):
            TileStore.open(tmp_path)

    def test_open_round_trips_catalog(self, store):
        ids = [store.ingest(scene_at(10.0 + i, 20.0, 1000 + i)) for i in range(5)]
        again = TileStore.open(store.root)
        assert [m.tile_id for m in again.catalog_rows()] == ids
        assert again.node_ids == store.node_ids


class TestIngest:
    def test_writes_three_replicas_and_one_catalog_row(self, store):
        scene = scene_at(10.0, 20.0, 1000, labels=DEFAULT_BAND_LABELS)
        tile_id = store.ingest(scene)
        meta = store.metadata(tile_id)
        holders = [
            node
            for node in store.node_ids
            if (store.root / "nodes" / node / tile_dir(meta)).is_dir()
        ]
        assert len(holders) == 3
        for node in holders:
            base = store.root / "nodes" / node / tile_dir(meta)
            assert sorted(p.name for p in base.iterdir()) == sorted(
                [f"{b}.band" for b in DEFAULT_BAND_LABELS] + ["meta.json"]
            )
        catalog = (store.root / "catalog.ndjson").read_text().strip().splitlines()
        assert len(catalog) == 1
        assert json.loads(catalog[0])["tile_id"] == tile_id

    def test_catalog_row_key_order_is_fixed(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        row = (store.root / "catalog.ndjson").read_text().strip()
        assert list(json.loads(row)) == [
            "tile_id", "min_lon", "max_lon", "min_lat", "max_lat", "capture_time",
            "satellite", "bands", "geohash", "quadtree_path", "grid_row", "grid_col",
            "checksums",
        ]

    def test_duplicate_rejected(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        with pytest.raises(DuplicateTileError):
            store.ingest(scene_at(10.0, 20.0, 1000))
        # different satellite is a different tile
        store.ingest(scene_at(10.0, 20.0, 1000, satellite="gaofen1"))

    def test_replication_needs_three_live_nodes(self, store):
        store.fail_node("node_02")
        with pytest.raises(ReplicationError):
            store.ingest(scene_at(10.0, 20.0, 1000))
        store.restore_node("node_02")
        store.ingest(scene_at(10.0, 20.0, 1000))

    def test_round_robin_over_five_nodes(self, tmp_path):
        store = TileStore.create(tmp_path / "s5", nodes=5)
        for i in range(5):
            store.ingest(scene_at(10.0 + i, 20.0, 1000 + i))
        reopened = TileStore.open(store.root)
        for i, meta in enumerate(store.catalog_rows()):
            expected = sorted(f"node_{(i + j) % 5:02d}" for j in range(3))
            # kept at ingest, probed after open: both in node (failover) order
            assert store.placement(meta.tile_id) == expected
            assert reopened.placement(meta.tile_id) == expected

    def test_ingest_scene_file_matches_direct_ingest(self, store, tmp_path):
        spec = SceneSpec(count=1, size_px=8)
        paths = write_scenes(spec, tmp_path / "scenes")
        tile_id = store.ingest_scene_file(paths[0])
        direct = next(iter(generate_scenes(spec)))
        assert tile_id == direct.tile_id
        fetched = store.fetch_band(tile_id, "NIR")
        assert fetched.values.tobytes() == direct.band("NIR").tobytes()


class TestLayout:
    def test_coordinate_tree_tokens(self, store):
        tile_id = store.ingest(scene_at(-3.5, 39.2, 1_577_836_800))  # 2020-01-01
        meta = store.metadata(tile_id)
        assert tile_dir(meta) == f"lon_-004/lat_039/2020/{tile_id}"
        assert tile_path(meta, "NIR").endswith("/NIR.band")

    def test_negative_and_positive_floors(self, store):
        cases = [
            (-0.5, -0.5, "lon_-001/lat_-001"),
            (0.0, 0.0, "lon_000/lat_000"),
            (-180.0, -90.0, "lon_-180/lat_-090"),
            (120.25, 8.75, "lon_120/lat_008"),
        ]
        for i, (lon, lat, prefix) in enumerate(cases):
            tile_id = store.ingest(scene_at(lon, lat, 2000 + i, edge=0.25))
            assert tile_dir(store.metadata(tile_id)).startswith(prefix)

    def test_year_comes_from_capture_time_utc(self, store):
        t_new_year = 1_609_459_199  # 2020-12-31T23:59:59Z
        tile_id = store.ingest(scene_at(10.0, 20.0, t_new_year))
        assert "/2020/" in tile_dir(store.metadata(tile_id))


class TestIndexKeys:
    def test_quadtree_path_of_world_is_empty(self):
        assert quadtree_path(BoundingBox(-180, 180, -90, 90), 12) == ""

    def test_quadtree_path_quadrants(self):
        assert quadtree_path(BoundingBox(-100, -99, 40, 41), 1) == "NW"
        assert quadtree_path(BoundingBox(100, 101, 40, 41), 1) == "NE"
        assert quadtree_path(BoundingBox(-100, -99, -41, -40), 1) == "SW"
        assert quadtree_path(BoundingBox(100, 101, -41, -40), 1) == "SE"

    def test_quadtree_path_descends(self):
        path = quadtree_path(BoundingBox(1.0, 1.25, 1.0, 1.25), 12)
        assert path.startswith("NE")
        assert len(path) % 2 == 0 and len(path) >= 4

    def test_keys_recomputable_from_bbox(self, store):
        tile_id = store.ingest(scene_at(100.1, 20.1, 1000, edge=0.25))
        meta = store.metadata(tile_id)
        assert meta.index_keys == compute_index_keys(meta.bbox, IndexConfig())

    def test_grid_row_zero_at_north_edge(self):
        keys = compute_index_keys(BoundingBox(0.0, 1.0, 89.9, 90.0), IndexConfig())
        assert keys.grid_row == 0


class TestFetch:
    def test_round_trip_bit_exact(self, store):
        scene = scene_at(10.0, 20.0, 1000)
        tile_id = store.ingest(scene)
        for label in ("NIR", "Red"):
            got = store.fetch_band(tile_id, label)
            assert got.values.tobytes() == scene.band(label).tobytes()

    def test_unknown_band_and_tile(self, store):
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000))
        with pytest.raises(ValidationError):
            store.fetch_band(tile_id, "Thermal")
        with pytest.raises(ValidationError):
            store.fetch_band("t000000000000", "NIR")

    def test_failover_returns_identical_bytes(self, store):
        scene = scene_at(10.0, 20.0, 1000)
        tile_id = store.ingest(scene)
        reference = store.fetch_band(tile_id, "NIR").values.tobytes()
        holders = store.placement(tile_id)
        store.fail_node(holders[0])
        assert store.fetch_band(tile_id, "NIR").values.tobytes() == reference
        store.fail_node(holders[1])
        assert store.fetch_band(tile_id, "NIR").values.tobytes() == reference
        store.fail_node(holders[2])
        with pytest.raises(UnavailableError):
            store.fetch_band(tile_id, "NIR")
        store.restore_node(holders[1])
        assert store.fetch_band(tile_id, "NIR").values.tobytes() == reference

    def test_corruption_names_the_node(self, store):
        scene = scene_at(10.0, 20.0, 1000)
        tile_id = store.ingest(scene)
        meta = store.metadata(tile_id)
        holders = store.placement(tile_id)

        def corrupt(node):
            victim = store.root / "nodes" / node / tile_path(meta, "NIR")
            victim.write_bytes(victim.read_bytes()[:-4] + b"\xde\xad\xbe\xef")

        # one corrupt replica: the read fails over to the next one
        corrupt(holders[0])
        assert store.fetch_band(tile_id, "NIR").values.tobytes() == scene.band("NIR").tobytes()
        # every replica corrupt: the error names all of them
        corrupt(holders[1])
        corrupt(holders[2])
        with pytest.raises(CorruptionError) as info:
            store.fetch_band(tile_id, "NIR")
        for node in holders:
            assert node in str(info.value)

    def test_deleted_replica_served_from_next(self, store):
        scene = scene_at(10.0, 20.0, 1000)
        tile_id = store.ingest(scene)
        reopened = TileStore.open(store.root)
        for st in (store, reopened):
            st.fetch_band(tile_id, "NIR")
        holders = store.placement(tile_id)
        shutil.rmtree(store.root / "nodes" / holders[0] / tile_dir(store.metadata(tile_id)))
        for st in (store, reopened):
            assert st.fetch_band(tile_id, "Red").values.tobytes() == scene.band("Red").tobytes()
            assert st.placement(tile_id) == holders[1:]

    def test_live_set_replaces_marker_checks(self, store, monkeypatch):
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000))
        holders = store.placement(tile_id)
        monkeypatch.setattr(TileStore, "node_alive", lambda self, node: pytest.fail("stat"))
        assert store.fetch_band(tile_id, "NIR", live=frozenset(holders[1:])) is not None
        with pytest.raises(UnavailableError):
            store.fetch_band(tile_id, "NIR", live=frozenset())

    def test_fetch_is_read_only_and_unshared(self, store):
        scene = scene_at(10.0, 20.0, 1000)
        tile_id = store.ingest(scene)
        first = store.fetch_band(tile_id, "NIR").values
        second = store.fetch_band(tile_id, "NIR").values
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first.flags.writeable = True
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, scene.band("NIR"))

    def test_checksums_cover_file_bytes(self, store):
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000))
        meta = store.metadata(tile_id)
        node = store.placement(tile_id)[0]
        blob = (store.root / "nodes" / node / tile_path(meta, "Red")).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == meta.checksums["Red"]

    def test_band_dims_via_header(self, store):
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000, size=12))
        assert store.band_dims(tile_id) == (12, 12)

    def test_external_down_marker_respected(self, store):
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000))
        first = store.placement(tile_id)[0]
        # another process drops the marker file directly
        (store.root / "nodes" / first / ".down").touch()
        assert store.node_alive(first) is False
        assert store.fetch_band(tile_id, "NIR") is not None

    def test_unknown_node_rejected(self, store):
        with pytest.raises(UnknownNodeError):
            store.fail_node("node_99")


class TestCatalogSelect:
    def test_matches_oracle_and_sorted(self, store):
        import random

        rng = random.Random(81)
        rows = []
        for i in range(40):
            lon = rng.uniform(-60, 60)
            lat = rng.uniform(-40, 40)
            t = rng.randrange(0, 5000)
            sat = rng.choice(("landsat8", "gaofen1"))
            tile_id = store.ingest(scene_at(lon, lat, t, satellite=sat, size=2))
            rows.append((tile_id, lon, lon + 1.0, lat, lat + 1.0, t, t))
        for _ in range(25):
            x0 = rng.uniform(-65, 55)
            y0 = rng.uniform(-45, 35)
            box = (x0, x0 + rng.uniform(0, 10), y0, y0 + rng.uniform(0, 10))
            t0 = rng.randrange(0, 5000)
            trange = (t0, t0 + rng.randrange(0, 2000))
            got = store.catalog_select(BoundingBox(*box), TimeRange(*trange))
            assert {m.tile_id for m in got} == oracle_scan(rows, box, trange)
            assert [(m.capture_time, m.tile_id) for m in got] == sorted(
                (m.capture_time, m.tile_id) for m in got
            )

    def test_satellite_filter(self, store):
        a = store.ingest(scene_at(10.0, 20.0, 1000, satellite="landsat8"))
        b = store.ingest(scene_at(10.0, 20.0, 1000, satellite="gaofen1"))
        box = BoundingBox(9.0, 12.0, 19.0, 22.0)
        both = store.catalog_select(box, TimeRange(0, 2000))
        assert {m.tile_id for m in both} == {a, b}
        only = store.catalog_select(box, TimeRange(0, 2000), satellite="gaofen1")
        assert [m.tile_id for m in only] == [b]


class TestIntegrityOnOpen:
    def _tamper(self, store, transform):
        catalog = store.root / "catalog.ndjson"
        doc = json.loads(catalog.read_text().strip())
        transform(doc)
        catalog.write_text(json.dumps(doc, separators=(",", ":")) + "\n")

    def test_tampered_index_key_detected(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda d: d.update(grid_row=d["grid_row"] + 1))
        with pytest.raises(CorruptionError, match="index keys"):
            TileStore.open(store.root)

    def test_tampered_tile_id_detected(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda d: d.update(tile_id="t" + "0" * 12))
        with pytest.raises(CorruptionError):
            TileStore.open(store.root)

    def test_garbage_row_detected(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        catalog = store.root / "catalog.ndjson"
        catalog.write_text(catalog.read_text() + "{not json\n")
        with pytest.raises(CorruptionError, match="row 2"):
            TileStore.open(store.root)

    def test_missing_key_detected(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda d: d.pop("checksums"))
        with pytest.raises(CorruptionError, match="checksums"):
            TileStore.open(store.root)


class TestSceneValidation:
    def test_band_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            RasterScene(
                bbox=BoundingBox(0, 1, 0, 1),
                capture_time=0,
                satellite="x",
                bands=(
                    ("NIR", np.zeros((2, 2), dtype=np.float32)),
                    ("Red", np.zeros((3, 3), dtype=np.float32)),
                ),
            )

    def test_duplicate_band_labels_rejected(self):
        with pytest.raises(ValidationError):
            RasterScene(
                bbox=BoundingBox(0, 1, 0, 1),
                capture_time=0,
                satellite="x",
                bands=(
                    ("NIR", np.zeros((2, 2), dtype=np.float32)),
                    ("NIR", np.zeros((2, 2), dtype=np.float32)),
                ),
            )

    def test_infinite_values_rejected(self):
        grid = np.zeros((2, 2), dtype=np.float32)
        grid[0, 0] = np.inf
        with pytest.raises(ValidationError):
            RasterScene(
                bbox=BoundingBox(0, 1, 0, 1),
                capture_time=0,
                satellite="x",
                bands=(("NIR", grid),),
            )
