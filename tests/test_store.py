"""Replicated tile store: layout, replication, failover, integrity guards."""

import base64
import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from georace.formats import HEADER_SIZE
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
from georace.store import (
    DEFAULT_BAND_LABELS,
    RasterScene,
    TileStore,
    band_buffer,
    tile_dir,
    tile_path,
)
from georace.synth import SceneSpec, generate_scenes, write_scenes


# positions in a catalog row
TILE_ID, MIN_LON, MAX_LON, MIN_LAT, MAX_LAT, CAPTURE_TIME, SATELLITE, BANDS, ROWS, COLS = range(10)


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
        for node in holders:  # band files only: the catalog row is the tile's one record
            base = store.root / "nodes" / node / tile_dir(meta)
            assert sorted(p.name for p in base.iterdir()) == sorted(
                f"{b}.band" for b in DEFAULT_BAND_LABELS
            )
        catalog = (store.root / "catalog.ndjson").read_text().strip().splitlines()
        assert len(catalog) == 1
        assert json.loads(catalog[0])[0] == tile_id

    def test_footprint_is_band_files_and_one_catalog_row(self, store):
        ids = [store.ingest(scene_at(10.0 + i, 20.0, 1000 + i)) for i in range(4)]
        files = [p for p in (store.root / "nodes").rglob("*") if p.is_file()]
        assert sorted(p.name for p in files) == sorted(["NIR.band", "Red.band"] * 3 * len(ids))
        # 270 B each: 8 x 8 float32 pixels behind the band header
        assert {p.stat().st_size for p in files} == {HEADER_SIZE + 4 * 8 * 8}
        catalog = (store.root / "catalog.ndjson").read_text().splitlines()
        assert [json.loads(line)[0] for line in catalog] == ids

    def test_catalog_row_key_order_is_fixed(self, store):
        # positional: tile_id, footprint, capture_time, satellite, bands, rows,
        # cols, then each band's SHA-256 as unpadded base64
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000))
        meta = store.metadata(tile_id)
        node = store.placement(tile_id)[0]
        digests = [
            base64.b64encode(hashlib.sha256(
                (store.root / "nodes" / node / tile_path(meta, label)).read_bytes()
            ).digest()).decode().rstrip("=")
            for label in ("NIR", "Red")
        ]
        row = (store.root / "catalog.ndjson").read_text()
        assert row == json.dumps(
            [tile_id, 10.0, 11.0, 20.0, 21.0, 1000, "landsat8", ["NIR", "Red"], 8, 8, *digests],
            separators=(",", ":"),
        ) + "\n"
        assert all(len(d) == 43 for d in digests)

    def test_catalog_row_of_a_small_tile_is_compact(self, store):
        # an 8 x 8 two-band tile on a quarter-degree grid, captured in 2020
        store.ingest(scene_at(-100.25, -20.5, 1_600_000_001, edge=0.25))
        row = (store.root / "catalog.ndjson").read_bytes()
        assert len(row.rstrip(b"\n")) <= 180

    def test_catalog_row_records_band_shape(self, store):
        rng = np.random.default_rng(4)
        scene = RasterScene(
            bbox=BoundingBox(10.0, 10.9, 20.0, 20.6), capture_time=1000, satellite="landsat8",
            bands=tuple((label, rng.random((6, 9)).astype(np.float32)) for label in ("NIR", "Red")),
        )
        tile_id = store.ingest(scene)
        row = json.loads((store.root / "catalog.ndjson").read_text())
        assert (row[ROWS], row[COLS]) == (6, 9)
        for st in (store, TileStore.open(store.root)):
            assert st.metadata(tile_id).shape == (6, 9)

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

    def test_pixels_are_aligned(self, store):
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000, size=7))
        for into in (None, band_buffer(HEADER_SIZE + 4 * 7 * 7)):
            for label in ("NIR", "Red"):
                values = store.fetch_band(tile_id, label, into=into).values
                assert values.flags.aligned and values.ctypes.data % 64 == 0

    def test_read_into_a_buffer(self, store):
        scene = scene_at(10.0, 20.0, 1000)
        tile_id = store.ingest(scene)
        buf = band_buffer(HEADER_SIZE + 4 * 8 * 8)
        for label in ("NIR", "Red", "NIR"):
            got = store.fetch_band(tile_id, label, into=buf).values
            assert got.tobytes() == scene.band(label).tobytes()
            assert not got.flags.writeable and np.shares_memory(got, buf)
        # a buffer too small for the file is left alone, never cut short
        small = band_buffer(HEADER_SIZE + 4 * 8)
        got = store.fetch_band(tile_id, "Red", into=small).values
        assert got.tobytes() == scene.band("Red").tobytes()
        assert not np.shares_memory(got, small)

    @pytest.mark.parametrize("into", [False, True], ids=["fresh", "into"])
    def test_trailing_bytes_fail_verification(self, store, into):
        scene = scene_at(10.0, 20.0, 1000)
        tile_id = store.ingest(scene)
        meta = store.metadata(tile_id)
        holders = store.placement(tile_id)

        def fetch():
            buf = band_buffer(HEADER_SIZE + 4 * 8 * 8) if into else None
            return store.fetch_band(tile_id, "NIR", into=buf).values.tobytes()

        for n, node in enumerate(holders):
            victim = store.root / "nodes" / node / tile_path(meta, "NIR")
            victim.write_bytes(victim.read_bytes() + b"\0" * (4 * n + 1))
            if n < len(holders) - 1:  # a later replica is intact
                assert fetch() == scene.band("NIR").tobytes()
        with pytest.raises(CorruptionError) as info:
            fetch()
        assert all(node in str(info.value) for node in holders)

    def test_checksums_cover_file_bytes(self, store):
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000))
        meta = store.metadata(tile_id)
        node = store.placement(tile_id)[0]
        blob = (store.root / "nodes" / node / tile_path(meta, "Red")).read_bytes()
        assert hashlib.sha256(blob).digest() == meta.checksums["Red"]

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
        row = json.loads(catalog.read_text().strip())
        transform(row)
        catalog.write_text(json.dumps(row, separators=(",", ":")) + "\n")

    def test_version_1_store_refused(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        (store.root / "store.json").write_text('{"version":1,"nodes":3}')
        with pytest.raises(ValidationError, match=r"version 1 tile store.*only version 2"):
            TileStore.open(store.root)

    @pytest.mark.parametrize(
        "manifest",
        ['{"version":2,"nod', "[2, 3]", '{"version":2,"nodes":"x"}', '{"version":2}'],
        ids=["truncated", "array", "nodes-string", "nodes-missing"],
    )
    def test_corrupt_manifest_detected(self, store, manifest):
        (store.root / "store.json").write_text(manifest)
        with pytest.raises(CorruptionError, match="store.json"):
            TileStore.open(store.root)

    def test_tampered_shape_detected(self, store):
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda r: r.__setitem__(ROWS, r[ROWS] + 1))
        reopened = TileStore.open(store.root)  # reads no band file
        assert reopened.metadata(tile_id).shape == (9, 8)
        for label in ("NIR", "Red"):
            with pytest.raises(CorruptionError, match="8 x 8 pixels, the catalog says 9 x 8"):
                reopened.fetch_band(tile_id, label)

    @pytest.mark.parametrize("value", [0, -8, True, 8.0, "8", None])
    def test_shape_must_be_positive_ints(self, store, value):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda r: r.__setitem__(COLS, value))
        with pytest.raises(CorruptionError, match="catalog row 1: cols must be a positive int"):
            TileStore.open(store.root)

    def test_bool_rows_refused(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda r: r.__setitem__(ROWS, True))
        with pytest.raises(CorruptionError, match="rows must be a positive int, got True"):
            TileStore.open(store.root)

    def test_row_of_the_old_format_refused(self, store):
        # a version 1 row, a JSON object with hex checksums, in a version 2 catalog
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000))
        meta = store.metadata(tile_id)
        old = {
            "tile_id": tile_id, "min_lon": 10.0, "max_lon": 11.0, "min_lat": 20.0,
            "max_lat": 21.0, "capture_time": 1000, "satellite": "landsat8",
            "bands": ["NIR", "Red"], "rows": 8, "cols": 8,
            "checksums": {label: digest.hex() for label, digest in meta.checksums.items()},
        }
        (store.root / "catalog.ndjson").write_text(json.dumps(old) + "\n")
        with pytest.raises(CorruptionError, match="catalog row 1: a row is a JSON array"):
            TileStore.open(store.root)

    @pytest.mark.parametrize("change", [
        lambda r: r.pop(),  # a digest short
        lambda r: r.append(r[-1]),  # a digest too many
        lambda r: r.__setitem__(BANDS, "NIR"),  # bands not a list
        lambda r: r.__delitem__(slice(1, None)),  # the tile id alone
    ], ids=["digest-short", "digest-extra", "bands-not-a-list", "one-field"])
    def test_wrong_arity_refused(self, store, change):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, change)
        with pytest.raises(CorruptionError, match="10 fields and one digest per band"):
            TileStore.open(store.root)

    @pytest.mark.parametrize("field, value", [
        (MIN_LON, math.nan), (MAX_LON, math.inf), (MIN_LAT, -math.inf), (MAX_LAT, "21.0"),
        (MIN_LON, True), (MIN_LON, None), (MIN_LON, -180.5), (MAX_LAT, 90.5),
    ])
    def test_footprint_must_be_finite_and_in_range(self, store, field, value):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda r: r.__setitem__(field, value))
        with pytest.raises(CorruptionError, match="catalog row 1: footprint"):
            TileStore.open(store.root)

    @pytest.mark.parametrize("low, high", [(MIN_LON, MAX_LON), (MIN_LAT, MAX_LAT)])
    def test_footprint_must_be_ordered(self, store, low, high):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda r: r.__setitem__(low, r[high] + 0.5))
        with pytest.raises(CorruptionError, match="catalog row 1: footprint"):
            TileStore.open(store.root)

    def test_footprint_ints_read_as_floats(self, store):
        # a whole-degree footprint written as JSON ints names the same tile
        tile_id = store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda r: r.__setitem__(slice(MIN_LON, MAX_LAT + 1), [10, 11, 20, 21]))
        meta = TileStore.open(store.root).metadata(tile_id)
        assert meta.bbox == BoundingBox(10.0, 11.0, 20.0, 21.0)
        assert all(type(v) is float for v in meta.bbox.as_tuple())

    @pytest.mark.parametrize("digest", ["A" * 42, "A" * 44, "*" * 43, 7])
    def test_digest_must_be_unpadded_base64_sha256(self, store, digest):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda r: r.__setitem__(-1, digest))
        with pytest.raises(CorruptionError, match="catalog row 1: a band digest"):
            TileStore.open(store.root)

    def test_tampered_tile_id_detected(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda r: r.__setitem__(TILE_ID, "t" + "0" * 12))
        with pytest.raises(CorruptionError, match="catalog row 1: .*id does not match"):
            TileStore.open(store.root)

    def test_duplicate_row_detected(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        catalog = store.root / "catalog.ndjson"
        catalog.write_text(catalog.read_text() * 2)
        with pytest.raises(CorruptionError, match="catalog row 2: duplicate tile"):
            TileStore.open(store.root)

    def test_store_with_replica_meta_json_reads_the_same(self, store):
        # earlier versions also wrote each tile's catalog row into every replica
        scenes = [scene_at(10.0 + i, 20.0, 1000 + i) for i in range(3)]
        ids = [store.ingest(scene) for scene in scenes]
        for line, tile_id in zip((store.root / "catalog.ndjson").read_text().splitlines(), ids):
            for node in store.placement(tile_id):
                base = store.root / "nodes" / node / tile_dir(store.metadata(tile_id))
                (base / "meta.json").write_text(line + "\n", encoding="utf-8")
        reopened = TileStore.open(store.root)
        assert [m.tile_id for m in reopened.catalog_rows()] == ids
        for scene, tile_id in zip(scenes, ids):
            assert reopened.placement(tile_id) == store.placement(tile_id)
            for label in ("NIR", "Red"):
                got = reopened.fetch_band(tile_id, label).values
                assert got.tobytes() == scene.band(label).tobytes()

    @pytest.mark.parametrize("before, tail", [(1, "half"), (1, "long"), (0, "half")])
    def test_torn_last_row_is_an_ingest_that_never_committed(self, store, before, tail):
        first = [store.ingest(scene_at(10.0, 20.0, 1000)) for _ in range(before)]
        catalog = store.root / "catalog.ndjson"
        committed = catalog.read_bytes()
        row = json.dumps(["t" + "0" * 12, 11.0, 12.0, 20.0, 21.0, 1001, "x" * 5000])
        # a crash cut an ingest's append short: no newline, not JSON, maybe
        # longer than one read from the end
        with open(catalog, "ab") as fh:
            fh.write(row[: len(row) // 2 if tail == "half" else -1].encode())
        reopened = TileStore.open(store.root)
        assert [m.tile_id for m in reopened.catalog_rows()] == first
        second = reopened.ingest(scene_at(11.0, 20.0, 1001))
        data = catalog.read_bytes()  # the committed rows, then the new one: no torn bytes
        assert data.startswith(committed) and data.count(b"\n") == before + 1
        assert data.endswith(b"\n")
        again = TileStore.open(store.root)
        assert [m.tile_id for m in again.catalog_rows()] == first + [second]
        assert again.fetch_band(second, "NIR") is not None

    def test_ingest_keeps_rows_another_store_object_appended(self, store):
        other = TileStore.open(store.root)
        a = store.ingest(scene_at(10.0, 20.0, 1000))
        b = other.ingest(scene_at(11.0, 20.0, 1001))
        c = store.ingest(scene_at(12.0, 20.0, 1002))
        assert [m.tile_id for m in TileStore.open(store.root).catalog_rows()] == [a, b, c]

    def test_garbage_row_detected(self, store):
        store.ingest(scene_at(10.0, 20.0, 1000))
        catalog = store.root / "catalog.ndjson"
        catalog.write_text(catalog.read_text() + "{not json\n")
        # complete, so committed: the garbled last line is not taken for a torn one
        with pytest.raises(CorruptionError, match="row 2"):
            TileStore.open(store.root)

    def test_missing_key_detected(self, store):
        # a positional row with no digests: the fields left are read as nothing else
        store.ingest(scene_at(10.0, 20.0, 1000))
        self._tamper(store, lambda r: r.__delitem__(slice(COLS + 1, None)))
        with pytest.raises(CorruptionError, match="catalog row 1: .*one digest per band"):
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
