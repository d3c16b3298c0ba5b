"""End-to-end query engine over a real store and racing indexes."""

import json
import statistics
import time
import urllib.error
import urllib.request

import pytest

import georace.bandmath
from georace.bandmath import InfoKind, compute_index
from georace.engine import (
    Query,
    StageTimings,
    System,
    SystemConfig,
    batch_execute,
    execute_query,
)
from georace.errors import CorruptionError, IndexMismatchError, UnavailableError, ValidationError
from georace.geo import BoundingBox, TimeRange
from georace.indexes import build_index
from georace.racing import RaceConfig, RaceRunner
from georace.service import QueryService
from georace.store import TileStore, tile_path
from georace.synth import (
    SceneSpec,
    WorkloadSpec,
    corpus_extent,
    corpus_timespan,
    generate_queries,
    generate_scenes,
)

SPEC = SceneSpec(count=48, seed=13, size_px=8, revisits=4)


@pytest.fixture(scope="module")
def system(tmp_path_factory):
    root = tmp_path_factory.mktemp("engine") / "store"
    store = TileStore.create(root)
    for scene in generate_scenes(SPEC):
        store.ingest(scene)
    with System.open(root, SystemConfig(race=RaceConfig(backend="thread"))) as sys_:
        yield sys_


def tile_query(footprint_col=0, footprint_row=0, info="ndvi", **kwargs):
    edge = SPEC.tile_edge_deg
    lon = SPEC.origin_lon + footprint_col * edge
    lat = SPEC.origin_lat + footprint_row * edge
    return Query(
        BoundingBox(lon, lon + edge, lat, lat + edge),
        corpus_timespan(SPEC),
        info,
        **kwargs,
    )


class TestQueryValidation:
    def test_info_parsed_from_string(self):
        q = tile_query(info="NDVI")
        assert q.info is InfoKind.NDVI

    def test_empty_satellite_rejected(self):
        with pytest.raises(ValidationError):
            tile_query(satellite="")

    def test_unknown_info_rejected(self):
        with pytest.raises(ValidationError):
            tile_query(info="savi")


class TestExecute:
    def test_zero_tile_query_is_empty_result(self, system):
        q = Query(
            BoundingBox(-120.0, -119.0, -45.0, -44.0),
            TimeRange(0, 1),
            InfoKind.NDVI,
        )
        res = execute_query(system, q)
        assert res.tile_count == 0
        assert res.tile_ids == ()
        assert res.mosaic.no_data.all()
        assert res.mosaic.pixel_size_deg == pytest.approx(system.pixel_size_deg)

    def test_single_tile_ndvi_matches_direct_computation(self, system):
        q = tile_query()
        res = execute_query(system, q)
        assert res.tile_count >= 1
        # boundary-touching neighbours are hits too, but they paint nothing;
        # the last tile that painted wins the whole footprint-aligned box
        newest = res.mosaic.provenance[-1]
        nir = system.store.fetch_band(newest, "NIR")
        red = system.store.fetch_band(newest, "Red")
        want = compute_index(InfoKind.NDVI, nir, red).values
        assert res.mosaic.values.tobytes() == want.tobytes()

    def test_four_tile_block_assembles_in_position(self, tmp_path):
        # an isolated 2x2 block, one capture per footprint
        spec = SceneSpec(count=4, seed=21, size_px=8, revisits=1)
        store = TileStore.create(tmp_path / "block")
        for scene in generate_scenes(spec):
            store.ingest(scene)
        q = Query(corpus_extent(spec), corpus_timespan(spec), InfoKind.NDVI)
        with System.open(store.root, SystemConfig(race=RaceConfig(backend="thread"))) as sys_:
            res = execute_query(sys_, q)
            assert res.tile_count == 4
            assert res.mosaic.values.shape == (16, 16)
            for tid in res.tile_ids:
                meta = sys_.store.metadata(tid)
                nir = sys_.store.fetch_band(tid, "NIR")
                red = sys_.store.fetch_band(tid, "Red")
                want = compute_index(InfoKind.NDVI, nir, red).values
                r0 = 0 if meta.bbox.max_lat == q.bbox.max_lat else 8
                c0 = 0 if meta.bbox.min_lon == q.bbox.min_lon else 8
                got = res.mosaic.values[r0 : r0 + 8, c0 : c0 + 8]
                assert got.tobytes() == want.tobytes()
            assert not res.mosaic.no_data.any()

    def test_satellite_filter_restricts_tiles(self, system):
        q_all = tile_query()
        q_one = tile_query(satellite="landsat8")
        all_res = execute_query(system, q_all)
        one_res = execute_query(system, q_one)
        assert set(one_res.tile_ids) <= set(all_res.tile_ids)
        for tid in one_res.tile_ids:
            assert system.store.metadata(tid).satellite == "landsat8"
        missing = execute_query(system, tile_query(satellite="sentinel2"))
        assert missing.tile_count == 0

    def test_unknown_satellite_yields_empty_not_error(self, system):
        res = execute_query(system, tile_query(satellite="nope"))
        assert res.tile_count == 0
        assert res.mosaic.no_data.all()

    def test_determinism(self, system):
        q = tile_query(info="rvi")
        a = execute_query(system, q)
        b = execute_query(system, q)
        assert a.mosaic.values.tobytes() == b.mosaic.values.tobytes()
        assert a.tile_ids == b.tile_ids

    def test_timings_populated(self, system):
        res = execute_query(system, tile_query())
        t = res.timings
        assert isinstance(t, StageTimings)
        for v in (t.index, t.select, t.fetch, t.compute, t.total):
            assert v >= 0.0
        assert t.total >= max(t.index, t.select, t.fetch, t.compute) - 1e-9
        ms = t.as_millis()
        assert ms["total_ms"] == pytest.approx(t.total * 1e3)
        assert set(ms) == {"index_ms", "select_ms", "fetch_ms", "compute_ms", "total_ms"}

    def test_tile_ids_sorted_by_capture_then_id(self, system):
        res = execute_query(system, tile_query())
        keys = [
            (system.store.metadata(t).capture_time, t) for t in res.tile_ids
        ]
        assert keys == sorted(keys)

    def test_race_outcome_exposed(self, system):
        res = execute_query(system, tile_query())
        assert res.race.winner in ("geohash", "quadtree", "ortholist")
        assert set(res.tile_ids) <= set(res.race.result)


class TestFailureTransparency:
    def test_node_failure_changes_no_bytes(self, system):
        queries = [
            Query(box, trange, InfoKind.NDVI)
            for box, trange in generate_queries(SPEC, WorkloadSpec(count=20, seed=3))
        ]
        healthy = [execute_query(system, q).mosaic.values.tobytes() for q in queries]
        system.store.fail_node("node_01")
        try:
            degraded = [execute_query(system, q).mosaic.values.tobytes() for q in queries]
        finally:
            system.store.restore_node("node_01")
        assert degraded == healthy

    def test_liveness_read_once_per_query(self, system, monkeypatch):
        checks = []
        alive = TileStore.node_alive

        def counting(store, node):
            checks.append(node)
            return alive(store, node)

        monkeypatch.setattr(TileStore, "node_alive", counting)
        res = execute_query(system, Query(corpus_extent(SPEC), corpus_timespan(SPEC), "ndvi"))
        assert res.tile_count == SPEC.count
        assert sorted(checks) == sorted(system.store.node_ids)

    def test_fail_node_between_queries_is_honoured(self, system, monkeypatch):
        import georace.store

        q = Query(corpus_extent(SPEC), corpus_timespan(SPEC), "ndvi")
        healthy = execute_query(system, q).mosaic.values.tobytes()
        opened = []

        def spy(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(georace.store, "open", spy, raising=False)
        system.store.fail_node("node_00")
        try:
            degraded = execute_query(system, q).mosaic.values.tobytes()
        finally:
            system.store.restore_node("node_00")
        assert degraded == healthy
        assert opened and not any("/node_00/" in path for path in opened)
        opened.clear()
        execute_query(system, q)
        assert any("/node_00/" in path for path in opened)

    def test_all_nodes_down_propagates_unavailable(self, system):
        for node in system.store.node_ids:
            system.store.fail_node(node)
        try:
            with pytest.raises(UnavailableError):
                execute_query(system, tile_query())
        finally:
            for node in system.store.node_ids:
                system.store.restore_node(node)


class TestCulling:
    """Band math skips pixels that never reach the mosaic; fetching and
    verification skip nothing."""

    STACK = SceneSpec(count=4, seed=29, size_px=8, revisits=4)  # one footprint, four captures

    @pytest.fixture
    def stack(self, tmp_path):
        store = TileStore.create(tmp_path / "stack")
        for scene in generate_scenes(self.STACK):
            store.ingest(scene)
        with System.open(store.root, SystemConfig(race=RaceConfig(backend="thread"))) as sys_:
            yield sys_

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = georace.bandmath._index_into

        def spy(kind, n, r, out):
            calls.append(n.shape)
            kernel(kind, n, r, out)

        monkeypatch.setattr(georace.bandmath, "_index_into", spy)
        return calls

    def test_every_band_of_every_tile_is_fetched(self, system, monkeypatch, kernel_calls):
        fetched = []
        fetch = TileStore.fetch_band

        def counting(store, tile_id, band, **kwargs):
            fetched.append((tile_id, band))
            return fetch(store, tile_id, band, **kwargs)

        monkeypatch.setattr(TileStore, "fetch_band", counting)
        res = execute_query(system, Query(corpus_extent(SPEC), corpus_timespan(SPEC), "ndvi"))
        assert len(fetched) == 2 * res.tile_count
        assert sorted(fetched) == sorted((t, b) for t in res.tile_ids for b in ("NIR", "Red"))
        # most tiles are painted over by newer revisits, and not computed
        assert 0 < len(kernel_calls) < res.tile_count

    def test_corrupt_tile_painted_over_still_fails(self, stack, kernel_calls):
        q = Query(corpus_extent(self.STACK), corpus_timespan(self.STACK), "ndvi")
        oldest = execute_query(stack, q).tile_ids[0]
        assert len(kernel_calls) == 1  # only the newest capture is computed
        meta = stack.store.metadata(oldest)
        for node in stack.store.placement(oldest):
            victim = stack.store.root / "nodes" / node / tile_path(meta, "NIR")
            victim.write_bytes(victim.read_bytes()[:-4] + b"\xde\xad\xbe\xef")
        with pytest.raises(CorruptionError):
            execute_query(stack, q)
        body = {
            "min_lon": q.bbox.min_lon, "max_lon": q.bbox.max_lon,
            "min_lat": q.bbox.min_lat, "max_lat": q.bbox.max_lat,
            "start_time": q.time.start, "end_time": q.time.end, "info": "ndvi",
        }
        with QueryService(stack, port=0) as svc:
            svc.start_background()
            req = urllib.request.Request(
                f"http://127.0.0.1:{svc.port}/v1/query", data=json.dumps(body).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 503

    def test_kernel_runs_once_on_the_overlap(self, stack, kernel_calls):
        # the box covers the footprint's south-west quarter and open ground
        footprint = corpus_extent(self.STACK)
        half = self.STACK.tile_edge_deg / 2
        box = BoundingBox(footprint.min_lon - half, footprint.min_lon + half,
                          footprint.min_lat - half, footprint.min_lat + half)
        res = execute_query(stack, Query(box, corpus_timespan(self.STACK), "ndvi"))
        assert res.tile_count == 4
        assert res.mosaic.provenance == res.tile_ids
        assert kernel_calls == [(4, 4)]
        newest = res.tile_ids[-1]
        want = compute_index(InfoKind.NDVI, stack.store.fetch_band(newest, "NIR"),
                             stack.store.fetch_band(newest, "Red")).values
        assert res.mosaic.values.shape == (8, 8)
        assert res.mosaic.values[:4, 4:].tobytes() == want[4:, :4].tobytes()
        assert res.mosaic.no_data[4:, :].all() and res.mosaic.no_data[:, :4].all()


class TestVerification:
    def test_verified_query_passes_on_consistent_system(self, system):
        res = execute_query(system, tile_query(), verification=True)
        assert res.tile_count >= 1

    def test_mismatch_against_catalog_raises(self, system):
        entries = system.store.entries()
        tampered = {
            kind: build_index(kind, entries[:-6])
            for kind in ("geohash", "quadtree", "ortholist")
        }
        runner = RaceRunner(tampered, config=RaceConfig(backend="thread"))
        broken = System.__new__(System)
        broken.store = system.store
        broken.multi = system.multi
        broken.runner = runner
        broken.config = system.config
        broken.pixel_size_deg = system.pixel_size_deg
        span = corpus_timespan(SPEC)
        q = Query(corpus_extent(SPEC), span, InfoKind.NDVI)
        try:
            with pytest.raises(IndexMismatchError, match="catalog-only"):
                execute_query(broken, q, verification=True)
        finally:
            runner.close()


class TestBatch:
    def test_empty_batch(self, system):
        out = batch_execute(system, [])
        assert out.results == []
        assert out.errors == {}
        assert out.elapsed_seconds < 0.5

    def test_identical_queries_identical_results(self, system):
        q = tile_query()
        out = batch_execute(system, [q] * 5)
        blobs = {r.mosaic.values.tobytes() for r in out.results}
        assert len(blobs) == 1
        assert out.errors == {}

    def test_batch_collects_errors_and_continues(self, system):
        good = tile_query()
        queries = [good, good, good]
        system.store.fail_node("node_00")
        system.store.fail_node("node_01")
        system.store.fail_node("node_02")
        try:
            out = batch_execute(system, queries)
        finally:
            for node in ("node_00", "node_01", "node_02"):
                system.store.restore_node(node)
        assert set(out.errors) == {0, 1, 2}
        assert all("UnavailableError" in msg for msg in out.errors.values())
        out2 = batch_execute(system, queries)
        assert out2.errors == {}
        assert all(r is not None for r in out2.results)

    @pytest.mark.slow
    def test_elapsed_scales_linearly_with_query_count(self, system):
        # a batch of n queries repeats one seeded block of 64, so every count
        # does the same work per query and elapsed time should double with n
        block = [
            Query(box, trange, InfoKind.NDVI)
            for box, trange in generate_queries(SPEC, WorkloadSpec(count=64, seed=5))
        ]
        counts = (64, 128, 256)
        batch_execute(system, block)  # warm caches and pools
        # repetitions interleave the counts, so each ratio compares two batches
        # run back to back; the median over repetitions ignores one disturbed pair
        elapsed = {n: [] for n in counts}
        for _ in range(3):
            for n in counts:
                elapsed[n].append(batch_execute(system, block * (n // 64)).elapsed_seconds)
        for n in counts[:-1]:
            ratio = statistics.median(b / a for a, b in zip(elapsed[n], elapsed[2 * n]))
            assert 1.5 <= ratio <= 2.5, (n, ratio, elapsed)
