"""End-to-end query engine over a real store and racing indexes."""

import http.client
import json
import multiprocessing
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import numpy as np
import pytest

import georace.bandmath
import georace.engine
from georace.bandmath import InfoKind, assemble_mosaic, compute_index
from georace.engine import (
    FETCH_THREAD_PREFIX,
    Query,
    StageTimings,
    System,
    SystemConfig,
    execute_query,
)
from georace.errors import CorruptionError, IndexMismatchError, UnavailableError, ValidationError
from georace.geo import BoundingBox, TimeRange
from georace.indexes import build_index
from georace.racing import RaceConfig, RaceRunner
from georace.render import render_pgm
from georace.service import QueryService
from georace.store import RasterScene, TileStore, tile_path
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
    def test_zero_tile_query_is_empty_result(self, system, monkeypatch):
        q = Query(
            BoundingBox(-120.0, -119.0, -45.0, -44.0),
            TimeRange(0, 1),
            InfoKind.NDVI,
        )

        def no_quantize(*args, **kwargs):
            raise AssertionError("quantized a canvas nothing was painted on")

        monkeypatch.setattr(georace.engine, "to_bytes_grid", no_quantize)
        res = execute_query(system, q)
        assert res.tile_count == 0
        assert res.tile_ids == ()
        assert res.mosaic.no_data.all()
        assert res.mosaic.pixel_size_deg == pytest.approx(system.pixel_size_deg)
        monkeypatch.undo()
        assert bytes(res.pgm) == render_pgm(res.mosaic, q.info)

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

    def test_store_with_every_node_down_opens(self, tmp_path):
        # open reads no band file: the store opens, and each query then fails
        spec = SceneSpec(count=4, seed=5, size_px=8)
        store = TileStore.create(tmp_path / "store")
        for scene in generate_scenes(spec):
            store.ingest(scene)
        for node in store.node_ids:
            store.fail_node(node)
        with System.open(store.root, SystemConfig(race=RaceConfig(backend="thread"))) as sys_:
            assert sys_.pixel_size_deg == spec.tile_edge_deg / spec.size_px
            q = full_query(spec)
            with pytest.raises(UnavailableError):
                execute_query(sys_, q)
            with QueryService(sys_, port=0) as svc:
                svc.start_background()
                req = urllib.request.Request(
                    f"http://127.0.0.1:{svc.port}/v1/query",
                    data=json.dumps(query_doc(q)).encode(), method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(req, timeout=30)
            err.value.close()
            assert err.value.code == 503

    def test_all_nodes_down_propagates_unavailable(self, system):
        for node in system.store.node_ids:
            system.store.fail_node(node)
        try:
            with pytest.raises(UnavailableError):
                execute_query(system, tile_query())
        finally:
            for node in system.store.node_ids:
                system.store.restore_node(node)
        # the failure stays with that query: once restored, the same query succeeds
        assert execute_query(system, tile_query()).tile_count > 0


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
        err.value.close()
        assert err.value.code == 503

    def test_band_shape_checked_for_tiles_painted_over(self, stack):
        # the oldest capture's row claims one more pixel row than its bands have
        q = Query(corpus_extent(self.STACK), corpus_timespan(self.STACK), "ndvi")
        oldest = execute_query(stack, q).tile_ids[0]
        catalog = stack.store.root / "catalog.ndjson"
        rows = [json.loads(line) for line in catalog.read_text().splitlines()]
        for row in rows:
            if row[0] == oldest:  # tile_id
                row[8] += 1  # rows
        catalog.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with System.open(stack.store.root, SystemConfig(race=RaceConfig(backend="thread"))) as sys_:
            with pytest.raises(CorruptionError, match=f"{oldest}/NIR: .* the catalog says 9 x 8"):
                execute_query(sys_, q)

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
    """Queries run one after another on one System: each is answered on its
    own, and a failed query leaves the ones after it unaffected."""

    def test_identical_queries_identical_results(self, system):
        q = tile_query()
        blobs = {execute_query(system, q).mosaic.values.tobytes() for _ in range(5)}
        assert len(blobs) == 1

    def test_batch_collects_errors_and_continues(self, system):
        good = tile_query()
        errors = {}
        for node in ("node_00", "node_01", "node_02"):
            system.store.fail_node(node)
        try:
            for i in range(3):
                try:
                    execute_query(system, good)
                except UnavailableError as exc:
                    errors[i] = f"{type(exc).__name__}: {exc}"
        finally:
            for node in ("node_00", "node_01", "node_02"):
                system.store.restore_node(node)
        assert set(errors) == {0, 1, 2}
        results = [execute_query(system, good) for _ in range(3)]
        assert all(r.tile_count > 0 for r in results)


class SpyPool:
    """Stands in for a System's fetch pool and keeps every future submitted."""

    def __init__(self, pool):
        self.pool = pool
        self.futures = []

    def submit(self, fn, *args):
        future = self.pool.submit(fn, *args)
        self.futures.append(future)
        return future

    def shutdown(self, **kwargs):
        self.pool.shutdown(**kwargs)


def make_system(root, spec, **create):
    store = TileStore.create(root, **create)
    for scene in generate_scenes(spec):
        store.ingest(scene)
    return System.open(root, SystemConfig(race=RaceConfig(backend="thread")))


def spy_on(system, monkeypatch):
    if system.fetch_pool is None:
        pytest.skip("the process may use one CPU only, so there is no helper to share the fetch")
    spy = SpyPool(system.fetch_pool)
    monkeypatch.setattr(system, "fetch_pool", spy)
    return spy


def full_query(spec, info="ndvi"):
    return Query(corpus_extent(spec), corpus_timespan(spec), info)


def query_doc(q):
    return {
        "min_lon": q.bbox.min_lon, "max_lon": q.bbox.max_lon,
        "min_lat": q.bbox.min_lat, "max_lat": q.bbox.max_lat,
        "start_time": q.time.start, "end_time": q.time.end, "info": q.info.value,
    }


class TestParallelFetch:
    """Bands of 256 px are large enough for the helper threads to share the
    fetch; every other engine test uses 8 px bands and the caller alone."""

    BIG = SceneSpec(count=16, seed=31, size_px=256, revisits=4, band_labels=("Red", "NIR"))

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        with make_system(tmp_path_factory.mktemp("big") / "store", self.BIG) as sys_:
            yield sys_

    def queries(self):
        drawn = [
            Query(box, trange, info)
            for (box, trange), info in zip(
                generate_queries(self.BIG, WorkloadSpec(count=9, seed=17)),
                ("ndvi", "rvi", "dvi") * 3,
            )
        ]
        return [full_query(self.BIG, info) for info in ("ndvi", "rvi", "dvi")] + drawn

    def test_matches_serial_byte_for_byte(self, big, monkeypatch):
        queries = self.queries()
        spy = spy_on(big, monkeypatch)
        parallel = [execute_query(big, q) for q in queries]
        monkeypatch.setattr(big, "fetch_pool", None)
        serial = [execute_query(big, q) for q in queries]
        assert spy.futures  # the helpers took part
        assert max(res.tile_count for res in serial) == self.BIG.count
        for a, b in zip(serial, parallel):
            assert b.mosaic.values.tobytes() == a.mosaic.values.tobytes()
            assert b.tile_ids == a.tile_ids
            assert b.mosaic.provenance == a.mosaic.provenance

    @pytest.mark.parametrize("helpers", [True, False], ids=["helpers", "caller-only"])
    def test_pgm_is_the_rendered_mosaic(self, big, monkeypatch, helpers):
        spy = spy_on(big, monkeypatch)
        if not helpers:
            monkeypatch.setattr(big, "fetch_pool", None)
        for q in self.queries():
            res = execute_query(big, q)
            assert bytes(res.pgm) == render_pgm(res.mosaic, q.info)
            assert res.pgm.readonly
        assert bool(spy.futures) is helpers

    def test_each_band_fetched_once(self, big, monkeypatch):
        spy = spy_on(big, monkeypatch)
        fetched = []
        fetch = TileStore.fetch_band

        def counting(store, tile_id, band, **kwargs):
            fetched.append((tile_id, band))
            return fetch(store, tile_id, band, **kwargs)

        monkeypatch.setattr(TileStore, "fetch_band", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can go
        try:
            for info in ("ndvi", "rvi", "dvi") * 4:
                fetched.clear()
                res = execute_query(big, full_query(self.BIG, info))
                want = {(t, b): 1 for t in res.tile_ids for b in ("NIR", "Red")}
                assert Counter(fetched) == want
        finally:
            sys.setswitchinterval(interval)
        assert res.tile_count == self.BIG.count and spy.futures

    @pytest.mark.parametrize(
        "size_px, shared", [(8, False), (64, False), (181, False), (182, True), (256, True)]
    )
    def test_band_size_gates_the_helpers(self, tmp_path, monkeypatch, size_px, shared):
        # 4 * 181 * 181 bytes fall short of 128 KiB, 4 * 182 * 182 reach it
        spec = SceneSpec(count=4, seed=3, size_px=size_px, revisits=2, band_labels=("Red", "NIR"))
        with make_system(tmp_path / "store", spec) as sys_:
            spy = spy_on(sys_, monkeypatch)
            res = execute_query(sys_, full_query(spec))
        assert res.tile_count == spec.count
        assert bool(spy.futures) is shared

    def test_earliest_failure_is_raised(self, tmp_path, monkeypatch):
        # four nodes: ingest i puts tile i on nodes i, i+1, i+2 (mod 4), and the
        # catalog order here is the ingest order
        spec = SceneSpec(count=8, seed=37, size_px=256, revisits=2, band_labels=("Red", "NIR"))
        with make_system(tmp_path / "store", spec, nodes=4) as sys_:
            store = sys_.store
            q = full_query(spec)
            tiles = execute_query(sys_, q).tile_ids
            corrupt, unreachable = tiles[0], tiles[1]
            for node in store.placement(corrupt):
                victim = store.root / "nodes" / node / tile_path(store.metadata(corrupt), "NIR")
                victim.write_bytes(victim.read_bytes()[:-4] + b"\xde\xad\xbe\xef")
            for node in store.placement(unreachable):  # node_01..03: only node_00 stays up
                store.fail_node(node)
            with pytest.raises(UnavailableError):
                store.fetch_band(unreachable, "NIR")
            spy = spy_on(sys_, monkeypatch)
            monkeypatch.setattr(sys_, "fetch_pool", None)
            with pytest.raises(CorruptionError) as serial:
                execute_query(sys_, q)
            monkeypatch.setattr(sys_, "fetch_pool", spy)
            for _ in range(5):
                with pytest.raises(CorruptionError) as parallel:
                    execute_query(sys_, q)
                assert str(parallel.value) == str(serial.value)
            assert spy.futures
        assert f"{corrupt}/NIR on node_00" in str(serial.value)

    def test_corrupt_tile_painted_over_still_fails(self, tmp_path, monkeypatch):
        spec = SceneSpec(count=4, seed=29, size_px=256, revisits=4, band_labels=("Red", "NIR"))
        with make_system(tmp_path / "stack", spec) as stack:
            spy = spy_on(stack, monkeypatch)
            computed = []
            kernel = georace.bandmath._index_into
            monkeypatch.setattr(
                georace.bandmath, "_index_into",
                lambda kind, n, r, out: computed.append(n.shape) or kernel(kind, n, r, out),
            )
            q = full_query(spec)
            res = execute_query(stack, q)
            assert len(computed) == 1  # the newest capture covers the rest
            oldest = res.tile_ids[0]
            meta = stack.store.metadata(oldest)
            for node in stack.store.placement(oldest):
                victim = stack.store.root / "nodes" / node / tile_path(meta, "NIR")
                victim.write_bytes(victim.read_bytes()[:-4] + b"\xde\xad\xbe\xef")
            with QueryService(stack, port=0) as svc:
                svc.start_background()
                req = urllib.request.Request(
                    f"http://127.0.0.1:{svc.port}/v1/query",
                    data=json.dumps(query_doc(q)).encode(), method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(req, timeout=30)
            err.value.close()
            assert err.value.code == 503
            assert spy.futures

    def test_concurrent_clients_get_the_same_bytes(self, big, monkeypatch):
        spy = spy_on(big, monkeypatch)
        bodies = [json.dumps(query_doc(q)).encode() for q in self.queries()]

        def replies(port, order):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            out = {}
            try:
                for k in order:
                    conn.request("POST", "/v1/query", body=bodies[k])
                    resp = conn.getresponse()
                    doc = json.loads(resp.read())
                    assert resp.status == 200, doc
                    del doc["timings"], doc["winner"]  # these vary from run to run
                    out[k] = doc
            finally:
                conn.close()
            return out

        with QueryService(big, port=0) as svc:
            svc.start_background()
            alone = replies(svc.port, range(len(bodies)))
            together = [None, None]

            def client(slot, order):
                together[slot] = replies(svc.port, order)

            orders = (list(range(len(bodies))) * 2, list(reversed(range(len(bodies)))) * 2)
            threads = [threading.Thread(target=client, args=(n, order)) for n, order in enumerate(orders)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        assert together[0] == alone and together[1] == alone
        assert spy.futures

    def test_queued_helper_is_cancelled_not_awaited(self, big, monkeypatch):
        q = full_query(self.BIG)
        want = execute_query(big, q).mosaic.values.tobytes()
        release = threading.Event()
        # every helper thread waits on the event, so the query's helper task stays queued
        blockers = [big.fetch_pool.submit(release.wait, 60) for _ in range(big.fetch_helpers)]
        spy = spy_on(big, monkeypatch)
        done = {}
        worker = threading.Thread(target=lambda: done.setdefault("res", execute_query(big, q)))
        try:
            worker.start()
            worker.join(timeout=60)
            finished = not worker.is_alive()
        finally:
            release.set()
            worker.join(timeout=60)
            for blocker in blockers:
                blocker.result(timeout=60)
        assert finished  # on the caller alone, while every helper was busy
        assert done["res"].mosaic.values.tobytes() == want
        assert spy.futures and all(f.cancelled() for f in spy.futures)


def plain_answer(system, q):
    """The query as a loop gives it: the index of every tile in catalog
    order, from its fetched bands, then assemble_mosaic and render_pgm;
    (mosaic bytes, PGM) or the exception."""
    metas = system.store.catalog_select(q.bbox, q.time)  # in catalog order
    fetch = system.store.fetch_band
    try:
        tiles = [(m, compute_index(q.info, fetch(m.tile_id, "NIR"), fetch(m.tile_id, "Red")))
                 for m in metas]
        mosaic = assemble_mosaic(tiles, q.bbox,
                                 pixel_size_deg=None if tiles else system.pixel_size_deg)
    except Exception as exc:
        return exc
    return mosaic.values.tobytes(), render_pgm(mosaic, q.info)


def answer(system, q):
    try:
        res = execute_query(system, q)
    except Exception as exc:
        return exc
    return res.mosaic.values.tobytes(), bytes(res.pgm)


def same(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


class TestPipeline:
    """The per-tile pipeline against the plain loop, on layouts the
    synthetic grid never makes: tiles that newer ones cover in part, and
    tiles of another pixel size than the store's."""

    EDGE = 0.25

    def scene(self, col, row, capture, size_px=256, seed=0):
        rng = np.random.default_rng(seed)
        lon, lat = 10.0 + col * self.EDGE, 20.0 + row * self.EDGE
        return RasterScene(
            bbox=BoundingBox(lon, lon + self.EDGE, lat, lat + self.EDGE),
            capture_time=capture, satellite="landsat8",
            bands=tuple((label, rng.uniform(0.0, 1.0, (size_px, size_px)).astype(np.float32))
                        for label in ("NIR", "Red")),
        )

    def open(self, root, scenes):
        store = TileStore.create(root)
        for scene in scenes:
            store.ingest(scene)
        return System.open(root, SystemConfig(race=RaceConfig(backend="thread")))

    def box(self, col0, col1, row0, row1):
        e = self.EDGE
        return BoundingBox(10.0 + col0 * e, 10.0 + col1 * e, 20.0 + row0 * e, 20.0 + row1 * e)

    @pytest.mark.parametrize("helpers", [True, False], ids=["helpers", "caller-only"])
    def test_tiles_covered_in_part(self, tmp_path, monkeypatch, helpers):
        # a 2 x 2 block, then newer tiles shifted by half a tile over it
        scenes = [self.scene(c, r, 1000 + 2 * c + r, seed=c * 2 + r)
                  for c in (0, 1) for r in (0, 1)]
        scenes += [self.scene(c + 0.5, r + 0.5, 2000 + n, seed=10 + n)
                   for n, (c, r) in enumerate(((0, 0), (1, 0), (0.5, 1)))]
        with self.open(tmp_path / "store", scenes) as sys_:
            spy = spy_on(sys_, monkeypatch)
            if not helpers:
                monkeypatch.setattr(sys_, "fetch_pool", None)
            boxes = (self.box(0, 2, 0, 2), self.box(-1, 3, -1, 3), self.box(0.25, 1.75, 0.5, 1.5))
            for box in boxes:
                for info in InfoKind:
                    q = Query(box, TimeRange(0, 10_000), info)
                    got, want = answer(sys_, q), plain_answer(sys_, q)
                    assert not isinstance(want, Exception) and same(got, want)
        assert bool(spy.futures) is helpers

    @pytest.mark.parametrize("size_px", [128, 512])
    def test_band_of_another_shape(self, tmp_path, monkeypatch, size_px):
        # the oldest tile has another pixel size than the store's, and a newer
        # tile is corrupt on every replica: the corruption is raised first
        # (fetch before band math); repaired, the pixel sizes disagree; alone,
        # the odd tile makes its own mosaic. Each way, every band of every
        # selected tile is read once.
        scenes = [self.scene(c, 0, 2000 + c, seed=c) for c in range(4)]
        scenes.append(self.scene(1, 0, 1000, size_px=size_px, seed=9))
        fetched = []
        fetch = TileStore.fetch_band

        def counting(store, tile_id, band, **kwargs):
            fetched.append((tile_id, band))
            return fetch(store, tile_id, band, **kwargs)

        def check(q, outcome):
            want = plain_answer(sys_, q)
            fetched.clear()
            got = answer(sys_, q)
            tiles = [m.tile_id for m in store.catalog_select(q.bbox, q.time)]
            assert Counter(fetched) == {(t, b): 1 for t in tiles for b in ("NIR", "Red")}
            assert isinstance(want, outcome) and same(got, want)

        with self.open(tmp_path / "store", scenes) as sys_:
            spy = spy_on(sys_, monkeypatch)
            monkeypatch.setattr(TileStore, "fetch_band", counting)
            store = sys_.store
            q = Query(self.box(0, 4, 0, 1), TimeRange(0, 10_000), "ndvi")
            newest = store.catalog_select(q.bbox, q.time)[-1]
            saved = {}
            for node in store.placement(newest.tile_id):
                victim = store.root / "nodes" / node / tile_path(newest, "Red")
                saved[victim] = victim.read_bytes()
                victim.write_bytes(saved[victim][:-4] + b"\xde\xad\xbe\xef")
            check(q, CorruptionError)
            for victim, blob in saved.items():
                victim.write_bytes(blob)
            check(q, ValidationError)
            check(Query(self.box(1, 2, 0, 1), TimeRange(0, 1500), "rvi"), tuple)
            assert spy.futures


class TestLifecycle:
    @staticmethod
    def fetch_threads():
        return [t for t in threading.enumerate() if t.name.startswith(FETCH_THREAD_PREFIX)]

    def test_open_starts_no_thread(self, tmp_path):
        store = TileStore.create(tmp_path / "store")
        for scene in generate_scenes(SceneSpec(count=4, seed=5, size_px=8)):
            store.ingest(scene)
        before = set(threading.enumerate())
        system = System.open(store.root)  # race workers are processes by default
        try:
            assert set(threading.enumerate()) == before
        finally:
            system.close()

    def test_open_builds_indexes_in_process(self, tmp_path, monkeypatch):
        # 1024 tiles: the old threshold from which the index build forked
        spec = SceneSpec(count=1024, seed=5, size_px=1, band_labels=("NIR", "Red"))
        store = TileStore.create(tmp_path / "store")
        for scene in generate_scenes(spec):
            store.ingest(scene)

        def no_start(self):
            raise AssertionError("System.open started a process")

        monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", no_start)
        with System.open(store.root, SystemConfig(race=RaceConfig(backend="thread"))) as sys_:
            assert len(sys_.multi) == spec.count

    def test_close_is_idempotent_and_stops_the_helpers(self, tmp_path):
        spec = TestParallelFetch.BIG
        system = make_system(tmp_path / "store", spec)
        try:
            if system.fetch_pool is None:
                pytest.skip("the process may use one CPU only, so there is no helper thread")
            assert not self.fetch_threads()
            execute_query(system, full_query(spec))
            assert self.fetch_threads()
        finally:
            system.close()
        system.close()
        assert not self.fetch_threads()
