"""HTTP service endpoints, status mapping, and admin fault injection."""

import base64
import gc
import http.client
import json
import urllib.error
import urllib.request

import pytest

from georace.engine import System, SystemConfig
from georace.racing import RaceConfig
from georace.service import QueryService, _json_body, handle_query
from georace.store import TileStore
from georace.synth import SceneSpec, corpus_extent, corpus_timespan, generate_scenes

SPEC = SceneSpec(count=16, seed=23, size_px=8, revisits=4)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("svc") / "store"
    store = TileStore.create(root)
    for scene in generate_scenes(SPEC):
        store.ingest(scene)
    system = System.open(root, SystemConfig(race=RaceConfig(backend="thread")))
    svc = QueryService(system, port=0)
    svc.start_background()
    yield svc
    svc.stop()
    system.close()


def call(service, path, body=None, method=None):
    url = f"http://127.0.0.1:{service.port}{path}"
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        with err:
            return err.code, json.loads(err.read())


def query_body(**over):
    extent = corpus_extent(SPEC)
    span = corpus_timespan(SPEC)
    body = {
        "min_lon": extent.min_lon,
        "max_lon": extent.max_lon,
        "min_lat": extent.min_lat,
        "max_lat": extent.max_lat,
        "start_time": span.start,
        "end_time": span.end,
        "info": "ndvi",
    }
    body.update(over)
    return body


class TestHealth:
    def test_health_shape(self, service):
        status, doc = call(service, "/v1/health")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["tiles"] == SPEC.count
        assert {n["id"] for n in doc["nodes"]} == set(service.system.store.node_ids)
        assert all(n["alive"] is True for n in doc["nodes"])
        assert doc["workers"] == {"geohash": True, "quadtree": True, "ortholist": True}

    def test_health_shows_a_failed_worker(self, service):
        service.system.runner.fail_worker("quadtree")
        try:
            status, doc = call(service, "/v1/health")
        finally:
            service.system.runner.restore_worker("quadtree")
        assert status == 200
        assert doc["workers"] == {"geohash": True, "quadtree": False, "ortholist": True}
        assert call(service, "/v1/health")[1]["workers"]["quadtree"] is True

    def test_unknown_get_is_404(self, service):
        status, doc = call(service, "/v1/nope")
        assert status == 404
        assert "error" in doc


class TestQuery:
    def test_full_extent_query(self, service):
        status, doc = call(service, "/v1/query", query_body())
        assert status == 200
        assert doc["tile_count"] == SPEC.count
        assert len(doc["tile_ids"]) == SPEC.count
        assert doc["winner"] in ("geohash", "quadtree", "ortholist")
        assert set(doc["timings"]) == {
            "index_ms", "select_ms", "fetch_ms", "compute_ms", "total_ms",
        }
        assert doc["mosaic"]["rows"] > 0 and doc["mosaic"]["cols"] > 0
        assert doc["mosaic"]["pixel_size_deg"] == pytest.approx(
            SPEC.tile_edge_deg / SPEC.size_px
        )

    def test_image_decodes_to_pgm(self, service):
        status, doc = call(service, "/v1/query", query_body())
        assert status == 200
        img = base64.b64decode(doc["image_b64"])
        header = f"P5\n{doc['mosaic']['cols']} {doc['mosaic']['rows']}\n255\n".encode()
        assert img.startswith(header)
        assert len(img) == len(header) + doc["mosaic"]["rows"] * doc["mosaic"]["cols"]

    def test_empty_result_is_200(self, service):
        status, doc = call(
            service, "/v1/query", query_body(min_lon=-10, max_lon=-9, min_lat=0, max_lat=1)
        )
        assert status == 200
        assert doc["tile_count"] == 0
        assert doc["tile_ids"] == []

    def test_satellite_filter(self, service):
        status, doc = call(service, "/v1/query", query_body(satellite="landsat8"))
        assert status == 200
        assert 0 < doc["tile_count"] < SPEC.count

    def test_missing_key_is_400(self, service):
        body = query_body()
        del body["info"]
        status, doc = call(service, "/v1/query", body)
        assert status == 400
        assert "info" in doc["error"]

    def test_bad_info_is_400(self, service):
        status, _ = call(service, "/v1/query", query_body(info="savi"))
        assert status == 400

    def test_inverted_box_is_400(self, service):
        status, _ = call(service, "/v1/query", query_body(min_lon=50, max_lon=40))
        assert status == 400

    def test_non_numeric_field_is_400(self, service):
        status, _ = call(service, "/v1/query", query_body(min_lon="west"))
        assert status == 400

    def test_world_box_is_400_and_allocates_nothing(self, service, monkeypatch):
        import tracemalloc

        from georace.bandmath import MAX_MOSAIC_PIXELS

        px = service.system.pixel_size_deg
        assert (360.0 / px) * (180.0 / px) > MAX_MOSAIC_PIXELS
        monkeypatch.setattr(TileStore, "fetch_band", lambda *a, **k: pytest.fail("fetch"))
        world = query_body(min_lon=-180.0, max_lon=180.0, min_lat=-90.0, max_lat=90.0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            status, doc = call(service, "/v1/query", world)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 400
        assert "limit" in doc["error"]
        assert peak < 1 << 20

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, service, length):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/query")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders(json.dumps(query_body()).encode())
            resp = conn.getresponse()
            assert resp.status == 400
            assert resp.getheader("Connection") == "close"
            assert "Content-Length" in json.loads(resp.read())["error"]
        finally:
            conn.close()

    def test_non_json_body_is_400(self, service):
        url = f"http://127.0.0.1:{service.port}/v1/query"
        req = urllib.request.Request(url, data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        err.value.close()
        assert err.value.code == 400


class TestReplyEncoding:
    def test_spliced_query_body_is_json_dumps(self, service):
        doc = handle_query(service.system, query_body())
        fields = {k: v for k, v in doc.items() if k != "image_b64"}
        body = _json_body(fields, doc["image_b64"].encode("ascii"))
        assert body == json.dumps(doc).encode("utf-8")
        assert list(json.loads(body).items()) == list(doc.items())

    def test_query_reply_over_http_keeps_key_order(self, service):
        url = f"http://127.0.0.1:{service.port}/v1/query"
        req = urllib.request.Request(url, data=json.dumps(query_body()).encode(), method="POST")
        with urllib.request.urlopen(req, timeout=30) as resp:
            doc = json.loads(resp.read())
        assert list(doc) == ["tile_count", "tile_ids", "winner", "timings", "mosaic", "image_b64"]
        assert base64.b64decode(doc["image_b64"], validate=True).startswith(b"P5\n")

    def test_other_replies_unchanged(self):
        health = {"status": "ok", "tiles": 3, "nodes": [{"id": "node_00", "alive": True}]}
        error = {"error": 'ValidationError: bad "box"\n'}
        for doc in (health, error, {}):
            assert _json_body(doc) == json.dumps(doc).encode("utf-8")

    def test_image_alone_is_valid_json(self):
        assert json.loads(_json_body({}, b"UDUK")) == {"image_b64": "UDUK"}


class TestAdmin:
    def test_fail_and_restore_node(self, service):
        status, doc = call(service, "/v1/admin/fail_node", {"node_id": "node_01"})
        assert status == 200
        assert {"id": "node_01", "alive": False} in doc["nodes"]
        # queries still succeed with replicas on other nodes
        status, doc = call(service, "/v1/query", query_body())
        assert status == 200 and doc["tile_count"] == SPEC.count
        status, doc = call(service, "/v1/admin/restore_node", {"node_id": "node_01"})
        assert status == 200
        assert {"id": "node_01", "alive": True} in doc["nodes"]

    def test_unknown_node_is_404(self, service):
        status, _ = call(service, "/v1/admin/fail_node", {"node_id": "node_77"})
        assert status == 404

    def test_missing_node_id_is_400(self, service):
        status, _ = call(service, "/v1/admin/fail_node", {})
        assert status == 400

    def test_all_nodes_down_is_503(self, service):
        nodes = service.system.store.node_ids
        for node in nodes:
            call(service, "/v1/admin/fail_node", {"node_id": node})
        try:
            status, doc = call(service, "/v1/query", query_body())
        finally:
            for node in nodes:
                call(service, "/v1/admin/restore_node", {"node_id": node})
        assert status == 503
        assert "Unavailable" in doc["error"]
        status, _ = call(service, "/v1/query", query_body())
        assert status == 200


class TestStop:
    @pytest.mark.filterwarnings(
        "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
    )
    def test_stop_closes_keep_alive_connections(self, tmp_path):
        root = tmp_path / "store"
        store = TileStore.create(root)
        for scene in generate_scenes(SceneSpec(count=4, seed=3, size_px=4)):
            store.ingest(scene)
        with System.open(root, SystemConfig(race=RaceConfig(backend="thread"))) as system:
            svc = QueryService(system, port=0)
            svc.start_background()
            conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=10)
            try:
                conn.request("GET", "/v1/health")
                assert conn.getresponse().read()
                svc.stop()
                gc.collect()
                # the stopped service answers no more requests on the connection
                with pytest.raises((http.client.HTTPException, ConnectionError)):
                    conn.request("GET", "/v1/health")
                    conn.getresponse().read()
            finally:
                conn.close()
        gc.collect()


class TestTimeout:
    def test_deadline_overrun_is_504(self, tmp_path):
        root = tmp_path / "store"
        store = TileStore.create(root)
        for scene in generate_scenes(SceneSpec(count=4, seed=3, size_px=4)):
            store.ingest(scene)
        config = SystemConfig(race=RaceConfig(backend="thread", deadline=0.05))
        system = System.open(root, config)
        for kind in ("geohash", "quadtree", "ortholist"):
            system.runner.set_delay(kind, 0.5)
        with QueryService(system, port=0) as svc:
            svc.start_background()
            status, doc = call(svc, "/v1/query", query_body())
            assert status == 504
            assert "Timeout" in doc["error"]
        system.close()
