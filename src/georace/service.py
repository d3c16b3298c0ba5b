"""HTTP query service: health, query, and fault-injection endpoints.

Routes (JSON in, JSON out):

    GET  /v1/health             -> {status, tiles, nodes: [{id, alive}], workers: {kind: up}}
    POST /v1/query              -> {tile_count, winner, timings, image_b64, ...}
    POST /v1/admin/fail_node    -> {status, nodes}     body: {node_id}
    POST /v1/admin/restore_node -> {status, nodes}     body: {node_id}

Status mapping: validation problems are 400, unknown node ids 404, store
trouble (no live replica, replication shortfall, corruption) 503, query
deadline overruns 504. The query body carries the box, the closed time
range in epoch seconds, the index kind, and an optional satellite filter:
{min_lon, max_lon, min_lat, max_lat, start_time, end_time, info, satellite?}.
The response embeds the rendered PGM heatmap as base64, as its last key.
Base64 output needs no JSON escaping, so the reply body is the JSON of the
other keys with the base64 bytes spliced in, not a pass of the encoder
over the image. A malformed Content-Length is a 400 that also closes the
connection, since the request's end can no longer be found.

QueryService.stop ends the open keep-alive connections too: it shuts down
the read side of each, so its handler thread sees the client's end, sends
the reply it may be working on, and closes the socket, and waits for those
threads.
"""

from __future__ import annotations

import base64
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .bandmath import InfoKind
from .engine import Query, System, execute_query
from .errors import (
    CorruptionError,
    QueryTimeoutError,
    ReplicationError,
    UnavailableError,
    UnknownNodeError,
    ValidationError,
)
from .geo import BoundingBox, TimeRange

_QUERY_KEYS = ("min_lon", "max_lon", "min_lat", "max_lat", "start_time", "end_time", "info")


def _status_for(exc: Exception) -> int:
    if isinstance(exc, ValidationError):
        return 400
    if isinstance(exc, UnknownNodeError):
        return 404
    if isinstance(exc, (UnavailableError, ReplicationError, CorruptionError)):
        return 503
    if isinstance(exc, QueryTimeoutError):
        return 504
    return 500


def _parse_query(doc: dict) -> Query:
    missing = [k for k in _QUERY_KEYS if k not in doc]
    if missing:
        raise ValidationError(f"query body missing keys: {missing}")
    try:
        bbox = BoundingBox(
            float(doc["min_lon"]), float(doc["max_lon"]),
            float(doc["min_lat"]), float(doc["max_lat"]),
        )
        trange = TimeRange(int(doc["start_time"]), int(doc["end_time"]))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed query field: {exc}") from exc
    satellite = doc.get("satellite")
    if satellite is not None:
        satellite = str(satellite)
    return Query(bbox, trange, InfoKind.parse(doc["info"]), satellite)


def _answer(system: System, doc: dict) -> tuple[dict, bytes]:
    """A query's reply fields but the image, and the image as base64 bytes."""
    q = _parse_query(doc)
    res = execute_query(system, q)
    fields = {
        "tile_count": res.tile_count,
        "tile_ids": list(res.tile_ids),
        "winner": res.race.winner,
        "timings": res.timings.as_millis(),
        "mosaic": {
            "rows": res.mosaic.rows,
            "cols": res.mosaic.cols,
            "pixel_size_deg": res.mosaic.pixel_size_deg,
        },
    }
    return fields, base64.b64encode(res.pgm)


def handle_query(system: System, doc: dict) -> dict:
    fields, image_b64 = _answer(system, doc)
    fields["image_b64"] = image_b64.decode("ascii")
    return fields


def _json_body(doc: dict, image_b64: bytes | None = None) -> bytes:
    """json.dumps(doc), with an "image_b64" key last when image_b64 is given."""
    body = json.dumps(doc).encode("utf-8")
    if image_b64 is None:
        return body
    key = b', "image_b64": "' if doc else b'"image_b64": "'
    return b"".join((body[:-1], key, image_b64, b'"}'))


def _node_listing(system: System) -> list[dict]:
    return [
        {"id": node, "alive": alive} for node, alive in system.store.node_status().items()
    ]


class _Handler(BaseHTTPRequestHandler):
    system: System = None  # injected by QueryService
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # keep test output clean
        pass

    def _reply(self, code: int, doc: dict, image_b64: bytes | None = None) -> None:
        body = _json_body(doc, image_b64)
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ValidationError(f"malformed Content-Length: {declared!r}")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValidationError("request body must be a JSON object")
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("request body must be a JSON object")
        return doc

    def do_GET(self):
        if self.path == "/v1/health":
            self._reply(
                200,
                {
                    "status": "ok",
                    "tiles": len(self.system.store),
                    "nodes": _node_listing(self.system),
                    "workers": self.system.runner.worker_status(),
                },
            )
        else:
            self._reply(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self):
        try:
            if self.path == "/v1/query":
                self._reply(200, *_answer(self.system, self._body()))
            elif self.path == "/v1/admin/fail_node":
                node = self._node_arg()
                self.system.store.fail_node(node)
                self._reply(200, {"status": "ok", "nodes": _node_listing(self.system)})
            elif self.path == "/v1/admin/restore_node":
                node = self._node_arg()
                self.system.store.restore_node(node)
                self._reply(200, {"status": "ok", "nodes": _node_listing(self.system)})
            else:
                self._reply(404, {"error": f"no such endpoint: {self.path}"})
        except Exception as exc:  # mapped to spec status codes
            self._reply(_status_for(exc), {"error": f"{type(exc).__name__}: {exc}"})

    def _node_arg(self) -> str:
        doc = self._body()
        if "node_id" not in doc:
            raise ValidationError("body must carry node_id")
        return str(doc["node_id"])


class _Server(ThreadingHTTPServer):
    """A ThreadingHTTPServer that keeps each open connection's handler thread."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}

    def process_request(self, request, client_address):
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request):
        with self._lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self, timeout: float) -> None:
        """End every open connection once its current request is answered."""
        with self._lock:
            open_ = list(self._connections.items())
        for request, _ in open_:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:  # the client is already gone
                pass
        for _, thread in open_:
            thread.join(timeout)


class QueryService:
    """A running HTTP service over one opened System."""

    def __init__(self, system: System, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_Handler,), {"system": system})
        self.system = system
        self.httpd = _Server((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        # without a background thread, the caller's own serve_forever has
        # returned or never started (a signal came first): shutdown() would
        # wait forever for a loop that never ran
        if self._thread is not None:
            self.httpd.shutdown()
        self.httpd.server_close()
        self.httpd.close_connections(timeout=5)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(store_root, *, host: str = "127.0.0.1", port: int = 8080, system_config=None) -> QueryService:
    """Open the store and return a ready (not yet serving) QueryService."""
    system = System.open(store_root, config=system_config)
    return QueryService(system, host, port)
