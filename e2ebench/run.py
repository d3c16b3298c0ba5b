"""One benchmark run: the code under test builds a workload's store, opens it, serves it, and the
run loads the service from outside and checks every answer.

    python3 e2ebench/run.py --workload dense_mosaic --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ./src and keeps
its store under ./.e2ebench/stores/ while it runs. The phases are:

1. build: every tile of the seeded corpus through TileStore.ingest, one at
   a time, into a fresh 3-node store; then every replica is read back and
   compared with the generated pixels;
2. load: `georace serve` on the store in its own process, loaded by this
   process over one keep-alive HTTP connection, one request at a time
   (closed loop, one client), in whole rounds of the workload's query list
   until --seconds of query time have passed; each reply is checked against
   the independent answer. Between rounds, while the service is idle, the
   run starts OPENS_PER_ROUND fresh processes that each time one System.open
   on the store, so the setup figure samples the same stretch of a noisy
   host as the queries do;
3. stop: SIGINT to the service; none of its race workers may outlive it;
   then the store is deleted.

With --trace 0 the last line of output carries the end-to-end metrics.
With --trace 1 the same phases run with a span around each call into a
layer, System.open is taken apart in this process, each query is also
replayed here layer by layer, the spans go to ./.e2ebench/spans/, and the
last line carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

import numpy as np

import workloads as wl
from tracing import Tracer, span_cost_s

HERE = Path(__file__).resolve().parent
OPENS_PER_ROUND = 3
TRACED_OPENS = 5
WARMUP_QUERIES = 3
PACK_SAMPLE_TILES = 64
KINDS = ("geohash", "quadtree", "ortholist")
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
WORKER_EXIT_TIMEOUT_S = 5.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path.cwd()
    src = repo / "src"
    if not (src / "georace" / "__init__.py").is_file():
        print(f"error: no georace package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = repo / ".e2ebench" / "stores" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result = BenchRun(args, repo, work).execute()
    finally:
        # After the last measurement: unlinking a store's tens of thousands of
        # files slows file creation on ext4 for minutes (see README.md), which
        # lands in the next run's build, not in any end-to-end metric.
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


def _tree_size(root: Path) -> tuple[int, int]:
    """(bytes, count) of the regular files under root."""
    nbytes = files = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            files += 1
            nbytes += os.stat(os.path.join(dirpath, name)).st_size
    return nbytes, files


class BenchRun:
    def __init__(self, args, repo: Path, work: Path):
        self.args = args
        self.repo = repo
        self.store_root = work / "store"
        self.workload = wl.WORKLOADS[args.workload]
        self.corpus = wl.make_corpus(self.workload, args.seed)
        self.queries = wl.make_queries(self.corpus, args.seed)
        self.tracer = Tracer() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.open_times: list[float] = []
        self.exchange_s = 0.0
        self.layer: dict[str, list] = {}

    def record(self, name: str, value) -> None:
        self.layer.setdefault(name, []).append(value)

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"check failed: {text}", file=sys.stderr)

    # -- phases -----------------------------------------------------------------

    def execute(self) -> dict:
        self.build_store()
        system = self.traced_setup() if self.tracer is not None else None
        try:
            self.expected = [wl.expected_answer(self.corpus, q) for q in self.queries]
            service = Service(self.repo, self.store_root)
            try:
                latencies = self.query_loop(service.port, system)
            finally:
                peak_rss_mb, trouble = service.stop()
            for text in trouble:
                self.problem(text)
        finally:
            if system is not None:
                system.close()
        if not latencies:
            raise SystemExit("no query succeeded; nothing to report")
        if self.tracer is not None:
            metrics = self.layer_metrics()
        else:
            lat_ms = np.array(latencies) * 1e3
            metrics = {
                "setup_s": (median(self.open_times), "s"),
                "query_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
                "query_p95_ms": (float(np.percentile(lat_ms, 95)), "ms"),
                "query_qps": (len(latencies) / self.exchange_s, "queries/s"),
                "service_peak_rss_mb": (peak_rss_mb, "MB"),
                "stored_bytes_per_pixel_byte": (
                    self.stored_bytes / self.corpus.pixel_bytes(), "ratio"),
            }
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }

    def build_store(self) -> None:
        """Every scene through TileStore.ingest, then the replica check."""
        from georace import BoundingBox, GeoRaceError, RasterScene, TileStore

        corpus = self.corpus
        store = TileStore.create(self.store_root)
        for i in range(len(corpus)):
            pixels = corpus.pixels[i]
            scene = RasterScene(
                bbox=BoundingBox(*corpus.bbox_deg(i)),
                capture_time=int(corpus.capture[i]),
                satellite=str(corpus.satellite[i]),
                bands=tuple((label, pixels[label]) for label in self.workload.bands),
            )
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                corpus.ids[i] = store.ingest(scene)
            except GeoRaceError as exc:
                self.failed += 1
                print(f"ingest {i} failed: {exc}", file=sys.stderr)
                continue
            if self.tracer is not None:
                self.tracer.add("store.ingest", t0, time.perf_counter())
        self.stored_bytes, files = _tree_size(self.store_root)
        for text in wl.check_replicas(self.store_root, corpus):
            self.problem(text)
        if self.tracer is not None:
            from georace.formats import pack_band

            for i in range(min(len(corpus), PACK_SAMPLE_TILES)):
                for grid in corpus.pixels[i].values():
                    with self.tracer.span("formats.pack_band"):
                        pack_band(grid)
            ingested = sum(tid is not None for tid in corpus.ids)
            self.record("store.bytes_written_per_tile", self.stored_bytes / ingested)
            self.record("store.files_per_tile", files / ingested)

    def time_opens(self) -> None:
        """OPENS_PER_ROUND System.open calls on the store, each the first in a fresh process
        like a service start."""
        for _ in range(OPENS_PER_ROUND):
            self.attempted += 1
            probe = subprocess.run(
                [sys.executable, str(HERE / "open_probe.py"), str(self.store_root)],
                cwd=self.repo, env=dict(os.environ, PYTHONPATH=str(self.repo / "src")),
                capture_output=True, text=True, timeout=START_TIMEOUT_S, check=True,
            )
            self.open_times.append(float(probe.stdout))

    def traced_setup(self):
        """System.open taken apart into its layers, with spans; returns the last system opened."""
        from georace import (IndexConfig, RaceRunner, System, SystemConfig, TileStore,
                             build_all, build_index)

        tr = self.tracer
        config = SystemConfig()
        system = None
        for _ in range(TRACED_OPENS):
            if system is not None:
                system.close()
            self.attempted += 1
            with tr.span("system.open"):
                with tr.span("store.open"):
                    store = TileStore.open(self.store_root, config=config.index)
                with tr.span("multi_index.build_all"):
                    multi = build_all(store.entries(), config=config.index,
                                      executor=config.build_executor)
                with tr.span("racing.start"):
                    runner = RaceRunner(multi.indexes, config=config.race)
                system = System(store, multi, runner, config)
        entries = system.store.entries()
        for _ in range(TRACED_OPENS):
            for kind in KINDS:
                with tr.span(f"multi_index.build.{kind}"):
                    build_index(kind, entries, IndexConfig())
        self.record("multi_index.size_bytes", system.multi.serialized_size)
        return system

    def query_loop(self, port: int, system) -> list[float]:
        """Round-trip seconds of the checked queries; their exchanges add up in self.exchange_s."""
        bodies = [json.dumps(q.body(self.corpus)).encode() for q in self.queries]
        client = Client(port)
        latencies: list[float] = []
        query_s = 0.0
        try:
            for k in range(min(WARMUP_QUERIES, len(bodies))):
                self.one_query(client, k, bodies[k], system)
            self.exchange_s = 0.0
            while query_s < self.args.seconds:
                start = time.perf_counter()
                for k, body in enumerate(bodies):
                    rtt = self.one_query(client, k, body, system)
                    if rtt is not None:
                        latencies.append(rtt)
                query_s += time.perf_counter() - start
                if self.tracer is None:
                    self.time_opens()
        finally:
            client.close()
        return latencies

    def one_query(self, client, k: int, body: bytes, system) -> float | None:
        """Round-trip seconds of one checked query, or None when it failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.query_id = self.attempted
        try:
            t0 = time.perf_counter()
            status, data = client.post("/v1/query", body)
            t1 = time.perf_counter()
            self.exchange_s += t1 - t0
        except (OSError, http.client.HTTPException) as exc:
            self.failed += 1
            print(f"query {k}: {type(exc).__name__}: {exc}", file=sys.stderr)
            client.reconnect()
            return None
        if status != 200:
            self.failed += 1
            print(f"query {k}: HTTP {status}: {data[:200]!r}", file=sys.stderr)
            return None
        doc = json.loads(data)
        problem = wl.check_reply(doc, self.expected[k])
        if problem:
            self.failed += 1
            self.problem(f"query {k}: {problem}")
            return None
        if self.tracer is not None:
            self.tracer.add("service.request", t0, t1)
            timings = doc["timings"]
            self.record("service.overhead_ms", (t1 - t0) * 1e3 - timings["total_ms"])
            self.record("service.response_kb", len(data) / 1024)
            for stage in ("index", "select", "fetch", "compute", "total"):
                self.record(f"engine.{stage}_ms", timings[f"{stage}_ms"])
            self.replay(k, system)
        return t1 - t0

    # -- traced replay ---------------------------------------------------------------

    def replay(self, k: int, system) -> None:
        """The engine's steps for query k, called one layer at a time, with a span around each."""
        from georace import (BandGrid, BoundingBox, InfoKind, TimeRange, assemble_mosaic,
                             compute_index)
        from georace.formats import unpack_band
        from georace.render import render_pgm
        from georace.store import tile_path

        tr = self.tracer
        q = self.queries[k]
        store = system.store
        bbox = BoundingBox(*self.corpus.box_deg(q.x, q.y, q.w, q.h))
        trange = TimeRange(q.t0, q.t1)
        info = InfoKind.parse(q.info)
        with tr.span("replay.engine_path"):
            t0 = time.perf_counter()
            outcome = system.runner.query(bbox, trange)
            race_s = time.perf_counter() - t0
            tr.add("racing.query", t0, t0 + race_s)
            with tr.span("engine.select"):
                metas = [store.metadata(tid) for tid in outcome.result]
                if q.satellite is not None:
                    metas = [m for m in metas if m.satellite == q.satellite]
                metas.sort(key=lambda m: (m.capture_time, m.tile_id))
            tiles = []
            for meta in metas:
                with tr.span("store.fetch_band"):
                    nir = store.fetch_band(meta.tile_id, "NIR")
                with tr.span("store.fetch_band"):
                    red = store.fetch_band(meta.tile_id, "Red")
                with tr.span("bandmath.compute_index"):
                    tiles.append((meta, compute_index(info, nir, red)))
            with tr.span("bandmath.assemble_mosaic"):
                mosaic = assemble_mosaic(
                    tiles, bbox, pixel_size_deg=None if tiles else system.pixel_size_deg)
        with tr.span("render.render_pgm"):
            pgm = render_pgm(mosaic, info)
        expected = self.expected[k]
        problem = wl.check_pgm(pgm, expected)
        if [m.tile_id for m in metas] != expected.tile_ids:
            problem = f"replayed tile ids {[m.tile_id for m in metas]} != {expected.tile_ids}"
        if problem:
            self.problem(f"replay of query {k}: {problem}")

        direct = {}
        with tr.span("replay.indexes"):
            for kind in KINDS:
                t0 = time.perf_counter()
                hits = system.multi.indexes[kind].query(bbox, trange)
                direct[kind] = time.perf_counter() - t0
                tr.add(f"indexes.{kind}.query", t0, t0 + direct[kind])
                if set(hits) != set(outcome.result):
                    self.problem(f"query {k}: {kind} returned {len(hits)} tiles, "
                                 f"race returned {len(outcome.result)}")
        self.record("indexes.hits_per_query", len(outcome.result))
        self.record("racing.ipc_ms", (race_s - direct[outcome.winner]) * 1e3)
        self.record("racing.finished_per_query",
                    sum(isinstance(v, float) for v in outcome.latency_by_kind.values()))
        self.record("racing.winner", outcome.winner)

        nbytes = 0
        with tr.span("replay.fetch_split"):
            for meta in metas:
                for band in ("NIR", "Red"):
                    with tr.span("store.placement"):
                        holders = store.placement(meta.tile_id)
                    with tr.span("store.node_alive"):
                        node = next(n for n in holders if store.node_alive(n))
                    path = store.root / "nodes" / node / tile_path(meta, band)
                    with tr.span("store.read"):
                        blob = path.read_bytes()
                    with tr.span("store.sha256"):
                        hashlib.sha256(blob).hexdigest()
                    with tr.span("formats.unpack_band"):
                        values = unpack_band(blob)
                    with tr.span("store.bandgrid"):
                        BandGrid(band, values)
                    nbytes += len(blob)
        self.record("store.bytes_read_per_query", nbytes)

    def layer_metrics(self) -> dict:
        tr = self.tracer
        path = self.repo / ".e2ebench" / "spans" / f"{self.workload.name}-seed{self.args.seed}.ndjson"
        tr.write(path)
        print(f"spans: {path} ({len(tr.spans)} spans)", file=sys.stderr)

        def med(name):
            values = self.layer.get(name, [])
            return float(median(values)) if values else 0.0

        out = {}
        for name in ("service.overhead_ms", "engine.index_ms", "engine.select_ms",
                     "engine.fetch_ms", "engine.compute_ms", "engine.total_ms",
                     "racing.ipc_ms"):
            out[name] = (med(name), "ms")
        out["service.response_kb"] = (med("service.response_kb"), "KiB")
        out["racing.query_ms"] = (tr.median_ms("racing.query"), "ms")
        out["racing.finished_per_query"] = (
            float(np.mean(self.layer["racing.finished_per_query"])), "count")
        winners = Counter(self.layer["racing.winner"])
        for kind in KINDS:
            out[f"racing.winner.{kind}"] = (winners[kind] / len(self.layer["racing.winner"]), "share")
        out["racing.start_ms"] = (tr.median_ms("racing.start"), "ms")
        for kind in KINDS:
            out[f"indexes.{kind}.query_ms"] = (tr.median_ms(f"indexes.{kind}.query"), "ms")
        out["indexes.hits_per_query"] = (float(np.mean(self.layer["indexes.hits_per_query"])), "count")
        out["multi_index.build_all_ms"] = (tr.median_ms("multi_index.build_all"), "ms")
        for kind in KINDS:
            out[f"multi_index.build.{kind}_ms"] = (tr.median_ms(f"multi_index.build.{kind}"), "ms")
        out["multi_index.size_bytes"] = (med("multi_index.size_bytes"), "B")
        for name in ("store.open", "store.fetch_band", "store.placement", "store.node_alive",
                     "store.read", "store.sha256", "store.bandgrid", "store.ingest",
                     "formats.unpack_band", "formats.pack_band", "bandmath.compute_index",
                     "bandmath.assemble_mosaic", "render.render_pgm"):
            out[f"{name}_ms"] = (tr.median_ms(name), "ms")
        ingests = tr.durations("store.ingest")
        out["store.ingest_tiles_per_s"] = (len(ingests) / sum(ingests), "tiles/s")
        out["store.bytes_read_per_query"] = (
            float(np.mean(self.layer["store.bytes_read_per_query"])), "B")
        out["store.bytes_written_per_tile"] = (med("store.bytes_written_per_tile"), "B")
        out["store.files_per_tile"] = (med("store.files_per_tile"), "count")
        out["trace.query_total_ms"] = (tr.median_ms("replay.engine_path"), "ms")
        queries = len(tr.durations("replay.engine_path"))
        spans = sum(1 for s in tr.spans if s[4] is not None) / queries
        cost_s = span_cost_s()
        out["trace.spans_per_query"] = (spans, "count")
        out["trace.span_cost_us"] = (cost_s * 1e6, "us")
        out["trace.overhead_ms"] = (spans * cost_s * 1e3, "ms")
        return out


# -- the service and its client ---------------------------------------------------


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        self.conn.request("POST", path, body, {"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def reconnect(self) -> None:
        self.conn.close()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def close(self) -> None:
        self.conn.close()


class Service:
    """`georace serve` on an ephemeral port, in its own process."""

    def __init__(self, repo: Path, store_root: Path):
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "georace.cli", "serve", "--store", str(store_root),
             "--port", "0"],
            cwd=repo, env=env, stdout=subprocess.PIPE,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self._kill()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("serving "):
                    return int(line.rsplit(":", 1)[1])
        raise RuntimeError(f"service did not start (exit code {self.proc.poll()})")

    def stop(self) -> tuple[float, list[str]]:
        """SIGINT, then wait for the service and its race workers; (peak RSS in MB, problems)."""
        trouble = []
        workers = _children(self.proc.pid)
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                trouble.append(f"service still running {STOP_TIMEOUT_S:.0f}s after SIGINT")
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            trouble.append(f"service exited with code {self.proc.returncode} after SIGINT")
        deadline = time.monotonic() + WORKER_EXIT_TIMEOUT_S
        left = [pid for pid in workers if _alive(pid)]
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = [pid for pid in left if _alive(pid)]
        if left:
            trouble.append(f"race workers {left} outlived the service")
            for pid in left:
                _kill_pid(pid)
        if len(workers) != len(KINDS):
            trouble.append(f"service had {len(workers)} child processes, expected {len(KINDS)}")
        return usage.ru_maxrss / 1024, trouble

    def _kill(self) -> None:
        workers = _children(self.proc.pid)
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        for pid in workers:
            _kill_pid(pid)


def _children(ppid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat and int(stat[1]) == ppid:
                out.append(int(entry))
    return sorted(out)


def _stat(pid: int) -> list[str] | None:
    """[state, ppid, ...] of a process, None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _alive(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _kill_pid(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


if __name__ == "__main__":
    sys.exit(main())
