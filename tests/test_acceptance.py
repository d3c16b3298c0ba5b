"""System-level acceptance gate.

Ten criteria, each a separate test that appends one PASS/FAIL line to the
session report (printed at the end; run with ``pytest -s`` to see it live).
The benchmark-backed criteria (4, 5, 6 and 10) share module-scoped reports
measured at 9000 tiles with 50 repetitions, so this module takes several
minutes; they carry the `slow` marker, and `pytest -m "not slow"` skips them.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import make_entries, oracle_scan, random_queries, random_rows
from georace import geohash
from georace.bandmath import InfoKind, compute_index
from georace.bench import DEFAULT_COUNTS, bench_overhead, bench_query_scaling
from georace.engine import Query, System, SystemConfig, execute_query
from georace.formats import pack_band, unpack_band
from georace.geo import BoundingBox, GeoPoint, TimeRange
from georace.indexes import SINGLE_KINDS, build_index
from georace.racing import RaceConfig
from georace.render import render_pgm
from georace.store import BandGrid, TileStore
from georace.synth import (
    SceneSpec,
    WorkloadSpec,
    corpus_extent,
    corpus_timespan,
    generate_entries,
    generate_queries,
    generate_scenes,
)

BENCH_TILES = 9000
BENCH_REPEAT = 50
BENCH_SEED = 7


@contextmanager
def criterion(lines, num, label):
    try:
        yield
    except BaseException:
        lines.append(f"[criterion {num:>2}] FAIL — {label}")
        print(f"\n[criterion {num:>2}] FAIL — {label}")
        raise
    lines.append(f"[criterion {num:>2}] PASS — {label}")
    print(f"\n[criterion {num:>2}] PASS — {label}")


@pytest.fixture(scope="module")
def bench_entries():
    return generate_entries(SceneSpec(count=BENCH_TILES, seed=BENCH_SEED))


@pytest.fixture(scope="module")
def scaling_report(bench_entries):
    return bench_query_scaling(
        bench_entries, list(DEFAULT_COUNTS), repeat=BENCH_REPEAT, seed=BENCH_SEED + 1
    )


@pytest.fixture(scope="module")
def overhead_report(bench_entries):
    return bench_overhead(bench_entries, repeat=BENCH_REPEAT)


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    spec = SceneSpec(count=200, seed=47, size_px=8, revisits=4)
    root = tmp_path_factory.mktemp("acc") / "store"
    store = TileStore.create(root)
    for scene in generate_scenes(spec):
        store.ingest(scene)
    return spec, root


def test_criterion_01_index_equivalence(acceptance_report):
    """Every index kind returns exactly the oracle's tile set."""
    with criterion(acceptance_report, 1, "index equivalence vs linear-scan oracle "
                   "(600 tiles, 1200 queries, 3 kinds, exact)"):
        rows = random_rows(600, seed=101)
        entries = make_entries(rows)
        queries = random_queries(1200, seed=101)
        indexes = {kind: build_index(kind, entries) for kind in SINGLE_KINDS}
        mismatches = 0
        for box, trange in queries:
            want = oracle_scan(rows, box, trange)
            for kind, idx in indexes.items():
                got = idx.query(BoundingBox(*box), TimeRange(*trange))
                if set(got) != want:
                    mismatches += 1
        assert mismatches == 0


def test_criterion_02_geohash_laws(acceptance_report):
    """Containment + prefix laws for 10000 points, precisions 1-12."""
    with criterion(acceptance_report, 2, "geohash laws over 10000 points x "
                   "precisions 1-12 + reference codes (exact)"):
        assert geohash.encode(GeoPoint(0.0, 0.0), 1) == "s"
        assert geohash.encode(GeoPoint(10.40744, 57.64911), 11) == "u4pruydqqvj"
        import random

        rng = random.Random(202)
        for _ in range(10_000):
            p = GeoPoint(rng.uniform(-180.0, 180.0), rng.uniform(-90.0, 90.0))
            full = geohash.encode(p, 12)
            prev_box = None
            for k in range(1, 13):
                code = geohash.encode(p, k)
                assert len(code) == k
                assert full.startswith(code)  # prefix chain
                box = geohash.decode(code)
                assert box.min_lon <= p.lon <= box.max_lon
                assert box.min_lat <= p.lat <= box.max_lat
                if prev_box is not None:  # nesting
                    assert box.min_lon >= prev_box.min_lon - 1e-12
                    assert box.max_lon <= prev_box.max_lon + 1e-12
                prev_box = box


def test_criterion_03_racing_speedup_and_resilience(acceptance_report, populated_store):
    """Delayed workers never gate latency; node + worker loss changes no bytes."""
    spec, root = populated_store
    queries = [
        Query(box, trange, InfoKind.NDVI)
        for box, trange in generate_queries(spec, WorkloadSpec(count=100, seed=3))
    ]

    with criterion(acceptance_report, 3, "100ms delay in 2/3 workers -> index stage "
                   "< 100ms x100; node + worker failure -> zero byte changes x100"):
        # Part A: two of three workers delayed 100 ms.
        with System.open(root) as system:
            baseline = {}
            for i, q in enumerate(queries):
                res = execute_query(system, q)
                baseline[i] = (res.tile_ids, res.mosaic.values.tobytes())
            system.runner.set_delay("geohash", 0.1)
            system.runner.set_delay("ortholist", 0.1)
            for i, q in enumerate(queries):
                started = time.perf_counter()
                res = execute_query(system, q)
                index_stage = res.timings.index
                assert index_stage < 0.1, (i, index_stage)
                assert time.perf_counter() - started < 2.0
                assert res.tile_ids == baseline[i][0]
                assert res.mosaic.values.tobytes() == baseline[i][1]

        # Part B: one storage node down and one index worker killed outright.
        with System.open(root) as system:
            healthy = [execute_query(system, q).mosaic.values.tobytes() for q in queries]
            system.store.fail_node("node_01")
            victim = system.runner._workers["quadtree"]
            victim.handle.kill()
            victim.handle.join()
            try:
                degraded = [
                    execute_query(system, q).mosaic.values.tobytes() for q in queries
                ]
            finally:
                system.store.restore_node("node_01")
            assert degraded == healthy
            assert system.runner.worker_status()["quadtree"] is False


@pytest.mark.slow  # the 9000-tile, 50-rep benchmark reports
def test_criterion_04_multi_index_ordering(acceptance_report, scaling_report):
    """Racing multi-index is never slower than any single index; brute is slowest."""
    with criterion(acceptance_report, 4, "multi <= every single index and brute force "
                   "slowest, at every count 100-1000 (means of 50 reps)"):
        methods = scaling_report.results["methods"]
        counts = scaling_report.results["counts"]
        assert counts == list(DEFAULT_COUNTS)
        multi = methods["multi"]["mean_ms"]
        brute = methods["brute_force"]["mean_ms"]
        for i, count in enumerate(counts):
            for kind in SINGLE_KINDS:
                single = methods[kind]["mean_ms"][i]
                assert multi[i] <= single, (count, kind, multi[i], single)
                assert brute[i] >= single, (count, kind, brute[i], single)
            assert brute[i] >= multi[i], (count, brute[i], multi[i])


@pytest.mark.slow  # the 9000-tile, 50-rep benchmark reports
def test_criterion_05_linearity(acceptance_report, scaling_report):
    """Multi-index elapsed grows linearly in query count."""
    with criterion(acceptance_report, 5, "linear fit of multi elapsed vs count has "
                   "R^2 >= 0.98"):
        fit = scaling_report.results["fit"]
        assert fit["method"] == "multi"
        assert fit["r2"] >= 0.98, fit
        assert fit["slope_ms_per_query"] > 0


@pytest.mark.slow  # the 9000-tile, 50-rep benchmark reports
def test_criterion_06_overhead_ordering(acceptance_report, overhead_report):
    """Multi-index is biggest but equals the sum of parts; building all three
    one after another costs at most 1.5x the slowest single build."""
    with criterion(acceptance_report, 6, "multi size largest, = sum of singles within "
                   "5%, build <= 1.5x max single, total <= 64 MB at 9000 tiles"):
        methods = overhead_report.results["methods"]
        multi = methods["multi"]
        single_sizes = [methods[k]["size_bytes"] for k in SINGLE_KINDS]
        assert multi["size_bytes"] > max(single_sizes)
        total = sum(single_sizes)
        assert total <= multi["size_bytes"] <= total * 1.05
        assert multi["size_bytes"] <= 64 * 1024 * 1024
        max_single_build = max(methods[k]["build_mean_ms"] for k in SINGLE_KINDS)
        assert multi["build_mean_ms"] <= 1.5 * max_single_build, (
            multi["build_mean_ms"], max_single_build,
        )
        assert overhead_report.params["tile_count"] == BENCH_TILES


def test_criterion_07_band_math(acceptance_report):
    """Pixel-wise index properties on shapes from 1x1 up to 256x256."""
    with criterion(acceptance_report, 7, "band math: NDVI in [-1,1], NIR=Red -> 0, "
                   "zero denominator -> no-data, dims preserved (incl 1x1, 256x256)"):
        rng = np.random.default_rng(404)
        for shape in ((1, 1), (3, 5), (17, 2), (256, 256)):
            nir = rng.uniform(0.0, 1.0, shape).astype(np.float32)
            red = rng.uniform(0.0, 1.0, shape).astype(np.float32)
            out = compute_index(
                InfoKind.NDVI, BandGrid("NIR", nir), BandGrid("Red", red)
            ).values
            assert out.shape == shape
            ok = ~np.isnan(out)
            assert np.all(out[ok] >= -1.0) and np.all(out[ok] <= 1.0)
            zero_denom = (nir + red) == 0.0
            assert np.isnan(out[zero_denom]).all()
            same = compute_index(
                InfoKind.NDVI, BandGrid("NIR", nir), BandGrid("Red", nir)
            ).values
            assert np.all(same == 0.0)
            for kind in InfoKind:
                assert compute_index(
                    kind, BandGrid("NIR", nir), BandGrid("Red", red)
                ).values.shape == shape


def test_criterion_08_four_tile_mosaic(acceptance_report, tmp_path):
    """A 2x2 block query returns four tiles assembled byte-exactly in place."""
    with criterion(acceptance_report, 8, "2x2 block query -> tile_count 4, quadrants "
                   "byte-equal to per-tile NDVI (exact)"):
        spec = SceneSpec(count=4, seed=29, size_px=16, revisits=1)
        root = tmp_path / "block"
        store = TileStore.create(root)
        for scene in generate_scenes(spec):
            store.ingest(scene)
        q = Query(corpus_extent(spec), corpus_timespan(spec), InfoKind.NDVI)
        with System.open(root, SystemConfig(race=RaceConfig(backend="thread"))) as system:
            res = execute_query(system, q)
            assert res.tile_count == 4
            assert res.mosaic.values.shape == (32, 32)
            assert not res.mosaic.no_data.any()
            for tid in res.tile_ids:
                meta = store.metadata(tid)
                nir = store.fetch_band(tid, "NIR").values
                red = store.fetch_band(tid, "Red").values
                want = (nir - red) / (nir + red)  # float32 in, float32 out
                r0 = 0 if meta.bbox.max_lat == q.bbox.max_lat else 16
                c0 = 0 if meta.bbox.min_lon == q.bbox.min_lon else 16
                got = res.mosaic.values[r0 : r0 + 16, c0 : c0 + 16]
                assert got.tobytes() == want.tobytes(), tid


def test_criterion_09_format_round_trips(acceptance_report, tmp_path):
    """Bytes in, identical bytes out — band blobs, catalog rows, PGM goldens."""
    with criterion(acceptance_report, 9, "band/catalog round-trips bit-identical "
                   "across runs; golden PGM bytes (exact)"):
        rng = np.random.default_rng(505)
        grid = rng.uniform(-1.0, 1.0, (9, 7)).astype(np.float32)
        grid[0, 0] = np.nan
        blob_a = pack_band(grid)
        blob_b = pack_band(grid.copy())
        assert blob_a == blob_b
        assert unpack_band(blob_a).tobytes() == grid.tobytes()

        spec = SceneSpec(count=6, seed=61, size_px=4)
        roots = []
        for run in ("a", "b"):
            root = tmp_path / f"store_{run}"
            store = TileStore.create(root)
            for scene in generate_scenes(spec):
                store.ingest(scene)
            roots.append(root)
        cat_a = (roots[0] / "catalog.ndjson").read_bytes()
        cat_b = (roots[1] / "catalog.ndjson").read_bytes()
        assert cat_a == cat_b
        store_a, store_b = TileStore.open(roots[0]), TileStore.open(roots[1])
        for meta in store_a.catalog_rows():
            for label in ("NIR", "Red"):
                assert (
                    store_a.fetch_band(meta.tile_id, label).values.tobytes()
                    == store_b.fetch_band(meta.tile_id, label).values.tobytes()
                )

        from georace.bandmath import Mosaic

        vals = np.array([[np.nan, 0.0], [1.0, -1.0]], dtype=np.float32)
        mosaic = Mosaic(BoundingBox(0.0, 0.5, 0.0, 0.5), vals, 0.25, ())
        pgm_once = render_pgm(mosaic, InfoKind.NDVI)
        pgm_again = render_pgm(mosaic, InfoKind.NDVI)
        assert pgm_once == pgm_again
        assert pgm_once == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 1])


@pytest.mark.slow  # the 9000-tile, 50-rep benchmark reports
def test_criterion_10_experiment_protocol(acceptance_report, scaling_report, overhead_report):
    """Benchmarks repeat 50x and report mean +/- stddev in JSON."""
    import json

    with criterion(acceptance_report, 10, "benches repeat 50x and emit mean +/- stddev "
                   "JSON (structural)"):
        for report in (scaling_report, overhead_report):
            assert report.repeat == BENCH_REPEAT
            doc = json.loads(report.to_json())
            assert set(doc) == {"scenario", "repeat", "params", "results"}
            assert doc["repeat"] == BENCH_REPEAT
        scaling_doc = json.loads(scaling_report.to_json())
        for stats in scaling_doc["results"]["methods"].values():
            assert len(stats["mean_ms"]) == len(DEFAULT_COUNTS)
            assert len(stats["std_ms"]) == len(DEFAULT_COUNTS)
            assert all(s >= 0.0 for s in stats["std_ms"])
        overhead_doc = json.loads(overhead_report.to_json())
        for stats in overhead_doc["results"]["methods"].values():
            assert stats["build_mean_ms"] > 0.0
            assert stats["build_std_ms"] >= 0.0
