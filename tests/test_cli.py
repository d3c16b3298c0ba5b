"""Command-line interface: end-to-end flows and exit codes."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import georace
from georace.cli import (
    EXIT_OK,
    EXIT_STORE,
    EXIT_TIMEOUT,
    EXIT_VALIDATION,
    main,
    parse_counts,
)
from georace.errors import ValidationError
from georace.synth import SceneSpec, corpus_extent, corpus_timespan


class TestParseCounts:
    def test_range_default_step(self):
        assert parse_counts("100..400") == [100, 200, 300, 400]

    def test_range_custom_step(self):
        assert parse_counts("10..50:20") == [10, 30, 50]

    def test_comma_list(self):
        assert parse_counts("1,5,10") == [1, 5, 10]

    def test_single_value(self):
        assert parse_counts("250") == [250]

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_counts("ten..twenty")


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """gen-scenes then ingest, via the real CLI entry point."""
    base = tmp_path_factory.mktemp("cli")
    scenes = base / "scenes"
    store = base / "store"
    spec = SceneSpec(count=8, seed=31, size_px=8, band_labels=("NIR", "Red"), revisits=4)
    assert main([
        "gen-scenes", "--out", str(scenes), "--count", "8",
        "--size", "8", "--bands", "5", "--seed", "31",
    ]) == EXIT_OK
    assert main(["ingest", str(scenes), "--store", str(store)]) == EXIT_OK
    return store, spec


def query_argv(store, spec, **over):
    extent = corpus_extent(spec)
    span = corpus_timespan(spec)
    over.setdefault("min-lon", extent.min_lon)
    over.setdefault("max-lon", extent.max_lon)
    over.setdefault("min-lat", extent.min_lat)
    over.setdefault("max-lat", extent.max_lat)
    over.setdefault("start", span.start)
    over.setdefault("end", span.end)
    argv = ["query", "--store", str(store)]
    for key, val in over.items():
        argv += [f"--{key}", str(val)]
    return argv


class TestGenScenes:
    def test_writes_requested_count(self, tmp_path):
        out = tmp_path / "sc"
        assert main([
            "gen-scenes", "--out", str(out), "--count", "3", "--size", "4",
        ]) == EXIT_OK
        assert len(list(out.glob("*.npz"))) == 3

    def test_bad_band_count_is_validation_error(self, tmp_path):
        assert main([
            "gen-scenes", "--out", str(tmp_path / "x"), "--count", "1", "--bands", "99",
        ]) == EXIT_VALIDATION


class TestIngest:
    def test_empty_dir_is_validation_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["ingest", str(empty), "--store", str(tmp_path / "s")]) == EXIT_VALIDATION

    def test_double_ingest_is_store_error(self, ingested, tmp_path):
        store, _ = ingested
        scenes = store.parent / "scenes"
        assert main(["ingest", str(scenes), "--store", str(store)]) == EXIT_STORE


class TestQuery:
    def test_query_prints_json_and_writes_pgm(self, ingested, tmp_path, capsys):
        store, spec = ingested
        out = tmp_path / "heat.pgm"
        code = main(query_argv(store, spec, info="ndvi", out=out))
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["tile_count"] == spec.count
        assert doc["winner"] in ("geohash", "quadtree", "ortholist")
        assert doc["image"] == str(out)
        blob = out.read_bytes()
        assert blob.startswith(b"P5\n")
        rows, cols = doc["mosaic"]["rows"], doc["mosaic"]["cols"]
        assert blob.endswith(bytes([0]) * 0 + blob[-rows * cols:])  # payload present
        assert len(blob) == len(f"P5\n{cols} {rows}\n255\n") + rows * cols

    def test_query_with_verify_flag(self, ingested, capsys):
        store, spec = ingested
        assert main(query_argv(store, spec) + ["--verify"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tile_count"] == spec.count

    def test_query_satellite_filter(self, ingested, capsys):
        store, spec = ingested
        assert main(query_argv(store, spec, satellite="landsat8")) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert 0 < doc["tile_count"] < spec.count

    def test_inverted_box_is_validation_error(self, ingested):
        store, spec = ingested
        argv = query_argv(store, spec, **{"min-lon": 10.0, "max-lon": 5.0})
        assert main(argv) == EXIT_VALIDATION

    def test_world_box_is_validation_error(self, ingested, capsys):
        store, spec = ingested
        world = {"min-lon": -180.0, "max-lon": 180.0, "min-lat": -90.0, "max-lat": 90.0}
        assert main(query_argv(store, spec, **world)) == EXIT_VALIDATION
        assert "limit" in capsys.readouterr().err

    def test_missing_store_is_validation_error(self, tmp_path, ingested):
        _, spec = ingested
        argv = query_argv(tmp_path / "absent", spec)
        assert main(argv) == EXIT_VALIDATION


class TestNode:
    def test_fail_restore_cycle(self, ingested, capsys):
        store, spec = ingested
        assert main(["node", "fail", "node_02", "--store", str(store)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"]["node_02"] is False
        # queries keep working against the two surviving replicas
        assert main(query_argv(store, spec)) == EXIT_OK
        capsys.readouterr()
        assert main(["node", "restore", "node_02", "--store", str(store)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"]["node_02"] is True

    def test_unknown_node_is_store_error(self, ingested):
        store, _ = ingested
        assert main(["node", "fail", "node_42", "--store", str(store)]) == EXIT_STORE

    def test_all_nodes_down_query_is_store_error(self, ingested, capsys):
        store, spec = ingested
        for node in ("node_00", "node_01", "node_02"):
            main(["node", "fail", node, "--store", str(store)])
        capsys.readouterr()
        try:
            assert main(query_argv(store, spec)) == EXIT_STORE
        finally:
            for node in ("node_00", "node_01", "node_02"):
                main(["node", "restore", node, "--store", str(store)])
            capsys.readouterr()


class TestBench:
    def test_scaling_smoke_writes_json(self, tmp_path, capsys):
        out = tmp_path / "scaling.json"
        code = main([
            "bench", "scaling", "--tiles", "60", "--counts", "5,10",
            "--repeat", "2", "--json", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["scenario"] == "query_scaling"
        assert doc["repeat"] == 2
        text = capsys.readouterr().out
        assert "multi" in text and "brute_force" in text

    def test_overhead_smoke(self, tmp_path, capsys):
        out = tmp_path / "overhead.json"
        code = main([
            "bench", "overhead", "--tiles", "50", "--repeat", "2", "--json", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["scenario"] == "index_overhead"
        assert capsys.readouterr().out


class TestTimeoutExit:
    def test_timeout_maps_to_exit_4(self, ingested, monkeypatch):
        store, spec = ingested
        from georace import cli
        from georace.errors import QueryTimeoutError

        def boom(*a, **k):
            raise QueryTimeoutError("deadline exceeded")

        monkeypatch.setattr(cli, "execute_query", boom)
        assert main(query_argv(store, spec)) == EXIT_TIMEOUT


def _stat(pid: int) -> tuple[str, int] | None:
    """(state, parent pid) of a process from /proc, None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, parent = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(parent)


def _alive(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _live_children(ppid: int) -> list[int]:
    pids = [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]
    return [pid for pid in pids if (_stat(pid) or ("", 0))[1] == ppid and _alive(pid)]


class TestServe:
    # SIGTERM must stop the race workers as SIGINT does; after SIGKILL the
    # server cleans nothing up, and the workers must still see their request
    # pipes close
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
    def test_no_race_worker_outlives_the_server(self, ingested, sig):
        store, _ = ingested
        env = dict(os.environ, PYTHONPATH=str(Path(georace.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "georace.cli", "serve", "--store", str(store), "--port", "0"],
            stdout=subprocess.PIPE, env=env,
        )
        workers = []
        try:
            assert proc.stdout.readline().startswith(b"serving ")
            workers = _live_children(proc.pid)
            assert len(workers) == 3
            proc.send_signal(sig)
            code = proc.wait(timeout=10)
            if sig == signal.SIGTERM:
                assert code == EXIT_OK
            deadline = time.monotonic() + 2.0
            while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
