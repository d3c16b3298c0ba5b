"""Multi-index construction: determinism, container format, error naming."""

import os
import struct
import time

import pytest

from conftest import make_entries, random_rows
from georace.errors import IndexBuildError, ValidationError
from georace.multi_index import (
    DEFAULT_REPLICAS,
    build_all,
)
from georace import multi_index as mi


@pytest.fixture(scope="module")
def entries():
    return make_entries(random_rows(150, seed=61))


def test_builds_all_three_kinds(entries):
    multi = build_all(entries, executor="serial")
    assert multi.kinds() == ("geohash", "quadtree", "ortholist")
    assert len(multi) == len(entries)
    assert multi.build_wall_seconds > 0
    assert all(s.build_seconds >= 0 and s.serialized_bytes > 0 for s in multi.build_stats)


def test_rebuild_is_deterministic(entries):
    a = build_all(entries, executor="serial")
    b = build_all(entries, executor="serial")
    assert a.snapshot == b.snapshot
    for kind in a.kinds():
        assert a.indexes[kind].to_bytes() == b.indexes[kind].to_bytes()
    assert a.to_bytes() == b.to_bytes()


def test_process_executor_builds_same_bytes(entries):
    serial = build_all(entries, executor="serial")
    forked = build_all(entries, executor="process")
    assert forked.to_bytes() == serial.to_bytes()


def test_container_layout(entries):
    multi = build_all(entries, executor="serial")
    blob = multi.to_bytes()
    assert blob[:4] == b"GXMX"
    version, count = struct.unpack_from("<HB", blob, 4)
    assert (version, count) == (1, 3)
    # container size is exactly the parts plus the per-kind framing
    parts = {kind: idx.to_bytes() for kind, idx in multi.indexes.items()}
    framing = 7 + sum(1 + len(kind) + 8 for kind in parts)
    assert len(blob) == framing + sum(len(b) for b in parts.values())


def test_snapshot_stamp_tracks_content(entries):
    stamp = build_all(entries, executor="serial").snapshot
    assert build_all(list(entries), executor="process").snapshot == stamp
    other = make_entries(random_rows(150, seed=62))
    assert build_all(other, executor="serial").snapshot != stamp


def test_replica_assignment_covers_all_kinds(entries):
    multi = build_all(entries, executor="serial", replicas=("n0", "n1", "n2"))
    assert sorted(multi.replica_assignment) == ["geohash", "ortholist", "quadtree"]
    assert sorted(multi.replica_assignment.values()) == ["n0", "n1", "n2"]
    with pytest.raises(ValidationError):
        build_all(entries, replicas=("n0", "n0", "n1"))


# geohash work goes through _bucket_chunk on both executors (on the process
# path in the forked child and the calling process alike); quadtree is built
# whole by _build_one in the calling process
def _route(monkeypatch, kind, geohash_chunk, whole_build):
    if kind == "geohash":
        real = mi._bucket_chunk
        monkeypatch.setattr(mi, "_bucket_chunk", lambda *a: geohash_chunk(real, *a))
    else:
        real = mi._build_one
        monkeypatch.setattr(
            mi, "_build_one",
            lambda k, rows, config: whole_build(real, rows, config) if k == kind
            else real(k, rows, config),
        )


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("failing", ["geohash", "quadtree"])
def test_build_failure_names_the_kind(entries, monkeypatch, executor, failing):
    def boom(*args):
        raise RuntimeError("boom")

    _route(monkeypatch, failing, boom, boom)
    with pytest.raises(IndexBuildError, match=f"{failing}: boom"):
        build_all(entries, executor=executor)


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("drifting", ["geohash", "quadtree"])
def test_snapshot_check_rejects_index_built_from_other_rows(
    entries, monkeypatch, executor, drifting
):
    # the drifting side sees the snapshot without its last row
    def chunk_from_other_rows(real, rows, ids, config, buckets):
        real(rows, range(ids.start, min(ids.stop, len(rows) - 1)), config, buckets)

    def build_from_other_rows(real, rows, config):
        return real(drifting, rows[:-1], config)

    _route(monkeypatch, drifting, chunk_from_other_rows, build_from_other_rows)
    with pytest.raises(
        IndexBuildError, match=f"{drifting}: built from a different entry snapshot"
    ):
        build_all(entries, executor=executor)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the process path forks only with 2+ CPUs")
@pytest.mark.parametrize(
    "fault, message",
    [("raise", "geohash: boom"), ("exit", "geohash: build worker exited with code 3")],
)
def test_child_failure_names_geohash(entries, monkeypatch, fault, message):
    parent = os.getpid()
    real = mi._bucket_chunk
    held_back = []

    def chunk(rows, ids, config, buckets):
        if os.getpid() == parent:
            if not held_back:  # leave the child time to claim a chunk first
                held_back.append(ids)
                time.sleep(0.1)
        elif fault == "raise":
            raise RuntimeError("boom")
        else:
            os._exit(3)
        real(rows, ids, config, buckets)

    monkeypatch.setattr(mi, "_bucket_chunk", chunk)
    monkeypatch.setattr(mi, "_GEOHASH_CHUNK", 1)
    with pytest.raises(IndexBuildError, match=message):
        build_all(entries, executor="process")


def test_geohash_chunk_claims_under_contention(entries, monkeypatch):
    # one row per chunk and three build processes whatever the CPU count:
    # every claim contends for the shared counter, and a lost update would
    # bucket a row twice (changing the bytes) or skip it (failing the
    # snapshot check)
    monkeypatch.setattr(mi, "_GEOHASH_CHUNK", 1)
    monkeypatch.setattr(mi.os, "cpu_count", lambda: 3)
    serial = build_all(entries, executor="serial").to_bytes()
    for _ in range(5):
        assert build_all(entries, executor="process").to_bytes() == serial


def test_default_replicas_are_three_nodes():
    assert len(DEFAULT_REPLICAS) == 3
    assert len(set(DEFAULT_REPLICAS)) == 3


def test_executor_validation(entries):
    with pytest.raises(ValidationError):
        build_all(entries, executor="threads")
    with pytest.raises(ValidationError):
        build_all(entries, executor="process", max_workers=0)
