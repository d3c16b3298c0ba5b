"""Multi-index construction: determinism, container format, error naming."""

import struct

import pytest

from conftest import make_entries, random_rows
from georace.errors import IndexBuildError, ValidationError
from georace.multi_index import build_all
from georace import multi_index as mi


@pytest.fixture(scope="module")
def entries():
    return make_entries(random_rows(150, seed=61))


def test_builds_all_three_kinds(entries):
    multi = build_all(entries)
    assert tuple(multi.indexes) == ("geohash", "quadtree", "ortholist")
    assert len(multi) == len(entries)
    assert multi.build_wall_seconds > 0
    assert all(
        idx.build_seconds >= 0 and idx.serialized_size > 0 for idx in multi.indexes.values()
    )


def test_rebuild_is_deterministic(entries):
    a = build_all(entries)
    b = build_all(entries)
    assert a.snapshot == b.snapshot
    for kind in a.indexes:
        assert a.indexes[kind].to_bytes() == b.indexes[kind].to_bytes()
    assert a.to_bytes() == b.to_bytes()


def test_container_layout(entries):
    multi = build_all(entries)
    blob = multi.to_bytes()
    assert blob[:4] == b"GXMX"
    version, count = struct.unpack_from("<HB", blob, 4)
    assert (version, count) == (1, 3)
    # container size is exactly the parts plus the per-kind framing
    parts = {kind: idx.to_bytes() for kind, idx in multi.indexes.items()}
    framing = 7 + sum(1 + len(kind) + 8 for kind in parts)
    assert len(blob) == framing + sum(len(b) for b in parts.values())


def test_snapshot_stamp_tracks_content(entries):
    stamp = build_all(entries).snapshot
    assert build_all(list(entries)).snapshot == stamp
    other = make_entries(random_rows(150, seed=62))
    assert build_all(other).snapshot != stamp


@pytest.mark.parametrize("failing", ["geohash", "quadtree"])
def test_build_failure_names_the_kind(entries, monkeypatch, failing):
    real = mi.build_index_from_rows

    def build(kind, rows, config):
        if kind == failing:
            raise RuntimeError("boom")
        return real(kind, rows, config)

    monkeypatch.setattr(mi, "build_index_from_rows", build)
    with pytest.raises(IndexBuildError, match=f"{failing}: boom"):
        build_all(entries)


def test_executor_validation(entries):
    with pytest.raises(ValidationError):
        build_all(entries, executor="threads")
