"""The benchmark's checks accept the program's answers and reject perturbed ones.

    python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import base64
import dataclasses
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from georace import (BoundingBox, RaceConfig, RasterScene, System, SystemConfig,  # noqa: E402
                     TileStore)
from georace.service import handle_query  # noqa: E402

MINI = wl.Workload(
    name="mini", tiles=48, size_px=8, bands=("NIR", "Red"), revisits=4,
    nodata=0.2, box_tiles=(1.0, 3.0), window_s=None, window_share=(0.3, 1.0),
    satellite_share=0.5, queries_per_round=24,
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A store ingested from the mini corpus, opened, with each query's reply."""
    root = tmp_path_factory.mktemp("mini") / "store"
    corpus = wl.make_corpus(MINI, seed=5)
    store = TileStore.create(root)
    for i in range(len(corpus)):
        corpus.ids[i] = store.ingest(RasterScene(
            bbox=BoundingBox(*corpus.bbox_deg(i)),
            capture_time=int(corpus.capture[i]),
            satellite=str(corpus.satellite[i]),
            bands=tuple((label, corpus.pixels[i][label]) for label in MINI.bands),
        ))
    # plus one query that matches nothing, for the empty-mosaic path
    queries = wl.make_queries(corpus, seed=5) + [wl.Query(0, 0, 12, 8, 0, 1, "rvi", None)]
    with System.open(root, SystemConfig(race=RaceConfig(backend="thread"))) as system:
        replies = [handle_query(system, q.body(corpus)) for q in queries]
    return root, corpus, queries, replies


def test_program_answers_pass(served):
    _, corpus, queries, replies = served
    for q, doc in zip(queries, replies):
        assert wl.check_reply(doc, wl.expected_answer(corpus, q)) is None
    # the queries exercise overlaps, empty answers and the satellite filter
    counts = [len(doc["tile_ids"]) for doc in replies]
    assert max(counts) >= 4 and min(counts) == 0
    assert any(q.satellite for q in queries)


def _busy(served):
    """A query whose answer paints several overlapping tiles, with its reply."""
    _, corpus, queries, replies = served
    k = max(range(len(queries)), key=lambda k: len(replies[k]["tile_ids"]))
    return corpus, queries[k], replies[k], wl.expected_answer(corpus, queries[k])


def _with_image(doc, pgm: bytes) -> dict:
    return dict(doc, image_b64=base64.b64encode(pgm).decode())


def test_tile_id_perturbations_fail(served):
    _, q, doc, expected = _busy(served)
    ids = doc["tile_ids"]
    for bad in (ids[:-1], ids + [ids[0]], ids[::-1], ["t000000000000"] + ids[1:]):
        assert wl.check_reply(dict(doc, tile_ids=bad), expected) is not None
    assert wl.check_reply(dict(doc, tile_count=len(ids) + 1), expected) is not None


def test_satellite_filter_is_checked(served):
    corpus, q, doc, _ = _busy(served)
    unfiltered = dataclasses.replace(q, satellite=None)
    filtered = dataclasses.replace(q, satellite=wl.SATELLITES[0])
    a = wl.expected_answer(corpus, unfiltered)
    b = wl.expected_answer(corpus, filtered)
    assert set(b.tile_ids) < set(a.tile_ids)
    assert wl.check_reply({"tile_ids": a.tile_ids, "tile_count": len(a.tile_ids),
                           "image_b64": base64.b64encode(a.pgm).decode()}, b) is not None


def test_pixel_perturbations_fail(served):
    _, _, doc, expected = _busy(served)
    pgm = bytearray(expected.pgm)
    pgm[-1] ^= 1
    assert wl.check_reply(_with_image(doc, bytes(pgm)), expected) is not None
    assert wl.check_reply(_with_image(doc, expected.pgm[:-1]), expected) is not None
    assert wl.check_reply(dict(doc, image_b64="not base64!"), expected) is not None


def test_painting_order_is_checked(served):
    corpus, q, doc, expected = _busy(served)
    order = wl.expected_order(corpus, q)
    oldest_wins = wl.expected_pgm(corpus, q, order[::-1])
    assert wl.check_reply(_with_image(doc, oldest_wins), expected) is not None


def test_band_math_rules_are_checked(served, monkeypatch):
    corpus, q, doc, expected = _busy(served)
    order = wl.expected_order(corpus, q)
    real = wl.vegetation_index

    def without_negative_rule(info, nir, red):
        return real(info, np.abs(nir), np.abs(red))

    def formula_swapped(info, nir, red):
        return real(info, red, nir)

    for fake in (without_negative_rule, formula_swapped):
        monkeypatch.setattr(wl, "vegetation_index", fake)
        wrong = wl.expected_pgm(corpus, q, order)
        monkeypatch.setattr(wl, "vegetation_index", real)
        assert wl.check_reply(_with_image(doc, wrong), expected) is not None


def test_quantisation_is_checked(served, monkeypatch):
    corpus, q, doc, expected = _busy(served)
    order = wl.expected_order(corpus, q)

    def floor_bytes(values, info):
        lo, hi = wl.DISPLAY[info]
        v = values.astype(np.float64)
        out = np.zeros(v.shape, np.uint8)
        ok = ~np.isnan(v)
        out[ok] = (np.floor(np.clip((v[ok] - lo) / (hi - lo), 0, 1) * 254) + 1).astype(np.uint8)
        return out

    monkeypatch.setattr(wl, "display_bytes", floor_bytes)
    wrong = wl.expected_pgm(corpus, q, order)
    monkeypatch.undo()
    assert wl.check_reply(_with_image(doc, wrong), expected) is not None


def _band_files(root: Path) -> list[Path]:
    return sorted(Path(d) / f for d, _, fs in os.walk(root / "nodes") for f in fs
                  if f.endswith(".band"))


def test_replica_check(served, tmp_path):
    root, corpus, _, _ = served
    assert wl.check_replicas(root, corpus) == []

    copy = tmp_path / "store"
    shutil.copytree(root, copy)
    files = _band_files(copy)
    blob = bytearray(files[0].read_bytes())
    blob[-1] ^= 0x01
    files[0].write_bytes(bytes(blob))
    assert any("pixels differ" in p for p in wl.check_replicas(copy, corpus))

    files[1].unlink()
    assert any("2 copies" in p for p in wl.check_replicas(copy, corpus))

    header = bytearray(files[2].read_bytes())
    header[0:4] = b"XXXX"
    files[2].write_bytes(bytes(header))
    assert any("header" in p for p in wl.check_replicas(copy, corpus))

    stray = files[3].parent / "Extra.band"
    stray.write_bytes(files[3].read_bytes())
    assert any("never ingested" in p for p in wl.check_replicas(copy, corpus))
