"""Benchmark harness: report structure and small-scale sanity runs."""

import json

import pytest

from georace.bench import (
    DEFAULT_COUNTS,
    DEFAULT_REPEAT,
    BenchReport,
    bench_overhead,
    bench_query_scaling,
)
from georace.errors import ValidationError
from georace.racing import RaceConfig
from georace.synth import SceneSpec, generate_entries

ENTRIES = generate_entries(SceneSpec(count=80, seed=41))
COUNTS = [20, 80, 320]
REPEAT = 3


@pytest.fixture(scope="module")
def scaling():
    return bench_query_scaling(
        ENTRIES,
        COUNTS,
        repeat=REPEAT,
        seed=2,
        race_config=RaceConfig(backend="thread"),
        warmup=10,
    )


@pytest.fixture(scope="module")
def overhead():
    return bench_overhead(ENTRIES, repeat=REPEAT)


class TestDefaults:
    def test_default_counts_and_repeat(self):
        assert DEFAULT_COUNTS == tuple(range(100, 1001, 100))
        assert DEFAULT_REPEAT == 50


class TestScalingReport:
    def test_schema(self, scaling):
        assert scaling.scenario == "query_scaling"
        assert scaling.repeat == REPEAT
        assert scaling.results["counts"] == COUNTS
        methods = scaling.results["methods"]
        assert set(methods) == {"multi", "geohash", "quadtree", "ortholist", "brute_force"}
        for stats in methods.values():
            assert len(stats["mean_ms"]) == len(COUNTS)
            assert len(stats["std_ms"]) == len(COUNTS)
            assert len(stats["mean_us_per_query"]) == len(COUNTS)
            assert all(m > 0 for m in stats["mean_ms"])
            assert all(s >= 0 for s in stats["std_ms"])

    def test_params_recorded(self, scaling):
        params = scaling.params
        assert params["tile_count"] == len(ENTRIES)
        assert params["backend"] == "thread"
        assert params["warmup_queries"] == 10

    def test_fit_block(self, scaling):
        fit = scaling.results["fit"]
        assert fit["method"] == "multi"
        assert fit["slope_ms_per_query"] > 0
        assert -1.0 <= fit["r2"] <= 1.0

    def test_json_round_trip(self, scaling, tmp_path):
        path = tmp_path / "r.json"
        scaling.save(path)
        again = BenchReport.from_json(path.read_text())
        assert again.to_dict() == scaling.to_dict()
        assert json.loads(path.read_text())["scenario"] == "query_scaling"

    def test_to_text_mentions_every_method(self, scaling):
        text = scaling.to_text()
        for name in ("multi", "geohash", "quadtree", "ortholist", "brute_force"):
            assert name in text
        assert "r2" in text or "R²" in text or "r^2" in text

    def test_counts_must_increase(self):
        with pytest.raises(ValidationError):
            bench_query_scaling(ENTRIES, [10, 5], repeat=1)
        with pytest.raises(ValidationError):
            bench_query_scaling(ENTRIES, [0, 5], repeat=1)
        with pytest.raises(ValidationError):
            bench_query_scaling(ENTRIES, [5], repeat=0)


class TestOverheadReport:
    def test_schema(self, overhead):
        assert overhead.scenario == "index_overhead"
        methods = overhead.results["methods"]
        assert set(methods) == {"geohash", "quadtree", "ortholist", "multi"}
        for stats in methods.values():
            assert stats["build_mean_ms"] > 0
            assert stats["build_std_ms"] >= 0
            assert stats["size_bytes"] > 0

    def test_multi_size_is_sum_of_singles_plus_framing(self, overhead):
        methods = overhead.results["methods"]
        total = sum(methods[k]["size_bytes"] for k in ("geohash", "quadtree", "ortholist"))
        multi = methods["multi"]
        assert multi["sum_single_bytes"] == total
        assert total < multi["size_bytes"] <= total * 1.05

    def test_multi_is_largest(self, overhead):
        methods = overhead.results["methods"]
        multi = methods["multi"]["size_bytes"]
        assert all(
            methods[k]["size_bytes"] < multi for k in ("geohash", "quadtree", "ortholist")
        )

    def test_to_text_smoke(self, overhead):
        text = overhead.to_text()
        assert "multi" in text and "size" in text and " B" in text
