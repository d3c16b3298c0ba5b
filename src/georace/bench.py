"""Benchmark harness: query-scaling and index-overhead experiments.

Each experiment repeats a configurable number of times (default 50)
and reports mean and standard deviation. Timings are taken with the
monotonic nanosecond clock and reported in milliseconds. Workloads are
seeded and therefore reproducible; repetitions are interleaved across
methods (with a rotating method order) so cache warmth and clock drift
spread evenly instead of favoring whichever method runs last.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from statistics import fmean, stdev

import numpy as np

from .errors import ValidationError
from .geo import BoundingBox, TimeRange
from .indexes import SINGLE_KINDS, IndexConfig, IndexEntry, build_index
from .multi_index import build_all
from .racing import RaceConfig, RaceRunner
from .synth import WorkloadSpec, workload_queries

DEFAULT_REPEAT = 50
DEFAULT_COUNTS = tuple(range(100, 1001, 100))
BRUTE_KIND = "brute_force"
MULTI_METHOD = "multi"


@dataclass
class BenchReport:
    """One experiment's parameters and measurements, JSON-serializable."""

    scenario: str
    repeat: int
    params: dict
    results: dict

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "repeat": self.repeat,
            "params": self.params,
            "results": self.results,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        doc = json.loads(text)
        return cls(doc["scenario"], doc["repeat"], doc["params"], doc["results"])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}   (repeat={self.repeat})"]
        if self.scenario == "query_scaling":
            counts = self.results["counts"]
            methods = self.results["methods"]
            header = "queries".rjust(8) + "".join(name.rjust(16) for name in methods)
            lines.append(header)
            for i, count in enumerate(counts):
                row = f"{count:8d}"
                for name, stats in methods.items():
                    row += f"{stats['mean_ms'][i]:10.2f}±{stats['std_ms'][i]:<5.2f}"
                lines.append(row)
            fit = self.results["fit"]
            lines.append(
                f"fit ({fit['method']}): {fit['slope_ms_per_query']*1000:.1f} µs/query, "
                f"intercept {fit['intercept_ms']:.2f} ms, R²={fit['r2']:.4f}"
            )
        elif self.scenario == "index_overhead":
            lines.append(f"{'method':>12}{'build mean':>14}{'build std':>12}{'size':>12}")
            for name, stats in self.results["methods"].items():
                lines.append(
                    f"{name:>12}{stats['build_mean_ms']:>11.1f} ms"
                    f"{stats['build_std_ms']:>9.1f} ms"
                    f"{stats['size_bytes']:>11,d} B"
                )
        else:
            lines.append(json.dumps(self.results, indent=2))
        return "\n".join(lines)


def _mean_std(samples: list[float]) -> tuple[float, float]:
    return fmean(samples), (stdev(samples) if len(samples) > 1 else 0.0)


def _entries_extent(entries: list[IndexEntry]) -> tuple[BoundingBox, TimeRange, float]:
    """Union bbox, time span, and median footprint width of a corpus."""
    if not entries:
        raise ValidationError("benchmark needs a non-empty corpus")
    boxes = [e.bbox for e in entries]
    extent = BoundingBox(
        min(b.min_lon for b in boxes),
        max(b.max_lon for b in boxes),
        min(b.min_lat for b in boxes),
        max(b.max_lat for b in boxes),
    )
    times = [e.time.start for e in entries] + [e.time.end for e in entries]
    span = TimeRange(min(times), max(times))
    widths = sorted(b.width for b in boxes)
    tile_edge = widths[len(widths) // 2] or extent.width or 1.0
    return extent, span, tile_edge


def bench_query_scaling(
    entries: list[IndexEntry],
    query_counts: list[int] | None = None,
    *,
    repeat: int = DEFAULT_REPEAT,
    seed: int = 1,
    index_config: IndexConfig | None = None,
    race_config: RaceConfig | None = None,
    warmup: int = 100,
) -> BenchReport:
    """Elapsed time vs. query count: racing multi-index, each single index
    alone, and a brute-force scan baseline.

    Every method executes through the same worker machinery — the single
    indexes and the brute-force scan each get a one-worker runner — and
    batches go through the runners' bulk path, so the comparison isolates
    the index method itself rather than per-query wake-up costs (which on a
    small host are large, noisy, and identical across methods). The multi
    method's runner has one worker per kind, and they share each batch
    through one cursor: every worker claims the next unanswered query, so
    the batch spreads over the CPUs and the faster kinds answer more of it.
    Per count, the batch is the first N queries of one fixed seeded
    workload, so counts nest."""
    counts = list(query_counts) if query_counts else list(DEFAULT_COUNTS)
    if any(c < 1 for c in counts) or counts != sorted(counts):
        raise ValidationError("query counts must be positive and increasing")
    if repeat < 1:
        raise ValidationError("repeat must be >= 1")

    index_config = index_config or IndexConfig()
    extent, span, tile_edge = _entries_extent(entries)
    queries = workload_queries(extent, span, tile_edge, WorkloadSpec(max(counts), seed))

    singles = {kind: build_index(kind, entries, index_config) for kind in SINGLE_KINDS}
    brute = build_index(BRUTE_KIND, entries, index_config)
    race = race_config or RaceConfig()
    runners = {MULTI_METHOD: RaceRunner(singles, config=race)}
    for kind, idx in singles.items():
        runners[kind] = RaceRunner({kind: idx}, config=race)
    runners[BRUTE_KIND] = RaceRunner({BRUTE_KIND: brute}, config=race)
    try:
        methods = {name: r.run_batch for name, r in runners.items()}

        head = queries[: min(warmup, len(queries))]
        for run in methods.values():
            run(head)

        elapsed_ms: dict[str, dict[int, list[float]]] = {
            name: {c: [] for c in counts} for name in methods
        }
        names = list(methods)
        for rep in range(repeat):
            order = names[rep % len(names):] + names[: rep % len(names)]
            for count in counts:
                batch = queries[:count]
                for name in order:
                    start = time.perf_counter_ns()
                    methods[name](batch)
                    elapsed_ms[name][count].append((time.perf_counter_ns() - start) / 1e6)
    finally:
        for r in runners.values():
            r.close()

    method_stats = {}
    for name in methods:
        means, stds = [], []
        for count in counts:
            mean, std = _mean_std(elapsed_ms[name][count])
            means.append(mean)
            stds.append(std)
        method_stats[name] = {
            "mean_ms": means,
            "std_ms": stds,
            "mean_us_per_query": [m * 1000.0 / c for m, c in zip(means, counts)],
        }

    multi_means = np.asarray(method_stats[MULTI_METHOD]["mean_ms"])
    xs = np.asarray(counts, dtype=float)
    slope, intercept = np.polyfit(xs, multi_means, 1)
    predicted = slope * xs + intercept
    ss_res = float(np.sum((multi_means - predicted) ** 2))
    ss_tot = float(np.sum((multi_means - multi_means.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    race = race_config or RaceConfig()
    return BenchReport(
        scenario="query_scaling",
        repeat=repeat,
        params={
            "tile_count": len(entries),
            "seed": seed,
            "edge_tiles": [1.0, 4.0],
            "backend": race.backend,
            "hedge_delay_s": race.hedge_delay,
            "warmup_queries": len(head),
        },
        results={
            "counts": counts,
            "methods": method_stats,
            "fit": {
                "method": MULTI_METHOD,
                "slope_ms_per_query": float(slope),
                "intercept_ms": float(intercept),
                "r2": float(r2),
            },
        },
    )


def bench_overhead(
    entries: list[IndexEntry],
    *,
    repeat: int = DEFAULT_REPEAT,
    index_config: IndexConfig | None = None,
    executor: str = "process",
) -> BenchReport:
    """Build wall-time and serialized size: each single index vs. the
    combined multi-index (all three built by ``build_all``, spread over
    the CPUs).

    The two sides time different spans. A single build times only its
    ``build_seconds``: the traversal that fills the index, without the
    entry validation. The multi build times the whole ``build_all`` call:
    validation, forking and collecting the workers, the snapshot stamp,
    assembling GeoHash from its row chunks and the per-index snapshot check. The multi side therefore carries work the
    single side does not, which makes a bound on their ratio stricter."""
    if repeat < 1:
        raise ValidationError("repeat must be >= 1")
    index_config = index_config or IndexConfig()

    # repetitions interleave the methods with a rotating order, so a drift in
    # host speed reaches every method alike
    names = [*SINGLE_KINDS, MULTI_METHOD]
    samples: dict[str, list[float]] = {name: [] for name in names}
    sizes: dict[str, int] = {}
    sum_singles = 0
    for rep in range(repeat):
        for name in names[rep % len(names):] + names[: rep % len(names)]:
            built = None  # free the previous build before the clock starts
            if name == MULTI_METHOD:
                start = time.perf_counter_ns()
                built = build_all(entries, config=index_config, executor=executor)
                samples[name].append((time.perf_counter_ns() - start) / 1e6)
            else:
                built = build_index(name, entries, index_config)
                samples[name].append(built.build_seconds * 1e3)
            if rep == repeat - 1:
                sizes[name] = built.serialized_size
                if name == MULTI_METHOD:
                    sum_singles = sum(idx.serialized_size for idx in built.indexes.values())

    method_stats: dict[str, dict] = {}
    for name in names:
        mean, std = _mean_std(samples[name])
        method_stats[name] = {"build_mean_ms": mean, "build_std_ms": std, "size_bytes": sizes[name]}
    method_stats[MULTI_METHOD]["sum_single_bytes"] = sum_singles

    return BenchReport(
        scenario="index_overhead",
        repeat=repeat,
        params={"tile_count": len(entries), "executor": executor},
        results={"methods": method_stats},
    )
