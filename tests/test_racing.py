"""Racing runner: correctness under races, faults, delays, and verification."""

import time

import pytest

from conftest import make_entries, oracle_scan, random_queries, random_rows
from georace.errors import IndexMismatchError, QueryTimeoutError, ValidationError
from georace.geo import BoundingBox, TimeRange
from georace.indexes import SINGLE_KINDS, IndexConfig, build_index
from georace.multi_index import build_all
from georace.racing import RaceConfig, RaceRunner


def build_singles(rows, **cfg):
    entries = make_entries(rows)
    config = IndexConfig(**cfg)
    return {kind: build_index(kind, entries, config) for kind in SINGLE_KINDS}


@pytest.fixture(scope="module")
def corpus():
    rows = random_rows(300, seed=71)
    queries = random_queries(120, seed=71)
    return rows, queries


@pytest.fixture(scope="module")
def runner(corpus):
    rows, _ = corpus
    with RaceRunner(build_singles(rows)) as r:
        yield r


class TestCorrectness:
    def test_results_match_oracle(self, corpus, runner):
        rows, queries = corpus
        for box, trange in queries:
            outcome = runner.query(BoundingBox(*box), TimeRange(*trange))
            assert outcome.result == oracle_scan(rows, box, trange)
            assert outcome.winner in SINGLE_KINDS

    def test_winner_latency_is_minimal_recorded(self, corpus, runner):
        rows, queries = corpus
        for box, trange in queries[:30]:
            outcome = runner.query(BoundingBox(*box), TimeRange(*trange))
            floats = [v for v in outcome.latency_by_kind.values() if isinstance(v, float)]
            assert outcome.latency_by_kind[outcome.winner] == min(floats)

    def test_losers_marked_cancelled_or_timed(self, corpus, runner):
        rows, queries = corpus
        outcome = runner.query(BoundingBox(*queries[0][0]), TimeRange(*queries[0][1]))
        for kind in SINGLE_KINDS:
            v = outcome.latency_by_kind[kind]
            assert isinstance(v, float) or v == "cancelled"

    def test_stats_accumulate(self, corpus):
        rows, queries = corpus
        with RaceRunner(build_singles(rows)) as r:
            for box, trange in queries[:10]:
                r.query(BoundingBox(*box), TimeRange(*trange))
            assert r.stats.queries == 10
            assert sum(r.stats.winner_counts.values()) == 10
            assert r.stats.mean_latency > 0


class _OnBackend:
    """Cases that run on the race backend named by the subclass."""

    backend = "process"

    def runner(self, indexes, **config):
        return RaceRunner(indexes, config=RaceConfig(backend=self.backend, **config))


class _VerificationCases(_OnBackend):
    def test_verification_waits_for_all(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows), verification=True) as r:
            for box, trange in queries[:15]:
                outcome = r.query(BoundingBox(*box), TimeRange(*trange))
                assert all(
                    isinstance(v, float) for v in outcome.latency_by_kind.values()
                )
                assert outcome.result == oracle_scan(rows, box, trange)

    def test_mismatch_is_named(self, corpus):
        rows, _ = corpus
        indexes = build_singles(rows)
        # skew one index by building it from a different corpus
        bad_rows = rows[:-5]
        indexes["geohash"] = build_index("geohash", make_entries(bad_rows), IndexConfig())
        with self.runner(indexes) as r:
            box = BoundingBox(-170, 170, -80, 80)
            trange = TimeRange(0, 10_000)
            with pytest.raises(IndexMismatchError, match="geohash"):
                r.query(box, trange, verification=True)


class _FaultCases(_OnBackend):
    def test_single_worker_failures_do_not_change_results(self, corpus):
        rows, queries = corpus
        baseline = {}
        with self.runner(build_singles(rows)) as r:
            for i, (box, trange) in enumerate(queries[:40]):
                baseline[i] = r.query(BoundingBox(*box), TimeRange(*trange)).result
        for failed_kind in SINGLE_KINDS:
            with self.runner(build_singles(rows)) as r:
                r.fail_worker(failed_kind)
                for i, (box, trange) in enumerate(queries[:40]):
                    outcome = r.query(BoundingBox(*box), TimeRange(*trange))
                    assert outcome.result == baseline[i]
                    assert outcome.winner != failed_kind

    def test_two_failures_still_answer(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            r.fail_worker("geohash")
            r.fail_worker("quadtree")
            box, trange = queries[0]
            outcome = r.query(BoundingBox(*box), TimeRange(*trange))
            assert outcome.winner == "ortholist"
            assert outcome.result == oracle_scan(rows, box, trange)

    def test_all_failed_raises_timeout_error(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            for kind in SINGLE_KINDS:
                r.fail_worker(kind)
            box, trange = queries[0]
            with pytest.raises(QueryTimeoutError):
                r.query(BoundingBox(*box), TimeRange(*trange))
            r.restore_worker("quadtree")
            assert r.query(BoundingBox(*box), TimeRange(*trange)).winner == "quadtree"

    def test_delayed_workers_lose_but_results_hold(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            r.set_delay("geohash", 0.1)
            r.set_delay("ortholist", 0.1)
            for box, trange in queries[:25]:
                start = time.perf_counter()
                outcome = r.query(BoundingBox(*box), TimeRange(*trange))
                elapsed = time.perf_counter() - start
                assert outcome.result == oracle_scan(rows, box, trange)
                assert outcome.winner == "quadtree"
                assert elapsed < 0.1

    def test_deadline_enforced(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            for kind in SINGLE_KINDS:
                r.set_delay(kind, 0.5)
            box, trange = queries[0]
            with pytest.raises(QueryTimeoutError):
                r.query(BoundingBox(*box), TimeRange(*trange), deadline=0.05)
            # workers recover once the delay is cleared
            for kind in SINGLE_KINDS:
                r.set_delay(kind, 0.0)
            assert (
                r.query(BoundingBox(*box), TimeRange(*trange)).result
                == oracle_scan(rows, box, trange)
            )


class TestVerification(_VerificationCases):
    pass


class TestVerificationThread(_VerificationCases):
    backend = "thread"


class TestFaults(_FaultCases):
    def test_killed_worker_process_is_survived(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            victim = r._workers["quadtree"].handle
            victim.kill()
            victim.join(timeout=2)
            for box, trange in queries[:20]:
                outcome = r.query(BoundingBox(*box), TimeRange(*trange))
                assert outcome.result == oracle_scan(rows, box, trange)
                assert outcome.winner != "quadtree"
            assert r.worker_status()["quadtree"] is False


class TestFaultsThread(_FaultCases):
    backend = "thread"


@pytest.mark.parametrize("backend", ["process", "thread"])
def test_close_stops_workers_and_closes_pipes(corpus, backend):
    rows, queries = corpus
    r = RaceRunner(build_singles(rows), config=RaceConfig(backend=backend))
    box, trange = queries[0]
    r.query(BoundingBox(*box), TimeRange(*trange))
    workers = list(r._workers.values())
    r.close()
    for w in workers:
        assert not w.handle.is_alive()
        assert w.ends and all(end.closed for end in w.ends)


class TestBackendsAndConfig:
    def test_thread_backend_matches_oracle(self, corpus):
        rows, queries = corpus
        cfg = RaceConfig(backend="thread")
        with RaceRunner(build_singles(rows), config=cfg) as r:
            for box, trange in queries[:40]:
                assert r.query(BoundingBox(*box), TimeRange(*trange)).result == oracle_scan(
                    rows, box, trange
                )

    def test_simultaneous_dispatch_matches_oracle(self, corpus):
        rows, queries = corpus
        cfg = RaceConfig(hedge_delay=0.0)
        with RaceRunner(build_singles(rows), config=cfg) as r:
            for box, trange in queries[:40]:
                assert r.query(BoundingBox(*box), TimeRange(*trange)).result == oracle_scan(
                    rows, box, trange
                )

    def test_subset_kinds(self, corpus):
        rows, queries = corpus
        with RaceRunner(build_singles(rows)) as r:
            box, trange = queries[0]
            outcome = r.query(BoundingBox(*box), TimeRange(*trange), kinds=("ortholist",))
            assert outcome.winner == "ortholist"
            assert outcome.result == oracle_scan(rows, box, trange)
            with pytest.raises(ValidationError):
                r.query(BoundingBox(*box), TimeRange(*trange), kinds=("rtree",))

    def test_runner_from_multi_index(self, corpus):
        rows, queries = corpus
        multi = build_all(make_entries(rows), executor="serial")
        with RaceRunner(multi.indexes) as r:
            box, trange = queries[0]
            assert r.query(BoundingBox(*box), TimeRange(*trange)).result == oracle_scan(
                rows, box, trange
            )

    def test_closed_runner_rejects_queries(self, corpus):
        rows, _ = corpus
        r = RaceRunner(build_singles(rows))
        r.close()
        with pytest.raises(ValidationError):
            r.query(BoundingBox(0, 1, 0, 1), TimeRange(0, 1))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RaceConfig(backend="coroutine")
        with pytest.raises(ValidationError):
            RaceConfig(hedge_delay=-1)
        with pytest.raises(ValidationError):
            RaceConfig(deadline=0)
