"""Racing runner: correctness under races, faults, delays, and verification."""

import sys
import threading
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


class _RaisesOn:
    """An index that raises for one query box and answers the rest."""

    def __init__(self, index, box):
        self.index = index
        self.box = box

    def query(self, box, trange, should_cancel=None):
        if box == self.box:
            raise RuntimeError("injected index fault")
        return self.index.query(box, trange, should_cancel)


def as_batch(queries):
    return [(BoundingBox(*box), TimeRange(*trange)) for box, trange in queries]


def oracle_results(rows, queries):
    return [oracle_scan(rows, box, trange) for box, trange in queries]


class _BatchCases(_OnBackend):
    def test_batch_matches_oracle(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            outcomes = r.run_batch(as_batch(queries))
            assert [o.result for o in outcomes] == oracle_results(rows, queries)
            assert {o.winner for o in outcomes} <= set(SINGLE_KINDS)
            assert r.stats.queries == len(queries)
            # the next batch moves the shared cursor on and is answered whole
            again = r.run_batch(as_batch(queries[:7]))
            assert [o.result for o in again] == oracle_results(rows, queries[:7])

    def test_each_query_claimed_once_under_contention(self, corpus):
        # three workers on fewer cores, switching threads as often as the
        # interpreter allows: a lost update of the cursor would answer some
        # query twice, which the runner's stats count
        rows, queries = corpus
        box, trange = BoundingBox(0, 0.5, 0, 0.5), TimeRange(0, 1)  # cheap queries
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with self.runner(build_singles(rows)) as r:
                for _ in range(5):
                    outcomes = r.run_batch([(box, trange)] * 400, deadline=10.0)
                    assert len(outcomes) == 400
                assert r.stats.queries == 5 * 400
        finally:
            sys.setswitchinterval(interval)

    def test_empty_batch(self, corpus):
        rows, _ = corpus
        with self.runner(build_singles(rows)) as r:
            assert r.run_batch([]) == []

    def test_failed_kind_answers_no_query(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            r.fail_worker("ortholist")
            outcomes = r.run_batch(as_batch(queries[:60]))
            assert [o.result for o in outcomes] == oracle_results(rows, queries[:60])
            assert all(o.winner != "ortholist" for o in outcomes)

    def test_erroring_kind_is_retried_on_another(self, corpus):
        rows, queries = corpus
        box, trange = queries[0]
        indexes = build_singles(rows)
        indexes["geohash"] = _RaisesOn(indexes["geohash"], BoundingBox(*box))
        with self.runner(indexes) as r:
            # the others wait before each query, so GeoHash claims most copies
            r.set_delay("quadtree", 0.02)
            r.set_delay("ortholist", 0.02)
            outcomes = r.run_batch(as_batch([queries[0]] * 6))
            assert [o.result for o in outcomes] == oracle_results(rows, [queries[0]] * 6)
            assert all(o.winner != "geohash" for o in outcomes)
            # GeoHash is left out of that batch only
            r.set_delay("quadtree", 0.0)
            r.set_delay("ortholist", 0.0)
            outcomes = r.run_batch(as_batch(queries[1:40]))
            assert [o.result for o in outcomes] == oracle_results(rows, queries[1:40])

    def test_query_every_kind_fails_raises(self, corpus):
        rows, queries = corpus
        box, _ = queries[0]
        indexes = build_singles(rows)
        indexes["geohash"] = _RaisesOn(indexes["geohash"], BoundingBox(*box))
        with self.runner(indexes) as r:
            with pytest.raises(QueryTimeoutError, match="failed on every live kind"):
                r.run_batch(as_batch(queries[:5]), kinds=("geohash",))
            outcomes = r.run_batch(as_batch(queries[:5]))
            assert [o.result for o in outcomes] == oracle_results(rows, queries[:5])

    def test_deadline_raises_and_stale_replies_are_discarded(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            with pytest.raises(QueryTimeoutError, match="deadline"):
                r.run_batch(as_batch(queries), deadline=1e-6)
            for box, trange in queries[:10]:
                outcome = r.query(BoundingBox(*box), TimeRange(*trange))
                assert outcome.result == oracle_scan(rows, box, trange)
            outcomes = r.run_batch(as_batch(queries[:30]))
            assert [o.result for o in outcomes] == oracle_results(rows, queries[:30])


class TestBatch(_BatchCases):
    def test_worker_killed_before_the_batch(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            victim = r._workers["quadtree"].handle
            victim.kill()
            victim.join(timeout=2)
            outcomes = r.run_batch(as_batch(queries))
            assert [o.result for o in outcomes] == oracle_results(rows, queries)
            assert all(o.winner != "quadtree" for o in outcomes)
            assert r.worker_status()["quadtree"] is False

    def test_worker_killed_mid_batch_is_failed_over(self, corpus):
        rows, queries = corpus
        with self.runner(build_singles(rows)) as r:
            # QuadTree claims a query, then sleeps in its delay until killed
            r.set_delay("quadtree", 2.0)
            victim = r._workers["quadtree"].handle
            killer = threading.Timer(0.2, victim.kill)
            killer.start()
            try:
                outcomes = r.run_batch(as_batch(queries))
            finally:
                killer.join()
            assert [o.result for o in outcomes] == oracle_results(rows, queries)
            assert all(o.winner != "quadtree" for o in outcomes)
            assert r.worker_status()["quadtree"] is False


class TestBatchThread(_BatchCases):
    backend = "thread"


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
