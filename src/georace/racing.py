"""First-completion-wins query racing over the index ensemble.

One persistent worker per index kind runs range queries on its own copy of
the index; the runner dispatches a query to the workers and takes the first
reply. Both backends share one mechanism: each worker reads requests from
one pipe and writes replies to another, polls one shared watermark, claims
bulk queries from one shared cursor, and runs the same loop; RaceConfig.backend only picks whether a forked process (the
default) or a thread runs it. A forked worker inherits its index through
fork, so nothing is pickled on the way in.

A race is a hedged request (Dean & Barroso, "The Tail at Scale", CACM 2013)
in a fixed order: QuadTree, OrthoList, GeoHash (_PRIORITY). The first live
kind in that order is dispatched at once, the rest after hedge_delay. No
kind predicts its cost: the primary almost always answers before the hedge
fires, and a primary that is not the fastest kind costs a few microseconds.
With hedge_delay = 0 all workers dispatch at once. On a single-CPU host
simultaneous dispatch makes the kernel run a losing worker first often
enough to double the mean race latency, which is why the hedged schedule is
the default; any worker can still win, and a stalled primary is overtaken
after one hedge_delay.

The bulk path (run_batch) sends the whole batch to every live worker, and
the workers share it through one cursor in shared memory: each claims the
next unanswered query until none is left, so a faster kind simply claims
more of them (self-balancing work sharing, as in Blumofe & Leiserson,
"Scheduling multithreaded computations by work stealing", JACM 1999).

Cancellation is cooperative: the runner bumps a shared watermark after a
query settles, and workers poll it between index-node visits (queries carry
monotonically increasing ids; an id at or below the watermark is dead).
Late replies for settled queries and abandoned batches are discarded by id.

Worker failure is simulated at dispatch: a failed kind receives no queries
until restored. Delay injection happens inside the worker (a cancellable
sleep before the index traversal), so delayed losers really do occupy their
worker until cancelled.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as connection_wait

from .errors import IndexMismatchError, QueryTimeoutError, ValidationError
from .geo import BoundingBox, TimeRange
from .indexes import IndexKind, QueryCancelled, RangeIndex

CANCELLED = "cancelled"

# race dispatch order, and the tie-break when replies arrive in the same
# wait wake-up
_PRIORITY = {
    IndexKind.QUADTREE.value: 0,
    IndexKind.ORTHOLIST.value: 1,
    IndexKind.GEOHASH.value: 2,
}
_DELAY_SLICE = 0.001


@dataclass(frozen=True)
class RaceConfig:
    backend: str = "process"  # "process" | "thread"
    hedge_delay: float = 0.002  # seconds; 0 dispatches all workers at once
    deadline: float = 30.0
    verification: bool = False

    def __post_init__(self) -> None:
        if self.backend not in ("process", "thread"):
            raise ValidationError(f"backend must be process|thread, got {self.backend!r}")
        if self.hedge_delay < 0:
            raise ValidationError("hedge_delay must be >= 0")
        if self.deadline <= 0:
            raise ValidationError("deadline must be > 0")


@dataclass(frozen=True)
class RaceOutcome:
    """Result of one race: the tile set, who won, observed per-kind latency.

    latency_by_kind values are master-observed seconds from dispatch start to
    reply arrival; losers that were cancelled (or never dispatched) carry the
    string "cancelled". The winner's latency is minimal among recorded floats
    by construction (arrival order defines it).
    """

    result: frozenset[str]
    winner: str
    latency_by_kind: dict[str, float | str] = field(default_factory=dict)


@dataclass
class RaceStats:
    queries: int = 0
    winner_counts: Counter = field(default_factory=Counter)
    latency_sum: float = 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.queries if self.queries else 0.0


def _run_query(index: RangeIndex, payload, watermark, delay_s: float):
    """Shared worker-side execution: cancellable delay, then the traversal."""
    qid, box4, t0, t1 = payload
    if delay_s > 0.0:
        end = time.perf_counter() + delay_s
        while time.perf_counter() < end:
            if watermark.value >= qid:
                return ("cancelled", qid, None, 0.0)
            time.sleep(min(_DELAY_SLICE, max(0.0, end - time.perf_counter())))
    started = time.perf_counter()
    try:
        result = index.query(
            BoundingBox(*box4),
            TimeRange(t0, t1),
            should_cancel=lambda: watermark.value >= qid,
        )
    except QueryCancelled:
        return ("cancelled", qid, None, 0.0)
    except Exception as exc:  # defensive: surface, don't kill the worker
        return ("error", qid, repr(exc), 0.0)
    return ("ok", qid, tuple(result), time.perf_counter() - started)


def _run_batch(index: RangeIndex, base: int, items, cursor, watermark, delay_s: float):
    """Worker-side bulk execution: claim the batch's queries from the shared
    cursor one at a time, until none is left, and answer each claimed one.

    items[j] is query base + j. The runner points the cursor at base before
    it sends the batch and never moves it down, so a worker still on an
    abandoned batch finds the cursor past that batch's end and stops at once.
    """
    lock, claimed = cursor.get_lock(), cursor.get_obj()
    end = base + len(items)
    out = []
    while True:
        with lock:
            qid = claimed.value
            if not base <= qid < end or watermark.value >= qid:
                return tuple(out)
            claimed.value = qid + 1
        out.append(_run_query(index, (qid, *items[qid - base]), watermark, delay_s))


def _worker_loop(index: RangeIndex, requests, replies, cursor, watermark, inherited) -> None:
    """One worker's loop, run by a process or a thread: answer each request
    on the reply pipe until "stop" or until the request pipe closes.

    A forked worker first closes its copies of the runner's pipe ends, so a
    dead runner leaves every request pipe at EOF and no worker behind.
    """
    for conn in inherited:
        conn.close()
    delay_s = 0.0
    try:
        while True:
            msg = requests.recv()
            tag = msg[0]
            if tag == "stop":
                return
            if tag == "delay":
                delay_s = msg[1]
            elif tag == "batch":
                answers = _run_batch(index, msg[1], msg[2], cursor, watermark, delay_s)
                replies.send(("batch", msg[1], answers, 0.0))
            else:
                replies.send(_run_query(index, msg[1], watermark, delay_s))
    except (EOFError, OSError):
        return  # the runner is gone or closed its pipe ends


class _Worker:
    __slots__ = ("kind", "requests", "replies", "ends", "handle", "failed", "dead")

    def __init__(self, kind, requests, replies, ends, handle):
        self.kind = kind
        self.requests = requests  # runner's sending end of the request pipe
        self.replies = replies  # runner's receiving end of the reply pipe
        self.ends = ends  # every pipe end this process holds for the worker
        self.handle = handle  # the Process or Thread running _worker_loop
        self.failed = False  # admin fault injection: skip at dispatch
        self.dead = False  # pipe gone (worker process died for real)


class RaceRunner:
    """Owns one worker per index kind and races them per query."""

    def __init__(
        self,
        indexes: dict[str, RangeIndex],
        *,
        config: RaceConfig | None = None,
        ensemble: tuple[str, ...] | None = None,
    ):
        if not indexes:
            raise ValidationError("at least one index required")
        self.config = config or RaceConfig()
        self.ensemble = tuple(ensemble) if ensemble is not None else tuple(indexes)
        for kind in self.ensemble:
            if kind not in indexes:
                raise ValidationError(f"ensemble kind {kind!r} has no index")
        self._qid = 0
        self._lock = threading.Lock()
        self.stats = RaceStats()
        self._closed = False
        self._workers: dict[str, _Worker] = {}
        ctx = get_context("fork")
        forked = self.config.backend == "process"
        run = ctx.Process if forked else threading.Thread
        self._watermark = ctx.Value("q", 0, lock=False)
        self._cursor = ctx.Value("q", 0)  # next query of the batch to claim
        for kind, index in indexes.items():
            req_recv, req_send = ctx.Pipe(duplex=False)
            reply_recv, reply_send = ctx.Pipe(duplex=False)
            inherited = ()
            if forked:
                inherited = [end for w in self._workers.values() for end in w.ends]
                inherited += (req_send, reply_recv)
            handle = run(
                target=_worker_loop,
                args=(index, req_recv, reply_send, self._cursor, self._watermark, inherited),
                daemon=True,
            )
            handle.start()
            if forked:  # the child holds the worker's ends now
                req_recv.close()
                reply_send.close()
                ends = (req_send, reply_recv)
            else:
                ends = (req_send, reply_recv, req_recv, reply_send)
            self._workers[kind] = _Worker(kind, req_send, reply_recv, ends, handle)

    # -- worker control -----------------------------------------------------

    def _worker(self, kind: str) -> _Worker:
        try:
            return self._workers[kind]
        except KeyError:
            raise ValidationError(f"unknown index kind {kind!r}") from None

    def fail_worker(self, kind: str) -> None:
        self._worker(kind).failed = True

    def restore_worker(self, kind: str) -> None:
        self._worker(kind).failed = False

    def set_delay(self, kind: str, seconds: float) -> None:
        """Inject an artificial pre-traversal delay into one worker."""
        if seconds < 0:
            raise ValidationError("delay must be >= 0")
        self._worker(kind).requests.send(("delay", seconds))

    def worker_status(self) -> dict[str, bool]:
        return {kind: not w.failed and not w.dead for kind, w in self._workers.items()}

    # -- query path ---------------------------------------------------------

    def query(
        self,
        box: BoundingBox,
        trange: TimeRange,
        *,
        kinds: tuple[str, ...] | None = None,
        deadline: float | None = None,
        verification: bool | None = None,
    ) -> RaceOutcome:
        with self._lock:
            return self._query_locked(box, trange, kinds, deadline, verification)

    def _query_locked(self, box, trange, kinds, deadline, verification) -> RaceOutcome:
        if self._closed:
            raise ValidationError("runner is closed")
        deadline = self.config.deadline if deadline is None else deadline
        verification = self.config.verification if verification is None else verification
        requested = tuple(kinds) if kinds is not None else self.ensemble
        for kind in requested:
            self._worker(kind)  # validates
        alive = [
            k for k in requested
            if not self._workers[k].failed and not self._workers[k].dead
        ]
        if not alive:
            raise QueryTimeoutError("no live index workers for this query")

        self._qid += 1
        qid = self._qid
        payload = (qid, box.as_tuple(), trange.start, trange.end)

        order = sorted(alive, key=lambda k: _PRIORITY.get(k, 99))
        hedge = 0.0 if (verification or len(order) == 1) else self.config.hedge_delay

        t_start = time.perf_counter()
        t_deadline = t_start + deadline
        pending: set[str] = set()
        not_dispatched = list(order)
        errors: dict[str, str] = {}

        def dispatch(kind: str) -> None:
            try:
                self._workers[kind].requests.send(("q", payload))
            except (OSError, ValueError) as exc:
                self._workers[kind].dead = True
                errors[kind] = f"dispatch failed: {exc}"
                return
            pending.add(kind)

        dispatch(not_dispatched.pop(0))
        if hedge == 0.0:
            while not_dispatched:
                dispatch(not_dispatched.pop(0))
        hedge_at = t_start + hedge

        finished: dict[str, tuple[frozenset[str], float]] = {}
        winner: str | None = None

        while True:
            now = time.perf_counter()
            if now >= t_deadline:
                self._settle(qid)
                raise QueryTimeoutError(
                    f"query {qid} exceeded deadline of {deadline:.3f}s"
                )
            if not_dispatched and now >= hedge_at:
                while not_dispatched:
                    dispatch(not_dispatched.pop(0))
            timeout = t_deadline - now
            if not_dispatched:
                timeout = min(timeout, hedge_at - now)
            arrived = self._drain(max(timeout, 0.0))
            t_arrival = time.perf_counter()
            ready: list[str] = []
            for kind, status, r_qid, payload_r, _compute_s in arrived:
                if status == "dead":  # worker pipe is gone; count it out
                    pending.discard(kind)
                    errors[kind] = str(payload_r)
                    continue
                if r_qid != qid or status == "cancelled":
                    continue  # stale or cancelled: discard
                pending.discard(kind)
                if status == "error":
                    errors[kind] = payload_r
                elif status == "ok":
                    finished[kind] = (frozenset(payload_r), t_arrival - t_start)
                    ready.append(kind)
            if ready and winner is None:
                winner = min(ready, key=lambda k: _PRIORITY.get(k, 99))
            if winner is not None and not verification:
                break
            if verification and not pending and not not_dispatched:
                break
            if not pending and not not_dispatched and not finished:
                self._settle(qid)
                raise QueryTimeoutError(
                    f"query {qid}: all index workers failed ({errors})"
                )

        self._settle(qid)
        if verification:
            if not finished:
                raise QueryTimeoutError(f"query {qid}: no worker finished ({errors})")
            sets = {kind: res for kind, (res, _) in finished.items()}
            reference = sets[winner]
            odd = sorted(k for k, s in sets.items() if s != reference)
            if odd:
                raise IndexMismatchError(
                    f"index results disagree: {odd} differ from {winner}"
                )

        result, win_latency = finished[winner]
        latencies: dict[str, float | str] = {}
        for kind in requested:
            if kind in finished:
                latencies[kind] = finished[kind][1]
            else:
                latencies[kind] = CANCELLED
        outcome = RaceOutcome(result=result, winner=winner, latency_by_kind=latencies)
        self.stats.queries += 1
        self.stats.winner_counts[winner] += 1
        self.stats.latency_sum += win_latency
        return outcome

    # -- bulk path ------------------------------------------------------------

    def run_batch(
        self,
        queries,
        *,
        kinds: tuple[str, ...] | None = None,
        deadline: float | None = None,
    ) -> list["RaceOutcome"]:
        """Answer every (box, trange) of queries once, in bulk; results
        return in query order.

        Every live worker receives the whole batch in one message, and the
        workers claim its queries one at a time from the shared cursor, so
        each query runs on one kind and the faster kinds answer more of
        them. There is no racing or hedging per query; that is the query()
        path. Failover holds: the queries a dead worker claimed but did not
        answer run again on the survivors in a new round, and a kind that
        returns an error is left out of the batch's later rounds, so the
        query is retried on another kind. A query that no live kind could
        answer raises QueryTimeoutError.
        """
        with self._lock:
            return self._run_batch_locked(list(queries), kinds, deadline)

    def _run_batch_locked(self, queries, kinds, deadline) -> list["RaceOutcome"]:
        if self._closed:
            raise ValidationError("runner is closed")
        deadline = self.config.deadline if deadline is None else deadline
        requested = tuple(kinds) if kinds is not None else self.ensemble
        for kind in requested:
            self._worker(kind)  # validates
        if not queries:
            return []

        t_deadline = time.perf_counter() + deadline
        outcomes: list[RaceOutcome | None] = [None] * len(queries)
        todo = list(range(len(queries)))
        errors: dict[str, str] = {}
        left_out: set[str] = set()  # kinds that returned an error in this batch

        while todo:
            alive = [
                k for k in requested
                if not self._workers[k].failed and not self._workers[k].dead
            ]
            if not alive:
                raise QueryTimeoutError(f"no live index workers for this batch ({errors})")
            alive = [k for k in alive if k not in left_out]
            if not alive:
                raise QueryTimeoutError(
                    f"batch query {todo[0]} failed on every live kind ({errors})"
                )

            # this round's queries take the next len(todo) ids, from base up
            base = self._qid + 1
            self._qid += len(todo)
            items = tuple(
                (queries[i][0].as_tuple(), queries[i][1].start, queries[i][1].end)
                for i in todo
            )
            with self._cursor.get_lock():
                self._cursor.value = base
            pending: set[str] = set()
            for kind in alive:
                try:
                    self._workers[kind].requests.send(("batch", base, items))
                except (OSError, ValueError) as exc:
                    self._workers[kind].dead = True
                    errors[kind] = f"dispatch failed: {exc}"
                    continue
                pending.add(kind)

            while pending:
                now = time.perf_counter()
                if now >= t_deadline:
                    self._settle(self._qid)
                    raise QueryTimeoutError(
                        f"batch exceeded deadline of {deadline:.3f}s"
                    )
                for kind, status, r_base, answers, _ in self._drain(t_deadline - now):
                    if status == "dead":
                        pending.discard(kind)
                        errors[kind] = str(answers)
                    elif status == "batch" and r_base == base:
                        pending.discard(kind)
                        for q_status, qid, tiles, compute_s in answers:
                            if q_status == "ok":
                                outcomes[todo[qid - base]] = RaceOutcome(
                                    result=frozenset(tiles),
                                    winner=kind,
                                    latency_by_kind={kind: compute_s},
                                )
                                self.stats.queries += 1
                                self.stats.winner_counts[kind] += 1
                                self.stats.latency_sum += compute_s
                            elif q_status == "error":
                                errors[kind] = str(tiles)
                                left_out.add(kind)
                    # other replies belong to settled races or abandoned batches

            todo = [i for i in todo if outcomes[i] is None]

        self._settle(self._qid)
        return outcomes  # type: ignore[return-value]

    def _settle(self, qid: int) -> None:
        self._watermark.value = qid

    def _drain(self, timeout: float):
        """Replies that arrived within timeout (may be empty)."""
        out = []
        conns = {w.replies: k for k, w in self._workers.items() if not w.dead}
        if not conns:
            return out
        for conn in connection_wait(list(conns), timeout):
            kind = conns[conn]
            try:
                while conn.poll():
                    status, qid, payload, compute_s = conn.recv()
                    out.append((kind, status, qid, payload, compute_s))
            except (EOFError, OSError):
                self._workers[kind].dead = True
                out.append((kind, "dead", -1, "worker pipe closed", 0.0))
        return out

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and close every pipe end the runner holds."""
        if self._closed:
            return
        self._closed = True
        self._watermark.value = self._qid + 1
        for w in self._workers.values():
            try:
                w.requests.send(("stop",))
            except (OSError, ValueError):
                pass
        for w in self._workers.values():
            w.handle.join(timeout=1.0)
            if self.config.backend == "process" and w.handle.is_alive():
                w.handle.terminate()
                w.handle.join()
            for end in w.ends:
                end.close()

    def __enter__(self) -> "RaceRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass
