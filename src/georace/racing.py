"""First-completion-wins query racing over the index ensemble.

One persistent worker per index kind runs range queries on its own copy of
the index; the runner dispatches a query to the workers and takes the first
reply. Both backends share one mechanism: each worker reads requests from
one pipe and writes replies to another, polls one shared watermark, and runs
the same loop; RaceConfig.backend only picks whether a forked process (the
default) or a thread runs it. A forked worker inherits its index through
fork, so nothing is pickled on the way in.

Dispatch is tiered: workers are ordered by each index's own cost estimate
for the query, the predicted-fastest is dispatched immediately, the rest
after hedge_delay. With hedge_delay = 0 all workers dispatch at once. On a
single-CPU host simultaneous dispatch makes the kernel run a losing worker
first often enough to double the mean race latency, which is why the hedged
schedule is the default; any worker can still win, and a stalled primary is
overtaken after one hedge_delay.

Cancellation is cooperative: the runner bumps a shared watermark after a
query settles, and workers poll it between index-node visits (queries carry
monotonically increasing ids; an id at or below the watermark is dead).
Late replies for settled queries are discarded by id.

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

# deterministic tie-break when replies arrive in the same wait wake-up
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


def _run_batch(index: RangeIndex, payloads, watermark, delay_s: float):
    """Worker-side bulk execution: one reply item per payload, in order."""
    return tuple(_run_query(index, p, watermark, delay_s) for p in payloads)


def _worker_loop(index: RangeIndex, requests, replies, watermark, inherited) -> None:
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
                replies.send(("batch", 0, _run_batch(index, msg[1], watermark, delay_s), 0.0))
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
        self._indexes = dict(indexes)
        self._qid = 0
        self._lock = threading.Lock()
        self.stats = RaceStats()
        self._closed = False
        self._workers: dict[str, _Worker] = {}
        ctx = get_context("fork")
        forked = self.config.backend == "process"
        run = ctx.Process if forked else threading.Thread
        self._watermark = ctx.Value("q", 0, lock=False)
        for kind, index in self._indexes.items():
            req_recv, req_send = ctx.Pipe(duplex=False)
            reply_recv, reply_send = ctx.Pipe(duplex=False)
            inherited = ()
            if forked:
                inherited = [end for w in self._workers.values() for end in w.ends]
                inherited += (req_send, reply_recv)
            handle = run(
                target=_worker_loop,
                args=(index, req_recv, reply_send, self._watermark, inherited),
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

        # predicted cost orders the dispatch tiers
        order = self._dispatch_order(alive, box, trange)
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
        """Route each query to its predicted-cheapest index, in bulk.

        The batch is partitioned by per-query cost estimate and every live
        worker receives its share in a single message, so worker round trips
        amortize over the batch instead of costing one wake-up per query.
        There is no per-query hedging here — that is the query() path — but
        the failover property holds: a worker that dies mid-batch forfeits
        its share and those queries are re-routed to the survivors. Results
        return in query order.
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
        attempted: dict[int, set[str]] = {}
        errors: dict[str, str] = {}

        while todo:
            alive = [
                k for k in requested
                if not self._workers[k].failed and not self._workers[k].dead
            ]
            if not alive:
                raise QueryTimeoutError(f"no live index workers for this batch ({errors})")

            shares: dict[str, list[int]] = {k: [] for k in alive}
            if len(alive) == 1:
                only = alive[0]
                for i in todo:
                    if only in attempted.get(i, ()):
                        raise QueryTimeoutError(
                            f"batch query {i} failed on every live kind ({errors})"
                        )
                shares[only] = todo
            else:
                indexes = self._indexes
                for i in todo:
                    box, trange = queries[i]
                    tried = attempted.get(i, ())
                    candidates = [k for k in alive if k not in tried]
                    if not candidates:
                        raise QueryTimeoutError(
                            f"batch query {i} failed on every live kind ({errors})"
                        )
                    best = min(
                        candidates,
                        key=lambda k: (
                            indexes[k].estimate_cost(box, trange),
                            _PRIORITY.get(k, 99),
                        ),
                    )
                    shares[best].append(i)

            pending: dict[str, tuple[list[int], tuple[int, ...]]] = {}
            for kind, members in shares.items():
                if not members:
                    continue
                payloads = []
                for i in members:
                    self._qid += 1
                    box, trange = queries[i]
                    payloads.append((self._qid, box.as_tuple(), trange.start, trange.end))
                    attempted.setdefault(i, set()).add(kind)
                try:
                    self._workers[kind].requests.send(("batch", tuple(payloads)))
                except (OSError, ValueError) as exc:
                    self._workers[kind].dead = True
                    errors[kind] = f"dispatch failed: {exc}"
                    continue  # members stay in todo and re-route next round
                pending[kind] = (members, tuple(p[0] for p in payloads))

            while pending:
                now = time.perf_counter()
                if now >= t_deadline:
                    self._settle(self._qid)
                    raise QueryTimeoutError(
                        f"batch exceeded deadline of {deadline:.3f}s"
                    )
                for kind, status, _qid, payload, _compute in self._drain(t_deadline - now):
                    if status == "dead":
                        pending.pop(kind, None)
                        errors[kind] = str(payload)
                    elif status == "batch":
                        members, expect_qids = pending.get(kind, ([], ()))
                        if tuple(item[1] for item in payload) != expect_qids:
                            continue  # reply to an abandoned earlier batch
                        pending.pop(kind)
                        for i, (q_status, _q, tiles, compute_s) in zip(members, payload):
                            if q_status == "ok":
                                outcomes[i] = RaceOutcome(
                                    result=frozenset(tiles),
                                    winner=kind,
                                    latency_by_kind={kind: compute_s},
                                )
                                self.stats.queries += 1
                                self.stats.winner_counts[kind] += 1
                                self.stats.latency_sum += compute_s
                            else:  # error (or a defensive cancel): retry elsewhere
                                errors[kind] = str(tiles)
                    # per-query replies for settled races are stale; ignore

            todo = [i for i in todo if outcomes[i] is None]

        self._settle(self._qid)
        return outcomes  # type: ignore[return-value]

    def _dispatch_order(self, alive: list[str], box, trange) -> list[str]:
        """Alive kinds sorted by predicted cost, cheapest first."""
        if len(alive) == 1:
            return list(alive)
        return sorted(
            alive,
            key=lambda k: (
                self._indexes[k].estimate_cost(box, trange),
                _PRIORITY.get(k, 99),
            ),
        )

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
