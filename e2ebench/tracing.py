"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, query id); times are perf_counter
seconds. Spans are kept in a list and written out once, when the run ends.
A span's self time is its duration minus the durations of its direct
children, which run one after another inside it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int | None] | None] = []
        self._open: list[int] = []
        self.query_id: int | None = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.query_id)

    def add(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller, under the innermost open span."""
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, start, end, parent, self.query_id))

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def median_ms(self, name: str) -> float:
        values = self.durations(name)
        return median(values) * 1e3 if values else 0.0

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, qid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "query": qid, "self": selfs[i],
                }) + "\n")


def span_cost_s(reps: int = 20000) -> float:
    """Seconds one empty span costs the recorder."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(reps):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - start) / reps
