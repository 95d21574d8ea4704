"""In-memory spans around the benchmark's calls into driftwatch.

A span records a name, start, end, its parent span, the outermost span
it sits in (its root) and the run id.  Spans
are kept in a list and written once, when the benchmark ends, so recording
costs two clock reads and a list append per call.  ``NO_TRACE`` has the
same interface and records nothing; the untraced passes run through it.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        root = self.spans[self._stack[0]]["name"] if self._stack else name
        record = {"id": len(self.spans), "name": name, "root": root,
                  "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> dict[tuple[str, str], list[float]]:
        """Seconds of every span, keyed by (root, name), in start order."""
        out: dict[tuple[str, str], list[float]] = {}
        for s in self.spans:
            out.setdefault((s["root"], s["name"]), []).append(s["end"] - s["start"])
        return out

    def children_total(self, name: str, root: str) -> list[float]:
        """For every span with this name under this root, the summed
        duration of its direct children."""
        totals = {s["id"]: 0.0 for s in self.spans if s["name"] == name and s["root"] == root}
        for s in self.spans:
            if s["parent"] in totals:
                totals[s["parent"]] += s["end"] - s["start"]
        return list(totals.values())

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class _NoTrace:
    _null = contextlib.nullcontext({})

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()
