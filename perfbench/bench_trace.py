"""Spans and counters recorded in memory around calls into vlqc's public API.

A span is opened by the benchmark at a layer boundary; its name is
``<layer>.<function>`` where the layer is the vlqc module that owns the
function. Spans live in a list until the run ends and are then written out as
JSONL in one go, so recording costs two clock reads and one dict per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


def no_span(name: str, extra: bool = False):
    """Span stand-in for untraced jobs: a shared, reusable no-op context."""
    return _NO_SPAN


class Tracer:
    """Collects spans and per-job counters for one traced run.

    ``extra`` marks a call the benchmark makes only when tracing, to time a
    piece of work separately; it is excluded from the traced job time so
    that traced and untraced jobs do the same pipeline work.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.job: str | None = None
        self._stack: list[dict] = []

    def start_job(self, job: str) -> None:
        self.job = job
        self.counters[job] = {}

    def count(self, name: str, value: float) -> None:
        """Add to a counter of the current job."""
        job_counters = self.counters[self.job]
        job_counters[name] = job_counters.get(name, 0) + value

    @contextmanager
    def span(self, name: str, extra: bool = False):
        record = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "extra": extra,
            "error": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def job_totals(self) -> dict[str, dict[str, float]]:
        """Per job, the summed duration of each span name."""
        totals: dict[str, dict[str, float]] = {}
        for s in self.spans:
            per_job = totals.setdefault(s["job"], {})
            per_job[s["name"]] = per_job.get(s["name"], 0.0) + s["end"] - s["start"]
        return totals

    def errors_by_layer(self) -> dict[str, int]:
        errors: dict[str, int] = {}
        for s in self.spans:
            if s["error"] is not None:
                layer = s["name"].split(".", 1)[0]
                errors[layer] = errors.get(layer, 0) + 1
        return errors

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time, errors.

        Self time is a span's duration minus the part of it covered by its
        direct children. Children of one span never overlap (one thread), so
        their durations add up to the covered part.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            duration = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[s["id"]]
            row["errors"] += s["error"] is not None
        return out

    def dump(self, path, header: dict, footer: dict) -> None:
        """Write header, spans, then footer as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
            fh.write(json.dumps(footer, sort_keys=True) + "\n")
