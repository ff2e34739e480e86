"""Spans around calls into the program's layers, and their Spark work.

The benchmark does not change the program: ``Tracer.patch`` replaces a
public function where callers look it up (a module attribute or a class
method) with a wrapper that records a span. Each span also sets the Spark
job description to its id, so the jobs, stages and tasks of the event log
can be charged to the innermost span that was open when they started.

A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

DESC_PREFIX = "bench-span:"


class Tracer:
    """In-memory span recorder; written out once, when the run ends."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.round = -1
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "round": self.round,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self.stack.append(sid)
        self.sc.setJobDescription(f"{DESC_PREFIX}{sid}")
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()
            self.sc.setJobDescription(f"{DESC_PREFIX}{self.stack[-1]}" if self.stack else None)

    def count(self, name: str, value: float) -> None:
        """Add to a counter of the current round."""
        self.counters[(self.round, name)] += value

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap ``owner.attr`` in a span; ``on_result`` sees each return value."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(self, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unpatch(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child[s["id"]] for s in self.spans]

    def root_of(self) -> list[int]:
        roots = []
        for s in self.spans:
            p = s["parent"]
            roots.append(s["id"] if p is None else roots[p])
        return roots

    def write(self, path: Path, spark_by_span: dict[int, dict]) -> None:
        selfs = self.self_times()
        out = [
            {**s, "self": selfs[s["id"]], "spark": spark_by_span.get(s["id"], {})}
            for s in self.spans
        ]
        path.write_text(json.dumps(out))


def spark_work_by_span(event_log_dir: Path) -> tuple[dict[int, dict], dict]:
    """Jobs, stages, tasks, shuffle bytes and executor CPU per span id.

    Reads the Spark event log (JSON lines). Work started with no span open
    is returned under the second value, as totals.
    """
    files = [p for p in event_log_dir.iterdir() if p.is_file()]
    if len(files) != 1:
        raise RuntimeError(f"expected one event log in {event_log_dir}, found {len(files)}")
    per: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    stage_span: dict[int, int | None] = {}

    def span_of(props) -> int | None:
        desc = (props or {}).get("spark.job.description") or ""
        return int(desc[len(DESC_PREFIX):]) if desc.startswith(DESC_PREFIX) else None

    untraced: dict[str, float] = defaultdict(float)
    with open(files[0]) as fh:
        for line in fh:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                sid = span_of(ev.get("Properties"))
                (per[sid] if sid is not None else untraced)["jobs"] += 1
            elif kind == "SparkListenerStageSubmitted":
                sid = span_of(ev.get("Properties"))
                stage_span[ev["Stage Info"]["Stage ID"]] = sid
                (per[sid] if sid is not None else untraced)["stages"] += 1
            elif kind == "SparkListenerTaskEnd":
                sid = stage_span.get(ev["Stage ID"])
                bucket = per[sid] if sid is not None else untraced
                m = ev.get("Task Metrics") or {}
                bucket["tasks"] += 1
                bucket["cpu_s"] += m.get("Executor CPU Time", 0) / 1e9
                bucket["shuffle_write_mb"] += (
                    (m.get("Shuffle Write Metrics") or {}).get("Shuffle Bytes Written", 0) / 2**20
                )
    return {k: dict(v) for k, v in per.items()}, dict(untraced)
