"""In-memory spans recorded from outside the layers, and the self times derived from them.

A span is one timed call into a layer: its name (``driver.compute_expansion``,
``problems.rhs``, ...), a label saying which input it ran on, start and end
times from ``time.perf_counter``, the index of the span that was open when it
began (its parent), and a call id shared by every span under one top-level
call.  Spans are kept in a list and written out once, at the end of a run.

The benchmark reaches inside ``compute_expansion`` without editing it: it
hands the driver a ``dataclasses.replace`` copy of the problem whose ``ic`` and
``rhs`` open a span around the original functions.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans in memory; single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._calls = 0

    @contextmanager
    def span(self, name: str, label: str):
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._calls += 1
            call = self._calls
        else:
            call = self.spans[parent]["call"]
        record = {
            "name": name,
            "label": label,
            "call": call,
            "parent": parent,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap_problem(self, problem):
        """Copy of ``problem`` whose ``ic`` and ``rhs`` record ``problems.*`` spans."""
        ic, rhs, label = problem.ic, problem.rhs, problem.name

        def traced_ic(seed):
            with self.span("problems.ic", label):
                return ic(seed)

        def traced_rhs(*args):
            with self.span("problems.rhs", label):
                return rhs(*args)

        return dataclasses.replace(problem, ic=traced_ic, rhs=traced_rhs)

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"meta": meta, "spans": self.spans}, f)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children(spans: list[dict], index: int) -> list[dict]:
    return [s for s in spans if s["parent"] == index]


def self_time(spans: list[dict], index: int) -> float:
    """The span's duration minus the part of its interval its children cover."""
    covered = 0.0
    reach = None
    for s in sorted(children(spans, index), key=lambda s: s["start"]):
        start = s["start"] if reach is None else max(s["start"], reach)
        if s["end"] > start:
            covered += s["end"] - start
        reach = s["end"] if reach is None else max(reach, s["end"])
    return duration(spans[index]) - covered
