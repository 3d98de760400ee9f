"""Spans recorded around calls into the program's layers.

A :class:`Tracer` keeps spans in memory — name, start, end, parent and a
request id shared by the spans of one request — and :func:`write_spans`
writes them out once, when a run ends.  A layer's self time is its
spans' durations minus the part covered by their child spans.

The wrappers below subclass the collaborators the program accepts by
injection (the repository and the persistent stage cache a
:class:`~repro.toolchain.ToolchainSession` is given) and the session's
stage runners, so the program itself carries no tracing code.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.repository import ModelRepository
from repro.toolchain import ToolchainSession
from repro.toolchain.diskcache import PersistentStageCache


@dataclass(frozen=True, slots=True)
class Span:
    span_id: str
    parent: str | None
    name: str
    start: float
    end: float
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of one process.

    ``origin`` prefixes span ids so spans gathered from several worker
    processes stay distinct when merged.
    """

    def __init__(self, origin: str = "main") -> None:
        self.origin = origin
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[tuple[str, str | None]] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        self._next += 1
        span_id = f"{self.origin}:{self._next}"
        parent, inherited = self._stack[-1] if self._stack else (None, None)
        request = request if request is not None else inherited
        self._stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, request))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    spans = list(spans)
    child_time: dict[str, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(s.span_id, 0.0)
    return out


def write_spans(path: str, spans: Iterable[Span]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {
                        "id": s.span_id,
                        "parent": s.parent,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "request": s.request,
                    }
                )
                + "\n"
            )


#: Spans of the loading layers (repository and persistent stage cache)
#: and the per-layer metric each one's self time is reported as.
LOAD_LAYERS = (
    ("repository.load", "repository.load_s"),
    ("repository.source_text", "repository.source_text_s"),
    ("toolchain.diskcache.lookup", "toolchain.diskcache.lookup_s"),
    ("toolchain.diskcache.load", "toolchain.diskcache.load_s"),
)


class TracedRepository(ModelRepository):
    """A :class:`ModelRepository` timing descriptor loads and the source
    reads that stage-cache fingerprints make."""

    tracer: Tracer | None = None

    @classmethod
    def over(cls, repository: ModelRepository, tracer: Tracer) -> "TracedRepository":
        traced = cls(repository.stores, validate=repository.validate)
        traced.tracer = tracer
        return traced

    def __getstate__(self) -> dict[str, Any]:
        # A repository shipped to a pool worker leaves the parent's spans
        # behind; the worker attaches its own tracer.
        state = dict(self.__dict__)
        state.pop("tracer", None)
        return state

    def load(self, identifier, sink=None):
        assert self.tracer is not None
        self.tracer.count("repository.loads")
        with self.tracer.span("repository.load"):
            return super().load(identifier, sink)

    def source_text(self, identifier, *, sink=None):
        assert self.tracer is not None
        with self.tracer.span("repository.source_text"):
            return super().source_text(identifier, sink=sink)


class TracedStageCache(PersistentStageCache):
    """A :class:`PersistentStageCache` timing index lookups, blob loads
    and stores (stage blobs and runtime images)."""

    def __init__(self, root: str, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def lookup(self, stage, identifier, options):
        with self.tracer.span("toolchain.diskcache.lookup"):
            entry = super().lookup(stage, identifier, options)
        self.tracer.count("toolchain.diskcache.lookups")
        return entry

    def load(self, entry):
        with self.tracer.span("toolchain.diskcache.load"):
            ok, value = super().load(entry)
        if ok:
            self.tracer.count("toolchain.diskcache.loads_ok")
        return ok, value

    def store(self, stage, identifier, options, fingerprint, sources, value):
        with self.tracer.span("toolchain.diskcache.store"):
            return super().store(stage, identifier, options, fingerprint, sources, value)

    def store_image(self, data):
        with self.tracer.span("toolchain.diskcache.store"):
            return super().store_image(data)


class TracedSession(ToolchainSession):
    """A :class:`ToolchainSession` whose compose, analyze and IR-emit stage
    runners are spans.  Nested stage requests become child spans, so each
    layer's self time excludes the stages and repository calls under it."""

    tracer: Tracer

    def _run_compose(self, identifier, **options):
        with self.tracer.span("composer.compose"):
            return super()._run_compose(identifier, **options)

    def _run_analyze(self, identifier, **options):
        with self.tracer.span("analysis.analyze"):
            return super()._run_analyze(identifier, **options)

    def _run_emit_ir(self, identifier, **options):
        with self.tracer.span("ir.emit"):
            return super()._run_emit_ir(identifier, **options)
