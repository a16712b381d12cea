"""Hierarchical span tracing for pipeline runs.

A :class:`Tracer` records two kinds of spans:

- **wall-clock spans** — opened with the :meth:`Tracer.span` context
  manager around real work (sanitization, a forward pass, a guard
  probe).  Nesting follows the call stack per thread.
- **simulated spans** — appended with :meth:`Tracer.emit` from
  already-priced cost-model seconds (a
  :class:`~repro.runtime.profiler.StageBreakdown`), laid out on a
  separate ``simulated`` track so the paper's latency story (Figs. 3,
  9, 13) is visible next to the host's actual timing.

Two exporters ship: newline-delimited JSON (:meth:`Tracer.export_jsonl`)
for programmatic diffing, and the Chrome ``trace_event`` format
(:meth:`Tracer.export_chrome`) so a run opens directly in
``chrome://tracing`` / Perfetto.

Tracing is **off by default** on every instrumented hot path: the
module-level :data:`NULL_TRACER` (a ``Tracer(enabled=False)``) returns
one shared no-op span object from :meth:`Tracer.span`, so a disabled
pipeline performs no tracer-side allocation per batch
(``tests/test_observability.py`` asserts this with ``tracemalloc``).

The tracer is thread-safe: the open-span stack is thread-local and the
finished-span list is lock-protected.

**Trace stitching.**  Spans optionally carry a ``trace_id`` plus
cross-trace ``links``.  :meth:`Tracer.emit_span` writes a span with
explicit timing/parentage under a
:class:`~repro.observability.context.TraceContext`'s span id, which is
how one serving request's spans stay stitched across worker threads
and replicas (the serving layer projects per-request
``queue -> batch -> kernel-stage`` trees at completion time).  A
:class:`Tracer` built with an injected ``clock`` stamps spans from
that clock, so virtual-time runs export byte-identical traces per
seed.  :func:`find_orphans` checks the stitching invariant: no
exported span may reference a parent id that was never written.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.observability.context import TraceContext


class Span:
    """One finished or in-flight traced region.

    Attributes:
        name: span label (e.g. ``"pipeline.infer"``).
        category: coarse grouping used as the Chrome ``cat`` field
          (e.g. ``"pipeline"``, ``"guard"``, ``"stage"``).
        start_s: start offset in seconds from the tracer's epoch.
        duration_s: wall-clock duration (or the priced duration for
          simulated spans).
        cost_s: simulated cost-model seconds attributed to the span
          (``add_cost``); for simulated spans equals ``duration_s``.
        attrs: op/stage attributes (``set``).
        simulated: True when the span carries cost-model time, not
          wall-clock time.
        trace_id: request trace this span belongs to (``""`` for
          process-local spans outside any request trace).
        links: cross-trace references as ``(trace_id, span_id)``
          pairs — a batch dispatch span links every coalesced
          request's context without reparenting under any of them.
    """

    __slots__ = (
        "name", "category", "span_id", "parent_id", "thread",
        "start_s", "duration_s", "cost_s", "attrs", "simulated",
        "trace_id", "links", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        span_id: int,
        parent_id: Optional[int],
        thread: str,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.start_s = 0.0
        self.duration_s = 0.0
        self.cost_s = 0.0
        self.attrs: Dict[str, object] = {}
        self.simulated = False
        self.trace_id = ""
        self.links: Optional[List[Tuple[str, int]]] = None

    def set(self, key: str, value: object) -> None:
        """Attach one attribute to the span."""
        self.attrs[key] = value

    def add_cost(self, seconds: float) -> None:
        """Accumulate simulated cost-model seconds onto the span."""
        self.cost_s += seconds

    def add_link(self, trace_id: str, span_id: int) -> None:
        """Reference a span in another trace without reparenting."""
        if self.links is None:
            self.links = []
        self.links.append((trace_id, span_id))

    # Context-manager protocol (wall-clock spans only).

    def __enter__(self) -> "Span":
        self.start_s = self._tracer._now()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = self._tracer._now() - self.start_s
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)

    def to_dict(self) -> Dict[str, object]:
        """JSONL record of the span."""
        record: Dict[str, object] = {
            "name": self.name,
            "cat": self.category,
            "id": self.span_id,
            "parent": self.parent_id,
            "thread": self.thread,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "cost_s": self.cost_s,
            "simulated": self.simulated,
            "attrs": self.attrs,
        }
        if self.trace_id:
            record["trace_id"] = self.trace_id
        if self.links:
            record["links"] = [list(link) for link in self.links]
        return record

    def to_chrome_event(self) -> Dict[str, object]:
        """Chrome ``trace_event`` "complete" (``ph: X``) record."""
        args = dict(self.attrs)
        if self.cost_s:
            args["cost_s"] = self.cost_s
        if self.trace_id:
            args["trace_id"] = self.trace_id
            args["span_id"] = self.span_id
            if self.parent_id is not None:
                args["parent_id"] = self.parent_id
        if self.links:
            args["links"] = [
                {"trace_id": t, "span_id": s} for t, s in self.links
            ]
        return {
            "name": self.name,
            "cat": self.category,
            "ph": "X",
            "pid": 0,
            "tid": "simulated" if self.simulated else self.thread,
            "ts": round(self.start_s * 1e6, 3),
            "dur": round(self.duration_s * 1e6, 3),
            "args": args,
        }


class _NullSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    #: Disabled spans have no identity; 0 is never a real span id.
    span_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def set(self, key: str, value: object) -> None:
        pass

    def add_cost(self, seconds: float) -> None:
        pass

    def add_link(self, trace_id: str, span_id: int) -> None:
        pass


#: The singleton no-op span; identity-checked by the overhead tests.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one run.

    Args:
        enabled: when False, :meth:`span` returns the shared
            :data:`NULL_SPAN` and :meth:`emit` does nothing — the
            instrumented code paths pay only an attribute check.
        clock: optional time source spans are stamped from.  Defaults
            to ``time.perf_counter``; pass the serving stack's
            injectable clock (a
            :class:`~repro.observability.clock.FixedClock` in
            virtual-time runs) so span timestamps share the serving
            timeline and exports are byte-identical per seed.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._epoch = (
            time.perf_counter() if clock is None else clock()
        )
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: List[Span] = []
        self._next_id = 1
        self._sim_cursor = 0.0

    def _now(self) -> float:
        """Seconds since the tracer's epoch on its time source."""
        if self._clock is None:
            return time.perf_counter() - self._epoch
        return self._clock() - self._epoch

    def rel(self, instant: float) -> float:
        """Map an absolute reading of the tracer's clock to a span
        offset.  Only meaningful for instants read from the same clock
        the tracer was built with."""
        return instant - self._epoch

    # Span bookkeeping ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._finished.append(span)

    def next_span_id(self) -> int:
        """Reserve one span id (for roots emitted at terminal time)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def span(self, name: str, category: str = "run"):
        """Open a wall-clock span (use as a context manager).

        A span nested inside a traced parent inherits that parent's
        ``trace_id``.
        """
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1].span_id
            trace_id = stack[-1].trace_id
        else:
            parent, trace_id = None, ""
        span = Span(
            self, name, category, self.next_span_id(), parent,
            threading.current_thread().name,
        )
        span.trace_id = trace_id
        return span

    def mint_context(
        self, request_id: str, **baggage: str
    ) -> Optional[TraceContext]:
        """Root :class:`TraceContext` for a request, or ``None`` when
        tracing is disabled (callers propagate the ``None`` and skip
        every projection — the zero-allocation invariant)."""
        if not self.enabled:
            return None
        return TraceContext.mint(
            request_id, self.next_span_id(), **baggage
        )

    def emit(
        self,
        name: str,
        duration_s: float,
        category: str = "stage",
        start_s: Optional[float] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> float:
        """Append a pre-priced simulated span; returns its start offset.

        Spans land on the ``simulated`` track.  Without an explicit
        ``start_s`` the span is placed at the track cursor, which then
        advances — successive :meth:`emit` calls tile left to right.
        An explicit ``start_s`` places the span without moving the
        cursor (used to nest per-layer spans inside a stage span).
        """
        if not self.enabled:
            return 0.0
        with self._lock:
            if start_s is None:
                start_s = self._sim_cursor
                self._sim_cursor = start_s + duration_s
            span_id = self._next_id
            self._next_id += 1
            span = Span(self, name, category, span_id, None, "simulated")
            span.start_s = start_s
            span.duration_s = duration_s
            span.cost_s = duration_s
            span.simulated = True
            if attrs:
                span.attrs.update(attrs)
            self._finished.append(span)
        return start_s

    def emit_span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        category: str = "request",
        trace_id: str = "",
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        thread: str = "simulated",
        attrs: Optional[Dict[str, object]] = None,
        links: Optional[List[Tuple[str, int]]] = None,
        simulated: bool = True,
    ) -> int:
        """Append a span with explicit timing and parentage; returns
        its span id (0 when tracing is disabled).

        The serving layer's projection emitter: request root / queue /
        batch / kernel-stage spans are written at completion time from
        clock instants the serving stack already recorded, rather than
        wrapping every hand-off in a context manager.  ``span_id``
        lets a pre-reserved id (:meth:`next_span_id`, held by a
        :class:`~repro.observability.context.TraceContext`) be
        written late, after its children already referenced it.
        """
        if not self.enabled:
            return 0
        if span_id is None:
            span_id = self.next_span_id()
        span = Span(
            self, name, category, span_id, parent_id, thread
        )
        span.start_s = start_s
        span.duration_s = max(0.0, duration_s)
        span.simulated = simulated
        if simulated:
            span.cost_s = span.duration_s
        span.trace_id = trace_id
        if attrs:
            span.attrs.update(attrs)
        if links:
            span.links = [
                (str(t), int(s)) for t, s in links
            ]
        with self._lock:
            self._finished.append(span)
        return span_id

    def finished(self) -> Tuple[Span, ...]:
        """Snapshot of the completed spans, in completion order."""
        with self._lock:
            return tuple(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._sim_cursor = 0.0

    # Exporters -------------------------------------------------------

    def to_chrome(self) -> Dict[str, object]:
        """The Chrome ``trace_event`` document (a JSON object)."""
        return {
            "traceEvents": [
                s.to_chrome_event() for s in self.finished()
            ],
            "displayTimeUnit": "ms",
        }

    def export_chrome(self, path: str) -> None:
        """Write a ``chrome://tracing`` / Perfetto-loadable file."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def export_jsonl(self, path: str) -> None:
        """Write one JSON span record per line."""
        with open(path, "w") as fh:
            for span in self.finished():
                fh.write(json.dumps(span.to_dict(), sort_keys=True))
                fh.write("\n")


#: Shared disabled tracer: the default on every instrumented hot path.
NULL_TRACER = Tracer(enabled=False)


def find_orphans(
    records: Iterable[Mapping[str, object]],
) -> List[Mapping[str, object]]:
    """Span records whose ``parent`` id was never exported.

    Takes span dicts (:meth:`Span.to_dict` output or parsed JSONL
    lines) and returns the ones referencing a missing parent — the
    stitching invariant the serving trace tests and the dashboard
    check.  An empty return means every parent edge resolves.
    """
    rows = list(records)
    known = {row.get("id") for row in rows}
    return [
        row
        for row in rows
        if row.get("parent") is not None
        and row.get("parent") not in known
    ]


def emit_stage_spans(tracer: Tracer, breakdown) -> None:
    """Lay a priced :class:`StageBreakdown` out on the simulated track.

    Emits one span per pipeline stage (``sample``, ``neighbor_search``,
    ``grouping``, ``feature_compute``) with that stage's per-layer
    spans nested inside it, in recorder-event order
    (``per_layer_s`` is insertion-ordered, so the layout is
    deterministic across runs).
    """
    if not tracer.enabled:
        return
    per_layer = breakdown.per_layer_s
    for stage, seconds in breakdown.stages():
        start = tracer.emit(
            stage, seconds, category="stage",
            attrs={"stage": stage},
        )
        offset = start
        for key, layer_s in per_layer.items():
            if not key.startswith(f"{stage}["):
                continue
            tracer.emit(
                key, layer_s, category="layer", start_s=offset,
                attrs={"stage": stage},
            )
            offset += layer_s
