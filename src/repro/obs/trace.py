"""Hierarchical tracing: spans, a tracer, and in-memory / JSONL exporters.

The paper's whole argument is *measured* optimizer behaviour — plans
costed per DP level, skyline survivors per hub, budget carves per fallback
rung. A :class:`Span` is one timed region of that work (monotonic
``perf_counter_ns`` timestamps, structured attributes, parent link); a
:class:`Tracer` maintains the active-span stack so nested regions form a
tree without any instrumentation point knowing its caller.

Finished spans go to an exporter:

* :class:`InMemorySpanExporter` — a bounded ring buffer (old spans fall
  off the back), the default and what :func:`repro.obs.capture` uses;
* :class:`JsonlSpanExporter` — one JSON object per line, append-only, for
  offline analysis of long-running services.

Everything here is deliberately decoupled from the optimizer layers: this
module imports nothing from ``repro.core``/``repro.service``, so the
instrumentation hooks there can import it without cycles. Disabled-path
cost is handled by :func:`maybe_span`, which returns a shared no-op
context manager when no tracer is installed.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

from repro.errors import ConfigError

__all__ = [
    "Span",
    "Tracer",
    "InMemorySpanExporter",
    "JsonlSpanExporter",
    "TraceRecording",
    "maybe_span",
    "span_children",
    "span_roots",
    "render_span_tree",
]


class Span:
    """One timed, attributed region of work.

    Attributes:
        name: Region name (``"optimize"``, ``"sdp.level"``, ...).
        span_id: Tracer-local id, increasing in start order.
        parent_id: ``span_id`` of the enclosing span, or None for roots.
        start_ns / end_ns: Monotonic ``perf_counter_ns`` timestamps
            (``end_ns`` is None while the span is open).
        attributes: Structured key/value payload (JSON-serializable).
        status: ``"ok"``, or ``"error"`` when the region raised.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_ns",
        "end_ns",
        "attributes",
        "status",
    )

    def __init__(self, name: str, span_id: int, parent_id: int | None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = time.perf_counter_ns()
        self.end_ns: int | None = None
        self.attributes: dict[str, Any] = {}
        self.status = "ok"

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds (up to now while the span is still open)."""
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        return (end - self.start_ns) / 1e9

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (what the JSONL exporter writes)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, status={self.status!r}, "
            f"attrs={self.attributes!r})"
        )


class _NoopSpan:
    """Shared do-nothing span for disabled instrumentation points."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


class _NoopSpanContext:
    """Reusable no-op context manager yielding the shared no-op span."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


NOOP_SPAN = _NoopSpan()
NOOP_SPAN_CONTEXT = _NoopSpanContext()


def maybe_span(tracer: "Tracer | None", name: str, **attributes: Any):
    """``tracer.span(...)`` when tracing, a shared no-op context otherwise.

    The hot-path guard: instrumentation points call this unconditionally,
    and the disabled cost is one function call plus a kwargs dict — no
    span allocation, no timestamping, no export.
    """
    if tracer is None:
        return NOOP_SPAN_CONTEXT
    return tracer.span(name, **attributes)


class InMemorySpanExporter:
    """Ring-buffered span sink: keeps the most recent ``capacity`` spans."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigError(f"exporter capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)

    def export(self, span: Span) -> None:
        self._spans.append(span)

    @property
    def spans(self) -> list[Span]:
        """Retained spans, oldest first (finish order)."""
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


class JsonlSpanExporter:
    """Appends one JSON object per finished span to a file.

    The file handle is opened lazily on the first export and flushed per
    span (services die mid-run; a buffered tail would vanish with them).
    Use as a context manager or call :meth:`close` explicitly.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = None
        self.exported = 0

    def export(self, span: Span) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        json.dump(span.to_dict(), self._handle, sort_keys=True)
        self._handle.write("\n")
        self._handle.flush()
        self.exported += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSpanExporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Tracer:
    """Builds span trees via an explicit active-span stack per thread.

    One installed tracer serves every thread of a process (the front
    door's workers and their callers trace into the same one): each
    thread keeps its own active-span stack, so a span's parent is always
    the span open on its own thread, and span ids come from one shared
    counter, so they stay unique and increase in start order. Worker
    processes get their own tracer or none. ``start_span`` / ``end_span``
    are the primitive API; prefer the :meth:`span` context manager, which
    survives exceptions and keeps the stack balanced.
    """

    def __init__(self, exporter=None):
        self.exporter = exporter if exporter is not None else InMemorySpanExporter()
        self._local = threading.local()
        # ``next()`` on a count is one C call, atomic under the GIL.
        self._ids = itertools.count(1)

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's active-span stack."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = stack = []
            return stack

    @property
    def current_span(self) -> Span | None:
        stack = self._stack
        return stack[-1] if stack else None

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a child of the current span and make it current."""
        stack = self._stack
        parent = stack[-1].span_id if stack else None
        span = Span(name, next(self._ids), parent)
        if attributes:
            span.attributes.update(attributes)
        stack.append(span)
        return span

    def end_span(self, span: Span, status: str | None = None) -> Span:
        """Close ``span`` (and any abandoned children above it) and export it."""
        span.end_ns = time.perf_counter_ns()
        if status is not None:
            span.status = status
        stack = self._stack
        while stack:
            if stack.pop() is span:
                break
        self.exporter.export(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Context-managed span: ends on exit, marked ``"error"`` on raise."""
        span = self.start_span(name, **attributes)
        try:
            yield span
        except BaseException as exc:
            span.attributes.setdefault("error", type(exc).__name__)
            self.end_span(span, status="error")
            raise
        self.end_span(span)


class TraceRecording:
    """An immutable bundle of finished spans from one traced run.

    This is what ``repro.optimize(..., trace=True)`` attaches to the
    result: iterate it for raw spans, or use the renderers.
    """

    def __init__(self, spans):
        self.spans: tuple[Span, ...] = tuple(spans)

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in finish order."""
        return [span for span in self.spans if span.name == name]

    def roots(self) -> list[Span]:
        return span_roots(self.spans)

    def explain(self) -> str:
        """The span tree rendered as indented text."""
        return render_span_tree(self.spans)

    def profile(self) -> str:
        """The per-level search-profile table for this recording."""
        from repro.obs.profile import render_search_profile

        return render_search_profile(self.spans)

    def __iter__(self):
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"TraceRecording({len(self.spans)} spans)"


# -- span-tree helpers -------------------------------------------------------


def span_children(spans) -> dict[int | None, list[Span]]:
    """Finished spans grouped by ``parent_id``, each group in start order."""
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for group in children.values():
        group.sort(key=lambda span: span.span_id)
    return children


def span_roots(spans) -> list[Span]:
    """Spans whose parent is absent from the collection (tree roots)."""
    present = {span.span_id for span in spans}
    return sorted(
        (
            span
            for span in spans
            if span.parent_id is None or span.parent_id not in present
        ),
        key=lambda span: span.span_id,
    )


def _format_attributes(span: Span) -> str:
    parts = []
    for key, value in span.attributes.items():
        if isinstance(value, float):
            rendered = f"{value:g}"
        elif isinstance(value, dict):
            rendered = json.dumps(value, sort_keys=True)
        else:
            rendered = str(value)
        if len(rendered) > 80:
            rendered = rendered[:77] + "..."
        parts.append(f"{key}={rendered}")
    return " ".join(parts)


def render_span_tree(spans) -> str:
    """Indented plain-text rendering of a span collection's tree(s)."""
    if not spans:
        return "(no spans recorded)"
    children = span_children(spans)
    present = {span.span_id for span in spans}
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        flag = "" if span.status == "ok" else f" [{span.status}]"
        attrs = _format_attributes(span)
        lines.append(
            f"{'  ' * depth}{span.name}  {span.duration_seconds * 1e3:.3f}ms"
            f"{flag}{('  ' + attrs) if attrs else ''}"
        )
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in span_roots(spans):
        if root.parent_id is not None and root.parent_id in present:
            continue  # unreachable by construction; keeps walk acyclic
        walk(root, 0)
    return "\n".join(lines)
