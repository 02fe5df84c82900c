"""Span-based tracing for the async core (DESIGN.md §11).

One :class:`Tracer` per traced :class:`~repro.core.cluster.Cluster`
(created only when ``BlobSeerConfig.tracing`` is on).  The store opens a
ROOT span per operation via :meth:`Tracer.trace`; components deeper in
the call graph — the DHT's replica waves, the provider manager's fetch
waves, the retry policy's backoff sleeps — annotate themselves with the
module-level :func:`span` helper, which reads the current span from a
``contextvars.ContextVar``:

* when no trace is active (tracing disabled, or the component was called
  outside a traced operation) :func:`span` yields ``None`` and records
  nothing — components need no tracer reference and no config check;
* under :class:`~repro.aio.AsyncRuntime`, ``asyncio`` copies the context
  into every Task at creation, so spans opened inside ``runtime.start``
  / ``runtime.gather`` branches parent correctly across task boundaries;
* under :class:`~repro.aio.SyncRuntime` everything runs inline in the
  caller's context, so the same instrumentation works unchanged through
  the :func:`~repro.aio.run_sync` bridge.

Timestamps come from the tracer's injectable ``clock``
(``time.perf_counter`` by default); a simulated read opens its root on a
tracer built with ``lambda: simulator.now``, so the engine's spans carry
virtual-clock timestamps.  A simulator process runs in its own copy of the
context, like an ``asyncio`` Task, so the spans parent the same way.

Finished spans land in a bounded per-tracer buffer (oldest evicted);
:meth:`Tracer.traces` groups them by trace id for inspection.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from contextvars import ContextVar

__all__ = ["Span", "Tracer", "current_span", "span"]

#: The innermost open span of the calling context; None when tracing is
#: disabled or the caller is outside any traced operation.
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)


class Span:
    """One timed leg of a traced operation.

    ``attrs`` is a plain dict; instrumentation may add attributes after
    the span opened (e.g. a fetch wave noting how many requests it
    requeued for failover).  ``end`` is None while the span is open.
    """

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        start: float,
        attrs: dict,
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Seconds between start and finish (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs) -> None:
        """Attach or update attributes on an open (or finished) span."""
        self.attrs.update(attrs)

    def finish(self) -> None:
        """Stamp ``end`` and move the span to the tracer's buffer."""
        if self.end is None:
            self.end = self.tracer.clock()
            self.tracer._finished(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, start={self.start:.6f}, "
            f"end={self.end if self.end is None else round(self.end, 6)}, "
            f"attrs={self.attrs})"
        )


class Tracer:
    """Collects spans for one cluster; cheap enough to keep always-on.

    ``clock`` is injectable so simulated runs record virtual-clock
    timestamps; ``max_spans`` bounds the finished-span buffer (a traced
    soak run must not grow memory without bound).
    """

    def __init__(
        self, clock: Callable[[], float] | None = None, max_spans: int = 8192
    ):
        self.clock = clock if clock is not None else time.perf_counter
        self._ids = itertools.count(1)
        self._spans: deque[Span] = deque(maxlen=max_spans)

    # -- context-manager API -----------------------------------------------
    @contextmanager
    def trace(self, name: str, **attrs) -> Iterator[Span]:
        """Open a ROOT span (a fresh trace id) and make it current."""
        number = next(self._ids)
        root = Span(
            self,
            name,
            trace_id=f"t{number:06d}",
            span_id=f"s{number:06d}",
            parent_id=None,
            start=self.clock(),
            attrs=attrs,
        )
        token = _CURRENT.set(root)
        try:
            yield root
        finally:
            _CURRENT.reset(token)
            root.finish()

    def child(self, parent: Span, name: str, attrs: dict) -> Span:
        """Open (but do not activate) a child span of ``parent``."""
        return Span(
            self,
            name,
            trace_id=parent.trace_id,
            span_id=f"s{next(self._ids):06d}",
            parent_id=parent.span_id,
            start=self.clock(),
            attrs=attrs,
        )

    # -- inspection --------------------------------------------------------
    def _finished(self, span: Span) -> None:
        self._spans.append(span)

    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans in completion order, optionally by name."""
        if name is None:
            return list(self._spans)
        return [item for item in self._spans if item.name == name]

    def traces(self) -> dict[str, list[Span]]:
        """Finished spans grouped by trace id, each sorted by start time."""
        grouped: dict[str, list[Span]] = {}
        for item in self._spans:
            grouped.setdefault(item.trace_id, []).append(item)
        for items in grouped.values():
            items.sort(key=lambda item: (item.start, item.span_id))
        return grouped

    def clear(self) -> None:
        self._spans.clear()


def current_span() -> Span | None:
    """The innermost open span of this context (None outside any trace)."""
    return _CURRENT.get()


#: What :func:`span` returns outside any trace: one shared, reusable no-op
#: context manager that yields None.
_NO_SPAN = nullcontext()


def span(name: str, **attrs) -> AbstractContextManager[Span | None]:
    """Open a child of the current span; a no-op outside any trace.

    This is the only hook components need: no tracer reference, no config
    check.  The disabled path costs one ``ContextVar`` read and returns the
    shared :data:`_NO_SPAN`; it never touches timing, counters or control
    flow, which is what keeps the bit-identity guarantee trivial.
    """
    parent = _CURRENT.get()
    if parent is None:
        return _NO_SPAN
    return _child_span(parent, name, attrs)


@contextmanager
def _child_span(parent: Span, name: str, attrs: dict) -> Iterator[Span]:
    child = parent.tracer.child(parent, name, attrs)
    token = _CURRENT.set(child)
    try:
        yield child
    finally:
        _CURRENT.reset(token)
        child.finish()
