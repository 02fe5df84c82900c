"""Timing proxies and the span list they fill.

The traced run swaps a :class:`LayerProxy` in at each seam the engine
already exposes (see :func:`wallbench.engine.build_engine`).  Every proxied
call records one span — ``layer.method``, start, end, parent — into an
in-memory list; nothing inside ``src/`` is touched.  A layer's *self* time
is its spans' duration minus what their child spans cover, so the layers'
self times partition each root (client op) span exactly.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextvars import ContextVar

from repro.aio import AsyncRuntime

#: Index of the innermost open span of the calling context (-1: none).
#: A ContextVar, not a stack, so spans opened inside asyncio tasks parent
#: correctly on the event-loop workload.
_CURRENT: ContextVar[int] = ContextVar("wallbench_span", default=-1)


class SpanRecorder:
    """Append-only list of ``[name, start, end, parent_index]`` spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: ``(first, end)`` index ranges of the spans that belong to timed
        #: main phases; set-up and probe spans outside them are ignored.
        self.windows: list[tuple[int, int]] = []

    def wrap(self, name: str, fn):
        """``fn`` with one span recorded around every call."""
        spans = self.spans
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):

            async def timed_async(*args, **kwargs):
                record = [name, 0.0, 0.0, _CURRENT.get()]
                token = _CURRENT.set(len(spans))
                spans.append(record)
                record[1] = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    _CURRENT.reset(token)

            return timed_async

        def timed(*args, **kwargs):
            record = [name, 0.0, 0.0, _CURRENT.get()]
            token = _CURRENT.set(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                _CURRENT.reset(token)

        return timed

    def _measured(self):
        for first, end in self.windows:
            for index in range(first, end):
                yield index, self.spans[index]

    def summary(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """``(self seconds, total seconds, calls)`` per span name over the
        measured windows."""
        covered: dict[int, float] = defaultdict(float)
        for _index, (_name, start, end, parent) in self._measured():
            if parent >= 0:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _parent) in self._measured():
            own[name] += end - start - covered[index]
            total[name] += end - start
            calls[name] += 1
        return own, total, calls

    def write_jsonl(self, path) -> None:
        """One JSON object per measured span; ``trace`` is the root (client
        op) span it belongs to."""
        trace: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in self._measured():
                trace[index] = index if parent < 0 else trace[parent]
                out.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent if parent >= 0 else None,
                            "trace": trace[index],
                        }
                    )
                )
                out.write("\n")


class LayerProxy:
    """Forwards everything to ``target``; the listed methods are timed as
    ``layer.method`` spans."""

    def __init__(self, target, layer: str, methods, recorder: SpanRecorder):
        self._target = target
        for method in methods:
            setattr(
                self,
                method,
                recorder.wrap(f"{layer}.{method}", getattr(target, method)),
            )

    def __getattr__(self, name: str):
        return getattr(self._target, name)


class CountingRuntime(AsyncRuntime):
    """The event-loop runtime, counting its suspension points."""

    def __init__(self) -> None:
        self.run_batches_calls = 0
        self.tasks_started = 0
        self.gathers = 0
        self.vm_sync_waits = 0

    async def run_batches(self, jobs: list) -> list:
        self.run_batches_calls += 1
        return await super().run_batches(jobs)

    def start(self, coro):
        self.tasks_started += 1
        return super().start(coro)

    async def gather(self, *coros):
        self.gathers += 1
        return await super().gather(*coros)

    async def vm_sync(self, vm, blob_id: str, version: int, timeout=None) -> None:
        self.vm_sync_waits += 1
        await super().vm_sync(vm, blob_id, version, timeout)
