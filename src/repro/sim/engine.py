"""A small discrete-event simulation engine.

The engine provides just what the BlobSeer experiments need:

* :class:`Simulator` — an event loop with virtual time;
* :class:`Event` — a one-shot occurrence carrying a value;
* :class:`Process` — a Python generator (or coroutine) that ``yield``\\ s
  events and is resumed with their values (``yield from`` composes
  sub-activities); a failed process delivers its exception to its joiners;
* :class:`Pipe` — a FIFO, serially-occupied resource (a NIC direction or a
  server CPU): callers reserve it for a duration and are released when their
  occupancy ends;
* :func:`Simulator.all_of` — an event that fires when a set of events have
  all fired (fan-out / join).

The design deliberately mirrors SimPy's programming model so simulated
activities read like straight-line code, but the implementation is ~200
lines and has no dependencies.
"""

from __future__ import annotations

import contextvars
import heapq
from collections.abc import Coroutine, Generator, Iterable

from ..errors import SimulationError


class Event:
    """A one-shot event.  Processes wait on it by ``yield``-ing it (from a
    generator) or ``await``-ing it (from a coroutine)."""

    __slots__ = ("_sim", "_callbacks", "triggered", "failed", "joined", "value")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._callbacks: list = []
        self.triggered = False
        #: True when :attr:`value` is an exception to raise in the waiters.
        self.failed = False
        #: True once anything waited on this event (see :meth:`Simulator.run`).
        self.joined = False
        self.value = None

    def succeed(self, value=None) -> "Event":
        """Mark the event as having happened *now*; wake up waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        for callback in self._callbacks:
            self._sim._schedule(0.0, callback, value)
        self._callbacks.clear()
        return self

    def fail(self, error: BaseException) -> "Event":
        """Mark the event as having failed *now* with ``error``."""
        self.succeed(error)
        self.failed = True
        return self

    def __await__(self):
        return (yield self)

    def add_callback(self, callback) -> None:
        """Invoke ``callback(value)`` when the event fires (immediately if it
        already has)."""
        self.joined = True
        if self.triggered:
            self._sim._schedule(0.0, callback, self.value)
        else:
            self._callbacks.append(callback)


class AllOf(Event):
    """An event that fires once every event in *events* has fired.

    Its value is the list of the individual event values, in input order.
    It fails with the first failure among them, without waiting for the
    rest (which keep running).
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        self._values = [None] * len(events)
        if not events:
            self.succeed([])
            return
        for index, event in enumerate(events):
            event.add_callback(self._make_collector(index, event))

    def _make_collector(self, index: int, event: Event):
        def collect(value):
            if self.triggered:
                return
            if event.failed:
                self.fail(value)
                return
            self._values[index] = value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._values))

        return collect


class Process:
    """A simulated activity: a generator yielding — or a coroutine awaiting
    — :class:`Event` objects.

    The activity is resumed with the value of each event it waits on; a
    failed event's exception is raised there instead.  When it returns,
    :attr:`event` fires with its return value, so processes can be joined
    like any other event; when it raises, :attr:`event` fails and whoever
    joins it sees the exception.  (``done``/``result``/``cancel`` make a
    process the handle of :meth:`repro.sim.runtime.SimRuntime.start`.)

    Like an ``asyncio.Task``, a process runs in its own copy of the
    ``contextvars`` context taken at creation, so a span opened by its
    creator parents the spans the process opens.
    """

    __slots__ = ("_sim", "_generator", "_context", "event", "_waiting")

    def __init__(self, sim: "Simulator", generator: Generator | Coroutine):
        self._sim = sim
        self._generator = generator
        self._context = contextvars.copy_context()
        self.event = Event(sim)
        self._waiting: Event | None = None
        sim._schedule(0.0, self._resume, None)

    def _resume(self, value) -> None:
        waiting, self._waiting = self._waiting, None
        try:
            if waiting is not None and waiting.failed:
                waited = self._context.run(self._generator.throw, value)
            else:
                waited = self._context.run(self._generator.send, value)
            if not isinstance(waited, Event):
                raise SimulationError(
                    f"process yielded {waited!r}, which is not an Event"
                )
        except StopIteration as stop:
            self.event.succeed(stop.value)
            return
        except Exception as error:  # noqa: BLE001 - delivered to the joiners
            self.event.fail(error)
            self._sim._failed.append(self.event)
            return
        self._waiting = waited
        waited.add_callback(self._resume)

    def done(self) -> bool:
        return self.event.triggered

    async def result(self):
        return await self.event

    async def cancel(self) -> None:
        """The handle's settle call: a simulated activity cannot be
        interrupted, so wait it out and drop its outcome."""
        try:
            await self.event
        except Exception:  # noqa: BLE001 - the outcome no longer matters
            pass


class Pipe:
    """A FIFO resource occupied serially (a NIC direction, a server CPU).

    ``use(duration)`` reserves the next free slot of the pipe for
    ``duration`` seconds and returns an event firing when that occupancy
    ends.  Occupancies are granted in call order, which models FIFO queueing
    at a network card or a single-threaded server loop.
    """

    __slots__ = ("_sim", "name", "_available_at", "busy_time", "requests")

    def __init__(self, sim: "Simulator", name: str):
        self._sim = sim
        self.name = name
        self._available_at = 0.0
        self.busy_time = 0.0
        self.requests = 0

    def use(self, duration: float) -> Event:
        """Reserve the pipe for ``duration`` seconds; returns the end event."""
        if duration < 0:
            raise SimulationError(f"negative occupancy on {self.name}: {duration}")
        now = self._sim.now
        start = max(now, self._available_at)
        end = start + duration
        self._available_at = end
        self.busy_time += duration
        self.requests += 1
        return self._sim.timeout(end - now)

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` seconds this pipe was busy."""
        if horizon <= 0:
            return 0.0
        return min(self.busy_time / horizon, 1.0)


class Simulator:
    """The event loop: virtual time plus a heap of pending callbacks."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, object, object]] = []
        self._sequence = 0
        #: Events of processes that raised; :meth:`run` re-raises the ones
        #: nothing joined.
        self._failed: list[Event] = []

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, delay: float, callback, value) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, callback, value))

    def timeout(self, delay: float) -> Event:
        """An event that fires ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        event = Event(self)
        self._schedule(delay, lambda _value: event.succeed(None), None)
        return event

    def event(self) -> Event:
        """A bare event to be succeeded manually."""
        return Event(self)

    def process(self, generator: Generator | Coroutine) -> Process:
        """Start a new process from a generator (or coroutine) of events."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing when all of *events* have fired."""
        return AllOf(self, events)

    # -- running ----------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until the heap is empty (or virtual time ``until``).

        Returns the final virtual time.  A process that raised does not
        stop the loop: its exception goes to whoever joins it, and only
        after the drain is the first failure nothing joined re-raised here.
        """
        while self._heap:
            time, _seq, callback, value = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            self.now = time
            callback(value)
        if until is not None and self.now < until:
            self.now = until
        failed, self._failed = self._failed, []
        for event in failed:
            if not event.joined:
                raise event.value
        return self.now

    def run_process(self, generator: Generator | Coroutine):
        """Convenience: run a single process to completion and return its
        value; its exception is raised once the heap has drained."""
        process = self.process(generator)
        self.run()
        if not process.event.triggered:
            raise SimulationError("process did not finish (deadlock in the model?)")
        return process.event.value
