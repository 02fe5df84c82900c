"""Runtime concurrency sanitizer: lock-order and async-purity checks.

The static rules (RPR001/RPR002) catch what the AST can see; this module
catches what only execution can: the *actual* process-wide lock-order
graph, and awaits that *actually* suspend while a lock is held.

While installed, :class:`LockSanitizer` replaces ``threading.Lock`` /
``threading.RLock`` with factories returning instrumented wrappers (and
``threading.Condition``'s default lock, which resolves ``RLock`` through
the ``threading`` module namespace, picks the wrapper up automatically).
Each wrapper records, per thread, the stack of sanitized locks currently
held:

* **Lock-order cycles** — acquiring ``B`` while holding ``A`` adds the
  edge ``A → B`` to a process-wide directed graph (with the acquisition
  stack as evidence).  If ``B … → A`` is already reachable, the new edge
  closes a cycle: two threads interleaving those paths can deadlock, so
  the acquire raises :class:`LockOrderViolation` immediately — on the
  *first* inverted acquisition, not on the unlucky interleaving.

* **Locks held across suspension** — installing also patches the event
  loop policy so every new loop gets a task factory that drives each
  coroutine through a checkpoint: whenever a task genuinely suspends
  (yields to the loop), the sanitizer verifies the running thread holds
  no sanitized lock and raises :class:`LockHeldAcrossAwaitError`
  otherwise.  An ``await`` that completes inline (the ``SyncRuntime``
  trampoline, an already-done future) never reaches the checkpoint, so
  the sync bridge stays exempt by construction.

The sanitizer is **off by default and zero-cost when off**: production
code never imports this module, and nothing is patched until
:meth:`LockSanitizer.install` runs.  The test suite enables it via the
``lock_sanitizer`` fixture in ``tests/conftest.py``; CI flips it on for
the async and chaos suites with ``REPRO_SANITIZE=1``.

Wrappers created while installed keep working after ``uninstall()`` —
they simply stop reporting — because caches and clusters built under a
fixture outlive it.
"""

from __future__ import annotations

import asyncio
import threading
import traceback
import types
from dataclasses import dataclass, field

__all__ = [
    "LockHeldAcrossAwaitError",
    "LockOrderViolation",
    "LockSanitizer",
    "SanitizedLock",
]

#: Frames of acquisition stack kept as evidence on each lock-order edge.
_EVIDENCE_FRAMES = 8

#: Stack frames whose filename contains one of these are trimmed from
#: evidence: they are the sanitizer's own plumbing, not the caller's.
_NOISE = ("analysis/sanitizer", "threading.py")


class LockOrderViolation(RuntimeError):
    """Two sanitized locks were acquired in inconsistent orders.

    Raised at the acquisition that closes a cycle in the process-wide
    lock-order graph — the canonical potential-deadlock signal, reported
    deterministically even when the schedule that would deadlock never
    happens to run.
    """


class LockHeldAcrossAwaitError(RuntimeError):
    """A sanitized threading lock was held across a real suspension.

    The event loop regained control while the running thread still held a
    lock: every other task scheduled before the coroutine resumes runs
    with that lock held — the starvation/deadlock class DESIGN.md §8
    forbids (static twin: lint rule RPR001).
    """


def _caller_site() -> str:
    """``file:line`` of the frame that created a lock (evidence label)."""
    for frame in reversed(traceback.extract_stack(limit=16)):
        name = frame.filename.replace("\\", "/")
        if not any(noise in name for noise in _NOISE):
            return f"{name.rsplit('/', 1)[-1]}:{frame.lineno}"
    return "<unknown>"


def _evidence_stack() -> tuple[str, ...]:
    frames = [
        f"{frame.filename.replace(chr(92), '/').rsplit('/', 1)[-1]}"
        f":{frame.lineno} in {frame.name}"
        for frame in traceback.extract_stack(limit=_EVIDENCE_FRAMES + 8)
        if not any(noise in frame.filename.replace("\\", "/") for noise in _NOISE)
    ]
    return tuple(frames[-_EVIDENCE_FRAMES:])


@dataclass
class _Edge:
    """Evidence for one observed ordering ``holder → acquired``."""

    #: Thread that recorded the ordering first.
    thread: str
    #: Trimmed acquisition stack at the moment the edge was recorded.
    stack: tuple[str, ...] = field(default_factory=tuple)


class SanitizedLock:
    """Instrumented stand-in for ``threading.Lock`` / ``threading.RLock``.

    Delegates every operation to the wrapped primitive and reports
    acquisition/release transitions to its :class:`LockSanitizer`.  The
    ``_release_save`` / ``_acquire_restore`` / ``_is_owned`` trio is
    forwarded with bookkeeping so ``threading.Condition.wait`` — which
    bypasses ``release()``/``acquire()`` — keeps the held-stack exact.
    """

    __slots__ = ("_inner", "_san", "name", "site", "_serial")

    def __init__(self, sanitizer: LockSanitizer, inner, name: str | None = None):
        self._inner = inner
        self._san = sanitizer
        self.site = _caller_site()
        self.name = name if name is not None else f"lock@{self.site}"
        self._serial = sanitizer._register(self)

    # -- core lock protocol -------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._san._note_acquire(self)
        return acquired

    def release(self) -> None:
        self._san._note_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<SanitizedLock {self.name} wrapping {self._inner!r}>"

    # -- Condition integration ---------------------------------------------
    # threading.Condition probes for these and, when present, uses them to
    # drop/retake the lock around wait().  Forward them with bookkeeping,
    # falling back to plain release/acquire when the inner lock (a
    # non-reentrant Lock) does not define them.
    def _release_save(self):
        self._san._note_release(self)
        inner = getattr(self._inner, "_release_save", None)
        if inner is not None:
            return inner()
        self._inner.release()
        return None

    def _acquire_restore(self, state) -> None:
        inner = getattr(self._inner, "_acquire_restore", None)
        if inner is not None:
            inner(state)
        else:
            self._inner.acquire()
        self._san._note_acquire(self)

    def _is_owned(self) -> bool:
        inner = getattr(self._inner, "_is_owned", None)
        if inner is not None:
            return inner()
        # Non-reentrant Lock: mirror threading.Condition's own fallback.
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True


class LockSanitizer:
    """Process-wide lock-order graph + per-thread held-lock stacks.

    One instance is installed at a time (:meth:`install` patches the
    ``threading`` factories and the event-loop policy; :meth:`uninstall`
    restores them).  Violations raise synchronously inside the offending
    ``acquire``/``await`` so the failing test points at the exact site.
    """

    def __init__(self) -> None:
        self._graph_lock = threading.Lock()
        #: serial(holder) → {serial(acquired): _Edge}
        self._edges: dict[int, dict[int, _Edge]] = {}
        #: serial → lock (strong refs: serials must stay unambiguous).
        self._locks: dict[int, SanitizedLock] = {}
        self._tls = threading.local()
        self._active = False
        self._installed = False
        self._saved: dict[str, object] = {}
        self._serial = 0
        #: Count of violations raised (self-tests assert on it).
        self.violations = 0

    # -- registration -------------------------------------------------------
    def _register(self, lock: SanitizedLock) -> int:
        with self._graph_lock:
            self._serial += 1
            self._locks[self._serial] = lock
            return self._serial

    def _held(self) -> list[SanitizedLock]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def held_names(self) -> tuple[str, ...]:
        """Names of sanitized locks the calling thread currently holds."""
        return tuple(lock.name for lock in self._held())

    # -- transition hooks ---------------------------------------------------
    def _note_acquire(self, lock: SanitizedLock) -> None:
        if not self._active:
            return
        held = self._held()
        if any(entry is lock for entry in held):
            # Reentrant re-acquisition (RLock / Condition restore): depth
            # bookkeeping only, no new ordering information.
            held.append(lock)
            return
        for holder in {entry._serial: entry for entry in held}.values():
            self._record_edge(holder, lock)
        held.append(lock)

    def _note_release(self, lock: SanitizedLock) -> None:
        if not self._active:
            return
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index] is lock:
                del held[index]
                return

    def _record_edge(self, holder: SanitizedLock, acquired: SanitizedLock) -> None:
        thread = threading.current_thread().name
        with self._graph_lock:
            successors = self._edges.setdefault(holder._serial, {})
            if acquired._serial in successors:
                return  # ordering already proven consistent
            path = self._find_path(acquired._serial, holder._serial)
            if path is None:
                successors[acquired._serial] = _Edge(
                    thread=thread, stack=_evidence_stack()
                )
                return
            self.violations += 1
            cycle = [acquired._serial, *path]
            lines = [
                f"lock-order cycle: acquiring '{acquired.name}' while "
                f"holding '{holder.name}' (thread {thread}) inverts the "
                "established order:"
            ]
            for serial_a, serial_b in zip(cycle, cycle[1:]):
                edge = self._edges[serial_a][serial_b]
                lines.append(
                    f"  '{self._locks[serial_a].name}' was held while "
                    f"acquiring '{self._locks[serial_b].name}' "
                    f"(thread {edge.thread}):"
                )
                lines.extend(f"    {frame}" for frame in edge.stack[-3:])
        raise LockOrderViolation("\n".join(lines))

    def _find_path(self, start: int, goal: int) -> list[int] | None:
        """DFS over the edge graph; returns the node path start→…→goal
        (excluding ``start``) or None.  Caller holds ``_graph_lock``."""
        if start == goal:
            return []
        stack: list[tuple[int, list[int]]] = [(start, [])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            for successor in self._edges.get(node, ()):
                if successor == goal:
                    return path + [successor]
                if successor not in seen:
                    seen.add(successor)
                    stack.append((successor, path + [successor]))
        return None

    # -- async purity -------------------------------------------------------
    def check_suspension(self) -> None:
        """Raise if the calling thread suspends while holding locks."""
        if not self._active:
            return
        held = self.held_names()
        if held:
            self.violations += 1
            raise LockHeldAcrossAwaitError(
                "coroutine suspended while the thread holds sanitized "
                f"lock(s): {', '.join(held)}; release before awaiting "
                "(DESIGN.md §8 / lint rule RPR001)"
            )

    def guard(self, coro):
        """Wrap *coro* so every genuine suspension passes the checkpoint."""
        sanitizer = self

        @types.coroutine
        def driven():
            to_send = None
            to_throw = None
            while True:
                try:
                    if to_throw is not None:
                        yielded = coro.throw(to_throw)
                    else:
                        yielded = coro.send(to_send)
                except StopIteration as stop:
                    return stop.value
                # The coroutine yielded to the event loop: it is about to
                # genuinely suspend.  Awaits that complete inline never
                # reach this line.
                try:
                    sanitizer.check_suspension()
                except LockHeldAcrossAwaitError:
                    # Unwind the suspended coroutine so its 'with' blocks
                    # release the offending locks before the error surfaces.
                    coro.close()
                    raise
                to_throw = None
                try:
                    to_send = yield yielded
                except BaseException as exc:  # pragma: no cover - cancel path
                    to_throw = exc

        async def runner():
            return await driven()

        return runner()

    def task_factory(self, loop, coro, **kwargs):
        """``loop.set_task_factory`` hook driving tasks through the guard."""
        if not asyncio.iscoroutine(coro):
            return asyncio.Task(coro, loop=loop, **kwargs)
        task = asyncio.Task(self.guard(coro), loop=loop, **kwargs)
        # A task cancelled before its first step never enters the guard:
        # close what it wraps, or it is reported as never awaited.
        task.add_done_callback(lambda _task: coro.close())
        return task

    # -- install / uninstall -------------------------------------------------
    def enable(self) -> "LockSanitizer":
        """Activate checking for explicitly :meth:`wrap`-ped locks without
        patching anything process-wide (the self-tests' mode)."""
        self._active = True
        return self

    def install(self) -> "LockSanitizer":
        """Patch the ``threading`` factories and the event-loop policy."""
        if self._installed:
            raise RuntimeError("sanitizer already installed")
        sanitizer = self
        real_lock = threading.Lock
        real_rlock = threading.RLock

        def make_lock():
            return SanitizedLock(sanitizer, real_lock())

        def make_rlock():
            return SanitizedLock(sanitizer, real_rlock())

        self._saved = {"Lock": real_lock, "RLock": real_rlock}
        threading.Lock = make_lock
        threading.RLock = make_rlock

        policy = asyncio.get_event_loop_policy()
        real_new_loop = policy.new_event_loop

        def new_event_loop():
            loop = real_new_loop()
            loop.set_task_factory(sanitizer.task_factory)
            return loop

        self._saved["policy"] = policy
        self._saved["new_event_loop"] = real_new_loop
        policy.new_event_loop = new_event_loop

        self._active = True
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore the patched factories; existing wrappers go inert."""
        if not self._installed:
            return
        self._active = False
        self._installed = False
        threading.Lock = self._saved["Lock"]
        threading.RLock = self._saved["RLock"]
        policy = self._saved["policy"]
        if asyncio.get_event_loop_policy() is policy:
            policy.new_event_loop = self._saved["new_event_loop"]
        self._saved = {}

    def __enter__(self) -> "LockSanitizer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- introspection -------------------------------------------------------
    def edge_count(self) -> int:
        """Number of distinct orderings observed (self-test visibility)."""
        with self._graph_lock:
            return sum(len(successors) for successors in self._edges.values())

    def lock_count(self) -> int:
        """Number of locks created (and thus instrumented) while active."""
        with self._graph_lock:
            return len(self._locks)

    def wrap(self, inner=None, name: str | None = None) -> SanitizedLock:
        """Explicitly wrap a lock (used by tests to name seeded locks)."""
        if inner is None:
            inner = self._saved.get("Lock", threading.Lock)()
            if isinstance(inner, SanitizedLock):  # already patched factory
                inner = inner._inner
        return SanitizedLock(self, inner, name=name)
