"""The I/O runtime seam: ONE async code path, two execution modes.

Every batched component call — the DHT's per-bucket multi-ops, the provider
manager's per-provider batches, the metadata façade, the client's whole
read/write pipeline — is written exactly once, as a coroutine, against the
small :class:`IORuntime` strategy interface defined here.  The runtime then
decides how the coroutine's awaits actually execute:

* :class:`SyncRuntime` never suspends.  Its ``run_batches`` executes the
  per-backend jobs inline, in submission order, its sleeps block, and its
  ``start`` runs a coroutine eagerly to completion.  Because none of its
  awaitables ever yields, a coroutine driven against it finishes in a
  SINGLE ``coro.send(None)`` — which is what :func:`run_sync` exploits: the
  sync :class:`~repro.core.blob_store.BlobStore` is a loop-free trampoline
  over the async core, not a second implementation.  No event loop is
  created, no thread is parked, and the pre-async timing and trip
  accounting are preserved bit-for-bit.  The runtime is stateless, so the
  few synchronous component façades that survive (``DHT.multi_get``, …)
  all drive their coroutine on one shared instance, :data:`SYNC_RUNTIME`.

* :class:`AsyncRuntime` is the event-loop mode behind
  :class:`~repro.core.async_store.AsyncBlobStore`.  ``run_batches`` yields
  to the loop before executing (so thousands of gathered operations
  genuinely interleave without a single pool thread), ``start`` spawns an
  ``asyncio.Task`` (the write path overlaps its metadata publish with the
  page stores this way), ``gather`` fans sub-traversals out concurrently
  (the read path pipelines level N+1 frontier fetches while level N's
  slower buckets resolve) and cancels the siblings of a failed branch,
  and ``vm_sync`` parks on a loop future, never on a thread.

Every runtime's SYNC registers with ``VersionManager.on_settled``, waits on
its own primitive for the wake of a publication or an abort (or for the
timeout), withdraws, and probes once more.  Nothing polls.

The runtime is the ONLY execution strategy: a component call takes the
runtime it executes on, and a different strategy (the wall benchmark's
counting runtime, the simulated clock of :mod:`repro.sim.runtime`) is a
subclass or a sibling of these two classes — never a per-call hook.  So
that a sibling can charge a cost model, ``run_batches`` receives a
:class:`JobBatch`, every version-manager call goes through ``vm_call``, and
bytes a client serves from its own caches go through ``local_copy``.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable, Coroutine

from .errors import VersionNotPublishedError


def run_sync(coro: Coroutine):
    """Drive *coro* to completion without an event loop.

    Correct only for coroutines whose awaitables all complete without
    suspending — which every coroutine of this package does when executed
    against a :class:`SyncRuntime`.  A coroutine that actually yields (for
    example one that awaited a real ``asyncio`` primitive) is closed and
    reported as a programming error rather than silently abandoned.
    """
    try:
        coro.send(None)
    except StopIteration as stop:
        return stop.value
    coro.close()
    raise RuntimeError(
        "run_sync() drove a coroutine that suspended; async-only awaitables "
        "must not be reached under SyncRuntime"
    )


class SyncHandle:
    """Result of :meth:`SyncRuntime.start`: the work already ran eagerly."""

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value

    def done(self) -> bool:
        return True

    async def result(self):
        return self._value

    async def cancel(self) -> None:
        """Nothing to stop: the work finished inside :meth:`start`."""


class TaskHandle:
    """Result of :meth:`AsyncRuntime.start`: an in-flight ``asyncio.Task``."""

    __slots__ = ("_task",)

    def __init__(self, task: asyncio.Task):
        self._task = task

    def done(self) -> bool:
        return self._task.done()

    async def result(self):
        return await self._task

    async def cancel(self) -> None:
        """Cancel the task if it still runs and wait until it has finished;
        its outcome is dropped (a failed operation settles what it started
        this way, so nothing of it stays on the loop)."""
        self._task.cancel()
        await asyncio.wait([self._task])
        if not self._task.cancelled():
            self._task.exception()  # mark a failure as retrieved


Handle = SyncHandle | TaskHandle


class JobBatch(list):
    """The jobs of ONE dispatch — a plain list of zero-argument coroutine
    functions to a runtime that only executes them — plus what they are:
    ``leg`` (``"page_store"``, ``"page_fetch"``, ``"meta_get"`` or
    ``"meta_put"``) and ``groups``, the ``(endpoint_id, batch)`` pairs the
    jobs were built from, aligned with them."""

    __slots__ = ("leg", "groups")

    def __init__(self, jobs, leg: str, groups: list):
        super().__init__(jobs)
        self.leg = leg
        self.groups = groups


class SyncRuntime:
    """Suspension-free runtime: the engine's awaits all complete inline.

    Stateless — no hook, no pool, no lock — so one instance can serve any
    number of stores and threads.  ``pipelined`` is False: a tree level
    with cache misses is fetched as ONE batch before the descent steps down,
    and pages are stored before their metadata is published — so every trip
    counter stays exactly as it was before the async core existed.
    """

    pipelined = False

    async def run_batches(self, jobs: list) -> list:
        return [run_sync(job()) for job in jobs]

    async def retry_call(self, retry, attempt, on_failure=None):
        # The policy's own injected clock sleeps (blocking), preserving the
        # deterministic fakes tests wire in.
        return retry.run(attempt, on_failure=on_failure)

    # -- structured concurrency (degenerate, in submission order) ----------
    def start(self, coro: Coroutine) -> SyncHandle:
        """Run *coro* eagerly to completion; errors raise here, at the exact
        point the pre-async code would have raised them."""
        return SyncHandle(run_sync(coro))

    async def gather(self, *coros: Coroutine):
        return [run_sync(coro) for coro in coros]

    async def sleep(self, seconds: float) -> None:
        if seconds > 0:
            # Blocking inline is SyncRuntime's documented contract: awaits
            # complete eagerly on the calling thread (no event loop exists).
            time.sleep(seconds)  # noqa: ASYNC251

    async def vm_call(self, vm, op: str, *args, **kwargs):
        """One version-manager call, issued inline: an update call
        (``register_update``, ``complete_update``, ``abort_update``) or a
        read-only lookup a lease could not serve (``get_record``,
        ``check_read``, ``recent_lease``, ``get_recent``)."""
        return getattr(vm, op)(*args, **kwargs)

    async def local_copy(self, nbytes: int) -> None:
        """``nbytes`` served from the client's own memory: free here."""

    async def vm_sync(self, vm, blob_id: str, version: int, timeout=None) -> None:
        vm.sync(blob_id, version, timeout)


#: The shared instance behind every synchronous façade of a batched
#: component call and behind the sync ``BlobStore``.
SYNC_RUNTIME = SyncRuntime()


class AsyncRuntime:
    """Event-loop runtime: awaits suspend, operations interleave, no pool.

    ``pipelined`` is True: the engine fetches a tree level's cache misses
    as one branch per DHT bucket (level N+1 fetches start while level N
    resolves) and overlaps the write path's batched ``put_nodes`` publish
    with the page stores.  A level the caches serve costs no turn of the
    loop on either runtime.
    """

    pipelined = True

    async def run_batches(self, jobs: list) -> list:
        # Yield to the loop BEFORE touching the backends: every concurrent
        # operation parks here once, so 10k gathered reads are all in
        # flight before the first one completes — cooperative concurrency
        # where the thread pool capped out at hundreds.
        await asyncio.sleep(0)
        if not jobs:
            return []
        if len(jobs) == 1:
            return [await jobs[0]()]
        return list(await asyncio.gather(*(job() for job in jobs)))

    async def retry_call(self, retry, attempt, on_failure=None):
        # Awaitable backoff: a retrying operation parks on the loop instead
        # of blocking the thread (and every other in-flight operation).
        return await retry.arun(attempt, on_failure=on_failure)

    def start(self, coro: Coroutine) -> TaskHandle:
        return TaskHandle(asyncio.ensure_future(coro))

    async def gather(self, *coros: Coroutine):
        """Run *coros* concurrently and return their results in order.  The
        branches belong to the caller: when one fails (or the caller is
        cancelled) the others are cancelled and awaited before the error
        propagates, so a failed operation leaves no task behind."""
        tasks = [asyncio.ensure_future(coro) for coro in coros]
        try:
            return list(await asyncio.gather(*tasks))
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    async def vm_call(self, vm, op: str, *args, **kwargs):
        # Inline too: the in-process version manager answers without I/O.
        return getattr(vm, op)(*args, **kwargs)

    async def local_copy(self, nbytes: int) -> None:
        """``nbytes`` served from the client's own memory: free here."""

    async def vm_sync(self, vm, blob_id: str, version: int, timeout=None) -> None:
        """SYNC parked on a loop future; the wake may come from any thread."""
        loop = asyncio.get_running_loop()
        settled = loop.create_future()

        def resolve() -> None:
            if not settled.done():
                settled.set_result(None)

        withdraw = vm.on_settled(
            blob_id, version, lambda: loop.call_soon_threadsafe(resolve)
        )
        if withdraw is None:
            return
        try:
            await asyncio.wait_for(settled, timeout)
        except TimeoutError:
            pass
        finally:
            withdraw()
        if not vm.poll_sync(blob_id, version):
            raise VersionNotPublishedError(blob_id, version)


IORuntime = SyncRuntime | AsyncRuntime


async def dispatch_jobs(
    runtime: IORuntime,
    leg: str,
    groups: list,
    make_attempt: Callable,
    retry=None,
    capture: tuple[type[BaseException], ...] = (Exception,),
    note_success: Callable[[str], None] | None = None,
    note_failure: Callable[[str], None] | None = None,
) -> list:
    """Run one job per ``(endpoint_id, batch)`` group of protocol leg ``leg``
    (see :class:`JobBatch`); outcomes align with ``groups`` and exceptions of
    the ``capture`` classes are returned in their slot instead of aborting
    the dispatch — every live backend's batch completes before the caller
    decides how to surface failures.

    When a :class:`repro.fault.RetryPolicy` is wired, each job retries its
    call on transient errors before giving up (awaitable backoff under an
    event loop, the policy's own injected clock otherwise); every outcome —
    including each failed retry attempt — is reported through the
    ``note_success`` / ``note_failure`` health hooks.
    """

    def make_job(endpoint_id: str, batch):
        attempt = make_attempt(endpoint_id, batch)
        on_failure = None
        if note_failure is not None:
            on_failure = lambda _error, _n: note_failure(endpoint_id)  # noqa: E731

        async def job():
            try:
                if retry is not None and not retry.is_noop:
                    result = await runtime.retry_call(retry, attempt, on_failure)
                else:
                    result = attempt()
            except capture as error:
                if note_failure is not None:
                    note_failure(endpoint_id)
                return error
            if note_success is not None:
                note_success(endpoint_id)
            return result

        return job

    jobs = (make_job(endpoint_id, batch) for endpoint_id, batch in groups)
    return await runtime.run_batches(JobBatch(jobs, leg, groups))


__all__ = [
    "AsyncRuntime",
    "Handle",
    "IORuntime",
    "JobBatch",
    "SYNC_RUNTIME",
    "SyncHandle",
    "SyncRuntime",
    "TaskHandle",
    "dispatch_jobs",
    "run_sync",
]
