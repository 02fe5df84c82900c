"""SYNC wakes when its version settles, on every runtime, and never polls.

The version manager wakes a version's SYNC waiters when it publishes or
aborts that version (``VersionManager.on_settled``).  Each case runs on the
three runtimes:

* ``sync`` — a thread blocked in :meth:`BlobStore.sync` (``SYNC_RUNTIME``),
  driven from an event loop through a thread pool;
* ``async`` — :class:`AsyncBlobStore` on the event loop (``AsyncRuntime``);
* ``sim`` — :class:`AsyncBlobStore` on the simulated clock
  (``SimRuntime``), where a wake reaches the client one network latency
  after the state change.

A recorder wraps the version manager's SYNC entry points (``sync``,
``poll_sync``, ``on_settled``) and notes the version and the runtime's clock
of every call, so a case can say when a waiter moved on and how many probes
a SYNC made.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import pytest

from repro import AsyncBlobStore, BlobStore, Cluster
from repro.aio import SyncRuntime, run_sync
from repro.cache import NodeCache
from repro.errors import UpdateAbortedError, VersionNotPublishedError
from repro.sim import SimDeployment, SimRuntime
from repro.version import VersionManager

PAGE = 16
#: How long the real runtimes may take to deliver a wake.
PROMPT_S = 0.02
#: A generous bound on any blocking step of a case that works.
STUCK_S = 5.0

RUNTIMES = ("sync", "async", "sim")


class Recorder:
    """Notes ``(method, version, clock)`` for every SYNC probe of ``vm``.

    The wrappers are instance attributes, so the version manager's own
    calls of them (``sync`` registering and probing) are noted too."""

    METHODS = ("sync", "poll_sync", "on_settled")

    def __init__(self, vm, clock):
        self.calls: list[tuple[str, int, float]] = []
        for name in self.METHODS:
            original = getattr(vm, name, None)
            if original is not None:
                setattr(vm, name, self._wrap(name, original, clock))

    def _wrap(self, name, original, clock):
        def recorded(blob_id, version, *args, **kwargs):
            self.calls.append((name, version, clock()))
            return original(blob_id, version, *args, **kwargs)

        return recorded

    def probes(self) -> int:
        """Calls that registered a waiter or probed publication."""
        return sum(1 for name, _v, _t in self.calls if name != "sync")

    def first_call_on(self, version: int) -> float | None:
        return next((t for _n, v, t in self.calls if v == version), None)


# ---------------------------------------------------------------- runtimes
class _RealEnv:
    """Shared by the two real runtimes: the controller is a coroutine on an
    event loop, clocks are ``time.perf_counter``, a held writer is a thread
    whose completion notice waits for :meth:`HeldWriter.release`.  Threads
    come from a pool made here, not from ``asyncio.to_thread``, so that no
    lock of the standard library is first created under the lock
    sanitizer (``REPRO_SANITIZE=1``)."""

    latency = None
    #: Not a multiple of a 50 ms poll period, so a poll cannot pass for a wake.
    settle = 0.06
    keeps_bytes = True

    def __init__(self):
        self.cluster = Cluster.in_memory(
            num_data_providers=4, num_metadata_providers=4, page_size=PAGE
        )
        self.vm = self.cluster.version_manager
        self.recorder = Recorder(self.vm, self.now)
        self.blob_id = self.vm.create_blob().blob_id
        self.pool = ThreadPoolExecutor(max_workers=8)

    def now(self) -> float:
        return time.perf_counter()

    def in_thread(self, call, *args):
        return asyncio.get_running_loop().run_in_executor(self.pool, call, *args)

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    async def join(self, handle):
        return await handle

    async def run(self, op: str, *args, **kwargs):
        return await self.join(self.spawn(op, *args, **kwargs))

    def hold_writer(self, blob_id: str, data: bytes, offset: int) -> HeldWriter:
        runtime = _HeldSyncRuntime()
        store = AsyncBlobStore(self.cluster, runtime=runtime)
        job = self.in_thread(run_sync, store.write(blob_id, data, offset))
        return HeldWriter(
            holding=lambda: self.in_thread(runtime.holding.wait, STUCK_S),
            release=runtime.release.set,
            job=job,
        )

    def drive(self, scenario) -> None:
        try:
            asyncio.run(asyncio.wait_for(scenario(self), 30))
        finally:
            self.pool.shutdown()


class SyncEnv(_RealEnv):
    """Operations run on blocking :class:`BlobStore` calls in threads."""

    def __init__(self):
        super().__init__()
        self.store = BlobStore(self.cluster)

    def spawn(self, op: str, *args, **kwargs):
        return self.in_thread(partial(getattr(self.store, op), *args, **kwargs))


class AsyncEnv(_RealEnv):
    """Operations run as tasks of :class:`AsyncBlobStore` on the loop."""

    def __init__(self):
        super().__init__()
        self.store = AsyncBlobStore(self.cluster)

    def spawn(self, op: str, *args, **kwargs):
        return asyncio.ensure_future(getattr(self.store, op)(*args, **kwargs))


class SimEnv:
    """Operations run as simulator processes on client 0's
    :class:`SimRuntime`; the controller is a process too."""

    #: Off the latency grid, so a poll every latency cannot land on it.
    settle = 0.01025
    #: Simulated page stores keep sizes only; payloads read back as zeros.
    keeps_bytes = False

    def __init__(self):
        self.dep = SimDeployment(num_provider_nodes=4, page_size=PAGE)
        self.sim = self.dep.simulator
        self.latency = self.dep.sim_config.latency
        self.vm = self.dep.version_manager
        self.recorder = Recorder(self.vm, self.now)
        self.store = self._store(SimRuntime(self.dep, self.dep.client_node(0)))
        self.blob_id = self.dep.create_blob()

    def _store(self, runtime) -> AsyncBlobStore:
        return AsyncBlobStore(
            self.dep.cluster, runtime=runtime, node_cache=NodeCache(),
            cache_pages=False, lease_versions=False,
        )

    def now(self) -> float:
        return self.sim.now

    async def sleep(self, seconds: float) -> None:
        await self.sim.timeout(seconds)

    def spawn(self, op: str, *args, **kwargs):
        return self.sim.process(getattr(self.store, op)(*args, **kwargs))

    async def join(self, process):
        return await process.event

    async def run(self, op: str, *args, **kwargs):
        return await self.join(self.spawn(op, *args, **kwargs))

    def hold_writer(self, blob_id: str, data: bytes, offset: int) -> HeldWriter:
        runtime = _HeldSimRuntime(self.dep, self.dep.client_node(1))
        job = self.sim.process(self._store(runtime).write(blob_id, data, offset))

        async def holding():
            await runtime.holding

        return HeldWriter(holding=holding, release=runtime.release.succeed, job=job)

    def drive(self, scenario) -> None:
        self.sim.run_process(scenario(self))


@dataclass
class HeldWriter:
    """A WRITE stopped just before its completion notice."""

    #: Awaitable factory: returns once the writer is held.
    holding: Callable
    #: Lets the writer send its completion notice.
    release: Callable
    #: What ``env.join`` takes to wait for the WRITE's outcome.
    job: object


class _HeldSyncRuntime(SyncRuntime):
    def __init__(self):
        self.holding = threading.Event()
        self.release = threading.Event()

    async def vm_call(self, vm, op, *args, **kwargs):
        if op == "complete_update":
            self.holding.set()
            self.release.wait(STUCK_S)
        return await super().vm_call(vm, op, *args, **kwargs)


class _HeldSimRuntime(SimRuntime):
    def __init__(self, deployment, node):
        super().__init__(deployment, node)
        self.holding = deployment.simulator.event()
        self.release = deployment.simulator.event()

    async def vm_call(self, vm, op, *args, **kwargs):
        if op == "complete_update":
            self.holding.succeed()
            await self.release
        return await super().vm_call(vm, op, *args, **kwargs)


ENVS = {"sync": SyncEnv, "async": AsyncEnv, "sim": SimEnv}


def _assert_prompt(env, settled_at: float, woken_at: float | None) -> None:
    """A waiter woke within ``PROMPT_S`` of the state change on a real
    runtime, and exactly one network latency after it on the simulator."""
    assert woken_at is not None, "the waiter never moved on"
    if env.latency is None:
        assert woken_at - settled_at < PROMPT_S
    else:
        assert woken_at == settled_at + env.latency


# ------------------------------------------------------------------- cases
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_abort_of_a_version_not_next_in_line_wakes_its_sync(runtime):
    env = ENVS[runtime]()
    outcome = {}

    async def scenario(env):
        vm, blob_id = env.vm, env.blob_id
        vm.register_update(blob_id, PAGE, is_append=True)  # v1, stays in flight
        vm.register_update(blob_id, PAGE, is_append=True)  # v2
        waiting = env.spawn("sync", blob_id, 2, timeout=2.0)
        await env.sleep(env.settle)
        outcome["aborted_at"] = env.now()
        vm.abort_update(blob_id, 2)
        with pytest.raises(UpdateAbortedError):
            await env.join(waiting)
        outcome["raised_at"] = env.now()

    env.drive(scenario)
    _assert_prompt(env, outcome["aborted_at"], outcome["raised_at"])


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_unaligned_write_steps_over_an_aborted_predecessor_at_once(runtime):
    env = ENVS[runtime]()
    initial = bytes(range(4 * PAGE))
    held_data = b"H" * PAGE
    late = b"xyz"
    outcome = {}

    async def scenario(env):
        vm, blob_id = env.vm, env.blob_id
        await env.run("append", blob_id, initial)  # v1
        await env.run("sync", blob_id, 1)
        held = env.hold_writer(blob_id, held_data, 0)  # v2, aligned
        await held.holding()
        # v3, to be aborted: an APPEND past the bytes read back below, whose
        # subtree the later trees link to (the successor-tree hole of
        # DESIGN.md §6).
        vm.register_update(blob_id, PAGE, is_append=True)
        writer = env.spawn("write", blob_id, late, 21)  # v4 waits on v3
        await env.sleep(env.settle)
        outcome["aborted_at"] = env.now()
        vm.abort_update(blob_id, 3)
        # v4 must move on to v2 — still in flight — without waiting for it.
        await env.sleep(env.settle)
        outcome["moved_at"] = env.recorder.first_call_on(2)
        held.release()
        await env.join(held.job)
        outcome["version"] = await env.join(writer)
        await env.run("sync", blob_id, 4)
        outcome["data"] = await env.run("read", blob_id, 4, 0, len(initial))

    env.drive(scenario)
    _assert_prompt(env, outcome["aborted_at"], outcome["moved_at"])
    assert outcome["version"] == 4
    expected = bytearray(initial)
    expected[0:PAGE] = held_data
    expected[21 : 21 + len(late)] = late
    if not env.keeps_bytes:
        expected = bytes(len(expected))
    assert outcome["data"] == bytes(expected)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_sync_behind_a_held_writer_probes_at_most_twice(runtime):
    env = ENVS[runtime]()
    outcome = {}

    async def scenario(env):
        vm, blob_id = env.vm, env.blob_id
        vm.register_update(blob_id, PAGE, is_append=True)  # v1, held
        before = env.recorder.probes()
        waiting = env.spawn("sync", blob_id, 1, timeout=2.0)
        await env.sleep(0.3)
        outcome["published_at"] = env.now()
        vm.complete_update(blob_id, 1)
        await env.join(waiting)
        outcome["returned_at"] = env.now()
        outcome["probes"] = env.recorder.probes() - before

    env.drive(scenario)
    assert outcome["probes"] <= 2
    _assert_prompt(env, outcome["published_at"], outcome["returned_at"])


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_timed_out_sync_leaves_no_waiter(runtime):
    env = ENVS[runtime]()
    outcome = {}

    async def scenario(env):
        vm, blob_id = env.vm, env.blob_id
        vm.register_update(blob_id, PAGE, is_append=True)  # v1, never completes
        with pytest.raises(VersionNotPublishedError):
            await env.run("sync", blob_id, 1, timeout=0.05)
        outcome["waiters"] = dict(vm._state(blob_id).waiters)
        vm.complete_update(blob_id, 1)
        await env.run("sync", blob_id, 1, timeout=0.05)

    env.drive(scenario)
    assert outcome["waiters"] == {}


def test_racing_syncs_and_settles_lose_no_wake():
    """Threads SYNC on versions that other threads complete or abort in a
    random order, some with a timeout short enough to withdraw while the
    wake is under way: every SYNC without that timeout ends with its
    version's outcome before its timeout (a lost wake would only end at
    the timeout), and no waiter is left behind."""
    vm = VersionManager()
    blob_id = vm.create_blob(PAGE).blob_id
    versions = [
        vm.register_update(blob_id, PAGE, is_append=True).version for _ in range(200)
    ]
    rng = random.Random(46)
    aborted = set(rng.sample(versions, 40))
    order = rng.sample(versions, len(versions))
    wrong = []

    def settle(part):
        for version in part:
            if version in aborted:
                vm.abort_update(blob_id, version)
            else:
                vm.complete_update(blob_id, version)

    def sync(seed):
        syncer_rng = random.Random(seed)
        for version in syncer_rng.sample(versions, 50):
            timeout = STUCK_S if syncer_rng.random() < 0.8 else 1e-4
            started = time.monotonic()
            try:
                vm.sync(blob_id, version, timeout)
                outcome = "published"
            except UpdateAbortedError:
                outcome = "aborted"
            except VersionNotPublishedError:
                outcome = "timed out"
            if timeout < STUCK_S:
                continue
            if time.monotonic() - started >= timeout:
                outcome = "woken by its timeout"
            if outcome != ("aborted" if version in aborted else "published"):
                wrong.append((version, outcome))

    threads = [
        threading.Thread(target=sync, args=(seed,)) for seed in range(8)
    ] + [threading.Thread(target=settle, args=(order[i::4],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert vm._state(blob_id).waiters == {}
