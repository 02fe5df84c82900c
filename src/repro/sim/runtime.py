"""The simulated-clock I/O runtime: the shipped engine on virtual time.

:class:`SimRuntime` is the third :class:`~repro.aio.IORuntime`, a sibling of
``SyncRuntime`` and ``AsyncRuntime``.  Every awaitable of it bottoms out in
awaiting a simulator :class:`~repro.sim.engine.Event`, so a coroutine of
:class:`~repro.core.async_store.AsyncBlobStore` is driven by a simulator
:class:`~repro.sim.engine.Process` and parks in virtual time exactly where
it would park on the event loop, while the state changes (placement,
version assignment, metadata weaving, publication) run through the same
real components — the simulator holds no second copy of the protocol.
Simulated APPENDs and READs are ``append_ex`` and ``read_ex`` on this
runtime.

DESIGN.md §8 tabulates what each seam call is charged: batched I/O on the
network model, every version-manager call (lease misses included) on the
VM node, and bytes served from a client's own caches at memory speed.
"""

from __future__ import annotations

import types
from collections.abc import Coroutine, Generator

from ..aio import JobBatch
from ..errors import VersionNotPublishedError
from ..version.records import CompletionNotice, RegisterRequest
from .engine import Event, Process
from .network import SimNode


@types.coroutine
def drive(activity: Generator[Event, object, object]):
    """Await a generator of simulator events (a ``Network`` exchange): its
    events pass through to the driving process."""
    return (yield from activity)


#: ``vm_call`` op -> :class:`CompletionNotice` kind.
_NOTICE_KINDS = {"complete_update": "complete", "abort_update": "abort"}

#: The read-only ``vm_call`` ops: lookups a version lease could not serve.
_LOOKUPS = frozenset({"get_record", "check_read", "recent_lease", "get_recent"})


class SimRuntime:
    """Virtual-time runtime of ONE simulated client machine, ``node``.

    ``deployment`` supplies the simulator, the network model, the node
    layout and the version-manager offices.  ``pipelined`` is True: like
    the event loop, virtual time lets the engine overlap its metadata
    publish with the page stores.
    """

    pipelined = True

    def __init__(self, deployment, node: SimNode):
        self._dep = deployment
        self._node = node

    # -- batched component I/O -------------------------------------------------
    async def run_batches(self, jobs: JobBatch) -> list:
        dep, sim = self._dep, self._dep.simulator
        if jobs.leg == "page_store":
            # The allocation request of Algorithm 2, line 2.
            service_time = dep.sim_config.version_manager_service_time
            await drive(dep.network.small_rpc(self._node, dep.pmgr_node, service_time))
        transfers = [
            sim.process(self._exchange(jobs.leg, endpoint_id, batch))
            for endpoint_id, batch in jobs.groups
        ]
        await sim.all_of([transfer.event for transfer in transfers])
        return [await job() for job in jobs]

    def _exchange(self, leg: str, endpoint_id: str, batch: list):
        """The timed network exchange of one ``(endpoint_id, batch)`` group."""
        dep, cfg, net = self._dep, self._dep.sim_config, self._dep.network
        count = len(batch)
        if leg == "meta_get":  # batch: the node keys asked of one bucket
            return net.fetch(
                self._node,
                dep.node_for_bucket(endpoint_id),
                cfg.metadata_node_size * count,
                service_time=cfg.metadata_service_time * count,
            )
        if leg == "meta_put":  # batch: the item indices put on one bucket
            return net.small_rpc(
                self._node,
                dep.node_for_bucket(endpoint_id),
                cfg.metadata_service_time * count,
                payload_bytes=cfg.metadata_node_size * count,
            )
        # page_store batch: (item_index, page_id, payload) per page;
        # page_fetch batch: [page_id, offset, length, ...] per requested range.
        if leg == "page_store":
            move, nbytes = net.multi_push, sum(len(item[2]) for item in batch)
        else:
            move, nbytes = net.multi_fetch, sum(item[2] for item in batch)
        return move(
            self._node,
            dep.node_for_provider(endpoint_id),
            nbytes,
            count=count,
            item_service_time=cfg.page_service_time,
        )

    async def retry_call(self, retry, attempt, on_failure=None):
        return await retry.arun(attempt, on_failure=on_failure, sleep=self.sleep)

    # -- version-manager calls ------------------------------------------------------
    async def vm_call(self, vm, op: str, *args, **kwargs):
        """A read-only lookup is one ``small_rpc`` to the VM node, then the
        call.  Update calls do not reach ``vm`` directly: the deployment's
        two offices front the same version manager, so concurrent clients
        group-commit."""
        dep = self._dep
        if op in _LOOKUPS:
            service_time = dep.sim_config.version_manager_service_time
            await drive(dep.network.small_rpc(self._node, dep.vm_node, service_time))
            return getattr(vm, op)(*args, **kwargs)
        latency = dep.sim_config.latency
        if op == "register_update":
            await drive(dep.network.small_request(self._node, dep.vm_node))
            ticket = await dep.ticket_office.submit(RegisterRequest(*args, **kwargs))
            await self.sleep(latency)  # the ticket's response leg
            return ticket
        # ``complete_update`` / ``abort_update``, called with ``blob_id,
        # version[, reason]`` — one-way and pipelined: the writer pays only
        # its send framing; the notice travels behind its back into the
        # publish office.
        blob_id, version, *reason = args
        await drive(dep.network.send_frame(self._node))
        dep.publish_office.post_delayed(
            CompletionNotice(blob_id, version, _NOTICE_KINDS[op], *reason), latency
        )

    async def local_copy(self, nbytes: int) -> None:
        """Bytes served from this machine's caches cross its memory bus."""
        await self.sleep(nbytes / self._dep.sim_config.memory_bandwidth)

    # -- structured concurrency ----------------------------------------------------
    def start(self, coro: Coroutine) -> Process:
        return self._dep.simulator.process(coro)

    async def gather(self, *coros: Coroutine):
        sim = self._dep.simulator
        return await sim.all_of([sim.process(coro).event for coro in coros])

    async def sleep(self, seconds: float) -> None:
        await self._dep.simulator.timeout(seconds)

    async def vm_sync(self, vm, blob_id: str, version: int, timeout=None) -> None:
        """SYNC on virtual time: the version manager's wake reaches this
        client one network ``latency`` after the version settles."""
        sim, latency = self._dep.simulator, self._dep.sim_config.latency
        settled = sim.event()

        def resolve(_value=None) -> None:
            if not settled.triggered:
                settled.succeed()

        withdraw = vm.on_settled(
            blob_id, version, lambda: sim.timeout(latency).add_callback(resolve)
        )
        if withdraw is None:
            return
        if timeout is not None:
            sim.timeout(timeout).add_callback(resolve)
        try:
            await settled
        finally:
            withdraw()
        if not vm.poll_sync(blob_id, version):
            raise VersionNotPublishedError(blob_id, version)
