"""The version manager: total ordering, publication and atomicity.

Responsibilities (Sections 3.1, 4.2 and 4.3 of the paper):

* assign strictly increasing snapshot versions to WRITE/APPEND requests
  (serialized — the only mandatory synchronization point of the system);
* for APPEND, provide the offset, i.e. the size of the previous snapshot;
* track in-flight updates (assigned but unpublished) and hand their ranges to
  later writers so border nodes can be computed without waiting;
* publish completed updates strictly in version order, which makes every
  update appear atomic: a snapshot becomes visible only when it and every
  earlier snapshot are complete;
* implement SYNC ("read your writes"), GET_RECENT, GET_SIZE and BRANCH.

Extension beyond the paper: an update can be aborted explicitly, and with
``BlobSeerConfig.update_timeout`` set (it is ``None`` by default) an update
in flight longer than that is reaped.  The reap is not a timer: it runs only
inside the blob's next registration, so a blob whose stuck writer has no
later writer stays wedged.

Clients call this object directly (it is ``Cluster.version_manager``).
:meth:`multi_register` and :meth:`multi_complete` apply a whole batch of
registrations or completion/abort notices with ONE lock acquisition per
blob touched; the per-call methods are one-request batches.  In-process
every batch holds one request; the simulator's VM node
(:class:`~repro.sim.deployment.SimVersionOffice`) queues the requests that
arrive while it serves a batch and hands them over as the next one.  The VM
counts its own traffic in :class:`VMStats`.

After the blob lock is released, publication events go to subscribers
(client lease caches), so leased ``GET_RECENT`` answers are renewed the
moment a snapshot becomes visible, and then the SYNC waiters of every
version published or aborted are woken (:meth:`on_settled`): every
runtime's SYNC waits for that wake, and nothing polls.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..config import BlobSeerConfig
from ..errors import (
    BlobSeerError,
    ConcurrencyError,
    InvalidRangeError,
    UnknownBlobError,
    UpdateAbortedError,
    VersionNotPublishedError,
)
from ..util.ids import IdGenerator
from ..util.ranges import covering_page_range
from .records import (
    BlobRecord,
    CompletionNotice,
    InFlightUpdate,
    RecencyLease,
    RegisterRequest,
    UpdateTicket,
)

#: Listener signature for publish notifications: called with the blob's
#: fresh :class:`RecencyLease` after every publication advance, outside of
#: any version-manager lock.
PublishListener = Callable[[RecencyLease], None]

#: A SYNC waiter's wake-up (see :meth:`VersionManager.on_settled`).
Wake = Callable[[], None]


@dataclass(frozen=True)
class VMStats:
    """Lifetime counters of one :class:`VersionManager`'s traffic.

    ``register_requests`` vs ``register_batches`` (and the ``publish_*``
    pair) show how many requests each serialized VM round served: one per
    round in-process, more on the simulated VM node, which batches.  The
    query counters cover the read-side calls the client leases exist to
    avoid.
    """

    #: Ticket registrations requested by clients.
    register_requests: int = 0
    #: ``multi_register`` batches applied.
    register_batches: int = 0
    #: Largest registration batch applied so far.
    register_max_batch: int = 0
    #: Completion/abort notices requested by clients.
    publish_requests: int = 0
    #: ``multi_complete`` batches applied.
    publish_batches: int = 0
    #: Largest completion batch applied so far.
    publish_max_batch: int = 0
    #: GET_RECENT queries answered (``get_recent`` and ``recent_lease``).
    recent_calls: int = 0
    #: Combined IS_PUBLISHED+GET_SIZE read preconditions answered.
    check_read_calls: int = 0
    #: GET_SIZE queries answered.
    size_calls: int = 0
    #: Blob-record fetches answered.
    record_calls: int = 0
    #: SYNC waits registered (one per SYNC, on every runtime).
    sync_calls: int = 0

    @property
    def lock_rounds_saved(self) -> int:
        """Serialized VM rounds that batching removed."""
        return (self.register_requests - self.register_batches) + (
            self.publish_requests - self.publish_batches
        )


@dataclass
class _InFlightState:
    """Version-manager-side state of one assigned, unpublished update."""

    version: int
    page_offset: int
    page_count: int
    registered_at: float
    completed: bool = False
    aborted: bool = False


@dataclass
class _BlobState:
    """Mutable per-blob state guarded by the blob's lock."""

    record: BlobRecord
    #: Looked up per blob, so an installed lock sanitizer wraps it.
    lock: threading.Lock = field(default_factory=lambda: threading.Lock())
    next_version: int = 1
    published: int = 0
    sizes: dict[int, int] = field(default_factory=lambda: {0: 0})
    inflight: dict[int, _InFlightState] = field(default_factory=dict)
    aborted: set[int] = field(default_factory=set)
    #: Version -> the wakes of the SYNCs waiting for it to settle.
    waiters: dict[int, list[Wake]] = field(default_factory=dict)
    #: Wakes of versions settled under the lock, to call once it is released.
    woken: list[Wake] = field(default_factory=list)


class VersionManager:
    """Centralized version manager (the paper's current implementation)."""

    def __init__(
        self,
        config: BlobSeerConfig | None = None,
        id_generator: IdGenerator | None = None,
    ):
        self._config = config if config is not None else BlobSeerConfig()
        self._ids = id_generator if id_generator is not None else IdGenerator("bs")
        self._blobs: dict[str, _BlobState] = {}
        self._lock = threading.Lock()
        self._publish_listeners: list[PublishListener] = []
        self._stats_lock = threading.Lock()
        self._stats: dict[str, int] = dict.fromkeys(VMStats.__dataclass_fields__, 0)

    # ------------------------------------------------------------------ stats
    def _count(self, name: str) -> None:
        with self._stats_lock:
            self._stats[name] += 1

    def _count_batch(self, kind: str, size: int) -> None:
        """One applied ``multi_register`` (``kind`` "register") or
        ``multi_complete`` ("publish") batch of ``size`` requests."""
        stats = self._stats
        with self._stats_lock:
            stats[f"{kind}_requests"] += size
            stats[f"{kind}_batches"] += 1
            if size > stats[f"{kind}_max_batch"]:
                stats[f"{kind}_max_batch"] = size

    def vm_stats(self) -> VMStats:
        """A snapshot of the lifetime :class:`VMStats` counters."""
        with self._stats_lock:
            return VMStats(**self._stats)

    # ---------------------------------------------------------- notifications
    def subscribe_publications(self, listener: PublishListener) -> None:
        """Register a callback invoked with a fresh :class:`RecencyLease`
        every time a blob's publication watermark advances.

        Listeners run *outside* the blob lock (no lock-order hazards)
        on whichever thread triggered the advance.  Client lease caches use
        this to invalidate/renew their ``GET_RECENT`` leases the moment a
        snapshot becomes visible — the push half of the lease protocol.
        """
        with self._lock:
            self._publish_listeners.append(listener)

    def unsubscribe_publications(self, listener: PublishListener) -> None:
        """Remove a previously subscribed publish listener (idempotent)."""
        with self._lock:
            try:
                self._publish_listeners.remove(listener)
            except ValueError:
                pass

    def _notify(self, leases: list[RecencyLease], wakes: list[Wake]) -> None:
        """Publications first, so a woken SYNC finds the leases renewed."""
        if leases:
            with self._lock:
                listeners = list(self._publish_listeners)
            for lease in leases:
                for listener in listeners:
                    listener(lease)
        for wake in wakes:
            wake()

    # ------------------------------------------------------------------ blobs
    def create_blob(self, page_size: int | None = None) -> BlobRecord:
        """CREATE: register a new blob with an empty, published snapshot 0."""
        record = BlobRecord(
            blob_id=self._ids.next_blob_id(),
            page_size=page_size if page_size is not None else self._config.page_size,
        )
        state = _BlobState(record=record)
        with self._lock:
            self._blobs[record.blob_id] = state
        return record

    def branch(self, blob_id: str, version: int) -> BlobRecord:
        """BRANCH: virtually duplicate ``blob_id`` up to (and including)
        ``version``.

        The new blob shares all metadata and pages of versions ``<= version``
        with the original; its first update will generate ``version + 1``.
        Fails if ``version`` has not been published.
        """
        parent = self._state(blob_id)
        with parent.lock:
            if not self._is_published_locked(parent, version):
                raise VersionNotPublishedError(blob_id, version)
            base_sizes = {
                v: s for v, s in parent.sizes.items() if v <= version
            }
            base_aborted = {v for v in parent.aborted if v <= version}
        record = BlobRecord(
            blob_id=self._ids.next_blob_id(),
            page_size=parent.record.page_size,
            lineage=((blob_id, version),) + parent.record.lineage,
        )
        state = _BlobState(
            record=record,
            next_version=version + 1,
            published=version,
            sizes=base_sizes,
            aborted=base_aborted,
        )
        with self._lock:
            self._blobs[record.blob_id] = state
        return record

    def get_record(self, blob_id: str) -> BlobRecord:
        self._count("record_calls")
        return self._state(blob_id).record

    def blob_ids(self) -> list[str]:
        with self._lock:
            return list(self._blobs)

    def _state(self, blob_id: str) -> _BlobState:
        with self._lock:
            state = self._blobs.get(blob_id)
        if state is None:
            raise UnknownBlobError(blob_id)
        return state

    # -------------------------------------------------------------- assignment
    def register_update(
        self,
        blob_id: str,
        size: int,
        offset: int | None = None,
        is_append: bool = False,
    ) -> UpdateTicket:
        """Assign the next snapshot version to a WRITE or APPEND.

        For WRITE, ``offset`` is mandatory and must not exceed the size of the
        previous snapshot.  For APPEND the offset is chosen by the version
        manager (the previous snapshot's size).  Returns an
        :class:`UpdateTicket` carrying everything the writer needs to build
        its metadata without waiting on concurrent writers.
        """
        request = RegisterRequest(
            blob_id=blob_id, size=size, offset=offset, is_append=is_append
        )
        result = self.multi_register([request])[0]
        if isinstance(result, BaseException):
            raise result
        return result

    def multi_register(
        self, requests: Sequence[RegisterRequest]
    ) -> list[UpdateTicket | BaseException]:
        """Apply a batch of registrations with ONE lock acquisition per
        blob touched — the server side of group-commit ticketing.

        Requests are processed in list order, so tickets of one blob are
        assigned in submission order (per-blob ticket order is preserved).
        Each request succeeds or fails independently: the result list is
        aligned with ``requests`` and holds an :class:`UpdateTicket` or the
        exception that single registration raised — one bad offset cannot
        poison the rest of the batch.
        """
        if requests:
            self._count_batch("register", len(requests))
        results: list[UpdateTicket | BaseException] = [None] * len(requests)
        by_blob: dict[str, list[int]] = {}
        for index, request in enumerate(requests):
            by_blob.setdefault(request.blob_id, []).append(index)
        published: list[RecencyLease] = []
        wakes: list[Wake] = []
        for blob_id, indices in by_blob.items():
            try:
                state = self._state(blob_id)
            except UnknownBlobError as error:
                for index in indices:
                    results[index] = error
                continue
            with state.lock:
                advanced = self._reap_expired_locked(state)
                for index in indices:
                    try:
                        results[index] = self._register_locked(
                            state, requests[index]
                        )
                    except BlobSeerError as error:
                        results[index] = error
                if advanced:
                    published.append(self._lease_locked(state))
                wakes += state.woken
                state.woken = []
        self._notify(published, wakes)
        return results

    def _register_locked(
        self, state: _BlobState, request: RegisterRequest
    ) -> UpdateTicket:
        """Assign one version under the blob's (already held) lock."""
        blob_id = request.blob_id
        size = request.size
        if size <= 0:
            raise InvalidRangeError("updates must write at least one byte")
        page_size = state.record.page_size
        prev_version = state.next_version - 1
        prev_size = state.sizes[prev_version]
        if request.is_append:
            byte_offset = prev_size
        else:
            if request.offset is None:
                raise InvalidRangeError("WRITE requires an explicit offset")
            if request.offset > prev_size:
                raise InvalidRangeError(
                    f"write offset {request.offset} is beyond the size "
                    f"{prev_size} of snapshot {prev_version}"
                )
            byte_offset = request.offset

        version = state.next_version
        state.next_version += 1
        new_size = max(prev_size, byte_offset + size)
        state.sizes[version] = new_size

        published_version = self._recent_locked(state)
        published_size = state.sizes[published_version]

        inflight = tuple(
            InFlightUpdate(entry.version, entry.page_offset, entry.page_count)
            for entry in sorted(state.inflight.values(), key=lambda e: e.version)
            if not entry.aborted and entry.version < version
        )

        page_offset, page_count = covering_page_range(byte_offset, size, page_size)
        state.inflight[version] = _InFlightState(
            version=version,
            page_offset=page_offset,
            page_count=page_count,
            registered_at=time.monotonic(),
        )

        return UpdateTicket(
            blob_id=blob_id,
            version=version,
            byte_offset=byte_offset,
            byte_size=size,
            prev_size=prev_size,
            new_size=new_size,
            page_size=page_size,
            published_version=published_version,
            published_size=published_size,
            inflight=inflight,
        )

    # -------------------------------------------------------------- completion
    def complete_update(self, blob_id: str, version: int) -> None:
        """Writer notification of success (Algorithm 2, line 12).

        Marks the update complete and publishes it — together with any
        later completed updates — as soon as every earlier version is
        published, preserving total order.
        """
        notice = CompletionNotice(blob_id=blob_id, version=version)
        result = self.multi_complete([notice])[0]
        if isinstance(result, BaseException):
            raise result

    def abort_update(self, blob_id: str, version: int, reason: str = "") -> None:
        """Abort an in-flight update so publication of later versions proceeds.

        The aborted version becomes a hole: GET_RECENT skips it, READ and
        GET_SIZE on it fail.  Aborting is an extension over the paper (which
        assumes writers never fail); see DESIGN.md for its limitations under
        concurrency.
        """
        notice = CompletionNotice(
            blob_id=blob_id, version=version, kind="abort", reason=reason
        )
        result = self.multi_complete([notice])[0]
        if isinstance(result, BaseException):
            raise result

    def multi_complete(
        self, notices: Sequence[CompletionNotice]
    ) -> list[None | BaseException]:
        """Apply a batch of completion/abort notices with ONE lock
        acquisition — and one publication advance — per blob touched.

        Notices are applied strictly in list order (so an abort filed
        mid-batch lands between the completions around it, exactly like
        three sequential RPCs), each succeeding or failing independently;
        publication advances once per blob after its notices are applied,
        which is what makes N queued completions cost O(batches) instead of
        O(N) lock rounds.
        """
        if notices:
            self._count_batch("publish", len(notices))
        results: list[None | BaseException] = [None] * len(notices)
        by_blob: dict[str, list[int]] = {}
        for index, notice in enumerate(notices):
            by_blob.setdefault(notice.blob_id, []).append(index)
        published: list[RecencyLease] = []
        wakes: list[Wake] = []
        for blob_id, indices in by_blob.items():
            try:
                state = self._state(blob_id)
            except UnknownBlobError as error:
                for index in indices:
                    results[index] = error
                continue
            with state.lock:
                for index in indices:
                    try:
                        self._apply_notice_locked(state, notices[index])
                    except BlobSeerError as error:
                        results[index] = error
                if self._advance_publication_locked(state):
                    published.append(self._lease_locked(state))
                wakes += state.woken
                state.woken = []
        self._notify(published, wakes)
        return results

    def _apply_notice_locked(
        self, state: _BlobState, notice: CompletionNotice
    ) -> None:
        blob_id = notice.blob_id
        version = notice.version
        entry = state.inflight.get(version)
        if notice.kind == "abort":
            if entry is None:
                raise ConcurrencyError(
                    f"version {version} of blob {blob_id!r} is not in flight"
                )
            self._abort_locked(state, entry)
            return
        if version in state.aborted:
            raise UpdateAbortedError(blob_id, version, "aborted before completion")
        if entry is None:
            raise ConcurrencyError(
                f"version {version} of blob {blob_id!r} was never assigned "
                "or is already published"
            )
        entry.completed = True

    def _abort_locked(self, state: _BlobState, entry: _InFlightState) -> None:
        """Mark an in-flight entry aborted and take its SYNC waiters —
        whether or not it is the next version to publish.

        When no later version has been assigned yet, the aborted snapshot's
        size falls back to its predecessor's so that a subsequent APPEND does
        not leave a hole.  When later versions were already assigned their
        offsets depend on the aborted update, so sizes are left untouched
        (see DESIGN.md for the documented limitation).
        """
        entry.aborted = True
        state.aborted.add(entry.version)
        state.woken += state.waiters.pop(entry.version, ())
        if entry.version == state.next_version - 1:
            state.sizes[entry.version] = state.sizes[entry.version - 1]

    def _advance_publication_locked(self, state: _BlobState) -> bool:
        """Publish every contiguously completed/aborted version, taking its
        SYNC waiters; return True when the watermark moved (the caller
        notifies lease subscribers and wakes waiters after the lock)."""
        advanced = False
        while True:
            candidate = state.published + 1
            entry = state.inflight.get(candidate)
            if entry is None or not (entry.completed or entry.aborted):
                break
            state.published = candidate
            del state.inflight[candidate]
            state.woken += state.waiters.pop(candidate, ())
            advanced = True
        return advanced

    def _reap_expired_locked(self, state: _BlobState) -> bool:
        timeout = self._config.update_timeout
        if timeout is None:
            return False
        now = time.monotonic()
        for entry in list(state.inflight.values()):
            if entry.completed or entry.aborted:
                continue
            if now - entry.registered_at > timeout:
                self._abort_locked(state, entry)
        return self._advance_publication_locked(state)

    # ---------------------------------------------------------------- queries
    def _recent_locked(self, state: _BlobState) -> int:
        version = state.published
        while version > 0 and version in state.aborted:
            version -= 1
        return version

    def _lease_locked(self, state: _BlobState) -> RecencyLease:
        recent = self._recent_locked(state)
        return RecencyLease(
            blob_id=state.record.blob_id,
            version=recent,
            size=state.sizes[recent],
            epoch=state.published,
        )

    def _is_published_locked(self, state: _BlobState, version: int) -> bool:
        return 0 <= version <= state.published and version not in state.aborted

    def get_recent(self, blob_id: str) -> int:
        """GET_RECENT: a recently published version of the blob.

        Guaranteed to be at least as large as any version published before
        the call (the paper's monotonicity guarantee).
        """
        self._count("recent_calls")
        state = self._state(blob_id)
        with state.lock:
            return self._recent_locked(state)

    def is_published(self, blob_id: str, version: int) -> bool:
        state = self._state(blob_id)
        with state.lock:
            return self._is_published_locked(state, version)

    def get_size(self, blob_id: str, version: int) -> int:
        """GET_SIZE: size in bytes of a published snapshot."""
        self._count("size_calls")
        state = self._state(blob_id)
        with state.lock:
            if not self._is_published_locked(state, version):
                raise VersionNotPublishedError(blob_id, version)
            return state.sizes[version]

    def check_read(self, blob_id: str, version: int) -> int:
        """Combined READ precondition: IS_PUBLISHED + GET_SIZE in one call.

        Returns the snapshot size when ``version`` is published, raises
        :class:`VersionNotPublishedError` otherwise — one RPC where the read
        path used to spend two.  A published version's size is immutable,
        so clients may cache the answer forever (the fact half of
        :class:`repro.vm.lease.LeaseCache`).
        """
        self._count("check_read_calls")
        state = self._state(blob_id)
        with state.lock:
            if not self._is_published_locked(state, version):
                raise VersionNotPublishedError(blob_id, version)
            return state.sizes[version]

    def recent_lease(self, blob_id: str) -> RecencyLease:
        """GET_RECENT plus the size and publication epoch, for client leases.

        The epoch is the blob's published watermark: a client holding a
        lease with epoch ``e`` knows its cached answer is current as long as
        no publish notification with a larger epoch has arrived.
        """
        self._count("recent_calls")
        state = self._state(blob_id)
        with state.lock:
            return self._lease_locked(state)

    def _settled_locked(self, state: _BlobState, version: int) -> bool:
        """:meth:`poll_sync` under the (already held) blob lock."""
        blob_id = state.record.blob_id
        if version in state.aborted:
            raise UpdateAbortedError(blob_id, version)
        if version <= state.published:
            return True
        if version >= state.next_version:
            raise VersionNotPublishedError(blob_id, version)
        return False

    def on_settled(
        self, blob_id: str, version: int, wake: Wake
    ) -> Callable[[], None] | None:
        """Register a SYNC waiter: ``wake()`` is called once, outside the
        blob lock, on whichever thread publishes or aborts ``version``.

        Probes first, as :meth:`poll_sync`: raises for an aborted or
        never-assigned version and returns ``None`` for a published one.
        Otherwise returns an idempotent ``withdraw`` that a waiter which
        timed out or was cancelled calls.  Counts one ``sync_calls``.
        """
        self._count("sync_calls")
        state = self._state(blob_id)
        with state.lock:
            if self._settled_locked(state, version):
                return None
            state.waiters.setdefault(version, []).append(wake)

        def withdraw() -> None:
            with state.lock:
                waiting = state.waiters.get(version)
                if waiting is not None and wake in waiting:
                    waiting.remove(wake)
                    if not waiting:
                        del state.waiters[version]

        return withdraw

    def sync(self, blob_id: str, version: int, timeout: float | None = None) -> None:
        """SYNC: block the calling thread until ``version`` is published;
        raise :class:`UpdateAbortedError` once it is aborted, and
        :class:`VersionNotPublishedError` on timeout or if never assigned."""
        settled = threading.Event()
        withdraw = self.on_settled(blob_id, version, settled.set)
        if withdraw is None:
            return
        try:
            settled.wait(timeout)
        finally:
            withdraw()
        if not self.poll_sync(blob_id, version):
            raise VersionNotPublishedError(blob_id, version)

    def poll_sync(self, blob_id: str, version: int) -> bool:
        """Non-blocking SYNC probe: True when ``version`` is published,
        False while it is still in flight.

        Raises exactly what :meth:`sync` would raise on a settled failure —
        :class:`UpdateAbortedError` for an aborted version,
        :class:`VersionNotPublishedError` for one that was never assigned.
        """
        state = self._state(blob_id)
        with state.lock:
            return self._settled_locked(state, version)

    def inflight_count(self, blob_id: str) -> int:
        """Number of assigned-but-unpublished updates (introspection)."""
        state = self._state(blob_id)
        with state.lock:
            return len(state.inflight)
