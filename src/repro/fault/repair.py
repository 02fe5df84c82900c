"""Background repair: re-replicate pages that lost copies to churn.

After a provider dies (or rejoins), pages whose replica set intersects the
casualty are *under-replicated*: still readable through the surviving
copies (degraded reads), but one failure closer to data loss.  The
:class:`RepairService` closes that gap in the background:

* **scan** — walk the segment trees of every published ``(blob, version)``
  snapshot with GC's mark (:func:`repro.tools.gc.mark`), collecting each
  unique leaf once;
* **repair** — for every leaf with fewer than ``page_replication`` live
  copies, fetch the page from a surviving replica and store it onto
  healthy providers that do not hold it yet;
* **republish** — rewrite the leaf with the extended replica set.

Leaf rewrite is the one documented exception to node immutability: a
leaf's identity (key, page id, length) never changes, only its replica
locations, and a reader holding the stale leaf still succeeds — the old
replica set is a subset of the new one, so its live entries keep serving
and its dead entries fail over.  Nothing a reader can observe changes
mid-repair.  Because the scan starts from published versions only, pages
deleted by GC are unreachable by construction and can never be
resurrected; in-flight updates are invisible to the scan for the same
reason and need no quiescence.

Replicas on *dead* providers are kept in the leaf (the provider may rejoin
with its pages intact — reads simply fail over past it); repair counts
only live copies toward the target, so a rejoining holder temporarily
yields more copies than ``page_replication``, which is harmless.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from ..errors import ProviderUnavailableError
from ..metadata.node import LeafNode, NodeKey

if TYPE_CHECKING:
    from ..core.cluster import Cluster

    from .health import ProviderHealth

logger = logging.getLogger("repro.fault.repair")


@dataclass(frozen=True)
class RepairStats:
    """Frozen lifetime counters of one :class:`RepairService`.

    Accumulated across every :meth:`RepairService.repair` pass; each
    field is the running sum of the corresponding
    :class:`RepairReport` field, plus the number of passes run.
    """

    #: Repair passes completed.
    passes: int = 0
    #: Unique pages scanned, summed over all passes.
    pages_scanned: int = 0
    #: Pages found already at target, summed over all passes.
    pages_healthy: int = 0
    #: Pages topped back up to target, summed over all passes.
    pages_re_replicated: int = 0
    #: New page copies written, summed over all passes.
    copies_created: int = 0
    #: Pages found with no live copy, summed over all passes.
    pages_unrecoverable: int = 0
    #: Pages left short of target, summed over all passes.
    pages_still_under_replicated: int = 0
    #: DHT leaves rewritten, summed over all passes.
    leaves_rewritten: int = 0


@dataclass(frozen=True)
class RepairReport:
    """What one repair pass scanned and what it fixed."""

    #: Unique pages reachable from published snapshots.
    pages_scanned: int
    #: Pages that already had ``page_replication`` live copies.
    pages_healthy: int
    #: Pages topped back up to the replication target this pass.
    pages_re_replicated: int
    #: New page copies written (>= ``pages_re_replicated``).
    copies_created: int
    #: Pages with NO live copy: nothing to repair from.  They become
    #: readable again only if a dead holder rejoins.
    pages_unrecoverable: int
    #: Pages left short of the target because the cluster has too few
    #: live providers outside the existing replica set.
    pages_still_under_replicated: int
    #: Leaves rewritten in the DHT with an extended replica set.
    leaves_rewritten: int

    @property
    def backlog(self) -> int:
        """Pages that still need repair attention after this pass."""
        return self.pages_unrecoverable + self.pages_still_under_replicated


class RepairService:
    """Scans published snapshots and restores page replication.

    Parameters
    ----------
    cluster:
        The deployment to repair.
    health:
        Optional :class:`~repro.fault.ProviderHealth` used to steer new
        copies away from suspect providers; defaults to the cluster's
        registry.
    """

    def __init__(self, cluster: "Cluster", health: "ProviderHealth | None" = None):
        self._cluster = cluster
        self._health = (
            health
            if health is not None
            else getattr(cluster, "provider_health", None)
        )
        self._stats = RepairStats()
        # A traced cluster surfaces this service's lifetime counters in
        # the process-wide metrics registry (DESIGN.md §11).
        metrics = getattr(cluster, "metrics", None)
        if metrics is not None:
            metrics.register_source(
                "repro.repair",
                self,
                lambda service: service.stats(),
                {"cluster": cluster.cache_namespace},
            )

    def stats(self) -> RepairStats:
        """Frozen lifetime counters accumulated over every repair pass."""
        return self._stats

    def repair(self, target: int | None = None) -> RepairReport:
        """Run one scan-and-repair pass; return what it did.

        ``target`` overrides the replication target (defaults to the
        cluster's ``page_replication``).  The pass is idempotent: a healthy
        cluster reports everything healthy and rewrites nothing.
        """
        cluster = self._cluster
        if target is None:
            target = cluster.config.page_replication
        leaves = self._scan()
        logger.debug(
            "repair pass: %d unique leaves reachable, target=%d",
            len(leaves),
            target,
        )

        pm = cluster.provider_manager
        meta = cluster.metadata_provider
        healthy = re_replicated = unrecoverable = 0
        still_under = copies_created = leaves_rewritten = 0

        for key, leaf in leaves:
            live_holders = self._live_holders(leaf)
            if not live_holders:
                unrecoverable += 1
                continue
            needed = target - len(live_holders)
            if needed <= 0:
                healthy += 1
                continue
            recruits = self._recruits(leaf, needed)
            if not recruits:
                still_under += 1
                continue
            payload = pm.provider(live_holders[0]).fetch_page(leaf.page_id)
            stored: list[str] = []
            for provider_id in recruits:
                try:
                    pm.provider(provider_id).store_page(leaf.page_id, payload)
                except ProviderUnavailableError:
                    # Died between selection and store: count the failure
                    # and carry on with the other recruits.
                    if self._health is not None:
                        self._health.record_failure(provider_id)
                    continue
                stored.append(provider_id)
            if not stored:
                still_under += 1
                continue
            new_leaf = LeafNode(
                page_id=leaf.page_id,
                provider_id=leaf.provider_ids[0],
                length=leaf.length,
                provider_ids=leaf.provider_ids + tuple(stored),
            )
            meta.put_node(key, new_leaf)
            # Readers caching the stale leaf stay correct (see module
            # docstring); dropping it just routes them to the new copies.
            cluster.discard_cached_node(key)
            logger.debug(
                "re-replicated page %s onto %s (now %d live copies)",
                leaf.page_id,
                stored,
                len(live_holders) + len(stored),
            )
            copies_created += len(stored)
            leaves_rewritten += 1
            if len(stored) >= needed:
                re_replicated += 1
            else:
                still_under += 1

        report = RepairReport(
            pages_scanned=len(leaves),
            pages_healthy=healthy,
            pages_re_replicated=re_replicated,
            copies_created=copies_created,
            pages_unrecoverable=unrecoverable,
            pages_still_under_replicated=still_under,
            leaves_rewritten=leaves_rewritten,
        )
        previous = self._stats
        self._stats = RepairStats(
            passes=previous.passes + 1,
            **{
                counter.name: getattr(previous, counter.name)
                + getattr(report, counter.name)
                for counter in fields(RepairReport)
            },
        )
        logger.debug(
            "repair pass done: %d healthy, %d re-replicated, %d copies "
            "created, backlog %d",
            healthy,
            re_replicated,
            copies_created,
            report.backlog,
        )
        return report

    def under_replicated(self, target: int | None = None) -> int:
        """Count pages short of the replication target (read-only scan).

        The churn ablation polls this as the "repair backlog"; it is the
        number of pages a :meth:`repair` pass would try to fix.
        """
        if target is None:
            target = self._cluster.config.page_replication
        return sum(
            1
            for _key, leaf in self._scan()
            if len(self._live_holders(leaf)) < target
        )

    # -- scan ----------------------------------------------------------------
    def _scan(self) -> list[tuple[NodeKey, LeafNode]]:
        """Every unique leaf reachable from a published snapshot: GC's mark,
        skipping the nodes GC collected (a version stays published in the VM
        after its tree is gone).  A dead metadata bucket still aborts the
        scan: the subtree may exist."""
        from ..tools.gc import mark  # lazy: repro.core.cluster imports us

        vm = self._cluster.version_manager
        published = {
            blob_id: [
                version
                for version in range(1, vm.get_recent(blob_id) + 1)
                if vm.is_published(blob_id, version)  # aborted: pages are garbage
            ]
            for blob_id in vm.blob_ids()
        }
        return mark(self._cluster, published, set(), missing_ok=True)

    # -- per-leaf helpers ----------------------------------------------------
    def _live_holders(self, leaf: LeafNode) -> list[str]:
        """Replicas that are alive AND still hold the page."""
        pm = self._cluster.provider_manager
        holders: list[str] = []
        for provider_id in leaf.provider_ids:
            try:
                provider = pm.provider(provider_id)
            except KeyError:
                continue  # deregistered and forgotten
            if provider.alive and provider.has_page(leaf.page_id):
                holders.append(provider_id)
        return holders

    def _recruits(self, leaf: LeafNode, needed: int) -> list[str]:
        """Pick up to *needed* live providers outside the replica set,
        least-loaded first, steering around health suspects."""
        pm = self._cluster.provider_manager
        current = set(leaf.provider_ids)
        allocatable = set(pm.allocatable_ids())
        candidates = [
            provider.provider_id
            for provider in pm.providers()
            if provider.alive
            and provider.provider_id not in current
            and provider.provider_id in allocatable
        ]
        if self._health is not None:
            candidates = self._health.prefer_healthy(candidates)
        candidates.sort(
            key=lambda pid: (pm.provider(pid).bytes_used(), pid)
        )
        return candidates[:needed]
