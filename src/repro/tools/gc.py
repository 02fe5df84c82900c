"""Garbage collection of unreachable pages and metadata nodes.

BlobSeer never overwrites data, so dropping old snapshots is a *policy*
decision layered on top: once the application decides which snapshots it
still needs, every page and tree node reachable from none of them can be
reclaimed.  This module implements that mark-and-sweep:

* **mark** — walk the segment trees of every blob's kept versions at once,
  one DHT batch per tree level (:func:`mark`), collecting reachable page ids
  and metadata node keys;
* **sweep** — delete unreferenced pages from the data providers and
  unreferenced nodes from the metadata DHT.

The collector refuses to run while updates are in flight (their pages and
nodes are not yet reachable from any published version) and requires every
blob of the cluster to be listed in ``keep`` — branches share metadata and
pages with their ancestors, so collecting "just one blob" is never safe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from collections.abc import Iterable, Mapping

from ..core.async_store import walk_uncached
from ..core.cluster import Cluster
from ..errors import ConcurrencyError, ProviderUnavailableError, UnknownBlobError
from ..metadata.geometry import pages_for_size
from ..metadata.node import LeafNode, NodeKey
from ..metadata.read_plan import ReachWalker
from ..version.records import resolve_owner

logger = logging.getLogger("repro.tools.gc")


@dataclass(frozen=True)
class GarbageCollectionReport:
    """What a collection pass kept and what it reclaimed."""

    kept_versions: int
    reachable_pages: int
    reachable_nodes: int
    deleted_pages: int
    deleted_nodes: int
    reclaimed_bytes: int
    #: Providers whose sweep was skipped because they were dead (at the
    #: start of the pass or mid-sweep).  Their unreachable pages stay put;
    #: the pass is idempotent, so a later run reclaims them once the
    #: provider rejoins — one dead provider never aborts the whole sweep.
    skipped_providers: tuple[str, ...] = ()


def collect_garbage(
    cluster: Cluster,
    keep: Mapping[str, Iterable[int]],
    dry_run: bool = False,
) -> GarbageCollectionReport:
    """Reclaim everything not reachable from the kept snapshots.

    Parameters
    ----------
    cluster:
        The deployment to collect.
    keep:
        Maps every blob id of the cluster to the published versions of it
        that must remain readable.  Version 0 (the empty snapshot) needs no
        resources and may be omitted.  Unknown blob ids raise; blobs missing
        from the mapping raise too (see the module docstring).
    dry_run:
        When True, nothing is deleted; the report shows what would happen.
    """
    vm = cluster.version_manager
    known_blobs = set(vm.blob_ids())
    requested_blobs = set(keep)
    unknown = requested_blobs - known_blobs
    if unknown:
        raise UnknownBlobError(sorted(unknown)[0])
    missing = known_blobs - requested_blobs
    if missing:
        raise ConcurrencyError(
            "collect_garbage needs a keep-set entry for every blob "
            f"(missing: {sorted(missing)}); branches share storage with "
            "their ancestors"
        )
    for blob_id in known_blobs:
        if vm.inflight_count(blob_id) > 0:
            raise ConcurrencyError(
                f"blob {blob_id!r} has in-flight updates; run the collector "
                "only when the system is quiescent"
            )

    kept = {blob_id: sorted(set(versions) - {0}) for blob_id, versions in keep.items()}
    kept_versions = sum(len(versions) for versions in kept.values())
    reachable_nodes: set[str] = set()
    reachable_pages = {
        leaf.page_id for _key, leaf in mark(cluster, kept, reachable_nodes)
    }
    logger.debug(
        "gc mark done: %d kept versions, %d reachable pages, %d reachable "
        "nodes%s",
        kept_versions,
        len(reachable_pages),
        len(reachable_nodes),
        " (dry run)" if dry_run else "",
    )
    deleted_pages = 0
    reclaimed_bytes = 0
    skipped_providers: list[str] = []
    for provider in cluster.provider_manager.providers():
        # A dead provider must not abort the sweep: the pages already
        # deleted from live providers are unreachable garbage either way,
        # and re-running the pass later (the sweep is idempotent) reclaims
        # whatever the dead provider still holds once it rejoins.
        if not provider.alive:
            skipped_providers.append(provider.provider_id)
            continue
        try:
            for page_id in provider.page_ids():
                if page_id in reachable_pages:
                    continue
                size = provider.page_size_of(page_id)
                if not dry_run:
                    provider.delete_page(page_id)
                    # The page cache never invalidates on its own (stored
                    # pages are immutable); GC — the one event that removes
                    # pages — must drop every cached sub-range of each page
                    # it deletes, exactly like the node-cache twin below.
                    cluster.discard_cached_page(page_id)
                deleted_pages += 1
                reclaimed_bytes += size
        except ProviderUnavailableError:
            # Died mid-sweep: keep what this pass already reclaimed and
            # move on to the next provider.
            skipped_providers.append(provider.provider_id)
            logger.debug(
                "gc sweep: provider %s died mid-sweep, skipping",
                provider.provider_id,
            )
            continue
    logger.debug(
        "gc page sweep done: %d pages (%d bytes) reclaimed, %d providers "
        "skipped",
        deleted_pages,
        reclaimed_bytes,
        len(skipped_providers),
    )

    deleted_nodes = 0
    for bucket_id in cluster.dht.bucket_ids():
        bucket = cluster.dht.bucket(bucket_id)
        for key in bucket.keys():
            if key in reachable_nodes:
                continue
            if not dry_run:
                bucket.delete(key)
                # The client cache never invalidates on its own (published
                # nodes are immutable), so GC — the one event that removes
                # nodes — must drop them from the shared cache and every
                # per-store override cache, or reads of collected versions
                # could be wrongly served from memory.
                cluster.discard_cached_node(NodeKey.from_string(key))
            deleted_nodes += 1
    logger.debug("gc node sweep done: %d metadata nodes reclaimed", deleted_nodes)

    return GarbageCollectionReport(
        kept_versions=kept_versions,
        reachable_pages=len(reachable_pages),
        reachable_nodes=len(reachable_nodes),
        deleted_pages=deleted_pages,
        deleted_nodes=deleted_nodes,
        reclaimed_bytes=reclaimed_bytes,
        skipped_providers=tuple(skipped_providers),
    )


def mark(
    cluster: Cluster,
    versions: Mapping[str, Iterable[int]],
    seen: set[str],
    missing_ok: bool = False,
) -> list[tuple[NodeKey, LeafNode]]:
    """Every leaf, with its key, reachable from the given published versions
    of each blob but not through a node key already in ``seen``; every node
    reached joins ``seen``.  One walk per blob: the engine's descent over a
    :class:`~repro.metadata.read_plan.ReachWalker`, one DHT batch per tree
    level.  With ``missing_ok`` a collected node is skipped (repair's scan).
    """
    vm = cluster.version_manager
    leaves: list[tuple[NodeKey, LeafNode]] = []
    # ``get_size`` raises for a version that is not published.
    for blob_id, blob_versions in versions.items():
        record = vm.get_record(blob_id)
        roots = [
            (version, pages_for_size(vm.get_size(blob_id, version), record.page_size))
            for version in blob_versions
        ]
        walker = ReachWalker(partial(resolve_owner, record), roots, seen, missing_ok)
        leaves += walk_uncached(cluster, record, walker).leaves
    return leaves
