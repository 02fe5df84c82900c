"""Cache-aware replica routing: rank a replica set before fetching.

Replicated reads used to start at replica 0 unconditionally, which hammers
primaries under cold concurrent load and walks straight into suspected
providers on failover.  :func:`rank_replicas` is the single ranking policy
shared by the metadata DHT (:meth:`repro.dht.DHT.multi_get`), the data-path
batched fetch (:meth:`repro.providers.ProviderManager.multi_fetch_into_async`),
and the simulator's client (which supplies the locality preference: the
replica co-located with the reading machine).  DESIGN.md §9 documents the
score.

The ranking is a *stable partition*, not a shuffle: preferred replicas
first, suspects last, and the original replica order breaks ties in both
groups.  With no preference and no suspects the input order is returned
unchanged, so an unreplicated (or signal-free) deployment behaves
bit-identically to the pre-routing system.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence

__all__ = ["rank_replicas"]


def rank_replicas(
    replicas: Sequence,
    prefer: Callable[[object], bool] | None = None,
    suspects: Collection | None = None,
) -> tuple:
    """Return *replicas* reordered by the routing score, as a tuple.

    ``prefer(replica)`` returning True marks a replica *local* (ranked
    first); membership in ``suspects`` marks it suspect (ranked last).  A
    replica that is both local and suspect ranks with the suspects — a
    flapping node is a bad first choice even when co-located.  Sorting is
    stable, so equal-scoring replicas keep their original relative order.
    """
    if not suspects and prefer is None:
        return tuple(replicas)
    suspect_set = suspects if suspects else ()

    def score(replica) -> int:
        if replica in suspect_set:
            return 1
        if prefer is not None and prefer(replica):
            return -1
        return 0

    return tuple(sorted(replicas, key=score))
