"""Replica routing: rank a replica set before fetching.

Replicated reads used to start at replica 0 unconditionally, which walks
straight into suspected providers on failover.  :func:`rank_replicas` is
the single ranking policy shared by the metadata DHT
(:meth:`repro.dht.DHT.multi_get`) and the data-path batched fetch
(:meth:`repro.providers.ProviderManager.multi_fetch_into_async`); both rank
by suspicion only.  (The simulator's read model prefers the replica on the
reading machine with its own code in :mod:`repro.sim.client`.)  DESIGN.md
§9 documents the policy.

The ranking is a *stable partition*, not a shuffle: suspects last, and the
original replica order breaks ties in both groups.  With no suspects the
input order is returned unchanged, so an unreplicated (or signal-free)
deployment behaves bit-identically to the pre-routing system.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

__all__ = ["rank_replicas"]


def rank_replicas(replicas: Sequence, suspects: Collection | None = None) -> tuple:
    """Return *replicas* with the members of ``suspects`` moved last, as a
    tuple.  Sorting is stable, so replicas in the same group keep their
    original relative order.
    """
    if not suspects:
        return tuple(replicas)
    return tuple(sorted(replicas, key=lambda replica: replica in suspects))
