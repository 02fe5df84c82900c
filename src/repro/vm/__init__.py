"""Client version leases.

The version manager is the only mandatory serialization point of the design
(paper, Section 4.3).  Clients call it directly
(:class:`~repro.version.version_manager.VersionManager` is
``Cluster.version_manager``, and it counts its own traffic in
:class:`~repro.version.version_manager.VMStats`); this package keeps the
read side off it:

* :mod:`repro.vm.lease` — :class:`LeaseCache` / :class:`VersionLease`,
  client-side caching of GET_RECENT (publish-invalidated, TTL-bounded) and
  of immutable facts (blob records, published snapshot sizes), so warm
  repeated reads issue zero version-manager round trips.

The write side has no client-side queue.  In-process every
``multi_register`` / ``multi_complete`` batch holds one request; only the
simulated VM node (:class:`~repro.sim.deployment.SimVersionOffice`), whose
every round costs service time, queues the requests that arrive during a
round and applies them as one batch.
"""

from .lease import LeaseCache, LeaseStats, VersionLease

__all__ = ["LeaseCache", "LeaseStats", "VersionLease"]
