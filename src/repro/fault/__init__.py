"""Data-path fault tolerance: failure detection and background repair.

The paper defers volatility and failures to future work; this package holds
the fault-tolerance extensions the reproduction adds on the data leg
(documented in DESIGN.md), complementing the metadata leg's replicated DHT.
Failover is the only failure path: a failed batch's requests move to their
next replica at once, and nothing sleeps and retries in place.

* :class:`ProviderHealth` — a consecutive-failure suspicion registry that
  steers page allocation away from providers that keep failing and ranks
  them last among a page's replicas;
* :class:`RepairService` — a background scan that re-replicates pages that
  lost copies to provider churn, reporting a :class:`RepairReport`;
* :func:`rank_replicas` — the shared replica ranking (suspects last)
  used by the DHT and data read paths.
"""

from .health import HealthStats, ProviderHealth
from .repair import RepairReport, RepairService, RepairStats
from .routing import rank_replicas

__all__ = [
    "HealthStats",
    "ProviderHealth",
    "RepairReport",
    "RepairService",
    "RepairStats",
    "rank_replicas",
]
