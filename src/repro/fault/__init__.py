"""Data-path fault tolerance: retry, failure detection, background repair.

The paper defers volatility and failures to future work; this package holds
the fault-tolerance extensions the reproduction adds on the data leg
(documented in DESIGN.md), complementing the metadata leg's replicated DHT:

* :class:`RetryPolicy` — deterministic retry with exponential backoff and
  jitter, applied only to errors classified retryable
  (:func:`repro.errors.is_retryable`);
* :class:`ProviderHealth` — a consecutive-failure suspicion registry that
  steers page allocation away from providers that keep failing;
* :class:`RepairService` — a background scan that re-replicates pages that
  lost copies to provider churn, reporting a :class:`RepairReport`;
* :func:`rank_replicas` — the shared replica ranking (suspects last)
  used by the DHT and data read paths.
"""

from .health import HealthStats, ProviderHealth
from .repair import RepairReport, RepairService, RepairStats
from .retry import RetryPolicy
from .routing import rank_replicas

__all__ = [
    "HealthStats",
    "ProviderHealth",
    "RepairReport",
    "RepairService",
    "RepairStats",
    "RetryPolicy",
    "rank_replicas",
]
