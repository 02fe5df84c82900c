"""Discrete-event simulation of a Grid'5000-like testbed.

The paper's evaluation (Section 5) runs on up to 175 physical nodes with
1 Gbit/s NICs.  Python's GIL makes wall-clock concurrent-bandwidth
measurements meaningless in-process, so the performance experiments are
reproduced on a discrete-event simulator instead: per-node NIC pipes with
FIFO serialization, one-way latency, and per-request software overheads.

Crucially, the simulated clients ARE the shipped client engine, executed on
the virtual clock by :class:`~repro.sim.runtime.SimRuntime` over the *real*
provider manager, version manager, DHT and segment-tree code — so metadata
traffic, tree depth and placement are exact; only byte payloads (zeros)
and timing are virtual.
"""

from .engine import AllOf, Event, Pipe, Process, Simulator
from .network import Network, SimNode
from .deployment import SimDeployment
from .runtime import SimRuntime
from .client import AppendOutcome, ReadOutcome, SimClient
from .experiments import (
    AppendSample,
    MixedWorkloadSample,
    ReadConcurrencySample,
    run_append_growth_experiment,
    run_mixed_workload_experiment,
    run_read_concurrency_experiment,
)

__all__ = [
    "AllOf",
    "Event",
    "Pipe",
    "Process",
    "Simulator",
    "Network",
    "SimNode",
    "SimDeployment",
    "SimRuntime",
    "SimClient",
    "AppendOutcome",
    "ReadOutcome",
    "AppendSample",
    "MixedWorkloadSample",
    "ReadConcurrencySample",
    "run_append_growth_experiment",
    "run_mixed_workload_experiment",
    "run_read_concurrency_experiment",
]
