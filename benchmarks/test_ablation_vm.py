"""ABL-vm benchmark: the version manager under reads and concurrent writers.

The paper serializes writers only at the version manager (Section 4.3).
Reads should not pay for it once warm: the client lease cache serves blob
records, published sizes and GET_RECENT.  Writers pay it once per round,
and a round that takes service time (the simulated VM node) applies every
request that arrived meanwhile as one batch — with every append still
published in order.
"""

from repro.bench.ablations import run_ablation_vm


def _rows(result):
    return {row["regime"]: row for row in result.rows}


def test_leased_warm_reads_skip_the_version_manager(benchmark, bench_scale):
    rows = _rows(benchmark(run_ablation_vm, bench_scale))
    leased, unleased = rows["leased"], rows["unleased"]
    assert leased["warm_vm_trips"] == 0
    # Unleased reads pay the record lookup and the publication check.
    assert unleased["cold_vm_trips"] == unleased["warm_vm_trips"]
    assert unleased["warm_vm_trips"] == 2 * unleased["reads_per_pass"]
    assert leased["cold_vm_trips"] < unleased["cold_vm_trips"]


def test_simulated_vm_node_batches_and_publishes_every_append(
    benchmark, bench_scale
):
    burst = _rows(benchmark(run_ablation_vm, bench_scale))["sim_burst"]
    appends = burst["register_requests"]
    assert appends == burst["publish_requests"]
    assert burst["register_batches"] < burst["register_requests"]
    assert burst["publish_batches"] <= burst["publish_requests"]
    assert burst["register_max_batch"] > 1
    # A fresh blob: one version per append, every one published.
    assert burst["final_version"] == appends
    assert appends % burst["writers"] == 0
    assert burst["makespan_virtual_ms"] > 0
