"""Smoke test of the wall-clock benchmark: every workload at ``--smoke`` size.

Checks the output schema, that exactly the names ``BENCHMARK.json`` lists are
emitted (the runner raises when it computed anything else), that nothing
failed, the predictions that are counts, and that a flipped stored byte is
caught.  No timing is asserted.
"""

import json
from pathlib import Path

import pytest

from wallbench.runner import run
from wallbench.workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_benchmark_json_names_the_workloads():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/wall"]


def line_metrics(result):
    return result.last_line()["metrics"]


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request):
    name = request.param
    return name, {
        trace: run(name, seed=7, seconds=0, trace=bool(trace), smoke=True)
        for trace in (0, 1)
    }


def test_smoke_run_schema_and_predictions(runs):
    name, by_trace = runs
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        result = by_trace[trace]
        line = json.loads(json.dumps(result.last_line()))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert isinstance(line["attempted"], int) and 1 <= line["attempted"] <= 3000
        assert {
            metric: entry["unit"] for metric, entry in line["metrics"].items()
        } == {entry["name"]: entry["unit"] for entry in declared}
        assert all(
            isinstance(entry["value"], float) for entry in line["metrics"].values()
        )
    assert all(entry["value"] > 0 for entry in line_metrics(by_trace[0]).values())
    layers = {
        metric: entry["value"] for metric, entry in line_metrics(by_trace[1]).items()
    }
    assert layers["fault.failovers_per_read"] == 0
    assert layers["fault.degraded_per_read"] == 0
    if name == "read_hot_small":
        assert layers["metadata.trips_per_read"] == 0
        assert layers["vm.trips_per_read"] == 0
        assert layers["dht.batches_per_op"] == 0
    if name == "read_cold_scan":
        assert layers["cache.page_hit_rate"] < 0.2
    if name == "append_stream":
        assert line_metrics(by_trace[0])["space_amp"]["value"] == 1.0
    if name == "mixed_rw_async":
        assert layers["aio.run_batches_per_op"] > 0
    for kind in ("write", "uwrite", "publish"):
        assert (layers[f"core.{kind}_p50_ms"] > 0) == (name == "mixed_rw_async")
    assert (layers["core.append_p50_ms"] > 0) == (
        name in ("append_stream", "mixed_rw_async")
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_flipped_stored_byte_is_caught(name):
    result = run(name, seed=7, seconds=0, trace=False, smoke=True, corrupt=True)
    assert result.correct is False and result.failed >= 1
