"""Tests of the invariant analyzer (lint rules RPR001–RPR005, suppression
handling, layer-contract data) and the runtime concurrency sanitizer.

Every rule gets a good/bad fixture pair: the bad snippet fires exactly
once at the expected line with the expected rule id, the good twin stays
silent.  The sanitizer's self-tests seed a genuine lock-order inversion
and a lock held across a real suspension and assert both are reported.
"""

from __future__ import annotations

import asyncio
import textwrap
import threading

import pytest

from repro.analysis import (
    LAYER_CONTRACTS,
    RULES,
    analyze_paths,
    analyze_source,
    check_module,
    module_name_for,
)
from repro.analysis.engine import MALFORMED_SUPPRESSION, resolve_import
from repro.analysis.layers import SANS_IO, LayerContract, validate_contracts
from repro.analysis.sanitizer import (
    LockHeldAcrossAwaitError,
    LockOrderViolation,
    LockSanitizer,
)
from repro.config import FEATURE_KNOBS, BlobSeerConfig
from repro.errors import ConfigurationError

REPO_SRC = __file__.rsplit("/tests/", 1)[0] + "/src"


def run_rules(source: str, *, module: str = "repro.sample", path: str = "sample.py"):
    """Lint an in-memory snippet; returns the per-module report."""
    ctx = analyze_source(textwrap.dedent(source), path=path, module=module)
    return check_module(ctx)


def only_finding(report, rule_id: str):
    """Assert the report holds exactly ONE finding, of ``rule_id``."""
    assert [f.rule_id for f in report.findings] == [rule_id], report.findings
    return report.findings[0]


class TestLockHeldAcrossAwait:
    BAD = """\
        import threading

        class Store:
            async def read(self):
                with self._lock:
                    value = await self.fetch()
                return value
        """

    def test_bad_fires_once_at_with_line(self):
        finding = only_finding(run_rules(self.BAD), "RPR001")
        assert finding.line == 5  # the 'with self._lock:' line
        assert "read" in finding.message and "await" in finding.message

    def test_good_release_before_await_is_silent(self):
        report = run_rules(
            """\
            class Store:
                async def read(self):
                    with self._lock:
                        key = self.key
                    return await self.fetch(key)
            """
        )
        assert report.findings == []

    def test_async_with_asyncio_lock_is_exempt(self):
        report = run_rules(
            """\
            class Store:
                async def read(self):
                    async with self._alock:
                        return await self.fetch()
            """
        )
        assert report.findings == []

    def test_await_in_nested_function_not_attributed_to_outer_with(self):
        report = run_rules(
            """\
            class Store:
                async def read(self):
                    with self._lock:
                        async def helper():
                            await self.fetch()
                        self.helper = helper
            """
        )
        assert report.findings == []

    def test_condition_scope_counts_as_lock(self):
        report = run_rules(
            """\
            async def wait_for_publish(state):
                with state.condition:
                    await notify()
            """
        )
        assert only_finding(report, "RPR001").line == 2


class TestBlockingCallInCoroutine:
    BAD = """\
        import time

        async def backoff(delay):
            time.sleep(delay)
        """

    def test_bad_fires_once_at_call_line(self):
        finding = only_finding(run_rules(self.BAD), "RPR002")
        assert finding.line == 4
        assert "time.sleep" in finding.message

    def test_good_blocking_in_plain_def_is_silent(self):
        report = run_rules(
            """\
            import time

            def backoff(delay):
                time.sleep(delay)
            """
        )
        assert report.findings == []

    def test_run_sync_in_coroutine_flagged(self):
        report = run_rules(
            """\
            from repro.aio import run_sync

            async def bridge(coro):
                return run_sync(coro)
            """
        )
        assert only_finding(report, "RPR002").line == 4

    def test_queue_get_in_coroutine_flagged(self):
        report = run_rules(
            """\
            async def drain(self):
                return self._queue.get()
            """
        )
        assert only_finding(report, "RPR002").line == 2

    def test_runtime_seam_module_is_exempt(self):
        report = run_rules(self.BAD, module="repro.aio", path="aio.py")
        assert report.findings == []


class TestSansIOLayerViolation:
    BAD = """\
        from ..providers import ProviderManager

        def plan():
            return ProviderManager
        """

    def test_bad_fires_once_at_import_line(self):
        report = run_rules(
            self.BAD, module="repro.metadata.read_plan", path="read_plan.py"
        )
        finding = only_finding(report, "RPR003")
        assert finding.line == 1
        assert "repro.providers" in finding.message
        assert "sans-io" in finding.message

    def test_good_same_import_outside_layer_is_silent(self):
        report = run_rules(
            self.BAD, module="repro.core.blob_store", path="blob_store.py"
        )
        assert report.findings == []

    def test_absolute_import_and_submodule_from_import_are_caught(self):
        report = run_rules(
            """\
            import repro.fault.retry
            from ..fault import retry
            """,
            module="repro.metadata.build",
            path="build.py",
        )
        assert [f.rule_id for f in report.findings] == ["RPR003", "RPR003"]
        assert [f.line for f in report.findings] == [1, 2]

    def test_sibling_sans_io_imports_stay_legal(self):
        report = run_rules(
            """\
            from ..errors import InvalidRangeError
            from ..util.ranges import intersects
            from .geometry import children_of
            """,
            module="repro.metadata.read_plan",
            path="read_plan.py",
        )
        assert report.findings == []


class TestUngatedFeatureKnob:
    BAD = """\
        def descent(config):
            if config.speculative_prefetch:
                return "pipelined"
        """

    def test_bad_fires_once_at_read_line(self):
        finding = only_finding(run_rules(self.BAD), "RPR004")
        assert finding.line == 2
        assert "feature_enabled" in finding.message

    def test_good_gate_helper_is_silent(self):
        report = run_rules(
            """\
            def descent(config):
                if config.feature_enabled("speculative_prefetch"):
                    return "pipelined"
            """
        )
        assert report.findings == []

    def test_config_module_is_exempt(self):
        report = run_rules(self.BAD, module="repro.config", path="config.py")
        assert report.findings == []

    def test_every_declared_knob_is_guarded(self):
        for knob in FEATURE_KNOBS:
            report = run_rules(f"def f(c):\n    return c.{knob}\n")
            assert only_finding(report, "RPR004").line == 2


class TestUndocumentedStatsCounter:
    BAD = """\
        from dataclasses import dataclass

        @dataclass
        class RepairStats:
            #: Repair passes completed.
            passes: int = 0
            pages_restored: int = 0
        """

    def test_bad_fires_once_at_field_line(self):
        finding = only_finding(run_rules(self.BAD), "RPR005")
        assert finding.line == 7
        assert "pages_restored" in finding.message

    def test_good_block_and_inline_docs_are_silent(self):
        report = run_rules(
            """\
            from dataclasses import dataclass

            @dataclass
            class RepairStats:
                #: Repair passes completed.
                #: (multi-line blocks are fine)
                passes: int = 0
                pages_restored: int = 0  #: Pages restored in place.
            """
        )
        assert report.findings == []

    def test_non_stats_class_is_ignored(self):
        report = run_rules(
            """\
            class Plan:
                steps: int = 0
            """
        )
        assert report.findings == []

    def test_write_result_is_covered(self):
        report = run_rules(
            """\
            class WriteResult:
                pages_written: int = 0
            """
        )
        assert only_finding(report, "RPR005").line == 2


class TestSuppressions:
    def test_exact_rule_noqa_suppresses(self):
        report = run_rules(
            """\
            import time

            async def backoff(delay):
                time.sleep(delay)  # repro: noqa(RPR002) -- test seam only
            """
        )
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["RPR002"]

    def test_wrong_rule_id_does_not_suppress(self):
        report = run_rules(
            """\
            import time

            async def backoff(delay):
                time.sleep(delay)  # repro: noqa(RPR001)
            """
        )
        assert [f.rule_id for f in report.findings] == ["RPR002"]

    def test_blanket_noqa_is_itself_a_finding(self):
        report = run_rules(
            """\
            import time

            async def backoff(delay):
                time.sleep(delay)  # repro: noqa
            """
        )
        rule_ids = sorted(f.rule_id for f in report.findings)
        assert rule_ids == [MALFORMED_SUPPRESSION, "RPR002"]

    def test_directive_inside_string_is_inert(self):
        report = run_rules(
            '''\
            DOC = """example:  # repro: noqa(RPR002)"""
            '''
        )
        assert report.findings == []
        assert report.directives == []

    def test_multi_rule_directive(self):
        report = run_rules(
            """\
            import time

            async def poll(self):
                with self._lock: time.sleep(0.1)  # repro: noqa(RPR001, RPR002)
            """
        )
        assert report.findings == []
        assert sorted(f.rule_id for f in report.suppressed) == ["RPR002"]
        assert report.directives[0].rule_ids == ("RPR001", "RPR002")


class TestLayerContractData:
    def test_declarations_validate(self):
        validate_contracts()

    def test_covered_modules_exist_in_tree(self):
        import pathlib

        src = pathlib.Path(REPO_SRC)
        for module in SANS_IO.modules:
            relative = module.replace(".", "/")
            assert (
                (src / f"{relative}.py").exists()
                or (src / relative / "__init__.py").exists()
            ), f"declared sans-IO module {module} does not exist"

    def test_forbidden_prefixes_exist_in_tree(self):
        import pathlib

        src = pathlib.Path(REPO_SRC)
        for module in SANS_IO.forbidden:
            relative = module.replace(".", "/")
            assert (
                (src / f"{relative}.py").exists()
                or (src / relative / "__init__.py").exists()
            ), f"forbidden prefix {module} does not exist"

    def test_overlapping_contract_is_rejected(self):
        import repro.analysis.layers as layers

        bad = LayerContract(
            name="bad",
            rationale="covered module inside forbidden prefix",
            modules=("repro.providers.page_store",),
            forbidden=("repro.providers",),
        )
        original = layers.LAYER_CONTRACTS
        layers.LAYER_CONTRACTS = (bad,)
        try:
            with pytest.raises(ValueError):
                validate_contracts()
        finally:
            layers.LAYER_CONTRACTS = original

    def test_registered_rules_are_the_documented_five(self):
        assert sorted(RULES) == [
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
        ]


class TestEngineResolution:
    def test_module_name_for_resolves_packages(self):
        import pathlib

        src = pathlib.Path(REPO_SRC)
        assert (
            module_name_for(src / "repro/metadata/read_plan.py")
            == "repro.metadata.read_plan"
        )
        assert module_name_for(src / "repro/util/__init__.py") == "repro.util"

    def test_resolve_relative_imports(self):
        assert (
            resolve_import(
                "repro.metadata.build", is_package=False, level=2, target="errors"
            )
            == "repro.errors"
        )
        assert (
            resolve_import(
                "repro.util", is_package=True, level=1, target="ranges"
            )
            == "repro.util.ranges"
        )
        assert (
            resolve_import("repro.core.io", is_package=False, level=1, target=None)
            == "repro.core"
        )

    def test_contract_rationales_cite_design(self):
        for contract in LAYER_CONTRACTS:
            assert contract.rationale


class TestTreeIsClean:
    def test_src_and_benchmarks_are_violation_free(self):
        """The acceptance gate: the committed tree linted clean."""
        repo = REPO_SRC.rsplit("/", 1)[0]
        report = analyze_paths([f"{repo}/src", f"{repo}/benchmarks"])
        assert report.findings == [], [f.render() for f in report.findings]

    def test_cli_exit_codes(self, tmp_path):
        from repro.analysis.__main__ import main

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import time\n\nasync def f():\n    time.sleep(1)\n"
        )
        assert main([str(dirty)]) == 1
        assert main(["--list-rules", str(clean)]) == 0


class TestFeatureGateHelper:
    def test_knobs_are_real_config_fields(self):
        config = BlobSeerConfig()
        for knob in FEATURE_KNOBS:
            assert isinstance(getattr(config, knob), bool)

    def test_feature_enabled_reflects_fields(self):
        config = BlobSeerConfig(speculative_prefetch=True, tracing=False)
        assert config.feature_enabled("speculative_prefetch") is True
        assert config.feature_enabled("tracing") is False

    def test_unknown_knob_raises(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig().feature_enabled("speculatve_prefetch")
        # Replica ranking is always on: its old knob is no knob at all.
        with pytest.raises(ConfigurationError):
            BlobSeerConfig().feature_enabled("replica_routing")


class TestLockSanitizer:
    def test_seeded_inversion_raises(self):
        sanitizer = LockSanitizer().enable()
        lock_a = sanitizer.wrap(name="A")
        lock_b = sanitizer.wrap(name="B")
        with lock_a:
            with lock_b:
                pass
        with pytest.raises(LockOrderViolation, match="'B'"):
            with lock_b:
                with lock_a:
                    pass
        assert sanitizer.violations == 1

    def test_consistent_order_is_silent(self):
        sanitizer = LockSanitizer().enable()
        lock_a = sanitizer.wrap(name="A")
        lock_b = sanitizer.wrap(name="B")
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        assert sanitizer.violations == 0
        assert sanitizer.edge_count() == 1

    def test_cross_thread_inversion_detected(self):
        """The graph is process-wide: thread 1 orders A→B, the main thread
        inverts it — reported without the unlucky interleaving."""
        sanitizer = LockSanitizer().enable()
        lock_a = sanitizer.wrap(name="A")
        lock_b = sanitizer.wrap(name="B")

        def worker():
            with lock_a:
                with lock_b:
                    pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        with pytest.raises(LockOrderViolation):
            with lock_b:
                with lock_a:
                    pass

    def test_transitive_cycle_detected(self):
        sanitizer = LockSanitizer().enable()
        lock_a = sanitizer.wrap(name="A")
        lock_b = sanitizer.wrap(name="B")
        lock_c = sanitizer.wrap(name="C")
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_c:
                pass
        with pytest.raises(LockOrderViolation):
            with lock_c:
                with lock_a:
                    pass

    def test_seeded_lock_across_await_raises_and_unwinds(self):
        sanitizer = LockSanitizer().enable()
        lock = sanitizer.wrap(name="held")

        async def bad():
            with lock:
                await asyncio.sleep(0)

        with pytest.raises(LockHeldAcrossAwaitError, match="held"):
            asyncio.run(sanitizer.guard(bad()))
        # The guard closed the coroutine, so the 'with' released the lock.
        assert not lock.locked()

    def test_inline_awaits_do_not_trip_the_guard(self):
        """Awaits that complete without suspending (the run_sync bridge
        pattern) never reach the checkpoint."""
        sanitizer = LockSanitizer().enable()
        lock = sanitizer.wrap(name="inline")

        async def inner():
            return 21

        async def good():
            with lock:
                value = await inner()  # completes inline: no suspension
            await asyncio.sleep(0)
            return value * 2

        assert asyncio.run(sanitizer.guard(good())) == 42

    def test_install_patches_and_uninstall_restores(self):
        real_lock_type = type(threading.Lock())
        sanitizer = LockSanitizer()
        with sanitizer:
            patched = threading.Lock()
            assert type(patched).__name__ == "SanitizedLock"
        assert type(threading.Lock()) is real_lock_type
        # Wrappers created under the sanitizer stay usable after uninstall.
        with patched:
            pass

    def test_condition_wait_keeps_held_stack_exact(self):
        sanitizer = LockSanitizer()
        with sanitizer:
            condition = threading.Condition()
            ready = threading.Event()

            def waiter():
                with condition:
                    ready.set()
                    condition.wait(timeout=2)

            thread = threading.Thread(target=waiter)
            thread.start()
            ready.wait(timeout=2)
            with condition:
                condition.notify_all()
            thread.join(timeout=2)
            assert not thread.is_alive()
            assert sanitizer.held_names() == ()

    def test_reentrant_rlock_is_not_an_ordering(self):
        sanitizer = LockSanitizer()
        with sanitizer:
            rlock = threading.RLock()
            with rlock:
                with rlock:  # reentrant: no self-edge, no violation
                    pass
            assert sanitizer.violations == 0

    def test_sanitized_store_roundtrip(self, lock_sanitizer):
        """Acceptance: a real cluster + store built entirely under the
        sanitizer reads back what it wrote, with zero violations."""
        from repro import BlobStore, Cluster

        cluster = Cluster.in_memory(
            num_data_providers=4, num_metadata_providers=4, page_size=64
        )
        store = BlobStore(cluster, cache_metadata=False, cache_pages=False)
        blob_id = store.create()
        payload = bytes(range(256)) * 2
        version = store.write(blob_id, payload, 0)
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 0, len(payload)) == payload
        assert lock_sanitizer.violations == 0
        assert lock_sanitizer.lock_count() > 0

    def test_sanitized_async_store_roundtrip(self, lock_sanitizer):
        """The async engine under the sanitizer: gathered reads suspend on
        the loop with no sanitized lock held."""
        from repro import AsyncBlobStore, Cluster

        async def scenario():
            cluster = Cluster.in_memory(
                num_data_providers=4, num_metadata_providers=4, page_size=64
            )
            async with AsyncBlobStore(
                cluster, cache_metadata=False, cache_pages=False
            ) as store:
                blob_id = await store.create()
                payload = b"x" * 512
                version = await store.write(blob_id, payload, 0)
                await store.sync(blob_id, version)
                reads = await asyncio.gather(
                    *(
                        store.read(blob_id, version, 0, len(payload))
                        for _ in range(8)
                    )
                )
                return reads

        reads = asyncio.run(scenario())
        assert all(data == b"x" * 512 for data in reads)
        assert lock_sanitizer.violations == 0
