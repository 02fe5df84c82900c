"""Unit tests for the discrete-event engine (events, processes, pipes)."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import AllOf, Pipe, Simulator


class TestEvents:
    def test_succeed_delivers_value_to_callbacks(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.add_callback(seen.append)
        event.succeed(42)
        sim.run()
        assert seen == [42]

    def test_callback_added_after_trigger_still_fires(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("late")
        seen = []
        event.add_callback(seen.append)
        sim.run()
        assert seen == ["late"]

    def test_double_succeed_is_an_error(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_timeout_advances_virtual_time(self):
        sim = Simulator()
        sim.timeout(5.0)
        assert sim.run() == pytest.approx(5.0)

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timeout(-1)


class TestAllOf:
    def test_fires_after_all_events(self):
        sim = Simulator()
        events = [sim.timeout(1.0), sim.timeout(3.0), sim.timeout(2.0)]
        joined = sim.all_of(events)
        done_at = []
        joined.add_callback(lambda _v: done_at.append(sim.now))
        sim.run()
        assert done_at == [pytest.approx(3.0)]

    def test_empty_join_fires_immediately(self):
        sim = Simulator()
        joined = AllOf(sim, [])
        assert joined.triggered
        assert joined.value == []


class TestProcesses:
    def test_process_returns_value_through_its_event(self):
        sim = Simulator()

        def activity():
            yield sim.timeout(2.0)
            yield sim.timeout(3.0)
            return "done"

        assert sim.run_process(activity()) == "done"
        assert sim.now == pytest.approx(5.0)

    def test_yield_from_composes_sub_activities(self):
        sim = Simulator()

        def step(duration):
            yield sim.timeout(duration)
            return duration

        def activity():
            first = yield from step(1.0)
            second = yield from step(2.0)
            return first + second

        assert sim.run_process(activity()) == pytest.approx(3.0)

    def test_parallel_processes_overlap_in_time(self):
        sim = Simulator()

        def activity(duration):
            yield sim.timeout(duration)
            return sim.now

        processes = [sim.process(activity(d)) for d in (4.0, 1.0, 2.0)]
        sim.run()
        assert sim.now == pytest.approx(4.0)
        assert [p.event.value for p in processes] == [
            pytest.approx(4.0), pytest.approx(1.0), pytest.approx(2.0)]

    def test_yielding_a_non_event_is_an_error(self):
        sim = Simulator()

        def bad():
            yield "not an event"

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_process_detects_deadlock(self):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never succeeded

        with pytest.raises(SimulationError):
            sim.run_process(stuck())

    def test_run_until_bounds_time(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == pytest.approx(4.0)


class TestFailureDelivery:
    def test_process_accepts_a_coroutine(self):
        sim = Simulator()

        async def step(duration):
            await sim.timeout(duration)
            return duration

        async def activity():
            return await step(2.0) + await step(1.0)

        assert sim.run_process(activity()) == pytest.approx(3.0)
        assert sim.now == pytest.approx(3.0)

    def test_child_failure_is_raised_in_the_joiner(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            raise KeyError("child")

        def parent():
            try:
                yield sim.process(child()).event
            except KeyError as error:
                return ("caught", error.args[0], sim.now)

        assert sim.run_process(parent()) == ("caught", "child", pytest.approx(1.0))

    def test_coroutine_joiner_sees_the_failure_too(self):
        sim = Simulator()

        async def child():
            await sim.timeout(1.0)
            raise KeyError("child")

        async def parent():
            with pytest.raises(KeyError):
                await sim.process(child()).event
            return "survived"

        assert sim.run_process(parent()) == "survived"

    def test_all_of_fails_with_the_first_failure(self):
        sim = Simulator()
        finished = []

        def child(delay, error=None):
            yield sim.timeout(delay)
            if error is not None:
                raise error
            finished.append(delay)

        def parent():
            children = [
                sim.process(child(3.0)),
                sim.process(child(1.0, ValueError("first"))),
                sim.process(child(2.0, KeyError("second"))),
            ]
            try:
                yield sim.all_of([process.event for process in children])
            except ValueError:
                return sim.now

        # The joiner wakes at the first failure; the siblings run on.
        assert sim.run_process(parent()) == pytest.approx(1.0)
        assert finished == [3.0]

    def test_run_process_drains_the_heap_before_reraising(self):
        sim = Simulator()
        delivered = []

        def one_way_notice():
            yield sim.timeout(5.0)
            delivered.append(sim.now)

        def activity():
            sim.process(one_way_notice())
            yield sim.timeout(1.0)
            raise RuntimeError("top-level failure")

        with pytest.raises(RuntimeError, match="top-level failure"):
            sim.run_process(activity())
        assert delivered == [pytest.approx(5.0)]
        assert sim.now == pytest.approx(5.0)

    def test_run_reraises_only_failures_nothing_joined(self):
        sim = Simulator()

        def failing():
            yield sim.timeout(1.0)
            raise KeyError("handled")

        def parent():
            try:
                yield sim.process(failing()).event
            except KeyError:
                pass

        sim.process(parent())
        sim.run()  # the child's failure was delivered, not leaked
        sim.process(failing())
        with pytest.raises(KeyError):
            sim.run()


class TestPipe:
    def test_fifo_serialization(self):
        sim = Simulator()
        pipe = Pipe(sim, "nic")
        completions = []

        def user(duration):
            yield pipe.use(duration)
            completions.append(sim.now)

        for duration in (2.0, 3.0, 1.0):
            sim.process(user(duration))
        sim.run()
        assert completions == [
            pytest.approx(2.0), pytest.approx(5.0), pytest.approx(6.0),
        ]

    def test_busy_time_and_utilization(self):
        sim = Simulator()
        pipe = Pipe(sim, "nic")
        pipe.use(2.0)
        pipe.use(3.0)
        sim.run()
        assert pipe.busy_time == pytest.approx(5.0)
        assert pipe.requests == 2
        assert pipe.utilization(10.0) == pytest.approx(0.5)
        assert pipe.utilization(0.0) == 0.0

    def test_negative_occupancy_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Pipe(sim, "nic").use(-1.0)

    def test_pipe_idles_between_bursts(self):
        sim = Simulator()
        pipe = Pipe(sim, "nic")

        def late_user():
            yield sim.timeout(10.0)
            yield pipe.use(1.0)
            return sim.now

        assert sim.run_process(late_user()) == pytest.approx(11.0)
