"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Interrupt,
    Signal,
    SimulationError,
    Simulator,
    Timeout,
)


class TestScheduling:
    def test_starts_at_time_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_callback_runs_at_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_priority_breaks_ties_before_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "late", priority=1)
        sim.schedule(1.0, order.append, "early", priority=-1)
        sim.run()
        assert order == ["early", "late"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run()
        assert sim.now == 10.0

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_event_count_increments(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.event_count == 4

    def test_max_events_guard_trips_on_livelock(self):
        sim = Simulator()
        calls = []

        def rearm():
            calls.append(sim.now)
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError, match="exceeded 100 events"):
            sim.run(max_events=100)
        # Exactly max_events dispatched and counted; the next one stays
        # queued.
        assert len(calls) == sim.event_count == 100
        assert sim.step() is True
        assert len(calls) == 101


class TestProcesses:
    def test_process_timeout_advances_time(self):
        sim = Simulator()

        def proc():
            yield Timeout(2.5)
            return sim.now

        assert sim.run_process(proc()) == 2.5

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            yield Timeout(2.0)
            return sim.now

        assert sim.run_process(proc()) == 3.0

    def test_timeout_value_is_returned_from_yield(self):
        sim = Simulator()

        def proc():
            value = yield Timeout(1.0, value="payload")
            return value

        assert sim.run_process(proc()) == "payload"

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield Timeout(0.0)
            return 42

        assert sim.run_process(proc()) == 42

    def test_waiting_on_child_process(self):
        sim = Simulator()

        def child():
            yield Timeout(3.0)
            return "done"

        def parent():
            result = yield sim.process(child())
            return (result, sim.now)

        assert sim.run_process(parent()) == ("done", 3.0)

    def test_waiting_on_finished_process_resumes_immediately(self):
        sim = Simulator()

        def empty():
            return 42
            yield  # pragma: no cover - makes this a generator

        child = sim.process(empty())
        sim.run()

        def parent():
            got = yield child
            return got, sim.now

        assert sim.run_process(parent()) == (42, 0.0)

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def proc():
            yield "not a waitable"

        with pytest.raises(SimulationError, match="yielded"):
            sim.run_process(proc())

    def test_crash_in_process_propagates(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sim.run_process(proc())

    def test_deadlocked_process_detected(self):
        sim = Simulator()

        def proc():
            yield Signal("never-fires")

        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(proc())

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_all_of_waits_for_every_child(self):
        sim = Simulator()

        def child(delay, tag):
            yield Timeout(delay)
            return tag

        children = [sim.process(child(d, i)) for i, d in enumerate([3.0, 1.0, 2.0])]

        def parent():
            results = yield sim.all_of(children)
            return (results, sim.now)

        results, when = sim.run_process(parent())
        assert results == [0, 1, 2]
        assert when == 3.0


class TestSignals:
    def test_fire_wakes_waiter_with_value(self):
        sim = Simulator()
        signal = Signal("data")

        def waiter():
            value = yield signal
            return (value, sim.now)

        proc = sim.process(waiter())
        sim.schedule(4.0, signal.fire, "hello")
        sim.run()
        assert proc.result == ("hello", 4.0)

    def test_fire_wakes_all_waiters(self):
        sim = Simulator()
        signal = Signal()
        results = []

        def waiter(tag):
            yield signal
            results.append(tag)

        for tag in range(3):
            sim.process(waiter(tag))
        sim.schedule(1.0, signal.fire)
        sim.run()
        assert sorted(results) == [0, 1, 2]

    def test_reusable_signal_resets_after_fire(self):
        sim = Simulator()
        signal = Signal()
        wakeups = []

        def waiter():
            yield signal
            wakeups.append(sim.now)
            yield signal
            wakeups.append(sim.now)

        sim.process(waiter())
        sim.schedule(1.0, signal.fire)
        sim.schedule(2.0, signal.fire)
        sim.run()
        assert wakeups == [1.0, 2.0]

    def test_oneshot_signal_latches(self):
        sim = Simulator()
        signal = Signal(oneshot=True)
        signal.fire("latched")

        def late_waiter():
            value = yield signal
            return value

        assert sim.run_process(late_waiter()) == "latched"

    def test_waiter_count(self):
        sim = Simulator()
        signal = Signal()

        def waiter():
            yield signal

        sim.process(waiter())
        sim.run(until=0.0)
        # The process has started and subscribed.
        sim.step()  # no-op when nothing is pending
        assert signal.waiter_count <= 1


class TestInterrupt:
    def test_interrupt_wakes_blocked_process(self):
        sim = Simulator()

        def sleeper():
            try:
                yield Timeout(100.0)
            except Interrupt as exc:
                return ("interrupted", exc.cause, sim.now)
            return "slept"

        proc = sim.process(sleeper())
        sim.schedule(5.0, proc.interrupt, "wake up")
        sim.run()
        assert proc.result == ("interrupted", "wake up", 5.0)

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield Timeout(1.0)

        proc = sim.process(quick())
        sim.run()
        proc.interrupt("too late")
        sim.run()
        assert proc.alive is False

    def test_uncaught_interrupt_kills_quietly(self):
        sim = Simulator()

        def sleeper():
            yield Timeout(100.0)

        proc = sim.process(sleeper())
        sim.schedule(1.0, proc.interrupt)
        sim.run()  # must not raise
        assert proc.alive is False


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(tag, delay):
                yield Timeout(delay)
                trace.append((tag, sim.now))
                yield Timeout(delay * 2)
                trace.append((tag, sim.now))

            for tag in range(5):
                sim.process(worker(tag, 0.5 + tag * 0.25))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()


class TestSlowPath:
    """Yields that ``Simulator.run`` does not inline go through
    ``Process._wait_on``; these pin what that path does."""

    def test_positive_int_yield_is_a_timeout(self):
        sim = Simulator()

        def proc():
            got = yield 3
            return got, sim.now

        assert sim.run_process(proc()) == (None, 3.0)

    @pytest.mark.parametrize("zero", [0, 0.0, Timeout(0)], ids=repr)
    def test_zero_delay_queues_behind_same_instant_callbacks(self, zero):
        sim = Simulator()
        trace = []

        def proc():
            trace.append("p1")
            yield zero
            trace.append("p2")

        def first():
            trace.append("cb")
            sim.schedule(0.0, trace.append, "cb2")

        sim.process(proc())
        sim.schedule(0.0, first)
        sim.run()
        assert trace == ["p1", "cb", "p2", "cb2"]
        assert sim.now == 0.0

    @pytest.mark.parametrize("junk", [-1, -0.5], ids=repr)
    def test_negative_number_crashes_the_process(self, junk):
        sim = Simulator()

        def proc():
            yield junk

        with pytest.raises(SimulationError, match="yielded"):
            sim.run_process(proc())

    def test_join_of_crashed_process_reraises_in_joiner(self):
        sim = Simulator()
        boom = ValueError("boom")

        def child():
            yield 1.0
            raise boom

        def parent():
            yield 2.0
            try:
                yield kid
            except ValueError as exc:
                return exc, sim.now

        kid = sim.process(child())
        waiter = sim.process(parent())
        # Nobody was joined when the child crashed: the crash surfaces.
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        sim.run()
        assert waiter.result == (boom, 2.0)

    def test_interrupted_waiter_yielding_zero_joins_ready_list(self):
        sim = Simulator()
        trace = []

        def sleeper():
            try:
                yield 100.0
            except Interrupt:
                trace.append("woken")
            yield 0.0
            trace.append("after")

        def second():
            trace.append("B")
            sim.schedule(0.0, trace.append, "C")

        def first():
            proc.interrupt()
            sim.schedule(0.0, second)

        proc = sim.process(sleeper())
        sim.schedule(5.0, first)
        sim.run()
        # The zero delay after the interrupt is an ordinary zero-delay
        # wakeup: it runs before C, which was scheduled after it.
        assert trace == ["woken", "B", "after", "C"]
        assert proc.result is None and not proc.alive


class TestEventCount:
    def test_process_crash_counts_the_crashing_event(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)

        def proc():
            yield 2.0
            raise ValueError("boom")

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()
        assert sim.event_count == 5  # start, 3 callbacks, the crash

    def test_raising_callback_is_counted(self):
        sim = Simulator()

        def fail():
            raise KeyError("cb")

        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, fail)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(KeyError):
            sim.run()
        assert sim.event_count == 2
        sim.run()
        assert sim.event_count == 3


def _mixed_scenario(drive):
    """One scenario touching every yield kind; returns its trace."""
    sim = Simulator()
    trace = []
    latch = Signal("latch", oneshot=True)
    bell = Signal("bell")

    def note(label):
        trace.append((sim.now, label))

    def child(tag):
        yield 0.5
        note(f"child{tag}")
        return tag

    def worker():
        yield 1.0
        note("float")
        yield 1
        note("int")
        yield Timeout(0.25, "v")
        note("timeout")
        yield 0
        note("zero")
        kid = sim.process(child(1))
        got = yield kid
        note(f"joined{got}")
        got = yield kid
        note(f"rejoined{got}")
        got = yield latch
        note(f"latch{got}")
        got = yield bell
        note(f"bell{got}")

    def sleeper():
        try:
            yield 50.0
        except Interrupt as exc:
            note(f"interrupt{exc.cause}")
        yield 0.0
        note("sleeper-zero")
        got = yield latch
        note(f"sleeper-latch{got}")

    sim.process(worker())
    nap = sim.process(sleeper())
    sim.schedule(0.5, latch.fire, "L")
    sim.schedule(3.0, note, "cb")
    sim.schedule(3.75, nap.interrupt, "I")
    sim.schedule(4.0, bell.fire, "B")
    drive(sim)
    return trace


class TestRunMatchesStep:
    def test_same_trace_from_run_and_from_step_loop(self):
        def step_all(sim):
            while sim.step():
                pass

        by_run = _mixed_scenario(lambda sim: sim.run())
        by_step = _mixed_scenario(step_all)
        assert by_run == by_step
        labels = [label for _time, label in by_run]
        assert labels[-1] == "bellB"
        assert "sleeper-zero" in labels and "rejoined1" in labels
