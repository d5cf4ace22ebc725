"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import pytest

from repro.sim import (
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


class TestEvent:
    def test_new_event_is_pending(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_succeed_carries_value(self):
        env = Environment()
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(ValueError("x"))

    def test_fail_requires_exception(self):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_callbacks_run_on_processing(self):
        env = Environment()
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]
        assert event.processed

    def test_trigger_chains_state(self):
        env = Environment()
        source = env.event()
        sink = env.event()
        source.succeed(7)
        sink.trigger(source)
        assert sink.value == 7


class TestTimeout:
    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(125.0)
        env.run()
        assert env.now == 125.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Timeout(env, -1.0)

    def test_negative_delay_error_names_event_and_now(self):
        env = Environment()
        env.timeout(10.0)
        env.run()
        event = env.event()
        with pytest.raises(SimulationError) as excinfo:
            env._schedule(event, 0, -2.5)
        message = str(excinfo.value)
        assert repr(event) in message  # which event was being scheduled
        assert "delay=-2.5" in message
        assert "now=10.0" in message

    def test_timeouts_fire_in_time_order(self):
        env = Environment()
        fired = []

        def proc(delay, tag):
            yield env.timeout(delay)
            fired.append(tag)

        env.process(proc(30, "c"))
        env.process(proc(10, "a"))
        env.process(proc(20, "b"))
        env.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_creation_order(self):
        env = Environment()
        fired = []

        def proc(tag):
            yield env.timeout(5)
            fired.append(tag)

        for tag in ("first", "second", "third"):
            env.process(proc(tag))
        env.run()
        assert fired == ["first", "second", "third"]


class TestProcess:
    def test_process_return_value(self):
        env = Environment()

        def body():
            yield env.timeout(1)
            return "done"

        proc = env.process(body())
        assert env.run(until=proc) == "done"

    def test_process_requires_generator(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_process_waits_on_another_process(self):
        env = Environment()

        def inner():
            yield env.timeout(50)
            return 99

        def outer():
            value = yield env.process(inner())
            return value + 1

        assert env.run(until=env.process(outer())) == 100
        assert env.now == 50

    def test_exception_propagates_to_waiter(self):
        env = Environment()

        def failing():
            yield env.timeout(1)
            raise ValueError("boom")

        def waiter():
            yield env.process(failing())

        with pytest.raises(ValueError, match="boom"):
            env.run(until=env.process(waiter()))

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def bad():
            yield 42  # type: ignore[misc]

        proc = env.process(bad())
        with pytest.raises(SimulationError, match="expected an Event"):
            env.run(until=proc)

    def test_yield_already_processed_event_resumes_immediately(self):
        env = Environment()
        ready = env.event()
        ready.succeed("early")
        order = []

        def consumer():
            # Let the ready event be processed first.
            yield env.timeout(10)
            value = yield ready
            order.append((env.now, value))

        env.run(until=env.process(consumer()))
        assert order == [(10.0, "early")]

    def test_interrupt_raises_inside_process(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(1000)
            except Interrupt as interrupt:
                log.append((env.now, interrupt.cause))

        victim = env.process(sleeper())

        def interrupter():
            yield env.timeout(42)
            victim.interrupt(cause="wakeup")

        env.process(interrupter())
        env.run()
        assert log == [(42.0, "wakeup")]

    def test_interrupt_finished_process_rejected(self):
        env = Environment()

        def quick():
            yield env.timeout(1)

        proc = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_is_alive(self):
        env = Environment()

        def body():
            yield env.timeout(10)

        proc = env.process(body())
        assert proc.is_alive
        env.run()
        assert not proc.is_alive


class TestCallbackTier:
    """The defer/chain fast path shares the calendar with the event tier."""

    def test_defer_runs_at_scheduled_time_with_args(self):
        env = Environment()
        seen = []
        env.defer(lambda a, b: seen.append((env.now, a, b)), 12.5, args=(1, 2))
        env.run()
        assert seen == [(12.5, 1, 2)]

    def test_defer_default_delay_is_now(self):
        env = Environment(initial_time=100.0)
        seen = []
        env.defer(lambda: seen.append(env.now))
        env.run()
        assert seen == [100.0]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError, match="into the past"):
            env.defer(lambda: None, -1.0)

    def test_callbacks_interleave_with_events_by_priority_then_fifo(self):
        # At one timestamp: URGENT entries (either tier) fire before
        # NORMAL ones, and within a priority insertion order rules —
        # exactly the event-tier tie-break.
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(5)
            order.append(tag)

        env.process(proc("event-normal"))
        env.step()  # run _Initialize so the Timeout enters the calendar now
        env.defer(lambda: order.append("cb-normal"), 5.0)
        env.defer(lambda: order.append("cb-urgent"), 5.0, priority=URGENT)
        env.defer(lambda: order.append("cb-normal-2"), 5.0, priority=NORMAL)
        env.run()
        assert order == ["cb-urgent", "event-normal", "cb-normal", "cb-normal-2"]

    def test_exception_in_deferred_callback_propagates(self):
        env = Environment()

        def boom():
            raise RuntimeError("deferred failure")

        env.defer(boom, 1.0)
        with pytest.raises(RuntimeError, match="deferred failure"):
            env.run()

    def test_on_event_hook_sees_bare_callables(self):
        env = Environment()
        seen = []
        env.on_event = lambda when, item: seen.append((when, item))

        def cb():
            pass

        env.defer(cb, 3.0)
        env.timeout(4.0)
        env.run()
        assert (3.0, cb) in seen
        assert any(isinstance(item, Timeout) for _, item in seen)

    def test_defer_counts_toward_processed_events(self):
        env = Environment()
        env.defer(lambda: None)
        env.defer(lambda: None, 1.0)
        env.run()
        assert env.processed_events == 2

    def test_chain_hops_accumulate_like_sequential_timeouts(self):
        env = Environment()
        ticks = []
        env.chain(
            (0.1, lambda: ticks.append(env.now)),
            (0.2, lambda: ticks.append(env.now)),
            (0.0, lambda: ticks.append(env.now)),
        )
        env.run()
        # Bit-exact float sums, hop by hop: (0+0.1), ((0+0.1)+0.2), ...
        assert ticks == [0.1, 0.1 + 0.2, 0.1 + 0.2 + 0.0]

    def test_chain_steps_schedule_lazily(self):
        # Step k+1 must not be on the calendar until step k fired, so
        # work injected between steps at the same time still interleaves
        # in insertion order.
        env = Environment()
        order = []
        env.chain(
            (1.0, lambda: order.append("first")),
            (0.0, lambda: order.append("third")),
        )

        def racer():
            yield env.timeout(1.0)
            order.append("second")

        env.process(racer())
        env.run()
        assert order == ["first", "second", "third"]

    def test_empty_chain_is_a_no_op(self):
        env = Environment()
        env.chain()
        assert env.peek() == float("inf")

    def test_chain_exception_abandons_remaining_steps(self):
        env = Environment()
        ran = []

        def boom():
            raise ValueError("mid-chain")

        env.chain(
            (1.0, lambda: ran.append("ok")),
            (1.0, boom),
            (1.0, lambda: ran.append("never")),
        )
        with pytest.raises(ValueError, match="mid-chain"):
            env.run()
        assert ran == ["ok"]
        env.run()  # the rest of the chain is gone, not merely delayed
        assert ran == ["ok"]

    def test_add_callback_on_processed_event_rejected(self):
        env = Environment()
        event = env.event().succeed("done")
        env.run()
        with pytest.raises(SimulationError, match="already-processed"):
            event.add_callback(lambda e: None)

    def test_add_callback_runs_like_direct_append(self):
        env = Environment()
        event = env.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(7)
        env.run()
        assert seen == [7]


class TestFireNow:
    """``fire_now`` resumes waiters inside the current step."""

    def test_resumes_the_waiter_within_the_step(self):
        env = Environment()
        event = env.event()
        seen = []

        def waiter():
            value = yield event
            seen.append((env.now, value))

        env.process(waiter())
        env.defer(lambda: env.fire_now(event, "go"), 5.0)
        env.run()
        assert seen == [(5.0, "go")]
        assert event.processed and event.value == "go"

    def test_pushes_no_entry_and_consumes_no_sequence_number(self):
        env = Environment()
        event = env.event()
        resumed = []

        def waiter():
            yield event
            resumed.append(env.now)
            yield env.event()  # block again, scheduling nothing

        env.process(waiter())
        env.run()  # the process starts and blocks on ``event``
        pending, sequence = env._pending_count(), env._sequence
        env.fire_now(event)
        assert resumed == [0.0]
        assert (env._pending_count(), env._sequence) == (pending, sequence)

    def test_rejects_an_already_triggered_event(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError, match="already been triggered"):
            env.fire_now(event)
        fired = env.event()
        env.fire_now(fired)
        with pytest.raises(SimulationError, match="already been triggered"):
            env.fire_now(fired)


class TestConditions:
    def test_all_of_waits_for_every_event(self):
        env = Environment()

        def body():
            result = yield AllOf(env, [env.timeout(10, "a"), env.timeout(30, "b")])
            return (env.now, sorted(result))

        now, values = env.run(until=env.process(body()))
        assert now == 30
        assert values == ["a", "b"]

    def test_any_of_fires_on_first(self):
        env = Environment()

        def body():
            yield AnyOf(env, [env.timeout(10, "fast"), env.timeout(500, "slow")])
            return env.now

        assert env.run(until=env.process(body())) == 10

    def test_empty_all_of_fires_immediately(self):
        env = Environment()

        def body():
            yield AllOf(env, [])
            return env.now

        assert env.run(until=env.process(body())) == 0

    def test_all_of_propagates_failure(self):
        env = Environment()

        def failing():
            yield env.timeout(5)
            raise RuntimeError("nope")

        def body():
            yield AllOf(env, [env.process(failing()), env.timeout(100)])

        with pytest.raises(RuntimeError, match="nope"):
            env.run(until=env.process(body()))


class TestEnvironmentRun:
    def test_run_until_time_stops_clock(self):
        env = Environment()

        def ticker():
            while True:
                yield env.timeout(10)

        env.process(ticker())
        env.run(until=95)
        assert env.now == 95

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=100)
        with pytest.raises(SimulationError):
            env.run(until=50)

    def test_run_until_event_deadlock_detected(self):
        env = Environment()
        never = env.event()

        def waiter():
            yield never

        proc = env.process(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=proc)

    def test_step_empty_calendar_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_reports_next_event_time(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(12.5)
        assert env.peek() == 12.5

    def test_initial_time(self):
        env = Environment(initial_time=1000.0)
        assert env.now == 1000.0
        env.timeout(5)
        env.run()
        assert env.now == 1005.0

    def test_active_process_visible_during_execution(self):
        env = Environment()
        observed = []

        def body():
            observed.append(env.active_process)
            yield env.timeout(1)

        proc = env.process(body())
        env.run()
        assert observed == [proc]
        assert env.active_process is None

    def test_run_until_time_after_calendar_drains(self):
        # Regression: the clock must land exactly on the horizon even
        # when the last event fires well before it — not stay stuck at
        # the final event's timestamp.
        env = Environment()
        env.timeout(10.0)
        env.run(until=500.0)
        assert env.now == 500.0

    def test_run_until_time_with_empty_calendar(self):
        env = Environment()
        env.run(until=42.0)
        assert env.now == 42.0

    def test_run_until_time_is_cumulative(self):
        env = Environment()
        env.timeout(3.0)
        env.run(until=100.0)
        env.run(until=250.0)
        assert env.now == 250.0

    def test_processed_events_counts_steps(self):
        env = Environment()
        env.timeout(1.0)
        env.timeout(2.0)
        before = env.processed_events
        env.run()
        assert env.processed_events == before + 2

    def test_run_until_plain_event_deadlock_detected(self):
        env = Environment()
        never = env.event()
        env.timeout(5.0)
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=never)


class TestEdgeCases:
    def test_interrupt_while_waiting_on_processed_event(self):
        # A process yielding an already-processed event parks on an
        # internal urgent relay; interrupting it there must detach it
        # cleanly and deliver the Interrupt, not resume it twice.
        env = Environment()
        done = env.event().succeed("settled")
        env.run()
        assert done.processed

        outcomes = []

        def waiter():
            try:
                value = yield done
                outcomes.append(("value", value))
            except Interrupt as interrupt:
                outcomes.append(("interrupt", interrupt.cause))

        proc = env.process(waiter())
        # Let the process start and park on the settled-event relay.
        env.step()
        assert proc.is_alive
        proc.interrupt(cause="stop")
        env.run()
        assert outcomes == [("interrupt", "stop")]
        assert not proc.is_alive

    def test_double_interrupt_coalesces_first_cause_wins(self):
        # Regression: two interrupts issued before the victim resumes
        # used to advance the generator twice — the second delivery
        # landed wherever the generator had moved on to.  They must
        # coalesce into a single Interrupt carrying the first cause.
        env = Environment()
        outcomes = []

        def sleeper():
            try:
                yield env.timeout(1000)
            except Interrupt as interrupt:
                outcomes.append(("interrupt", env.now, interrupt.cause))
            yield env.timeout(7)
            outcomes.append(("resumed", env.now))

        victim = env.process(sleeper())

        def interrupter():
            yield env.timeout(42)
            victim.interrupt(cause="first")
            victim.interrupt(cause="second")
            victim.interrupt(cause="third")

        env.process(interrupter())
        env.run()
        assert outcomes == [("interrupt", 42.0, "first"), ("resumed", 49.0)]
        assert not victim.is_alive

    def test_interrupt_usable_again_after_delivery(self):
        # Coalescing clears once the pending interrupt is delivered: a
        # later, separate interrupt must go through.
        env = Environment()
        causes = []

        def sleeper():
            for _ in range(2):
                try:
                    yield env.timeout(1000)
                except Interrupt as interrupt:
                    causes.append(interrupt.cause)

        victim = env.process(sleeper())

        def interrupter():
            yield env.timeout(10)
            victim.interrupt(cause="one")
            yield env.timeout(10)
            victim.interrupt(cause="two")

        env.process(interrupter())
        env.run()
        assert causes == ["one", "two"]

    def test_empty_any_of_fires_immediately(self):
        env = Environment()
        results = []

        def body():
            value = yield AnyOf(env, [])
            results.append(value)

        env.process(body())
        env.run()
        assert results == [[]]
        assert env.now == 0.0

    def test_empty_all_of_and_any_of_agree(self):
        env = Environment()
        all_of = AllOf(env, [])
        any_of = AnyOf(env, [])
        assert all_of.triggered
        assert any_of.triggered
        env.run()
        assert all_of.value == []
        assert any_of.value == []
