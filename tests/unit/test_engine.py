"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import EventEngine


def test_events_fire_in_time_order():
    engine = EventEngine()
    fired = []
    engine.call_after(30, lambda: fired.append("c"))
    engine.call_after(10, lambda: fired.append("a"))
    engine.call_after(20, lambda: fired.append("b"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    engine = EventEngine()
    fired = []
    for label in ("first", "second", "third"):
        engine.call_after(5, lambda label=label: fired.append(label))
    engine.run()
    assert fired == ["first", "second", "third"]


def test_ties_across_call_at_and_call_after_fire_in_scheduling_order():
    engine = EventEngine()
    fired = []
    engine.call_at(5, lambda: fired.append("at"))
    engine.call_after(5, lambda: fired.append("after"))
    engine.call_at(5, lambda: fired.append("at again"))
    engine.run()
    assert fired == ["at", "after", "at again"]


def test_zero_delay_from_callback_fires_after_queued_ties():
    engine = EventEngine()
    fired = []

    def first():
        fired.append("first")
        engine.call_after(0, lambda: fired.append("nested"))

    engine.call_after(4, first)
    engine.call_after(4, lambda: fired.append("second"))
    engine.run()
    assert fired == ["first", "second", "nested"]
    assert engine.now == 4


def test_clock_advances_to_event_time():
    engine = EventEngine()
    seen = []
    engine.call_after(42, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [42]
    assert engine.now == 42


def test_call_at_absolute_time():
    engine = EventEngine()
    seen = []
    engine.call_after(10, lambda: None)
    engine.run()
    engine.call_at(100, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [100]


def test_schedule_in_past_rejected():
    engine = EventEngine()
    engine.call_after(10, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.call_at(5, lambda: None)
    with pytest.raises(ValueError):
        engine.call_after(-1, lambda: None)


def test_nested_scheduling_from_callback():
    engine = EventEngine()
    fired = []

    def outer():
        fired.append(("outer", engine.now))
        engine.call_after(5, lambda: fired.append(("inner", engine.now)))

    engine.call_after(10, outer)
    engine.run()
    assert fired == [("outer", 10), ("inner", 15)]


def test_random_schedules_fire_in_time_then_scheduling_order():
    """Against a reference: with ``call_at`` and ``call_after`` mixed
    and callbacks scheduling more work, every event fires exactly once,
    ordered by time and then by when it was scheduled."""
    rng = random.Random(7)
    engine = EventEngine()
    scheduled = []  # (time, scheduling index), in scheduling order
    fired = []

    def schedule():
        key = (engine.now + rng.randrange(20), len(scheduled))
        scheduled.append(key)

        def callback():
            assert engine.now == key[0]
            fired.append(key)
            if rng.random() < 0.5 and len(scheduled) < 400:
                schedule()

        if rng.random() < 0.5:
            engine.call_at(key[0], callback)
        else:
            engine.call_after(key[0] - engine.now, callback)

    for _ in range(100):
        schedule()
    engine.run()
    assert len(scheduled) > 100
    assert fired == sorted(scheduled)
    assert engine.events_processed == engine.events_scheduled == len(fired)


def test_max_events_limit():
    engine = EventEngine()
    count = []
    for _ in range(10):
        engine.call_after(1, lambda: count.append(1))
    processed = engine.run(max_events=3)
    assert processed == 3
    assert len(count) == 3
    # The rest stays queued for the next run.
    assert engine.run() == 7
    assert len(count) == 10


def test_max_events_zero_fires_nothing():
    engine = EventEngine()
    fired = []
    engine.call_after(1, lambda: fired.append(1))
    assert engine.run(max_events=0) == 0
    assert fired == [] and engine.now == 0
    assert engine.run() == 1
    assert fired == [1]


def test_run_on_an_empty_engine_fires_nothing():
    engine = EventEngine()
    assert engine.run() == 0
    assert engine.now == 0
    assert engine.events_processed == engine.events_scheduled == 0


def test_events_processed_counter():
    engine = EventEngine()
    for delay in (1, 2, 3):
        engine.call_after(delay, lambda: None)
    engine.run()
    assert engine.events_processed == 3
    assert engine.events_scheduled == 3


def test_deterministic_interleaving_with_nested_events():
    def run_once():
        engine = EventEngine()
        order = []

        def chain(n):
            order.append(n)
            if n < 5:
                engine.call_after(n + 1, lambda: chain(n + 1))

        engine.call_after(0, lambda: chain(0))
        engine.call_after(3, lambda: order.append(100))
        engine.run()
        return order

    assert run_once() == run_once()


def test_call_every_fires_at_fixed_cadence():
    engine = EventEngine()
    ticks = []
    engine.call_after(10, lambda: None)
    engine.call_after(100, lambda: None)
    engine.call_every(30, lambda: ticks.append(engine.now))
    engine.run()
    # The sampler keeps pace with real work (the events at 10 and
    # 100) but stops rescheduling once it is the only thing left, so
    # it never keeps a drained simulation alive.
    assert ticks == [30, 60, 90, 120]
    assert engine.run() == 0


def test_call_every_stops_when_engine_is_otherwise_idle():
    engine = EventEngine()
    ticks = []
    engine.call_every(25, lambda: ticks.append(engine.now))
    engine.run()
    assert ticks == [25]


def test_call_every_ticks_count_as_events():
    engine = EventEngine()
    ticks = []
    engine.call_after(100, lambda: None)
    engine.call_every(25, lambda: ticks.append(engine.now))
    engine.run()
    assert ticks == [25, 50, 75, 100]
    # One real event and four ticks, every one of them fired.
    assert engine.events_scheduled == engine.events_processed == 5


def test_call_every_rejects_nonpositive_interval():
    engine = EventEngine()
    with pytest.raises(ValueError):
        engine.call_every(0, lambda: None)
    with pytest.raises(ValueError):
        engine.call_every(-5, lambda: None)


def test_clear_drops_pending_events():
    engine = EventEngine()
    fired = []
    engine.call_after(5, lambda: fired.append("later"))
    engine.call_after(3, lambda: fired.append("first"))
    engine.call_after(7, lambda: None)
    engine.run(max_events=1)  # a stopped run: two events left queued
    assert fired == ["first"]
    engine.clear()
    assert engine.run() == 0
    assert fired == ["first"]
    # The clock stays where the stopped run left it, and the engine
    # still takes new work.
    assert engine.now == 3
    engine.call_after(2, lambda: fired.append("after"))
    assert engine.run() == 1
    assert fired == ["first", "after"] and engine.now == 5


def test_clear_from_a_callback_ends_the_run():
    engine = EventEngine()
    fired = []

    def stop():
        fired.append("stop")
        engine.clear()

    engine.call_after(1, lambda: fired.append("before"))
    engine.call_after(2, stop)
    engine.call_after(3, lambda: fired.append("after"))
    assert engine.run() == 2
    assert fired == ["before", "stop"]
    assert engine.now == 2
