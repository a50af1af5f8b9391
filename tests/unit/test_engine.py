"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Event, EventEngine


def test_events_fire_in_time_order():
    engine = EventEngine()
    fired = []
    engine.schedule(30, lambda: fired.append("c"))
    engine.schedule(10, lambda: fired.append("a"))
    engine.schedule(20, lambda: fired.append("b"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    engine = EventEngine()
    fired = []
    for label in ("first", "second", "third"):
        engine.schedule(5, lambda label=label: fired.append(label))
    engine.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    engine = EventEngine()
    seen = []
    engine.schedule(42, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [42]
    assert engine.now == 42


def test_schedule_at_absolute_time():
    engine = EventEngine()
    seen = []
    engine.schedule_at(100, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [100]


def test_schedule_in_past_rejected():
    engine = EventEngine()
    engine.schedule(10, lambda: None)
    engine.step()
    with pytest.raises(ValueError):
        engine.schedule_at(5, lambda: None)
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_nested_scheduling_from_callback():
    engine = EventEngine()
    fired = []

    def outer():
        fired.append(("outer", engine.now))
        engine.schedule(5, lambda: fired.append(("inner", engine.now)))

    engine.schedule(10, outer)
    engine.run()
    assert fired == [("outer", 10), ("inner", 15)]


def test_cancelled_events_do_not_fire():
    engine = EventEngine()
    fired = []
    event = engine.schedule(10, lambda: fired.append("cancelled"))
    engine.schedule(20, lambda: fired.append("kept"))
    event.cancel()
    engine.run()
    assert fired == ["kept"]


def test_run_until_stops_before_later_events():
    engine = EventEngine()
    fired = []
    engine.schedule(10, lambda: fired.append(10))
    engine.schedule(50, lambda: fired.append(50))
    engine.run(until=20)
    assert fired == [10]
    assert engine.pending == 1
    engine.run()
    assert fired == [10, 50]


def test_max_events_limit():
    engine = EventEngine()
    count = []
    for _ in range(10):
        engine.schedule(1, lambda: count.append(1))
    processed = engine.run(max_events=3)
    assert processed == 3
    assert len(count) == 3


def test_peek_time_skips_cancelled():
    engine = EventEngine()
    first = engine.schedule(5, lambda: None)
    engine.schedule(9, lambda: None)
    first.cancel()
    assert engine.peek_time() == 9


def test_events_processed_counter():
    engine = EventEngine()
    for delay in (1, 2, 3):
        engine.schedule(delay, lambda: None)
    engine.run()
    assert engine.events_processed == 3


def test_step_returns_false_when_empty():
    engine = EventEngine()
    assert engine.step() is False


def test_event_uses_slots():
    engine = EventEngine()
    event = engine.schedule(1, lambda: None)
    assert not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.arbitrary_attribute = 1


def test_pending_counts_live_events():
    engine = EventEngine()
    events = [engine.schedule(i + 1, lambda: None) for i in range(10)]
    assert engine.pending == 10
    events[3].cancel()
    events[7].cancel()
    assert engine.pending == 8
    # Double-cancel must not double-count.
    events[3].cancel()
    assert engine.pending == 8
    engine.step()  # fires event 0
    assert engine.pending == 7
    engine.run()
    assert engine.pending == 0


def test_pending_consistent_under_random_cancellation():
    """The live counter must match a brute-force scan at every step,
    including across lazy pops and heap compactions."""
    rng = random.Random(7)
    engine = EventEngine()
    handles = []

    def scan():
        return sum(
            1 for entry in engine._heap if not entry[2].cancelled
        )

    for round_number in range(300):
        handles.append(engine.schedule(rng.randrange(50), lambda: None))
        if handles and rng.random() < 0.6:
            rng.choice(handles).cancel()
        if rng.random() < 0.3:
            engine.step()
        assert engine.pending == scan(), "round %d" % round_number
    engine.run()
    assert engine.pending == scan() == 0


def test_compaction_preserves_order_and_counts():
    engine = EventEngine()
    fired = []
    keep = []
    cancel = []
    for i in range(400):
        handle = engine.schedule(
            1000 - i, lambda i=i: fired.append(1000 - i)
        )
        (cancel if i % 3 else keep).append(handle)
    for handle in cancel:
        handle.cancel()
    # Enough cancellations to have forced at least one compaction.
    assert engine.pending == len(keep)
    assert len(engine._heap) < 400
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(keep)
    assert engine.pending == 0


def test_compaction_during_run_callback():
    """A callback that mass-cancels (triggering in-place compaction)
    must not derail the drain loop's view of the heap."""
    engine = EventEngine()
    fired = []
    victims = [
        engine.schedule(10 + i, lambda: fired.append("victim"))
        for i in range(200)
    ]

    def slaughter():
        for victim in victims:
            victim.cancel()

    engine.schedule(5, slaughter)
    survivor = engine.schedule(500, lambda: fired.append("survivor"))
    engine.run()
    assert fired == ["survivor"]
    assert engine.pending == 0
    assert survivor.cancelled is False


def test_cancelled_event_repr():
    event = Event(5, 0, lambda: None)
    event.cancel()
    assert "cancelled=True" in repr(event)


def test_deterministic_interleaving_with_nested_events():
    def run_once():
        engine = EventEngine()
        order = []

        def chain(n):
            order.append(n)
            if n < 5:
                engine.schedule(n + 1, lambda: chain(n + 1))

        engine.schedule(0, lambda: chain(0))
        engine.schedule(3, lambda: order.append(100))
        engine.run()
        return order

    assert run_once() == run_once()


def test_call_every_fires_at_fixed_cadence():
    engine = EventEngine()
    ticks = []
    engine.schedule(10, lambda: None)
    engine.schedule(100, lambda: None)
    engine.call_every(30, lambda: ticks.append(engine.now))
    engine.run()
    # The sampler keeps pace with real work (the events at 10 and
    # 100) but stops rescheduling once it is the only thing left, so
    # it never keeps a drained simulation alive.
    assert ticks == [30, 60, 90, 120]
    assert engine.pending == 0


def test_call_every_stops_when_engine_is_otherwise_idle():
    engine = EventEngine()
    ticks = []
    engine.call_every(25, lambda: ticks.append(engine.now))
    engine.run()
    assert ticks == [25]


def test_call_every_rejects_nonpositive_interval():
    engine = EventEngine()
    with pytest.raises(ValueError):
        engine.call_every(0, lambda: None)
    with pytest.raises(ValueError):
        engine.call_every(-5, lambda: None)


def test_clear_drops_pending_events():
    engine = EventEngine()
    fired = []
    engine.schedule(5, lambda: fired.append("handle"))
    engine.call_after(3, lambda: fired.append("bare"))
    engine.schedule(7, lambda: None).cancel()
    engine.run(max_events=1)  # a stopped run: two events left queued
    assert fired == ["bare"] and engine.pending == 1
    engine.clear()
    assert engine.pending == 0
    assert engine.peek_time() is None
    assert engine.run() == 0
    assert fired == ["bare"]
    # The clock stays where the stopped run left it, and the engine
    # still takes new work.
    assert engine.now == 3
    engine.schedule(2, lambda: fired.append("after"))
    assert engine.run() == 1
    assert fired == ["bare", "after"] and engine.now == 5


def test_cancel_after_clear_keeps_pending_exact():
    engine = EventEngine()
    stale = [engine.schedule(i + 1, lambda: None) for i in range(3)]
    engine.clear()
    for event in stale:
        event.cancel()
    assert engine.pending == 0
    live = engine.schedule(1, lambda: None)
    assert engine.pending == 1
    live.cancel()
    assert engine.pending == 0
