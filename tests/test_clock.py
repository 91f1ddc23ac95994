"""Unit tests for the simulated clock, its event scheduler and the id
factory, the two sources a seed makes deterministic."""

import pytest

from repro.clock import SimClock
from repro.ids import IdFactory


def test_starts_at_given_time():
    assert SimClock().now() == 0.0
    assert SimClock(start=100.5).now() == 100.5


def test_advance_moves_time_forward():
    clock = SimClock()
    clock.advance(10)
    assert clock.now() == 10
    clock.advance(0.5)
    assert clock.now() == 10.5


def test_advance_rejects_negative():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_run_until_rejects_past_deadline():
    clock = SimClock(start=50)
    with pytest.raises(ValueError):
        clock.run_until(49)


def test_call_later_fires_on_advance():
    clock = SimClock()
    fired = []
    clock.call_later(5, lambda: fired.append(clock.now()))
    clock.advance(4.9)
    assert fired == []
    clock.advance(0.2)
    assert fired == [5.0]


def test_call_at_rejects_past():
    clock = SimClock(start=10)
    with pytest.raises(ValueError):
        clock.call_at(9, lambda: None)


def test_events_fire_in_time_then_registration_order():
    clock = SimClock()
    order = []
    clock.call_later(2, lambda: order.append("b"))
    clock.call_later(1, lambda: order.append("a"))
    clock.call_later(2, lambda: order.append("c"))
    clock.advance(3)
    assert order == ["a", "b", "c"]


def test_callback_observes_its_scheduled_time():
    clock = SimClock()
    seen = []
    clock.call_later(7, lambda: seen.append(clock.now()))
    clock.advance(100)
    assert seen == [7.0]
    assert clock.now() == 100


def test_cancelled_event_does_not_fire():
    clock = SimClock()
    fired = []
    ev = clock.call_later(1, lambda: fired.append(1))
    ev.cancel()
    clock.advance(2)
    assert fired == []
    assert clock.pending_events() == 0


def test_event_may_schedule_followup_within_window():
    clock = SimClock()
    hits = []

    def first():
        hits.append(("first", clock.now()))
        clock.call_later(1, lambda: hits.append(("second", clock.now())))

    clock.call_later(1, first)
    clock.advance(5)
    assert hits == [("first", 1.0), ("second", 2.0)]


def test_pending_events_counts_uncancelled():
    clock = SimClock()
    e1 = clock.call_later(1, lambda: None)
    clock.call_later(2, lambda: None)
    assert clock.pending_events() == 2
    e1.cancel()
    assert clock.pending_events() == 1


def test_interleaved_schedule_and_advance_preserves_order():
    """Scheduling between advances must not reorder earlier-due events —
    the property the resilience layer's backoff timers rely on."""
    clock = SimClock()
    order = []
    clock.call_later(10, lambda: order.append("late"))
    clock.advance(3)
    # due before "late" although registered after it
    clock.call_at(5, lambda: order.append("early"))
    clock.call_at(5, lambda: order.append("early2"))
    clock.advance(4)
    assert order == ["early", "early2"]
    clock.advance(10)
    assert order == ["early", "early2", "late"]


def test_same_instant_callback_fires_during_advance():
    clock = SimClock(start=2.0)
    fired = []
    clock.call_at(2.0, lambda: fired.append(clock.now()))
    assert fired == []  # scheduling alone never runs callbacks
    clock.advance(0)
    assert fired == [2.0]


def test_event_schedule_is_deterministic():
    """Two identically-driven clocks produce identical firing traces —
    the bit-for-bit reproducibility contract every bench leans on."""

    def drive():
        clock = SimClock(start=7.0)
        trace = []

        def tick(label, period, remaining):
            trace.append((label, clock.now()))
            if remaining > 0:
                clock.call_later(period, lambda: tick(label, period, remaining - 1))

        clock.call_later(0.3, lambda: tick("a", 1.0, 3))
        clock.call_later(0.7, lambda: tick("b", 0.5, 5))
        clock.advance(2.0)
        clock.run_until(11.0)
        return trace, clock.now()

    assert drive() == drive()


def test_ids_deterministic_per_seed():
    a, b = IdFactory(7), IdFactory(7)
    assert [a.next("x") for _ in range(3)] == [b.next("x") for _ in range(3)]
    assert a.secret(16) == b.secret(16)
    assert IdFactory(8).secret(16) != IdFactory(9).secret(16)


def test_ids_namespaced_counters():
    ids = IdFactory(1)
    assert ids.next("user") == "user-0001"
    assert ids.next("proj") == "proj-0001"
    assert ids.next("user") == "user-0002"


def test_ids_jti_unique():
    ids = IdFactory(1)
    jtis = {ids.jti() for _ in range(100)}
    assert len(jtis) == 100


def test_ids_secret_validation():
    with pytest.raises(ValueError):
        IdFactory(1).secret(0)
