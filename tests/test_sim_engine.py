"""Unit tests: discrete-event engine."""

import pytest

from repro.sim.engine import Engine


def test_schedule_and_step():
    engine = Engine()
    fired = []
    engine.schedule_at(5.0, lambda: fired.append(engine.clock.now))
    assert engine.step()
    assert fired == [5.0]
    assert engine.clock.now == 5.0


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule_at(10.0, lambda: fired.append("b"))
    engine.schedule_at(5.0, lambda: fired.append("a"))
    engine.schedule_at(15.0, lambda: fired.append("c"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_insertion_order():
    engine = Engine()
    fired = []
    engine.schedule_at(5.0, lambda: fired.append(1))
    engine.schedule_at(5.0, lambda: fired.append(2))
    engine.run()
    assert fired == [1, 2]


def test_schedule_after():
    engine = Engine()
    engine.clock.advance_to(100.0)
    fired = []
    engine.schedule_after(5.0, lambda: fired.append(engine.clock.now))
    engine.run()
    assert fired == [105.0]


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.clock.advance_to(10.0)
    with pytest.raises(ValueError):
        engine.schedule_at(5.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Engine().schedule_after(-1.0, lambda: None)


def test_cancel():
    engine = Engine()
    fired = []
    event = engine.schedule_at(5.0, lambda: fired.append(1))
    event.cancel()
    engine.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule_at(5.0, lambda: fired.append("early"))
    engine.schedule_at(50.0, lambda: fired.append("late"))
    engine.run_until(10.0)
    assert fired == ["early"]
    assert engine.clock.now == 10.0
    engine.run()
    assert fired == ["early", "late"]


def test_periodic_every():
    engine = Engine()
    fired = []
    engine.every(10.0, lambda: fired.append(engine.clock.now))
    engine.run_until(35.0)
    assert fired == [10.0, 20.0, 30.0]


def test_periodic_cancel_stops_series():
    engine = Engine()
    fired = []
    series = engine.every(10.0, lambda: fired.append(engine.clock.now))
    engine.run_until(25.0)
    series.cancel()
    engine.run_until(100.0)
    assert fired == [10.0, 20.0]


def test_every_with_first_at():
    engine = Engine()
    fired = []
    engine.every(10.0, lambda: fired.append(engine.clock.now), first_at=0.0)
    engine.run_until(21.0)
    assert fired == [0.0, 10.0, 20.0]


def test_every_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        Engine().every(0.0, lambda: None)


def test_cancel_heavy_workload_compacts_queue():
    """Mass-cancelling periodic timers must not leave the heap full of
    dead entries: once cancelled events dominate, the queue compacts."""
    engine = Engine()
    fired = []
    keep = engine.every(7.0, lambda: fired.append(engine.clock.now))
    series = [engine.every(10.0, lambda: None) for _ in range(200)]
    assert engine.pending == 201
    for event in series:
        event.cancel()
    assert engine.compactions >= 1
    # Repeated compaction keeps the heap near the live count; only the
    # sub-floor residue (< _COMPACT_MIN entries) awaits a pop.
    from repro.sim.engine import _COMPACT_MIN

    assert engine.pending < _COMPACT_MIN
    assert engine.cancelled_pending == engine.pending - 1
    engine.run_until(15.0)
    # Popping the residue settles the counter; only ``keep`` survives.
    assert engine.pending == 1
    assert engine.cancelled_pending == 0
    assert fired == [7.0, 14.0]
    keep.cancel()


def test_small_queue_skips_compaction_but_counts():
    engine = Engine()
    events = [engine.schedule_at(5.0, lambda: None) for _ in range(10)]
    for event in events:
        event.cancel()
    # Below the compaction floor the entries stay queued...
    assert engine.compactions == 0
    assert engine.pending == 10
    assert engine.cancelled_pending == 10
    # ...and popping them in step() settles the books.
    assert not engine.run()
    assert engine.pending == 0
    assert engine.cancelled_pending == 0


def test_double_cancel_counts_once():
    engine = Engine()
    event = engine.schedule_at(5.0, lambda: None)
    event.cancel()
    event.cancel()
    assert engine.cancelled_pending == 1


def test_series_cancelled_inside_callback_leaves_no_garbage():
    engine = Engine()
    fired = []

    def tick():
        fired.append(engine.clock.now)
        series.cancel()

    series = engine.every(10.0, tick)
    engine.run()
    assert fired == [10.0]
    # Cancelled while popped, so there is no stale heap entry to count.
    assert engine.pending == 0
    assert engine.cancelled_pending == 0


def test_compaction_preserves_order_and_ties():
    engine = Engine()
    fired = []
    doomed = [engine.schedule_at(1.0, lambda: None) for _ in range(100)]
    engine.schedule_at(5.0, lambda: fired.append("a1"))
    engine.schedule_at(5.0, lambda: fired.append("a2"))
    engine.schedule_at(3.0, lambda: fired.append("b"))
    for event in doomed:
        event.cancel()
    assert engine.compactions >= 1
    engine.run()
    assert fired == ["b", "a1", "a2"]


def test_events_scheduled_during_run_are_processed():
    engine = Engine()
    fired = []

    def first():
        fired.append("first")
        engine.schedule_after(1.0, lambda: fired.append("second"))

    engine.schedule_at(5.0, first)
    engine.run()
    assert fired == ["first", "second"]
    assert engine.clock.now == 6.0


def test_heap_stays_bounded_under_cancel_churn():
    """Heavy cancel churn (the frontdoor's cancellation-on-first-
    response pattern) must not grow the heap without bound: lazy
    compaction keeps stale entries below ``2 * live + 1`` once the
    queue passes the compaction threshold."""
    from repro.sim.engine import _COMPACT_MIN

    engine = Engine()
    live = [engine.schedule_at(1e9 + i, lambda: None) for i in range(20)]
    max_pending = 0
    for round_ in range(200):
        # A hedged request: N speculative events, all but the winner
        # cancelled as soon as the first response lands.
        hedges = [engine.schedule_at(1000.0 + round_ + i / 16.0,
                                     lambda: None)
                  for i in range(16)]
        for event in hedges[1:]:
            event.cancel()
        hedges[0].cancel()
        max_pending = max(max_pending, engine.pending)
        # The bound: at most one uncompacted dead entry per live one
        # (plus the threshold below which compaction never bothers).
        assert engine.pending <= 2 * (len(live) + 1) + _COMPACT_MIN
        # The _note_cancelled postcondition: below the threshold the
        # engine never bothers; above it dead entries never reach a
        # majority of the heap.
        assert (engine.pending < _COMPACT_MIN
                or engine.cancelled_pending * 2 <= engine.pending)
    # 3200 cancels against 20 live events: compaction must have run
    # many times, and the heap never came close to 3200 entries.
    assert engine.compactions >= 10
    assert max_pending <= 2 * (20 + 16) + _COMPACT_MIN
    for event in live:
        event.cancel()
    engine.run()
    assert engine.pending == 0


def test_peek_names_the_event_step_runs_next():
    engine = Engine()
    fired = []
    for t_ms, tag in ((7.0, "c"), (3.0, "a"), (3.0, "b"), (9.0, "d")):
        engine.schedule_at(t_ms, lambda tag=tag: fired.append(tag))
    order = []
    while True:
        head = engine.peek()
        if head is None:
            break
        order.append(head)
        engine.step()
        # The peeked time is the one step() moved the clock to.
        assert engine.clock.now == head[0]
    assert fired == ["a", "b", "c", "d"]
    assert [t for t, _ in order] == [3.0, 3.0, 7.0, 9.0]
    # Equal times break ties by seq, exactly as the queue does.
    assert order[0][1] < order[1][1]
    assert not engine.step()


def test_peek_skips_cancelled_heads():
    engine = Engine()
    fired = []
    dead = [engine.schedule_at(1.0 + i, lambda: fired.append("dead"))
            for i in range(3)]
    engine.schedule_at(10.0, lambda: fired.append("live"))
    for event in dead:
        event.cancel()
    assert engine.cancelled_pending == 3
    assert engine.peek()[0] == 10.0
    # The dead heads were popped on the way, not just looked past.
    assert engine.cancelled_pending == 0 and engine.pending == 1
    assert engine.step() and fired == ["live"]
    assert engine.peek() is None


def test_drawn_seqs_interleave_with_scheduling_in_call_order():
    engine = Engine()
    engine.schedule_at(5.0, lambda: None)
    drawn_a = engine.next_seq()
    series = engine.every(5.0, lambda: None)
    drawn_b = engine.next_seq()
    engine.schedule_at(5.0, lambda: None)
    # Three queued events at t=5 plus two external draws: one counter,
    # so the seqs follow call order whatever drew them.
    seqs = []
    for _ in range(3):
        t_ms, seq = engine.peek()
        assert t_ms == 5.0
        seqs.append(seq)
        engine.step()
    assert seqs[0] < drawn_a < seqs[1] < drawn_b < seqs[2]
    # The periodic's re-arm at t=10 draws after everything above.
    assert engine.peek() == (10.0, drawn_b + 2)
    assert engine.next_seq() == drawn_b + 3
    series.cancel()
