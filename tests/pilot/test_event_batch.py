"""Edge cases of the batched event-queue primitives.

``schedule_many`` (amortized bulk insert) and ``account_batch``
(externally simulated batch credit) are the two primitives the SoA phase
engine leans on; these tests pin their behavior where the reference
loop's lazy-cancellation and compaction machinery interacts with
batching.
"""

from __future__ import annotations

import pytest

from repro.pilot.events import EventQueue, SimulationError


class TestScheduleManyCompaction:
    def _flood_with_dead(self, q, n=200, t=5.0):
        events = [q.schedule(t, lambda: None) for _ in range(n)]
        for event in events:
            event.cancel()

    def test_bulk_insert_into_freshly_compacted_queue(self):
        """Mass cancellation triggers compaction; a schedule_many right
        after must land in the rebuilt heap with order intact."""
        q = EventQueue()
        self._flood_with_dead(q)
        # compaction ran at least once (the heap no longer holds all 200
        # corpses); a sub-threshold tail of dead entries may remain
        assert len(q._heap) < 200
        assert len(q) == 0
        fired = []
        q.schedule_many(
            [(float(d), lambda d=d: fired.append(d)) for d in (3, 1, 2)]
        )
        q.run()
        assert fired == [1, 2, 3]

    def test_bulk_insert_whose_heapify_folds_dead_entries(self):
        """schedule_many's heapify path rebuilds a heap that still holds
        lazily-cancelled entries below the compaction threshold — the
        dead count must survive the rebuild exactly."""
        q = EventQueue()
        live = []
        dead = [q.schedule(1.0, lambda: None) for _ in range(10)]
        for event in dead:
            event.cancel()
        n_dead = q.n_cancelled
        assert n_dead > 0  # below threshold: no compaction yet
        # a batch large enough (>= half the heap) to take the heapify path
        q.schedule_many(
            [(2.0, lambda i=i: live.append(i)) for i in range(30)]
        )
        assert q.n_cancelled == n_dead
        assert len(q) == 30
        q.run()
        assert live == list(range(30))

    def test_empty_batch_is_a_no_op(self):
        q = EventQueue()
        marker = q.schedule(1.0, lambda: None)
        assert q.schedule_many([]) == []
        assert len(q) == 1
        assert q.peak_heap == 1
        marker.cancel()

    def test_interleaved_batch_and_single_schedules_fire_in_seq_order(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append("s1"))
        q.schedule_many(
            [(1.0, lambda: fired.append("b1")), (1.0, lambda: fired.append("b2"))]
        )
        q.schedule(1.0, lambda: fired.append("s2"))
        q.run()
        assert (q.now, q.n_fired) == (1.0, 4)
        assert fired == ["s1", "b1", "b2", "s2"]


class TestAccountBatch:
    def test_credits_counters_and_clock(self):
        q = EventQueue()
        q.account_batch(100, 42.0, peak=17)
        assert q.n_fired == 100
        assert q.now == 42.0
        assert q.peak_heap == 17

    def test_zero_event_batch_moves_nothing_backwards(self):
        q = EventQueue()
        q.account_batch(0, 0.0)
        assert (q.n_fired, q.now) == (0, 0.0)

    def test_peak_is_high_water_not_last_write(self):
        q = EventQueue()
        q.account_batch(1, 1.0, peak=50)
        q.account_batch(1, 2.0, peak=10)
        assert q.peak_heap == 50

    def test_rejects_negative_event_count(self):
        q = EventQueue()
        with pytest.raises(SimulationError, match="n_events"):
            q.account_batch(-1, 1.0)

    def test_rejects_backwards_clock(self):
        q = EventQueue()
        q.account_batch(1, 10.0)
        with pytest.raises(SimulationError, match="backwards"):
            q.account_batch(1, 9.0)

    def test_refuses_to_skip_pending_live_events(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        with pytest.raises(SimulationError, match="skip pending"):
            q.account_batch(10, 6.0)

    def test_pending_cancelled_events_do_not_block(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None).cancel()
        q.account_batch(3, 6.0)  # the only pending event is dead
        assert q.now == 6.0
        assert q.n_fired == 3
