"""Tests for the event queue, link and channel."""

import pytest

from repro.distsys import Channel, EventQueue, Link
from repro.distsys.network import ServiceSums


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        seen = []
        q.schedule(3.0, lambda: seen.append("c"))
        q.schedule(1.0, lambda: seen.append("a"))
        q.schedule(2.0, lambda: seen.append("b"))
        q.run()
        assert seen == ["a", "b", "c"]
        assert q.now == 3.0

    def test_fifo_within_timestamp(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, lambda: seen.append(1))
        q.schedule(1.0, lambda: seen.append(2))
        q.run()
        assert seen == [1, 2]

    def test_cannot_schedule_in_the_past(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        with pytest.raises(ValueError, match="before now"):
            q.schedule(0.5, lambda: None)

    def test_events_may_schedule_events(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, lambda: q.schedule(q.now + 1.0, lambda: seen.append("x")))
        q.run()
        assert seen == ["x"] and q.now == 2.0


class TestLink:
    def test_transfer_time(self):
        link = Link(latency=2.0, bandwidth=4.0)
        assert link.transfer_time(8.0) == pytest.approx(4.0)

    def test_vectorised_retrievals(self):
        import numpy as np

        link = Link(latency=1.0, bandwidth=2.0)
        out = link.retrieval_times(np.array([2.0, 4.0]))
        assert out.tolist() == [2.0, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Link(latency=-1.0)
        with pytest.raises(ValueError):
            Link(bandwidth=0.0)
        with pytest.raises(ValueError):
            Link().transfer_time(-1.0)


class TestChannel:
    def test_sequential_transfers(self):
        ch = Channel()
        assert ch.enqueue(0.0, 5.0, True) == 5.0
        assert ch.enqueue(0.0, 3.0, True) == 8.0  # queued behind the first

    def test_idle_gap_not_reused(self):
        ch = Channel()
        ch.enqueue(0.0, 1.0, True)
        assert ch.enqueue(10.0, 1.0, False) == 11.0  # channel idle since t=1

    def test_backlog(self):
        ch = Channel()
        ch.enqueue(0.0, 4.0, True)
        assert ch.backlog(1.0) == pytest.approx(3.0)
        assert ch.backlog(9.0) == 0.0
        assert ch.sums.total == pytest.approx(4.0)

    def test_penalty_and_backlog_fold_like_the_uplink(self):
        # The in-flight head carries the server penalty; queued transfers
        # count only their bare durations, as ServerUplink.backlog folds.
        ch = Channel(penalty=2.0)
        assert ch.enqueue(0.0, 4.0, True) == 6.0
        assert ch.enqueue(0.0, 3.0, True) == 11.0
        assert ch.backlog(1.0) == 6.0 + 3.0 - 1.0
        assert ch.backlog(7.0) == 11.0 - 7.0

    def test_channels_share_service_sums_in_enqueue_order(self):
        sums = ServiceSums()
        a, b = Channel(1.0, sums), Channel(1.0, sums)
        a.enqueue(0.0, 2.0, True)
        b.enqueue(0.0, 4.0, False)
        assert sums.total == 3.0 + 5.0
        assert sums.prefetch == 3.0
        assert sums.squares == 9.0 + 25.0
