"""Tests for FIFO ordered delivery: the holdback buffer and end-to-end."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.api import GossipConfig
from repro.core.ordering import FifoBuffer


class TestFifoBuffer:
    def test_in_order_released_immediately(self):
        buffer = FifoBuffer()
        assert buffer.offer("o", 0, "a") == ["a"]
        assert buffer.offer("o", 1, "b") == ["b"]

    def test_gap_holds_back(self):
        buffer = FifoBuffer()
        assert buffer.offer("o", 1, "b") == []
        assert buffer.held_count("o") == 1
        assert buffer.offer("o", 0, "a") == ["a", "b"]
        assert buffer.held_count("o") == 0

    def test_multiple_gaps_release_in_order(self):
        buffer = FifoBuffer()
        assert buffer.offer("o", 3, "d") == []
        assert buffer.offer("o", 1, "b") == []
        assert buffer.offer("o", 2, "c") == []
        assert buffer.offer("o", 0, "a") == ["a", "b", "c", "d"]

    def test_origins_are_independent(self):
        buffer = FifoBuffer()
        assert buffer.offer("x", 0, "x0") == ["x0"]
        assert buffer.offer("y", 1, "y1") == []
        assert buffer.offer("x", 1, "x1") == ["x1"]
        assert buffer.offer("y", 0, "y0") == ["y0", "y1"]

    def test_duplicates_release_nothing(self):
        buffer = FifoBuffer()
        buffer.offer("o", 0, "a")
        assert buffer.offer("o", 0, "a-again") == []
        buffer.offer("o", 2, "c")
        assert buffer.offer("o", 2, "c-again") == []

    def test_overflow_skips_oldest_gap(self):
        buffer = FifoBuffer(holdback_limit=3)
        # Sequence 0 never arrives; 1..4 pile up past the limit.
        for sequence in (1, 2, 3):
            assert buffer.offer("o", sequence, sequence) == []
        released = buffer.offer("o", 4, 4)
        assert released == [1, 2, 3, 4]  # gap 0 abandoned
        assert buffer.skipped == 1
        assert buffer.next_expected("o") == 5

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            FifoBuffer(holdback_limit=0)

    @given(st.permutations(list(range(12))))
    def test_any_arrival_order_releases_in_order(self, arrival_order):
        buffer = FifoBuffer()
        released = []
        for sequence in arrival_order:
            released.extend(buffer.offer("o", sequence, sequence))
        assert released == list(range(12))
        assert buffer.held_count() == 0


class TestOrderedEndToEnd:
    def _run(self, loss_rate):
        group = GossipConfig(
            n_disseminators=10,
            seed=8,
            loss_rate=loss_rate,
            params={"style": "push-pull", "fanout": 4, "rounds": 6,
                    "ordered": True, "period": 0.4},
            auto_tune=False,
        ).build()
        group.setup()
        message_ids = [group.publish({"seq": index}) for index in range(8)]
        group.run_for(25.0)
        return group, message_ids

    def test_all_delivered_and_in_order_lossless(self):
        group, message_ids = self._run(loss_rate=0.0)
        for mid in message_ids:
            assert group.delivered_fraction(mid) == 1.0
        for node in group.disseminators:
            sequences = [delivery.value["seq"] for delivery in node.deliveries]
            assert sequences == sorted(sequences)

    def test_order_holds_under_loss_with_repair(self):
        group, message_ids = self._run(loss_rate=0.15)
        for mid in message_ids:
            assert group.delivered_fraction(mid) == 1.0
        violations = 0
        for node in group.disseminators:
            sequences = [delivery.value["seq"] for delivery in node.deliveries]
            if sequences != sorted(sequences):
                violations += 1
        assert violations == 0

    def test_holdback_metrics_present_under_loss(self):
        group, _ = self._run(loss_rate=0.15)
        counters = group.message_counts()
        # Loss reorders arrivals, so something must have been held back
        # and later released.
        assert counters.get("gossip.released-in-order", 0) > 0

    def test_burst_before_registration_does_not_block_the_origin(self):
        # With the default lazy join a node's first arrivals beat its
        # RegisterResponse (and so the "ordered" param).  They must still
        # advance the FIFO watermark: a later publication from the same
        # origin used to be held back for good (delivered to no one).
        group = GossipConfig(
            n_disseminators=12, seed=11,
            params={"style": "push", "fanout": 3, "rounds": 6, "ordered": True},
        ).build()
        group.setup()
        burst = [group.publish({"seq": index}) for index in range(7)]
        group.run_for(3.0)
        late = group.publish({"seq": 7})
        group.run_for(3.0)
        for mid in [*burst, late]:
            assert group.delivered_fraction(mid) == 1.0
        for node in group.disseminators:
            sequences = [delivery.value["seq"] for delivery in node.deliveries]
            assert sequences == sorted(sequences)


def test_unordered_activity_ignores_sequence_machinery():
    group = GossipConfig(
        n_disseminators=6, seed=9,
        params={"fanout": 3, "rounds": 5},
        auto_tune=False,
    ).build()
    group.setup()
    mid = group.publish({"x": 1})
    group.run_for(5.0)
    assert group.delivered_fraction(mid) == 1.0
    assert group.message_counts().get("gossip.held-back", 0) == 0
