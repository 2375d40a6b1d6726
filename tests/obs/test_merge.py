"""Merge rules for sharded-hub aggregation (snapshot_state/merge_snapshot).

A sharded run ships each worker's :class:`~repro.obs.hub.MetricsHub` over
a pipe as a plain dict and folds K of them into one parent hub.  These
tests pin the merge semantics: counters sum (so K merged shard hubs equal
the single hub one process would have kept), gauges take the max,
histograms concatenate raw samples, series merge-sort, counter groups add
field-wise without reaching a parent hub, and tracer spans replay with
first-delivery-per-node intact.
"""

import pytest

from repro.obs.hub import MetricsHub


def _workload(
    hub: MetricsHub, deliveries: int, queue_depth: float, start: float = 0.0
) -> None:
    """A synthetic slice of simulation traffic against one hub."""
    for index in range(deliveries):
        hub.counter("net.delivered").inc()
        hub.histogram("latency").observe(0.01 * (index + 1))
        hub.series("backlog").record(start + index, float(index % 3))
        hub.node(f"n{index % 2}").counter("soap.sent").inc()
    hub.gauge("queue.depth").value = queue_depth
    hub.wire.serialize_count.inc(deliveries)
    hub.batch.batches_sent.inc(1)


class TestCounterMerge:
    def test_counters_sum_to_single_hub_run(self):
        # The same traffic split across two shard hubs must merge to
        # exactly what one hub would have counted.
        single = MetricsHub(name="single")
        _workload(single, 3, 5.0)
        _workload(single, 4, 2.0, start=10.0)

        shard_a, shard_b = MetricsHub(name="a"), MetricsHub(name="b")
        _workload(shard_a, 3, 5.0)
        _workload(shard_b, 4, 2.0, start=10.0)
        merged = MetricsHub.merged(
            [shard_a.snapshot_state(), shard_b.snapshot_state()]
        )

        assert merged.counters() == single.counters()

    def test_labeled_counters_do_not_double_count(self):
        # A labelled inc on the shard already bumped the shard's
        # unlabelled aggregate; the merge must add the labelled value
        # directly, not inc() through the aggregate again.
        shard = MetricsHub(name="shard")
        shard.node("n0").counter("soap.sent").inc(7)
        assert shard.counter("soap.sent").value == 7

        merged = MetricsHub.merged([shard.snapshot_state()])
        assert merged.counter("soap.sent").value == 7
        assert merged.labeled_counters() == shard.labeled_counters()

    def test_merged_labeled_counter_still_aggregates_new_incs(self):
        shard = MetricsHub(name="shard")
        shard.node("n0").counter("soap.sent").inc(2)
        merged = MetricsHub.merged([shard.snapshot_state()])
        # Post-merge the labelled counter remains live and chained.
        merged.node("n0").counter("soap.sent").inc()
        assert merged.counter("soap.sent").value == 3


class TestGaugeMerge:
    def test_gauges_take_the_max(self):
        shard_a, shard_b = MetricsHub(), MetricsHub()
        shard_a.gauge("queue.depth").value = 5.0
        shard_b.gauge("queue.depth").value = 9.0
        merged = MetricsHub.merged(
            [shard_a.snapshot_state(), shard_b.snapshot_state()]
        )
        assert merged.gauge("queue.depth").value == 9.0

    def test_merge_order_does_not_matter(self):
        shard_a, shard_b = MetricsHub(), MetricsHub()
        shard_a.gauge("queue.depth").value = 5.0
        shard_b.gauge("queue.depth").value = 9.0
        forward = MetricsHub.merged(
            [shard_a.snapshot_state(), shard_b.snapshot_state()]
        )
        backward = MetricsHub.merged(
            [shard_b.snapshot_state(), shard_a.snapshot_state()]
        )
        assert (
            forward.gauge("queue.depth").value
            == backward.gauge("queue.depth").value
        )

    def test_labeled_gauges_take_the_max(self):
        shard_a, shard_b = MetricsHub(), MetricsHub()
        shard_a.node("n0").gauge("inbox").value = 3.0
        shard_b.node("n0").gauge("inbox").value = 1.0
        merged = MetricsHub.merged(
            [shard_a.snapshot_state(), shard_b.snapshot_state()]
        )
        assert merged.node("n0").gauge("inbox").value == 3.0


class TestHistogramAndSeriesMerge:
    def test_histograms_concatenate_raw_samples(self):
        shard_a, shard_b = MetricsHub(), MetricsHub()
        for value in (0.1, 0.2):
            shard_a.histogram("latency").observe(value)
        for value in (0.3, 0.4, 0.5):
            shard_b.histogram("latency").observe(value)
        merged = MetricsHub.merged(
            [shard_a.snapshot_state(), shard_b.snapshot_state()]
        )
        histogram = merged.histogram("latency")
        assert histogram.count == 5
        assert histogram.total == pytest.approx(1.5)
        assert histogram.percentile(100.0) == 0.5

    def test_series_merge_sorted_by_time(self):
        shard_a, shard_b = MetricsHub(), MetricsHub()
        shard_a.series("backlog").record(1.0, 10.0)
        shard_a.series("backlog").record(3.0, 30.0)
        shard_b.series("backlog").record(2.0, 20.0)
        merged = MetricsHub.merged(
            [shard_a.snapshot_state(), shard_b.snapshot_state()]
        )
        assert merged.series("backlog").samples() == [
            (1.0, 10.0),
            (2.0, 20.0),
            (3.0, 30.0),
        ]


class TestStatGroupMerge:
    def test_groups_add_field_wise(self):
        shard_a, shard_b = MetricsHub(), MetricsHub()
        shard_a.wire.serialize_count.inc(3)
        shard_a.health.retries.inc(1)
        shard_b.wire.serialize_count.inc(4)
        shard_b.overload.admitted.inc(9)
        merged = MetricsHub.merged(
            [shard_a.snapshot_state(), shard_b.snapshot_state()]
        )
        assert merged.wire.serialize_count.value == 7
        assert merged.health.retries.value == 1
        assert merged.overload.admitted.value == 9

    def test_group_merge_does_not_propagate_to_parent(self):
        # A merge sets values in place, like a reset: only inc() walks
        # the parent chain, so a merged hub never re-adds its totals to
        # the hub above it.
        parent = MetricsHub(name="parent")
        child = MetricsHub(parent=parent, name="child")
        shard = MetricsHub(name="shard")
        shard.wire.parse_count.inc(11)
        shard.node("n0").counter("soap.sent").inc(2)
        child.merge_snapshot(shard.snapshot_state())
        assert child.wire.parse_count.value == 11
        assert child.counter("soap.sent").value == 2
        assert parent.wire.parse_count.value == 0
        assert parent.counter("soap.sent").value == 0


class TestSpanMerge:
    def test_spans_replay_with_first_delivery_semantics(self):
        # The publish lives on one shard, deliveries on others; the merged
        # tracer must reassemble one span with first-per-node deliveries.
        origin_shard, other_shard = MetricsHub(), MetricsHub()
        origin_shard.tracer.on_publish("m1", "initiator", 0.0, budget=3)
        origin_shard.tracer.on_deliver("m1", "d0", 0.5, hops_left=2)
        other_shard.tracer.on_deliver("m1", "d1", 0.4, hops_left=2)
        other_shard.tracer.on_deliver("m1", "d1", 0.9, hops_left=1)  # dup
        other_shard.tracer.on_forward("m1", "d1", 0.6, targets=2)

        merged = MetricsHub.merged(
            [origin_shard.snapshot_state(), other_shard.snapshot_state()]
        )
        spans = merged.tracer.spans()
        assert len(spans) == 1
        span = spans[0]
        assert span.origin == "initiator"
        assert span.budget == 3
        assert span.delivered_count == 2  # d1 counted once
        assert merged.tracer.deliveries_per_node() == {"d0": 1, "d1": 1}
        assert span.forwards == [(0.6, "d1", 2)]

    def test_merge_equals_single_tracer(self):
        single = MetricsHub()
        single.tracer.on_publish("m1", "initiator", 0.0, budget=2)
        single.tracer.on_deliver("m1", "a", 0.3, hops_left=1)
        single.tracer.on_deliver("m1", "b", 0.7, hops_left=0)

        shard_a, shard_b = MetricsHub(), MetricsHub()
        shard_a.tracer.on_publish("m1", "initiator", 0.0, budget=2)
        shard_a.tracer.on_deliver("m1", "a", 0.3, hops_left=1)
        shard_b.tracer.on_deliver("m1", "b", 0.7, hops_left=0)
        merged = MetricsHub.merged(
            [shard_a.snapshot_state(), shard_b.snapshot_state()]
        )

        reference = single.tracer.spans()[0]
        candidate = merged.tracer.spans()[0]
        assert candidate.deliveries == reference.deliveries
        assert candidate.publish_time == reference.publish_time

    def test_replaying_the_same_snapshot_is_idempotent_for_deliveries(self):
        # Sharded runs can ship overlapping span state (a rumor seen by
        # two shards); first-arrival-per-node semantics make the replay
        # idempotent rather than double-counting deliveries.
        shard = MetricsHub()
        shard.tracer.on_publish("m1", "initiator", 0.0, budget=3)
        shard.tracer.on_deliver("m1", "a", 0.3, hops_left=2)
        shard.tracer.on_deliver("m1", "b", 0.7, hops_left=1)
        state = shard.snapshot_state()

        merged = MetricsHub.merged([state, state])
        span = merged.tracer.spans()[0]
        assert span.delivered_count == 2
        assert len(span.deliveries) == 2
        assert merged.tracer.deliveries_per_node() == {"a": 1, "b": 1}

    def test_merging_a_spanless_hub_leaves_the_tracer_untouched(self):
        # A hub that counted traffic but never traced a rumor (e.g. a
        # consumer-only shard) must merge cleanly without minting spans.
        traced, spanless = MetricsHub(), MetricsHub()
        traced.tracer.on_publish("m1", "initiator", 0.0, budget=2)
        traced.tracer.on_deliver("m1", "a", 0.4, hops_left=1)
        spanless.counter("net.delivered").inc(5)

        merged = MetricsHub.merged(
            [traced.snapshot_state(), spanless.snapshot_state()]
        )
        assert len(merged.tracer.spans()) == 1
        assert merged.tracer.spans()[0].delivered_count == 1
        assert merged.counter("net.delivered").value == 5
