"""Causal rumor tracing: spans, rounds, infection curves."""

import pytest

from repro.obs.tracing import RumorTracer


def make_traced_span():
    tracer = RumorTracer()
    tracer.on_publish("m1", "origin", 0.0, budget=4)
    tracer.on_forward("m1", "origin", 0.1, targets=2)
    tracer.on_deliver("m1", "a", 0.2, hops_left=3)  # round 1
    tracer.on_deliver("m1", "b", 0.3, hops_left=3)  # round 1
    tracer.on_forward("m1", "a", 0.35, targets=2)
    tracer.on_deliver("m1", "c", 0.4, hops_left=2)  # round 2
    tracer.on_deliver("m1", "c", 0.5, hops_left=3)  # duplicate: earlier round kept
    return tracer, tracer.span("m1")


def test_span_rounds_and_counts():
    tracer, span = make_traced_span()
    assert span.origin == "origin"
    assert span.delivered_count == 3
    assert sorted(span.rounds_of_deliveries()) == [1, 1, 2]
    assert len(span.forwards) == 2


def test_infection_curve_starts_at_origin():
    _, span = make_traced_span()
    curve = span.infection_curve()
    assert curve[0] == (0.0, 1)  # the origin knows the rumor at publish
    assert curve[-1][1] == 4  # origin + 3 distinct deliveries
    times = [time for time, _ in curve]
    assert times == sorted(times)


def test_delivered_by_round_cumulative():
    _, span = make_traced_span()
    by_round = span.delivered_by_round()
    assert by_round[0] == 1  # origin
    assert by_round[1] == 3
    assert by_round[2] == 4


def test_rounds_to_fraction():
    _, span = make_traced_span()
    assert span.rounds_to_fraction(0.5, population=4) == 1
    assert span.rounds_to_fraction(1.0, population=4) == 2
    assert span.rounds_to_fraction(1.0, population=100) is None
    with pytest.raises(ValueError):
        span.rounds_to_fraction(0.0, population=4)
    with pytest.raises(ValueError):
        span.rounds_to_fraction(0.5, population=0)


def test_budget_inferred_when_publish_unseen():
    tracer = RumorTracer()
    # Deliveries observed without a publish record (e.g. tracing switched
    # on mid-run): the budget is inferred from the largest hops_left + 1.
    tracer.on_deliver("m2", "a", 1.0, hops_left=5)
    tracer.on_deliver("m2", "b", 2.0, hops_left=3)
    span = tracer.span("m2")
    assert sorted(span.rounds_of_deliveries()) == [1, 3]


def test_tracer_percentiles_and_per_node():
    tracer, _ = make_traced_span()
    assert tracer.deliveries_per_node() == {"a": 1, "b": 1, "c": 1}
    assert sorted(tracer.all_delivery_rounds()) == [1, 1, 2]
    assert tracer.rounds_percentile(50) == 1.0
    assert tracer.rounds_percentile(100) == 2.0


def test_tracer_percentile_empty_raises():
    tracer = RumorTracer()
    with pytest.raises(ValueError):
        tracer.rounds_percentile(0.5)


def test_reset_drops_spans():
    tracer, _ = make_traced_span()
    tracer.reset()
    assert len(tracer) == 0
    assert tracer.span("m1") is None


def test_engine_emits_spans_through_batched_wire_path():
    """End to end: spans key on the wire MessageId, surviving batching."""
    from repro.core.api import GossipConfig

    group = GossipConfig(
        n_disseminators=11,
        seed=5,
        params={"fanout": 3, "rounds": 5, "max_batch_rumors": 8},
        auto_tune=False,
    ).build()
    group.setup()
    first = group.publish({"n": 1})
    second = group.publish({"n": 2})
    group.run_for(8.0)
    assert group.delivered_fraction(first) == 1.0
    spans = {span.message_id: span for span in group.hub.tracer.spans()}
    assert set(spans) == {first, second}
    for span in spans.values():
        assert span.delivered_count == 11
        assert max(span.rounds_of_deliveries()) <= 5
