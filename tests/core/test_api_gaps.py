"""GossipGroup behaviours not covered by the main API tests."""

import pytest

from repro.core.api import GossipConfig, GossipGroup
from repro.simnet.seqdiag import render_sequence


def test_trace_mode_supports_sequence_rendering():
    group = GossipConfig(
        n_disseminators=3, seed=81, params={"fanout": 2, "rounds": 3},
        auto_tune=False, trace=True,
    ).build()
    group.setup()
    gossip_id = group.publish({"x": 1})
    group.run_for(3.0)
    assert group.delivered_fraction(gossip_id) == 1.0
    diagram = render_sequence(group.trace, max_events=10)
    assert "t=" in diagram
    assert "initiator" in diagram


def test_trace_disabled_by_default_records_nothing():
    group = GossipConfig(n_disseminators=3, seed=82, auto_tune=False).build()
    group.setup()
    group.publish({"x": 1})
    group.run_for(3.0)
    assert len(group.trace) == 0


def test_custom_action_uri():
    group = GossipConfig(
        n_disseminators=4, seed=83, action="urn:custom/Thing",
        params={"fanout": 2, "rounds": 3}, auto_tune=False,
    ).build()
    group.setup()
    gossip_id = group.publish({"x": 1})
    group.run_for(3.0)
    assert group.delivered_fraction(gossip_id) == 1.0
    delivery = group.disseminators[0].deliveries[0]
    assert delivery.action == "urn:custom/Thing"


def test_delivered_fraction_of_unknown_message_is_zero():
    group = GossipConfig(n_disseminators=4, seed=84, auto_tune=False).build()
    group.setup()
    assert group.delivered_fraction("urn:never-published") == 0.0
    assert group.receivers("urn:never-published") == []
    assert group.delivery_times("urn:never-published") == []


def test_single_node_group_is_trivially_atomic():
    group = GossipConfig(n_disseminators=0, n_consumers=0, seed=85,
                        auto_tune=False).build()
    group.setup()
    gossip_id = group.publish({"x": 1})
    group.run_for(1.0)
    assert group.delivered_fraction(gossip_id) == 1.0
    assert group.is_atomic(gossip_id)


def test_custom_latency_model_applies():
    from repro.simnet.latency import FixedLatency

    group = GossipConfig(
        n_disseminators=3, seed=86, latency=FixedLatency(0.5),
        params={"fanout": 3, "rounds": 3}, auto_tune=False,
    ).build()
    group.setup(settle=3.0)
    start = group.sim.now
    gossip_id = group.publish({"x": 1})
    group.run_for(5.0)
    times = group.delivery_times(gossip_id)
    assert times and min(times) >= start + 0.5  # at least one slow hop


def test_payload_strings_xml_cannot_carry_are_delivered():
    # Written raw these made every receiver count the rumor as malformed
    # XML and drop it, while publish() reported success.
    value = {"note": "nul\x00 bell\x07 esc\x1b", "tail": "\uffff"}
    group = GossipConfig(n_disseminators=6, seed=2).build()
    group.setup()
    gossip_id = group.publish(value)
    group.run_for(5.0)
    assert group.delivered_fraction(gossip_id) == 1.0
    assert group.message_counts().get("soap.malformed", 0) == 0
    assert all(
        delivery.value == value
        for node in group.disseminators
        for delivery in node.deliveries
    )
