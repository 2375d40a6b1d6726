"""Tests for the distributed-Coordinator mode (paper Section 3, last
paragraph): no central subscriber list, views from WS-Membership + Cyclon."""

import pytest

from repro.core.decentralized import (
    DecentralizedGossipNode,
    DecentralizedGroup,
    make_static_context,
)
from repro.simnet.faults import FaultPlan


def test_static_context_identifies_activity():
    context = make_static_context("urn:wscoord:activity:fixed")
    assert context.identifier == "urn:wscoord:activity:fixed"
    assert make_static_context().identifier != make_static_context().identifier


def test_full_delivery_without_any_coordinator():
    group = DecentralizedGroup(n_nodes=20, seed=5)
    group.setup()
    gossip_id = group.publish({"x": 1})
    group.run_for(15.0)
    assert group.delivered_fraction(gossip_id) == 1.0
    # Not a single registration happened anywhere.
    assert group.message_counts().get("gossip.register", 0) == 0


def test_membership_views_feed_the_gossip_engines():
    group = DecentralizedGroup(n_nodes=12, seed=6)
    group.setup()
    for node in group.nodes:
        engine = node.gossip_layer.engine_for(group.context.identifier)
        view = engine.current_view()
        assert len(view) >= 8  # membership converged well past the seeds
        assert node.app_address not in view


def test_any_node_can_publish():
    group = DecentralizedGroup(n_nodes=12, seed=7)
    group.setup()
    first = group.publish({"from": 0}, publisher_index=0)
    second = group.publish({"from": 5}, publisher_index=5)
    group.run_for(15.0)
    assert group.delivered_fraction(first, publisher_index=0) == 1.0
    assert group.delivered_fraction(second, publisher_index=5) == 1.0


@pytest.mark.parametrize("publisher_index", range(14))
def test_every_publisher_reaches_every_node_past_ten_nodes(publisher_index):
    # With more than ten nodes the addresses sim://n1 and sim://n10 share
    # a prefix; a rumor from n10..n13 whose stale To names its origin must
    # still be dispatched by path on n1, not refused as ".../0/app".
    group = DecentralizedGroup(n_nodes=14, seed=3)
    group.setup()
    gossip_id = group.publish({"from": publisher_index}, publisher_index=publisher_index)
    group.run_for(10.0)
    assert group.delivered_fraction(gossip_id, publisher_index=publisher_index) == 1.0
    assert group.message_counts().get("soap.no-service", 0) == 0


def test_delivery_survives_crashes_without_coordinator():
    group = DecentralizedGroup(n_nodes=20, seed=8)
    group.setup()
    plan = FaultPlan(group.network)
    plan.crash_fraction_at(
        group.sim.now, 0.25, [node.name for node in group.nodes[1:]]
    )
    plan.apply()
    group.run_for(0.05)
    gossip_id = group.publish({"x": 1})
    group.run_for(20.0)
    survivors = [
        node for node in group.nodes[1:]
        if group.network.process(node.name).is_running
    ]
    delivered = sum(1 for node in survivors if node.has_delivered(gossip_id))
    assert delivered / len(survivors) >= 0.95


def test_failed_members_leave_the_view():
    group = DecentralizedGroup(n_nodes=10, seed=9)
    group.setup()
    victim = group.nodes[3]
    victim.crash()
    group.run_for(30.0)  # past t_fail and cleanup
    observer = group.nodes[0]
    engine = observer.gossip_layer.engine_for(group.context.identifier)
    assert victim.app_address not in engine.current_view()


def test_minimum_population_enforced():
    with pytest.raises(ValueError):
        DecentralizedGroup(n_nodes=1)


def test_deterministic_per_seed():
    def run(seed):
        group = DecentralizedGroup(n_nodes=10, seed=seed)
        group.setup()
        gossip_id = group.publish({"x": 1})
        group.run_for(10.0)
        return (
            group.delivered_fraction(gossip_id),
            group.message_counts().get("net.sent"),
        )

    assert run(11) == run(11)
