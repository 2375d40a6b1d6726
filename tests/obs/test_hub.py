"""The MetricsHub: scoping, chaining, node labels."""

from repro.obs.hub import (
    MetricsHub,
    NodeScope,
    current_hub,
    default_hub,
    hub_of,
    use_hub,
)
from repro.simnet.events import Simulator
from repro.simnet.network import Network


def test_counters_and_stat_groups_chain_to_parent():
    parent = MetricsHub(name="parent")
    child = MetricsHub(parent=parent, name="child")
    child.wire.serialize_count += 2
    child.health.retries += 1
    assert child.wire.serialize_count == 2
    assert parent.wire.serialize_count == 2
    assert parent.health.retries == 1
    # Resetting the child must not erase the parent's history.
    child.reset()
    assert child.wire.serialize_count == 0
    assert parent.wire.serialize_count == 2


def test_two_networks_report_independent_metrics():
    sim_a, sim_b = Simulator(seed=1), Simulator(seed=2)
    network_a, network_b = Network(sim_a), Network(sim_b)
    network_a.metrics.counter("net.sent").inc(5)
    network_a.hub.wire.parse_count += 3
    assert network_b.metrics.counter("net.sent").value == 0
    assert network_b.hub.wire.parse_count == 0
    # ...while the default hub aggregates both simulations.
    network_b.hub.wire.parse_count += 4
    assert default_hub().wire.parse_count == 7


def test_two_gossip_groups_report_independent_metrics():
    from repro.core.api import GossipConfig

    group_a = GossipConfig(n_disseminators=4, seed=1).build()
    group_b = GossipConfig(n_disseminators=4, seed=2).build()
    group_a.setup()
    group_a.publish({"x": 1})
    group_a.run_for(5.0)
    assert group_a.message_counts()["net.sent"] > 0
    assert group_b.message_counts().get("net.sent", 0) == 0
    assert group_a.hub.wire.serialize_count > 0
    assert group_b.hub.wire.serialize_count == 0
    assert len(group_a.hub.tracer) == 1
    assert len(group_b.hub.tracer) == 0


def test_node_scope_labels_and_aggregates():
    hub = MetricsHub(name="test")
    scope_a = hub.node("a")
    scope_b = hub.node("b")
    assert isinstance(scope_a, NodeScope)
    assert hub.node("a") is scope_a  # cached
    scope_a.counter("soap.sent").inc(3)
    scope_b.counter("soap.sent").inc(2)
    # Per-node values are separate; the hub-level counter aggregates.
    assert scope_a.counters()["soap.sent"] == 3
    assert scope_b.counters()["soap.sent"] == 2
    assert hub.counter("soap.sent").value == 5
    assert sorted(hub.node_names()) == ["a", "b"]


def test_node_scope_histogram_delegates_to_hub():
    hub = MetricsHub(name="test")
    hub.node("a").histogram("lat").observe(1.0)
    hub.node("b").histogram("lat").observe(3.0)
    assert hub.histogram("lat").count == 2


def test_current_hub_stack():
    assert current_hub() is default_hub()
    hub = MetricsHub(name="scoped")
    with use_hub(hub):
        assert current_hub() is hub
        inner = MetricsHub(name="inner")
        with use_hub(inner):
            assert current_hub() is inner
        assert current_hub() is hub
    assert current_hub() is default_hub()


def test_hub_of_resolution():
    hub = MetricsHub(name="test")
    assert hub_of(hub) is hub
    assert hub_of(hub.node("a")) is hub
    assert hub_of(None) is default_hub()
    from repro.simnet.metrics import MetricsRegistry

    assert hub_of(MetricsRegistry()) is default_hub()


def test_hub_reset_keeps_bound_objects_live():
    hub = MetricsHub(name="test")
    counter = hub.counter("x")
    gauge = hub.gauge("g")
    counter.inc(4)
    gauge.set(2.5)
    hub.reset()
    # Components bind metric objects once at init: reset must zero in
    # place, not replace the objects.
    assert hub.counter("x") is counter
    assert counter.value == 0
    assert gauge.value == 0.0
