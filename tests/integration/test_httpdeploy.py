"""Unit-level tests for the live Figure-1 roles over HTTP (the full
end-to-end flow lives in test_http_gossip.py)."""

import random
import threading
import time

import pytest

from repro.core.aiodeploy import (
    AsyncConsumerNode,
    AsyncCoordinatorNode,
    AsyncGossipNode,
)
from repro.core.engine import GossipEngine
from repro.transport.aio import run_on_loop, shared_loop

EVENT = "urn:t/Event"


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_coordinator_mounts_standard_services():
    coordinator = AsyncCoordinatorNode()
    try:
        paths = coordinator.runtime.service_paths()
        assert paths == ["/activation", "/registration", "/subscription"]
        assert coordinator.activation_address.endswith("/activation")
        assert coordinator.subscription_address.endswith("/subscription")
    finally:
        coordinator.stop()


def test_disseminator_has_gossip_layer_and_port():
    node = AsyncGossipNode("d", transport="http")
    try:
        assert len(node.runtime.chain) == 1
        assert "/gossip" in node.runtime.service_paths()
        assert node.app_address.endswith("/app")
        # Coordinator mode: no static view, so engines register.
        assert node.gossip_layer.view_provider is None
    finally:
        node.stop()


def test_app_node_records_deliveries():
    node = AsyncConsumerNode(action=EVENT)
    try:
        assert len(node.runtime.chain) == 0  # unchanged stack
        node.app_service.lookup(EVENT)(_FakeContext(), {"x": 1})
        assert node.deliveries == [(None, {"x": 1})]
    finally:
        node.stop()


class _FakeContext:
    class _Envelope:
        @staticmethod
        def header(tag):
            return None

    envelope = _Envelope()


def test_activation_and_publish_over_http(monkeypatch):
    loop_thread = run_on_loop(shared_loop(), _current_thread())
    refreshed_on = []
    original = GossipEngine.refresh_view

    def recorded(self):
        refreshed_on.append(threading.get_ident())
        return original(self)

    monkeypatch.setattr(GossipEngine, "refresh_view", recorded)
    coordinator = AsyncCoordinatorNode(seed=1)
    initiator = AsyncGossipNode(
        "initiator", action=EVENT, transport="http", rng=random.Random(2)
    )
    consumer = AsyncConsumerNode(action=EVENT)
    nodes = [coordinator, initiator, consumer]
    try:
        for node in nodes:
            node.start()
        engines = []
        initiator.activate(
            coordinator.activation_address,
            parameters={"fanout": 2, "rounds": 2},
            on_ready=engines.append,
        )
        assert wait_for(lambda: bool(engines))
        activity_id = engines[0].activity_id
        consumer.subscribe(coordinator.subscription_address, activity_id)
        assert wait_for(
            lambda: len(
                coordinator.coordinator.activity(activity_id).participants
            ) >= 2
        )
        initiator.refresh_view(activity_id)
        assert wait_for(lambda: len(engines[0].view) >= 1)
        # The role call ran the engine on the loop, not on this thread.
        assert refreshed_on and set(refreshed_on) == {loop_thread}
        gossip_id = initiator.publish(activity_id, {"n": 1})
        assert wait_for(lambda: consumer.has_delivered(gossip_id))
        assert (gossip_id, {"n": 1}) in consumer.deliveries
        with pytest.raises(KeyError, match="has not joined"):
            initiator.publish("urn:nowhere", 1)
    finally:
        for node in nodes:
            node.stop()


async def _current_thread():
    return threading.get_ident()


def test_stop_is_idempotent():
    node = AsyncGossipNode("d", transport="http")
    node.start()
    node.stop()
    node.stop()
