"""End-to-end WS-Gossip over real localhost HTTP.

Same middleware, different binding: coordinator, initiator, two
disseminators and an unchanged consumer, each a real HTTP server on an
ephemeral port, all on one event loop with loop timers and actual
SOAP-over-HTTP POSTs.
"""

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

ACTION = "urn:stock/tick"


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture
def engine_threads(monkeypatch):
    """The thread of every outbox flush and gossip arrival, by method."""
    seen = {"_flush_outbox": set(), "on_gossip": set()}
    for name in seen:
        original = getattr(GossipEngine, name)

        def recorded(self, *args, _name=name, _original=original, **kwargs):
            seen[_name].add(threading.get_ident())
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(GossipEngine, name, recorded)
    return seen


@pytest.fixture
def deployment(engine_threads):
    coordinator = AsyncCoordinatorNode(seed=1)
    initiator = AsyncGossipNode(
        "initiator", action=ACTION, transport="http", rng=random.Random(2)
    )
    disseminators = [
        AsyncGossipNode(
            f"d{index}", action=ACTION, transport="http",
            rng=random.Random(3 + index),
        )
        for index in range(2)
    ]
    consumer = AsyncConsumerNode(action=ACTION)
    nodes = [coordinator, initiator, *disseminators, consumer]
    for node in nodes:
        node.start()
    yield coordinator, initiator, disseminators, consumer
    for node in nodes:
        node.stop()


def test_figure1_over_real_http(deployment, engine_threads):
    coordinator, initiator, disseminators, consumer = deployment

    engines = []
    initiator.activate(
        coordinator.activation_address,
        parameters={"fanout": 3, "rounds": 4},
        on_ready=lambda engine: engines.append(engine),
    )
    assert wait_for(lambda: bool(engines)), "activation over HTTP failed"
    activity_id = engines[0].activity_id

    for node in (*disseminators, consumer):
        node.subscribe(coordinator.subscription_address, activity_id)
    assert wait_for(
        lambda: len(
            coordinator.coordinator.activity(activity_id).participants
        ) >= 4
    ), "subscriptions did not reach the coordinator"

    initiator.refresh_view(activity_id)
    assert wait_for(lambda: len(engines[0].view) >= 3), "view refresh failed"

    gossip_id = initiator.publish(activity_id, {"symbol": "SWX", "px": 4.2})
    receivers = [*disseminators, consumer]
    assert wait_for(
        lambda: all(node.has_delivered(gossip_id) for node in receivers)
    ), "not all HTTP nodes received the gossiped op"
    assert all(
        node.gossip_layer.engine_for(activity_id) is not None
        for node in disseminators
    ), "a disseminator forwarded without joining the activity"

    # The consumer is the paper's unchanged node: no gossip layer at all.
    assert len(consumer.runtime.chain) == 0
    # Every engine entry point ran on the loop thread, none on a caller's
    # or a timer's thread.
    loop_thread = run_on_loop(shared_loop(), _current_thread())
    assert engine_threads["on_gossip"]
    assert engine_threads["_flush_outbox"] == {loop_thread}
    assert engine_threads["on_gossip"] == {loop_thread}


async def _current_thread():
    return threading.get_ident()
