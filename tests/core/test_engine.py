"""Unit tests for the gossip engine over the loopback transport."""

import random

import pytest

from repro.core.engine import (
    GossipEngine,
    PROTOCOL_DISSEMINATOR,
    gossip_address_of,
)
from repro.core.message import GossipHeader, GossipStyle
from repro.core.params import GossipParams
from repro.soap.envelope import Envelope
from repro.soap.runtime import SoapRuntime
from repro.transport.base import LoopbackTransport
from repro.wsa.addressing import AddressingHeaders, EndpointReference
from repro.wscoord.context import CoordinationContext


class FakeScheduler:
    """Manual-advance scheduler for engine unit tests."""

    def __init__(self):
        self.now = 0.0
        self.timers = []

    def call_after(self, delay, callback):
        timer = [self.now + delay, callback, False]
        self.timers.append(timer)
        return self

    def cancel(self):
        pass

    def fire_due(self, until):
        self.now = until
        due = [timer for timer in self.timers if timer[0] <= until and not timer[2]]
        for timer in due:
            timer[2] = True
            timer[1]()

    def flush(self):
        """Run the engine's zero-delay outbox flush (sends leave there)."""
        self.fire_due(self.now)


def make_context(registration_address="test://coord/registration"):
    return CoordinationContext(
        identifier="urn:wscoord:activity:test",
        coordination_type="urn:ws-gossip:2008:coordination",
        registration_service=EndpointReference(
            registration_address, {"ActivityId": "urn:wscoord:activity:test"}
        ),
    )


@pytest.fixture
def setup():
    transport = LoopbackTransport()
    runtime = SoapRuntime("test://node", transport)
    transport.register(runtime)
    scheduler = FakeScheduler()
    engine = GossipEngine(
        runtime=runtime,
        scheduler=scheduler,
        context=make_context(),
        app_address="test://node/app",
        params=GossipParams(fanout=2, rounds=3),
        rng=random.Random(1),
    )
    return transport, runtime, scheduler, engine


def make_gossip_envelope(message_id="m1", hops=3, origin="test://origin/app"):
    envelope = Envelope()
    header = GossipHeader(
        activity="urn:wscoord:activity:test",
        message_id=message_id,
        origin=origin,
        hops=hops,
    )
    envelope.add_header(header.to_element())
    AddressingHeaders(
        to="test://node/app", action="urn:app/Event", message_id="urn:uuid:x"
    ).apply(envelope)
    return envelope, header


def test_gossip_address_of():
    assert gossip_address_of("sim://n1/app") == "sim://n1/gossip"
    assert gossip_address_of("http://h:99/deep/path") == "http://h:99/gossip"


def test_fresh_message_accepted_duplicate_rejected(setup):
    transport, runtime, scheduler, engine = setup
    engine.registered = True
    envelope, header = make_gossip_envelope()
    assert engine.on_gossip(envelope, header, source=None)
    assert not engine.on_gossip(envelope, header, source=None)
    assert runtime.metrics.counter("gossip.duplicate").value == 1


def test_forwarding_respects_fanout_and_hops(setup):
    transport, runtime, scheduler, engine = setup
    engine.registered = True
    engine.view = [f"test://peer{index}/app" for index in range(6)]
    envelope, header = make_gossip_envelope(hops=2)
    engine.on_gossip(envelope, header, source=None)
    scheduler.flush()
    assert runtime.metrics.counter("gossip.forward").value == 1
    assert runtime.metrics.counter("soap.sent").value == 2  # fanout copies


def test_no_forward_when_hops_exhausted(setup):
    transport, runtime, scheduler, engine = setup
    engine.registered = True
    engine.view = ["test://peer/app"]
    envelope, header = make_gossip_envelope(hops=0)
    assert engine.on_gossip(envelope, header, source=None)  # still delivered
    assert runtime.metrics.counter("gossip.hops-exhausted").value == 1
    assert runtime.metrics.counter("gossip.forward").value == 0


def test_forward_excludes_origin_source_self(setup):
    transport, runtime, scheduler, engine = setup
    engine.registered = True
    origin = "test://origin/app"
    source = "test://source/app"
    engine.view = [origin, source, "test://node/app", "test://other/app"]
    envelope, header = make_gossip_envelope(hops=2, origin=origin)
    engine.on_gossip(envelope, header, source=source)
    scheduler.flush()
    # Only "other" is eligible even though fanout is 2.
    assert runtime.metrics.counter("soap.sent").value == 1


def test_forward_deferred_until_registered(setup):
    transport, runtime, scheduler, engine = setup
    assert not engine.registered
    envelope, header = make_gossip_envelope(hops=2)
    engine.on_gossip(envelope, header, source=None)
    assert runtime.metrics.counter("gossip.forward-deferred").value == 1
    assert runtime.metrics.counter("gossip.forward").value == 0
    # Simulate the RegisterResponse arriving.
    engine._on_register_reply(
        None,
        {"params": GossipParams(fanout=2, rounds=3).to_value(),
         "peers": ["test://p1/app", "test://p2/app", "test://p3/app"]},
    )
    assert engine.registered
    scheduler.flush()
    assert runtime.metrics.counter("gossip.forward").value == 1
    assert runtime.metrics.counter("soap.sent").value == 2


def test_register_reply_updates_params_and_view(setup):
    transport, runtime, scheduler, engine = setup
    engine._on_register_reply(
        None,
        {
            "params": GossipParams(fanout=5, rounds=9, peer_sample_size=20).to_value(),
            "peers": ["test://a/app", "test://b/app"],
        },
    )
    assert engine.params.fanout == 5
    assert engine.params.rounds == 9
    assert engine.view == ["test://a/app", "test://b/app"]


def test_register_reply_tolerates_garbage(setup):
    transport, runtime, scheduler, engine = setup
    engine._on_register_reply(None, "not-a-map")
    assert not engine.registered
    engine._on_register_reply(None, {"params": {"fanout": "wrong"}, "peers": "x"})
    assert engine.registered  # registration proceeds with old params
    assert runtime.metrics.counter("gossip.register.bad-params").value == 1


def test_publish_push_sends_fanout_copies(setup):
    transport, runtime, scheduler, engine = setup
    engine.registered = True
    engine.view = [f"test://peer{index}/app" for index in range(5)]
    message_id = engine.publish("urn:app/Event", {"n": 1})
    scheduler.flush()
    assert runtime.metrics.counter("gossip.fanout-send").value == 2
    assert not engine.store.is_new(message_id)  # own message remembered
    assert engine.store.get(message_id).data  # retained for pull serving


def test_publish_pull_style_stores_only(setup):
    transport, runtime, scheduler, engine = setup
    engine.params = GossipParams(fanout=2, rounds=3, style=GossipStyle.PULL)
    engine.registered = True
    engine.view = ["test://peer/app"]
    message_id = engine.publish("urn:app/Event", {"n": 1})
    scheduler.flush()
    assert runtime.metrics.counter("gossip.fanout-send").value == 0
    assert engine.store.get(message_id).data


def test_serve_pull_returns_missing_and_wants(setup):
    transport, runtime, scheduler, engine = setup
    engine.registered = True
    engine.view = []
    engine.publish("urn:app/Event", {"n": 1})
    ours = engine.store.digest()[0]
    response = engine.serve_pull([ours, "remote-only"], None)
    assert response["messages"] == []  # they already have ours... wait, no:
    # remote digest includes ours, so nothing is missing at the requester;
    # and we want "remote-only".
    assert response["wants"] == ["remote-only"]
    assert response["peer"] == "test://node/gossip"


def test_serve_pull_sends_what_requester_lacks(setup):
    transport, runtime, scheduler, engine = setup
    engine.registered = True
    engine.view = []
    engine.publish("urn:app/Event", {"n": 1})
    response = engine.serve_pull([], None)
    assert len(response["messages"]) == 1
    assert isinstance(response["messages"][0], bytes)


def test_duplicate_of_own_publication_rejected(setup):
    transport, runtime, scheduler, engine = setup
    engine.registered = True
    engine.view = []
    message_id = engine.publish("urn:app/Event", {"n": 1})
    envelope, header = make_gossip_envelope(message_id=message_id)
    assert not engine.on_gossip(envelope, header, source=None)
