"""Unit tests for the lazy-push engine paths and bookkeeping bounds."""

import random

import pytest

from repro.core.engine import GossipEngine
from repro.core.message import GossipStyle
from repro.core.params import GossipParams
from repro.obs.hub import default_hub
from repro.soap.runtime import SoapRuntime
from repro.transport.base import LoopbackTransport
from repro.wsa.addressing import EndpointReference
from repro.wscoord.context import CoordinationContext

from tests.core.test_engine import FakeScheduler, make_gossip_envelope


@pytest.fixture
def lazy_engine():
    transport = LoopbackTransport()
    runtime = SoapRuntime("test://node", transport)
    transport.register(runtime)
    scheduler = FakeScheduler()
    engine = GossipEngine(
        runtime=runtime,
        scheduler=scheduler,
        context=CoordinationContext(
            identifier="urn:wscoord:activity:test",
            coordination_type="urn:ws-gossip:2008:coordination",
            registration_service=EndpointReference("test://coord/registration"),
        ),
        app_address="test://node/app",
        params=GossipParams(fanout=2, rounds=4, style=GossipStyle.LAZY_PUSH,
                            period=0.5),
        rng=random.Random(3),
    )
    engine.registered = True
    engine.view = [f"test://peer{index}/app" for index in range(4)]
    return transport, runtime, scheduler, engine


def test_publish_advertises_instead_of_pushing(lazy_engine):
    transport, runtime, scheduler, engine = lazy_engine
    engine.publish("urn:app/Event", {"n": 1})
    assert default_hub().batch.legacy_singletons.value == 0
    assert runtime.metrics.counter("gossip.advertise").value == 2  # fanout


def test_on_advertise_fetches_unknown_only(lazy_engine):
    transport, runtime, scheduler, engine = lazy_engine
    engine.store.add("known", b"x", 0.0, "o")
    engine.on_advertise(["known", "new-1"], hops=3, holder="test://holder/gossip")
    assert runtime.metrics.counter("gossip.fetch").value == 1
    assert engine._ad_hops["new-1"] == 3
    # Re-advertised while the fetch is pending: no duplicate fetch.
    engine.on_advertise(["new-1"], hops=5, holder="test://holder/gossip")
    assert runtime.metrics.counter("gossip.fetch").value == 1


def test_pending_fetch_timeout_allows_refetch(lazy_engine):
    transport, runtime, scheduler, engine = lazy_engine
    engine.on_advertise(["lost"], hops=3, holder="test://holder/gossip")
    assert runtime.metrics.counter("gossip.fetch").value == 1
    scheduler.fire_due(scheduler.now + 2.0 * engine.params.period + 0.01)
    engine.on_advertise(["lost"], hops=3, holder="test://holder/gossip")
    assert runtime.metrics.counter("gossip.fetch").value == 2


def test_fresh_arrival_readvertises_with_decremented_budget(lazy_engine):
    transport, runtime, scheduler, engine = lazy_engine
    engine._ad_hops["m1"] = 3
    envelope, header = make_gossip_envelope(message_id="m1", hops=9)
    assert engine.on_gossip(envelope, header, source=None)
    # Budget came from the ad (3), not the header (9): 3-1=2 > 0 so ads go out.
    assert runtime.metrics.counter("gossip.advertise").value == 2
    assert "m1" not in engine._ad_hops  # consumed


def test_exhausted_ad_budget_stops(lazy_engine):
    transport, runtime, scheduler, engine = lazy_engine
    engine._ad_hops["m1"] = 1
    envelope, header = make_gossip_envelope(message_id="m1")
    engine.on_gossip(envelope, header, source=None)
    assert runtime.metrics.counter("gossip.advertise").value == 0
    assert runtime.metrics.counter("gossip.ad-exhausted").value == 1


def test_ad_hops_bookkeeping_is_bounded(lazy_engine):
    transport, runtime, scheduler, engine = lazy_engine
    limit = 4 * engine.params.buffer_capacity
    for index in range(limit + 10):
        engine.on_advertise([f"ghost-{index}"], hops=2,
                            holder="test://holder/gossip")
    assert len(engine._ad_hops) <= limit + 1


def test_serve_fetch_delivers_retained(lazy_engine):
    transport, runtime, scheduler, engine = lazy_engine
    message_id = engine.publish("urn:app/Event", {"n": 1})
    engine.serve_fetch([message_id, "unknown"], "test://peer0/gossip")
    assert runtime.metrics.counter("gossip.fetch-served").value == 1
    assert runtime.metrics.counter("gossip.deliver-sent").value == 1


def test_register_retries_do_not_leak_callbacks():
    transport = LoopbackTransport()
    runtime = SoapRuntime("test://node", transport)
    transport.register(runtime)
    scheduler = FakeScheduler()
    engine = GossipEngine(
        runtime=runtime,
        scheduler=scheduler,
        context=CoordinationContext(
            identifier="urn:wscoord:activity:test",
            coordination_type="urn:ws-gossip:2008:coordination",
            registration_service=EndpointReference("test://nowhere/registration"),
        ),
        app_address="test://node/app",
        params=GossipParams(fanout=2, rounds=3),
        rng=random.Random(4),
    )
    engine.register(max_attempts=4, retry_timeout=1.0)
    for _ in range(10):
        scheduler.fire_due(scheduler.now + 1.0)
    # All attempts exhausted; at most the final attempt's callback remains.
    assert runtime.pending_replies <= 1
    assert runtime.metrics.counter("gossip.register.gave-up").value == 1
