"""Unit tests for the pull / anti-entropy engine paths."""

import random

import pytest

from repro.core.engine import GossipEngine
from repro.core.message import GossipStyle
from repro.core.params import GossipParams
from repro.soap.runtime import SoapRuntime
from repro.transport.base import LoopbackTransport
from repro.wsa.addressing import EndpointReference
from repro.wscoord.context import CoordinationContext

from tests.core.test_engine import FakeScheduler


def make_engine(style, transport=None, name="node"):
    from repro.core.handler import GossipLayer

    transport = transport if transport is not None else LoopbackTransport()
    runtime = SoapRuntime(f"test://{name}", transport)
    transport.register(runtime)
    scheduler = FakeScheduler()
    params = GossipParams(fanout=2, rounds=3, style=style, period=0.5)
    layer = GossipLayer(
        runtime=runtime,
        scheduler=scheduler,
        app_address=f"test://{name}/app",
        rng=random.Random(5),
        default_params=params,
    )
    runtime.chain.add_first(layer)
    engine = layer.create_engine(
        CoordinationContext(
            identifier="urn:wscoord:activity:test",
            coordination_type="urn:ws-gossip:2008:coordination",
            registration_service=EndpointReference("test://coord/registration"),
        )
    )
    engine.registered = True
    return transport, runtime, scheduler, engine


def test_periodic_rounds_only_for_periodic_styles():
    for style, expect_timer in (
        (GossipStyle.PUSH, False),
        (GossipStyle.PULL, True),
        (GossipStyle.PUSH_PULL, True),
        (GossipStyle.ANTI_ENTROPY, True),
        (GossipStyle.LAZY_PUSH, True),
    ):
        transport, runtime, scheduler, engine = make_engine(style)
        engine._start_periodic_rounds()
        assert bool(scheduler.timers) == expect_timer, style


def test_pull_round_targets_fanout_peers():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL)
    engine.view = [f"test://p{index}/app" for index in range(5)]
    engine._pull_round()
    assert runtime.metrics.counter("gossip.pull-request").value == 2


def test_anti_entropy_round_targets_one_peer():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.ANTI_ENTROPY)
    engine.view = [f"test://p{index}/app" for index in range(5)]
    engine._anti_entropy_round()
    assert runtime.metrics.counter("gossip.anti-entropy").value == 1


def test_round_with_empty_view_is_noop():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL)
    engine._pull_round()
    engine._anti_entropy_round()
    assert runtime.metrics.counter("gossip.pull-request").value == 0
    assert runtime.metrics.counter("gossip.anti-entropy").value == 0


def test_ingest_pull_reply_feeds_messages_back():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL)
    other_transport, other_runtime, other_scheduler, other = make_engine(
        GossipStyle.PULL, transport=transport, name="other"
    )
    message_id = other.publish("urn:app/Event", {"n": 1})
    stored = other.store.get(message_id)
    engine._ingest_pull_reply(
        {"messages": [stored.data], "wants": [], "peer": "x"}, serve_wants=False
    )
    assert not engine.store.is_new(message_id)
    assert runtime.metrics.counter("gossip.pulled").value == 1


def test_anti_entropy_serves_wants_back():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.ANTI_ENTROPY)
    message_id = engine.publish("urn:app/Event", {"n": 7})
    engine._ingest_pull_reply(
        {"messages": [], "wants": [message_id], "peer": "test://peer/gossip"},
        serve_wants=True,
    )
    assert runtime.metrics.counter("gossip.deliver-sent").value == 1


def test_pull_reply_garbage_tolerated():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL)
    engine._ingest_pull_reply("junk", serve_wants=True)
    engine._ingest_pull_reply({"messages": "no"}, serve_wants=True)
    engine._ingest_pull_reply({"messages": [42, None]}, serve_wants=False)
    engine._ingest_pull_reply({"wants": "x", "peer": 5}, serve_wants=True)


def test_serve_pull_is_symmetric():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.ANTI_ENTROPY)
    mine = engine.publish("urn:app/Event", {"mine": True})
    response = engine.serve_pull(["theirs"], None)
    assert response["wants"] == ["theirs"]
    assert len(response["messages"]) == 1  # they lack `mine`
    assert response["peer"] == "test://node/gossip"


def test_stop_halts_periodic_rounds():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL)
    engine.view = ["test://p/app"]
    engine._start_periodic_rounds()
    engine.stop()
    scheduler.fire_due(scheduler.now + 10.0)
    assert runtime.metrics.counter("gossip.pull-request").value == 0


def test_unanswered_pulls_expire_two_rounds_later():
    # The peers do not exist, so no pull is ever answered.
    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL)
    engine.view = [f"test://p{index}/app" for index in range(5)]
    engine._start_periodic_rounds()
    pending = []
    for round_index in range(1, 7):
        scheduler.fire_due(round_index * 1.0)
        pending.append(runtime.pending_replies)
    # fanout 2: two rounds' worth stay pending, older ones are dropped.
    assert pending == [2, 4, 4, 4, 4, 4]
    assert runtime.metrics.counter("soap.reply-expired").value == 8


def test_answered_pulls_are_not_counted_as_expired():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL, name="a")
    make_engine(GossipStyle.PULL, transport=transport, name="b")
    engine.view = ["test://b/app"]
    engine._start_periodic_rounds()
    for round_index in range(1, 5):
        scheduler.fire_due(round_index * 1.0)
    assert runtime.metrics.counter("gossip.pull-request").value == 4
    assert runtime.pending_replies == 0
    assert runtime.metrics.counter("soap.reply-expired").value == 0


def test_lossy_push_pull_group_does_not_accumulate_reply_callbacks():
    from repro.core.api import GossipConfig

    group = GossipConfig(
        n_disseminators=30,
        seed=5,
        loss_rate=0.1,
        params={"style": "push-pull", "fanout": 3, "rounds": 4, "period": 0.5},
    ).build()
    group.setup()
    group.publish({"symbol": "QIM"})

    def pending() -> int:
        return sum(node.runtime.pending_replies for node in group.all_nodes())

    group.run_for(40.0 - group.sim.now)
    at_40 = pending()
    group.run_for(60.0)
    one_round_of_pulls = 31 * 3
    assert pending() <= at_40 + one_round_of_pulls
    assert group.message_counts()["soap.reply-expired"] > 0
