"""Unit tests for the pull / anti-entropy engine paths."""

import random

import pytest

from repro.core.batch import (
    BatchControl,
    build_batch,
    is_batch_frame,
    scan_batch_control,
    split_batch,
    strip_declaration,
)
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


def test_digest_answer_feeds_missing_frames_back():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL)
    other_transport, other_runtime, other_scheduler, other = make_engine(
        GossipStyle.PULL, transport=transport, name="other"
    )
    message_id = other.publish("urn:app/Event", {"n": 1})
    engine.view = [other.app_address]
    engine._pull_round()
    settle(engine, other)
    assert not engine.store.is_new(message_id)
    assert counter(other, "gossip.pull-served") == 1
    assert runtime.pending_replies == 0


def test_anti_entropy_serves_wants_back():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.ANTI_ENTROPY)
    _, _, _, other = make_engine(
        GossipStyle.ANTI_ENTROPY, transport=transport, name="other"
    )
    mine = engine.publish("urn:app/Event", {"n": 7})
    theirs = other.publish("urn:app/Event", {"n": 8})
    engine.view = [other.app_address]
    engine._anti_entropy_round()
    settle(engine, other)
    # One round repairs both directions: the peer's wants are served back.
    assert not other.store.is_new(mine)
    assert not engine.store.is_new(theirs)
    assert counter(engine, "gossip.pull-served") == 1
    assert counter(other, "gossip.pull-served") == 1


def test_pull_reply_garbage_tolerated():
    # No engine originates a Pull, so a PullResponse only arrives
    # unsolicited: whatever it carries, it is dropped, never ingested.
    from repro.core.engine import PULL_RESPONSE_ACTION

    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL)
    for value in (
        "junk",
        {"messages": "no"},
        {"messages": [42, None]},
        {"wants": "x", "peer": 5},
        {"messages": [b"<not-xml"], "wants": ["x"], "peer": "test://node/gossip"},
    ):
        runtime.send("test://node/gossip", PULL_RESPONSE_ACTION, value=value,
                     relates_to="urn:uuid:never-sent")
    settle(engine)
    assert engine.store.seen_count == 0
    assert counter(engine, "gossip.deliver-sent") == 0


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


def test_answered_pulls_are_not_counted_as_expired():
    transport, runtime, scheduler, engine = make_engine(GossipStyle.PULL, name="a")
    make_engine(GossipStyle.PULL, transport=transport, name="b")
    engine.view = ["test://b/app"]
    engine._start_periodic_rounds()
    for round_index in range(1, 5):
        scheduler.fire_due(round_index * 1.0)
    assert runtime.metrics.counter("gossip.pull-request").value == 4
    assert runtime.pending_replies == 0


# -- unbatched is a batch of one --------------------------------------------------


def unbatched_group(seed, nodes=60, fanout=3, period=0.5, loss_rate=0.1, **config):
    from repro.core.api import GossipConfig

    return GossipConfig(
        n_disseminators=nodes - 1,
        seed=seed,
        loss_rate=loss_rate,
        auto_tune=False,
        params={
            "style": "push-pull",
            "fanout": fanout,
            "rounds": 4,
            "period": period,
            "jitter": 0.0,
        },
        **config,
    ).build()


class WireLog:
    """Every payload the simulated network is handed, in order."""

    def __init__(self, monkeypatch):
        from repro.simnet.network import Network

        self.payloads = []
        real_send = Network.send

        def recording_send(network, source, destination, payload, size=0):
            self.payloads.append(bytes(payload))
            return real_send(network, source, destination, payload, size=size)

        monkeypatch.setattr(Network, "send", recording_send)

    def soap_requests(self):
        """Frames carrying a SOAP ``Pull``/``PullResponse``/``Deliver``."""
        from repro.core.engine import DELIVER_ACTION, PULL_ACTION, PULL_RESPONSE_ACTION

        actions = [
            action.encode() + b"</"
            for action in (PULL_ACTION, PULL_RESPONSE_ACTION, DELIVER_ACTION)
        ]
        return [data for data in self.payloads if any(a in data for a in actions)]


def test_in_sync_unbatched_group_sends_only_summaries(monkeypatch):
    nodes, fanout, period = 30, 3, 0.5
    group = unbatched_group(7, nodes=nodes, fanout=fanout, period=period, loss_rate=0.0)
    group.setup()
    mids = [group.publish({"tick": n}) for n in range(3)]
    group.run_for(10.0)
    assert all(group.delivered_fraction(mid) == 1.0 for mid in mids)
    wire = WireLog(monkeypatch)
    before = group.message_counts()
    periods = 6
    group.run_for(periods * period)
    after = group.message_counts()

    def grew(name):
        return after.get(name, 0) - before.get(name, 0)

    # fanout summary-only frames per node per period, and nothing else:
    # no full id list, no PullResponse, no reply frame of any kind.
    assert grew("gossip.pull-request") == fanout * nodes * periods
    assert grew("batch.batches_sent") == grew("gossip.pull-request")
    assert grew("soap.sent") == grew("batch.batches_sent")
    assert grew("gossip.pull-in-sync") == grew("gossip.pull-request")
    assert len(wire.payloads) == grew("soap.sent")
    assert all(describe(data) == (0, "summary") for data in wire.payloads)


def test_lossy_unbatched_group_leaves_no_pending_reply_callbacks(monkeypatch):
    group = unbatched_group(5)
    wire = WireLog(monkeypatch)
    group.setup()
    mids = [group.publish({"tick": n}) for n in range(5)]
    group.run_for(20.0)
    assert all(group.delivered_fraction(mid) == 1.0 for mid in mids)
    assert group.message_counts()["gossip.pull-served"] > 0  # repair ran
    # Repair is the digest exchange: it correlates nothing, so no engine
    # leaves a reply callback behind, however many frames were lost.  (The
    # group's own set-up requests may still wait for lost answers.)
    pending = [
        callback
        for node in group.all_nodes()
        for callback in node.runtime._reply_callbacks.values()
    ]
    assert not [c for c in pending if c.__qualname__.startswith("GossipEngine.")]
    assert wire.soap_requests() == []


def test_full_list_soap_pull_is_still_answered():
    # Back-compat pin: what an older peer or an interop stack originates.
    from repro.core.engine import PULL_ACTION, gossip_address_of

    group = unbatched_group(9, nodes=8, loss_rate=0.0)
    group.setup()
    known, missing = (group.publish({"tick": n}) for n in range(2))
    group.run_for(5.0)
    server = group.disseminators[0]
    stored = server.gossip_layer.engine_for(group.activity_id).store
    replies = []
    group.initiator.runtime.send(
        gossip_address_of(server.app_address),
        PULL_ACTION,
        value={"activity": group.activity_id, "digest": [known, "urn:x:theirs"]},
        on_reply=lambda context, value: replies.append((context, value)),
    )
    group.run_for(1.0)
    (context, value), = replies
    assert context.addressing.action.endswith("/PullResponse")
    assert value["messages"] == [stored.get(missing).data]
    assert value["wants"] == ["urn:x:theirs"]
    assert value["peer"] == gossip_address_of(server.app_address)


def test_restarted_node_catches_up_over_the_digest_exchange(monkeypatch):
    from repro.core.api import GossipConfig

    group = GossipConfig(
        n_disseminators=16,
        seed=7,
        durability=True,
        params={"style": "push", "fanout": 3, "rounds": 6},
    ).build()
    group.setup()
    mid = group.publish({"k": 1})
    group.run_for(3.0)
    victim = group.disseminators[1]
    victim.crash()
    group.run_for(1.0)
    wire = WireLog(monkeypatch)
    victim.restart(amnesia=True)
    assert not victim.has_delivered(mid)
    group.run_for(6.0)
    # Push has no periodic repair: catch-up is the only way back.
    assert victim.has_delivered(mid)
    recovery = group.hub.recovery.snapshot()
    assert recovery["catch_up_rounds"] >= 1
    assert recovery["catch_ups_completed"] == 1
    controls = [scan_batch_control(d) for d in wire.payloads if is_batch_frame(d)]
    kinds = {c.digest[1] for c in controls if c is not None and c.digest is not None}
    assert kinds == {"req", "rsp"}
    assert wire.soap_requests() == []


# -- the batched exchange: summary first, full lists only on mismatch ----------


class RecordingLoopback(LoopbackTransport):
    """Loopback that keeps every frame put on the wire, in order."""

    def __init__(self):
        super().__init__()
        self.frames = []

    def send(self, address, data):
        self.frames.append((address, data))
        super().send(address, data)


def make_batched(transport, name, capacity=1024):
    """A pure-pull engine (publishing and receiving send nothing by
    themselves) with batching on."""
    from repro.core.handler import GossipLayer

    runtime = SoapRuntime(f"test://{name}", transport)
    transport.register(runtime)
    scheduler = FakeScheduler()
    layer = GossipLayer(
        runtime=runtime,
        scheduler=scheduler,
        app_address=f"test://{name}/app",
        rng=random.Random(5),
        default_params=GossipParams(
            fanout=2,
            rounds=3,
            style=GossipStyle.PULL,
            period=0.5,
            max_batch_rumors=8,
            buffer_capacity=capacity,
        ),
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
    return engine


def settle(*engines):
    """Run the zero-delay flushes of every engine until none is left."""
    while True:
        due = [
            (engine, timer)
            for engine in engines
            for timer in engine.scheduler.timers
            if not timer[2] and timer[0] <= engine.scheduler.now
        ]
        if not due:
            return
        for engine, _ in due:
            engine.scheduler.fire_due(engine.scheduler.now)


def describe(data):
    """One wire frame as ``(rumor count, control sections)``."""
    if not is_batch_frame(data):
        return 1, None
    control = scan_batch_control(data)
    kind = control.digest[1] if control.digest is not None else None
    return len(split_batch(data)), ("summary" if control.summary else kind)


def copy_rumor(source, message_id, *targets):
    for target in targets:
        target.runtime.receive(source.store.get(message_id).data, source=None)


def counter(engine, name):
    return engine.runtime.metrics.counter(name).value


@pytest.mark.parametrize("retained", [3, 300])
def test_in_sync_round_costs_fanout_small_frames_and_no_reply(retained):
    transport = RecordingLoopback()
    a, b, c = (make_batched(transport, name) for name in "abc")
    for n in range(retained):
        copy_rumor(a, a.publish("urn:app/Event", {"n": n}), b, c)
    a.view = [b.app_address, c.app_address]
    transport.frames.clear()
    a._pull_round()
    settle(a, b, c)
    assert sorted(address for address, _ in transport.frames) == [
        "test://b/gossip",
        "test://c/gossip",
    ]
    first, second = (data for _, data in transport.frames)
    assert first is second  # built once, shared by every target
    assert describe(first) == (0, "summary")
    assert len(first) <= 700  # a count and a hash, whatever the store holds
    assert counter(b, "gossip.pull-in-sync") == 1
    assert counter(c, "gossip.pull-in-sync") == 1
    assert counter(a, "gossip.pull-served") == 0


def test_mismatch_runs_the_full_exchange_once_and_repairs_both_sides():
    transport = RecordingLoopback()
    a, b = make_batched(transport, "a"), make_batched(transport, "b")
    shared = a.publish("urn:app/Event", {"who": "both"})
    copy_rumor(a, shared, b)
    only_a = a.publish("urn:app/Event", {"who": "a"})
    only_b = b.publish("urn:app/Event", {"who": "b"})
    a.view, b.view = [b.app_address], [a.app_address]
    transport.frames.clear()
    a._pull_round()
    settle(a, b)
    assert [(address, describe(data)) for address, data in transport.frames] == [
        ("test://b/gossip", (0, "summary")),
        ("test://a/gossip", (0, "req")),
        ("test://b/gossip", (1, "rsp")),
        ("test://a/gossip", (1, None)),  # a lone rumor ships as a legacy frame
    ]
    assert a.store.digest() == [shared, only_a, only_b]
    assert b.store.digest() == [shared, only_b, only_a]
    assert a.store.summary() == b.store.summary()
    assert counter(a, "gossip.pull-in-sync") == counter(b, "gossip.pull-in-sync") == 0


def test_full_list_digest_without_summary_is_answered_as_before():
    # Back-compat pin: what a pre-Summary node puts on the wire, by hand.
    transport = RecordingLoopback()
    old, b = make_batched(transport, "old"), make_batched(transport, "b")
    known = b.publish("urn:app/Event", {"n": 0})
    unknown = b.publish("urn:app/Event", {"n": 1})
    head_frame = (
        "<?xml version='1.0' encoding='utf-8'?>\n"
        '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"'
        ' xmlns:wsa="http://www.w3.org/2005/08/addressing"'
        ' xmlns:g="urn:ws-gossip:2008:core">'
        "<soap:Header><wsa:To>test://old/gossip</wsa:To>"
        "<wsa:Action>urn:ws-gossip:2008:core/Batch</wsa:Action></soap:Header>"
        '<soap:Body><g:GossipBatch activity="urn:wscoord:activity:test"'
        ' holder="test://old/gossip" ctl="1">'
        "<g:Sizes></g:Sizes><g:Rumors></g:Rumors>"
        f'<g:Digest kind="req"><g:Id>{known}</g:Id><g:Id>urn:x:theirs</g:Id></g:Digest>'
        "</g:GossipBatch></soap:Body></soap:Envelope>"
    ).encode("utf-8")
    b.runtime.receive(head_frame, source=None)
    settle(old, b)
    (address, reply), = transport.frames
    assert address == "test://old/gossip"
    assert split_batch(reply) == [strip_declaration(b.store.get(unknown).data)]
    control = scan_batch_control(reply)
    assert control.digest == ([known, unknown], "rsp")
    assert control.summary is None
    assert counter(b, "gossip.pull-served") == 1


def test_eviction_skew_falls_back_to_full_lists_and_terminates():
    transport = RecordingLoopback()
    a, b = (make_batched(transport, name, capacity=4) for name in "ab")
    origin = make_batched(transport, "origin")
    ids = [origin.publish("urn:app/Event", {"n": n}) for n in range(5)]
    for message_id in ids:
        copy_rumor(origin, message_id, a)
    for message_id in reversed(ids):
        copy_rumor(origin, message_id, b)
    assert set(a.store.digest()) != set(b.store.digest())  # same history
    assert all(i in a.store and i in b.store for i in ids)
    a.view, b.view = [b.app_address], [a.app_address]
    for _ in range(2):  # every round pays the same, bounded exchange
        transport.frames.clear()
        a._pull_round()
        settle(a, b)
        assert [describe(data) for _, data in transport.frames] == [
            (0, "summary"),
            (0, "req"),
            (1, "rsp"),
            (1, None),
        ]
    assert counter(a, "gossip.fresh") == counter(b, "gossip.fresh") == 5
    assert counter(a, "gossip.duplicate") == counter(b, "gossip.duplicate") == 2


def unscannable_frame(engine, future):
    """A control tail no byte scanner of this version recognises: an ad
    for an unknown id, a section from the future, an in-sync summary."""
    control = BatchControl(ads=[(["urn:x:new"], 2)], summary=engine.store.summary())
    data = build_batch(engine.activity_id, "test://gone/gossip", [], control)
    data = data.replace(b"<g:Summary ", future + b"<g:Summary ")
    assert scan_batch_control(data) is None
    return data


def test_unscannable_control_is_parsed_and_its_known_sections_applied():
    b = make_batched(RecordingLoopback(), "b")
    b.publish("urn:app/Event", {"n": 0})
    b.runtime.receive(unscannable_frame(b, b'<g:Future x="1"/>'), source=None)
    assert counter(b, "gossip.batch-control-unscannable") == 1
    assert counter(b, "gossip.fetch") == 1  # the section before it
    assert counter(b, "gossip.pull-in-sync") == 1  # and the one after
    assert counter(b, "soap.malformed") == 0


def test_unscannable_control_that_does_not_parse_either_is_malformed():
    b = make_batched(RecordingLoopback(), "b")
    b.runtime.receive(unscannable_frame(b, b"<g:Future>"), source=None)
    assert counter(b, "gossip.batch-control-unscannable") == 1
    assert counter(b, "soap.malformed") == 1
    assert counter(b, "gossip.fetch") == 0
    assert counter(b, "gossip.pull-in-sync") == 0


@pytest.mark.parametrize("seed", [5, 11])
def test_lossy_batched_group_converges_then_idles_on_summaries(seed):
    from repro.core.api import GossipConfig

    nodes, fanout, period = 60, 3, 0.5
    group = GossipConfig(
        n_disseminators=nodes - 1,
        seed=seed,
        loss_rate=0.1,
        auto_tune=False,
        params={
            "style": "push-pull",
            "fanout": fanout,
            "rounds": 4,
            "period": period,
            "jitter": 0.0,
            "max_batch_rumors": 8,
        },
    ).build()
    group.setup()
    mids = [group.publish({"tick": n}) for n in range(5)]
    group.run_for(20.0)
    assert all(group.delivered_fraction(mid) == 1.0 for mid in mids)
    before = group.message_counts()
    periods = 10
    group.run_for(periods * period)
    after = group.message_counts()

    def grew(name):
        return after.get(name, 0) - before.get(name, 0)

    # Idle tail: one summary per target per period and not one reply --
    # the full-list exchange cost a second frame for every one of these.
    assert grew("gossip.pull-request") == fanout * nodes * periods
    assert grew("batch.batches_sent") == grew("gossip.pull-request")
    assert grew("gossip.pull-served") == 0
    assert 0 < grew("gossip.pull-in-sync") <= grew("gossip.pull-request")
