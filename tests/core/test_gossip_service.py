"""The gossip port's SOAP operations that the byte-level fast paths bypass.

A batch whose ``Rumors`` content the size list does not cover exactly
(a pretty-printing stack indents it) fails the byte split and reaches
``GossipService.batch``, the parsed fallback.  ``Feedback`` as its own
SOAP envelope is how a batching-unaware peer cools a feedback-style rumor.
"""

import pytest

from repro import GossipConfig
from repro.core.batch import BatchControl, BatchError, build_batch, split_batch
from repro.core.engine import FEEDBACK_ACTION, gossip_address_of


def engine_of(group, node):
    return node.gossip_layer.engine_for(group.activity_id)


def test_indented_batch_is_recovered_by_the_parsed_fallback():
    group = GossipConfig(
        n_disseminators=6, seed=3, auto_tune=False,
        params={"fanout": 3, "rounds": 6, "max_batch_rumors": 16},
    ).build()
    group.setup(settle=1.0, eager_join=True)
    known = group.publish({"tick": "known"})
    group.run_for(4.0)
    # Cut one node off, publish a rumor it never hears, then heal.
    target = group.disseminators[0]
    others = [node for node in group.all_nodes() if node is not target]
    for node in others:
        group.network.set_link_loss(node.name, target.name, 1.0)
    fresh = group.publish({"tick": "fresh"})
    group.run_for(4.0)
    for node in others:
        group.network.set_link_loss(node.name, target.name, 0.0)
    assert target.has_delivered(known) and not target.has_delivered(fresh)

    store = engine_of(group, group.disseminators[1]).store
    frames = [store.get(known).data, store.get(fresh).data]
    control = BatchControl(digest=([], "req"))
    data = build_batch(group.activity_id, "sim://replayer/gossip", frames, control)
    indented = data.replace(b"<g:Rumors>", b"<g:Rumors>\n    ", 1)
    with pytest.raises(BatchError, match="Sizes do not cover"):
        split_batch(indented)

    scope = target.runtime.metrics
    duplicates = scope.counter("gossip.duplicate").value
    served = scope.counter("gossip.pull-served").value
    unpacked = group.hub.batch.rumors_unpacked.value
    target.runtime.receive(indented, source="sim://replayer")
    group.run_for(1.0)

    assert [d.gossip_id for d in target.deliveries].count(fresh) == 1
    assert scope.counter("gossip.duplicate").value == duplicates + 1
    # The control section was applied: the empty "req" digest was served.
    assert scope.counter("gossip.pull-served").value == served + 1
    assert group.hub.batch.rumors_unpacked.value == unpacked + 2


def test_soap_feedback_cools_a_hot_rumor():
    group = GossipConfig(
        n_disseminators=4, seed=5, auto_tune=False,
        params={"style": "feedback", "fanout": 2, "rounds": 4,
                "stop_probability": 1.0},
    ).build()
    group.setup(settle=1.0, eager_join=True)
    rumor = group.publish({"tick": 1})
    engine = engine_of(group, group.initiator)
    assert engine.hot_count == 1
    sender = group.disseminators[0]
    sender.runtime.send(
        gossip_address_of(group.initiator.app_address),
        FEEDBACK_ACTION,
        value={"activity": group.activity_id, "ids": [rumor]},
    )
    group.run_for(0.01)
    assert engine.hot_count == 0
    assert group.initiator.runtime.metrics.counter("gossip.cooled.feedback").value == 1
