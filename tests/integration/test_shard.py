"""End-to-end tests for the sharded simulator (GossipConfig(shards=K)).

The determinism contract (docs/ARCHITECTURE.md, "Parallel simulation"):

* same seed + same K, run twice -> identical per-shard trace digests
  (event-for-event, time-for-time);
* K=1 vs K>1 at the same seed -> identical delivered rumor sets once the
  protocol converges to full delivery (the gate uses push-pull, whose
  anti-entropy repair reaches 1.0; below 1.0 same-instant tie
  reorderings may legitimately change peer draws).

Config errors must surface as :class:`~repro.core.params.ParamError`
naming the offending key, before any worker process is spawned.
"""

import multiprocessing
import threading

import pytest

from repro.core.api import GossipConfig, GossipGroup, topology_names
from repro.core.params import ParamError
from repro.obs.hub import default_hub
from repro.simnet.shard import ShardPlan, shard_worker_loop

CONTRACT = dict(
    n_disseminators=39,
    params={"style": "push-pull", "fanout": 4, "rounds": 8},
    auto_tune=False,
)


def _receiver_names(group, message_id):
    return frozenset(
        node if isinstance(node, str) else node.name
        for node in group.receivers(message_id)
    )


def _delivered_sets(seed, shards, publications=2, **overrides):
    config = GossipConfig(**dict(CONTRACT, seed=seed, shards=shards, **overrides))
    group = config.build()
    try:
        group.setup(settle=1.0, eager_join=True)
        message_ids = [group.publish({"tick": i}) for i in range(publications)]
        group.run_for(10.0)
        return [_receiver_names(group, mid) for mid in message_ids]
    finally:
        if hasattr(group, "close"):
            group.close()


class TestShardedDelivery:
    def test_sharded_group_disseminates(self):
        group = GossipConfig(**dict(CONTRACT, seed=5, shards=2)).build()
        try:
            activity_id = group.setup(settle=1.0, eager_join=True)
            assert activity_id
            message_id = group.publish({"hello": "shards"})
            group.run_for(10.0)
            assert group.delivered_fraction(message_id) == 1.0
            assert group.is_atomic(message_id)
            assert group.barriers > 0
            assert len(group.delivery_times(message_id)) == group.population - 1
        finally:
            group.close()

    def test_hub_reads_leave_the_default_hub_alone(self):
        # The merged hub is rebuilt on every read; were it chained to the
        # default hub, each read would add the shards' totals there again.
        group = GossipConfig(**dict(CONTRACT, seed=5, shards=2)).build()
        try:
            group.setup(settle=1.0, eager_join=True)
            group.publish({"hello": "shards"})
            group.run_for(4.0)
            def process_totals():
                hub = default_hub()
                return hub.counters(), hub.wire.snapshot(), hub.batch.snapshot()

            before = process_totals()
            first, second = group.hub, group.hub
            counts = group.message_counts()
            assert process_totals() == before
            assert first.wire.snapshot()["parse_count"] > 0
            assert first.counters() == second.counters() == counts
        finally:
            group.close()

    def test_delivered_sets_match_unsharded(self):
        reference = _delivered_sets(11, 1)
        population = CONTRACT["n_disseminators"] + 1  # + initiator, - itself
        assert all(len(r) == population - 1 for r in reference), (
            "contract scenario must converge to full delivery"
        )
        assert _delivered_sets(11, 2) == reference


class TestShardedDeterminism:
    def _digests(self, seed=11, shards=2):
        config = GossipConfig(
            **dict(CONTRACT, seed=seed, shards=shards, trace=True)
        )
        group = config.build()
        try:
            group.setup(settle=1.0, eager_join=True)
            group.publish({"tick": 0})
            group.run_for(8.0)
            return group.trace_digests()
        finally:
            group.close()

    def test_same_seed_same_shards_identical_traces(self):
        first = self._digests()
        second = self._digests()
        assert first == second
        assert all(d["trace_events"] > 0 for d in first)

    def test_different_seed_diverges(self):
        assert self._digests(seed=11) != self._digests(seed=12)


class TestShardParamErrors:
    def test_shards_zero_rejected(self):
        with pytest.raises(ParamError, match="shards") as excinfo:
            GossipConfig(n_disseminators=10, shards=0)
        assert excinfo.value.key == "shards"

    def test_shards_bool_rejected(self):
        with pytest.raises(ParamError, match="shards"):
            GossipConfig(n_disseminators=10, shards=True)

    @pytest.mark.parametrize("subsystem", ["adaptive", "telemetry"])
    def test_adaptive_with_shards_rejected(self, subsystem):
        with pytest.raises(ParamError, match=subsystem) as excinfo:
            GossipConfig(n_disseminators=10, shards=2, **{subsystem: True}).build()
        assert excinfo.value.key == "shards"

    def test_zero_lookahead_latency_rejected(self):
        from repro.simnet.latency import FixedLatency

        with pytest.raises(ParamError, match="positive") as excinfo:
            GossipConfig(
                n_disseminators=10, shards=2, latency=FixedLatency(0.0)
            ).build()
        assert excinfo.value.key == "latency"


class TestGossipGroupSlices:
    """A shard worker's ``GossipGroup(config=..., shard=i)`` slice, in process."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_slices_partition_the_topology(self, shards):
        config = GossipConfig(**dict(CONTRACT, n_consumers=5, shards=shards))
        names = topology_names(config.n_disseminators, config.n_consumers)
        plan = ShardPlan(names, shards)
        held = [
            {node.name for node in GossipGroup(config=config, shard=k).all_nodes()}
            for k in range(shards)
        ]
        for k, members in enumerate(held):
            assert members == set(plan.members(k))
            for other in held[k + 1 :]:
                assert not members & other
        assert set().union(*held) == set(names)

    def test_worker_loop_serves_a_slice(self):
        # With K=2 the name hash puts the coordinator on shard 0 and the
        # initiator on shard 1.  Shard 0 is served through the worker loop
        # on a thread; the test plays the parent and drives shard 1 by
        # direct calls, ferrying the envelopes between them.
        config = GossipConfig(**dict(CONTRACT, seed=11, shards=2, trace=True))
        served = GossipGroup(config=config, shard=0)
        peer = GossipGroup(config=config, shard=1)
        assert served.coordinator is not None and served.initiator is None
        assert peer.initiator is not None and peer.coordinator is None

        parent, child = multiprocessing.Pipe()
        worker = threading.Thread(
            target=shard_worker_loop, args=(child, served), daemon=True
        )
        worker.start()

        def ask(**msg):
            parent.send(msg)
            assert parent.poll(10.0), f"no reply to {msg['op']!r}"
            return parent.recv()

        try:
            addresses = ask(op="addresses")
            assert addresses["ok"] and addresses["egress"] == []
            assert addresses["activation"] == served.coordinator.activation_address

            # The activation request crosses into the served slice as
            # injected ingress; the coordinator's answer comes back as egress.
            peer.handle({"op": "activate", "address": addresses["activation"]})
            request = peer.egress.drain()
            assert [envelope[2] for envelope in request] == ["coordinator"]
            advanced = ask(op="advance", until=0.5, inbound=request)
            assert advanced["ok"] and advanced["busy"] >= 0.0
            answer = advanced["egress"]
            assert answer and {envelope[2] for envelope in answer} == {"initiator"}
            for deliver, source, destination, payload, size, sent in answer:
                peer.network.inject_ingress(
                    source, destination, payload, size, sent, deliver
                )
            peer.sim.run_until(0.5)
            activity_id = peer.handle({"op": "state"})["activity_id"]
            assert activity_id is not None

            # Setup steps on the served slice: subscribe sends its requests
            # to the local coordinator; state reports what is pending.
            pending = ask(op="state")
            assert pending["ok"] and pending["activity_id"] is None
            assert pending["subscribe_pending"] == [
                node.name for node in served.app_nodes()
            ]
            assert ask(
                op="subscribe",
                address=addresses["subscription"],
                activity_id=activity_id,
            )["ok"]
            ask(op="advance", until=1.0, inbound=[])
            assert ask(op="state")["subscribe_pending"] == []
            measured = ask(op="measure", gossip_id="urn:never-published")
            assert measured["receivers"] == [] and measured["times"] == []

            # An unknown step is reported, and the loop keeps serving.
            unknown = ask(op="no-such-step")
            assert unknown["ok"] is False
            assert "no-such-step" in unknown["error"]
            digest = ask(op="trace_digest")
            assert digest["ok"] and digest["trace_events"] > 0
            assert ask(op="hub")["state"]

            assert ask(op="stop") == {"ok": True}
            worker.join(timeout=10.0)
            assert not worker.is_alive()
        finally:
            parent.close()
            child.close()
