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

import pytest

from repro.core.api import GossipConfig
from repro.core.params import ParamError

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
