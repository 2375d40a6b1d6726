"""Crash-recovery subsystem: durable replay, amnesia catch-up, FIFO rejoin.

These tests exercise the full stack -- GossipGroup / DecentralizedGroup
over the simulator -- because crash semantics only mean something
end-to-end: a restarted node must rebuild from its log (durable) or from
its peers (amnesia + catch-up), and must not re-deliver or re-publish
what the group already saw.
"""

import pytest

from repro import DurabilityPolicy, GossipConfig, GossipGroup, ParamError
from repro.obs.hub import default_hub
from repro.core.decentralized import DecentralizedGroup

# Reset around every test by the shared autouse fixture in conftest.py.
RECOVERY_STATS = default_hub().recovery


def make_group(n=16, seed=7, durability=True, style="push", ordered=False):
    # Push style on purpose: it has no periodic digest repair, so the only
    # way a restarted node gets old messages is replay or catch-up.
    config = GossipConfig(
        n_disseminators=n,
        seed=seed,
        durability=durability,
        params={"style": style, "fanout": 3, "rounds": 6, "ordered": ordered},
    )
    group = GossipGroup(config=config)
    group.setup()
    return group


class TestDurableRestart:
    def test_replays_messages_from_log(self):
        group = make_group()
        m1 = group.publish({"k": 1})
        group.run_for(3.0)
        assert group.delivered_fraction(m1) == 1.0
        victim = group.disseminators[0]
        victim.crash()
        group.run_for(1.0)
        victim.restart(amnesia=False)
        assert victim.replayed_messages >= 1
        # The message is back before any network round trip: it came from
        # the WAL, not from the peers.
        assert victim.has_delivered(m1)
        assert RECOVERY_STATS.replayed_messages.value >= 1
        assert RECOVERY_STATS.restarts.value == 1
        assert RECOVERY_STATS.amnesia_restarts.value == 0

    def test_replay_restores_dedup(self):
        group = make_group()
        m1 = group.publish({"k": 1})
        group.run_for(3.0)
        victim = group.disseminators[0]
        victim.crash()
        group.run_for(1.0)
        victim.restart(amnesia=False)
        group.run_for(4.0)
        # Replay restored the seen-set: a straggler copy of m1 arriving
        # via catch-up pulls must not re-deliver.
        assert sum(1 for d in victim.deliveries if d.gossip_id == m1) <= 1


class TestSnapshotRoundTrip:
    """Replay from a snapshot plus the WAL tail rebuilds the engine the
    crash took down (``GossipEngine.snapshot_state`` and
    ``_apply_replay_state``; the default cadence of 256 appends is never
    reached by the other tests)."""

    @pytest.mark.parametrize("ordered", [False, True])
    def test_restart_after_compaction_rebuilds_store(self, ordered):
        config = GossipConfig(
            n_disseminators=12,
            seed=11,
            durability={"snapshot_every": 4},
            params={"style": "push", "fanout": 3, "rounds": 6, "ordered": ordered},
        )
        group = GossipGroup(config=config)
        group.setup()
        published = [group.publish({"k": index}) for index in range(7)]
        group.run_for(3.0)
        victim = group.disseminators[0]
        engine = victim.gossip_layer.engines()[0]
        assert all(victim.has_delivered(gossip_id) for gossip_id in published)
        replay = engine.log.replay()
        assert isinstance(replay.snapshot, dict)  # a compaction happened
        assert replay.records  # ...and a tail follows it
        before = (
            engine.store.digest(),
            engine.store.seen_identities(),
            engine.store.summary(),
            engine._fifo.counters(),
        )

        victim.crash()
        group.run_for(1.0)
        victim.restart(amnesia=False)

        engine = victim.gossip_layer.engines()[0]
        after = (
            engine.store.digest(),
            engine.store.seen_identities(),
            engine.store.summary(),
            engine._fifo.counters(),
        )
        assert after == before
        assert victim.replayed_messages == len(published)
        assert RECOVERY_STATS.snapshots.value >= 1


class TestAmnesiaRestart:
    def test_catch_up_recovers_lost_messages(self):
        group = make_group()
        m1 = group.publish({"k": 1})
        group.run_for(3.0)
        victim = group.disseminators[1]
        assert victim.has_delivered(m1)
        victim.crash()
        group.run_for(1.0)
        victim.restart(amnesia=True)
        # Nothing replayed -- the log was wiped with the node.
        assert victim.replayed_messages == 0
        assert not victim.has_delivered(m1)
        group.run_for(6.0)
        # ...but bounded anti-entropy with healthy peers got it back.
        assert victim.has_delivered(m1)
        assert RECOVERY_STATS.amnesia_restarts.value == 1
        assert RECOVERY_STATS.fetched.value >= 1
        assert RECOVERY_STATS.catch_up_rounds.value >= 1
        assert RECOVERY_STATS.catch_ups_completed.value >= 1

    def test_ablation_no_catch_up_stays_lost(self):
        # The control arm for the chaos gate: amnesia without catch-up
        # under push style must be demonstrably worse.
        group = make_group(durability=DurabilityPolicy(catch_up=False))
        m1 = group.publish({"k": 1})
        group.run_for(3.0)
        victim = group.disseminators[1]
        victim.crash()
        group.run_for(1.0)
        victim.restart(amnesia=True)
        group.run_for(6.0)
        assert not victim.has_delivered(m1)
        assert RECOVERY_STATS.catch_ups_completed.value == 0


class TestFifoAcrossRestart:
    # FIFO tests use push-pull: ordered push has a pre-existing partial
    # convergence quirk with back-to-back publishes that is orthogonal to
    # crash recovery (these tests assert sequence continuity, not the
    # catch-up-is-the-only-repair-path property).

    def test_durable_restart_continues_publish_sequence(self):
        group = make_group(ordered=True, seed=11, style="push-pull")
        m1 = group.publish({"k": 1})
        m2 = group.publish({"k": 2})
        group.run_for(4.0)
        assert group.delivered_fraction(m2) == 1.0
        group.initiator.crash()
        group.run_for(1.0)
        group.initiator.restart(amnesia=False)
        group.run_for(6.0)
        m3 = group.publish({"k": 3})
        group.run_for(4.0)
        assert group.delivered_fraction(m3) == 1.0
        # Per-origin FIFO held across the publisher's crash: every node
        # saw the three publications exactly once, in order.
        origin = group.initiator.app_address
        for node in group.disseminators:
            ids = [
                d.gossip_id for d in node.deliveries if d.origin == origin
            ]
            assert ids == [m1, m2, m3]

    def test_amnesia_publisher_does_not_reuse_sequences(self):
        group = make_group(ordered=True, seed=13, style="push-pull")
        m1 = group.publish({"k": 1})
        m2 = group.publish({"k": 2})
        group.run_for(4.0)
        group.initiator.crash()
        group.run_for(1.0)
        group.initiator.restart(amnesia=True)
        # Catch-up pulls the publisher's own old messages back, bumping
        # its publication counter past every sequence the group has seen.
        group.run_for(6.0)
        m4 = group.publish({"k": 4})
        group.run_for(4.0)
        # Had the sequence restarted at zero, consumers' FIFO watermarks
        # (already past 2) would suppress the new publication forever.
        assert group.delivered_fraction(m4) == 1.0
        origin = group.initiator.app_address
        sample = group.disseminators[0]
        ids = [d.gossip_id for d in sample.deliveries if d.origin == origin]
        assert ids == [m1, m2, m4]

    def test_replayed_fifo_watermark_suppresses_redelivery(self):
        group = make_group(ordered=True, seed=17, style="push-pull")
        m1 = group.publish({"k": 1})
        group.run_for(4.0)
        victim = group.disseminators[2]
        assert victim.has_delivered(m1)
        victim.crash()
        group.run_for(1.0)
        victim.restart(amnesia=False)
        group.run_for(6.0)
        # Replay repopulated the delivered set without replaying the
        # application callback...
        assert victim.has_delivered(m1)
        # ...and catch-up copies of m1 were suppressed by the restored
        # FIFO watermark: nothing was delivered twice after the restart.
        assert [d.gossip_id for d in victim.deliveries] == []


class TestDecentralizedRestart:
    def test_rejoin_from_seeds_and_catch_up(self):
        group = DecentralizedGroup(n_nodes=12, seed=7)
        group.setup()
        m1 = group.publish({"k": 1})
        group.run_for(6.0)
        assert group.delivered_fraction(m1) == 1.0
        victim = group.nodes[3]
        victim.crash()
        group.run_for(1.0)
        victim.restart(amnesia=True)
        # Membership and sampling views rebuild from the original seeds;
        # the catch-up protocol then refills the message store.
        group.run_for(10.0)
        assert victim.has_delivered(m1)
        assert RECOVERY_STATS.amnesia_restarts.value == 1


class TestConfigSurface:
    def test_true_becomes_default_policy(self):
        config = GossipConfig(durability=True)
        assert config.durability == DurabilityPolicy()

    def test_dict_is_parsed(self):
        config = GossipConfig(durability={"snapshot_every": 5})
        assert config.durability.snapshot_every == 5

    def test_bad_value_raises_param_error(self):
        with pytest.raises(ParamError) as excinfo:
            GossipConfig(durability="yes please")
        assert excinfo.value.key == "durability"

    def test_none_means_no_durability(self):
        assert GossipConfig().durability is None
