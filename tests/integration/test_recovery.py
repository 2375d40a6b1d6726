"""Seeded recovery chaos: crash-restart with amnesia, partitions, catch-up.

The acceptance scenario for the crash-recovery subsystem: 20% of a
500-node deployment crash-restarts *with amnesia* while a partition
splits and heals, under push gossip (no periodic repair -- the rejoin
catch-up protocol is the only way back).  With durability + catch-up the
epidemic still reaches >= 99% of the group; the ablation arm (amnesia
without catch-up) on the same seed is demonstrably worse.

Also covered: a partition that isolates half the group during the
epidemic, healed later, converges to full delivery on both sides via
anti-entropy -- no restart required.
"""

import pytest

from repro import DurabilityPolicy, GossipConfig, GossipGroup
from repro.obs.hub import default_hub
from repro.simnet.faults import FaultPlan

pytestmark = pytest.mark.gate  # run by `make test-recovery` (pyproject.toml, markers)

N = 500
CRASH_FRACTION = 0.2
SEED = 1701

# Reset around every test by the shared autouse fixture in conftest.py.
RECOVERY_STATS = default_hub().recovery


def recovery_delivery(catch_up: bool, seed: int = SEED) -> float:
    """Group-wide delivery fraction for one seeded crash-restart run.

    Timeline (relative to the end of setup): publish at 0; push rounds
    finish by ~3.5; partition from 4.0 to 6.0; 20% of the group crashes
    at 4.5 (mid-partition) and restarts with amnesia at 7.5 (post-heal),
    when its bounded catch-up can actually reach healthy peers.
    """
    config = GossipConfig(
        n_disseminators=N - 1,
        seed=seed,
        durability=DurabilityPolicy(catch_up=catch_up),
        # Push style on purpose: no digest repair ever runs, so restarted
        # nodes recover through the rejoin catch-up protocol or not at all.
        params={"style": "push", "fanout": 6, "rounds": 7, "peer_sample_size": 16},
        auto_tune=False,
    )
    group = GossipGroup(config=config)
    group.setup(eager_join=True)
    t0 = group.sim.now
    gossip_id = group.publish({"x": 1})

    names = [node.name for node in group.disseminators]
    half = len(names) // 2
    plan = FaultPlan(group.network)
    plan.partition_at(t0 + 4.0, [names[:half], names[half:]]).heal_at(t0 + 6.0)
    plan.crash_fraction_at(
        t0 + 4.5, CRASH_FRACTION, names, restart_after=3.0, amnesia=True
    )
    plan.apply()
    group.run_for(16.0)

    delivered = sum(
        1 for node in group.disseminators if node.has_delivered(gossip_id)
    )
    return delivered / len(group.disseminators)


def test_recovery_gate_meets_delivery_target():
    fraction = recovery_delivery(catch_up=True)
    assert fraction >= 0.99
    # The machinery demonstrably engaged: every victim restarted with
    # amnesia, ran catch-up rounds, and fetched what it had lost.
    assert RECOVERY_STATS.amnesia_restarts.value == round(CRASH_FRACTION * (N - 1))
    assert RECOVERY_STATS.catch_ups_completed.value == RECOVERY_STATS.amnesia_restarts.value
    assert RECOVERY_STATS.fetched.value > 0


def test_catch_up_beats_ablation_on_the_same_seed():
    with_catch_up = recovery_delivery(catch_up=True)
    without = recovery_delivery(catch_up=False)
    assert with_catch_up >= 0.99
    # Amnesia without catch-up permanently loses roughly the crashed
    # fraction under push gossip -- the control arm for the gate.
    assert without < 0.9
    assert with_catch_up > without


def test_recovery_chaos_is_deterministic_per_seed():
    assert recovery_delivery(catch_up=True) == recovery_delivery(catch_up=True)


# -- partition + heal convergence without restarts ---------------------------


def test_partition_heals_to_full_delivery_on_both_sides():
    config = GossipConfig(
        n_disseminators=40,
        seed=29,
        # Anti-entropy runs periodic digest exchanges, so a healed
        # partition reconciles without any crash or restart involved.
        params={"style": "anti-entropy", "fanout": 4, "rounds": 8, "period": 0.5},
        auto_tune=False,
    )
    group = GossipGroup(config=config)
    group.setup(eager_join=True)
    t0 = group.sim.now
    names = [node.name for node in group.disseminators]
    half = len(names) // 2
    plan = FaultPlan(group.network)
    # The publisher-side partition keeps the initiator and coordinator so
    # the message can disseminate within side A while side B is dark.
    plan.partition_at(
        t0 + 0.01,
        [names[:half] + ["initiator", "coordinator"], names[half:]],
    ).heal_at(t0 + 6.0)
    plan.apply()
    group.run_for(0.02)
    gossip_id = group.publish({"x": 1})
    group.run_for(5.0)

    side_a = group.disseminators[:half]
    side_b = group.disseminators[half:]

    def fraction(side):
        return sum(1 for node in side if node.has_delivered(gossip_id)) / len(side)

    # While split: side A saturated, side B isolated from the publisher.
    assert fraction(side_a) == 1.0
    assert fraction(side_b) == 0.0

    group.run_for(10.0)
    # After the heal, periodic anti-entropy digests carry the message
    # across the former partition boundary: both sides fully converge.
    assert fraction(side_a) == 1.0
    assert fraction(side_b) == 1.0
