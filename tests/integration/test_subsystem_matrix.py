"""Pairwise subsystem matrix: every two subsystems run together.

Each cell switches two of {health, durability (memory), overload,
telemetry, adaptive, batching} on over one seeded push-pull group of 24
services, publishes, and must deliver every rumor to >= 99% of the group
without raising.  The two combinations the sharded simulator refuses --
adaptive and telemetry -- must raise their documented ``ParamError``.
"""

import itertools

import pytest

from repro import GossipConfig, ParamError

N = 24
PARAMS = {"style": "push-pull", "fanout": 3, "rounds": 5, "period": 0.5}

#: One on-switch per subsystem, as a ``GossipConfig`` override.
AXES = {
    "health": {"health": True},
    "durability": {"durability": {"mode": "memory"}},
    "overload": {"overload": True},
    "telemetry": {"telemetry": True},
    "adaptive": {"adaptive": True},
    "batching": {"params": dict(PARAMS, max_batch_rumors=8)},
}


def config_for(*axes, **extra) -> GossipConfig:
    overrides = {"params": dict(PARAMS)}
    for axis in axes:
        overrides.update(AXES[axis])
    return GossipConfig(n_disseminators=N - 1, seed=5, **overrides, **extra)


PAIRS = list(itertools.combinations(AXES, 2))


@pytest.mark.parametrize("first,second", PAIRS, ids=[f"{a}-{b}" for a, b in PAIRS])
def test_pair_sets_up_and_delivers(first, second):
    group = config_for(first, second).build()
    group.setup(settle=1.0)
    published = []
    for index in range(3):
        published.append(group.publish({"cell": f"{first}-{second}", "n": index}))
        group.run_for(0.5)
    group.run_for(6.0)
    fractions = [group.delivered_fraction(gossip_id) for gossip_id in published]
    assert min(fractions) >= 0.99, fractions


@pytest.mark.parametrize("axis", ["adaptive", "telemetry"])
def test_shards_refuse(axis):
    with pytest.raises(ParamError) as raised:
        config_for(axis, shards=2).build()
    assert raised.value.key in (axis, "shards")
