"""Seeded chaos: the health layer under combined crash + loss faults.

The acceptance scenario for the peer-health subsystem: 30% of a 500-node
deployment crashes and every link loses 10% of its messages.  With the
health layer on (suspicion + degraded-mode selection + fanout boost +
retrying/breaker-guarded transports) the epidemic still reaches >= 99% of
the survivors; with it off, the same seed falls measurably short.

Also covered here: circuit breakers verifiably stop sends to a crashed
peer within the failure threshold, and re-admit it after recovery via the
half-open probe -- over the real simulated network, not a fake transport.
"""

import pytest

from repro.core.api import GossipConfig, GossipGroup
from repro.simnet.events import Simulator
from repro.simnet.faults import FaultPlan
from repro.obs.hub import default_hub
from repro.simnet.network import Network
from repro.transport.base import BreakerPolicy, CircuitBreaker
from repro.transport.inmem import WsProcess, sim_address

pytestmark = pytest.mark.gate  # run by `make test-chaos` (pyproject.toml, markers)

N = 500
CRASH_FRACTION = 0.3
LOSS_RATE = 0.10
SEED = 1701

# The shared autouse fixture in tests/conftest.py resets the default hub
# (including its health stat group) around every test.
HEALTH_STATS = default_hub().health

# One observed failure is enough to suspect, and a crash-length half-life
# keeps warmup-learned suspicions alive through the measured publish;
# breakers open after two failures (and probe again after BREAKER_RESET).
HEALTH_POLICY = {
    "suspicion_threshold": 0.9,
    "half_life": 60.0,
    "breaker_threshold": 2,
}


def chaos_delivery(health: bool, seed: int = SEED) -> float:
    """Survivor delivery fraction for one seeded chaos run."""
    config = GossipConfig(
        n_disseminators=N - 1,
        seed=seed,
        loss_rate=LOSS_RATE,
        params={"fanout": 6, "rounds": 7, "peer_sample_size": 16},
        auto_tune=False,
        health=HEALTH_POLICY if health else None,
    )
    group = GossipGroup(config=config)
    group.setup(eager_join=True)

    plan = FaultPlan(group.network)
    names = [node.name for node in group.disseminators]
    plan.crash_fraction_at(group.sim.now, CRASH_FRACTION, names)
    plan.apply()
    group.run_for(0.05)

    # Warmup traffic: with health on, the failed sends it generates teach
    # every node who is down *before* the measured publish.
    for _ in range(3):
        group.publish({"warmup": True})
        group.run_for(3.0)

    gossip_id = group.publish({"x": 1})
    group.run_for(12.0)

    survivors = [
        node for node in group.disseminators
        if group.network.process(node.name).is_running
    ]
    delivered = sum(1 for node in survivors if node.has_delivered(gossip_id))
    return delivered / max(1, len(survivors))


def test_health_layer_meets_chaos_delivery_target():
    fraction = chaos_delivery(health=True)
    assert fraction >= 0.99
    # The machinery demonstrably engaged.
    assert HEALTH_STATS.peers_suspected.value > 0
    assert HEALTH_STATS.breaker_opened.value > 0
    assert HEALTH_STATS.sends_suppressed.value > 0


def test_health_layer_beats_health_off_on_the_same_seed():
    with_health = chaos_delivery(health=True)
    without = chaos_delivery(health=False)
    assert with_health >= 0.99
    assert with_health > without


def test_chaos_run_is_deterministic_per_seed():
    assert chaos_delivery(health=True) == chaos_delivery(health=True)


# -- breaker behaviour over the real simulated network ----------------------


def make_pair(breaker_reset=2.0, threshold=3):
    sim = Simulator(seed=9)
    network = Network(sim)
    a, b = WsProcess("a", network), WsProcess("b", network)
    a.start(), b.start()
    a.runtime.transport.configure_resilience(
        breaker=BreakerPolicy(
            failure_threshold=threshold, reset_timeout=breaker_reset
        )
    )
    outcomes = []
    a.runtime.transport.add_outcome_listener(outcomes.append)
    return sim, a, b, outcomes


def send(sim, node, dt=0.01):
    node.runtime.transport.send(sim_address("b", "/x"), b"<x/>")
    sim.run_until(sim.now + dt)


def test_breaker_stops_sends_to_crashed_peer_within_threshold():
    sim, a, b, outcomes = make_pair(threshold=3)
    b.crash()
    for _ in range(6):
        send(sim, a)
    failures = [o for o in outcomes if o.error == "dead-destination"]
    suppressed = [o for o in outcomes if o.error == "circuit-open"]
    # Exactly K sends observed the dead peer; the rest never hit the wire.
    assert len(failures) == 3
    assert len(suppressed) == 3
    breaker = a.runtime.transport.breaker_for(sim_address("b"))
    assert breaker.state == CircuitBreaker.OPEN


def test_breaker_readmits_recovered_peer_via_half_open_probe():
    sim, a, b, outcomes = make_pair(threshold=2, breaker_reset=2.0)
    b.crash()
    for _ in range(4):
        send(sim, a)
    assert [o.ok for o in outcomes].count(True) == 0

    b.start()
    sim.run_until(sim.now + 2.5)  # past the reset timeout
    send(sim, a)  # the half-open probe
    assert outcomes[-1].ok
    breaker = a.runtime.transport.breaker_for(sim_address("b"))
    assert breaker.state == CircuitBreaker.CLOSED
    send(sim, a)  # normal traffic resumes
    assert outcomes[-1].ok
    assert HEALTH_STATS.breaker_probes.value >= 1
    assert HEALTH_STATS.breaker_closed.value >= 1
