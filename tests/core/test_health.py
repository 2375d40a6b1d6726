"""Peer-health: suspicion scores, decay, and health-aware selection."""

import random

import pytest

from repro.core.health import (
    BOOST_CAP,
    BREAKER_RESET,
    MAX_RETRIES,
    RETRY_BACKOFF,
    HealthPolicy,
    PeerHealth,
    key_of,
)
from repro.core.params import ParamError
from repro.core.peers import HealthAwareSelector, RoundRobinSelector
from repro.obs.hub import default_hub
from repro.transport.base import SendOutcome

# Reset around every test by the shared autouse fixture in conftest.py.
HEALTH_STATS = default_hub().health


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_health(clock=None, **overrides):
    policy = HealthPolicy().with_overrides(**overrides)
    return PeerHealth(policy, clock=clock or FakeClock())


# -- key normalization ------------------------------------------------------


def test_key_of_collapses_to_node_base():
    assert key_of("sim://n3/app") == "sim://n3"
    assert key_of("sim://n3/gossip") == "sim://n3"
    assert key_of("http://host:8801/x/y") == "http://host:8801"
    assert key_of("n3") == "n3"


def test_all_services_of_a_node_share_one_record():
    health = make_health(suspicion_threshold=1.5)
    health.record_outcome(SendOutcome("sim://n3/app", ok=False, error="x"))
    health.record_outcome(SendOutcome("sim://n3/gossip", ok=False, error="x"))
    assert health.is_suspected("sim://n3/membership")


# -- scoring ---------------------------------------------------------------


def test_failures_accumulate_to_suspicion():
    health = make_health(suspicion_threshold=1.5)  # FAILURE_WEIGHT 1.0
    health.record_outcome(SendOutcome("sim://a/app", ok=False, error="x"))
    assert not health.is_suspected("sim://a/app")
    health.record_outcome(SendOutcome("sim://a/app", ok=False, error="x"))
    assert health.is_suspected("sim://a/app")
    assert HEALTH_STATS.peers_suspected.value == 1


def test_score_decays_with_half_life():
    clock = FakeClock()
    health = make_health(clock=clock, half_life=10.0)
    health.record_outcome(SendOutcome("sim://a/app", ok=False, error="x"))
    assert health.suspicion("sim://a/app") == pytest.approx(1.0)
    clock.advance(10.0)
    assert health.suspicion("sim://a/app") == pytest.approx(0.5)
    clock.advance(10.0)
    assert health.suspicion("sim://a/app") == pytest.approx(0.25)


def test_success_relieves_suspicion_and_restores():
    health = make_health(suspicion_threshold=1.5)  # SUCCESS_RELIEF 1.0
    for _ in range(3):
        health.record_outcome(SendOutcome("sim://a/app", ok=False, error="x"))
    assert health.is_suspected("sim://a/app")
    for _ in range(2):
        health.record_outcome(SendOutcome("sim://a/app", ok=True))
    assert not health.is_suspected("sim://a/app")
    assert HEALTH_STATS.peers_restored.value == 1


def test_hearing_from_a_peer_counts_as_alive():
    health = make_health()
    health.record_outcome(SendOutcome("sim://a/app", ok=False, error="x"))
    health.observe_alive("sim://a/gossip")
    assert health.suspicion("sim://a/app") == pytest.approx(0.0)


def test_mark_failed_suspects_immediately():
    health = make_health(suspicion_threshold=1.5)
    health.mark_failed("sim://a/app")
    assert health.is_suspected("sim://a/app")


def test_decay_readmits_a_marked_peer():
    clock = FakeClock()
    health = make_health(clock=clock, suspicion_threshold=1.5, half_life=5.0)
    health.mark_failed("sim://a/app")
    clock.advance(30.0)
    assert not health.is_suspected("sim://a/app")


def test_forget_drops_all_state():
    health = make_health()
    health.mark_failed("sim://a/app")
    health.forget("sim://a/app")
    assert health.suspicion("sim://a/app") == 0.0
    assert health.suspected_peers() == []


# -- degraded-mode fanout ---------------------------------------------------


def test_effective_fanout_compensates_for_suspects():
    health = make_health()
    view = [f"sim://n{i}/app" for i in range(10)]
    for peer in view[:5]:
        health.mark_failed(peer)
    # 5 of 10 suspected: multiplier 10/5 = 2 (at BOOST_CAP, not past it).
    assert health.effective_fanout(4, view) == 8
    assert HEALTH_STATS.fanout_boosts.value == 1


def test_effective_fanout_is_capped():
    health = make_health()
    view = [f"sim://n{i}/app" for i in range(10)]
    for peer in view[:9]:
        health.mark_failed(peer)
    assert health.effective_fanout(4, view) == 4 * BOOST_CAP  # not 40


def test_effective_fanout_unchanged_when_all_healthy_or_all_dead():
    health = make_health()
    view = [f"sim://n{i}/app" for i in range(4)]
    assert health.effective_fanout(3, view) == 3
    for peer in view:
        health.mark_failed(peer)
    assert health.effective_fanout(3, view) == 3
    assert health.effective_fanout(3, []) == 3


# -- HealthAwareSelector ---------------------------------------------------


def test_selector_prefers_healthy_peers():
    health = make_health()
    selector = HealthAwareSelector(health)
    view = [f"sim://n{i}/app" for i in range(6)]
    health.mark_failed(view[0])
    health.mark_failed(view[1])
    rng = random.Random(3)
    for _ in range(20):
        chosen = selector.select(view, 4, rng)
        assert set(chosen) == set(view[2:])


def test_selector_falls_back_to_suspects_when_short():
    health = make_health()
    selector = HealthAwareSelector(health)
    view = [f"sim://n{i}/app" for i in range(4)]
    for peer in view[1:]:
        health.mark_failed(peer)
    chosen = selector.select(view, 3, random.Random(1))
    assert view[0] in chosen
    assert len(chosen) == 3


def test_selector_respects_exclude_and_inner_strategy():
    health = make_health()
    selector = HealthAwareSelector(health, inner=RoundRobinSelector())
    view = ["a", "b", "c", "d"]
    chosen = selector.select(view, 2, random.Random(0), exclude=["a"])
    assert "a" not in chosen
    assert len(chosen) == 2


# -- HealthPolicy ----------------------------------------------------------


def test_policy_validation_names_the_key():
    with pytest.raises(ParamError) as exc:
        HealthPolicy(half_life=0.0)
    assert exc.value.key == "half_life"
    with pytest.raises(ParamError) as exc:
        HealthPolicy(breaker_threshold=0)
    assert exc.value.key == "breaker_threshold"


def test_policy_from_value_roundtrip_and_unknown_key():
    policy = HealthPolicy(half_life=3.0, breaker_threshold=2)
    assert HealthPolicy.from_value(policy.to_value()) == policy
    with pytest.raises(ParamError) as exc:
        HealthPolicy.from_value({"no_such_knob": 1})
    assert exc.value.key == "no_such_knob"


def test_policy_derives_transport_policies():
    policy = HealthPolicy(breaker_threshold=5)
    retry = policy.retry_policy()
    assert retry.max_retries == MAX_RETRIES
    assert retry.backoff == RETRY_BACKOFF
    breaker = policy.breaker_policy()
    assert breaker.failure_threshold == 5
    assert breaker.reset_timeout == BREAKER_RESET
