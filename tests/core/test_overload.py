"""Unit tests for the overload-protection subsystem's policy surface.

The scenario-level behaviour (bounded queues, shedding vs collapse,
controller composition) is gated by ``tests/integration/test_overload.py``
and ``make test-overload``; this file pins down the policy objects, the
``GossipConfig`` opt-in coercion, the shed ladder and its watermark
latch, the slow-consumer fault's determinism, and the observability
plumbing.
"""

import random
from collections import deque

import pytest

from repro import GossipConfig
from repro.core.engine import ADVERTISE_ACTION
from repro.core.overload import (
    HIGH_WATERMARK,
    LOW_WATERMARK,
    SHED_THRESHOLDS,
    OverloadError,
    OverloadPolicy,
    OverloadStage,
)
from repro.core.params import ParamError
from repro.simnet.faults import FaultPlan


# -- OverloadPolicy ----------------------------------------------------------


class TestOverloadPolicy:
    def test_defaults_are_valid_and_ordered(self):
        assert OverloadPolicy() == OverloadPolicy(outbox_bound=256, ingest_capacity=256)
        assert 0 < LOW_WATERMARK < HIGH_WATERMARK <= 1.0

    @pytest.mark.parametrize("overrides,field", [
        ({"outbox_bound": 0}, "outbox_bound"),
        ({"ingest_capacity": 0}, "ingest_capacity"),
    ])
    def test_validation_names_the_offending_field(self, overrides, field):
        with pytest.raises(ParamError) as excinfo:
            OverloadPolicy(**overrides)
        assert excinfo.value.key == field

    def test_value_roundtrip(self):
        policy = OverloadPolicy(outbox_bound=64, ingest_capacity=32)
        assert OverloadPolicy.from_value(policy.to_value()) == policy

    def test_from_value_rejects_unknown_keys(self):
        with pytest.raises(ParamError) as excinfo:
            OverloadPolicy.from_value({"sched_digest": 0.5})
        assert "sched_digest" in str(excinfo.value)

    def test_from_value_is_partial_over_defaults(self):
        policy = OverloadPolicy.from_value({"ingest_capacity": 32})
        assert policy.ingest_capacity == 32
        assert policy.outbox_bound == OverloadPolicy().outbox_bound

    def test_with_overrides(self):
        assert OverloadPolicy().with_overrides(outbox_bound=9).outbox_bound == 9

    def test_threshold_ladder(self):
        assert list(SHED_THRESHOLDS) == ["digest", "feedback", "pull", "payload"]
        thresholds = list(SHED_THRESHOLDS.values())
        assert thresholds == sorted(thresholds)
        assert SHED_THRESHOLDS["payload"] == 1.0


# -- the shed-ladder latch, as both bounded queues run it --------------------


def engine_digest_gate(group):
    """Drive the engine's send-side ladder: pressure from its provider."""
    engine = group.initiator.gossip_layer.engines()[0]
    assert isinstance(engine.overload, OverloadStage)
    level = [0.0]
    engine.overload._floor = lambda: level[0]

    def step(pressure):
        level[0] = pressure
        return engine._shed("digest")

    return step, engine.overload


def handler_digest_gate(group):
    """Drive the layer's ingest gate: pressure is the queue's fill."""
    layer = group.initiator.gossip_layer
    assert isinstance(layer.overload, OverloadStage)
    capacity = group.config.overload.ingest_capacity

    def step(pressure):
        layer._ingest_queue = deque([(b"", None)] * round(pressure * capacity))
        before = group.hub.overload.shed_digests.value
        layer._ingest_gate(ADVERTISE_ACTION.encode(), None)  # a digest frame
        return group.hub.overload.shed_digests.value > before

    return step, layer.overload


@pytest.mark.parametrize("gate", [engine_digest_gate, handler_digest_gate],
                         ids=["engine", "handler"])
def test_shed_latch_rises_holds_and_clears(gate):
    """Below the digest rung nothing sheds; crossing the high watermark
    latches; between the watermarks the latch holds pressure at the high
    mark (digests still shed); below the low watermark it clears."""
    group = GossipConfig(n_disseminators=3, seed=5, auto_tune=False,
                         overload={"ingest_capacity": 20}).build()
    group.setup(settle=1.0, eager_join=True)
    step, latch = gate(group)
    highs = group.hub.overload.pressure_highs.value
    sequence = [
        (0.55, False, False),  # under the digest rung, unlatched
        (0.85, True, True),    # rise: latched, shed
        (0.55, True, True),    # hold between the watermarks: still shed
        (0.45, False, False),  # clear below the low watermark
        (0.55, False, False),  # and stays clear
    ]
    for pressure, shed, latched in sequence:
        assert step(pressure) is shed, pressure
        assert latch.overloaded is latched, pressure
    assert group.hub.overload.pressure_highs.value == highs + 1
    assert group.message_counts()["overload.shed_digests"] == 2


# -- GossipConfig opt-in -----------------------------------------------------


class TestConfigCoercion:
    def test_true_means_defaults(self):
        config = GossipConfig(n_disseminators=3, overload=True)
        assert config.overload == OverloadPolicy()

    def test_dict_is_partial_overrides(self):
        config = GossipConfig(n_disseminators=3,
                              overload={"ingest_capacity": 64})
        assert config.overload.ingest_capacity == 64

    def test_policy_passes_through(self):
        policy = OverloadPolicy(outbox_bound=32)
        config = GossipConfig(n_disseminators=3, overload=policy)
        assert config.overload is policy

    def test_none_is_off(self):
        assert GossipConfig(n_disseminators=3).overload is None

    def test_bad_type_raises_param_error(self):
        with pytest.raises(ParamError):
            GossipConfig(n_disseminators=3, overload=3.5)

    def test_bad_dict_key_raises_param_error(self):
        with pytest.raises(ParamError):
            GossipConfig(n_disseminators=3, overload={"bogus": 1})

    def test_policy_reaches_every_engine(self):
        config = GossipConfig(n_disseminators=3, seed=5, overload=True)
        group = config.build()
        group.setup(settle=1.0, eager_join=True)
        for node in [group.initiator, *group.disseminators]:
            for engine in node.gossip_layer.engines():
                assert engine.overload.policy == config.overload


# -- OverloadError -----------------------------------------------------------


def test_overload_error_carries_backpressure_metadata():
    error = OverloadError("full", pressure=0.97, retry_after=0.5)
    assert isinstance(error, RuntimeError)
    assert error.pressure == 0.97
    assert error.retry_after == 0.5


# -- the slow-consumer fault -------------------------------------------------


class TestThrottleFault:
    def run_throttled(self, seed=11):
        config = GossipConfig(
            n_disseminators=7, seed=seed, auto_tune=False,
            params={"style": "push-pull", "fanout": 3, "rounds": 4,
                    "period": 0.5},
            overload={"ingest_capacity": 16, "outbox_bound": 64},
        )
        group = config.build()
        group.setup(settle=1.0, eager_join=True)
        names = [node.name for node in group.disseminators]
        FaultPlan(group.network).throttle_at(
            group.network.sim.now + 0.01, names, 5.0,
            until=group.network.sim.now + 6.0,
        ).apply()
        gossip_ids = [group.publish({"seq": i}) for i in range(4)]
        group.run_for(12.0)
        return group, gossip_ids

    def test_throttled_arrivals_queue_and_drain(self):
        group, gossip_ids = self.run_throttled()
        overload = group.hub.overload.snapshot()
        assert overload["throttled"] > 0, "throttle never queued an arrival"
        assert overload["admitted"] > 0
        peak = group.hub.gauge("overload.ingest-queue-peak").value
        assert 0 < peak <= 16
        # After unthrottle + settle, everything admitted was delivered.
        for gossip_id in gossip_ids:
            assert group.delivered_fraction(gossip_id) == 1.0

    def test_throttle_is_deterministic(self):
        first, _ = self.run_throttled()
        second, _ = self.run_throttled()
        assert first.hub.overload.snapshot() == second.hub.overload.snapshot()
        assert first.message_counts() == second.message_counts()

    def test_throttle_rate_must_be_positive(self):
        config = GossipConfig(n_disseminators=3, seed=1)
        group = config.build()
        group.setup(settle=1.0, eager_join=True)
        with pytest.raises(ValueError):
            FaultPlan(group.network).throttle_at(1.0, ["d0"], 0.0)


# -- observability plumbing --------------------------------------------------


class TestOverloadObservability:
    def build_shedding_group(self):
        config = GossipConfig(
            n_disseminators=7, seed=11, auto_tune=False,
            params={"style": "push-pull", "fanout": 3, "rounds": 4,
                    "period": 0.5},
            overload={"ingest_capacity": 8, "outbox_bound": 64},
        )
        group = config.build()
        group.setup(settle=1.0, eager_join=True)
        names = [node.name for node in group.disseminators]
        FaultPlan(group.network).throttle_at(
            group.network.sim.now + 0.01, names, 2.0
        ).apply()
        for index in range(6):
            group.publish({"seq": index})
            group.run_for(0.5)
        group.run_for(4.0)
        return group

    def test_overload_group_flows_to_prometheus_export(self):
        from repro.obs.export import prometheus_text

        group = self.build_shedding_group()
        assert group.hub.overload.throttled.value > 0
        text = prometheus_text(group.hub)
        assert "repro_overload_throttled" in text
        assert "repro_overload_shed_digests" in text

    def test_obs_report_renders_the_overload_section(self):
        from repro.obs.report import render_report

        group = self.build_shedding_group()
        text = render_report(group.hub)
        assert "overload" in text
        assert "throttled" in text
