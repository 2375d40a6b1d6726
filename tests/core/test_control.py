"""Tests for the adaptive gossip controller (repro.core.control)."""

import pytest

from repro.core.control import (
    COOLDOWN_EPOCHS,
    EPOCH,
    FANOUT_CEILING,
    MAX_BATCH_RUMORS,
    MAX_FANOUT,
    MAX_ROUNDS,
    MIN_FANOUT,
    MIN_ROUNDS,
    AdaptiveController,
    ControlDecision,
    EpochSignals,
)
from repro.core.message import GossipStyle
from repro.core.params import GossipParams
from repro.obs.hub import MetricsHub


class FakeEngine:
    """The slice of GossipEngine the controller steers."""

    def __init__(self, params):
        self.params = params
        self.fanout_ceiling = None
        self.assignments = 0
        self.kicks = 0

    def __setattr__(self, name, value):
        if name == "params" and "params" in self.__dict__:
            self.__dict__["assignments"] += 1
        self.__dict__[name] = value

    def start_periodic_rounds(self):
        self.kicks += 1


class FakeScheduler:
    def __init__(self):
        self.now = 0.0
        self.scheduled = []

    def call_after(self, delay, callback):
        self.scheduled.append((self.now + delay, callback))


def make_controller(params=None, engines=None):
    hub = MetricsHub(parent=None, name="test")
    params = params if params is not None else GossipParams(fanout=3, rounds=5)
    engines = engines if engines is not None else [FakeEngine(params)]
    controller = AdaptiveController(
        hub,
        population=20,
        engines=lambda: engines,
    )
    controller._scheduler = FakeScheduler()
    controller._seed_targets(params)
    return controller, hub, engines


def calm_signals(**overrides):
    base = dict(time=10.0, delivery=1.0, duplicate_ratio=0.0, suspicion=0.0,
                failure_rate=0.0, publish_rate=1.0, burst=1.0,
                rounds_bound=6, spans_assessed=3)
    base.update(overrides)
    return EpochSignals(**base)


class TestDecide:
    def test_slo_breach_boosts_fast(self):
        controller, hub, engines = make_controller()
        decision = controller._decide(calm_signals(delivery=0.90))
        assert decision.action == "boost"
        assert decision.fanout == 5 and decision.rounds == 7
        assert decision.style == "push-pull"  # escalated for repair
        assert hub.control.boosts.value == 1
        assert hub.control.slo_breaches.value == 1
        assert hub.control.escalations.value == 1
        assert controller._cooldown == COOLDOWN_EPOCHS

    def test_repeated_breaches_cap_at_maxima(self):
        controller, hub, _ = make_controller()
        for _ in range(10):
            controller._decide(calm_signals(delivery=0.5))
        assert controller._fanout == MAX_FANOUT
        assert controller._rounds == MAX_ROUNDS

    def test_guard_stress_escalates_but_keeps_capacity(self):
        controller, hub, _ = make_controller()
        decision = controller._decide(calm_signals(suspicion=0.5))
        assert decision.action == "boost"
        assert decision.style == "push-pull"
        # Delivery holds the SLO: fanout and rounds stay where they were.
        assert decision.fanout == 3 and decision.rounds == 5
        assert hub.control.escalations.value == 1

    def test_sustained_guard_stress_holds_capacity(self):
        controller, hub, _ = make_controller()
        controller._decide(calm_signals(suspicion=0.5))
        decision = controller._decide(calm_signals(suspicion=0.5))
        assert decision.action == "hold"
        assert "holding capacity" in decision.reasons
        assert decision.fanout == 3
        # ... and the shrink horizon was pushed out again.
        assert controller._cooldown == COOLDOWN_EPOCHS

    def test_burst_widens_batching_only(self):
        controller, hub, _ = make_controller()
        decision = controller._decide(
            calm_signals(burst=5.0, publish_rate=4.0)
        )
        assert decision.action == "boost"
        assert decision.max_batch_rumors == MAX_BATCH_RUMORS
        assert decision.fanout == 3 and decision.rounds == 5
        assert decision.style == "push"

    def test_tiny_burst_ratio_without_volume_is_ignored(self):
        controller, _, _ = make_controller()
        # Ratio over threshold but only ~1 publish per epoch: noise.
        decision = controller._decide(
            calm_signals(burst=5.0, publish_rate=0.5)
        )
        assert decision.action in ("shrink", "hold")
        assert controller._batch == 1

    def test_slow_rounds_is_guard_not_full_boost(self):
        controller, _, _ = make_controller()
        decision = controller._decide(
            calm_signals(rounds_to_slo=9, rounds_bound=4)
        )
        assert decision.action == "boost"
        assert decision.fanout == 3  # mode insurance only
        assert decision.style == "push-pull"

    def test_cooldown_blocks_shrink_then_releases(self):
        controller, hub, _ = make_controller()
        controller._decide(calm_signals(delivery=0.9))  # boost
        actions = [
            controller._decide(calm_signals()).action
            for _ in range(COOLDOWN_EPOCHS + 1)
        ]
        assert actions == ["hold"] * COOLDOWN_EPOCHS + ["shrink"]
        assert hub.control.cooldown_holds.value == COOLDOWN_EPOCHS

    def test_shrink_order_deescalate_fanout_rounds_batch(self):
        controller, hub, _ = make_controller(
            params=GossipParams(fanout=5, rounds=7)
        )
        controller._decide(calm_signals(delivery=0.9, burst=4.0,
                                        publish_rate=5.0))
        assert (controller._level, controller._fanout, controller._rounds,
                controller._batch) == (1, 7, 9, MAX_BATCH_RUMORS)
        for _ in range(COOLDOWN_EPOCHS):
            assert controller._decide(calm_signals()).action == "hold"
        expected = [(0, 7, 9, 64)]  # de-escalate first
        expected += [(0, f, 9, 64) for f in range(6, MIN_FANOUT - 1, -1)]
        expected += [(0, MIN_FANOUT, r, 64) for r in range(8, MIN_ROUNDS - 1, -1)]
        expected += [(0, MIN_FANOUT, MIN_ROUNDS, b) for b in (32, 16, 8, 4, 2, 1)]
        steps = []
        for _ in expected:
            controller._decide(calm_signals())
            steps.append((controller._level, controller._fanout,
                          controller._rounds, controller._batch))
        assert steps == expected  # then fanout, rounds, batching last
        assert controller._decide(calm_signals()).reasons == ["at floor"]
        assert hub.control.deescalations.value == 1

    def test_hold_at_floor(self):
        controller, hub, _ = make_controller(
            params=GossipParams(fanout=MIN_FANOUT, rounds=MIN_ROUNDS),
        )
        decision = controller._decide(calm_signals())
        assert decision.action == "hold"
        assert decision.reasons == ["at floor"]

    def test_no_verdict_holds(self):
        controller, _, _ = make_controller()
        decision = controller._decide(calm_signals(delivery=None))
        assert decision.action == "hold"
        assert decision.reasons == ["no verdict yet"]

    def test_off_ladder_style_is_not_steered(self):
        controller, hub, _ = make_controller(
            params=GossipParams(style=GossipStyle.ANTI_ENTROPY)
        )
        decision = controller._decide(calm_signals(delivery=0.9))
        assert decision.style == "anti-entropy"
        assert decision.fanout == 5  # capacity still boosted
        assert hub.control.escalations.value == 0

    def test_periodic_base_style_never_deescalates_below_base(self):
        controller, hub, _ = make_controller(
            params=GossipParams(style=GossipStyle.PUSH_PULL,
                                        fanout=5, rounds=7)
        )
        for _ in range(6):
            controller._decide(calm_signals())
        assert controller._level == 1  # the configured style is the floor
        assert hub.control.deescalations.value == 0


class TestApply:
    def test_apply_sets_ceiling_and_params(self):
        engine = FakeEngine(GossipParams(fanout=3, rounds=5))
        controller, hub, engines = make_controller(engines=[engine])
        controller._decide(calm_signals(delivery=0.9))
        decision = ControlDecision(
            time=1.0, epoch=1, action="boost", reasons=[],
            signals=calm_signals(), fanout=controller._fanout,
            rounds=controller._rounds, style="push-pull",
            max_batch_rumors=controller._batch,
        )
        controller._apply([engine], decision)
        assert engine.fanout_ceiling == FANOUT_CEILING
        assert engine.params.fanout == 5
        assert engine.params.rounds == 7
        assert engine.params.style is GossipStyle.PUSH_PULL
        assert engine.kicks == 1  # periodic loop kicked on escalation
        assert hub.control.param_updates.value == 1

    def test_apply_is_a_noop_when_nothing_changed(self):
        engine = FakeEngine(GossipParams(fanout=3, rounds=5))
        controller, hub, _ = make_controller(engines=[engine])
        decision = controller._decide(calm_signals(delivery=None))
        controller._apply([engine], decision)
        assert engine.assignments == 0
        assert engine.kicks == 0
        assert hub.control.param_updates.value == 0

    def test_apply_raises_peer_sample_size_to_fanout(self):
        engine = FakeEngine(
            GossipParams(fanout=3, rounds=5, peer_sample_size=4)
        )
        controller, _, _ = make_controller(
            params=engine.params, engines=[engine]
        )
        for _ in range(4):
            controller._decide(calm_signals(delivery=0.9))
        controller._apply([engine], None)
        assert engine.params.fanout == MAX_FANOUT
        assert engine.params.peer_sample_size >= engine.params.fanout


class TestEpochTick:
    def test_no_engines_no_decision(self):
        hub = MetricsHub(parent=None, name="test")
        controller = AdaptiveController(
            hub, population=10, engines=lambda: []
        )
        controller._scheduler = FakeScheduler()
        assert controller.epoch_tick() is None
        assert hub.decisions == []
        assert hub.control.epochs.value == 0

    def test_tick_records_decision_series_and_stats(self):
        engine = FakeEngine(GossipParams(fanout=3, rounds=5))
        hub = MetricsHub(parent=None, name="test")
        controller = AdaptiveController(
            hub, population=10, engines=lambda: [engine]
        )
        scheduler = FakeScheduler()
        scheduler.now = 2.0
        controller._scheduler = scheduler
        decision = controller.epoch_tick()
        assert decision is not None
        assert hub.decisions == [decision]
        assert hub.control.epochs.value == 1
        assert hub.series("control.fanout").samples()

    def test_start_schedules_on_scheduler(self):
        engine = FakeEngine(GossipParams())
        hub = MetricsHub(parent=None, name="test")
        controller = AdaptiveController(
            hub, population=10, engines=lambda: [engine]
        )
        scheduler = FakeScheduler()
        controller.start(scheduler)
        assert scheduler.scheduled and scheduler.scheduled[0][0] == EPOCH

    def test_stop_halts_ticking(self):
        engine = FakeEngine(GossipParams())
        hub = MetricsHub(parent=None, name="test")
        controller = AdaptiveController(
            hub, population=10, engines=lambda: [engine]
        )
        scheduler = FakeScheduler()
        controller.start(scheduler)
        controller.stop()
        _, callback = scheduler.scheduled.pop()
        callback()
        assert hub.decisions == []
        assert scheduler.scheduled == []  # nothing rescheduled

    def test_decision_to_value_is_json_shaped(self):
        controller, hub, _ = make_controller()
        decision = controller._decide(calm_signals(delivery=0.9))
        value = decision.to_value()
        assert value["action"] == "boost"
        assert value["signals"]["delivery"] == 0.9
        assert isinstance(value["reasons"], list)
