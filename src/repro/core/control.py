"""Adaptive gossip control: a feedback loop from observed delivery to knobs.

The epidemic analysis (:mod:`repro.core.analysis`) tells a deployment
which static ``(fanout, rounds)`` meet a reliability target *under the
conditions assumed when they were chosen*.  Real groups are perturbed:
nodes churn, links lose messages, publishers burst.  A static
configuration generous enough for the worst case over-sends all the time;
one tuned for calm conditions collapses under stress (the
Bimodal-Multicast observation, made adaptive here).

:class:`AdaptiveController` closes the loop over the PR 5 observability.
Once per *epoch* it reads the group's :class:`~repro.obs.hub.MetricsHub`:

* **delivery fraction** of recently published rumors (causal spans from
  the :class:`~repro.obs.tracing.RumorTracer`) against the configured SLO;
* **rounds-to-SLO** against the epidemic bound
  :func:`~repro.core.analysis.expected_rounds`;
* **duplicate ratio** (``gossip.duplicate`` / ``gossip.fresh`` deltas) --
  redundancy headroom that can be traded away in calm periods;
* **suspicion mass** from the peer-health layer (fraction of the
  population currently suspected);
* **send-failure rate** (``health.send_failures`` per wire send);
* **publish rate** vs. its own EWMA (burst detection).

and then *decides*, matching the response to what the signal threatens:

* a **delivery breach** (observed delivery below the SLO) gets the full
  fast boost within one epoch -- fanout +2, rounds +2, push -> push-pull
  escalation;
* **guard stress** (suspicion, send failures, slow rounds) with delivery
  still holding only buys insurance: escalate the mode, keep current
  capacity, and block shrinking -- raising fanout the SLO does not need
  is exactly the over-provisioning this controller exists to avoid;
* a **publish burst** widens batching to the max (bursts threaten
  traffic, not delivery);
* **overload pressure** (the PR 8 backpressure subsystem reporting
  outbox/ingest saturation at or above :data:`PRESSURE_HIGH`) overrides
  everything, including a delivery breach: boosting into a network that
  is already shedding only feeds the shedder.  The controller narrows
  batching and fanout one step instead and lets the priority shed
  ladder protect payloads (see docs/RESILIENCE.md);
* **calm** (delivery at SLO + margin, every signal quiet, cooldown
  elapsed) gives capacity back one gentle step per epoch.

The boost-fast / shrink-slow asymmetry plus the cooldown is the
anti-oscillation design: a perturbation is answered within one epoch,
but the controller needs :data:`COOLDOWN_EPOCHS` of provable calm before it
gives capacity back, so it cannot ping-pong across the SLO boundary.

Interplay with the PR 2 health layer: the degraded-mode fanout boost
(:meth:`~repro.core.health.PeerHealth.effective_fanout`) still runs per
round, but the controller owns the *hard ceiling*: it sets
``engine.fanout_ceiling`` so controller boost and health boost can never
compound past :data:`FANOUT_CEILING`, superseding the health layer's
fixed ``BOOST_CAP`` as the outermost traffic bound.

Every threshold and bound is a module constant below; turning the
controller on (``GossipConfig(adaptive=True)``) is the only setting.

Every decision is appended to ``hub.decisions`` (a
:class:`ControlDecision` timeline rendered by ``repro obs report`` and
exported as JSONL) and counted in the hub's ``control`` counter group.

The controller is deterministic: it draws no randomness, so two runs of
the same seed make identical decisions, and a controller that never
moves a knob does not perturb the simulation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.analysis import expected_rounds
from repro.core.message import GossipStyle
from repro.core.params import GossipParams

#: Styles the escalation ladder moves between (index = escalation level).
_ESCALATION_LADDER = (GossipStyle.PUSH, GossipStyle.PUSH_PULL)


#: Delivery fraction the controller holds (observed delivery below it is
#: a breach and triggers an immediate boost); the telemetry burn-rate
#: monitor defends the same SLO.
SLO_DELIVERY = 0.99
#: Seconds between controller decisions (and telemetry rollup ticks).
EPOCH = 2.0
#: Bounds the controller moves fanout within.
MIN_FANOUT, MAX_FANOUT = 2, 10
#: Bounds for the per-message hop budget.
MIN_ROUNDS, MAX_ROUNDS = 3, 12
#: Hard cap on the *effective* per-round fanout after the health layer's
#: degraded-mode boost -- the controller's boost and the health boost can
#: never compound past it (the outer bound over ``health.BOOST_CAP``).
FANOUT_CEILING = 12
#: Bounds for the batching knob; bursts widen batching toward the max,
#: calm shrinks it back.
MIN_BATCH_RUMORS, MAX_BATCH_RUMORS = 1, 64
#: Extra delivery above the SLO required before the controller considers
#: giving capacity back (hysteresis band).
SHRINK_MARGIN = 0.005
#: Suspected fraction of the population above which churn stress is
#: declared.  A *guard* signal: it escalates the gossip mode and blocks
#: shrinking, but -- as long as delivery holds the SLO -- it never raises
#: fanout/rounds (delivery breaches do that).
SUSPICION_HIGH = 0.10
#: Send failures per wire send above which loss stress is declared (a
#: guard signal, like :data:`SUSPICION_HIGH`).
FAILURE_HIGH = 0.02
#: Duplicates per fresh delivery above which the group has redundancy to
#: spare (a shrink *precondition* -- never a boost trigger).
DUPLICATE_HIGH = 1.5
#: Publish-rate multiple of its EWMA that declares a publish burst.
#: Bursts threaten traffic, not delivery: the response is to widen
#: batching to the max (amortizing envelopes), never to raise fanout.
BURST_HIGH = 3.0
#: Publishes that must land inside one epoch before a burst can be
#: declared at all -- at low base rates the Poisson noise of two or three
#: arrivals is not a burst.
BURST_MIN_PUBLISHES = 4
#: Calm epochs required after a boost before the first shrink (the
#: anti-oscillation brake).
COOLDOWN_EPOCHS = 3
#: Overload pressure (the engines' bounded outboxes and ingest queues,
#: 0..1) at or above which the controller *narrows* batching and fanout
#: instead of boosting -- even on a delivery breach.  Amplifying into a
#: network that is already shedding would only raise the shed rate; the
#: overload priority ladder protects payloads while the controller
#: reduces offered load.
PRESSURE_HIGH = 0.8


@dataclass
class EpochSignals:
    """What the controller observed over one epoch.

    ``delivery`` and ``rounds_to_slo`` are ``None`` when no rumor was
    published recently enough (and long enough ago) to judge.
    """

    time: float = 0.0
    delivery: Optional[float] = None
    rounds_to_slo: Optional[int] = None
    rounds_bound: int = 0
    duplicate_ratio: float = 0.0
    suspicion: float = 0.0
    failure_rate: float = 0.0
    publish_rate: float = 0.0
    burst: float = 1.0
    spans_assessed: int = 0
    pressure: float = 0.0

    #: Serialize for the JSONL export.
    to_value = asdict


@dataclass
class ControlDecision:
    """One epoch's verdict: what was observed, what was done, and why."""

    time: float
    epoch: int
    action: str  # "boost" | "shrink" | "hold"
    reasons: List[str] = field(default_factory=list)
    signals: EpochSignals = field(default_factory=EpochSignals)
    fanout: int = 0
    rounds: int = 0
    style: str = GossipStyle.PUSH.value
    max_batch_rumors: int = 1

    #: Serialize for the JSONL export (signals nested as a dict).
    to_value = asdict

    def __repr__(self) -> str:
        return (
            f"ControlDecision(t={self.time:.2f}, {self.action}, "
            f"f={self.fanout}, r={self.rounds}, style={self.style}, "
            f"reasons={self.reasons})"
        )


class AdaptiveController:
    """The per-group control loop: observe -> decide -> apply, every epoch.

    Deployment-agnostic by construction: it is handed callables for the
    population, the live engines and the health trackers, so the same
    class drives a simulated :class:`~repro.core.api.GossipGroup` or any
    other deployment that can enumerate its engines.

    Args:
        hub: the group's metrics hub (signals in, decisions out).
        population: endpoint count, as a value or zero-arg callable.
        engines: zero-arg callable yielding the live
            :class:`~repro.core.engine.GossipEngine` instances to steer.
        healths: optional zero-arg callable yielding the
            :class:`~repro.core.health.PeerHealth` trackers to read
            suspicion mass from (defaults to the engines' own).

    The controller re-applies its chosen parameters to *every* engine each
    epoch, which also heals the case where a node re-registered mid-epoch
    and was handed the coordinator's static parameters again.
    """

    def __init__(
        self,
        hub,
        *,
        population,
        engines: Callable[[], Iterable[Any]],
        healths: Optional[Callable[[], Iterable[Any]]] = None,
    ) -> None:
        self.hub = hub
        self._population = (
            population if callable(population) else (lambda: population)
        )
        self._engines = engines
        self._healths = healths
        self._control = hub.control
        # Targets (set from the first engine seen, then steered).
        self._base_params: Optional[GossipParams] = None
        self._base_level = 0  # escalation level of the configured style
        self._fanout = 0
        self._rounds = 0
        self._level = 0
        self._batch = 1
        self._epoch_index = 0
        self._cooldown = 0
        # Counter snapshots for per-epoch deltas.
        self._last_counts: Dict[str, int] = {}
        self._publish_ewma: Optional[float] = None
        self._saw_traffic = False
        self._scheduler = None
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, scheduler) -> None:
        """Begin epoch ticks on ``scheduler`` (``call_after``/``now``).

        Schedule on the *simulator* (not a node's scheduler) so the
        control plane survives node crashes.
        """
        self._scheduler = scheduler
        scheduler.call_after(EPOCH, self._tick)

    def stop(self) -> None:
        """Stop ticking after the current epoch."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.epoch_tick()
        self._scheduler.call_after(EPOCH, self._tick)

    # -- the loop ------------------------------------------------------------

    def epoch_tick(self) -> Optional[ControlDecision]:
        """Run one observe -> decide -> apply cycle (normally scheduled).

        Returns the recorded decision, or ``None`` when no engine exists
        yet (nothing to steer, nothing recorded).
        """
        engines = list(self._engines())
        if not engines:
            return None
        if self._base_params is None:
            self._seed_targets(engines[0].params)
        self._epoch_index += 1
        self._control.epochs.inc()
        signals = self._observe()
        decision = self._decide(signals)
        self._apply(engines, decision)
        self.hub.decisions.append(decision)
        now = signals.time
        self.hub.series("control.fanout").record(now, self._fanout)
        self.hub.series("control.rounds").record(now, self._rounds)
        self.hub.series("control.level").record(now, self._level)
        return decision

    def _seed_targets(self, params: GossipParams) -> None:
        self._base_params = params
        try:
            self._base_level = _ESCALATION_LADDER.index(params.style)
        except ValueError:
            # Styles off the push ladder (pull, anti-entropy, feedback,
            # lazy-push) are already periodic-repair styles; the
            # controller steers fanout/rounds/batch but not the mode.
            self._base_level = -1
        self._level = max(self._base_level, 0) if self._base_level >= 0 else -1
        self._fanout = min(max(params.fanout, MIN_FANOUT), MAX_FANOUT)
        self._rounds = min(max(params.rounds, MIN_ROUNDS), MAX_ROUNDS)
        self._batch = min(
            max(params.max_batch_rumors, MIN_BATCH_RUMORS),
            MAX_BATCH_RUMORS,
        )

    # -- observe -------------------------------------------------------------

    def _counter_delta(self, name: str, value: int) -> int:
        previous = self._last_counts.get(name, 0)
        self._last_counts[name] = value
        return max(0, value - previous)

    def _observe(self) -> EpochSignals:
        now = self._scheduler.now if self._scheduler is not None else 0.0
        population = max(2, int(self._population()))

        # Delivery: judge rumors published long enough ago to have had a
        # chance to spread, but recently enough to reflect current
        # conditions (a sliding 2.5-epoch lookback).  The grace period is
        # the *expected dissemination time* of the current knobs (rounds x
        # gossip period, plus half an epoch of slack): judging a rumor
        # that is still mid-spread reads as a delivery breach and triggers
        # a boost nothing was wrong to need.
        period = self._base_params.period if self._base_params else 1.0
        grace = 0.5 * EPOCH + self._rounds * period
        newest = now - grace
        oldest = newest - 2.5 * EPOCH
        fractions: List[float] = []
        rounds_needed: List[int] = []
        others = population - 1
        for span in self.hub.tracer.spans():
            published = span.publish_time
            if published is None or not oldest <= published <= newest:
                continue
            fractions.append(min(1.0, span.delivered_count / others))
            reached = span.rounds_to_fraction(SLO_DELIVERY, population)
            if reached is not None:
                rounds_needed.append(reached)
        delivery = sum(fractions) / len(fractions) if fractions else None
        rounds_to_slo = max(rounds_needed) if rounds_needed else None

        duplicates = self._counter_delta(
            "gossip.duplicate", self.hub.counter("gossip.duplicate").value
        )
        fresh = self._counter_delta(
            "gossip.fresh", self.hub.counter("gossip.fresh").value
        )
        duplicate_ratio = duplicates / fresh if fresh else 0.0

        failures = self._counter_delta(
            "health.send_failures", self.hub.health.send_failures.value
        )
        sent = self._counter_delta("net.sent", self.hub.counter("net.sent").value)
        failure_rate = failures / sent if sent else 0.0

        suspicion = 0.0
        if self._healths is not None:
            suspected: set = set()
            for health in self._healths():
                suspected.update(health.suspected_peers())
            suspicion = len(suspected) / others
        else:
            healths = [
                engine.health
                for engine in self._engines()
                if getattr(engine, "health", None) is not None
            ]
            suspected = set()
            for health in healths:
                suspected.update(health.suspected_peers())
            suspicion = len(suspected) / others if healths else 0.0

        published = self._counter_delta(
            "gossip.publish", self.hub.counter("gossip.publish").value
        )
        publish_rate = published / EPOCH
        if self._publish_ewma is None:
            self._publish_ewma = publish_rate
            burst = 1.0
        else:
            baseline = self._publish_ewma
            # A publish after true silence is not a burst (there is no
            # baseline to be a multiple of); delivery and rounds signals
            # cover that case.
            burst = publish_rate / baseline if baseline > 1e-9 else 1.0
            self._publish_ewma = 0.7 * baseline + 0.3 * publish_rate

        # Overload pressure: the worst engine's view of its bounded
        # outbox/ingest saturation (0.0 everywhere when overload
        # protection is off, so the signal is inert by construction).
        pressure = 0.0
        for engine in self._engines():
            pressure = max(
                pressure, getattr(engine, "overload_pressure", 0.0)
            )

        return EpochSignals(
            time=now,
            delivery=delivery,
            rounds_to_slo=rounds_to_slo,
            rounds_bound=expected_rounds(population, max(1, self._fanout)),
            duplicate_ratio=duplicate_ratio,
            suspicion=min(1.0, suspicion),
            failure_rate=min(1.0, failure_rate),
            publish_rate=publish_rate,
            burst=burst,
            spans_assessed=len(fractions),
            pressure=min(1.0, pressure),
        )

    # -- decide --------------------------------------------------------------

    def _breach_reasons(self, signals: EpochSignals) -> List[str]:
        """Signals that say the SLO is (about to be) missed -- these earn
        the full fast boost."""
        reasons: List[str] = []
        if signals.delivery is not None and signals.delivery < SLO_DELIVERY:
            reasons.append(
                f"delivery {signals.delivery:.3f} < SLO {SLO_DELIVERY:.3f}"
            )
        return reasons

    def _guard_reasons(self, signals: EpochSignals) -> List[str]:
        """Stress that has *not* dented delivery (yet): churn suspicion,
        send failures, slow rounds.  These escalate the gossip mode (cheap
        insurance) and block shrinking, but never raise fanout/rounds --
        raising capacity the SLO does not need is exactly the
        over-provisioning this controller exists to avoid."""
        reasons: List[str] = []
        if signals.suspicion > SUSPICION_HIGH:
            reasons.append(
                f"suspicion {signals.suspicion:.3f} > {SUSPICION_HIGH:.3f}"
            )
        if signals.failure_rate > FAILURE_HIGH:
            reasons.append(
                f"send failures {signals.failure_rate:.3f} > "
                f"{FAILURE_HIGH:.3f}"
            )
        # One round of slack: spans in the judged window spread under the
        # *previous* knobs, while the bound reflects the current fanout --
        # without hysteresis a just-boosted controller would read its own
        # past as fresh stress and pin the cooldown forever.
        if (
            signals.rounds_to_slo is not None
            and signals.rounds_to_slo > signals.rounds_bound + 1
        ):
            reasons.append(
                f"rounds-to-SLO {signals.rounds_to_slo} > "
                f"bound {signals.rounds_bound} + 1"
            )
        return reasons

    def _burst_reasons(self, signals: EpochSignals) -> List[str]:
        """A publish burst (enough arrivals to be real, well above the
        EWMA baseline) -- answered by widening batching only."""
        if (
            signals.burst >= BURST_HIGH
            and signals.publish_rate * EPOCH >= BURST_MIN_PUBLISHES
        ):
            return [
                f"publish burst x{signals.burst:.1f} >= x{BURST_HIGH:.1f}"
            ]
        return []

    def _decide(self, signals: EpochSignals) -> ControlDecision:
        if signals.publish_rate > 0:
            self._saw_traffic = True
        breach = self._breach_reasons(signals)
        guard = self._guard_reasons(signals)
        burst = self._burst_reasons(signals)
        if breach:
            self._control.slo_breaches.inc()

        if signals.pressure >= PRESSURE_HIGH:
            # The overload subsystem is shedding: every other response is
            # suppressed -- boosting fanout or widening batches into a
            # saturated network only raises the shed rate.  Narrow one
            # step and let the priority ladder protect payloads; delivery
            # recovers once pressure drains.
            action = "shrink"
            reasons = [
                f"overload pressure {signals.pressure:.2f} >= "
                f"{PRESSURE_HIGH:.2f}: narrowing, not boosting"
            ] + breach
            self._pressure_relief()
            self._control.pressure_reliefs.inc()
            self._cooldown = COOLDOWN_EPOCHS
        elif breach:
            action = "boost"
            reasons = breach + guard + burst
            self._boost(signals, burst=bool(burst))
            self._cooldown = COOLDOWN_EPOCHS
        elif guard or burst:
            # Delivery is holding: keep current capacity, add the cheap
            # insurance (mode escalation / wider batching), and push the
            # shrink horizon out so nothing is given back mid-stress.
            changed = self._guard(signals, escalate=bool(guard), widen=bool(burst))
            action = "boost" if changed else "hold"
            reasons = guard + burst
            if not changed:
                reasons = reasons + ["holding capacity"]
                self._control.holds.inc()
            self._cooldown = COOLDOWN_EPOCHS
        else:
            # A group that *was* publishing and went quiet is calm too:
            # with nothing in flight there is no delivery to endanger, and
            # holding boosted capacity would burn periodic-digest traffic
            # forever (the whole point of shrinking).  Before the first
            # publish, though, "no verdict" is just not-started -- hold.
            idle = (
                signals.delivery is None
                and signals.publish_rate == 0.0
                and self._saw_traffic
            )
            calm = idle or (
                signals.delivery is not None
                and signals.delivery >= SLO_DELIVERY + SHRINK_MARGIN
            )
            at_floor = (
                self._fanout <= MIN_FANOUT
                and self._rounds <= MIN_ROUNDS
                and (self._level <= max(self._base_level, 0) or self._level < 0)
                and self._batch <= MIN_BATCH_RUMORS
            )
            if calm and not at_floor:
                if self._cooldown > 0:
                    self._cooldown -= 1
                    self._control.cooldown_holds.inc()
                    action = "hold"
                    reasons = [f"cooldown ({self._cooldown + 1} epochs left)"]
                else:
                    action = "shrink"
                    reasons = [
                        "idle: nothing published, nothing at risk"
                        if idle else
                        f"calm: delivery "
                        f"{(signals.delivery or 0.0):.3f} >= SLO + margin"
                    ]
                    if signals.duplicate_ratio > DUPLICATE_HIGH:
                        reasons.append(
                            f"redundancy to spare (dup ratio "
                            f"{signals.duplicate_ratio:.2f})"
                        )
                    self._shrink(signals)
            else:
                if self._cooldown > 0:
                    self._cooldown -= 1
                action = "hold"
                reasons = ["at floor" if at_floor else "no verdict yet"
                           if signals.delivery is None else "holding SLO"]
                self._control.holds.inc()

        if action == "boost":
            self._control.boosts.inc()
        elif action == "shrink":
            self._control.shrinks.inc()
        level = self._level
        style = (
            _ESCALATION_LADDER[level].value
            if 0 <= level < len(_ESCALATION_LADDER)
            else (self._base_params.style.value if self._base_params else "push")
        )
        return ControlDecision(
            time=signals.time,
            epoch=self._epoch_index,
            action=action,
            reasons=reasons,
            signals=signals,
            fanout=self._fanout,
            rounds=self._rounds,
            style=style,
            max_batch_rumors=self._batch,
        )

    def _pressure_relief(self) -> None:
        """Back off under overload: one step narrower, never wider.

        The inverse of :meth:`_boost` in spirit but deliberately gentler
        -- the overload shed ladder is already protecting payloads, the
        controller only has to stop feeding the queues.  Batching halves
        (smaller wire frames drain faster through a throttled consumer)
        and fanout steps down; the mode is left alone so the periodic
        digests keep repairing whatever was shed.
        """
        self._batch = max(MIN_BATCH_RUMORS, self._batch // 2)
        if self._fanout > MIN_FANOUT:
            self._fanout -= 1

    def _boost(self, signals: EpochSignals, burst: bool = False) -> None:
        """Respond to an SLO breach within one epoch: fast, decisive."""
        self._fanout = min(MAX_FANOUT, self._fanout + 2)
        self._rounds = min(MAX_ROUNDS, self._rounds + 2)
        # Churn and loss defeat pure push (a rumor a down node missed is
        # gone): escalate to push-pull so the periodic digest repairs it.
        self._escalate_mode()
        # Batching is free capacity (envelopes only coalesce what is
        # queued): any breach widens it, burst or not.
        self._batch = MAX_BATCH_RUMORS

    def _guard(
        self, signals: EpochSignals, escalate: bool, widen: bool
    ) -> bool:
        """The stress-without-breach response: mode insurance and batch
        widening only.  Returns True when a knob actually moved."""
        changed = False
        if escalate:
            changed = self._escalate_mode() or changed
        if widen and self._batch < MAX_BATCH_RUMORS:
            self._batch = MAX_BATCH_RUMORS
            changed = True
        return changed

    def _escalate_mode(self) -> bool:
        """One step up the style ladder, unless already at the top."""
        if 0 <= self._level < len(_ESCALATION_LADDER) - 1:
            self._level += 1
            self._control.escalations.inc()
            return True
        return False

    def _shrink(self, signals: EpochSignals) -> None:
        """Give capacity back one gentle step at a time (calm only).

        De-escalation comes first: the periodic digests of an escalated
        style cost fanout-proportional traffic every period whether or not
        anything is published, so they are the most valuable thing to turn
        off.  Batching goes last -- wide batches are nearly free (they
        only coalesce what is queued), narrowing them merely restores the
        per-rumor latency profile of calm operation.
        """
        if self._level > max(self._base_level, 0) and self._level > 0:
            self._level -= 1
            self._control.deescalations.inc()
            return
        if self._fanout > MIN_FANOUT:
            self._fanout -= 1
            return
        if self._rounds > MIN_ROUNDS:
            self._rounds -= 1
            return
        if self._batch > MIN_BATCH_RUMORS:
            self._batch = max(MIN_BATCH_RUMORS, self._batch // 2)

    # -- apply ---------------------------------------------------------------

    def _apply(self, engines: Sequence[Any], decision: ControlDecision) -> None:
        for engine in engines:
            engine.fanout_ceiling = FANOUT_CEILING
            current = engine.params
            target = self._target_params(current)
            if target != current:
                was_periodic = current.style is not GossipStyle.PUSH
                engine.params = target
                self._control.param_updates.inc()
                if target.style is not GossipStyle.PUSH and not was_periodic:
                    # Escalated into a periodic style: the loop only
                    # starts on an explicit kick.
                    engine.start_periodic_rounds()

    def _target_params(self, current: GossipParams) -> GossipParams:
        style = current.style
        if 0 <= self._level < len(_ESCALATION_LADDER) and self._base_level >= 0:
            style = _ESCALATION_LADDER[self._level]
        return replace(
            current,
            fanout=self._fanout,
            rounds=self._rounds,
            style=style,
            max_batch_rumors=self._batch,
            peer_sample_size=max(current.peer_sample_size, self._fanout),
        )

    # -- diagnostics ---------------------------------------------------------

    def alert_timeline(self) -> List[Any]:
        """The SLO alert edges on the hub, in time order.

        The :class:`~repro.obs.windows.SloBurnMonitor` (wired by
        ``GossipConfig(telemetry=...)``) appends
        :class:`~repro.obs.windows.Alert` fire/clear edges to
        ``hub.alerts``; the controller and ``repro obs report`` read the
        same timeline.  Empty when telemetry is off.
        """
        return list(self.hub.alerts)

    def slo_alert_firing(self) -> bool:
        """Whether the burn-rate monitor's latest edge is still firing."""
        alerts = self.hub.alerts
        return bool(alerts) and alerts[-1].state == "firing"

    @property
    def targets(self) -> Dict[str, Any]:
        """The knob values the controller is currently steering toward."""
        return {
            "fanout": self._fanout,
            "rounds": self._rounds,
            "level": self._level,
            "max_batch_rumors": self._batch,
            "cooldown": self._cooldown,
        }

    def __repr__(self) -> str:
        return (
            f"AdaptiveController(epoch={self._epoch_index}, f={self._fanout}, "
            f"r={self._rounds}, level={self._level}, batch={self._batch})"
        )
