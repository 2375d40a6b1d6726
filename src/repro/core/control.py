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
* **send-failure rate** (health-stats failures per wire send);
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
  outbox/ingest saturation at or above ``pressure_high``) overrides
  everything, including a delivery breach: boosting into a network that
  is already shedding only feeds the shedder.  The controller narrows
  batching and fanout one step instead and lets the priority shed
  ladder protect payloads (see docs/RESILIENCE.md);
* **calm** (delivery at SLO + margin, every signal quiet, cooldown
  elapsed) gives capacity back one gentle step per epoch.

The boost-fast / shrink-slow asymmetry plus the cooldown is the
anti-oscillation design: a perturbation is answered within one epoch,
but the controller needs ``cooldown_epochs`` of provable calm before it
gives capacity back, so it cannot ping-pong across the SLO boundary.

Interplay with the PR 2 health layer: the degraded-mode fanout boost
(:meth:`~repro.core.health.PeerHealth.effective_fanout`) still runs per
round, but the controller owns the *hard ceiling*: it sets
``engine.fanout_ceiling`` so controller boost and health boost can never
compound past ``AdaptivePolicy.fanout_ceiling``, superseding the fixed
``HealthPolicy.boost_cap`` as the outermost traffic bound.

Every decision is appended to ``hub.decisions`` (a
:class:`ControlDecision` timeline rendered by ``repro obs report`` and
exported as JSONL) and counted in the hub's
:class:`~repro.simnet.metrics.ControlStats` group.

The controller is deterministic: it draws no randomness, so two runs of
the same seed with the same policy make identical decisions, and a
controller attached with a no-op policy does not perturb the simulation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.analysis import expected_rounds
from repro.core.message import GossipStyle
from repro.core.params import GossipParams, Knobs, ParamError, knob

#: Styles the escalation ladder moves between (index = escalation level).
_ESCALATION_LADDER = (GossipStyle.PUSH, GossipStyle.PUSH_PULL)


@dataclass(frozen=True)
class AdaptivePolicy(Knobs):
    """Validated knobs of the adaptive controller.

    Attributes:
        slo_delivery: delivery fraction the controller must hold; observed
            delivery below this is a breach and triggers an immediate boost.
        epoch: seconds between controller decisions.
        min_fanout / max_fanout: bounds the controller moves fanout within.
        min_rounds / max_rounds: bounds for the per-message hop budget.
        fanout_ceiling: hard cap on the *effective* per-round fanout after
            the health layer's degraded-mode boost -- the controller's
            boost and the health boost can never compound past it (this
            supersedes ``HealthPolicy.boost_cap`` as the outer bound).
        escalate: allow push -> push-pull escalation under stress (and the
            reverse once calm).  Groups that start on a periodic style
            keep it; escalation never goes below the configured style.
        min_batch_rumors / max_batch_rumors: bounds for the batching knob;
            bursts widen batching toward the max, calm shrinks it back.
        shrink_margin: extra delivery above the SLO required before the
            controller considers giving capacity back (hysteresis band).
        suspicion_high: suspected fraction of the population above which
            churn stress is declared.  A *guard* signal: it escalates the
            gossip mode and blocks shrinking, but -- as long as delivery
            holds the SLO -- it never raises fanout/rounds (delivery
            breaches do that).
        failure_high: send failures per wire send above which loss stress
            is declared (a guard signal, like ``suspicion_high``).
        duplicate_high: duplicates per fresh delivery above which the
            group is considered to have redundancy to spare (a shrink
            *precondition* -- never a boost trigger).
        burst_high: publish-rate multiple of its EWMA that declares a
            publish burst.  Bursts threaten traffic, not delivery: the
            response is to widen batching to the max (amortizing
            envelopes), never to raise fanout.
        burst_min_publishes: publishes that must land inside one epoch
            before a burst can be declared at all -- at low base rates the
            Poisson noise of two or three arrivals is not a burst.
        cooldown_epochs: calm epochs required after a boost before the
            first shrink (the anti-oscillation brake).
        pressure_high: overload pressure (from the engines' bounded
            outboxes and ingest queues, 0..1) at or above which the
            controller *narrows* batching and fanout instead of boosting
            -- even on a delivery breach.  Amplifying into a network
            that is already shedding would only raise the shed rate; the
            overload subsystem's priority ladder protects payloads while
            the controller reduces offered load.
    """

    slo_delivery: float = knob(0.99, gt=0, le=1)
    epoch: float = knob(2.0, gt=0)
    min_fanout: int = knob(2, ge=1)
    max_fanout: int = 10
    min_rounds: int = knob(3, ge=1)
    max_rounds: int = 12
    fanout_ceiling: int = 12
    escalate: bool = True
    min_batch_rumors: int = knob(1, ge=1)
    max_batch_rumors: int = 64
    shrink_margin: float = knob(0.005, ge=0)
    suspicion_high: float = knob(0.10, gt=0, le=1)
    failure_high: float = knob(0.02, gt=0, le=1)
    duplicate_high: float = knob(1.5, gt=0)
    burst_high: float = knob(3.0, gt=1)
    burst_min_publishes: int = knob(4, ge=1)
    cooldown_epochs: int = knob(3, ge=0)
    pressure_high: float = knob(0.8, gt=0, le=1)

    def _check(self) -> None:
        for low, high in (
            ("min_fanout", "max_fanout"),
            ("max_fanout", "fanout_ceiling"),
            ("min_rounds", "max_rounds"),
            ("min_batch_rumors", "max_batch_rumors"),
        ):
            if not getattr(self, high) >= getattr(self, low):
                raise ParamError(
                    high,
                    f"{high} ({getattr(self, high)}) must be >= "
                    f"{low} ({getattr(self, low)})",
                )


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
        policy: the validated knobs (defaults used when omitted).
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
        policy: Optional[AdaptivePolicy] = None,
        *,
        population,
        engines: Callable[[], Iterable[Any]],
        healths: Optional[Callable[[], Iterable[Any]]] = None,
    ) -> None:
        self.hub = hub
        self.policy = policy if policy is not None else AdaptivePolicy()
        self._population = (
            population if callable(population) else (lambda: population)
        )
        self._engines = engines
        self._healths = healths
        self.stats = hub.control
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
        scheduler.call_after(self.policy.epoch, self._tick)

    def stop(self) -> None:
        """Stop ticking after the current epoch."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.epoch_tick()
        self._scheduler.call_after(self.policy.epoch, self._tick)

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
        self.stats.epochs += 1
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
        policy = self.policy
        self._base_params = params
        try:
            self._base_level = _ESCALATION_LADDER.index(params.style)
        except ValueError:
            # Styles off the push ladder (pull, anti-entropy, feedback,
            # lazy-push) are already periodic-repair styles; the
            # controller steers fanout/rounds/batch but not the mode.
            self._base_level = -1
        self._level = max(self._base_level, 0) if self._base_level >= 0 else -1
        self._fanout = min(max(params.fanout, policy.min_fanout), policy.max_fanout)
        self._rounds = min(max(params.rounds, policy.min_rounds), policy.max_rounds)
        self._batch = min(
            max(params.max_batch_rumors, policy.min_batch_rumors),
            policy.max_batch_rumors,
        )

    # -- observe -------------------------------------------------------------

    def _counter_delta(self, name: str, value: int) -> int:
        previous = self._last_counts.get(name, 0)
        self._last_counts[name] = value
        return max(0, value - previous)

    def _observe(self) -> EpochSignals:
        policy = self.policy
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
        grace = 0.5 * policy.epoch + self._rounds * period
        newest = now - grace
        oldest = newest - 2.5 * policy.epoch
        fractions: List[float] = []
        rounds_needed: List[int] = []
        others = population - 1
        for span in self.hub.tracer.spans():
            published = span.publish_time
            if published is None or not oldest <= published <= newest:
                continue
            fractions.append(min(1.0, span.delivered_count / others))
            reached = span.rounds_to_fraction(policy.slo_delivery, population)
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
            "health.send_failures", self.hub.health.send_failures
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
        publish_rate = published / policy.epoch
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
        policy = self.policy
        reasons: List[str] = []
        if signals.delivery is not None and signals.delivery < policy.slo_delivery:
            reasons.append(
                f"delivery {signals.delivery:.3f} < SLO {policy.slo_delivery:.3f}"
            )
        return reasons

    def _guard_reasons(self, signals: EpochSignals) -> List[str]:
        """Stress that has *not* dented delivery (yet): churn suspicion,
        send failures, slow rounds.  These escalate the gossip mode (cheap
        insurance) and block shrinking, but never raise fanout/rounds --
        raising capacity the SLO does not need is exactly the
        over-provisioning this controller exists to avoid."""
        policy = self.policy
        reasons: List[str] = []
        if signals.suspicion > policy.suspicion_high:
            reasons.append(
                f"suspicion {signals.suspicion:.3f} > {policy.suspicion_high:.3f}"
            )
        if signals.failure_rate > policy.failure_high:
            reasons.append(
                f"send failures {signals.failure_rate:.3f} > "
                f"{policy.failure_high:.3f}"
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
        policy = self.policy
        if (
            signals.burst >= policy.burst_high
            and signals.publish_rate * policy.epoch >= policy.burst_min_publishes
        ):
            return [
                f"publish burst x{signals.burst:.1f} >= x{policy.burst_high:.1f}"
            ]
        return []

    def _decide(self, signals: EpochSignals) -> ControlDecision:
        policy = self.policy
        if signals.publish_rate > 0:
            self._saw_traffic = True
        breach = self._breach_reasons(signals)
        guard = self._guard_reasons(signals)
        burst = self._burst_reasons(signals)
        if breach:
            self.stats.slo_breaches += 1

        if signals.pressure >= policy.pressure_high:
            # The overload subsystem is shedding: every other response is
            # suppressed -- boosting fanout or widening batches into a
            # saturated network only raises the shed rate.  Narrow one
            # step and let the priority ladder protect payloads; delivery
            # recovers once pressure drains.
            action = "shrink"
            reasons = [
                f"overload pressure {signals.pressure:.2f} >= "
                f"{policy.pressure_high:.2f}: narrowing, not boosting"
            ] + breach
            self._pressure_relief()
            self.stats.pressure_reliefs += 1
            self._cooldown = policy.cooldown_epochs
        elif breach:
            action = "boost"
            reasons = breach + guard + burst
            self._boost(signals, burst=bool(burst))
            self._cooldown = policy.cooldown_epochs
        elif guard or burst:
            # Delivery is holding: keep current capacity, add the cheap
            # insurance (mode escalation / wider batching), and push the
            # shrink horizon out so nothing is given back mid-stress.
            changed = self._guard(signals, escalate=bool(guard), widen=bool(burst))
            action = "boost" if changed else "hold"
            reasons = guard + burst
            if not changed:
                reasons = reasons + ["holding capacity"]
                self.stats.holds += 1
            self._cooldown = policy.cooldown_epochs
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
                and signals.delivery >= policy.slo_delivery + policy.shrink_margin
            )
            at_floor = (
                self._fanout <= policy.min_fanout
                and self._rounds <= policy.min_rounds
                and (self._level <= max(self._base_level, 0) or self._level < 0)
                and self._batch <= policy.min_batch_rumors
            )
            if calm and not at_floor:
                if self._cooldown > 0:
                    self._cooldown -= 1
                    self.stats.cooldown_holds += 1
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
                    if signals.duplicate_ratio > policy.duplicate_high:
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
                self.stats.holds += 1

        if action == "boost":
            self.stats.boosts += 1
        elif action == "shrink":
            self.stats.shrinks += 1
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
        policy = self.policy
        self._batch = max(policy.min_batch_rumors, self._batch // 2)
        if self._fanout > policy.min_fanout:
            self._fanout -= 1

    def _boost(self, signals: EpochSignals, burst: bool = False) -> None:
        """Respond to an SLO breach within one epoch: fast, decisive."""
        policy = self.policy
        self._fanout = min(policy.max_fanout, self._fanout + 2)
        self._rounds = min(policy.max_rounds, self._rounds + 2)
        # Churn and loss defeat pure push (a rumor a down node missed is
        # gone): escalate to push-pull so the periodic digest repairs it.
        self._escalate_mode()
        # Batching is free capacity (envelopes only coalesce what is
        # queued): any breach widens it, burst or not.
        self._batch = policy.max_batch_rumors

    def _guard(
        self, signals: EpochSignals, escalate: bool, widen: bool
    ) -> bool:
        """The stress-without-breach response: mode insurance and batch
        widening only.  Returns True when a knob actually moved."""
        changed = False
        if escalate:
            changed = self._escalate_mode() or changed
        if widen and self._batch < self.policy.max_batch_rumors:
            self._batch = self.policy.max_batch_rumors
            changed = True
        return changed

    def _escalate_mode(self) -> bool:
        """One step up the style ladder, if allowed and not already there."""
        if (
            self.policy.escalate
            and 0 <= self._level < len(_ESCALATION_LADDER) - 1
        ):
            self._level += 1
            self.stats.escalations += 1
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
        policy = self.policy
        if self._level > max(self._base_level, 0) and self._level > 0:
            self._level -= 1
            self.stats.deescalations += 1
            return
        if self._fanout > policy.min_fanout:
            self._fanout -= 1
            return
        if self._rounds > policy.min_rounds:
            self._rounds -= 1
            return
        if self._batch > policy.min_batch_rumors:
            self._batch = max(policy.min_batch_rumors, self._batch // 2)

    # -- apply ---------------------------------------------------------------

    def _apply(self, engines: Sequence[Any], decision: ControlDecision) -> None:
        for engine in engines:
            engine.fanout_ceiling = self.policy.fanout_ceiling
            current = engine.params
            target = self._target_params(current)
            if target != current:
                was_periodic = current.style is not GossipStyle.PUSH
                engine.params = target
                self.stats.param_updates += 1
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
