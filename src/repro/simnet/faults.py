"""Fault injection: crash schedules, partitions and churn.

A :class:`FaultPlan` is a declarative schedule of faults applied to a
network; :class:`ChurnGenerator` synthesizes continuous join/leave activity
at a target rate.  Both only *schedule* simulator events -- the kernel stays
oblivious to why a node crashed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.simnet.events import Simulator
from repro.simnet.latency import FixedLatency, GaussianJitterLatency
from repro.simnet.network import Network


class FaultPlan:
    """Declarative fault schedule.

    Example::

        plan = FaultPlan(network)
        plan.crash_at(5.0, "node-3")
        plan.restart_at(12.0, "node-3", amnesia=False)
        plan.partition_at(20.0, [["a", "b"], ["c", "d"]])
        plan.heal_at(30.0)
        plan.apply()
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.sim = network.sim
        self._schedule: List[Tuple[float, str, tuple]] = []
        self._applied = False
        #: Victims of the most recent :meth:`crash_fraction_at` draw.
        self.last_victims: List[str] = []

    def crash_at(self, time: float, name: str) -> "FaultPlan":
        """Crash process ``name`` at simulated ``time``."""
        self._schedule.append((time, "crash", (name,)))
        return self

    def restart_at(
        self, time: float, name: str, amnesia: bool = True
    ) -> "FaultPlan":
        """Restart process ``name`` at ``time`` with faithful crash
        semantics: the process image is lost.

        With ``amnesia=True`` the node restarts from nothing (durable
        storage is discarded too -- a lost disk).  With ``amnesia=False``
        the node replays whatever durable state it kept (a
        :class:`~repro.core.store.GossipLog` when configured) and rejoins
        via the catch-up protocol.  Either way, this composes with
        :meth:`crash_at` / :meth:`crash_fraction_at`: a restart of a node
        that is still RUNNING crashes it first.
        """
        self._schedule.append((time, "restart", (name, amnesia)))
        return self

    def crash_fraction_at(
        self,
        time: float,
        fraction: float,
        candidates: Sequence[str],
        restart_after: Optional[float] = None,
        amnesia: bool = True,
    ) -> "FaultPlan":
        """Crash a random ``fraction`` of ``candidates`` at ``time``.

        The victim set is drawn from the ``faults`` RNG stream at call
        time, so it is deterministic per seed and recorded in
        :attr:`last_victims` -- schedule follow-up faults (e.g. a
        :meth:`restart_at` of the same nodes) against it.  With
        ``restart_after`` the same victims are restarted
        ``restart_after`` seconds later with the given ``amnesia``
        semantics, making crash+restart a single composable step.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction!r}")
        rng = self.sim.rng.get("faults")
        count = int(round(fraction * len(candidates)))
        victims = rng.sample(list(candidates), count)
        self.last_victims = list(victims)
        for victim in victims:
            self.crash_at(time, victim)
            if restart_after is not None:
                self.restart_at(time + restart_after, victim, amnesia=amnesia)
        return self

    def partition_at(
        self, time: float, groups: Iterable[Iterable[str]]
    ) -> "FaultPlan":
        """Install a partition at ``time``."""
        frozen = [list(group) for group in groups]
        self._schedule.append((time, "partition", (frozen,)))
        return self

    def heal_at(self, time: float) -> "FaultPlan":
        """Remove all partitions at ``time``."""
        self._schedule.append((time, "heal", ()))
        return self

    def loss_at(self, time: float, rate: float) -> "FaultPlan":
        """Set the network-wide loss rate at ``time`` (0 restores health)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1]: {rate!r}")
        self._schedule.append((time, "loss", (rate,)))
        return self

    def loss_ramp_at(
        self,
        time: float,
        start_rate: float,
        end_rate: float,
        duration: float,
        steps: int = 8,
    ) -> "FaultPlan":
        """Ramp the network-wide loss rate from ``start_rate`` to
        ``end_rate`` over ``duration`` seconds, in ``steps`` even steps.

        The final step lands exactly on ``end_rate`` at
        ``time + duration``; the rate then *stays* there (compose with
        :meth:`loss_at` to restore).  Deterministic: the schedule is fixed
        at call time, no randomness involved.
        """
        for rate in (start_rate, end_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"loss rate must be in [0, 1]: {rate!r}")
        if duration < 0:
            raise ValueError(f"duration must be non-negative: {duration!r}")
        if steps < 1:
            raise ValueError(f"steps must be >= 1: {steps!r}")
        self._schedule.append((time, "loss", (start_rate,)))
        for step in range(1, steps + 1):
            fraction = step / steps
            rate = start_rate + (end_rate - start_rate) * fraction
            self._schedule.append((time + duration * fraction, "loss", (rate,)))
        return self

    def jitter_at(
        self,
        time: float,
        mean: float,
        sigma: float,
        until: Optional[float] = None,
    ) -> "FaultPlan":
        """Perturb the fabric's default latency to Gaussian jitter
        (``gauss(mean, sigma)``, clamped positive) at ``time``.

        With ``until`` the model in place *when the jitter began* is
        restored at that time.  Per-link overrides installed via
        :meth:`slow_link_at` are untouched -- this wobbles the default
        model only.  Deterministic: draws ride the network's own seeded
        RNG stream like every other latency model.
        """
        model = GaussianJitterLatency(mean, sigma)
        self._schedule.append((time, "jitter", (model,)))
        if until is not None:
            self._schedule.append((until, "unjitter", (model,)))
        return self

    def lossy_link_at(
        self, time: float, source: str, destination: str, rate: float
    ) -> "FaultPlan":
        """Degrade one directed link to ``rate`` loss at ``time``."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1]: {rate!r}")
        self._schedule.append((time, "link-loss", (source, destination, rate)))
        return self

    def slow_link_at(
        self, time: float, source: str, destination: str, latency
    ) -> "FaultPlan":
        """Slow one directed link at ``time``.

        ``latency`` is a :class:`~repro.simnet.latency.LatencyModel` or a
        plain float (seconds, fixed).
        """
        model = FixedLatency(latency) if isinstance(latency, (int, float)) else latency
        self._schedule.append((time, "slow-link", (source, destination, model)))
        return self

    def corrupt_at(self, time: float, rate: float) -> "FaultPlan":
        """Flip one byte of delivered payloads with probability ``rate``
        from ``time`` on (0 restores clean delivery)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must be in [0, 1]: {rate!r}")
        self._schedule.append((time, "corrupt", (rate,)))
        return self

    def flaky_sends_at(
        self,
        time: float,
        names: Sequence[str],
        rate: float,
        until: Optional[float] = None,
    ) -> "FaultPlan":
        """Make the named nodes' *transports* fail sends with probability
        ``rate`` starting at ``time`` (cleared at ``until`` when given).

        This is a transport-level fault -- the failure is synchronously
        observable at the sender (as reason ``"flaky"``), exercising the
        retry/breaker/suspicion machinery rather than the network fabric.
        Nodes must host a :class:`~repro.transport.base.ResilientTransport`
        (every :class:`~repro.transport.inmem.WsProcess` does).
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1]: {rate!r}")
        self._schedule.append((time, "flaky", (list(names), rate)))
        if until is not None:
            self._schedule.append((until, "unflaky", (list(names),)))
        return self

    def throttle_at(
        self,
        time: float,
        names: Sequence[str],
        rate: float,
        until: Optional[float] = None,
    ) -> "FaultPlan":
        """Make the named nodes *slow consumers* from ``time`` on: their
        gossip layers process at most ``rate`` inbound wire frames per
        second (restored to full speed at ``until`` when given).

        Frames arriving faster queue in the layer's bounded ingest queue
        and drain at the capped rate; with overload protection configured
        (``GossipConfig(overload=...)``) the queue sheds in priority
        order once its watermarks are crossed, without it the queue grows
        without bound -- exactly the collapse ``bench_overload`` measures.
        Nodes must expose a ``gossip_layer`` (every
        :class:`~repro.core.roles.DisseminatorNode` and
        :class:`~repro.core.decentralized.DecentralizedNode` does).
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate!r}")
        self._schedule.append((time, "throttle", (list(names), rate)))
        if until is not None:
            self._schedule.append((until, "unthrottle", (list(names),)))
        return self

    def apply(self) -> None:
        """Schedule every fault on the simulator.  May only be called once."""
        if self._applied:
            raise RuntimeError("FaultPlan.apply() called twice")
        self._applied = True
        for time, action, args in self._schedule:
            if action == "crash":
                (name,) = args
                self.sim.call_at(time, self._crash_callback(name))
            elif action == "restart":
                name, amnesia = args
                self.sim.call_at(time, self._restart_callback(name, amnesia))
            elif action == "partition":
                (groups,) = args
                self.sim.call_at(
                    time, lambda groups=groups: self.network.partition(groups)
                )
            elif action == "heal":
                self.sim.call_at(time, self.network.heal)
            elif action == "loss":
                (rate,) = args
                self.sim.call_at(
                    time, lambda rate=rate: setattr(self.network, "loss_rate", rate)
                )
            elif action == "link-loss":
                source, destination, rate = args
                self.sim.call_at(
                    time,
                    lambda s=source, d=destination, r=rate: (
                        self.network.set_link_loss(s, d, r)
                    ),
                )
            elif action == "slow-link":
                source, destination, model = args
                self.sim.call_at(
                    time,
                    lambda s=source, d=destination, m=model: (
                        self.network.set_link_latency(s, d, m)
                    ),
                )
            elif action == "jitter":
                (model,) = args
                self.sim.call_at(time, lambda m=model: self._set_jitter(m))
            elif action == "unjitter":
                (model,) = args
                self.sim.call_at(time, lambda m=model: self._clear_jitter(m))
            elif action == "corrupt":
                (rate,) = args
                self.sim.call_at(
                    time, lambda rate=rate: self.network.set_corruption_rate(rate)
                )
            elif action == "flaky":
                names, rate = args
                self.sim.call_at(
                    time, lambda n=names, r=rate: self._set_flaky(n, r)
                )
            elif action == "unflaky":
                (names,) = args
                self.sim.call_at(time, lambda n=names: self._set_flaky(n, 0.0))
            elif action == "throttle":
                names, rate = args
                self.sim.call_at(
                    time, lambda n=names, r=rate: self._set_throttle(n, r)
                )
            elif action == "unthrottle":
                (names,) = args
                self.sim.call_at(time, lambda n=names: self._set_throttle(n, None))

    def _set_jitter(self, model: GaussianJitterLatency) -> None:
        # Remember what the jitter displaced so ``until`` can restore it.
        self._displaced_latency = getattr(self, "_displaced_latency", {})
        self._displaced_latency[id(model)] = self.network.latency
        self.network.latency = model

    def _clear_jitter(self, model: GaussianJitterLatency) -> None:
        displaced = getattr(self, "_displaced_latency", {}).pop(id(model), None)
        if displaced is not None and self.network.latency is model:
            self.network.latency = displaced

    def _set_flaky(self, names: Sequence[str], rate: float) -> None:
        rng = self.sim.rng.get("faults")
        for name in names:
            if name not in self.network:
                continue
            transport = getattr(
                getattr(self.network.process(name), "runtime", None),
                "transport",
                None,
            )
            if transport is None or not hasattr(transport, "inject_fault"):
                continue
            if rate <= 0.0:
                transport.inject_fault(None)
            else:
                transport.inject_fault(
                    lambda address, r=rate: "flaky" if rng.random() < r else None
                )

    def _set_throttle(self, names: Sequence[str], rate: Optional[float]) -> None:
        for name in names:
            if name not in self.network:
                continue
            layer = getattr(self.network.process(name), "gossip_layer", None)
            if layer is None:
                continue
            if rate is None:
                layer.unthrottle()
            else:
                layer.throttle(rate)

    def _crash_callback(self, name: str):
        def crash() -> None:
            if name in self.network:
                self.network.process(name).crash()

        return crash

    def _restart_callback(self, name: str, amnesia: bool):
        def restart() -> None:
            if name in self.network:
                self.network.process(name).restart(amnesia=amnesia)

        return restart


@dataclass
class ChurnGenerator:
    """Continuous churn: crash a random running node, revive it after an
    exponentially distributed downtime.

    Args:
        network: the fabric to churn.
        candidates: names eligible for churn (protect coordinators by
            leaving them out).
        rate: expected churn events per second (crash + recover each count
            as one event).
        recover_delay: mean time a crashed node stays down.
        restart: revive victims through :meth:`~repro.simnet.process.
            Process.restart` -- faithful crash semantics where the process
            image is lost and the node rejoins via the recovery path.
            ``False`` (the historical default) revives with
            ``Process.start()``, a *pause-style* resume that keeps the
            entire pre-crash in-memory state; keep it only when that is
            the failure model you mean to measure.
        amnesia: with ``restart=True``, whether durable state is lost too
            (``True``, a lost disk) or replayed from the node's
            :class:`~repro.core.store.GossipLog` (``False``).  Ignored
            when ``restart`` is false.
    """

    network: Network
    candidates: Sequence[str]
    rate: float
    recover_delay: float = 1.0
    restart: bool = False
    amnesia: bool = True

    def start(self, until: Optional[float] = None) -> None:
        """Begin injecting churn until simulated time ``until`` (forever if
        ``None``, bounded by the run's own horizon)."""
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate!r}")
        self._until = until
        self._rng = self.network.sim.rng.get("churn")
        self._schedule_next()

    def _schedule_next(self) -> None:
        delay = self._rng.expovariate(self.rate)
        when = self.network.sim.now + delay
        if self._until is not None and when > self._until:
            return
        self.network.sim.call_at(when, self._churn_once)

    def _churn_once(self) -> None:
        running = [
            name
            for name in self.candidates
            if name in self.network and self.network.process(name).is_running
        ]
        if running:
            victim = self._rng.choice(running)
            process = self.network.process(victim)
            process.crash()
            down_for = self._rng.expovariate(1.0 / self.recover_delay)
            if self.restart:
                revive = lambda process=process: process.restart(
                    amnesia=self.amnesia
                )
            else:
                revive = lambda process=process: process.start()
            self.network.sim.call_after(down_for, revive)
        self._schedule_next()
