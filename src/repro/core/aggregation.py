"""Gossip-based aggregation (push-sum).

The paper positions WS-Gossip as "encompassing different gossip styles and
suitable for multiple application scenarios"; aggregation is the canonical
second scenario (system-wide averages/sums computed with no coordinator).
This is the push-sum protocol of Kempe, Dobra & Gehrke (FOCS 2003):

* every node holds a pair ``(value, weight)``;
* each round it keeps half and sends half to one uniform random peer;
* ``value / weight`` converges exponentially fast to the global average at
  every node; mass conservation (``sum of values`` and ``sum of weights``
  are invariant) is the correctness property the tests check.

``sum`` and ``count`` are the same protocol with different initial weights;
``min``/``max`` use idempotent merge instead of mass splitting.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, List, Optional, Sequence

from repro.core.scheduling import PeriodicLoop, Scheduler
from repro.soap import namespaces as ns
from repro.soap.fault import sender_fault
from repro.soap.handler import MessageContext
from repro.soap.runtime import SoapRuntime
from repro.soap.service import Service, operation

SHARE_ACTION = f"{ns.WSGOSSIP}/aggregate/Share"
AGGREGATION_SERVICE_PATH = "/aggregation"


class AggregateKind(enum.Enum):
    """Supported aggregate functions."""

    AVERAGE = "average"
    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"


class AggregationEngine:
    """Push-sum state machine for one aggregation task on one node.

    Args:
        runtime: the node's SOAP runtime.
        scheduler: timers for periodic shares.
        task: name identifying the aggregation task (nodes participating in
            the same task must use the same name).
        kind: the aggregate function.
        local_value: this node's input.
        view_provider: returns the current peer app/base addresses to share
            with (e.g. the coordinator-provided view or a sampling view).
        period: seconds between shares.
        rng: peer-choice stream.
        weight: initial weight; for AVERAGE every node uses 1.0, for
            SUM/COUNT exactly one node uses 1.0 and the rest 0.0 (handled
            by :func:`initial_weight`).
    """

    def __init__(
        self,
        runtime: SoapRuntime,
        scheduler: Scheduler,
        task: str,
        kind: AggregateKind,
        local_value: float,
        view_provider: Callable[[], Sequence[str]],
        period: float = 0.5,
        rng: Optional[random.Random] = None,
        weight: float = 1.0,
        jitter: float = 0.05,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive: {period!r}")
        self.runtime = runtime
        self.scheduler = scheduler
        self.task = task
        self.kind = kind
        self.view_provider = view_provider
        self.rng = rng if rng is not None else random.Random()
        self._loop = PeriodicLoop(
            scheduler, self.rng, lambda: (period, jitter), self._round
        )
        if kind is AggregateKind.COUNT:
            local_value = 1.0
        self.value = float(local_value)
        self.weight = float(weight)
        self.rounds_run = 0

    # -- protocol -----------------------------------------------------------

    def start(self) -> None:
        """Begin periodic sharing."""
        self._loop.start()

    def stop(self) -> None:
        """Stop periodic sharing."""
        self._loop.stop()

    def _round(self) -> None:
        self.rounds_run += 1
        self._share_once()

    def _share_once(self) -> None:
        peers = [peer for peer in self.view_provider()]
        if peers:
            target = self.rng.choice(peers)
            if self.kind in (AggregateKind.MIN, AggregateKind.MAX):
                payload = {"task": self.task, "value": self.value, "weight": 0.0,
                           "kind": self.kind.value}
            else:
                # Split mass: keep half, send half.
                self.value /= 2.0
                self.weight /= 2.0
                payload = {"task": self.task, "value": self.value,
                           "weight": self.weight, "kind": self.kind.value}
            self.runtime.metrics.counter("aggregate.share").inc()
            self.runtime.send(
                self._aggregation_address(target), SHARE_ACTION, value=payload
            )

    @staticmethod
    def _aggregation_address(peer: str) -> str:
        from repro.transport.base import split_address

        scheme, authority, _ = split_address(peer)
        return f"{scheme}://{authority}{AGGREGATION_SERVICE_PATH}"

    def receive_share(self, value: float, weight: float, kind: str) -> None:
        """Merge an incoming share.

        Raises:
            ValueError: when the share's kind disagrees with ours (two
            different aggregations accidentally using one task name).
        """
        if kind != self.kind.value:
            raise ValueError(
                f"aggregation kind mismatch on task {self.task!r}: "
                f"{kind!r} != {self.kind.value!r}"
            )
        if self.kind is AggregateKind.MIN:
            self.value = min(self.value, value)
        elif self.kind is AggregateKind.MAX:
            self.value = max(self.value, value)
        else:
            self.value += value
            self.weight += weight

    # -- results -------------------------------------------------------------------

    def estimate(self) -> float:
        """Current local estimate of the aggregate."""
        if self.kind in (AggregateKind.MIN, AggregateKind.MAX):
            return self.value
        if self.weight <= 0.0:
            return 0.0
        return self.value / self.weight

    @property
    def mass(self) -> tuple:
        """(value, weight) -- the conserved quantities, for invariant tests."""
        return (self.value, self.weight)

    def __repr__(self) -> str:
        return (
            f"AggregationEngine(task={self.task!r}, kind={self.kind.value}, "
            f"estimate={self.estimate():.6g})"
        )


def initial_weight(kind: AggregateKind, is_root: bool) -> float:
    """The starting weight for a node.

    AVERAGE: everyone weighs 1.  SUM / COUNT: only the designated root
    carries weight 1, so the converged ``value/weight`` equals the total.
    MIN/MAX ignore weights.
    """
    if kind is AggregateKind.AVERAGE:
        return 1.0
    if kind in (AggregateKind.SUM, AggregateKind.COUNT):
        return 1.0 if is_root else 0.0
    return 0.0


class AggregationService(Service):
    """The ``/aggregation`` endpoint: receives push-sum shares."""

    def __init__(self) -> None:
        super().__init__()
        self._engines = {}

    def add_engine(self, engine: AggregationEngine) -> None:
        """Register an engine to receive shares for its task name."""
        if engine.task in self._engines:
            raise ValueError(f"task already registered: {engine.task!r}")
        self._engines[engine.task] = engine

    def engine_for(self, task: str) -> Optional[AggregationEngine]:
        """The engine handling ``task``, or ``None``."""
        return self._engines.get(task)

    @operation(SHARE_ACTION)
    def share(self, context: MessageContext, value) -> None:
        """SOAP operation: merge an incoming push-sum share."""
        if not isinstance(value, dict):
            raise sender_fault("Share requires a map payload")
        task = value.get("task")
        engine = self._engines.get(task) if isinstance(task, str) else None
        if engine is None:
            raise sender_fault(f"unknown aggregation task: {task!r}")
        try:
            share_value = float(value["value"])
            share_weight = float(value["weight"])
            kind = str(value["kind"])
        except (KeyError, TypeError, ValueError):
            raise sender_fault("malformed Share payload") from None
        engine.receive_share(share_value, share_weight, kind)
        return None
