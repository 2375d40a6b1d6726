"""Causal rumor tracing: one span per gossip message id.

A :class:`RumorSpan` follows a single rumor through the epidemic: the
publish that minted its wire ``MessageId``, every forward fan-out, and
every first delivery at a node, each stamped with simulation time and the
remaining hop budget.  The span key is the wire ``MessageId`` itself, which
survives batching unchanged (:mod:`repro.core.batch` embeds legacy frames
verbatim), so rumors are traced identically whether they travelled alone
or inside a :class:`~repro.core.batch.GossipBatch` frame.

From the raw hops the span derives the quantities the experiments used to
approximate with raw :class:`~repro.simnet.trace.TraceLog` scans: the
infection curve (``delivered(t)`` and delivered-by-round), and
rounds-to-delivery percentiles.  Round attribution uses the hop budget:
a rumor published with ``hops = params.rounds`` and delivered while
``hops_left`` remained has taken ``budget - hops_left`` rounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple


class RumorSpan:
    """The causal trace of one rumor (keyed by its wire message id)."""

    __slots__ = (
        "message_id",
        "origin",
        "publish_time",
        "budget",
        "deliveries",
        "forwards",
        "_delivered_nodes",
    )

    def __init__(
        self,
        message_id: str,
        origin: Optional[str] = None,
        publish_time: Optional[float] = None,
        budget: Optional[int] = None,
    ) -> None:
        self.message_id = message_id
        self.origin = origin
        self.publish_time = publish_time
        self.budget = budget
        #: First delivery per node: ``(time, node, hops_left)``.
        self.deliveries: List[Tuple[float, str, int]] = []
        #: Forward fan-outs: ``(time, node, targets)``.
        self.forwards: List[Tuple[float, str, int]] = []
        self._delivered_nodes: Set[str] = set()

    # -- recorded hops ------------------------------------------------------

    def record_delivery(self, time: float, node: str, hops_left: int) -> None:
        if node in self._delivered_nodes:
            return  # only the first arrival per node is causal
        self._delivered_nodes.add(node)
        self.deliveries.append((time, node, hops_left))
        if self.budget is None or hops_left + 1 > self.budget:
            # No publish was observed (remote origin): infer the budget
            # from the freshest copy seen -- it left the publisher with
            # one more hop than any arrival can carry.
            self.budget = hops_left + 1

    def record_forward(self, time: float, node: str, targets: int) -> None:
        self.forwards.append((time, node, targets))

    # -- derived quantities -------------------------------------------------

    def infected_nodes(self) -> Set[str]:
        """Every node known to hold the rumor (origin + deliveries)."""
        nodes = {node for _, node, _ in self.deliveries}
        if self.origin is not None:
            nodes.add(self.origin)
        return nodes

    @property
    def delivered_count(self) -> int:
        """Distinct nodes the rumor reached, excluding the origin."""
        return len({node for _, node, _ in self.deliveries} - {self.origin})

    def rounds_of_deliveries(self) -> List[int]:
        """Rounds taken by each delivery (``budget - hops_left``)."""
        if self.budget is None:
            return []
        return [self.budget - hops_left for _, _, hops_left in self.deliveries]

    def infection_curve(self) -> List[Tuple[float, int]]:
        """``(time, cumulative_infected)`` steps, origin counted at publish.

        Times are delivery times; the count at each step is the number of
        distinct infected nodes (origin included) up to that time.
        """
        curve: List[Tuple[float, int]] = []
        seen: Set[str] = set()
        if self.origin is not None:
            seen.add(self.origin)
            curve.append((self.publish_time or 0.0, len(seen)))
        for time, node, _ in sorted(self.deliveries):
            if node in seen:
                continue
            seen.add(node)
            curve.append((time, len(seen)))
        return curve

    def delivered_by_round(self) -> Dict[int, int]:
        """Cumulative distinct infected nodes per round (origin = round 0)."""
        first_round: Dict[str, int] = {}
        if self.origin is not None:
            first_round[self.origin] = 0
        if self.budget is not None:
            for _, node, hops_left in self.deliveries:
                rounds = self.budget - hops_left
                if node not in first_round or rounds < first_round[node]:
                    first_round[node] = rounds
        if not first_round:
            return {}
        last = max(first_round.values())
        cumulative: Dict[int, int] = {}
        count = 0
        by_round: Dict[int, int] = {}
        for node, rounds in first_round.items():
            by_round[rounds] = by_round.get(rounds, 0) + 1
        for rounds in range(last + 1):
            count += by_round.get(rounds, 0)
            cumulative[rounds] = count
        return cumulative

    def rounds_to_fraction(self, fraction: float, population: int) -> Optional[int]:
        """Smallest round by which ``>= fraction * population`` nodes are
        infected, or ``None`` when the rumor never got there."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1]: {fraction!r}")
        if population <= 0:
            raise ValueError(f"population must be positive: {population!r}")
        target = fraction * population
        for rounds, count in sorted(self.delivered_by_round().items()):
            if count >= target:
                return rounds
        return None

    def __repr__(self) -> str:
        return (
            f"RumorSpan({self.message_id!r}, origin={self.origin!r}, "
            f"delivered={self.delivered_count}, forwards={len(self.forwards)})"
        )


class RumorTracer:
    """Span registry fed by the gossip engines sharing a hub."""

    def __init__(self) -> None:
        self._spans: Dict[str, RumorSpan] = {}

    def _span(self, message_id: str) -> RumorSpan:
        span = self._spans.get(message_id)
        if span is None:
            span = RumorSpan(message_id)
            self._spans[message_id] = span
        return span

    # -- hooks (called by the engine) ---------------------------------------

    def on_publish(
        self, message_id: str, node: str, time: float, budget: int
    ) -> None:
        """A rumor was minted at ``node`` with ``budget`` hops to spend."""
        span = self._span(message_id)
        span.origin = node
        span.publish_time = time
        if span.budget is None or budget > span.budget:
            span.budget = budget

    def on_forward(
        self, message_id: str, node: str, time: float, targets: int
    ) -> None:
        """``node`` fanned the rumor out to ``targets`` peers."""
        if targets <= 0:
            return
        self._span(message_id).record_forward(time, node, targets)

    def on_deliver(
        self, message_id: str, node: str, time: float, hops_left: int
    ) -> None:
        """First (fresh) arrival of the rumor at ``node``."""
        self._span(message_id).record_delivery(time, node, hops_left)

    # -- queries ------------------------------------------------------------

    def span(self, message_id: str) -> Optional[RumorSpan]:
        """The span for a message id, or ``None``."""
        return self._spans.get(message_id)

    def spans(self) -> List[RumorSpan]:
        """Every span, in first-seen order."""
        return list(self._spans.values())

    def __len__(self) -> int:
        return len(self._spans)

    def deliveries_per_node(self) -> Dict[str, int]:
        """Distinct rumors delivered per node across all spans."""
        counts: Dict[str, int] = {}
        for span in self._spans.values():
            for node in span.infected_nodes() - {span.origin}:
                counts[node] = counts.get(node, 0) + 1
        return counts

    def all_delivery_rounds(self) -> List[int]:
        """Round counts for every delivery across all spans."""
        rounds: List[int] = []
        for span in self._spans.values():
            rounds.extend(span.rounds_of_deliveries())
        return rounds

    def rounds_percentile(self, q: float) -> float:
        """Percentile of rounds-to-delivery across all spans.

        Raises:
            ValueError: when nothing has been delivered yet.
        """
        rounds = sorted(self.all_delivery_rounds())
        if not rounds:
            raise ValueError("no deliveries traced")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {q!r}")
        if len(rounds) == 1:
            return float(rounds[0])
        rank = (q / 100.0) * (len(rounds) - 1)
        low = int(rank)
        high = min(low + 1, len(rounds) - 1)
        fraction = rank - low
        return rounds[low] * (1.0 - fraction) + rounds[high] * fraction

    def reset(self) -> None:
        """Drop every span (the tracer object stays bound)."""
        self._spans.clear()

    def __repr__(self) -> str:
        return f"RumorTracer(spans={len(self._spans)})"
