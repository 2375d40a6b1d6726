"""Lightweight metrics: counters, gauges, histograms and time series.

The benchmark harness reads these to produce the rows in EXPERIMENTS.md.
They deliberately mirror the shape of common production metric libraries
(counter / gauge / histogram / gauge-over-time) without any of their
machinery.

The stat groups (:class:`WireStats`, :class:`BatchStats`,
:class:`HealthStats`, :class:`RecoveryStats`, :class:`ControlStats`,
:class:`OverloadStats`) are plain value objects owned by a
:class:`repro.obs.MetricsHub`; each group may chain to a parent group so
per-simulation hubs still feed the process-wide default hub
(``repro.obs.default_hub().wire`` and so on).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative: {amount!r}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A value that can go up and down (queue depth, open breakers, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Stores raw observations; summary statistics computed on demand.

    Raw storage keeps exact percentiles, which matters for latency tails.
    All experiment populations here are small enough (<= millions) that the
    memory cost is irrelevant.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return math.fsum(self._values)

    def mean(self) -> float:
        """Arithmetic mean of the observations (ValueError when empty)."""
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self.total / len(self._values)

    def stdev(self) -> float:
        """Sample standard deviation (0.0 for fewer than two values)."""
        if len(self._values) < 2:
            return 0.0
        mean = self.mean()
        variance = math.fsum((v - mean) ** 2 for v in self._values)
        return math.sqrt(variance / (len(self._values) - 1))

    def percentile(self, q: float) -> float:
        """Exact percentile by linear interpolation, ``q`` in [0, 100]."""
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {q!r}")
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        fraction = rank - low
        value = ordered[low] * (1.0 - fraction) + ordered[high] * fraction
        # Interpolating subnormal floats can underflow below ordered[low];
        # clamp so the percentile always lies between its neighbours.
        return min(max(value, ordered[low]), ordered[high])

    def min(self) -> float:
        """Smallest observation (ValueError when empty)."""
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return min(self._values)

    def max(self) -> float:
        """Largest observation (ValueError when empty)."""
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return max(self._values)

    def values(self) -> List[float]:
        """A copy of the raw observations."""
        return list(self._values)

    def clear(self) -> None:
        """Discard every observation (the histogram object stays bound)."""
        self._values.clear()

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class TimeSeries:
    """(time, value) samples, e.g. delivered-throughput over time (E4)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self._samples and time < self._samples[-1][0]:
            raise ValueError(
                f"time series {self.name!r} must be appended in time order"
            )
        self._samples.append((float(time), float(value)))

    def samples(self) -> List[Tuple[float, float]]:
        """A copy of the (time, value) samples."""
        return list(self._samples)

    def values(self) -> List[float]:
        """Just the sample values, in time order."""
        return [value for _, value in self._samples]

    def window_rate(self, window: float) -> List[Tuple[float, float]]:
        """Bucket samples into ``window``-second bins, returning
        ``(bin_start, sum_of_values / window)`` -- a rate per second."""
        if window <= 0:
            raise ValueError(f"window must be positive: {window!r}")
        if not self._samples:
            return []
        bins: Dict[int, float] = {}
        for time, value in self._samples:
            bins[int(time // window)] = bins.get(int(time // window), 0.0) + value
        last_bin = max(bins)
        return [
            (index * window, bins.get(index, 0.0) / window)
            for index in range(last_bin + 1)
        ]

    def clear(self) -> None:
        """Discard every sample (the series object stays bound)."""
        self._samples.clear()

    def __len__(self) -> int:
        return len(self._samples)


class StatGroup:
    """Base for the fixed-field stat groups below.

    Each instance may chain to a ``parent`` group of the same shape.
    Writing a field (``stats.x += 1``) propagates the delta up the parent
    chain, so a per-simulation hub's groups also feed the process-wide
    default hub -- that is what keeps the deprecated module-level aliases
    meaningful.  :meth:`reset` zeroes fields *without* propagating (a
    benchmark resetting its own group must not erase history upstream).
    """

    # Subclasses list their counter fields here; ``_FIELDS`` is the same
    # thing as a frozenset for the O(1) membership test in __setattr__.
    _fields: Tuple[str, ...] = ()
    _FIELDS: frozenset = frozenset()

    __slots__ = ("parent",)

    def __init__(self, parent: Optional["StatGroup"] = None) -> None:
        object.__setattr__(self, "parent", parent)
        self.reset()

    def __setattr__(self, name: str, value) -> None:
        if name in self._FIELDS:
            old = getattr(self, name, 0)
            object.__setattr__(self, name, value)
            delta = value - old
            if delta:
                parent = self.parent
                while parent is not None:
                    object.__setattr__(parent, name, getattr(parent, name) + delta)
                    parent = parent.parent
        else:
            object.__setattr__(self, name, value)

    def reset(self) -> None:
        """Zero every counter in place; the parent chain is untouched."""
        for name in self._fields:
            object.__setattr__(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Current counter values as a plain dict."""
        return {name: getattr(self, name) for name in self._fields}


class WireStats(StatGroup):
    """Wire-path cost counters (one group per :class:`~repro.obs.MetricsHub`).

    The SOAP encode/parse hot path is exercised by every simulated node
    sharing a hub:

    * ``serialize_count`` -- actual XML encodes performed by
      :meth:`repro.soap.envelope.Envelope.to_bytes` (cache misses).
    * ``serialize_reused`` -- ``to_bytes()`` calls answered from the
      memoized wire bytes (cache hits -- the zero-copy fast path).
    * ``parse_count`` -- actual XML parses performed by
      :meth:`repro.soap.envelope.Envelope.from_bytes`.
    * ``parse_reused`` -- ``from_bytes()`` calls answered from the shared
      parse cache (identical wire bytes already parsed by another node in
      this process -- the fan-out twin of ``serialize_reused``).
    * ``dedup_preparse_hits`` -- duplicate gossip messages dropped by the
      byte-scan gate *before* any XML parse.
    * ``idempotent_replays`` -- retried edge POSTs answered from the
      :class:`~repro.transport.edge.IdempotencyIndex` without re-entering
      the runtime (``Idempotent-Replay: true`` responses).
    """

    _fields = (
        "serialize_count",
        "serialize_reused",
        "parse_count",
        "parse_reused",
        "dedup_preparse_hits",
        "idempotent_replays",
    )
    _FIELDS = frozenset(_fields)

    __slots__ = _fields

    @property
    def serialize_calls(self) -> int:
        """Total ``to_bytes()`` invocations, cached or not."""
        return self.serialize_count + self.serialize_reused

    def __repr__(self) -> str:
        return (
            f"WireStats(serialize={self.serialize_count}, "
            f"reused={self.serialize_reused}, parse={self.parse_count}, "
            f"preparse_hits={self.dedup_preparse_hits})"
        )


class BatchStats(StatGroup):
    """Batched-envelope counters (the coalescing twin of :class:`WireStats`).

    Fed by the engine's per-destination outbox and the batch codec
    (:mod:`repro.core.batch`); benchmarks snapshot them to show how much
    traffic the lpbcast-style piggybacking actually collapsed:

    * ``batches_built`` -- batch frames encoded (one per unique
      destination-set content per flush; fan-out shares the encode).
    * ``batches_sent`` -- batch frames handed to a transport (>= built,
      one per destination).
    * ``rumors_batched`` -- inner rumor frames carried inside sent batches.
    * ``control_piggybacked`` -- control sections (advertisements,
      feedback, pull digests) that rode along instead of going out as
      their own envelopes.
    * ``batches_received`` / ``rumors_unpacked`` -- receive-side splits.
    * ``batches_skipped_preparse`` -- whole batches dropped by the
      byte-scan gate because every carried rumor was already known.
    * ``flushes`` -- outbox flushes (each coalesces one burst of traffic).
    * ``legacy_singletons`` -- flushed entries that went out as plain
      single-rumor frames because batching them had no benefit.
    """

    _fields = (
        "batches_built",
        "batches_sent",
        "rumors_batched",
        "control_piggybacked",
        "batches_received",
        "rumors_unpacked",
        "batches_skipped_preparse",
        "flushes",
        "legacy_singletons",
    )
    _FIELDS = frozenset(_fields)

    __slots__ = _fields

    def __repr__(self) -> str:
        return (
            f"BatchStats(built={self.batches_built}, "
            f"sent={self.batches_sent}, rumors={self.rumors_batched}, "
            f"skipped={self.batches_skipped_preparse})"
        )


class HealthStats(StatGroup):
    """Peer-health counters (the resilience twin of :class:`WireStats`).

    Fed by the resilient transports (:mod:`repro.transport.base`) and the
    suspicion tracker (:mod:`repro.core.health`); benchmark E5 snapshots
    them to show what the health layer actually did during a chaos run:

    * ``send_failures`` -- individual send attempts that failed (every
      retry counts separately).
    * ``retries`` -- failed attempts that were retried with backoff.
    * ``sends_suppressed`` -- sends refused locally by an open circuit
      breaker (never reached the wire).
    * ``breaker_opened`` / ``breaker_probes`` / ``breaker_closed`` --
      circuit-breaker state transitions (closed->open, half-open probe
      admitted, probe succeeded -> closed).
    * ``peers_suspected`` / ``peers_restored`` -- suspicion-score
      threshold crossings in either direction.
    * ``fanout_boosts`` -- gossip rounds where the degraded-mode fanout
      exceeded the configured one because the healthy pool had shrunk.
    * ``dead_letters`` -- messages abandoned by the WS-RM reliability
      layer after ``max_retries`` (see :mod:`repro.soap.reliable`).
    """

    _fields = (
        "send_failures",
        "retries",
        "sends_suppressed",
        "breaker_opened",
        "breaker_probes",
        "breaker_closed",
        "peers_suspected",
        "peers_restored",
        "fanout_boosts",
        "dead_letters",
    )
    _FIELDS = frozenset(_fields)

    __slots__ = _fields

    def __repr__(self) -> str:
        return (
            f"HealthStats(failures={self.send_failures}, "
            f"retries={self.retries}, suppressed={self.sends_suppressed}, "
            f"opened={self.breaker_opened}, dead_letters={self.dead_letters})"
        )


class RecoveryStats(StatGroup):
    """Crash-recovery counters (the restart twin of :class:`HealthStats`).

    Fed by the durability layer (:mod:`repro.core.store`), the engine's
    restart/rejoin path, and :meth:`FaultPlan.restart_at
    <repro.simnet.faults.FaultPlan.restart_at>`; benchmark E5 and the
    ``make test-recovery`` gate snapshot them to show what recovery did:

    * ``restarts`` / ``amnesia_restarts`` -- engine restarts total and the
      subset that discarded durable state too.
    * ``replayed_messages`` -- messages restored into the store from the
      WAL/snapshot during a durable restart.
    * ``log_appends`` / ``snapshots`` -- WAL traffic and compactions.
    * ``corrupt_records`` / ``truncated_tails`` / ``corrupt_snapshots`` --
      damage tolerated (skipped, never fatal) during replay.
    * ``fetched`` -- messages obtained via the rejoin catch-up exchange.
    * ``redelivered_suppressed`` -- duplicate arrivals (including FIFO
      sequence numbers already delivered before the crash) swallowed
      during recovery instead of re-delivered.
    * ``catch_up_rounds`` / ``catch_ups_completed`` -- bounded anti-entropy
      rounds run after restart, and rejoins that finished them.
    """

    _fields = (
        "restarts",
        "amnesia_restarts",
        "replayed_messages",
        "log_appends",
        "snapshots",
        "corrupt_records",
        "truncated_tails",
        "corrupt_snapshots",
        "fetched",
        "redelivered_suppressed",
        "catch_up_rounds",
        "catch_ups_completed",
    )
    _FIELDS = frozenset(_fields)

    __slots__ = _fields

    def __repr__(self) -> str:
        return (
            f"RecoveryStats(restarts={self.restarts}, "
            f"replayed={self.replayed_messages}, fetched={self.fetched}, "
            f"suppressed={self.redelivered_suppressed}, "
            f"rounds={self.catch_up_rounds})"
        )


class ControlStats(StatGroup):
    """Adaptive-controller counters (the feedback twin of :class:`HealthStats`).

    Fed by :class:`repro.core.control.AdaptiveController`; the
    ``make test-adaptive`` gate and ``bench_perturbation`` snapshot them to
    prove the control loop actually engaged:

    * ``epochs`` -- controller epochs evaluated (one decision each).
    * ``boosts`` -- epochs that raised fanout/rounds (stress detected).
    * ``shrinks`` -- epochs that lowered fanout/rounds (calm, SLO met
      with margin, cooldown elapsed).
    * ``holds`` -- epochs that left the knobs alone.
    * ``escalations`` / ``deescalations`` -- push -> push-pull mode
      switches and the reverse.
    * ``slo_breaches`` -- epochs whose observed delivery fraction fell
      below the configured SLO.
    * ``cooldown_holds`` -- shrinks refused because the cooldown since
      the last boost had not elapsed (the anti-oscillation brake).
    * ``ceiling_clamps`` -- gossip rounds where the health-layer fanout
      boost was clamped at the controller's hard ceiling.
    * ``param_updates`` -- engine parameter objects actually replaced.
    * ``pressure_reliefs`` -- epochs where overload pressure above the
      policy's ``pressure_high`` made the controller narrow batching and
      fanout (and suppress any boost) instead of amplifying into an
      already-collapsing network.
    """

    _fields = (
        "epochs",
        "boosts",
        "shrinks",
        "holds",
        "escalations",
        "deescalations",
        "slo_breaches",
        "cooldown_holds",
        "ceiling_clamps",
        "param_updates",
        "pressure_reliefs",
    )
    _FIELDS = frozenset(_fields)

    __slots__ = _fields

    def __repr__(self) -> str:
        return (
            f"ControlStats(epochs={self.epochs}, boosts={self.boosts}, "
            f"shrinks={self.shrinks}, escalations={self.escalations}, "
            f"breaches={self.slo_breaches})"
        )


class OverloadStats(StatGroup):
    """Overload-protection counters (the backpressure twin of :class:`ControlStats`).

    Fed by the engine's shed ladder, the ingest gate, the edge admission
    bucket and the resilient transports (see docs/RESILIENCE.md,
    "Overload and backpressure"); the ``make test-overload`` gate and
    ``bench_overload`` snapshot them to prove shedding engaged:

    * ``admitted`` -- frames accepted into the bounded ingest queue (the
      denominator for shed ratios).
    * ``shed_digests`` -- duplicate advertisements and periodic digests
      dropped under pressure (cheapest rung, shed first).
    * ``shed_feedback`` -- feedback frames dropped under pressure.
    * ``shed_pull`` -- pull responses dropped under pressure.
    * ``shed_payloads`` -- eager rumor payloads dropped at the hard
      limit only (the last rung of the ladder).
    * ``publish_rejected`` -- local publishes refused with
      :class:`~repro.core.overload.OverloadError` at the outbox hard
      limit.
    * ``edge_rejected`` -- ``POST /v1/gossip`` requests 429'd by the
      edge token bucket.
    * ``retry_after_honored`` -- resilient-transport backoffs scheduled
      from a ``Retry-After`` hint instead of the breaker's own clock.
    * ``throttled`` -- deliveries deferred because the node's processing
      rate was capped (slow-consumer fault or drain pacing).
    * ``pressure_highs`` -- times a node's pressure crossed the high
      watermark (one per hysteresis cycle, not per shed frame).
    """

    _fields = (
        "admitted",
        "shed_digests",
        "shed_feedback",
        "shed_pull",
        "shed_payloads",
        "publish_rejected",
        "edge_rejected",
        "retry_after_honored",
        "throttled",
        "pressure_highs",
    )
    _FIELDS = frozenset(_fields)

    __slots__ = _fields

    @property
    def shed_total(self) -> int:
        """Every frame shed, across all rungs of the ladder."""
        return (
            self.shed_digests
            + self.shed_feedback
            + self.shed_pull
            + self.shed_payloads
        )

    _SHED_FIELDS = {
        "digest": "shed_digests",
        "feedback": "shed_feedback",
        "pull": "shed_pull",
    }

    def count_shed(self, shed_class: str) -> None:
        """Bump the counter for one shed frame of ``shed_class``
        (anything unrecognised counts as a payload)."""
        field = self._SHED_FIELDS.get(shed_class, "shed_payloads")
        setattr(self, field, getattr(self, field) + 1)

    def __repr__(self) -> str:
        return (
            f"OverloadStats(admitted={self.admitted}, "
            f"shed={self.shed_total}, rejected={self.edge_rejected}, "
            f"throttled={self.throttled}, highs={self.pressure_highs})"
        )


class MetricsRegistry:
    """Named registry so components can share one sink.

    ``counter``/``gauge``/``histogram``/``series`` create on first use and
    return the cached instance afterwards.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def series(self, name: str) -> TimeSeries:
        """The time series named ``name`` (created on first use)."""
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counter values."""
        return {name: counter.value for name, counter in self._counters.items()}

    def gauges(self) -> Dict[str, float]:
        """Snapshot of all gauge values."""
        return {name: gauge.value for name, gauge in self._gauges.items()}

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"histograms={len(self._histograms)}, series={len(self._series)})"
        )

