"""Lightweight metrics: counters, gauges, histograms and time series.

The benchmark harness reads these to produce the rows in EXPERIMENTS.md.
They deliberately mirror the shape of common production metric libraries
(counter / gauge / histogram / gauge-over-time) without any of their
machinery.

A counter may have a ``parent``: :meth:`Counter.inc` adds along the
chain, which is how a registry with a parent registry (a per-simulation
:class:`repro.obs.MetricsHub` under the process-wide default hub) feeds
it every count.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple


class Counter:
    """Monotonic event counter, optionally chained to a ``parent``."""

    __slots__ = ("name", "value", "parent")

    def __init__(self, name: str, parent: Optional["Counter"] = None) -> None:
        self.name = name
        self.value = 0
        self.parent = parent

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (non-negative) to this counter and every parent."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative: {amount!r}")
        counter = self
        while counter is not None:
            counter.value += amount
            counter = counter.parent

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


class MetricsRegistry:
    """Named registry so components can share one sink.

    ``counter``/``gauge``/``histogram``/``series`` create on first use and
    return the cached instance afterwards.  With a ``parent`` registry,
    each counter's parent is the parent's counter of the same name.
    """

    def __init__(self, parent: Optional["MetricsRegistry"] = None) -> None:
        self.parent = parent
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        existing = self._counters.get(name)
        if existing is None:
            parent = self.parent.counter(name) if self.parent is not None else None
            existing = self._counters[name] = Counter(name, parent)
        return existing

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        existing = self._gauges.get(name)
        if existing is None:
            existing = self._gauges[name] = Gauge(name)
        return existing

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        existing = self._histograms.get(name)
        if existing is None:
            existing = self._histograms[name] = Histogram(name)
        return existing

    def series(self, name: str) -> TimeSeries:
        """The time series named ``name`` (created on first use)."""
        existing = self._series.get(name)
        if existing is None:
            existing = self._series[name] = TimeSeries(name)
        return existing

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

