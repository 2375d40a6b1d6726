"""Seed-sweep statistics for the experiment harness.

Every experiment row is a mean over seeds; this module provides the
summary that belongs next to such a mean: sample standard deviation and a
Student-t confidence interval.  Uses scipy when available for exact t
quantiles (imported lazily, on the first interval), falling back to the
normal approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


def _t_quantile(confidence: float, dof: int) -> float:
    """Two-sided Student-t quantile; normal approximation without scipy.

    scipy is imported here, on first use, not at module level: it pulls in
    numpy (~77 MiB resident), and every process that imports :mod:`repro`
    -- each live node included -- would pay for a quantile that only the
    experiment tables ask for.
    """
    try:
        from scipy import stats
    except ImportError:  # pragma: no cover - environment dependent
        pass
    else:
        return float(stats.t.ppf(0.5 + confidence / 2.0, dof))
    # Normal approximation (fine for the dof >= 2 the harness uses).
    table = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}
    key = min(table, key=lambda candidate: abs(candidate - confidence))
    return table[key]


@dataclass(frozen=True)
class Summary:
    """Mean, spread and confidence half-width of one sample set."""

    n: int
    mean: float
    stdev: float
    half_width: float
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} +/- {self.half_width:.2g}"


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Summarize a seed sweep.

    Raises:
        ValueError: on empty input or a confidence outside (0, 1).
    """
    data: List[float] = [float(value) for value in values]
    if not data:
        raise ValueError("cannot summarize an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1): {confidence!r}")
    n = len(data)
    mean = math.fsum(data) / n
    if n == 1:
        return Summary(n=1, mean=mean, stdev=0.0, half_width=0.0,
                       confidence=confidence)
    variance = math.fsum((value - mean) ** 2 for value in data) / (n - 1)
    stdev = math.sqrt(variance)
    half_width = _t_quantile(confidence, n - 1) * stdev / math.sqrt(n)
    return Summary(n=n, mean=mean, stdev=stdev, half_width=half_width,
                   confidence=confidence)


def compare(sample_a: Sequence[float], sample_b: Sequence[float],
            confidence: float = 0.95) -> bool:
    """True when ``sample_a``'s mean is credibly above ``sample_b``'s.

    A simple non-overlapping-confidence-interval test -- conservative but
    assumption-light, which suits small deterministic seed sweeps.
    """
    summary_a = summarize(sample_a, confidence)
    summary_b = summarize(sample_b, confidence)
    return summary_a.low > summary_b.high
