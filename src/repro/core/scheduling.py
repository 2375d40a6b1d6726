"""Scheduler abstraction: one gossip engine, two notions of time.

The engine needs timers (pull rounds, anti-entropy, peer refresh) and a
clock.  Inside the simulator those map to the node's
:meth:`~repro.simnet.process.Process.set_timer`; on a live deployment they
map to the event loop's ``call_later``
(:class:`~repro.transport.aio.AioScheduler`).  The engine only sees this
interface.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Protocol, Tuple

from repro.simnet.process import Process


class CancellableTimer(Protocol):
    def cancel(self) -> None:  # pragma: no cover - protocol
        """Cancel the pending timer."""
        ...


class Scheduler(Protocol):
    """What the gossip engine needs from its host."""

    @property
    def now(self) -> float:  # pragma: no cover - protocol
        ...

    def call_after(
        self, delay: float, callback: Callable[[], None]
    ) -> CancellableTimer:  # pragma: no cover - protocol
        """Schedule ``callback`` after ``delay`` seconds."""
        ...


class ProcessScheduler:
    """Adapter over a simulated process.

    Timers automatically die with the process (crash semantics), which is
    exactly the fault model the experiments need.
    """

    def __init__(self, process: Process) -> None:
        self._process = process

    @property
    def now(self) -> float:
        return self._process.now

    def call_after(self, delay: float, callback: Callable[[], None]):
        """Schedule on the simulated process (dies with it on crash)."""
        return self._process.set_timer(delay, callback)


class PeriodicLoop:
    """The round loop of gossip rounds, aggregation, peer sampling and
    membership heartbeats: ``step()`` runs every ``period +
    rng.uniform(0, jitter)`` seconds (``timing()`` gives both, drawn when
    the round is scheduled) from :meth:`start` until :meth:`stop`, or
    until a step returns ``False``."""

    __slots__ = ("running", "_scheduler", "_rng", "_timing", "_step")

    def __init__(
        self,
        scheduler: Scheduler,
        rng: random.Random,
        timing: Callable[[], Tuple[float, float]],
        step: Callable[[], Optional[bool]],
    ) -> None:
        self.running = False
        self._scheduler = scheduler
        self._rng = rng
        self._timing = timing
        self._step = step

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._schedule()

    def stop(self) -> None:
        self.running = False

    def _schedule(self) -> None:
        period, jitter = self._timing()
        self._scheduler.call_after(
            period + self._rng.uniform(0.0, jitter), self._round
        )

    def _round(self) -> None:
        if not self.running:
            return
        if self._step() is False:
            self.running = False
        else:
            self._schedule()
