"""Scheduler abstraction: one gossip engine, two notions of time.

The engine needs timers (pull rounds, anti-entropy, peer refresh) and a
clock.  Inside the simulator those map to the node's
:meth:`~repro.simnet.process.Process.set_timer`; on a live deployment they
map to the event loop's ``call_later``
(:class:`~repro.transport.aio.AioScheduler`).  The engine only sees this
interface.
"""

from __future__ import annotations

from typing import Callable, Protocol

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
