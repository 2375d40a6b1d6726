"""The event queue and the simulator main loop.

Events are kept in a binary heap as ``(time, sequence, event)`` tuples, so
the heap compares plain floats and ints in C.  The sequence number breaks
ties so that two events scheduled for the same instant fire in scheduling
order -- this is what makes runs deterministic -- and, being unique, it
settles every comparison before the event itself would be compared.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.simnet.clock import VirtualClock
from repro.simnet.rng import RngStreams


class Event:
    """A scheduled callback.

    The queue orders events by ``(time, seq)``; events themselves are never
    compared.  Identity hashing/equality (the default) is intentional:
    processes keep their pending timers in sets.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._note_cancel()

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"cancelled={self.cancelled!r})"
        )


class EventQueue:
    """A min-heap of :class:`Event` objects with stable FIFO tie-breaking.

    Cancelled events stay in the heap (lazy deletion) but a live counter is
    maintained on push/pop/cancel, so :meth:`__len__` is O(1) instead of a
    full heap scan per call.  When dead entries outnumber live ones the heap
    is compacted in place, so a long run that cancels many timers (churn,
    overload shedding) does not drag an ever-growing tail of tombstones
    through every subsequent push and pop.
    """

    #: Never compact below this many dead entries -- rebuilding a tiny heap
    #: costs more than carrying the tombstones.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def _note_cancel(self) -> None:
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead > self._live and dead >= self.COMPACT_MIN_DEAD:
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Safe at any point: ``(time, seq)`` is a unique total order, so the
        rebuilt heap pops live events in exactly the order the lazy-deletion
        heap would have.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)

    def push(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at ``time``; returns the cancellable event."""
        seq = next(self._counter)
        event = Event(time, seq, callback)
        event._queue = self
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Pop the earliest non-cancelled event.

        Raises:
            IndexError: if the queue is empty (after discarding cancellations).
        """
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                return event
        raise IndexError("pop from empty EventQueue")

    def pop_if_before(self, deadline: float) -> Optional[Event]:
        """Pop the earliest live event iff its time is ``<= deadline``.

        One heap traversal serves both the peek and the pop, unlike the
        ``peek_time()`` + ``pop()`` pair which walks past the same cancelled
        prefix twice.  This is the hot path of barrier stepping in the
        sharded simulator, where ``run_until`` is called once per window.

        Returns ``None`` (and leaves the event queued) when the queue is
        empty or the earliest event lies beyond ``deadline``.
        """
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if time > deadline:
                return None
            heapq.heappop(heap)
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` if empty."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class Simulator:
    """Drives the virtual clock through the event queue.

    The simulator owns the clock and the master RNG streams.  Simulated
    components schedule work with :meth:`call_at` / :meth:`call_after` and
    the run methods execute events in timestamp order.

    Example:
        >>> sim = Simulator(seed=1)
        >>> fired = []
        >>> _ = sim.call_after(2.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [2.0]
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.clock = VirtualClock(start_time)
        self.rng = RngStreams(seed)
        self._queue = EventQueue()
        self._events_executed = 0
        self._stopped = False

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def events_executed(self) -> int:
        """How many events have fired so far (cancelled ones excluded)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """How many events are still scheduled."""
        return len(self._queue)

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute time ``when``.

        Raises:
            ValueError: if ``when`` is in the simulated past.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when!r} < {self.now!r}")
        return self._queue.push(when, callback)

    def call_after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative: {delay!r}")
        return self._queue.push(self.now + delay, callback)

    def stop(self) -> None:
        """Request the current run loop to return after the current event."""
        self._stopped = True

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when the queue is empty."""
        try:
            event = self._queue.pop()
        except IndexError:
            return False
        self.clock.advance_to(event.time)
        self._events_executed += 1
        event.callback()
        return True

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, :meth:`stop` is called, or
        ``max_events`` events have fired."""
        self._stopped = False
        executed = 0
        while not self._stopped:
            if max_events is not None and executed >= max_events:
                return
            if not self.step():
                return
            executed += 1

    def run_until(self, deadline: float) -> None:
        """Run events with timestamps ``<= deadline``, then set the clock to
        ``deadline`` so callers can keep scheduling relative to it."""
        self._stopped = False
        queue = self._queue
        clock = self.clock
        while not self._stopped:
            event = queue.pop_if_before(deadline)
            if event is None:
                break
            clock.advance_to(event.time)
            self._events_executed += 1
            event.callback()
        if deadline > self.now:
            self.clock.advance_to(deadline)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now!r}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
