"""Transport helpers shared by the bindings.

Besides address parsing and the loopback binding, this module implements
the resilient send path every transport shares
(:class:`ResilientTransport`): bounded retry with exponential backoff and
jitter, a per-destination circuit breaker, and structured
:class:`SendOutcome` callbacks that replace silent error counters.  The
HTTP and simulator bindings subclass it and only supply the single-attempt
``_send_once`` plus a timer (``_defer``); the orchestration -- when to
retry, when to stop trying a peer, what to report -- lives here once.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.simnet.metrics import HealthStats


def split_address(address: str) -> tuple:
    """Split ``scheme://authority/path`` into ``(scheme, authority, path)``.

    Raises:
        ValueError: if the address has no ``://``.
    """
    scheme, sep, rest = address.partition("://")
    if not sep:
        raise ValueError(f"not an absolute address: {address!r}")
    authority, slash, path = rest.partition("/")
    return scheme, authority, ("/" + path if slash else "")


class SendError(OSError):
    """A send attempt failed for a known, named reason.

    Subclasses :class:`OSError` so transport code that already catches
    socket-level errors treats injected/simulated failures uniformly.

    ``retry_after`` (seconds) is set when the *receiver* explicitly asked
    the sender to back off -- an HTTP ``429`` with a ``Retry-After``
    header, or an :class:`~repro.core.overload.OverloadError` surfaced
    through a binding.  The resilient send path treats such failures as
    backpressure, not peer failure: the breaker is left alone and the
    server-specified delay replaces exponential backoff.
    """

    def __init__(
        self,
        reason: str,
        destination: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"send failed ({reason})"
                         + (f" to {destination}" if destination else ""))
        self.reason = reason
        self.destination = destination
        self.retry_after = retry_after


def parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Parse a ``Retry-After`` header value to seconds (``None`` if absent
    or unusable).  Only the delta-seconds form is supported -- both edges
    in this repo emit decimal seconds, never HTTP-dates."""
    if not value:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, seconds)


@dataclass(frozen=True)
class SendOutcome:
    """Structured result of one logical send (including its retries).

    Attributes:
        destination: the address the send targeted.
        ok: whether any attempt succeeded.
        error: short failure tag -- the exception class name, a
            :class:`SendError` reason, or ``"circuit-open"`` when the
            breaker refused the send locally.
        attempts: attempts actually made (0 when the breaker refused).
        exception: the terminal exception, when one was raised.
    """

    destination: str
    ok: bool
    error: Optional[str] = None
    attempts: int = 1
    exception: Optional[BaseException] = None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``max_retries == 0`` (the default) disables retrying entirely, which
    keeps plain transports exactly fire-and-forget.
    """

    max_retries: int = 0
    backoff: float = 0.05
    multiplier: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries!r}")
        if self.backoff <= 0:
            raise ValueError(f"backoff must be positive: {self.backoff!r}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier!r}")
        if self.backoff_cap < self.backoff:
            raise ValueError(
                f"backoff_cap ({self.backoff_cap}) must be >= backoff "
                f"({self.backoff})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter!r}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retrying after failed attempt number ``attempt``
        (1-based): ``backoff * multiplier**(attempt-1)`` capped at
        ``backoff_cap``, plus up to ``jitter`` of itself uniformly."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based: {attempt!r}")
        base = min(self.backoff_cap, self.backoff * self.multiplier ** (attempt - 1))
        if self.jitter > 0.0:
            base += rng.uniform(0.0, self.jitter * base)
        return base

    def schedule(self, rng: Optional[random.Random] = None) -> List[float]:
        """The full retry-delay schedule (one entry per allowed retry).

        With ``rng=None`` the schedule is jitter-free -- the deterministic
        skeleton tests assert against.
        """
        if rng is None:
            bare = dataclasses.replace(self, jitter=0.0)
            rng = random.Random(0)
            return [bare.delay(n, rng) for n in range(1, self.max_retries + 1)]
        return [self.delay(n, rng) for n in range(1, self.max_retries + 1)]


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-destination circuit-breaker configuration.

    Attributes:
        failure_threshold: consecutive failed attempts (``K``) that open
            the breaker.
        reset_timeout: seconds an open breaker waits before admitting one
            half-open probe.
    """

    failure_threshold: int = 3
    reset_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1: {self.failure_threshold!r}"
            )
        if self.reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be positive: {self.reset_timeout!r}"
            )


class CircuitBreaker:
    """Classic three-state breaker for one destination.

    CLOSED counts consecutive failures; at ``failure_threshold`` it OPENs
    and refuses sends.  After ``reset_timeout`` one probe is admitted
    (HALF_OPEN); its success closes the breaker, its failure re-opens it
    and re-arms the timer.  State transitions are recorded in the owning
    transport's :class:`~repro.simnet.metrics.HealthStats` group.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self, policy: BreakerPolicy, stats: Optional[HealthStats] = None
    ) -> None:
        self.policy = policy
        if stats is None:
            from repro.obs.hub import default_hub

            stats = default_hub().health
        self.stats = stats
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None

    def allow(self, now: float) -> bool:
        """Whether a send may proceed right now (may admit the probe)."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self.opened_at is not None and now - self.opened_at >= self.policy.reset_timeout:
                self.state = self.HALF_OPEN
                self.stats.breaker_probes += 1
                return True
            return False
        # HALF_OPEN: exactly one probe in flight; refuse the rest.
        return False

    def record_success(self) -> None:
        """A send (or the half-open probe) succeeded."""
        if self.state != self.CLOSED:
            self.stats.breaker_closed += 1
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        """A send attempt failed; may trip the breaker."""
        if self.state == self.HALF_OPEN:
            # The probe failed: back to OPEN, timer re-armed.
            self.state = self.OPEN
            self.opened_at = now
            return
        self.consecutive_failures += 1
        if (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.state = self.OPEN
            self.opened_at = now
            self.stats.breaker_opened += 1


FaultHook = Callable[[str], Optional[str]]
OutcomeListener = Callable[[SendOutcome], None]


class ResilientTransport:
    """Shared resilient send path: breaker gate, bounded retry, outcomes.

    Subclasses implement :meth:`_send_once` (one attempt, raising on
    failure) and usually :meth:`_defer` (how to wait before a retry --
    simulator timer, worker-thread sleep...).  The default configuration
    (no retries, no breaker, no listeners) makes :meth:`send` behave
    exactly like a bare fire-and-forget transport, so resilience is
    strictly opt-in.

    Breaker state is keyed by the destination's base address
    (``scheme://authority``): all services of one node share one breaker,
    matching how a real host fails.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        rng: Optional[random.Random] = None,
        stats: Optional[HealthStats] = None,
    ) -> None:
        self._retry = retry if retry is not None else RetryPolicy()
        self._breaker_policy = breaker
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._outcome_listeners: List[OutcomeListener] = []
        self._fault_hook: Optional[FaultHook] = None
        self._clock = clock if clock is not None else time.monotonic
        # Drawn only on a retry: resolved then (see ``_retry_rng``).
        self._resilience_rng = rng
        self._breaker_lock = threading.Lock()
        from repro.obs.hub import default_hub

        if stats is None:
            stats = default_hub().health
        self._health_stats = stats
        # Retry-After honors are backpressure accounting, not peer
        # health; they land on the process-wide overload group.
        self._overload_stats = default_hub().overload

    # -- configuration ------------------------------------------------------

    def configure_resilience(
        self,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
    ) -> None:
        """(Re)configure retry/breaker policies after construction.

        Changing the breaker policy resets all per-destination state.
        """
        if retry is not None:
            self._retry = retry
        if breaker is not None:
            with self._breaker_lock:
                self._breaker_policy = breaker
                self._breakers.clear()

    def add_outcome_listener(self, listener: OutcomeListener) -> None:
        """Register a callback invoked with every :class:`SendOutcome`."""
        self._outcome_listeners.append(listener)

    def inject_fault(self, hook: Optional[FaultHook]) -> None:
        """Install (or clear, with ``None``) a fault-injection hook.

        The hook sees each attempt's destination and returns a failure
        reason to make the attempt fail, or ``None`` to let it through --
        how :class:`~repro.simnet.faults.FaultPlan` makes sends flaky.
        """
        self._fault_hook = hook

    def reset(self) -> None:
        """Drop all per-destination breaker state (a restarted process has
        no memory of which destinations were failing)."""
        with self._breaker_lock:
            self._breakers.clear()

    # -- breaker access -----------------------------------------------------

    @staticmethod
    def breaker_key(address: str) -> str:
        """Normalize an address to its breaker key (base address)."""
        try:
            scheme, authority, _ = split_address(address)
        except ValueError:
            return address
        return f"{scheme}://{authority}"

    def breaker_for(self, address: str) -> Optional[CircuitBreaker]:
        """The destination's breaker (created on demand; None if disabled)."""
        if self._breaker_policy is None:
            return None
        key = self.breaker_key(address)
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    self._breaker_policy, stats=self._health_stats
                )
                self._breakers[key] = breaker
            return breaker

    # -- the resilient send path --------------------------------------------

    def send(self, address: str, data: bytes) -> None:
        """Send through the breaker gate, retrying failures with backoff."""
        self._start_send(address, data)

    def _start_send(self, address: str, data: bytes) -> None:
        breaker = self.breaker_for(address)
        if breaker is not None:
            with self._breaker_lock:
                allowed = breaker.allow(self._clock())
            if not allowed:
                self._health_stats.sends_suppressed += 1
                self._emit(
                    SendOutcome(address, ok=False, error="circuit-open", attempts=0)
                )
                return
        self._attempt(address, data, attempt=1)

    def _attempt(self, address: str, data: bytes, attempt: int) -> None:
        try:
            injected = self._fault_hook(address) if self._fault_hook else None
            if injected is not None:
                raise SendError(injected, address)
            self._send_once(address, data)
        except (TypeError, ValueError):
            raise  # misuse (bad address/payload), not a transient failure
        except Exception as exc:  # noqa: BLE001 - every failure is an outcome
            self._attempt_failed(address, data, attempt, exc)
        else:
            self._attempt_succeeded(address, attempt)

    def _attempt_succeeded(self, address: str, attempt: int) -> None:
        breaker = self.breaker_for(address)
        if breaker is not None:
            with self._breaker_lock:
                breaker.record_success()
        self._emit(SendOutcome(address, ok=True, attempts=attempt))

    def _attempt_failed(
        self, address: str, data: bytes, attempt: int, exc: BaseException
    ) -> None:
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            # Explicit backpressure from the receiver (HTTP 429 / an
            # overload rejection).  The peer is alive and answering --
            # feeding this into the breaker would amputate a healthy
            # destination exactly when it asked for patience, and it is
            # not a send failure for the health/controller signals
            # either.  Honor the server-specified delay instead of the
            # exponential schedule.
            if attempt <= self._retry.max_retries:
                self._overload_stats.retry_after_honored += 1
                self._health_stats.retries += 1
                self._defer(
                    max(0.0, retry_after),
                    lambda: self._attempt(address, data, attempt + 1),
                )
                return
            error = exc.reason if isinstance(exc, SendError) else type(exc).__name__
            self._emit(
                SendOutcome(
                    address, ok=False, error=error,
                    attempts=attempt, exception=exc,
                )
            )
            return
        self._health_stats.send_failures += 1
        breaker = self.breaker_for(address)
        opened = False
        if breaker is not None:
            with self._breaker_lock:
                breaker.record_failure(self._clock())
                opened = breaker.state != CircuitBreaker.CLOSED
        if attempt <= self._retry.max_retries and not opened:
            self._health_stats.retries += 1
            delay = self._retry.delay(attempt, self._retry_rng())
            self._defer(
                delay, lambda: self._attempt(address, data, attempt + 1)
            )
            return
        error = exc.reason if isinstance(exc, SendError) else type(exc).__name__
        self._emit(
            SendOutcome(address, ok=False, error=error, attempts=attempt, exception=exc)
        )

    def _emit(self, outcome: SendOutcome) -> None:
        for listener in self._outcome_listeners:
            listener(outcome)

    # -- subclass hooks -----------------------------------------------------

    def _retry_rng(self) -> random.Random:
        """The backoff-jitter stream; without an ``rng`` an unseeded one,
        made on the first retry."""
        if self._resilience_rng is None:
            self._resilience_rng = random.Random()
        return self._resilience_rng

    def _send_once(self, address: str, data: bytes) -> None:
        """One delivery attempt; raise on failure."""
        raise NotImplementedError

    def _defer(self, delay: float, callback: Callable[[], None]) -> None:
        """Wait ``delay`` seconds, then run ``callback`` (retry path).

        The default retries immediately; transports with a real notion of
        time (simulator timers, worker threads) override this.
        """
        callback()


class LoopbackTransport(ResilientTransport):
    """Zero-latency in-process transport for unit tests.

    Runtimes register under their base address; ``send`` synchronously
    invokes the destination runtime's ``receive``.  Unknown destinations
    are counted and dropped (datagram semantics, like the simulator) --
    and reported through the resilient path, so breaker/outcome tests can
    run without a network.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        rng: Optional[random.Random] = None,
        stats: Optional[HealthStats] = None,
    ) -> None:
        super().__init__(
            retry=retry, breaker=breaker, clock=clock, rng=rng, stats=stats
        )
        self._receivers: Dict[str, object] = {}
        self._pending = None
        self.dropped = 0
        self.delivered = 0

    def register(self, runtime) -> None:
        """Register a :class:`~repro.soap.runtime.SoapRuntime`."""
        self._receivers[runtime.base_address] = runtime

    def unregister(self, base_address: str) -> None:
        """Remove a runtime (simulating its node going away)."""
        self._receivers.pop(base_address, None)

    def send(self, address: str, data: bytes) -> None:
        """Send through the resilient path, then deliver in-process.

        Delivery runs *after* the send outcome is recorded, so a receiver
        that raises (a genuine application bug) propagates to the caller
        instead of masquerading as a transport failure.
        """
        super().send(address, data)
        pending = self._pending
        self._pending = None
        if pending is not None:
            runtime, payload = pending
            self.delivered += 1
            runtime.receive(payload, source=None)

    def _send_once(self, address: str, data: bytes) -> None:
        """Resolve the registered runtime (the 'wire' part), else fail."""
        scheme, authority, _ = split_address(address)
        base = f"{scheme}://{authority}"
        runtime = self._receivers.get(base)
        if runtime is None:
            self.dropped += 1
            raise SendError("unknown-destination", address)
        self._pending = (runtime, data)
