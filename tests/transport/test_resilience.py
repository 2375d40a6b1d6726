"""The shared resilient send path: retries, breakers, outcomes."""

import random
import threading

import pytest

from repro.obs.hub import default_hub
from repro.transport.base import (
    BreakerPolicy,
    CircuitBreaker,
    ResilientTransport,
    RetryPolicy,
    SendError,
    SendOutcome,
)

# Reset around every test by the shared autouse fixture in conftest.py.
HEALTH_STATS = default_hub().health


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FlakyTransport(ResilientTransport):
    """Fails the first ``fail_first`` attempts per destination."""

    def __init__(self, fail_first=0, **kwargs):
        super().__init__(**kwargs)
        self.fail_first = fail_first
        self.attempts = []
        self.deferred_delays = []

    def _send_once(self, address, data):
        self.attempts.append(address)
        if len(self.attempts) <= self.fail_first:
            raise SendError("injected", address)

    def _defer(self, delay, callback):
        self.deferred_delays.append(delay)
        callback()


# -- RetryPolicy -----------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_is_deterministic_without_rng(self):
        policy = RetryPolicy(max_retries=4, backoff=0.1, multiplier=2.0,
                             backoff_cap=0.5, jitter=0.5)
        assert policy.schedule() == [0.1, 0.2, 0.4, 0.5]
        assert policy.schedule() == policy.schedule()

    def test_delay_jitter_is_bounded(self):
        policy = RetryPolicy(max_retries=3, backoff=0.1, multiplier=2.0,
                             backoff_cap=10.0, jitter=0.5)
        rng = random.Random(7)
        for attempt in (1, 2, 3):
            base = 0.1 * 2.0 ** (attempt - 1)
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert base <= delay <= base * 1.5

    def test_cap_bounds_the_backoff(self):
        policy = RetryPolicy(max_retries=10, backoff=1.0, multiplier=4.0,
                             backoff_cap=3.0, jitter=0.0)
        assert policy.schedule()[-1] == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


# -- CircuitBreaker --------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3,
                                               reset_timeout=5.0))
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(1.0)

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2,
                                               reset_timeout=5.0))
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_after_reset_timeout(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                               reset_timeout=5.0))
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(4.9)
        assert breaker.allow(5.1)  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow(5.2)  # only one probe at a time

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                               reset_timeout=1.0))
        breaker.record_failure(0.0)
        assert breaker.allow(2.0)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(2.1)

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                               reset_timeout=1.0))
        breaker.record_failure(0.0)
        assert breaker.allow(2.0)
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(2.5)
        assert breaker.allow(3.1)  # re-armed from the probe failure time

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(reset_timeout=0.0)


# -- ResilientTransport ----------------------------------------------------


class TestResilientTransport:
    def test_success_emits_ok_outcome(self):
        transport = FlakyTransport()
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        transport.send("sim://a/x", b"data")
        assert [o.ok for o in outcomes] == [True]
        assert outcomes[0].destination == "sim://a/x"
        assert outcomes[0].attempts == 1

    def test_retries_then_succeeds(self):
        transport = FlakyTransport(
            fail_first=2, retry=RetryPolicy(max_retries=3, backoff=0.1,
                                            jitter=0.0),
        )
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        transport.send("sim://a/x", b"data")
        assert len(transport.attempts) == 3
        assert transport.deferred_delays == [0.1, 0.2]
        assert [o.ok for o in outcomes] == [True]
        assert outcomes[0].attempts == 3
        assert HEALTH_STATS.retries.value == 2

    def test_exhausted_retries_emit_failure_with_reason(self):
        transport = FlakyTransport(
            fail_first=99, retry=RetryPolicy(max_retries=1, jitter=0.0),
        )
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        transport.send("sim://a/x", b"data")
        assert len(transport.attempts) == 2
        assert [o.ok for o in outcomes] == [False]
        assert outcomes[0].error == "injected"
        assert outcomes[0].attempts == 2

    def test_breaker_suppresses_sends_within_threshold_failures(self):
        clock = FakeClock()
        transport = FlakyTransport(
            fail_first=99, clock=clock,
            breaker=BreakerPolicy(failure_threshold=3, reset_timeout=5.0),
        )
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        for _ in range(5):
            transport.send("sim://dead/x", b"data")
        # Exactly K attempts hit the wire; the rest were suppressed.
        assert len(transport.attempts) == 3
        suppressed = [o for o in outcomes if o.error == "circuit-open"]
        assert len(suppressed) == 2
        assert all(o.attempts == 0 for o in suppressed)
        assert HEALTH_STATS.sends_suppressed.value == 2
        assert HEALTH_STATS.breaker_opened.value == 1

    def test_breaker_readmits_after_recovery(self):
        clock = FakeClock()
        transport = FlakyTransport(
            fail_first=1, clock=clock,
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=5.0),
        )
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        transport.send("sim://a/x", b"data")  # fails; breaker opens
        transport.send("sim://a/x", b"data")  # suppressed
        assert len(transport.attempts) == 1
        clock.advance(6.0)
        transport.send("sim://a/x", b"data")  # half-open probe succeeds
        assert len(transport.attempts) == 2
        assert outcomes[-1].ok
        transport.send("sim://a/x", b"data")  # breaker closed again
        assert len(transport.attempts) == 3
        assert HEALTH_STATS.breaker_probes.value == 1
        assert HEALTH_STATS.breaker_closed.value == 1

    def test_breakers_are_per_destination_base(self):
        clock = FakeClock()
        transport = FlakyTransport(
            fail_first=1, clock=clock,
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=5.0),
        )
        transport.send("sim://a/x", b"data")  # fails; opens sim://a
        transport.send("sim://a/y", b"data")  # same node: suppressed
        transport.send("sim://b/x", b"data")  # other node: goes through
        assert transport.attempts == ["sim://a/x", "sim://b/x"]

    def test_fault_hook_injects_failures(self):
        transport = FlakyTransport()
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        transport.inject_fault(lambda address: "flaky")
        transport.send("sim://a/x", b"data")
        assert [o.error for o in outcomes] == ["flaky"]
        transport.inject_fault(None)
        transport.send("sim://a/x", b"data")
        assert outcomes[-1].ok

    def test_configure_resilience_after_construction(self):
        transport = FlakyTransport(fail_first=99)
        transport.send("sim://a/x", b"data")
        assert len(transport.attempts) == 1  # no retries by default
        transport.configure_resilience(
            retry=RetryPolicy(max_retries=2, jitter=0.0)
        )
        transport.send("sim://a/x", b"data")
        assert len(transport.attempts) == 4  # 1 + (1 initial + 2 retries)

    def test_no_retry_while_breaker_open(self):
        clock = FakeClock()
        transport = FlakyTransport(
            fail_first=99, clock=clock,
            retry=RetryPolicy(max_retries=5, jitter=0.0),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=5.0),
        )
        transport.send("sim://a/x", b"data")
        # The second attempt trips the breaker; retries stop there instead
        # of hammering a destination already judged dead.
        assert len(transport.attempts) == 2


# -- half-open concurrency --------------------------------------------------


class BlockingProbeTransport(ResilientTransport):
    """Attempts block on an event, so a probe can be held in flight while
    other threads race into ``send()``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.release = threading.Event()
        self.fail = True
        self.attempts = []
        self._attempt_lock = threading.Lock()

    def _send_once(self, address, data):
        with self._attempt_lock:
            self.attempts.append(address)
        if not self.release.wait(timeout=5.0):
            raise AssertionError("probe was never released")
        if self.fail:
            raise SendError("refused", address)

    def _defer(self, delay, callback):
        callback()


class TestHalfOpenConcurrency:
    def test_half_open_admits_exactly_one_probe_under_concurrent_callers(self):
        """Many threads racing into ``send()`` at the reset timeout must
        produce exactly one wire probe; the rest are refused until the
        probe's verdict is in.  Several simultaneous probes would hammer
        a recovering destination with the burst it just failed under."""
        clock = FakeClock()
        transport = BlockingProbeTransport(
            retry=RetryPolicy(max_retries=0),
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=1.0),
            clock=clock,
        )
        outcomes = []
        outcomes_lock = threading.Lock()

        def listener(outcome):
            with outcomes_lock:
                outcomes.append(outcome)

        transport.add_outcome_listener(listener)
        address = "mem://peer/app"

        # Trip the breaker: one immediate failure at threshold 1.
        transport.release.set()
        transport.send(address, b"x")
        breaker = transport.breaker_for(address)
        assert breaker.state == CircuitBreaker.OPEN

        # Timeout elapses; 8 threads race in while the probe is held in
        # flight.
        clock.advance(1.5)
        transport.release.clear()
        transport.fail = False
        with outcomes_lock:
            outcomes.clear()
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait(timeout=5.0)
            transport.send(address, b"probe")

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        # The 7 losers are refused synchronously while the winner still
        # blocks inside _send_once.
        deadline = threading.Event()
        for _ in range(500):
            with outcomes_lock:
                if len(outcomes) == 7:
                    break
            deadline.wait(0.01)
        with outcomes_lock:
            assert len(outcomes) == 7
            assert all(o.error == "circuit-open" for o in outcomes)
        assert len(transport.attempts) == 2  # the trip + exactly one probe

        transport.release.set()
        for thread in threads:
            thread.join(timeout=5.0)

        # The probe succeeded: breaker closed, sends flow again.
        assert breaker.state == CircuitBreaker.CLOSED
        with outcomes_lock:
            assert sum(1 for o in outcomes if o.ok) == 1
        transport.send(address, b"after")
        assert len(transport.attempts) == 3


# -- Retry-After backpressure ------------------------------------------------


class RetryAfterTransport(ResilientTransport):
    """First ``rejections`` attempts answer a 429-style SendError."""

    def __init__(self, rejections, **kwargs):
        super().__init__(**kwargs)
        self.rejections = rejections
        self.attempts = 0
        self.delays = []

    def _send_once(self, address, data):
        self.attempts += 1
        if self.attempts <= self.rejections:
            raise SendError("http-429", address, retry_after=0.25)

    def _defer(self, delay, callback):
        self.delays.append(delay)
        callback()


class TestRetryAfterBackpressure:
    def test_retry_after_is_backpressure_not_failure(self):
        """A 429 must not advance the breaker nor count as a send
        failure, and the server-specified delay replaces the exponential
        schedule (docs/RESILIENCE.md, "Overload and backpressure")."""
        transport = RetryAfterTransport(
            rejections=2,
            retry=RetryPolicy(max_retries=3, backoff=17.0, backoff_cap=17.0,
                              jitter=0.0),
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=1.0),
        )
        failures_before = HEALTH_STATS.send_failures.value
        honored_before = default_hub().overload.retry_after_honored.value
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        address = "mem://busy/app"
        transport.send(address, b"x")

        assert transport.attempts == 3  # 2 rejections + the success
        assert transport.delays == [0.25, 0.25]  # server delay, not backoff
        assert outcomes[-1].ok
        assert HEALTH_STATS.send_failures.value == failures_before
        assert default_hub().overload.retry_after_honored.value == honored_before + 2
        breaker = transport.breaker_for(address)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0

    def test_retry_after_exhaustion_fails_without_breaker_damage(self):
        transport = RetryAfterTransport(
            rejections=99,
            retry=RetryPolicy(max_retries=1, jitter=0.0),
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=1.0),
        )
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        address = "mem://busy/app"
        transport.send(address, b"x")
        assert [o.ok for o in outcomes] == [False]
        assert outcomes[0].error == "http-429"
        # Even terminal 429 exhaustion never opens the breaker: the peer
        # answered every request.
        assert transport.breaker_for(address).state == CircuitBreaker.CLOSED
