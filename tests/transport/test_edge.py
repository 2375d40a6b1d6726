"""The shared node-edge helpers: idempotent ingest + admission control.

These are socket-independent contracts (the HTTP edge calls
:func:`ingest_response`), so they are tested here once against the pure
functions, without sockets.
"""

import pytest

from repro.core.overload import (
    ADMISSION_BURST,
    ADMISSION_RATE,
    RETRY_AFTER,
    TokenBucket,
)
from repro.simnet.metrics import OverloadStats, WireStats
from repro.transport.base import parse_retry_after
from repro.transport.edge import (
    IDEMPOTENCY_KEY_HEADER,
    RETRY_AFTER_HEADER,
    EdgeAdmission,
    IdempotencyIndex,
    ingest_response,
)


class PinnedClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# -- IdempotencyIndex capacity eviction --------------------------------------


class TestIdempotencyEviction:
    def test_evicted_key_replay_is_readmitted_and_counted(self):
        """Past capacity the index forgets oldest-first; a replay of an
        evicted key is indistinguishable from a fresh request and must be
        processed again (at-least-once), landing in the wire stats as a
        fresh ingest, not a replay."""
        index = IdempotencyIndex(capacity=2)
        wire = WireStats()

        def post(key):
            return ingest_response(
                index, {IDEMPOTENCY_KEY_HEADER: key}, b"<x/>", wire
            )

        status, headers, process = post("a")
        assert (status, process) == (202, True)
        post("b")
        post("c")  # evicts "a"
        assert len(index) == 2

        # A replay of the *retained* key is caught...
        status, headers, process = post("c")
        assert (status, process) == (200, False)
        assert headers["Idempotent-Replay"] == "true"
        assert wire.idempotent_replays == 1
        assert index.replays == 1

        # ...but the evicted key is re-admitted as fresh and re-counted.
        status, headers, process = post("a")
        assert (status, process) == (202, True)
        assert "Idempotent-Replay" not in headers
        assert wire.idempotent_replays == 1  # unchanged: not a replay hit

    def test_replay_refreshes_lru_position(self):
        index = IdempotencyIndex(capacity=2)
        wire = WireStats()

        def post(key):
            return ingest_response(
                index, {IDEMPOTENCY_KEY_HEADER: key}, b"<x/>", wire
            )

        post("a")
        post("b")
        post("a")  # replay: "a" becomes most-recent
        post("c")  # evicts "b", not "a"
        assert post("a")[0] == 200
        assert post("b")[0] == 202


# -- EdgeAdmission -----------------------------------------------------------


class TestEdgeAdmission:
    def test_burst_admits_then_429_with_retry_after(self):
        clock = PinnedClock()
        admission = EdgeAdmission(rate=2.0, burst=3.0, retry_after=0.1,
                                  clock=clock)
        assert all(admission.admit()[0] for _ in range(3))
        ok, retry_after = admission.admit()
        assert not ok
        assert retry_after == pytest.approx(0.5)  # 1 token / 2 per s
        assert (admission.admitted, admission.rejected) == (3, 1)
        clock.advance(0.5)
        assert admission.admit()[0]

    def test_retry_after_floor_applies(self):
        clock = PinnedClock()
        admission = EdgeAdmission(rate=1000.0, burst=1.0, retry_after=2.5,
                                  clock=clock)
        assert admission.admit()[0]
        ok, retry_after = admission.admit()
        assert not ok
        assert retry_after == 2.5  # bucket predicts 1ms; the floor wins

    def test_defaults_are_the_overload_constants(self):
        admission = EdgeAdmission(clock=PinnedClock())
        assert admission._bucket.rate == ADMISSION_RATE
        assert admission._bucket.burst == ADMISSION_BURST
        assert admission.retry_after_floor == RETRY_AFTER

    def test_rejection_runs_before_idempotency(self):
        """A 429d request must not be remembered: its honored retry would
        otherwise be answered as a replay and the payload silently lost."""
        clock = PinnedClock()
        admission = EdgeAdmission(rate=1.0, burst=1.0, retry_after=0.5,
                                  clock=clock)
        index = IdempotencyIndex(capacity=16)
        wire = WireStats()
        overload = OverloadStats()

        def post(key):
            return ingest_response(
                index, {IDEMPOTENCY_KEY_HEADER: key}, b"<x/>", wire,
                admission=admission, overload_stats=overload,
            )

        assert post("k1")[0] == 202
        status, headers, process = post("k2")  # bucket empty
        assert (status, process) == (429, False)
        assert float(headers[RETRY_AFTER_HEADER]) >= 0.5
        assert overload.edge_rejected == 1
        assert len(index) == 1  # the rejected key was NOT remembered

        clock.advance(1.0)  # the client honors Retry-After
        status, headers, process = post("k2")
        assert (status, process) == (202, True), (
            "the honored retry was misread as a replay"
        )
        assert wire.idempotent_replays == 0


# -- parse_retry_after -------------------------------------------------------


class TestParseRetryAfter:
    @pytest.mark.parametrize("value,expected", [
        ("0.5", 0.5),
        ("3", 3.0),
        ("0", 0.0),
        ("-2", 0.0),       # clamped: a negative wait is "now"
        (None, None),
        ("", None),
        ("Wed, 21 Oct 2015 07:28:00 GMT", None),  # http-date unsupported
    ])
    def test_parsing(self, value, expected):
        assert parse_retry_after(value) == expected


# -- TokenBucket -------------------------------------------------------------


class TestTokenBucket:
    def test_deterministic_refill(self):
        bucket = TokenBucket(rate=2.0, burst=4.0)
        now = 0.0
        assert all(bucket.admit(now) for _ in range(4))
        assert not bucket.admit(now)
        assert bucket.retry_after(now) == pytest.approx(0.5)
        assert bucket.admit(now + 0.5)

    def test_burst_is_the_ceiling(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        assert bucket.admit(0.0) and bucket.admit(0.0)
        # A long idle period refills to burst, not beyond.
        assert bucket.admit(1000.0) and bucket.admit(1000.0)
        assert not bucket.admit(1000.0)

    def test_sleeping_exactly_retry_after_admits(self):
        """Float-rounding regression: waking after exactly the advertised
        retry_after must admit.  Without the epsilon the balance lands at
        ``1 - 1e-16`` tokens, the next retry_after underflows to ~1e-18,
        and a discrete-event caller live-locks (``now + delay == now``)."""
        bucket = TokenBucket(rate=30.0, burst=1.0)
        now = 17.3
        assert bucket.admit(now)
        for _ in range(1000):
            wait = bucket.retry_after(now)
            assert wait > 0
            now += wait
            assert bucket.admit(now), f"live-lock at t={now}"

    def test_validation(self):
        from repro.core.params import ParamError

        with pytest.raises(ParamError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ParamError):
            TokenBucket(rate=1.0, burst=0.5)
