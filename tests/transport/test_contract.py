"""The ResilientTransport contract, exercised across every binding.

One parametrized harness runs the same assertions over the loopback
transport and both asyncio bindings (UDP datagrams, pipelined keep-alive
HTTP): envelopes are delivered, a request is answered, many senders and
many concurrent requests all arrive, every logical send emits exactly one
structured SendOutcome, injected faults are retried per policy, repeated
failures open the per-destination circuit breaker, and a half-open probe
closes it again.

Failures are driven through ``inject_fault`` -- not dead ports -- so the
scenarios are identical for every binding, including UDP (where a real
send to a dead port succeeds at the socket level).  What only HTTP can
observe (dead ports, a stopped peer, idempotent replay) lives in
``test_aio.py``.
"""

import time

import pytest

from repro.soap.runtime import SoapRuntime
from repro.soap.service import Service, operation
from repro.transport.aio import AsyncHttpNode, AsyncUdpNode, shared_loop
from repro.transport.base import (
    BreakerPolicy,
    CircuitBreaker,
    LoopbackTransport,
    RetryPolicy,
)

ACTION = "urn:t/Take"
ECHO = "urn:t/Echo"

FAST_RETRY = RetryPolicy(max_retries=3, backoff=0.01, backoff_cap=0.02, jitter=0.0)
TRIP_FAST = BreakerPolicy(failure_threshold=2, reset_timeout=0.15)


class Sink(Service):
    def __init__(self):
        super().__init__()
        self.values = []

    @operation(ACTION)
    def take(self, context, value):
        self.values.append(value)
        return None

    @operation(ECHO)
    def echo(self, context, value):
        return {"echo": value}


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class Harness:
    """One binding under test: a sink service plus a sender runtime.

    Every runtime comes from :meth:`runtime`, so each can both send and
    receive (replies need a return address); ``transport`` is the
    sender's.
    """

    def __init__(self):
        self._closers = []
        self.sink = Sink()
        receiver = self.runtime()
        receiver.add_service("/svc", self.sink)
        self.address = receiver.address_of("/svc")
        self.sender = self.runtime()
        self.transport = self.sender.transport

    def runtime(self) -> SoapRuntime:
        raise NotImplementedError

    def close(self):
        for close in self._closers:
            close()


class LoopbackHarness(Harness):
    def __init__(self):
        self._loopback = LoopbackTransport()
        self._count = 0
        super().__init__()

    def runtime(self):
        self._count += 1
        runtime = SoapRuntime(f"test://n{self._count}", self._loopback)
        self._loopback.register(runtime)
        return runtime


class AioHarness(Harness):
    node_class = None

    def runtime(self):
        node = self.node_class(loop=shared_loop())
        node.start()
        self._closers.append(node.stop)
        return node.runtime


class AioUdpHarness(AioHarness):
    node_class = AsyncUdpNode


class AioHttpHarness(AioHarness):
    node_class = AsyncHttpNode


HARNESSES = {
    "loopback": LoopbackHarness,
    "aio-udp": AioUdpHarness,
    "aio-http": AioHttpHarness,
}


@pytest.fixture(params=sorted(HARNESSES))
def harness(request):
    built = HARNESSES[request.param]()
    yield built
    built.close()


def test_envelope_is_delivered(harness):
    harness.sender.send(harness.address, ACTION, value={"n": 7})
    assert wait_for(lambda: harness.sink.values == [{"n": 7}])


def test_request_is_answered(harness):
    replies = []
    harness.sender.send(
        harness.address, ECHO, value={"n": 7},
        on_reply=lambda context, value: replies.append(value),
    )
    assert wait_for(lambda: replies == [{"echo": {"n": 7}}])


def test_one_way_sends_from_many_senders_all_arrive(harness):
    senders = [harness.runtime() for _ in range(4)]
    total = 80
    for index in range(total):
        senders[index % len(senders)].send(harness.address, ACTION, value=index)
    assert wait_for(lambda: len(harness.sink.values) == total), (
        f"only {len(harness.sink.values)}/{total} arrived"
    )
    assert sorted(harness.sink.values) == list(range(total))


def test_concurrent_requests_are_all_answered(harness):
    replies = []
    total = 40
    for index in range(total):
        harness.sender.send(
            harness.address, ECHO, value=index,
            on_reply=lambda context, value: replies.append(value),
        )
    assert wait_for(lambda: len(replies) == total)
    assert sorted(reply["echo"] for reply in replies) == list(range(total))


def test_success_emits_single_ok_outcome(harness):
    outcomes = []
    harness.transport.add_outcome_listener(outcomes.append)
    harness.sender.send(harness.address, ACTION, value=1)
    assert wait_for(lambda: len(outcomes) == 1)
    assert outcomes[0].ok
    assert outcomes[0].attempts == 1
    assert outcomes[0].destination == harness.address
    time.sleep(0.02)
    assert len(outcomes) == 1  # one logical send, one outcome


def test_injected_fault_is_a_structured_failure(harness):
    outcomes = []
    harness.transport.add_outcome_listener(outcomes.append)
    harness.transport.inject_fault(lambda address: "wire-cut")
    harness.transport.send(harness.address, b"<xml/>")
    assert wait_for(lambda: len(outcomes) == 1)
    assert not outcomes[0].ok
    assert outcomes[0].error == "wire-cut"
    assert outcomes[0].attempts == 1  # no retry policy: exactly one attempt


def test_transient_fault_is_retried_to_success(harness):
    harness.transport.configure_resilience(retry=FAST_RETRY)
    attempts = []
    harness.transport.inject_fault(
        lambda address: "flaky" if len(attempts) < 2 and attempts.append(0) is None
        else None
    )
    outcomes = []
    harness.transport.add_outcome_listener(outcomes.append)
    harness.sender.send(harness.address, ACTION, value="through")
    assert wait_for(lambda: len(outcomes) == 1)
    assert outcomes[0].ok
    assert outcomes[0].attempts == 3  # two injected failures, then success
    harness.transport.inject_fault(None)
    assert wait_for(lambda: harness.sink.values == ["through"])


def test_persistent_faults_open_the_breaker(harness):
    harness.transport.configure_resilience(breaker=TRIP_FAST)
    harness.transport.inject_fault(lambda address: "down")
    outcomes = []
    harness.transport.add_outcome_listener(outcomes.append)
    harness.transport.send(harness.address, b"<xml/>")
    harness.transport.send(harness.address, b"<xml/>")
    assert wait_for(lambda: len(outcomes) == 2)
    breaker = harness.transport.breaker_for(harness.address)
    assert breaker.state == CircuitBreaker.OPEN
    harness.transport.send(harness.address, b"<xml/>")
    assert wait_for(lambda: len(outcomes) == 3)
    assert outcomes[2].error == "circuit-open"
    assert outcomes[2].attempts == 0  # refused locally, nothing hit the wire


def test_half_open_probe_closes_the_breaker(harness):
    harness.transport.configure_resilience(breaker=TRIP_FAST)
    harness.transport.inject_fault(lambda address: "down")
    outcomes = []
    harness.transport.add_outcome_listener(outcomes.append)
    harness.transport.send(harness.address, b"<xml/>")
    harness.transport.send(harness.address, b"<xml/>")
    assert wait_for(lambda: len(outcomes) == 2)
    assert harness.transport.breaker_for(harness.address).state == CircuitBreaker.OPEN
    time.sleep(TRIP_FAST.reset_timeout + 0.05)
    harness.transport.inject_fault(None)  # the peer recovered
    harness.sender.send(harness.address, ACTION, value="probe")
    assert wait_for(lambda: len(outcomes) == 3)
    assert outcomes[2].ok
    assert (
        harness.transport.breaker_for(harness.address).state
        == CircuitBreaker.CLOSED
    )
    assert wait_for(lambda: harness.sink.values == ["probe"])


def test_schemeless_address_is_misuse(harness):
    with pytest.raises(ValueError):
        harness.transport.send("just/a/path", b"<xml/>")
