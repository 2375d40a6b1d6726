"""The asyncio bindings: versioned edge API, idempotent ingest, pooling.

The resilient-contract behaviour shared with the other bindings lives in
``test_contract.py``; this module covers what is specific to the asyncio
family -- the ``/v1`` URL space and its deprecation headers, idempotent
replay detection, connection reuse under pipelining, the UDP data path
(synchronous task-free sends on an owned socket, the bounded receive
sweep, socket lifetime, hostile datagrams), and a small live mesh end to
end.
"""

import asyncio
import json
import os
import socket
import threading
import time

import pytest

from repro.obs.hub import default_hub
from repro.soap.runtime import SoapRuntime
from repro.soap.service import Service, operation
from repro.transport.aio import (
    RECV_SWEEP_DATAGRAMS,
    AioHttpTransport,
    AioUdpTransport,
    AsyncHttpNode,
    AsyncUdpNode,
    run_on_loop,
    shared_loop,
)
from repro.transport.base import BreakerPolicy, RetryPolicy
from repro.transport.edge import IdempotencyIndex

ACTION = "urn:t/Take"


class Sink(Service):
    def __init__(self):
        super().__init__()
        self.values = []

    @operation(ACTION)
    def take(self, context, value):
        self.values.append(value)
        return None


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def node():
    served = AsyncHttpNode(loop=shared_loop())
    served.sink = Sink()
    served.runtime.add_service("/svc", served.sink)
    with served:
        yield served


@pytest.fixture
def client():
    transport = AioHttpTransport(loop=shared_loop())
    yield transport
    transport.close()


def fetch(client, url, headers=None):
    return run_on_loop(shared_loop(), client.get(url, headers=headers))


def post(client, url, body, headers=None):
    return run_on_loop(shared_loop(), client.post(url, body, headers=headers))


class TestVersionedEdge:
    def test_health(self, node, client):
        status, headers, body = fetch(client, f"{node.base_address}/v1/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["api"] == "v1"
        assert "/svc" in payload["services"]

    def test_metrics(self, node, client):
        status, headers, body = fetch(client, f"{node.base_address}/v1/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "deprecation" not in headers

    def test_legacy_metrics_answers_with_deprecation(self, node, client):
        status, headers, _ = fetch(client, f"{node.base_address}/metrics")
        assert status == 200
        assert headers["deprecation"] == "true"
        assert 'rel="successor-version"' in headers["link"]
        assert "/v1/metrics" in headers["link"]

    def test_unknown_path_is_404(self, node, client):
        status, _, _ = fetch(client, f"{node.base_address}/nope")
        assert status == 404

    def test_legacy_post_ingests_with_deprecation(self, node, client):
        status, headers, _ = post(client, f"{node.base_address}/gossip", b"<x/>")
        assert status == 202
        assert headers["deprecation"] == "true"


class TestIdempotentIngest:
    def test_replayed_post_answers_200_without_reprocessing(self, node, client):
        url = f"{node.base_address}/v1/gossip"
        keyed = {"Idempotency-Key": "pub-42"}
        before = node.hub.wire.idempotent_replays
        status, headers, _ = post(client, url, b"<x/>", headers=keyed)
        assert status == 202
        assert "idempotent-replay" not in headers
        status, headers, _ = post(client, url, b"<x/>", headers=keyed)
        assert status == 200
        assert headers["idempotent-replay"] == "true"
        assert node.hub.wire.idempotent_replays == before + 1

    def test_distinct_keys_are_both_processed(self, node, client):
        url = f"{node.base_address}/v1/gossip"
        for key in ("pub-a", "pub-b"):
            status, _, _ = post(
                client, url, b"<x/>", headers={"Idempotency-Key": key}
            )
            assert status == 202

    def test_keyless_unparseable_body_is_always_processed(self, node, client):
        url = f"{node.base_address}/v1/gossip"
        for _ in range(2):
            status, _, _ = post(client, url, b"not-an-envelope")
            assert status == 202

    def test_index_is_bounded(self):
        index = IdempotencyIndex(capacity=2)
        assert not index.check_and_remember("a")
        assert not index.check_and_remember("b")
        assert not index.check_and_remember("c")  # evicts "a"
        assert not index.check_and_remember("a")  # forgotten: processed again
        assert index.check_and_remember("a")


class TestPipelining:
    def test_many_posts_share_pooled_connections(self, node, client):
        url = f"{node.base_address}/v1/gossip"

        async def burst():
            await asyncio.gather(*(
                client.post(url, b"<x/>", headers={"Idempotency-Key": f"k{n}"})
                for n in range(24)
            ))

        run_on_loop(shared_loop(), burst())
        stats = client.pool_stats()[f"{node.host}:{node.port}"]
        assert stats["requests"] == 24
        assert stats["connects"] <= client.pool_size  # reuse, not 24 sockets


class Capture:
    """A transport that keeps the bytes: builds wire frames for raw sockets."""

    def __init__(self):
        self.frames = []

    def send(self, address, data):
        self.frames.append(data)


def frame_for(address, value):
    capture = Capture()
    SoapRuntime("udp://raw-sender", capture).send(address, ACTION, value=value)
    return capture.frames[0]


class StubSocket:
    """Stands in for the transport's socket; ``sendto`` raises ``error``."""

    def __init__(self, error=None):
        self.error = error
        self.sent = []

    def sendto(self, data, target):
        if self.error is not None:
            raise self.error
        self.sent.append((data, target))

    def close(self):
        pass


@pytest.fixture
def udp_node():
    served = AsyncUdpNode(loop=shared_loop())
    served.sink = Sink()
    served.runtime.add_service("/svc", served.sink)
    with served:
        yield served


def on_loop(function):
    """Run ``function()`` as a loop callback and return its result."""

    async def call():
        return function()

    return run_on_loop(shared_loop(), call())


class TestUdp:
    """A datagram send is one synchronous pass: no task, no coroutine."""

    def test_on_loop_sends_finish_inside_send_without_tasks(self, udp_node):
        transport = AioUdpTransport(loop=shared_loop())
        sender = SoapRuntime("udp://sender", transport)
        outcomes = []
        transport.add_outcome_listener(outcomes.append)

        def burst():
            tasks = len(asyncio.all_tasks())
            for n in range(50):
                sender.send(f"{udp_node.base_address}/svc", ACTION, value=n)
                # The outcome fired before send() returned.
                assert len(outcomes) == n + 1
                assert transport.in_flight == 0
            return len(asyncio.all_tasks()) - tasks

        try:
            assert on_loop(burst) == 0
            assert all(o.ok and o.attempts == 1 for o in outcomes)
            assert wait_for(lambda: len(udp_node.sink.values) == 50)
            assert sorted(udp_node.sink.values) == list(range(50))
        finally:
            transport.close()

    def test_open_breaker_never_touches_the_socket(self):
        stub = StubSocket()
        transport = AioUdpTransport(
            loop=shared_loop(), sock=stub,
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=60.0),
        )
        outcomes = []
        transport.add_outcome_listener(outcomes.append)

        def scenario():
            transport.inject_fault(lambda address: "down")
            transport.send("udp://127.0.0.1:9/svc", b"<x/>")  # trips it
            transport.inject_fault(None)
            transport.send("udp://127.0.0.1:9/svc", b"<x/>")

        on_loop(scenario)
        assert [o.error for o in outcomes] == ["down", "circuit-open"]
        assert outcomes[1].attempts == 0
        assert stub.sent == []

    def test_retries_wait_on_loop_timers_not_tasks(self):
        stub = StubSocket()
        transport = AioUdpTransport(
            loop=shared_loop(), sock=stub,
            retry=RetryPolicy(max_retries=2, backoff=0.01, jitter=0.0),
        )
        transport.inject_fault(lambda address: "flaky")
        outcomes = []
        transport.add_outcome_listener(outcomes.append)

        def scenario():
            tasks = len(asyncio.all_tasks())
            transport.send("udp://127.0.0.1:9/svc", b"<x/>")
            return len(asyncio.all_tasks()) - tasks, transport.in_flight

        new_tasks, in_flight = on_loop(scenario)
        assert new_tasks == 0
        assert in_flight == 1  # the first retry is parked on a timer
        assert transport.drain(timeout=5.0)
        assert [(o.error, o.attempts) for o in outcomes] == [("flaky", 3)]

    def test_full_kernel_buffer_is_a_structured_failure(self):
        transport = AioUdpTransport(
            loop=shared_loop(), sock=StubSocket(error=BlockingIOError())
        )
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        on_loop(lambda: transport.send("udp://127.0.0.1:9/svc", b"<x/>"))
        assert [o.error for o in outcomes] == ["send-buffer-full"]
        assert transport.send_errors == 1

    def test_oversize_datagram_is_a_structured_failure(self):
        transport = AioUdpTransport(loop=shared_loop(), max_datagram_bytes=64)
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        try:
            transport.send("udp://127.0.0.1:9/svc", b"x" * 65)
            assert wait_for(lambda: len(outcomes) == 1)
            assert not outcomes[0].ok
            assert outcomes[0].error == "oversize-datagram"
        finally:
            transport.close()

    def test_foreign_thread_send_arrives_and_drains(self, udp_node):
        transport = AioUdpTransport(loop=shared_loop())
        sender = SoapRuntime("udp://sender", transport)
        try:
            worker = threading.Thread(
                target=sender.send,
                args=(f"{udp_node.base_address}/svc", ACTION),
                kwargs={"value": "threaded"},
            )
            worker.start()
            worker.join(5.0)
            assert not worker.is_alive()
            assert transport.drain(timeout=5.0)
            assert wait_for(lambda: udp_node.sink.values == ["threaded"])
        finally:
            transport.close()


class TestUdpNode:
    def test_backlog_is_swept_in_bounded_wakeups_with_a_flush_each(self):
        from repro.core.aiodeploy import AsyncGossipNode
        from repro.core.decentralized import make_static_context
        from repro.core.message import GossipStyle
        from repro.core.params import GossipParams

        burst = 200
        params = GossipParams(  # batching on, no periodic traffic
            fanout=1, rounds=3, style=GossipStyle.PUSH, period=600.0,
            max_batch_rumors=8,
        )
        loop = asyncio.new_event_loop()
        source = AsyncGossipNode("source", loop=loop, params=params)
        node = AsyncGossipNode("node", loop=loop, params=params)
        source.set_view([node.app_address])
        node.set_view([source.app_address])
        context = make_static_context()
        sent = []
        source.edge.transport.add_outcome_listener(sent.append)
        wakeups = []
        sweep = node.edge._on_readable

        def counted_sweep():
            before = node.edge.datagrams_received
            sweep()
            wakeups.append(node.edge.datagrams_received - before)

        node.edge._on_readable = counted_sweep

        async def scenario():
            # The node is bound but not reading yet, so the whole burst
            # queues on its socket before its first wake-up.
            await source.astart()
            source.join(context)
            node.join(context)
            engine = source.gossip_layer.engine_for(context.identifier)
            for n in range(burst):
                engine.publish(source.action, {"n": n})
                while len(sent) <= n:  # one flush, one datagram per rumor
                    await asyncio.sleep(0)
            flushes = node.edge.hub.batch.flushes
            await node.astart()
            while node.delivery_count < burst:
                await asyncio.sleep(0.01)
            return node.edge.hub.batch.flushes - flushes

        try:
            flushes = loop.run_until_complete(
                asyncio.wait_for(scenario(), timeout=20.0)
            )
        finally:
            loop.run_until_complete(source.astop())
            loop.run_until_complete(node.astop())
            loop.close()
        full, rest = divmod(burst, RECV_SWEEP_DATAGRAMS)
        expected = [RECV_SWEEP_DATAGRAMS] * full + [rest] * bool(rest)
        assert [count for count in wakeups if count] == expected
        assert 1 <= flushes <= len(expected)  # per wake-up, not per datagram

    def test_stopping_a_never_started_node_closes_its_socket(self):
        sync_stopped = AsyncUdpNode(loop=shared_loop())
        sync_stopped.stop()
        assert sync_stopped._sock.fileno() == -1
        async_stopped = AsyncUdpNode(loop=shared_loop())
        run_on_loop(shared_loop(), async_stopped.astop())
        assert async_stopped._sock.fileno() == -1

    def test_restarting_a_stopped_node_is_refused(self):
        node = AsyncUdpNode(loop=shared_loop())
        node.start()
        node.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            node.start()

    def test_hostile_datagrams_do_not_cost_the_loop_or_the_sweep(self, udp_node):
        class Boom(Service):
            @operation(ACTION)
            def take(self, context, value):
                raise KeyError("service bug")

        udp_node.runtime.add_service("/boom", Boom())
        reported = []
        loop = shared_loop()
        previous = loop.get_exception_handler()
        loop.set_exception_handler(lambda loop, context: reported.append(context))
        garbage = [b"", b"<soap:Envelope xmlns:soap=", os.urandom(60 * 1024)]
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            target = (udp_node.host, udp_node.port)
            for datagram in garbage:
                raw.sendto(datagram, target)
            raw.sendto(frame_for(f"{udp_node.base_address}/boom", 1), target)
            raw.sendto(frame_for(f"{udp_node.base_address}/svc", "last"), target)
            assert wait_for(lambda: udp_node.sink.values == ["last"])
        finally:
            raw.close()
            loop.set_exception_handler(previous)
        assert udp_node.datagrams_received == len(garbage) + 2
        assert udp_node.hub.counter("soap.malformed").value == len(garbage)
        assert udp_node.hub.counter("udp.receive-errors").value == 1
        assert [type(c["exception"]) for c in reported] == [KeyError]
        assert loop.is_running()


class TestHttpNode:
    """The lifecycle contract of ``TestUdpNode``, on the HTTP edge."""

    def test_stopping_a_never_started_node_closes_its_listener(self):
        sync_stopped = AsyncHttpNode(loop=shared_loop())
        sync_stopped.stop()
        assert sync_stopped._sock.fileno() == -1
        async_stopped = AsyncHttpNode(loop=shared_loop())
        run_on_loop(shared_loop(), async_stopped.astop())
        assert async_stopped._sock.fileno() == -1

    def test_restarting_a_stopped_node_is_refused(self):
        node = AsyncHttpNode(loop=shared_loop())
        node.start()
        node.stop()
        assert node._sock.fileno() == -1
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            node.start()


class TestLiveMesh:
    def test_small_udp_mesh_disseminates(self):
        from repro.core.aiodeploy import AsyncGossipMesh, soak_params

        mesh = AsyncGossipMesh(
            6, transport="udp",
            params=soak_params("udp", period=0.2), view_size=4, seed=3,
        )
        with mesh:
            gossip_id = mesh.publish({"px": 42}, publisher_index=0)
            assert wait_for(
                lambda: mesh.delivered_fraction(gossip_id, 0) == 1.0
            )

    def test_mesh_metrics_reach_the_default_hub(self, client):
        from repro.core.aiodeploy import AsyncGossipMesh, soak_params

        edge = AsyncHttpNode(loop=shared_loop(), hub=default_hub())
        mesh = AsyncGossipMesh(
            4, transport="udp",
            params=soak_params("udp", period=0.2), view_size=3, seed=5,
        )
        with edge, mesh:
            gossip_id = mesh.publish({"px": 1}, publisher_index=1)
            assert wait_for(
                lambda: mesh.delivered_fraction(gossip_id, 1) == 1.0
            )
            status, _, body = fetch(client, f"{edge.base_address}/v1/metrics")
        assert status == 200
        assert b"wire" in body or b"parse" in body
