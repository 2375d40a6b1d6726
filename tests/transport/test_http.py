"""The HTTP node seen from outside the package.

``test_aio.py`` drives the edge with the package's own pooled client; here
two nodes talk through their runtimes, and an ordinary blocking stdlib
client (``urllib``) exercises the ``/v1`` edge, so a framing mistake shared
by our client and our server cannot hide.
"""

import time
import urllib.error
import urllib.request

import pytest

from repro.soap.service import Service, operation
from repro.transport.aio import AsyncHttpNode, shared_loop


class EchoService(Service):
    def __init__(self):
        super().__init__()
        self.one_way = []

    @operation("urn:t/OneWay")
    def take(self, context, value):
        self.one_way.append(value)
        return None


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def nodes():
    loop = shared_loop()
    with AsyncHttpNode(loop=loop) as server, AsyncHttpNode(loop=loop) as client:
        server.runtime.add_service("/svc", EchoService())
        yield server, client


def _request(url, data=None, headers=None):
    request = urllib.request.Request(url, data=data, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, dict(error.headers), error.read()


def test_one_way_over_http(nodes):
    server, client = nodes
    client.runtime.send(f"{server.base_address}/svc", "urn:t/OneWay", value="hello")
    assert wait_for(lambda: server.runtime.service_at("/svc").one_way == ["hello"])


def test_versioned_edge_paths(nodes):
    server, _ = nodes
    status, _, body = _request(f"{server.base_address}/v1/health")
    assert status == 200
    assert b'"status": "ok"' in body
    status, headers, _ = _request(f"{server.base_address}/v1/metrics")
    assert status == 200
    assert "Deprecation" not in headers
    status, headers, _ = _request(f"{server.base_address}/metrics")
    assert status == 404
    assert "Deprecation" not in headers


def test_idempotent_replay_over_sync_http(nodes):
    server, _ = nodes
    url = f"{server.base_address}/v1/gossip"
    keyed = {"Idempotency-Key": "pub-7"}
    before = server.hub.wire.idempotent_replays.value
    status, headers, _ = _request(url, data=b"<x/>", headers=keyed)
    assert status == 202
    status, headers, _ = _request(url, data=b"<x/>", headers=keyed)
    assert status == 200
    assert headers["Idempotent-Replay"] == "true"
    assert server.hub.wire.idempotent_replays.value == before + 1
