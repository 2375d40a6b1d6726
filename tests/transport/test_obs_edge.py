"""The ``GET /v1/obs/*`` observability read models.

:func:`repro.transport.edge.obs_response` is the single shared
implementation; the pure-function tests here pin the payload shapes and
the pagination envelope, and the live tests confirm the HTTP edge actually
mounts it, for a stdlib blocking client and for the package's own.
"""

import json

import pytest

from repro.obs.hub import MetricsHub
from repro.obs.windows import Alert
from repro.transport.edge import obs_response


def _populated_hub(rumors=3):
    hub = MetricsHub(name="n0")
    hub.counter("net.sent").inc(12)
    hub.window("rate.net.sent", width=1.0, buckets=10).observe(1.0, 12.0)
    for index in range(rumors):
        message_id = f"urn:uuid:m{index}"
        hub.tracer.on_publish(message_id, "n0", float(index), budget=3)
        hub.tracer.on_deliver(message_id, "n1", index + 0.5, hops_left=2)
        hub.tracer.on_deliver(message_id, "n2", index + 0.9, hops_left=1)
    hub.alerts.append(Alert("slo.delivery", "firing", 4.0, 1.8, 0.99, 8.0))
    return hub


def _get(hub, raw_path, population=None):
    response = obs_response(hub, raw_path, population=population)
    assert response is not None
    status, headers, body = response
    return status, json.loads(body)


class TestObsResponse:
    def test_non_obs_path_is_not_claimed(self):
        assert obs_response(MetricsHub(), "/v1/metrics") is None
        assert obs_response(MetricsHub(), "/v1/gossip") is None

    def test_unknown_obs_resource_is_404(self):
        status, _, body = obs_response(MetricsHub(), "/v1/obs/bogus")
        assert status == 404
        assert b"unknown" in body

    def test_summary_shape(self):
        hub = _populated_hub()
        status, payload = _get(hub, "/v1/obs/summary", population=3)
        assert status == 200
        assert payload["node"] == "n0"
        assert payload["population"] == 3
        assert payload["counters"]["net.sent"] == 12
        assert payload["rates"]["rate.net.sent"] > 0.0
        assert payload["rumors"] == 3
        assert payload["alerts"] == {"total": 1, "firing": True}

    def test_rumor_rows_and_pagination_envelope(self):
        hub = _populated_hub(rumors=5)
        status, payload = _get(hub, "/v1/obs/rumors?offset=0&limit=2")
        assert status == 200
        assert set(payload) == {
            "items", "offset", "limit", "total", "next_offset"
        }
        assert payload["total"] == 5
        assert payload["next_offset"] == 2
        assert len(payload["items"]) == 2
        row = payload["items"][0]
        assert row["message_id"] == "urn:uuid:m0"
        assert row["origin"] == "n0"
        assert row["delivered"] == 2
        assert "rounds_to_99" not in row  # no population given

    def test_rumor_rows_judge_rounds_when_population_known(self):
        hub = _populated_hub(rumors=1)
        _, payload = _get(hub, "/v1/obs/rumors", population=3)
        assert payload["items"][0]["rounds_to_99"] is not None

    def test_last_page_has_no_next_offset(self):
        hub = _populated_hub(rumors=3)
        _, payload = _get(hub, "/v1/obs/rumors?offset=2&limit=5")
        assert payload["next_offset"] is None
        assert len(payload["items"]) == 1

    def test_malformed_pagination_falls_back_to_defaults(self):
        hub = _populated_hub(rumors=3)
        status, payload = _get(hub, "/v1/obs/rumors?offset=soon&limit=")
        assert status == 200
        assert payload["offset"] == 0
        assert payload["total"] == 3

    def test_nodes_rows(self):
        hub = _populated_hub(rumors=2)
        _, payload = _get(hub, "/v1/obs/nodes")
        assert payload["items"] == [
            {"node": "n1", "deliveries": 2},
            {"node": "n2", "deliveries": 2},
        ]

    def test_alert_rows(self):
        hub = _populated_hub()
        _, payload = _get(hub, "/v1/obs/alerts")
        assert payload["total"] == 1
        assert payload["items"][0]["state"] == "firing"
        assert payload["items"][0]["burn"] == pytest.approx(1.8)


class TestLiveBindings:
    def test_sync_http_edge_serves_obs(self):
        """A plain blocking stdlib client reads the edge too."""
        import urllib.error
        import urllib.request

        from repro.transport.aio import AsyncHttpNode, shared_loop

        with AsyncHttpNode(loop=shared_loop()) as node:
            with urllib.request.urlopen(
                f"{node.base_address}/v1/obs/summary", timeout=5.0
            ) as response:
                assert response.status == 200
                payload = json.loads(response.read())
            assert "counters" in payload and "alerts" in payload
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{node.base_address}/v1/obs/nope", timeout=5.0
                )
            assert excinfo.value.code == 404
            excinfo.value.close()

    def test_asyncio_http_edge_serves_obs(self):
        from repro.transport.aio import (
            AioHttpTransport,
            AsyncHttpNode,
            run_on_loop,
            shared_loop,
        )

        loop = shared_loop()
        client = AioHttpTransport(loop=loop)
        try:
            with AsyncHttpNode(loop=loop) as node:
                status, _, body = run_on_loop(
                    loop, client.get(f"{node.base_address}/v1/obs/rumors")
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["items"] == []
                assert payload["total"] == 0
        finally:
            client.close()
