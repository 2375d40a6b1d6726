"""The versioned node-edge API of the HTTP server binding.

:class:`~repro.transport.aio.AsyncHttpNode` serves this URL space; the
paths and the request/response logic are defined here, apart from the
socket handling (see docs/WIRE.md, "The versioned node-edge API"):

* ``POST /v1/gossip``  -- envelope ingest (the WS-Addressing ``To`` header
  routes to the mounted service; the HTTP path is just the front door).
* ``GET  /v1/metrics`` -- this node's :class:`~repro.obs.hub.MetricsHub`
  in the Prometheus text exposition format.
* ``GET  /v1/health``  -- liveness plus the mounted service paths, JSON.
* ``GET  /v1/obs/{summary,rumors,nodes,alerts}`` -- paginated JSON read
  models materialized from the node's hub (CQRS over the MetricsHub):
  counters/rates at a glance, per-rumor dissemination spans, per-node
  delivery counts, and the SLO alert timeline.  List resources accept
  ``?offset=&limit=`` and answer a stable envelope
  ``{"items", "offset", "limit", "total", "next_offset"}``.

Any other path answers 404.

Ingest is idempotent: an ``Idempotency-Key`` request header (falling back
to the wire gossip ``MessageId`` scanned from the body bytes) is checked
against a bounded per-node :class:`IdempotencyIndex`; a replayed POST is
answered ``200`` with ``Idempotent-Replay: true`` without re-entering the
runtime, and counted as the hub's ``wire.idempotent_replays``.

Ingest is also admission-controlled when the node opts in: an
:class:`EdgeAdmission` token bucket gates ``POST /v1/gossip``; a request
arriving faster than the configured rate is answered ``429 Too Many
Requests`` with a ``Retry-After`` header (decimal seconds) *before* the
idempotency index sees it, so the eventual retry is ingested as fresh,
not misread as a replay (see docs/RESILIENCE.md, "Overload and
backpressure").
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.core.message import scan_gossip_message_id
from repro.core.overload import (
    ADMISSION_BURST,
    ADMISSION_RATE,
    RETRY_AFTER,
    TokenBucket,
)

if TYPE_CHECKING:
    from repro.obs.hub import MetricsHub

API_VERSION = "v1"
GOSSIP_PATH = "/v1/gossip"
METRICS_PATH = "/v1/metrics"
HEALTH_PATH = "/v1/health"
OBS_PREFIX = "/v1/obs/"
OBS_SUMMARY_PATH = "/v1/obs/summary"
OBS_RUMORS_PATH = "/v1/obs/rumors"
OBS_NODES_PATH = "/v1/obs/nodes"
OBS_ALERTS_PATH = "/v1/obs/alerts"

#: Pagination bounds for the ``/v1/obs/*`` list resources.
OBS_DEFAULT_LIMIT = 50
OBS_MAX_LIMIT = 500

IDEMPOTENCY_KEY_HEADER = "Idempotency-Key"
IDEMPOTENT_REPLAY_HEADER = "Idempotent-Replay"
RETRY_AFTER_HEADER = "Retry-After"

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


def strip_query(path: str) -> str:
    """The request path without its query string."""
    return path.split("?", 1)[0]


def health_payload(base_address: str, service_paths, extra: Optional[Dict] = None) -> bytes:
    """The ``GET /v1/health`` response body."""
    payload = {
        "status": "ok",
        "node": base_address,
        "api": API_VERSION,
        "services": list(service_paths),
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class EdgeAdmission:
    """Token-bucket admission control for the ingest edge.

    One bucket per node edge (not per client): the bucket models the
    node's processing capacity, which every sender shares.  Thread-safe:
    the edge admits from its loop, but the gate is a plain object that
    nothing pins to that loop, so one bucket stays exact whichever thread
    asks.

    Args:
        rate: sustained requests per second the edge admits.
        burst: bucket depth -- requests absorbed back-to-back after idle.
        retry_after: floor (seconds) for the advertised ``Retry-After``;
            the actual value is the bucket's predicted refill time when
            that is longer.
        clock: injectable monotonic clock (tests pin it).
    """

    def __init__(
        self,
        rate: float = ADMISSION_RATE,
        burst: float = ADMISSION_BURST,
        retry_after: float = RETRY_AFTER,
        clock=time.monotonic,
    ) -> None:
        self._bucket = TokenBucket(float(rate), float(burst))
        self._clock = clock
        self.retry_after_floor = float(retry_after)
        self._lock = threading.Lock()
        #: Requests admitted / answered 429 (lifetime, for tests and /v1/health).
        self.admitted = 0
        self.rejected = 0

    def admit(self) -> Tuple[bool, float]:
        """Gate one request: ``(admitted, retry_after_seconds)``."""
        now = self._clock()
        with self._lock:
            if self._bucket.admit(now):
                self.admitted += 1
                return True, 0.0
            self.rejected += 1
            return False, max(
                self.retry_after_floor, self._bucket.retry_after(now)
            )


class IdempotencyIndex:
    """Bounded, thread-safe memory of recently ingested publish keys.

    The edge remembers the last ``capacity`` keys in LRU order; asking
    about a key inserts it, so the check and the remembering are one
    atomic step (two racing replays can at most both execute, never
    neither -- at-least-once stays intact, the index only removes the
    common duplicate case).
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.capacity = capacity
        self._seen: "OrderedDict[str, None]" = OrderedDict()
        self._lock = threading.Lock()
        #: Replays answered without re-entering the runtime.
        self.replays = 0

    def __len__(self) -> int:
        return len(self._seen)

    @staticmethod
    def key_for(headers: Mapping[str, str], body: bytes) -> Optional[str]:
        """The idempotency key of one ingest request.

        The explicit ``Idempotency-Key`` header wins; otherwise the wire
        gossip ``MessageId`` is scanned from the body bytes (retried
        gossip POSTs carry the same envelope, hence the same id).  Returns
        ``None`` when the request has no usable identity -- such requests
        are always processed.
        """
        for name, value in headers.items():
            if name.lower() == IDEMPOTENCY_KEY_HEADER.lower() and value:
                return value.strip() or None
        return scan_gossip_message_id(body)

    def check_and_remember(self, key: Optional[str]) -> bool:
        """True when ``key`` was already ingested (a replay); remembers it."""
        if key is None:
            return False
        with self._lock:
            if key in self._seen:
                self._seen.move_to_end(key)
                self.replays += 1
                return True
            self._seen[key] = None
            while len(self._seen) > self.capacity:
                self._seen.popitem(last=False)
            return False


def ingest_response(
    index: IdempotencyIndex,
    headers: Mapping[str, str],
    body: bytes,
    hub: Optional["MetricsHub"] = None,
    admission: Optional[EdgeAdmission] = None,
) -> Tuple[int, Dict[str, str], bool]:
    """Decide one POST's response: ``(status, headers, process_body)``.

    Fresh requests answer ``202 Accepted`` and must be handed to the
    runtime; replays answer ``200`` with ``Idempotent-Replay: true`` and
    must NOT re-enter the handler.  Replays are counted as
    ``wire.idempotent_replays`` on ``hub`` when given.

    With an ``admission`` bucket, over-rate requests answer ``429`` with
    a decimal-seconds ``Retry-After`` header.  The admission gate runs
    *before* the idempotency check: a rejected request must not be
    remembered, or its honored retry would be answered as a replay and
    the payload silently lost.  Rejections are counted as
    ``overload.edge_rejected`` on ``hub`` when given.
    """
    if admission is not None:
        ok, retry_after = admission.admit()
        if not ok:
            if hub is not None:
                hub.overload.edge_rejected.inc()
            return 429, {RETRY_AFTER_HEADER: f"{retry_after:.3f}"}, False
    if index.check_and_remember(index.key_for(headers, body)):
        if hub is not None:
            hub.wire.idempotent_replays.inc()
        return 200, {IDEMPOTENT_REPLAY_HEADER: "true"}, False
    return 202, {}, True


# -- observability read models (GET /v1/obs/*) --------------------------------


def parse_pagination(
    query: str,
    default_limit: int = OBS_DEFAULT_LIMIT,
    max_limit: int = OBS_MAX_LIMIT,
) -> Tuple[int, int]:
    """``(offset, limit)`` from a query string, clamped to sane bounds.

    Malformed values fall back to the defaults -- a read model answers
    what it can rather than turning a dashboard poll into a 400.
    """
    offset, limit = 0, default_limit
    for part in query.split("&"):
        name, _, raw = part.partition("=")
        try:
            value = int(raw)
        except ValueError:
            continue
        if name == "offset":
            offset = max(0, value)
        elif name == "limit":
            limit = max(1, min(max_limit, value))
    return offset, limit


def _page(items, offset: int, limit: int) -> Dict:
    """The stable pagination envelope for a list read model."""
    total = len(items)
    window = items[offset:offset + limit]
    next_offset = offset + limit if offset + limit < total else None
    return {
        "items": window,
        "offset": offset,
        "limit": limit,
        "total": total,
        "next_offset": next_offset,
    }


def _obs_summary(hub, population: Optional[int]) -> Dict:
    spans = hub.tracer.spans()
    firing = any(
        alert.state == "firing" for alert in hub.alerts[-1:]
    )
    return {
        "node": hub.name,
        "population": population,
        "counters": {name: value for name, value in sorted(hub.counters().items())},
        "rates": {
            name: window.rate() for name, window in sorted(hub.windows().items())
        },
        "rumors": len(spans),
        "alerts": {"total": len(hub.alerts), "firing": firing},
    }


def _obs_rumors(hub, population: Optional[int]) -> list:
    rows = []
    for span in hub.tracer.spans():
        row = {
            "message_id": span.message_id,
            "origin": span.origin,
            "published_at": span.publish_time,
            "budget": span.budget,
            "delivered": span.delivered_count,
            "forwards": len(span.forwards),
            "rounds_max": max(span.rounds_of_deliveries(), default=0),
        }
        if population:
            row["rounds_to_99"] = span.rounds_to_fraction(0.99, population)
        rows.append(row)
    rows.sort(key=lambda row: (row["published_at"] or 0.0, row["message_id"]))
    return rows


def _obs_nodes(hub) -> list:
    return [
        {"node": node, "deliveries": count}
        for node, count in sorted(hub.tracer.deliveries_per_node().items())
    ]


def _obs_alerts(hub) -> list:
    return [alert.to_value() for alert in hub.alerts]


def obs_response(
    hub, raw_path: str, population: Optional[int] = None
) -> Optional[Tuple[int, Dict[str, str], bytes]]:
    """Serve one ``GET /v1/obs/*`` request from ``hub``, or ``None``.

    ``raw_path`` keeps its query string (pagination).  A pure function of
    the hub, so the read-model dialect is tested without a socket.
    Unknown ``/v1/obs/`` subpaths answer 404.
    """
    path, _, query = raw_path.partition("?")
    if not path.startswith(OBS_PREFIX):
        return None
    if path == OBS_SUMMARY_PATH:
        payload = _obs_summary(hub, population)
    else:
        if path == OBS_RUMORS_PATH:
            items = _obs_rumors(hub, population)
        elif path == OBS_NODES_PATH:
            items = _obs_nodes(hub)
        elif path == OBS_ALERTS_PATH:
            items = _obs_alerts(hub)
        else:
            return 404, {}, b'{"error": "unknown observability resource"}'
        offset, limit = parse_pagination(query)
        payload = _page(items, offset, limit)
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return 200, {"Content-Type": JSON_CONTENT_TYPE}, body
