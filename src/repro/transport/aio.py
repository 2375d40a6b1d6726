"""Asyncio real-network transports: UDP datagrams and keep-alive HTTP.

The one real-network binding: the same middleware stack that runs in the
simulator runs here over real sockets on **one event loop**, so hundreds
to thousands of nodes fit in a single process and every engine, handler
chain and runtime stays single-threaded:

* :class:`AioUdpTransport` -- one plain non-blocking datagram socket per
  node; an envelope (or a multi-rumor :class:`~repro.core.batch.GossipBatch`
  frame up to ``max_batch_bytes``) rides verbatim as one datagram.
  Addresses look like ``udp://127.0.0.1:9001/app``.
* :class:`AioHttpTransport` -- HTTP/1.1 keep-alive client with a
  per-destination connection pool and multiplexed request pipelining
  (many in-flight POSTs share one socket, responses matched in FIFO
  order, the py-unsserv ``multiplex=True`` RPC idiom).
* :class:`AsyncUdpNode` / :class:`AsyncHttpNode` -- the server edges: a
  :class:`~repro.soap.runtime.SoapRuntime` fed by the loop.  The HTTP
  edge speaks the versioned ``/v1/`` node API from
  :mod:`repro.transport.edge` (``POST /v1/gossip``, ``GET /v1/metrics``,
  ``GET /v1/health``, idempotent ingest).

Both transports subclass :class:`~repro.transport.base.ResilientTransport`
and keep its whole observable contract -- bounded retry with backoff,
per-destination circuit breakers, structured
:class:`~repro.transport.base.SendOutcome` listeners, ``inject_fault`` --
with every send pinned to the loop thread.  A datagram costs no task:
UDP runs the base class's synchronous path (one ``sendto`` on a socket
the node owns outright, retries on loop timers) and its outcome fires
inside ``send()``; HTTP, which must await a response, runs a task per
attempt.

Sync facade: ``send(address, data)`` stays an ordinary synchronous call.
From a loop callback (engine timers under :class:`AioScheduler`, inbound
dispatch) it sends directly; from any other thread it is marshalled onto
the loop.  Existing sync callers -- ``GossipLayer``, ``SoapRuntime``, the
live roles in :mod:`repro.core.aiodeploy` -- need no changes.  When no
loop is supplied, a process-wide background loop thread
(:func:`shared_loop`) hosts everything, so plain scripts and tests can
use the async transports without writing any ``async def``.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time
import uuid
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.export import prometheus_text
from repro.obs.hub import MetricsHub, default_hub, hub_of
from repro.soap.runtime import SoapRuntime
from repro.transport.base import (
    BreakerPolicy,
    ResilientTransport,
    RetryPolicy,
    SendError,
    SendOutcome,
    parse_retry_after,
    split_address,
)
from repro.transport.edge import (
    GOSSIP_PATH,
    HEALTH_PATH,
    IDEMPOTENCY_KEY_HEADER,
    JSON_CONTENT_TYPE,
    METRICS_PATH,
    PROMETHEUS_CONTENT_TYPE,
    EdgeAdmission,
    IdempotencyIndex,
    health_payload,
    ingest_response,
    obs_response,
    strip_query,
)

#: Largest datagram the loopback/UDP path will attempt (IPv4 ceiling).
MAX_DATAGRAM_BYTES = 65507

#: Most datagrams a UDP node reads per readiness wake-up.  High enough that
#: one wake-up drains a gossip burst (so the engine's per-instant flush
#: sees all of it), bounded so that a flooded socket cannot starve the
#: timers and the other nodes sharing the loop: at tens of microseconds a
#: datagram, 64 keep one callback to a few milliseconds.  A constant, not a
#: knob -- it trades nothing a deployment could tune against.
RECV_SWEEP_DATAGRAMS = 64

#: Where a sweep reads each datagram before copying it out at its real size,
#: one buffer per loop thread (a sweep never yields, so every node on the
#: loop can share it).  Measured on the 100-node burst: a ceiling-sized
#: ``recvfrom`` per datagram fragments the heap (+22% peak RSS), and a
#: buffer per node keeps 64 KiB resident each (+27%).
_recv_scratch = threading.local()

#: Largest request body the HTTP edge reads.  A request declaring more is
#: answered ``413`` before a byte of its body is read, so one client cannot
#: make the node buffer an arbitrary ``Content-Length``.  Four times the
#: biggest batch frame a live HTTP mesh sends (``soak_params``).
MAX_REQUEST_BODY_BYTES = 1 << 20

_STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    429: "Too Many Requests",
}


# -- the shared background loop (sync facade) ---------------------------------


class LoopThread:
    """An event loop running on a daemon thread.

    Hosts the async transports for synchronous callers: the loop is
    created eagerly (so its identity is known before the thread spins up)
    and runs forever until :meth:`stop`.
    """

    def __init__(self, name: str = "repro-aio") -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self._started.set()
        self.loop.run_forever()

    def start(self) -> "LoopThread":
        if not self._thread.is_alive():
            self._thread.start()
            self._started.wait(5.0)
        return self

    def stop(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=5.0)


_shared_loop_lock = threading.Lock()
_shared_loop_thread: Optional[LoopThread] = None


def shared_loop() -> asyncio.AbstractEventLoop:
    """The process-wide background loop, started on first use."""
    global _shared_loop_thread
    with _shared_loop_lock:
        if _shared_loop_thread is None:
            _shared_loop_thread = LoopThread().start()
        return _shared_loop_thread.loop


def resolve_loop(loop: Optional[asyncio.AbstractEventLoop]) -> asyncio.AbstractEventLoop:
    """``loop``, else the currently running loop, else :func:`shared_loop`."""
    if loop is not None:
        return loop
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return shared_loop()


def _on_loop(loop: asyncio.AbstractEventLoop) -> bool:
    try:
        return asyncio.get_running_loop() is loop
    except RuntimeError:
        return False


def run_on_loop(loop: asyncio.AbstractEventLoop, coro, timeout: float = 10.0):
    """Run ``coro`` on ``loop`` from a foreign thread and wait for it."""
    if _on_loop(loop):
        raise RuntimeError(
            "run_on_loop called from the loop itself; await the coroutine instead"
        )
    return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout)


# -- timers -------------------------------------------------------------------


class AioScheduler:
    """The engine's :class:`~repro.core.scheduling.Scheduler` over a loop.

    ``now`` is the loop's monotonic clock; ``call_after`` maps to
    ``loop.call_later`` (scheduled thread-safely when invoked off-loop).
    ``close`` flips a flag that silences every outstanding timer --
    orderly node shutdown without having to track handles.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = resolve_loop(loop)
        self._closed = False

    @property
    def now(self) -> float:
        return self._loop.time()

    def call_after(self, delay: float, callback: Callable[[], None]):
        if self._closed:
            return _NullHandle()
        timer = _AioTimer(self)

        def guarded() -> None:
            if not self._closed and not timer.cancelled:
                callback()

        if _on_loop(self._loop):
            timer.bind(self._loop.call_later(delay, guarded))
        else:
            self._loop.call_soon_threadsafe(
                lambda: timer.bind(self._loop.call_later(delay, guarded))
            )
        return timer

    def close(self) -> None:
        """Silence all outstanding timers (node shutdown)."""
        self._closed = True


class _AioTimer:
    """Cancellable wrapper around a (possibly not-yet-created) TimerHandle."""

    __slots__ = ("_scheduler", "_handle", "cancelled")

    def __init__(self, scheduler: AioScheduler) -> None:
        self._scheduler = scheduler
        self._handle: Optional[asyncio.TimerHandle] = None
        self.cancelled = False

    def bind(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        if self.cancelled:
            handle.cancel()

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class _NullHandle:
    __slots__ = ()

    def cancel(self) -> None:
        pass


# -- the resilient send path on a loop -----------------------------------------


class AsyncResilientTransport(ResilientTransport):
    """The resilient contract with every send pinned to one event loop.

    On the loop thread :meth:`send` runs the base class's synchronous
    path (breaker gate, fault hook, :meth:`_send_once`, outcome) to
    completion before it returns -- no task, no coroutine -- and a retry
    waits on a loop timer.  That fits a binding whose attempt cannot
    block (a datagram ``sendto``); one that must await the wire
    overrides :meth:`_send_on_loop` (see :class:`AioHttpTransport`).
    Breaker state, fault hooks and outcome listeners are exactly the
    base class's.
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        rng: Optional[random.Random] = None,
        hub: Optional[MetricsHub] = None,
    ) -> None:
        super().__init__(retry=retry, breaker=breaker, rng=rng, hub=hub)
        self.loop = resolve_loop(loop)
        self._queued = 0
        self._queued_lock = threading.Lock()
        self._retrying = 0
        self._closed = False
        self.send_errors = 0

    # -- the sync facade ------------------------------------------------------

    def send(self, address: str, data: bytes) -> None:
        """One resilient send on the loop (callable from anywhere).

        Misuse (an address without a scheme) raises ``ValueError`` right
        here, synchronously, matching the base transport.  Called on the
        loop thread the send -- and, for a binding that cannot block, its
        :class:`SendOutcome` -- happens before this returns; from any
        other thread it is marshalled onto the loop.
        """
        self._check_address(address)  # eagerly: misuse is the caller's bug
        if self._closed:
            return  # shutting down: drop, exactly like a lost datagram
        if _on_loop(self.loop):
            self._send_on_loop(address, data)
        else:
            with self._queued_lock:
                self._queued += 1
            self.loop.call_soon_threadsafe(self._send_queued, address, data)

    def _check_address(self, address: str) -> None:
        split_address(address)

    def _send_queued(self, address: str, data: bytes) -> None:
        with self._queued_lock:
            self._queued -= 1
        if not self._closed:
            self._send_on_loop(address, data)

    def _send_on_loop(self, address: str, data: bytes) -> None:
        self._start_send(address, data)

    def _defer(self, delay: float, callback: Callable[[], None]) -> None:
        self._retrying += 1
        self.loop.call_later(delay, self._run_deferred, callback)

    def _run_deferred(self, callback: Callable[[], None]) -> None:
        self._retrying -= 1
        if not self._closed:
            callback()

    @property
    def in_flight(self) -> int:
        """Logical sends not yet finished: queued or awaiting a retry (0 = idle)."""
        with self._queued_lock:
            return self._queued + self._retrying

    def drain(self, timeout: float = 10.0) -> bool:
        """Block (off-loop) until every scheduled send finished."""
        deadline = time.monotonic() + timeout
        while self.in_flight:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.002)
        return True

    async def adrain(self) -> None:
        """Await (on-loop) until every scheduled send finished."""
        while self.in_flight:
            await asyncio.sleep(0.001)

    def close(self) -> None:
        """Stop accepting sends and release sockets (sync, idempotent)."""
        self._closed = True
        if _on_loop(self.loop) or not self.loop.is_running():
            self._release()
        else:
            try:
                run_on_loop(self.loop, self.aclose(), timeout=5.0)
            except Exception:
                pass

    async def aclose(self) -> None:
        self._closed = True
        self._release()

    def _release(self) -> None:
        """Free sockets and pending work (idempotent; on the loop if it runs)."""

    def _emit(self, outcome: SendOutcome) -> None:
        if not outcome.ok:
            # Best-effort one-way messaging, like the simulated datagram
            # fabric: gossip redundancy covers losses; the counter records them.
            self.send_errors += 1
        super()._emit(outcome)


# -- UDP ----------------------------------------------------------------------


def _udp_socket(host: str, port: int, buffer_bytes: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer_bytes)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes)
    except OSError:  # pragma: no cover - platform caps are advisory
        pass
    sock.setblocking(False)
    try:
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock


class AioUdpTransport(AsyncResilientTransport):
    """Sends envelope bytes as single datagrams to ``udp://`` addresses.

    The transport owns one plain non-blocking socket -- the node's, when
    constructed by :class:`AsyncUdpNode` (``sock=``), else an ephemeral
    one bound on first send -- and an attempt is a size check plus one
    ``sendto``, so a send made on the loop is finished, outcome
    included, when :meth:`send` returns.  Nothing is queued in user
    space: a full kernel send buffer is a ``send-buffer-full`` outcome
    (retried per policy like any failure, else left to gossip
    redundancy).  Datagrams above ``max_datagram_bytes`` fail with a
    structured ``oversize-datagram`` outcome -- size your engine's
    ``max_batch_bytes`` below the ceiling so batch frames ride verbatim.
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        rng: Optional[random.Random] = None,
        max_datagram_bytes: int = MAX_DATAGRAM_BYTES,
        buffer_bytes: int = 1 << 22,
        sock: Optional[socket.socket] = None,
    ) -> None:
        super().__init__(loop=loop, retry=retry, breaker=breaker, rng=rng)
        self.max_datagram_bytes = max_datagram_bytes
        self._buffer_bytes = buffer_bytes
        self._sock = sock
        self._resolved: Dict[str, Tuple[str, int]] = {}

    def _resolve(self, address: str) -> Tuple[str, int]:
        cached = self._resolved.get(address)
        if cached is not None:
            return cached
        _, authority, _ = split_address(address)
        host, _, port_text = authority.rpartition(":")
        try:
            resolved = (host or "127.0.0.1", int(port_text))
        except ValueError:
            raise ValueError(f"udp address needs host:port: {address!r}") from None
        self._resolved[address] = resolved
        return resolved

    _check_address = _resolve

    def _send_once(self, address: str, data: bytes) -> None:
        if len(data) > self.max_datagram_bytes:
            raise SendError("oversize-datagram", address)
        if self._sock is None:
            self._sock = _udp_socket("127.0.0.1", 0, self._buffer_bytes)
        try:
            self._sock.sendto(data, self._resolve(address))
        except BlockingIOError:
            raise SendError("send-buffer-full", address) from None

    def _release(self) -> None:
        if self._sock is not None:
            self._sock.close()


# -- HTTP/1.1 keep-alive client ----------------------------------------------


def _build_request(
    method: str,
    authority: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    lines = [
        f"{method} {path or '/'} HTTP/1.1",
        f"Host: {authority}",
        "Connection: keep-alive",
        f"Content-Length: {len(body)}",
    ]
    if body:
        lines.append("Content-Type: text/xml; charset=utf-8")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise SendError("connection-closed")
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise SendError("malformed-status-line")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise SendError("connection-closed")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or 0)
    body = await reader.readexactly(length) if length > 0 else b""
    return status, headers, body


class _PipelinedConnection:
    """One keep-alive socket multiplexing many in-flight requests.

    Requests are written as soon as the writer is free (pipelining); a
    reader task matches responses to waiters in FIFO order, which is what
    HTTP/1.1 guarantees.  Any transport error fails every in-flight
    waiter -- the resilient send path above then retries per policy on a
    fresh connection.
    """

    def __init__(self, host: str, port: int, loop: asyncio.AbstractEventLoop) -> None:
        self._host = host
        self._port = port
        self._loop = loop
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._waiters: Deque[asyncio.Future] = deque()
        #: Sockets opened over this slot's lifetime (tests assert reuse).
        self.connects = 0
        self.requests = 0

    @property
    def in_flight(self) -> int:
        return len(self._waiters)

    def _alive(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def _ensure_open(self) -> None:
        if self._alive():
            return
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self.connects += 1
        self._reader_task = self._loop.create_task(self._read_loop())

    async def request(self, raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
        async with self._write_lock:
            await self._ensure_open()
            waiter: asyncio.Future = self._loop.create_future()
            self._waiters.append(waiter)
            self.requests += 1
            self._writer.write(raw)
            await self._writer.drain()
        return await waiter

    async def _read_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                response = await _read_response(self._reader)
                if not self._waiters:
                    break  # unsolicited bytes: drop the connection
                waiter = self._waiters.popleft()
                if not waiter.done():
                    waiter.set_result(response)
                if response[1].get("connection", "").lower() == "close":
                    break
        except asyncio.CancelledError:
            error = SendError("connection-closed")
        except Exception as exc:  # noqa: BLE001 - surfaces via the waiters
            error = exc
        finally:
            self._fail_waiters(error or SendError("connection-closed"))
            self._teardown()

    def _fail_waiters(self, error: BaseException) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(error)

    def _teardown(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = None
        self._writer = None

    def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
        self._teardown()


class AioHttpTransport(AsyncResilientTransport):
    """POSTs envelope bytes over pooled, pipelined keep-alive connections.

    Destinations are pooled by authority (``host:port``): up to
    ``pool_size`` sockets per peer, each multiplexing up to
    ``max_inflight`` pipelined requests before the pool opens another.
    Every envelope is POSTed to the versioned ingest resource
    (``/v1/gossip``) -- the WS-Addressing ``To`` header routes it to the
    right service on the receiving node.

    An attempt awaits a response, so this binding runs each attempt as a
    task; gate, retry and outcome logic stay the base class's.
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        rng: Optional[random.Random] = None,
        pool_size: int = 2,
        max_inflight: int = 32,
    ) -> None:
        super().__init__(loop=loop, retry=retry, breaker=breaker, rng=rng)
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1: {pool_size!r}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1: {max_inflight!r}")
        self.pool_size = pool_size
        self.max_inflight = max_inflight
        self._pools: Dict[str, List[_PipelinedConnection]] = {}
        self._tasks: set = set()

    def _connection_for(self, authority: str) -> _PipelinedConnection:
        pool = self._pools.get(authority)
        if pool is None:
            pool = []
            self._pools[authority] = pool
        idle = min(pool, key=lambda conn: conn.in_flight, default=None)
        if idle is not None and (
            idle.in_flight < self.max_inflight or len(pool) >= self.pool_size
        ):
            return idle
        host, _, port_text = authority.rpartition(":")
        connection = _PipelinedConnection(
            host or "127.0.0.1", int(port_text), self.loop
        )
        pool.append(connection)
        return connection

    def pool_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-destination pool counters (tests and the soak report)."""
        return {
            authority: {
                "connections": len(pool),
                "connects": sum(conn.connects for conn in pool),
                "requests": sum(conn.requests for conn in pool),
                "in_flight": sum(conn.in_flight for conn in pool),
            }
            for authority, pool in self._pools.items()
        }

    def _send_on_loop(self, address: str, data: bytes) -> None:
        # One token per *logical* send, stable across its retries: sent as
        # the Idempotency-Key, so a retried POST whose first attempt
        # actually landed is answered as a replay instead of ingesting
        # twice.  Distinct sends of the same bytes (gossip redundancy) get
        # distinct tokens and are never edge-deduped.  It rides through the
        # base class's retry path in the (opaque) payload slot.
        self._start_send(address, (uuid.uuid4().hex, data))

    def _attempt(self, address: str, keyed: Tuple[str, bytes], attempt: int) -> None:
        task = self.loop.create_task(self._aattempt(address, keyed, attempt))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _aattempt(
        self, address: str, keyed: Tuple[str, bytes], attempt: int
    ) -> None:
        """``ResilientTransport._attempt`` with an awaited wire call."""
        try:
            injected = self._fault_hook(address) if self._fault_hook else None
            if injected is not None:
                raise SendError(injected, address)
            await self._asend_once(address, keyed[1], keyed[0])
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - every failure is an outcome
            self._attempt_failed(address, keyed, attempt, exc)
        else:
            self._attempt_succeeded(address, attempt)

    @property
    def in_flight(self) -> int:
        return super().in_flight + len(self._tasks)

    async def _asend_once(self, address: str, data: bytes, token: str) -> None:
        """One POST; ``token`` identifies the logical send across retries."""
        _, authority, _ = split_address(address)
        raw = _build_request(
            "POST", authority, GOSSIP_PATH, data,
            headers={IDEMPOTENCY_KEY_HEADER: token},
        )
        status, response_headers, _ = await self._connection_for(
            authority
        ).request(raw)
        if status == 429:
            raise SendError(
                "http-429",
                address,
                retry_after=parse_retry_after(
                    response_headers.get("retry-after")
                ),
            )
        if status >= 300:
            raise SendError(f"http-{status}", address)

    async def get(
        self, url: str, headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One pooled GET (metrics scraping, health probes)."""
        _, authority, path = split_address(url)
        raw = _build_request("GET", authority, path or "/", headers=headers)
        return await self._connection_for(authority).request(raw)

    async def post(
        self, url: str, body: bytes, headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One pooled POST returning the full response (edge tests)."""
        _, authority, path = split_address(url)
        raw = _build_request("POST", authority, path or "/", body, headers=headers)
        return await self._connection_for(authority).request(raw)

    def _release(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        for pool in self._pools.values():
            for connection in pool:
                connection.close()
        self._pools.clear()


# -- the server edges ---------------------------------------------------------


class _AsyncNodeBase:
    """Shared shell of the asyncio node edges: hub, runtime, lifecycle.

    ``sock`` is the socket the subclass bound at construction (so the
    node's address is known before it starts).  Stopping closes it and the
    outbound transport, started or not, and is final: the port is
    released, so ``astart()`` on a stopped node raises ``RuntimeError`` --
    build a new node.
    """

    scheme = "http"

    def __init__(
        self,
        sock: socket.socket,
        transport: AsyncResilientTransport,
        hub: Optional[MetricsHub] = None,
    ) -> None:
        self._sock = sock
        host, port = sock.getsockname()[:2]
        self.loop = transport.loop
        self.host = host
        self.port = port
        self.transport = transport
        self.base_address = f"{self.scheme}://{host}:{port}"
        # Per-node hub (chained to the default) -- what GET /v1/metrics
        # serves.  Pass an explicit hub to serve a wider scope instead
        # (the soak harness's metrics edge exports the default hub, i.e.
        # the whole mesh's aggregated counters).
        self.hub = hub if hub is not None else MetricsHub(
            parent=default_hub(), name=self.base_address
        )
        self.runtime = SoapRuntime(self.base_address, transport, metrics=self.hub)
        self._started = False

    # Sync lifecycle (foreign thread) -----------------------------------------

    def start(self) -> None:
        """Start serving (from outside the loop; see :meth:`astart`)."""
        if self._started:
            return
        run_on_loop(self.loop, self.astart())

    def stop(self) -> None:
        """Stop serving; close the bound socket and the outbound transport."""
        if self._started:
            run_on_loop(self.loop, self.astop())
        else:
            # Never started: nothing is on the loop, only the eager socket.
            self._sock.close()
            self.transport.close()

    def _check_not_stopped(self) -> None:
        if self._sock.fileno() < 0:
            raise RuntimeError(
                f"{self.base_address} was stopped and its socket closed; "
                f"a stopped {type(self).__name__} cannot be restarted"
            )

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # Async lifecycle (on the loop) -------------------------------------------

    async def astart(self) -> None:
        raise NotImplementedError

    async def astop(self) -> None:
        raise NotImplementedError

    async def __aenter__(self):
        await self.astart()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.astop()


class AsyncUdpNode(_AsyncNodeBase):
    """A SOAP runtime served over a real UDP socket on the event loop.

    The node binds one plain non-blocking socket at construction (so its
    address is known before it starts) and shares it with its
    :class:`AioUdpTransport`: sends are direct ``sendto`` calls, and a
    ``loop.add_reader`` callback feeds ``runtime.receive`` up to
    :data:`RECV_SWEEP_DATAGRAMS` datagrams per wake-up, so a backlog is
    drained in one pass and the engine's per-instant flush batches what
    it produced.  A datagram whose processing raises is counted
    (``udp.receive-errors`` on the node hub), reported to the loop's
    exception handler, and does not cost the rest of the sweep.

    Addresses: ``udp://host:port/path``.
    """

    scheme = "udp"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        buffer_bytes: int = 1 << 22,
        max_datagram_bytes: int = MAX_DATAGRAM_BYTES,
        hub: Optional[MetricsHub] = None,
    ) -> None:
        sock = _udp_socket(host, port, buffer_bytes)
        transport = AioUdpTransport(
            loop=loop,
            max_datagram_bytes=max_datagram_bytes,
            buffer_bytes=buffer_bytes,
            sock=sock,
        )
        super().__init__(sock, transport, hub=hub)
        self.datagrams_received = 0

    async def astart(self) -> None:
        if self._started:
            return
        self._check_not_stopped()
        self.loop.add_reader(self._sock, self._on_readable)
        self._started = True

    async def astop(self) -> None:
        if self._started:
            self._started = False
            self.loop.remove_reader(self._sock)
        await self.transport.aclose()

    def _on_readable(self) -> None:
        try:
            buffer = _recv_scratch.buffer
        except AttributeError:
            buffer = _recv_scratch.buffer = memoryview(bytearray(1 << 16))
        for _ in range(RECV_SWEEP_DATAGRAMS):
            try:
                size, addr = self._sock.recvfrom_into(buffer)
            except OSError:
                # Drained (BlockingIOError), or an error queued on the
                # socket such as ICMP port-unreachable for an earlier
                # send: either way this wake-up is over, and the reader
                # stays registered for the next datagram.
                return
            self.datagrams_received += 1
            try:
                self.runtime.receive(
                    bytes(buffer[:size]), source=f"udp://{addr[0]}:{addr[1]}"
                )
            except Exception as exc:  # noqa: BLE001 - one datagram, not the sweep
                self.hub.counter("udp.receive-errors").inc()
                self.loop.call_exception_handler({
                    "message": f"{self.base_address}: datagram from {addr} raised",
                    "exception": exc,
                })


class _Rejected(Exception):
    """A request the HTTP edge answers with ``status`` and a close."""

    def __init__(self, status: int) -> None:
        super().__init__(status)
        self.status = status


class AsyncHttpNode(_AsyncNodeBase):
    """A SOAP runtime served over asyncio keep-alive HTTP/1.1.

    Speaks the versioned node-edge API (docs/WIRE.md):

    * ``POST /v1/gossip`` -- idempotent envelope ingest (202, or 200 with
      ``Idempotent-Replay: true`` for a retried publish).
    * ``GET /v1/metrics`` -- the node's hub, Prometheus text format.
    * ``GET /v1/health`` -- liveness JSON.
    * ``GET /v1/obs/*`` -- the paginated observability read models.

    Any other path answers ``404``.  A request the edge cannot frame -- a
    request line without a path, a header line over the stream limit
    (64 KiB), a ``Content-Length`` that is not a decimal count -- answers
    ``400``, and a body over :data:`MAX_REQUEST_BODY_BYTES` ``413``; each
    is counted as ``http.malformed`` on the node hub and closes the
    connection.  Thousands of connections share the one event loop; no
    thread per request.
    """

    scheme = "http"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        idempotency_capacity: int = 65536,
        backlog: int = 512,
        hub: Optional[MetricsHub] = None,
        admission: Optional[EdgeAdmission] = None,
    ) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(backlog)
            listener.setblocking(False)
        except OSError:
            listener.close()
            raise
        super().__init__(listener, AioHttpTransport(loop=loop), hub=hub)
        self.idempotency = IdempotencyIndex(idempotency_capacity)
        #: Optional token-bucket gate on POST ingest (None = admit all).
        self.admission = admission
        self._server: Optional[asyncio.base_events.Server] = None
        self.requests_served = 0

    async def astart(self) -> None:
        if self._started:
            return
        self._check_not_stopped()
        self._server = await asyncio.start_server(
            self._serve_connection, sock=self._sock
        )
        self._started = True

    async def astop(self) -> None:
        if self._started:
            self._started = False
            self._server.close()
            await self._server.wait_closed()
        self._sock.close()
        await self.transport.aclose()

    # -- request handling -----------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _Rejected as rejected:
                    self.hub.counter("http.malformed").inc()
                    writer.write(self._render_response(
                        rejected.status, {}, b"", keep_alive=False
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, extra, payload = self._route(method, path, headers, body)
                self.requests_served += 1
                keep_alive = headers.get("connection", "").lower() != "close"
                writer.write(
                    self._render_response(status, extra, payload, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """``(method, path, headers, body)``, or ``None`` at end of stream.

        Raises :class:`_Rejected` for a request that cannot be framed.
        """
        try:
            request_line = await reader.readline()
            if not request_line:
                return None
            parts = request_line.split()
            if len(parts) < 2:
                raise ValueError("request line without a path")
            method = parts[0].decode("latin-1").upper()
            path = parts[1].decode("latin-1")
            headers: Dict[str, str] = {}
            while True:
                # A line over the stream limit raises ValueError here.
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    return None
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            declared = headers.get("content-length") or "0"
            if not declared.isdigit():
                raise ValueError(f"Content-Length {declared!r}")
            length = int(declared)
        except ValueError:
            raise _Rejected(400) from None
        if length > MAX_REQUEST_BODY_BYTES:
            raise _Rejected(413)
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, headers, body

    def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        raw_path = path
        path = strip_query(path)
        if method == "POST" and path == GOSSIP_PATH:
            status, extra, process = ingest_response(
                self.idempotency, headers, body, self.hub,
                admission=self.admission,
            )
            if process:
                try:
                    self.runtime.receive(body, source=None)
                except Exception:  # noqa: BLE001 - a raising service must
                    pass  # not take the connection (or its pipeline) down
            return status, extra, b""
        if method == "GET":
            if path == HEALTH_PATH:
                payload = health_payload(
                    self.base_address,
                    self.runtime.service_paths(),
                    extra={"requests_served": self.requests_served},
                )
                return 200, {"Content-Type": JSON_CONTENT_TYPE}, payload
            # Observability read models get the raw path: pagination rides
            # in the query string.
            obs = obs_response(hub_of(self.runtime.metrics), raw_path)
            if obs is not None:
                return obs
            if path == METRICS_PATH:
                text = prometheus_text(hub_of(self.runtime.metrics))
                extra = {"Content-Type": PROMETHEUS_CONTENT_TYPE}
                return 200, extra, text.encode("utf-8")
        return 404, {}, b""

    @staticmethod
    def _render_response(
        status: int, headers: Dict[str, str], body: bytes, keep_alive: bool
    ) -> bytes:
        reason = _STATUS_REASONS.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Length: {len(body)}",
            "Connection: " + ("keep-alive" if keep_alive else "close"),
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
