"""UDP datagram transport of the serve core.

Thousands of battery-powered devices streaming 100 Hz sensor frames do
not want a TCP connection each: head-of-line blocking turns one lost
packet into a latency spike for every frame behind it, and connection
state is pure overhead for a fire-and-forget sensor feed.  This module
carries the *same* JSON messages as :mod:`repro.serve.protocol` over
UDP — one message per datagram, no length prefix (the datagram boundary
is the frame).  It holds only the transport: the datagram codec, the
address routing and the client.  Every session semantic (handshake,
dispatch, pump, heartbeats, eviction, stats, ``watch``,
checkpoint/restore) is :class:`~repro.serve.core.ServeCore`'s, shared
with the TCP server.

**Per-datagram session addressing.**  With no connection to hang
identity on, every datagram after the ``hello`` carries its
``tenant``/``session`` fields; the server routes it to that session and
replies to the datagram's source address (last seen wins, so a device
re-appearing behind a new NAT port keeps its session).

Loss and reordering need no protocol machinery at all: a dropped
datagram drops a run of frame indices, and the pipeline already turns
index gaps into interpolation (short) or a
:class:`~repro.core.events.StreamGap` (long), while a reordered datagram
surfaces as out-of-order frames the engine counts and discards.  The
loopback suite pins both halves of that contract: with no loss the UDP
event stream is ``repr``-identical to TCP's, and under a seeded drop
schedule the only divergence is the gap events themselves.

What UDP does not guarantee here:

* **event delivery** — events ride back as datagrams to the last known
  address, with no sequence numbers; a lost event datagram is gone and
  the client cannot tell (devices that need reliable event delivery use
  the TCP front-end).  The serving metrics remain authoritative either
  way — they are recorded server-side at dispatch;
* **session ownership** — the reply address is last-source-wins with no
  secret, so any host that knows a ``tenant``/``session`` pair can
  redirect that session's events to itself;
* **large replies** — a reply must fit one datagram
  (:data:`MAX_DATAGRAM_BYTES`); a bigger ``stats_reply`` or
  ``checkpoint_reply`` is answered with an ``error`` instead; a refused
  checkpoint keeps the session on this server, and its device must send
  a new ``hello`` to reach it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time

from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.core import Link, ServeCore

__all__ = [
    "MAX_DATAGRAM_BYTES",
    "EVENTS_PER_DATAGRAM",
    "encode_datagram",
    "decode_datagram",
    "UdpAirFingerServer",
    "UdpServeClient",
]

#: Refuse to build datagrams above this (safe under the common 64 KiB
#: UDP limit with headroom for IP/UDP headers and odd MTUs).
MAX_DATAGRAM_BYTES = 57344
#: Events per outgoing datagram; event payloads are ~200 bytes, so this
#: stays an order of magnitude under :data:`MAX_DATAGRAM_BYTES`.
EVENTS_PER_DATAGRAM = 120


def encode_datagram(message: dict) -> bytes:
    """One message as one datagram: the JSON body, no length prefix."""
    body = json.dumps(message, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    if len(body) > MAX_DATAGRAM_BYTES:
        raise protocol.ProtocolError(
            f"datagram of {len(body)} bytes exceeds the "
            f"{MAX_DATAGRAM_BYTES}-byte limit")
    return body


def decode_datagram(data: bytes) -> dict:
    """The inverse of :func:`encode_datagram`."""
    try:
        message = json.loads(data)
    except ValueError as exc:
        raise protocol.ProtocolError(f"undecodable datagram: {exc}")
    if not isinstance(message, dict) or "type" not in message:
        raise protocol.ProtocolError(
            "datagram must be a JSON object with a 'type' field")
    return message


class _DatagramLink(Link):
    """A session's link: datagrams to its last source address.

    ``events`` messages leave in chunks of :data:`EVENTS_PER_DATAGRAM`.
    """

    __slots__ = ("server", "addr")

    def __init__(self, server: "UdpAirFingerServer", addr) -> None:
        super().__init__()
        self.server = server
        self.addr = addr

    async def send(self, message: dict) -> None:
        transport = self.server._transport
        if transport is None:
            return
        messages = [message]
        if message["type"] == "events":
            events = message["events"]
            messages = [
                {"type": "events",
                 "events": events[i:i + EVENTS_PER_DATAGRAM]}
                for i in range(0, len(events), EVENTS_PER_DATAGRAM)]
        for datagram in messages:
            with contextlib.suppress(OSError):
                transport.sendto(encode_datagram(datagram), self.addr)


class _ServerProtocol(asyncio.DatagramProtocol):
    def __init__(self, inbox: asyncio.Queue) -> None:
        self.inbox = inbox

    def datagram_received(self, data: bytes, addr) -> None:
        self.inbox.put_nowait((data, addr))


class UdpAirFingerServer(ServeCore):
    """Datagram front-end of the serve core.

    Takes the :class:`~repro.serve.core.ServeCore` parameters and serves
    the same session contract as the TCP server, one message per
    datagram.  One receive task hands datagrams to the core in arrival
    order; each is routed by its ``tenant``/``session`` fields to that
    session's link, whose reply address becomes the datagram's source.
    A ``hello`` opens (or re-acknowledges) a session; a datagram naming
    no live session — and a ``checkpoint``, whose fields name the
    session to capture, not the sender — is answered at its source.  A
    protocol error answers one datagram and leaves the session open.

    May share its :class:`SessionManager` with a TCP
    :class:`~repro.serve.server.AirFingerServer` — sessions are keyed by
    (tenant, session), not by transport.
    """

    _transport: asyncio.DatagramTransport | None = None
    _receiver: asyncio.Task | None = None

    async def _bind(self) -> None:
        loop = asyncio.get_running_loop()
        inbox: asyncio.Queue = asyncio.Queue()
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _ServerProtocol(inbox),
            local_addr=(self.host, self.port), **kwargs)
        self.port = self._transport.get_extra_info("sockname")[1]
        self._receiver = asyncio.create_task(self._receive(inbox))

    async def _unbind(self) -> None:
        if self._receiver is not None:
            self._receiver.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._receiver
            self._receiver = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def _receive(self, inbox: asyncio.Queue) -> None:
        while True:
            data, addr = await inbox.get()
            link = _DatagramLink(self, addr)
            try:
                message = decode_datagram(data)
                if message["type"] != "checkpoint":
                    link = self._links.get(
                        (message.get("tenant"), message.get("session")),
                        link)
                link.addr = addr  # last source wins
                if message["type"] == "hello":
                    await self._open(link, message)
                else:
                    await self._handle_message(link, message)
            except protocol.ProtocolError as exc:
                await self._send_error(link, "protocol", str(exc))
            except Exception as exc:
                # one bad datagram must not take the receive task down
                await self._send_error(
                    link, "internal", f"{type(exc).__name__}: {exc}")
                asyncio.get_running_loop().call_exception_handler(
                    {"message": "UDP datagram handling failed",
                     "exception": exc})


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------

class _ClientProtocol(asyncio.DatagramProtocol):
    def __init__(self, inbox: asyncio.Queue) -> None:
        self.inbox = inbox

    def datagram_received(self, data: bytes, addr) -> None:
        with contextlib.suppress(protocol.ProtocolError):
            # a corrupt datagram: UDP promises nothing; drop it
            self.inbox.put_nowait(decode_datagram(data))


class UdpServeClient(ServeClient):
    """One device session over the datagram transport.

    Every :class:`~repro.serve.client.ServeClient` request (``ping``,
    ``stats``, ``watch``, ``checkpoint``, ``restore``, ...) works
    unchanged; this class adds the datagram plumbing: a ``hello`` resent
    on timeout (the handshake datagrams themselves may be lost), the
    session address stamped on every datagram, and a ``bye`` resent
    likewise.

    ``send_filter`` injects deterministic datagram loss for tests: it is
    called with each outgoing *frames* datagram's ordinal and the frame
    batch, and a falsy return drops the datagram before it touches the
    socket — exactly what a lossy radio link would do to it.
    """

    def __init__(self, transport: asyncio.DatagramTransport,
                 hello_ack: dict, send_filter=None,
                 clock=time.perf_counter) -> None:
        super().__init__(None, None, hello_ack, clock=clock)
        self._transport = transport
        self.tenant = ""
        self.session = ""
        self._send_filter = send_filter
        self._incoming: asyncio.Queue[dict] = asyncio.Queue()
        self._frames_datagrams = 0
        self.dropped_datagrams = 0

    @classmethod
    async def connect(cls, host: str, port: int, tenant: str,
                      session: str, timeout_s: float = 10.0,
                      send_filter=None, retries: int = 5
                      ) -> "UdpServeClient":
        """Resolve the endpoint and complete the hello handshake.

        Retries the hello up to *retries* times (the handshake datagrams
        themselves may be lost); each attempt waits ``timeout_s /
        retries``.
        """
        client = cls(None, {}, send_filter=send_filter)
        client.tenant = str(tenant)
        client.session = str(session)
        client._transport, _ = await asyncio.get_running_loop(
            ).create_datagram_endpoint(
                lambda: _ClientProtocol(client._incoming),
                remote_addr=(host, port))
        per_try = max(timeout_s / max(retries, 1), 0.05)
        for _attempt in range(max(retries, 1)):
            await client._send(protocol.hello(tenant, session))
            try:
                message = await asyncio.wait_for(client._incoming.get(),
                                                 timeout=per_try)
            except asyncio.TimeoutError:
                continue
            if message.get("type") == "error":
                raise protocol.ProtocolError(
                    f"handshake rejected: {message.get('detail')}")
            if message.get("type") == "hello_ack":
                client.hello_ack = message
                return client
            client._absorb(message)
        await client.close()
        raise TimeoutError("hello_ack timed out over UDP")

    # ------------------------------------------------------------------
    async def _read_some(self, timeout_s: float) -> bool:
        """Absorb every datagram received, waiting up to *timeout_s* for
        the first; a datagram socket never reports a close."""
        try:
            message = await asyncio.wait_for(self._incoming.get(),
                                             timeout=timeout_s)
        except asyncio.TimeoutError:
            return True
        self._absorb(message)
        while not self._incoming.empty():
            self._absorb(self._incoming.get_nowait())
        return True

    async def _send(self, message: dict) -> None:
        # a checkpoint already names the session it captures
        message.setdefault("tenant", self.tenant)
        message.setdefault("session", self.session)
        self._transport.sendto(encode_datagram(message))

    async def send_frames(self, frames) -> None:
        """Ship one frame batch as one datagram (subject to the filter)."""
        frames = list(frames)
        ordinal = self._frames_datagrams
        self._frames_datagrams += 1
        if self._send_filter is not None and not self._send_filter(
                ordinal, frames):
            self.dropped_datagrams += 1
            return
        await super().send_frames(frames)

    async def bye(self, timeout_s: float = 30.0, retries: int = 5) -> list:
        """Graceful close; returns every event received in this session.

        The ``bye`` datagram is resent on timeout (it may be lost), and
        all event datagrams arriving before the server's answering
        ``bye`` are absorbed — the flush tail rides ahead of it.
        """
        per_try = max(timeout_s / max(retries, 1), 0.05)
        for _attempt in range(max(retries, 1)):
            try:
                await self._request(protocol.bye(),
                                    lambda: self._bye_seen,
                                    "bye handshake", per_try)
            except TimeoutError:
                continue
            except protocol.ProtocolError:
                # "unknown session": a bye resend after the server
                # already closed — the handshake is complete
                pass
            break
        await self.close()
        return self.events

    async def close(self) -> None:
        """Close the datagram socket without a ``bye``."""
        self._transport.close()
