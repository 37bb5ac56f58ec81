"""One session contract over every transport: TCP and UDP alike.

Each test runs against both :class:`~repro.serve.server.AirFingerServer`
(length-framed TCP) and :class:`~repro.serve.udp.UdpAirFingerServer`
(one message per datagram) with their matching clients, and pins what a
device sees: the ``hello_ack`` fields, the heartbeat echo and the
heartbeat on output silence, the ``stats_reply`` keys and clock stamps,
``watch`` telemetry pushes, checkpoint on one server + restore on
another reproducing the unmigrated events, and the ``bye`` flush tail.
Malformed input — frames that change the session's channel count or
carry a non-integral index or a non-finite number, a non-numeric
``watch`` interval — is answered with a ``protocol`` error and never
takes the server down for the other sessions.  Two
transport-specific edges close the file: TCP reassembles a message
split across the handshake read, and UDP refuses a checkpoint too big
for one datagram without losing the session.
"""

from __future__ import annotations

import asyncio
import json
import struct
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    AirFingerServer,
    ServeClient,
    ServeConfig,
    SessionManager,
    UdpAirFingerServer,
    UdpServeClient,
    protocol,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from golden.stream_cases import build_stream_cases  # noqa: E402

HOST = "127.0.0.1"
TRANSPORTS = {
    "tcp": (AirFingerServer, ServeClient),
    "udp": (UdpAirFingerServer, UdpServeClient),
}


@pytest.fixture(scope="module")
def frames():
    return build_stream_cases()[0][1]


@pytest.fixture(params=sorted(TRANSPORTS))
def transport(request):
    return TRANSPORTS[request.param]


def _manager(config: ServeConfig | None = None) -> SessionManager:
    registry = MetricsRegistry()
    return SessionManager(
        config or ServeConfig(),
        engine_factory=lambda: AirFinger(metrics=registry,
                                         tracer=Tracer(sample=0.0)),
        metrics=registry, tracer=Tracer(sample=0.0))


def _engine() -> AirFinger:
    return AirFinger(metrics=MetricsRegistry(), tracer=Tracer(sample=0.0))


def _reference(frames) -> list[str]:
    return [repr(e) for e in _engine().feed_frames(frames)]


async def _send_raw_row(client, row: str) -> None:
    """Send a one-row ``frames`` message with *row* spliced in verbatim.

    Both clients encode with ``allow_nan=False``; splicing the row into
    the encoded text lets a test send what a foreign peer could.
    """
    message = {"type": "frames", "frames": ["ROW"]}
    if isinstance(client, UdpServeClient):
        message.update(tenant=client.tenant, session=client.session)
    body = json.dumps(message).replace('"ROW"', row).encode("utf-8")
    if isinstance(client, UdpServeClient):
        client._transport.sendto(body)
    else:
        client._writer.write(struct.pack(">I", len(body)) + body)
        await client._writer.drain()


def _cut_inside_gesture(frames) -> int:
    """A prefix length whose engine flush still has events to deliver."""
    for n in range(100, len(frames), 20):
        engine = _engine()
        engine.feed_block(frames[:n])
        if engine.flush():
            return n
    raise AssertionError("the case never ends inside a gesture")


def _capture(client) -> list[dict]:
    """Record every raw message *client* absorbs, in arrival order."""
    seen: list[dict] = []
    absorb = client._absorb

    def recording(message: dict) -> None:
        seen.append(message)
        absorb(message)

    client._absorb = recording
    return seen


async def _send_all(client, frames, chunk: int = 32) -> None:
    for i in range(0, len(frames), chunk):
        await client.send_frames(frames[i:i + chunk])
        await client.pump()


async def _settle(client, quiet_s: float = 0.2) -> None:
    """Read until one quiet period passes with no new event."""
    count = -1
    while count != len(client.events):
        count = len(client.events)
        await client.pump(quiet_s)


async def _expect_error(client) -> None:
    """Read until the server's ``error`` arrives (the client raises)."""
    with pytest.raises(protocol.ProtocolError, match="server error"):
        await client._request(None, lambda: False, "error reply", 10.0)


class TestSessionContract:
    def test_hello_ack_fields(self, transport):
        server_cls, client_cls = transport
        config = ServeConfig(heartbeat_interval_s=2.5, max_batch_frames=64)

        async def run() -> dict:
            async with server_cls(_manager(config)) as server:
                client = await client_cls.connect(HOST, server.port,
                                                  "t0", "dev0")
                await client.bye()
                return client.hello_ack

        assert asyncio.run(run()) == protocol.hello_ack(
            "dev0", heartbeat_interval_s=2.5, max_batch_frames=64)

    def test_heartbeat_echo_and_silence_heartbeat(self, transport):
        server_cls, client_cls = transport
        config = ServeConfig(heartbeat_interval_s=0.05)

        async def run():
            async with server_cls(_manager(config)) as server:
                client = await client_cls.connect(HOST, server.port,
                                                  "t0", "dev0")
                rtt = await client.ping()
                await client._request(None, lambda: client.heartbeats >= 3,
                                      "silence heartbeats", 10.0)
                await client.bye()
                return rtt, client.rtts_s

        rtt, rtts = asyncio.run(run())
        assert 0.0 <= rtt < 5.0
        assert rtts == [rtt]

    def test_stats_reply_keys_match_across_transports(self, frames):
        async def run(server_cls, client_cls) -> dict:
            async with server_cls(_manager()) as server:
                client = await client_cls.connect(HOST, server.port,
                                                  "t0", "dev0")
                seen = _capture(client)
                await client.send_frames(frames[:64])
                stats = await client.stats()
                assert stats["sessions_open"] == 1
                await client.bye()
                return next(m for m in seen if m["type"] == "stats_reply")

        replies = {name: asyncio.run(run(*classes))
                   for name, classes in TRANSPORTS.items()}
        tcp, udp = replies["tcp"], replies["udp"]
        assert set(tcp) == set(udp) == {
            "type", "metrics", "server_time_s", "server_mono_s",
            "uptime_s"}
        assert set(tcp["metrics"]) == set(udp["metrics"])
        for reply in replies.values():
            assert reply["uptime_s"] >= 0.0
            counters = reply["metrics"]["metrics"]["counters"]
            assert counters['serve.frames{tenant="t0"}'] == 64

    def test_watch_delivers_telemetry(self, transport):
        server_cls, client_cls = transport

        async def run() -> dict:
            async with server_cls(_manager(),
                                  telemetry_interval_s=0.05) as server:
                client = await client_cls.connect(HOST, server.port,
                                                  "t0", "watcher")
                await client.watch()
                tick = await client.next_telemetry(timeout_s=10.0)
                await client.bye()
                return tick

        tick = asyncio.run(run())
        assert isinstance(tick, dict) and tick

    def test_checkpoint_then_restore_on_another_server(self, transport,
                                                       frames):
        server_cls, client_cls = transport
        cut = len(frames) // 2

        async def run() -> list:
            manager_a, manager_b = _manager(), _manager()
            async with server_cls(manager_a) as server_a, \
                    server_cls(manager_b) as server_b:
                dev = await client_cls.connect(HOST, server_a.port,
                                               "acme", "dev7")
                await _send_all(dev, frames[:cut])
                session = manager_a.get("acme", "dev7")
                while session.frames_in < cut or session.pending:
                    await asyncio.sleep(0.01)
                ctl = await client_cls.connect(HOST, server_a.port,
                                               "_fleet", "ctl")
                state = await ctl.checkpoint("acme", "dev7")
                await ctl.bye()
                assert manager_a.get("acme", "dev7") is None
                await _settle(dev)
                events = list(dev.events)
                await dev.close()

                ctl = await client_cls.connect(HOST, server_b.port,
                                               "_fleet", "ctl")
                assert await ctl.restore(state) == "dev7"
                await ctl.bye()
                dev = await client_cls.connect(HOST, server_b.port,
                                               "acme", "dev7")
                await _send_all(dev, frames[cut:])
                return events + await dev.bye()

        assert [repr(e) for e in asyncio.run(run())] == _reference(frames)

    def test_bye_delivers_flush_tail(self, transport, frames):
        server_cls, client_cls = transport
        cut = _cut_inside_gesture(frames)

        async def run():
            manager = _manager()
            async with server_cls(manager) as server:
                client = await client_cls.connect(HOST, server.port,
                                                  "t0", "dev0")
                seen = _capture(client)
                await _send_all(client, frames[:cut])
                events = await client.bye()
                return events, seen, manager.get("t0", "dev0")

        events, seen, live = asyncio.run(run())
        assert [repr(e) for e in events] == _reference(frames[:cut])
        assert seen[-1] == protocol.bye()
        assert live is None


class TestMalformedInput:
    # one frame row as raw JSON text, so rows the clients' strict
    # encoders refuse (NaN, Infinity, 1e400 — which ``json.loads`` reads
    # as inf) reach the server too
    @pytest.mark.parametrize("row", [
        "[50, 0.5, [1.0, 2.0]]",
        "[50, 0.5, []]",
        '[50, 0.5, "123"]',
        "[Infinity, 0.5, [{values}]]",
        "[50.5, 0.5, [{values}]]",
        "[1" + "0" * 30 + ", 0.5, [{values}]]",
        "[50, NaN, [{values}]]",
        "[50, 0.5, [NaN{rest}]]",
        "[50, 0.5, [1e400{rest}]]",
    ], ids=["two-channels", "no-channels", "string", "infinite-index",
            "fractional-index", "int64-overflow-index", "nan-time",
            "nan-value", "overflow-value"])
    def test_bad_frames_get_protocol_error(self, transport, frames, row):
        """A frames message the session's engine would choke on is
        refused before any of it is queued; other sessions carry on."""
        server_cls, client_cls = transport
        good = frames[:50]
        width = len(good[0].values)
        row = row.format(values=", ".join(["1.0"] * width),
                         rest=", 1.0" * (width - 1))

        async def run():
            manager = _manager()
            async with server_cls(manager) as server:
                bad = await client_cls.connect(HOST, server.port,
                                               "t0", "bad")
                seen = _capture(bad)
                await bad.send_frames(good)
                await _send_raw_row(bad, row)
                await _expect_error(bad)
                frames_in = manager.get("t0", "bad").frames_in
                await bad.close()
                other = await client_cls.connect(HOST, server.port,
                                                 "t0", "other")
                await _send_all(other, frames)
                return seen, frames_in, await other.bye()

        seen, frames_in, other_events = asyncio.run(run())
        (error,) = [m for m in seen if m["type"] == "error"]
        assert error["code"] == "protocol"
        assert frames_in == len(good)
        assert [repr(e) for e in other_events] == _reference(frames)

    def test_second_frames_message_changing_width(self, transport, frames):
        server_cls, client_cls = transport

        async def run() -> list[dict]:
            async with server_cls(_manager()) as server:
                client = await client_cls.connect(HOST, server.port,
                                                  "t0", "dev0")
                seen = _capture(client)
                await _send_all(client, frames[:64])
                await _settle(client, quiet_s=0.05)
                await client._send({"type": "frames", "frames": [
                    [64, 0.64, [1.0, 2.0, 3.0, 4.0]]]})
                await _expect_error(client)
                await client.close()
                return seen

        (error,) = [m for m in asyncio.run(run()) if m["type"] == "error"]
        assert error["code"] == "protocol"
        assert "4 channels" in error["detail"]

    @pytest.mark.parametrize("interval", ["abc", [1.0]])
    def test_non_numeric_watch_interval(self, transport, interval):
        server_cls, client_cls = transport
        message = {"type": "watch", "interval_s": interval}

        async def run() -> list[dict]:
            async with server_cls(_manager()) as server:
                client = await client_cls.connect(HOST, server.port,
                                                  "t0", "dev0")
                seen = _capture(client)
                await client._send(message)
                await _expect_error(client)
                await client.close()
                return seen

        (error,) = [m for m in asyncio.run(run()) if m["type"] == "error"]
        assert error["code"] == "protocol"
        assert "interval_s" in error["detail"]


class TestStreamFraming:
    def test_message_split_across_the_hello_read(self, frames):
        """A frames message whose first half rides in the same read as
        the hello is reassembled, not lost at the end of the handshake."""
        async def run() -> dict:
            manager = _manager()
            async with AirFingerServer(manager) as server:
                reader, writer = await asyncio.open_connection(
                    HOST, server.port)
                body = protocol.encode_message(
                    protocol.frames_message(frames[:40]))
                writer.write(protocol.encode_message(
                    protocol.hello("t0", "dev0")) + body[:30])
                await writer.drain()
                await asyncio.sleep(0.2)
                writer.write(body[30:] + protocol.encode_message(
                    protocol.stats_request()))
                await writer.drain()
                decoder = protocol.MessageDecoder()
                replies: list[dict] = []
                while not any(m["type"] == "stats_reply" for m in replies):
                    data = await asyncio.wait_for(reader.read(65536), 10)
                    assert data, "server closed the connection"
                    replies += decoder.feed(data)
                writer.close()
                return next(m for m in replies
                            if m["type"] == "stats_reply")

        (session,) = asyncio.run(run())["metrics"]["sessions"]
        assert session["frames_in"] == 40


class TestDatagramLimits:
    def test_checkpoint_too_big_for_a_datagram_keeps_the_session(
            self, frames):
        """A checkpoint reply over the datagram limit is refused with an
        error, and the session stays on the server instead of being
        lost."""
        async def run():
            manager = _manager()
            async with UdpAirFingerServer(manager) as server:
                dev = await UdpServeClient.connect(HOST, server.port,
                                                   "acme", "dev7")
                # queue a deep backlog straight into the session (no
                # pump wake-up), so its state outgrows one datagram
                session = manager.get("acme", "dev7")
                manager.enqueue(session, frames)
                ctl = await UdpServeClient.connect(HOST, server.port,
                                                   "_fleet", "ctl")
                with pytest.raises(protocol.ProtocolError,
                                   match="exceeds"):
                    await ctl.checkpoint("acme", "dev7")
                await ctl.bye()
                await dev.close()
                kept = manager.get("acme", "dev7")
                return kept.pending, kept.frames_in

        assert asyncio.run(run()) == (len(frames), len(frames))
