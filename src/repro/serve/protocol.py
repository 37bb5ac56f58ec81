"""The versioned, length-framed wire protocol of the serving layer.

One gesture-serving connection speaks a simple framed protocol over any
ordered byte stream (TCP here; the framing is transport-agnostic):

* every message is a 4-byte big-endian length prefix followed by a JSON
  body (UTF-8).  JSON keeps float fidelity — Python serializes floats
  with ``repr``, which is shortest-round-trip, so event payloads survive
  the wire bit-exactly;
* the first message on a connection MUST be a ``hello`` carrying the
  protocol name, version, tenant and session id; the server answers
  ``hello_ack`` (or a terminal ``error`` on a name/version mismatch);
* sensor data flows client → server as ``frames`` batches (per-frame
  ``[index, time_s, [values...]]`` triples — index gaps survive the wire,
  which is how dropped packets surface as pipeline ``StreamGap``
  events); recognition output flows server → client as ``events``
  batches; ``heartbeat`` flows both ways during silence;
* ``stats`` asks the server for its ``repro.obs`` snapshot
  (``stats_reply``, stamped with the server's clocks — see the contract
  below), ``watch`` subscribes the connection to periodic ``telemetry``
  pushes from the server's
  :class:`~repro.obs.telemetry.TelemetryPlane` (rates, sliding
  quantiles, health states, firing alerts — what ``airfinger top``
  renders), and ``bye`` closes the session cleanly: the server drains
  the queue, flushes the pipeline, sends the tail events and a final
  ``bye``;
* ``checkpoint``/``checkpoint_reply`` and ``restore``/``restore_reply``
  are the shard-migration control pair: a checkpoint captures one
  session's streaming-engine state (:mod:`repro.serve.checkpoint`) and
  detaches it, a restore adopts that state on another worker.

**Clock contract (v2 stats stamps).**  ``server_time_s`` is the
server's *wall* clock — display and cross-host log correlation only; an
NTP step can bend it either way.  ``server_mono_s`` and ``uptime_s``
come from the server's *monotonic* clock (one coherent reading per
reply), so every duration or rate a client derives from two replies
must subtract the monotonic stamps, never the wall stamps.  The
heartbeat ``t``/``echo`` RTT mechanism is likewise wall-free: the echo
carries the *sender's own* monotonic reading back, so RTT needs no
clock agreement at all.

Protocol v2 added the ``watch``/``telemetry`` pair, the optional
``t``/``echo`` heartbeat fields (RTT measurement) and the stats clock
stamps; later additions within v2 (``server_mono_s``, the
checkpoint/restore control pair, the ``shards`` field of ``hello_ack``)
are additive as well — a v2 peer ignores their absence.

:func:`encode_event`/:func:`decode_event` round-trip every pipeline
event dataclass (:class:`SegmentEvent`, :class:`GestureEvent`,
:class:`ScrollUpdate`, :class:`StreamGap`, :class:`ChannelMaskEvent`)
exactly — the loopback fidelity suite pins ``repr`` equality between
events received over a serve session and an in-process
:meth:`AirFinger.feed_frames <repro.core.pipeline.AirFinger.feed_frames>`
replay.
"""

from __future__ import annotations

import json
import struct
from typing import Iterable, Iterator

from repro.acquisition.stream import FrameBlock, RssFrame
from repro.core.events import (
    ChannelMaskEvent,
    GestureEvent,
    ScrollUpdate,
    SegmentEvent,
    StreamGap,
)

__all__ = [
    "PROTOCOL_NAME",
    "PROTOCOL_VERSION",
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "encode_message",
    "MessageDecoder",
    "hello",
    "hello_ack",
    "check_hello",
    "frames_message",
    "decode_frames",
    "events_message",
    "decode_events",
    "encode_event",
    "decode_event",
    "iter_decoded_events",
    "heartbeat",
    "stats_request",
    "stats_reply",
    "checkpoint_request",
    "checkpoint_reply",
    "restore_request",
    "restore_reply",
    "watch",
    "telemetry_message",
    "bye",
    "error_message",
]

#: Protocol identity carried (and checked) in every ``hello``.
PROTOCOL_NAME = "airfinger-serve"
#: Bump on any wire-incompatible change; the handshake rejects mismatches.
#: v2: watch/telemetry, heartbeat RTT echo, stats time/uptime stamps.
PROTOCOL_VERSION = 2
#: Upper bound on one framed message; a peer announcing more is corrupt
#: (or hostile) and the decoder refuses to buffer it.
MAX_MESSAGE_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!I")


class ProtocolError(ValueError):
    """A peer violated the wire protocol (framing, handshake, payload)."""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def encode_message(message: dict) -> bytes:
    """Frame *message* as ``length || JSON``; the inverse of the decoder."""
    body = json.dumps(message, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(body)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame limit")
    return _HEADER.pack(len(body)) + body


class MessageDecoder:
    """Incremental frame reassembler for one connection.

    Feed it whatever the transport hands you — single bytes, half
    messages, ten messages at once — and it yields every completed
    message in order.  State is just one ``bytearray``.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def bytes_buffered(self) -> int:
        """Bytes received but not yet part of a complete message."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        """Absorb *data*; return every message it completed."""
        self._buffer.extend(data)
        messages: list[dict] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_MESSAGE_BYTES:
                raise ProtocolError(
                    f"peer announced a {length}-byte frame "
                    f"(limit {MAX_MESSAGE_BYTES}); stream is corrupt")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            try:
                message = json.loads(body)
            except ValueError as exc:
                raise ProtocolError(f"undecodable message body: {exc}")
            if not isinstance(message, dict) or "type" not in message:
                raise ProtocolError(
                    "message must be a JSON object with a 'type' field")
            messages.append(message)


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------

def hello(tenant: str, session: str,
          sample_rate_hz: float | None = None) -> dict:
    """The client's opening message: who it is and what it speaks."""
    message = {"type": "hello", "protocol": PROTOCOL_NAME,
               "version": PROTOCOL_VERSION,
               "tenant": str(tenant), "session": str(session)}
    if sample_rate_hz is not None:
        message["sample_rate_hz"] = float(sample_rate_hz)
    return message


def hello_ack(session: str, heartbeat_interval_s: float,
              max_batch_frames: int,
              shards: list[dict] | None = None) -> dict:
    """The server's handshake answer, advertising its tuning knobs.

    A fleet control front-end additionally advertises ``shards`` — one
    ``{"shard": i, "host": ..., "port": ...}`` entry per worker — so a
    client can route its data connection with
    :func:`repro.serve.shard.shard_for_tenant`.  Additive: single-process
    servers omit the field.
    """
    message = {"type": "hello_ack", "protocol": PROTOCOL_NAME,
               "version": PROTOCOL_VERSION, "session": str(session),
               "heartbeat_interval_s": float(heartbeat_interval_s),
               "max_batch_frames": int(max_batch_frames)}
    if shards is not None:
        message["shards"] = [
            {"shard": int(s["shard"]), "host": str(s["host"]),
             "port": int(s["port"])} for s in shards]
    return message


def check_hello(message: dict) -> tuple[str, str]:
    """Validate a ``hello``; returns ``(tenant, session)``.

    Raises :class:`ProtocolError` on a wrong message type, protocol name
    or version — version negotiation is deliberately absent (one version
    per deployment; the ack tells the client what the server runs).
    """
    if message.get("type") != "hello":
        raise ProtocolError(
            f"expected hello, got {message.get('type')!r}")
    if message.get("protocol") != PROTOCOL_NAME:
        raise ProtocolError(
            f"unknown protocol {message.get('protocol')!r} "
            f"(this server speaks {PROTOCOL_NAME!r})")
    if message.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {message.get('version')!r} unsupported "
            f"(this server speaks v{PROTOCOL_VERSION})")
    tenant = message.get("tenant")
    session = message.get("session")
    if not tenant or not isinstance(tenant, str):
        raise ProtocolError("hello carries no tenant id")
    if not session or not isinstance(session, str):
        raise ProtocolError("hello carries no session id")
    return tenant, session


# ---------------------------------------------------------------------------
# sensor frames
# ---------------------------------------------------------------------------

def frames_message(frames: Iterable[RssFrame] | FrameBlock) -> dict:
    """Pack a frame batch as ``[[index, time_s, [values...]], ...]``."""
    if isinstance(frames, FrameBlock):
        frames = frames.frames()
    payload = [[f.index, f.time_s, list(f.values)] for f in frames]
    return {"type": "frames", "frames": payload}


def _decode_frame(index, time_s, values) -> RssFrame:
    if not isinstance(values, list) or not values:
        raise ProtocolError(
            f"frame values must be a non-empty list, got {values!r}")
    return RssFrame(index=int(index), time_s=float(time_s),
                    values=tuple(float(v) for v in values))


def decode_frames(message: dict) -> list[RssFrame]:
    """Rebuild the :class:`RssFrame` batch of a ``frames`` message."""
    try:
        return [_decode_frame(index, time_s, values)
                for index, time_s, values in message["frames"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed frames payload: {exc}")


# ---------------------------------------------------------------------------
# pipeline events
# ---------------------------------------------------------------------------

def _encode_segment(segment: SegmentEvent) -> dict:
    return {"start_index": segment.start_index,
            "end_index": segment.end_index,
            "start_time_s": segment.start_time_s,
            "end_time_s": segment.end_time_s}


def _decode_segment(payload: dict) -> SegmentEvent:
    return SegmentEvent(
        start_index=int(payload["start_index"]),
        end_index=int(payload["end_index"]),
        start_time_s=float(payload["start_time_s"]),
        end_time_s=float(payload["end_time_s"]))


def encode_event(event) -> dict:
    """One pipeline event as a JSON-ready dict with a ``kind`` tag."""
    if isinstance(event, GestureEvent):
        return {"kind": "gesture", "label": event.label,
                "confidence": event.confidence,
                "segment": _encode_segment(event.segment),
                "accepted": event.accepted}
    if isinstance(event, ScrollUpdate):
        return {"kind": "scroll", "direction": event.direction,
                "velocity_mm_s": event.velocity_mm_s,
                "displacement_mm": event.displacement_mm,
                "time_s": event.time_s, "final": event.final,
                "segment": _encode_segment(event.segment)}
    if isinstance(event, StreamGap):
        return {"kind": "stream_gap", "start_index": event.start_index,
                "end_index": event.end_index,
                "duration_s": event.duration_s, "time_s": event.time_s}
    if isinstance(event, ChannelMaskEvent):
        return {"kind": "channel_mask", "channel": event.channel,
                "masked": event.masked, "reason": event.reason,
                "index": event.index, "time_s": event.time_s}
    if isinstance(event, SegmentEvent):
        return {"kind": "segment", **_encode_segment(event)}
    raise ProtocolError(f"cannot encode event of type {type(event).__name__}")


def decode_event(payload: dict):
    """The inverse of :func:`encode_event`; exact dataclass round-trip."""
    try:
        kind = payload["kind"]
        if kind == "segment":
            return _decode_segment(payload)
        if kind == "gesture":
            return GestureEvent(
                label=str(payload["label"]),
                confidence=float(payload["confidence"]),
                segment=_decode_segment(payload["segment"]),
                accepted=bool(payload["accepted"]))
        if kind == "scroll":
            return ScrollUpdate(
                direction=int(payload["direction"]),
                velocity_mm_s=float(payload["velocity_mm_s"]),
                displacement_mm=float(payload["displacement_mm"]),
                time_s=float(payload["time_s"]),
                final=bool(payload["final"]),
                segment=_decode_segment(payload["segment"]))
        if kind == "stream_gap":
            return StreamGap(
                start_index=int(payload["start_index"]),
                end_index=int(payload["end_index"]),
                duration_s=float(payload["duration_s"]),
                time_s=float(payload["time_s"]))
        if kind == "channel_mask":
            return ChannelMaskEvent(
                channel=int(payload["channel"]),
                masked=bool(payload["masked"]),
                reason=str(payload["reason"]),
                index=int(payload["index"]),
                time_s=float(payload["time_s"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed event payload: {exc}")
    raise ProtocolError(f"unknown event kind {kind!r}")


def events_message(events: Iterable) -> dict:
    """Pack recognition events for the client."""
    return {"type": "events", "events": [encode_event(e) for e in events]}


def decode_events(message: dict) -> list:
    """Rebuild the event batch of an ``events`` message."""
    try:
        payloads = message["events"]
    except KeyError as exc:
        raise ProtocolError(f"malformed events message: {exc}")
    return [decode_event(p) for p in payloads]


def iter_decoded_events(messages: Iterable[dict]) -> Iterator:
    """Flatten the events of every ``events`` message in *messages*."""
    for message in messages:
        if message.get("type") == "events":
            yield from decode_events(message)


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------

def heartbeat(t: float | None = None, echo: float | None = None) -> dict:
    """Keep-alive; either peer may send one during silence.

    ``t`` is the sender's clock reading; a peer receiving a heartbeat
    with ``t`` answers one carrying it back as ``echo``, which is how
    :class:`~repro.serve.client.ServeClient` measures round-trip time
    into ``serve.heartbeat_rtt_ms`` without any clock agreement.
    """
    message: dict = {"type": "heartbeat"}
    if t is not None:
        message["t"] = float(t)
    if echo is not None:
        message["echo"] = float(echo)
    return message


def stats_request() -> dict:
    """Ask the server for its metrics snapshot."""
    return {"type": "stats"}


def stats_reply(snapshot: dict, server_time_s: float | None = None,
                uptime_s: float | None = None,
                server_mono_s: float | None = None) -> dict:
    """The server's metrics snapshot (a ``MetricsSnapshot.to_dict()``).

    Clock contract (see the module docstring): ``server_time_s`` is the
    wall clock, display only; ``server_mono_s`` and ``uptime_s`` are one
    coherent monotonic reading, the only stamps safe to subtract — two
    replies diff into rates via their monotonic stamps no matter how the
    wall clock stepped in between.  Pre-v2 replies lack all three.
    """
    message = {"type": "stats_reply", "metrics": snapshot}
    if server_time_s is not None:
        message["server_time_s"] = float(server_time_s)
    if uptime_s is not None:
        message["uptime_s"] = float(uptime_s)
    if server_mono_s is not None:
        message["server_mono_s"] = float(server_mono_s)
    return message


def checkpoint_request(tenant: str, session: str) -> dict:
    """Ask the server to capture + detach one session for migration."""
    return {"type": "checkpoint", "tenant": str(tenant),
            "session": str(session)}


def checkpoint_reply(state: dict | None,
                     error: str | None = None) -> dict:
    """The captured session state (or an error; the session is gone
    from the source worker only on success)."""
    message: dict = {"type": "checkpoint_reply", "state": state}
    if error is not None:
        message["error"] = str(error)
    return message


def restore_request(state: dict) -> dict:
    """Ship a checkpointed session state to its destination worker."""
    return {"type": "restore", "state": state}


def restore_reply(session: str | None, error: str | None = None) -> dict:
    """Acknowledge a restore; carries the adopted session id."""
    message: dict = {"type": "restore_reply", "session": session}
    if error is not None:
        message["error"] = str(error)
    return message


def watch(interval_s: float | None = None) -> dict:
    """Subscribe this connection to periodic ``telemetry`` pushes.

    ``interval_s`` requests a push cadence (the server rounds it to a
    multiple of its own telemetry tick and never pushes faster than it
    samples); omit it to receive every tick.  ``interval_s <= 0``
    cancels the subscription.
    """
    message: dict = {"type": "watch"}
    if interval_s is not None:
        message["interval_s"] = float(interval_s)
    return message


def telemetry_message(payload: dict) -> dict:
    """One telemetry tick pushed to a ``watch`` subscriber.

    *payload* is a :meth:`repro.obs.telemetry.TelemetryPlane.tick`
    dict — already sanitized to finite floats, so it survives the
    ``allow_nan=False`` framing.
    """
    return {"type": "telemetry", "telemetry": payload}


def bye() -> dict:
    """Graceful close: the server flushes the pipeline and echoes ``bye``."""
    return {"type": "bye"}


def error_message(code: str, detail: str) -> dict:
    """Terminal error; the sender closes the connection after it."""
    return {"type": "error", "code": str(code), "detail": str(detail)}
