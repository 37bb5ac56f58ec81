"""Fuzzing the serving wire decoders: messages, frames or ProtocolError.

Every byte a device sends reaches one of three decoders:
:class:`~repro.serve.protocol.MessageDecoder` (length-framed TCP),
:func:`~repro.serve.udp.decode_datagram` (one message per datagram) and
:func:`~repro.serve.protocol.decode_frames` (the ``frames`` payload).
The serve core answers :class:`ProtocolError` with a ``protocol`` error
reply and keeps the session; any other exception is an ``internal``
error or a dead connection task.  So for any input each decoder must
return its result or raise ``ProtocolError`` — nothing else.
"""

from __future__ import annotations

import json
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acquisition.stream import RssFrame
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    MessageDecoder,
    ProtocolError,
    decode_frames,
)
from repro.serve.udp import decode_datagram

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)
rows = st.lists(st.tuples(json_values, json_values, json_values).map(list),
                max_size=4)

# JSON text beyond what ``json.dumps`` writes or a frame can hold: bare
# NaN/Infinity, a float that overflows, an integer no float holds, an
# index past int64, nesting past the recursion limit, invalid UTF-8
HOSTILE_BODIES = [
    b'{"type":"frames","frames":[[NaN,Infinity,[-Infinity]]]}',
    b'{"type":"frames","frames":[[1,1e400,[1]]]}',
    b'{"type":"frames","frames":[[1,0.5,[1' + b"0" * 400 + b']]]}',
    b'{"type":"frames","frames":[[1' + b"0" * 30 + b',0.5,[1]]]}',
    b'{"type":"x","a":' + b"[" * 100_000 + b"}",
    b"\xff\xfe\x00",
]


def _frames_or_protocol_error(message) -> list[RssFrame] | None:
    try:
        frames = decode_frames(message)
    except ProtocolError:
        return None
    for frame in frames:
        assert isinstance(frame.index, int)
        assert -(1 << 63) <= frame.index < 1 << 63
        assert math.isfinite(frame.time_s)
        assert frame.values and all(map(math.isfinite, frame.values))
    return frames


def _feed_chunked(data: bytes, cuts: list[int]) -> list[dict]:
    decoder = MessageDecoder()
    messages: list[dict] = []
    bounds = sorted({min(c, len(data)) for c in cuts} | {0, len(data)})
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            messages.extend(decoder.feed(data[lo:hi]))
    except ProtocolError:
        pass
    return messages


@given(st.binary(max_size=600), st.lists(st.integers(0, 600), max_size=8))
@settings(max_examples=150, deadline=None)
def test_message_decoder_on_arbitrary_bytes(data, cuts):
    for message in _feed_chunked(data, cuts):
        assert isinstance(message, dict) and "type" in message


@given(st.lists(json_values, max_size=3), st.sampled_from(HOSTILE_BODIES),
       st.lists(st.integers(0, 200_000), max_size=6))
@settings(max_examples=60, deadline=None)
def test_message_decoder_on_framed_json(values, hostile, cuts):
    """Well-framed bodies, valid and hostile JSON, split anywhere."""
    bodies = [json.dumps({"type": "x", "v": v}).encode() for v in values]
    stream = b"".join(struct.pack("!I", len(body)) + body
                      for body in [*bodies, hostile])
    for message in _feed_chunked(stream, cuts):
        assert isinstance(message, dict) and "type" in message


def test_message_decoder_refuses_oversized_frame():
    with pytest.raises(ProtocolError):
        MessageDecoder().feed(struct.pack("!I", MAX_MESSAGE_BYTES + 1))


@given(st.binary(max_size=400))
@example(HOSTILE_BODIES[0])
@example(HOSTILE_BODIES[4])
@example(HOSTILE_BODIES[5])
@settings(max_examples=150, deadline=None)
def test_decode_datagram_on_arbitrary_bytes(data):
    try:
        message = decode_datagram(data)
    except ProtocolError:
        return
    assert isinstance(message, dict) and "type" in message


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_decode_frames_on_arbitrary_payloads(payload):
    _frames_or_protocol_error({"type": "frames", "frames": payload})


@given(rows)
@settings(max_examples=200, deadline=None)
def test_decode_frames_on_arbitrary_rows(payload):
    _frames_or_protocol_error({"type": "frames", "frames": payload})


@pytest.mark.parametrize("body", HOSTILE_BODIES[:4])
def test_decode_frames_on_hostile_json(body):
    message = json.loads(body)
    assert _frames_or_protocol_error(message) is None
