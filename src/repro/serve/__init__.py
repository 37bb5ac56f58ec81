"""Multi-stream gesture serving: sessions, wire protocol, asyncio server.

This package turns the single-stream :class:`~repro.core.pipeline.AirFinger`
engine into a serving system: a :class:`~repro.serve.session.SessionManager`
multiplexes N concurrent device streams through per-session engine
instances with bounded queues and explicit backpressure, the serve core
(:class:`~repro.serve.core.ServeCore`) holds the session contract every
transport shares, its TCP front-end
(:class:`~repro.serve.server.AirFingerServer`) speaks the versioned
length-framed protocol of :mod:`repro.serve.protocol`, and the
load generator (:mod:`repro.serve.loadgen`) measures sessions/core, p99
frame latency and deadline-miss rate against a live server.  The server
also runs a live :class:`~repro.obs.telemetry.TelemetryPlane` by
default — ``watch`` subscribers (``airfinger top``, the loadgen's
``--telemetry-json`` timeline) receive periodic rate/quantile/health/
alert pushes.

Beyond one process: :mod:`repro.serve.shard` runs a worker process per
core behind a :class:`~repro.serve.shard.FleetControlServer` that merges
stats and telemetry, :mod:`repro.serve.udp` carries the same messages as
datagrams for connectionless devices, and :mod:`repro.serve.checkpoint`
serializes live session state so streams migrate across workers
mid-gesture with zero lost events.

See ``docs/SERVING.md`` for the architecture and the serving guarantees
(event fidelity over the wire, drop-oldest backpressure surfacing as
:class:`~repro.core.events.StreamGap` events, idle eviction).
"""

from repro.serve.checkpoint import (
    checkpoint_session,
    restore_session,
)
from repro.serve.client import ServeClient
from repro.serve.loadgen import (
    LoadConfig,
    LoadReport,
    Pacer,
    make_device_frames,
    run_load,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    MessageDecoder,
    ProtocolError,
    encode_message,
)
from repro.serve.server import AirFingerServer
from repro.serve.session import ServeConfig, ServeSession, SessionManager
from repro.serve.shard import (
    FleetControlServer,
    ShardCluster,
    ShardConfig,
    shard_for_tenant,
)
from repro.serve.udp import UdpAirFingerServer, UdpServeClient

__all__ = [
    "PROTOCOL_VERSION",
    "AirFingerServer",
    "FleetControlServer",
    "LoadConfig",
    "LoadReport",
    "MessageDecoder",
    "Pacer",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeSession",
    "SessionManager",
    "ShardCluster",
    "ShardConfig",
    "UdpAirFingerServer",
    "UdpServeClient",
    "checkpoint_session",
    "encode_message",
    "make_device_frames",
    "restore_session",
    "run_load",
    "shard_for_tenant",
]
