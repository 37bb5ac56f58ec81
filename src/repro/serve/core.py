"""The serve core: one session contract, whatever transport carries it.

:class:`ServeCore` holds every serving semantic the front-ends share,
over a shared :class:`~repro.serve.session.SessionManager`:

* the **handshake** (``hello`` → ``hello_ack``) and the **message
  dispatch** (``frames``, heartbeat echo, ``stats``, ``watch``,
  ``checkpoint``, ``restore``, ``bye``), with ``error`` replies;
* one **pump** task per session, woken by an event after every frame
  batch: it drains the queue through the manager's batching dispatch and
  sends the resulting events — consecutive wakes coalesce, so a client
  sending faster than the pipeline drains gets fewer, larger
  ``feed_block`` batches instead of a task pile-up — and sends protocol
  heartbeats during output silence; a ``bye`` triggers a final drain +
  engine flush, the tail events and a ``bye`` echo;
* a background **reaper** evicting sessions idle past
  ``ServeConfig.idle_timeout_s``, delivering their flush tail first;
* a background **telemetry loop** driving the
  :class:`~repro.obs.telemetry.TelemetryPlane` (on by default): every
  ``telemetry_interval_s`` it samples the manager's registry, optionally
  appends the tick to a JSONL timeline, and pushes it to every session
  subscribed via ``watch``.

A transport subclasses :class:`ServeCore` and keeps two jobs: turning
bytes into messages (bound in :meth:`ServeCore._bind`) and a per-session
:class:`Link` whose ``send(message)`` puts one message on the wire —
:mod:`repro.serve.server` over TCP, :mod:`repro.serve.udp` over
datagrams.  All pipeline work runs inline on the loop — sessions are
CPU-bound and share one core per server process; horizontal scale is
one process per core (:mod:`repro.serve.shard`).
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time

from repro.obs.telemetry import TelemetryPlane, TimelineWriter
from repro.serve import protocol
from repro.serve.session import ServeConfig, ServeSession, SessionManager

__all__ = ["Link", "ServeCore"]


class Link:
    """One session's attachment to a transport, shared by handler and pump.

    Transports subclass it with :meth:`send` (one message onto the wire)
    and :meth:`close` (drop the transport side, if it has one).
    """

    __slots__ = ("session", "wake", "closing", "said_bye", "pump",
                 "watch_every", "watch_phase")

    def __init__(self) -> None:
        self.session: ServeSession | None = None
        self.wake = asyncio.Event()
        self.closing = False
        self.said_bye = False
        self.pump: asyncio.Task | None = None
        #: push every Nth telemetry tick (0 = not subscribed)
        self.watch_every = 0
        self.watch_phase = 0

    async def send(self, message: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Drop the transport side of this link."""


def _check_width(session: ServeSession, frames: list) -> None:
    """Refuse a batch whose channel count the session's engine rejects.

    A session's channel count is fixed by its first frame: the last
    queued frame's width, else the engine's channel guard.  Checked
    before anything is queued, so a bad batch never reaches the pump.
    """
    widths = {len(frame.values) for frame in frames}
    if len(widths) > 1:
        raise protocol.ProtocolError(
            f"one frames message mixes channel counts {sorted(widths)}")
    queue = session.queue
    expected = (len(queue[-1][0].values) if queue
                else len(session.engine.channel_mask))
    if expected and widths != {expected}:
        raise protocol.ProtocolError(
            f"frames carry {widths.pop()} channels; this session "
            f"streams {expected}")


class ServeCore:
    """Transport-agnostic serving over one :class:`SessionManager`.

    Parameters
    ----------
    manager:
        The session manager doing the actual work; one per server.
    host / port:
        Bind address.  ``port=0`` picks a free port (tests); the bound
        port is available as :attr:`port` after :meth:`start`.
    telemetry:
        ``True`` (default) builds a :class:`TelemetryPlane` over the
        manager's registry; pass a pre-configured plane (custom policy,
        thresholds, clocks) or ``False``/``None`` to disable live
        telemetry — ``watch`` then fails with a protocol error.
    telemetry_interval_s:
        Sampling cadence of the default-built plane.
    timeline_path:
        When set, every telemetry tick is appended to this JSONL file
        (replayable with ``airfinger telemetry``).
    reuse_port:
        Bind with ``SO_REUSEPORT`` so several server processes share one
        port and the kernel balances incoming traffic across them.
    wall_clock / mono_clock:
        Injectable time sources.  The wall clock (``time.time``) only
        ever stamps ``server_time_s`` for human display and cross-host
        correlation; every duration — uptime, rates — derives from the
        monotonic clock, so an NTP step never bends a measurement.
        Tests inject both to pin that contract.
    """

    def __init__(self, manager: SessionManager,
                 host: str = "127.0.0.1", port: int = 0,
                 telemetry: TelemetryPlane | bool | None = True,
                 telemetry_interval_s: float = 1.0,
                 timeline_path=None, reuse_port: bool = False,
                 wall_clock=time.time, mono_clock=time.monotonic) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self._wall_clock = wall_clock
        self._mono_clock = mono_clock
        if telemetry is True:
            telemetry = TelemetryPlane(metrics=manager.metrics,
                                       interval_s=telemetry_interval_s)
        elif telemetry is False:
            telemetry = None
        self.telemetry: TelemetryPlane | None = telemetry
        self.timeline_path = timeline_path
        self._timeline: TimelineWriter | None = None
        self._reaper: asyncio.Task | None = None
        self._telemetry_task: asyncio.Task | None = None
        self._started_wall = 0.0
        self._started_mono = 0.0
        #: live links by session key, for eviction and watch delivery
        self._links: dict[tuple[str, str], Link] = {}

    @property
    def config(self) -> ServeConfig:
        return self.manager.config

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _bind(self) -> None:
        """Start receiving; sets :attr:`port` to the bound port."""
        raise NotImplementedError

    async def _unbind(self) -> None:
        """Stop receiving."""
        raise NotImplementedError

    async def start(self) -> None:
        """Bind and start serving (+ background tasks)."""
        await self._bind()
        self._started_wall = self._wall_clock()
        self._started_mono = self._mono_clock()
        self._reaper = asyncio.create_task(self._reap_idle())
        if self.telemetry is not None:
            if self.timeline_path is not None:
                self._timeline = TimelineWriter(self.timeline_path)
            self._telemetry_task = asyncio.create_task(
                self._telemetry_loop())

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start` (0.0 before it); monotonic."""
        if not self._started_mono:
            return 0.0
        return self._mono_clock() - self._started_mono

    def clock_stamps(self) -> tuple[float, float, float]:
        """``(server_time_s, server_mono_s, uptime_s)`` read coherently.

        One read per clock: the wall stamp is display-only, while the
        monotonic stamp and the uptime derive from the *same* monotonic
        reading — so two ``stats_reply`` messages always diff into a
        positive elapsed time, no matter what NTP did to the wall clock
        in between.
        """
        wall = self._wall_clock()
        mono = self._mono_clock()
        uptime = mono - self._started_mono if self._started_mono else 0.0
        return wall, mono, uptime

    async def stop(self) -> None:
        """Stop receiving, cancel background tasks and pumps."""
        for task_attr in ("_reaper", "_telemetry_task"):
            task = getattr(self, task_attr)
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
                setattr(self, task_attr, None)
        if self._timeline is not None:
            self._timeline.close()
            self._timeline = None
        await self._unbind()
        links = list(self._links.values())
        self._links.clear()
        for link in links:
            link.closing = True
            link.close()
            if link.pump is not None:
                link.pump.cancel()
        await asyncio.gather(*(link.pump for link in links if link.pump),
                             return_exceptions=True)

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``airfinger serve`` entry point)."""
        if self._reaper is None:
            await self.start()
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    async def __aenter__(self) -> "ServeCore":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    async def _open(self, link: Link, message: dict) -> bool:
        """Handshake *message* on *link*; starts its pump on success.

        A *link* that already carries the session (a resent ``hello``)
        is just acknowledged again.
        """
        try:
            tenant, session_id = protocol.check_hello(message)
        except protocol.ProtocolError as exc:
            await self._send_error(link, "handshake", str(exc))
            return False
        link.session = self.manager.open(tenant, session_id)
        self._links[link.session.key] = link
        if link.pump is None:
            link.pump = asyncio.create_task(self._pump(link))
        await link.send(self._hello_ack_message(session_id))
        return True

    def _hello_ack_message(self, session_id: str) -> dict:
        """The handshake answer; fleet front-ends add a shard listing."""
        return protocol.hello_ack(
            session_id,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            max_batch_frames=self.config.max_batch_frames)

    async def _handle_message(self, link: Link, message: dict) -> None:
        """Serve one post-handshake message; ProtocolError on violations."""
        kind = message.get("type")
        session = link.session
        if session is None and kind in ("frames", "watch", "bye"):
            raise protocol.ProtocolError(
                f"unknown session {message.get('tenant')!r}/"
                f"{message.get('session')!r} "
                f"(hello first; it may also have been evicted)")
        if kind == "frames":
            frames = protocol.decode_frames(message)
            if frames:
                _check_width(session, frames)
            self.manager.enqueue(session, frames)
            link.wake.set()
        elif kind == "heartbeat":
            # a timestamped ping wants its `t` echoed back (client RTT)
            t = message.get("t")
            if t is not None:
                await link.send(protocol.heartbeat(echo=t))
        elif kind == "stats":
            snapshot = await self._stats_payload()
            wall, mono, uptime = self.clock_stamps()
            await link.send(protocol.stats_reply(
                snapshot, server_time_s=wall, server_mono_s=mono,
                uptime_s=uptime))
        elif kind == "watch":
            self._handle_watch(link, message)
        elif kind == "checkpoint":
            await self._handle_checkpoint(link, message)
        elif kind == "restore":
            await self._handle_restore(link, message)
        elif kind == "bye":
            link.said_bye = True
            link.closing = True
            link.wake.set()
        else:
            raise protocol.ProtocolError(f"unexpected message type {kind!r}")

    async def _stats_payload(self) -> dict:
        """The ``stats_reply`` body; fleet front-ends merge shards here."""
        snapshot = self.manager.stats()
        snapshot["metrics"] = self.manager.metrics.snapshot().to_dict()
        return snapshot

    # ------------------------------------------------------------------
    # migration control
    # ------------------------------------------------------------------
    async def _handle_checkpoint(self, link: Link, message: dict) -> None:
        """Capture + detach a session; reply its serialized state."""
        from repro.serve import checkpoint as ckpt
        tenant = message.get("tenant")
        session_id = message.get("session")
        target = self.manager.get(str(tenant), str(session_id))
        if target is None:
            await link.send(protocol.checkpoint_reply(
                None, error=f"no live session {tenant!r}/{session_id!r}"))
            return
        # drop the device link first so no frame can slip into the
        # session between capture and detach
        owner = self._links.pop(target.key, None)
        if owner is not None and owner is not link:
            owner.closing = True
            owner.wake.set()
            owner.close()
        state = ckpt.checkpoint_session(self.manager, target)
        try:
            await link.send(protocol.checkpoint_reply(state))
        except protocol.ProtocolError:
            # the state cannot leave (too big for the wire): keep the
            # session here rather than lose it
            ckpt.restore_session(self.manager, state)
            raise

    async def _handle_restore(self, link: Link, message: dict) -> None:
        """Adopt a checkpointed session shipped by a shard peer."""
        from repro.serve import checkpoint as ckpt
        state = message.get("state")
        try:
            session = ckpt.restore_session(self.manager, state)
        except (ValueError, KeyError, TypeError) as exc:
            await link.send(protocol.restore_reply(
                None, error=f"restore failed: {exc}"))
            return
        await link.send(protocol.restore_reply(session.session_id))

    # ------------------------------------------------------------------
    # output pump
    # ------------------------------------------------------------------
    async def _pump(self, link: Link) -> None:
        """Dispatch queued frames and send events until the link closes."""
        session = link.session
        heartbeat_s = self.config.heartbeat_interval_s
        try:
            while True:
                try:
                    await asyncio.wait_for(link.wake.wait(),
                                           timeout=heartbeat_s)
                except asyncio.TimeoutError:
                    with contextlib.suppress(ConnectionError):
                        await link.send(protocol.heartbeat())
                    continue
                link.wake.clear()
                while session.pending and not session.closed:
                    events = self.manager.dispatch(session)
                    if events:
                        with contextlib.suppress(ConnectionError):
                            await link.send(
                                protocol.events_message(events))
                    # yield so the reader can enqueue (and so other
                    # sessions' pumps interleave between batches)
                    await asyncio.sleep(0)
                if link.closing:
                    break
            if link.said_bye and not session.closed:
                await self._send_tail(
                    link, self.manager.close(session, reason="bye"))
        except Exception as exc:
            # engine/session failure: tell the peer why before closing
            # instead of vanishing mid-conversation
            await self._send_error(
                link, "internal", f"{type(exc).__name__}: {exc}")
            link.close()
            raise
        finally:
            if self._links.get(session.key) is link:
                del self._links[session.key]

    # ------------------------------------------------------------------
    # idle eviction
    # ------------------------------------------------------------------
    async def _reap_idle(self) -> None:
        interval_s = min(self.config.idle_timeout_s / 4,
                         self.config.heartbeat_interval_s)
        while True:
            await asyncio.sleep(interval_s)
            for session, tail in self.manager.evict_idle():
                link = self._links.pop(session.key, None)
                if link is None:
                    continue
                link.closing = True
                link.wake.set()
                await self._send_tail(link, tail)
                link.close()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _handle_watch(self, link: Link, message: dict) -> None:
        if self.telemetry is None:
            raise protocol.ProtocolError(
                "telemetry is disabled on this server; watch unavailable")
        interval = message.get("interval_s")
        if interval is not None:
            try:
                interval = float(interval)
            except (TypeError, ValueError):
                interval = math.nan
            if not math.isfinite(interval):
                raise protocol.ProtocolError(
                    f"watch interval_s must be a finite number, got "
                    f"{message.get('interval_s')!r}")
            if interval <= 0:
                link.watch_every = 0
                return
        tick_s = self.telemetry.interval_s
        # never push faster than the plane samples; round a slower
        # request to the nearest whole number of ticks
        link.watch_every = 1 if interval is None else max(
            1, round(interval / tick_s))
        link.watch_phase = 0

    async def _telemetry_tick(self) -> dict:
        """One telemetry sample; fleet front-ends refresh shards first."""
        return self.telemetry.tick()

    async def _telemetry_loop(self) -> None:
        plane = self.telemetry
        while True:
            await asyncio.sleep(plane.interval_s)
            tick = await self._telemetry_tick()
            if self._timeline is not None:
                self._timeline.write(tick)
            message = None
            for link in list(self._links.values()):
                if link.watch_every <= 0 or link.closing:
                    continue
                link.watch_phase += 1
                if link.watch_phase < link.watch_every:
                    continue
                link.watch_phase = 0
                if message is None:
                    message = protocol.telemetry_message(tick)
                with contextlib.suppress(ConnectionError, OSError):
                    await link.send(message)

    # ------------------------------------------------------------------
    # closing replies
    # ------------------------------------------------------------------
    @staticmethod
    async def _send_tail(link: Link, tail: list) -> None:
        """A closed session's flush-tail events, then the final ``bye``."""
        with contextlib.suppress(ConnectionError):
            if tail:
                await link.send(protocol.events_message(tail))
            await link.send(protocol.bye())

    @staticmethod
    async def _send_error(link: Link, code: str, detail: str) -> None:
        with contextlib.suppress(Exception):
            await link.send(protocol.error_message(code, detail))
