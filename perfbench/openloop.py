"""Open-loop TCP load: back-to-back device sessions on a fixed schedule.

Each *slot* is one device connection at a time; a slot replays device
sessions back to back (connect, ``hello``, 10-frame ``frames`` sends,
``bye``, wait for the server's ``bye``, close).  Every send has a due
time on an absolute schedule fixed before the run starts, so a stalled
server never lowers the offered load: its stall shows as latency, timed
from the due time.  How late the generator itself ran against its
schedule is recorded per send (``lag``).  Only ``len(slots)``
connections are ever open at once, because a slot opens its next
session only after the previous one closed.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import time
from dataclasses import dataclass, field

from repro.serve import protocol

TENANT = "perfbench"


@dataclass
class SessionRun:
    """One device session: what is sent, when, and what came back."""

    session_id: str
    template: int
    sends: list[bytes]
    frames_per_send: list[int]
    start_s: float
    period_s: float
    #: (receive time, decoded event) in arrival order
    received: list = field(default_factory=list)
    send_lag_s: list[float] = field(default_factory=list)
    decode_s: float = 0.0
    error: str | None = None
    done: asyncio.Future | None = None

    def due(self, k: int) -> float:
        """Due time of send *k*; ``k == len(sends)`` is the ``bye``."""
        return self.start_s + k * self.period_s

    @property
    def frames(self) -> int:
        return sum(self.frames_per_send)


class _DeviceProtocol(asyncio.Protocol):
    def __init__(self, run: SessionRun, loop) -> None:
        self.run = run
        self.loop = loop
        self.decoder = protocol.MessageDecoder()

    def data_received(self, data: bytes) -> None:
        run = self.run
        try:
            messages = self.decoder.feed(data)
        except protocol.ProtocolError as exc:
            self._finish(f"protocol: {exc}")
            return
        for message in messages:
            kind = message.get("type")
            if kind == "events":
                t0 = time.perf_counter()
                events = protocol.decode_events(message)
                run.decode_s += time.perf_counter() - t0
                now = self.loop.time()
                run.received.extend((now, e) for e in events)
            elif kind == "bye":
                self._finish(None)
            elif kind == "error":
                self._finish(f"server error: {message.get('detail')}")

    def connection_lost(self, exc) -> None:
        self._finish("connection lost before bye")

    def _finish(self, error: str | None) -> None:
        done = self.run.done
        if done is not None and not done.done():
            self.run.error = error
            done.set_result(None)


async def _sleep_until(loop, t: float) -> None:
    delay = t - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)


async def _run_slot(loop, host: str, port: int, runs: list[SessionRun],
                    timeout_s: float) -> None:
    bye = protocol.encode_message(protocol.bye())
    for run in runs:
        await _sleep_until(loop, run.start_s)
        run.done = loop.create_future()
        try:
            transport, _ = await loop.create_connection(
                lambda: _DeviceProtocol(run, loop), host, port)
        except OSError as exc:
            run.error = f"connect: {exc}"
            continue
        transport.write(protocol.encode_message(
            protocol.hello(TENANT, run.session_id)))
        for k, payload in enumerate(run.sends):
            due = run.due(k)
            await _sleep_until(loop, due)
            if run.done.done():
                break
            run.send_lag_s.append(loop.time() - due)
            transport.write(payload)
        await _sleep_until(loop, run.due(len(run.sends)))
        if not run.done.done():
            transport.write(bye)
        try:
            await asyncio.wait_for(asyncio.shield(run.done), timeout_s)
        except asyncio.TimeoutError:
            run.error = "timed out waiting for bye"
        transport.close()


def schedule(slots: int, templates: list[list[bytes]],
             frames_per_send: list[list[int]], order: list[int],
             period_s: float, gap_sends: int, start_s: float,
             seconds: float, prefix: str,
             round_size: int | None = None) -> list[list[SessionRun]]:
    """Plan back-to-back sessions per slot within *seconds* of schedule.

    Slot ``c`` is offset by ``c / slots`` of a period so sends interleave;
    its ``k``-th session plays template ``order[k * slots + c]`` (cyclic).
    A session is planned only if its ``bye`` falls inside the window, and
    each slot always gets at least one session.  With *round_size* (a
    multiple of *slots*), the plan holds whole rounds of that many
    consecutive entries of *order*: as many as fit in the window, at
    least one even past it.  An *order* whose rounds each hold the same
    mix of sessions makes every run serve that mix.
    """
    per_round = round_size // slots if round_size else 1
    plans: list[list[SessionRun]] = [[] for _ in range(slots)]
    end_s = start_s + seconds
    for c in range(slots):
        cursor = start_s + c * period_s / slots
        while True:
            k = len(plans[c])
            template = order[(k * slots + c) % len(order)]
            run = SessionRun(session_id=f"{prefix}-{c}-{k}",
                             template=template, sends=templates[template],
                             frames_per_send=frames_per_send[template],
                             start_s=cursor, period_s=period_s)
            if k >= per_round and run.due(len(run.sends)) > end_s:
                break
            plans[c].append(run)
            cursor = run.due(len(run.sends) + gap_sends)
    if round_size:
        keep = min(len(plan) for plan in plans) // per_round * per_round
        plans = [plan[:keep] for plan in plans]
    return plans


def run_load(host: str, port: int, plan_fn,
             timeout_s: float = 30.0) -> list[SessionRun]:
    """Drive the planned sessions; returns them with what came back.

    *plan_fn* receives the loop's current time and returns the per-slot
    plans, so the schedule is anchored just before the first send.  The
    collector is paused for the run so a collection pass over this
    process's inputs never stalls the schedule.
    """
    async def main():
        loop = asyncio.get_running_loop()
        plans = plan_fn(loop.time() + 0.05)
        await asyncio.gather(*(_run_slot(loop, host, port, p, timeout_s)
                               for p in plans))
        return [r for p in plans for r in p]

    gc.collect()
    gc.disable()
    try:
        return asyncio.run(main())
    finally:
        gc.enable()


def control_stats(host: str, port: int, session_id: str) -> dict:
    """One short control session: ``hello``, ``stats``, ``bye``."""
    decoder = protocol.MessageDecoder()
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(protocol.encode_message(
            protocol.hello(TENANT + "-control", session_id))
            + protocol.encode_message(protocol.stats_request()))
        reply = None
        while reply is None:
            data = sock.recv(1 << 20)
            if not data:
                raise ConnectionError("server closed the control session")
            for message in decoder.feed(data):
                if message.get("type") == "stats_reply":
                    reply = message
                elif message.get("type") == "error":
                    raise ConnectionError(message.get("detail"))
        sock.sendall(protocol.encode_message(protocol.bye()))
        while True:
            data = sock.recv(1 << 20)
            if not data or any(m.get("type") == "bye"
                               for m in decoder.feed(data)):
                break
    return reply["metrics"]


def counter_total(stats: dict, name: str) -> float:
    """Sum one counter over all its label sets in a stats payload."""
    counters = stats["metrics"]["counters"]
    return sum(v for k, v in counters.items()
               if k == name or k.startswith(name + "{"))
