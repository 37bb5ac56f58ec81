"""Self-tests of the benchmark's correctness check.

A real ``AirFingerServer`` runs on a background event loop and the
benchmark's own open-loop client drives it, so the check is exercised
on events that crossed a socket.  The check must pass on a faithful
run and fail when one received event is corrupted or one frame is
dropped on its way to the server.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import openloop  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from repro.core.events import GestureEvent  # noqa: E402
from repro.core.pipeline import AirFinger  # noqa: E402
from repro.serve import AirFingerServer, SessionManager  # noqa: E402


@pytest.fixture(scope="module")
def session():
    recording = workload.make_sessions(3, "dense", 1)[0]
    batches = workload.send_batches(recording)
    reference = workload.reference_replay(AirFinger(), batches)
    return recording, batches, reference


@pytest.fixture(scope="module")
def server():
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    holder = {}

    async def start():
        holder["server"] = AirFingerServer(SessionManager(), telemetry=False)
        await holder["server"].start()
        ready.set()

    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(start(), loop)
    assert ready.wait(30)
    yield holder["server"]
    asyncio.run_coroutine_threadsafe(holder["server"].stop(), loop).result(30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(30)
    assert not thread.is_alive()


def _drive(server, session, batches):
    sends = workload.encode_sends(batches)
    sizes = [len(b) for b in batches]

    def plan(t):
        return openloop.schedule(1, [sends], [sizes], [0], 0.001, 5, t,
                                 0.001, "selftest")

    before = openloop.control_stats(run.HOST, server.port, "s0")
    runs = openloop.run_load(run.HOST, server.port, plan)
    after = openloop.control_stats(run.HOST, server.port, "s1")
    frames = (openloop.counter_total(after, "serve.frames")
              - openloop.counter_total(before, "serve.frames"))
    return runs, frames


def _check(runs, session, server_frames, drops=0):
    reference = session[2]
    return run.evaluate_serve(runs, [reference], server_frames, drops)


def test_faithful_run_passes(server, session):
    runs, frames = _drive(server, session, session[1])
    out = _check(runs, session, frames)
    assert out["ok"]
    assert out["latencies"]


def test_corrupted_event_fails(server, session):
    runs, frames = _drive(server, session, session[1])
    received = runs[0].received
    j = next(i for i, (_, e) in enumerate(received)
             if isinstance(e, GestureEvent) or hasattr(e, "end_index"))
    t, event = received[j]
    if isinstance(event, GestureEvent):
        event = dataclasses.replace(event, confidence=event.confidence / 2)
    else:
        event = dataclasses.replace(event, end_index=event.end_index + 1)
    received[j] = (t, event)
    out = _check(runs, session, frames)
    assert out["mismatched"] == 1
    assert not out["ok"]


def test_dropped_frame_fails(server, session):
    batches = [list(b) for b in session[1]]
    del batches[len(batches) // 2][3]
    runs, frames = _drive(server, session, batches)
    runs[0].frames_per_send = [len(b) for b in session[1]]
    out = _check(runs, session, frames)
    # the engine may bridge a one-frame gap into the same events; the
    # frame count still exposes the loss
    assert out["failed"] >= 1
    assert not out["ok"]


def test_scoring_matches_evaluate_stream(tmp_path):
    from repro.datasets.corpus import GestureSample
    from repro.eval.stream_protocols import evaluate_stream

    workload.train_stack(tmp_path / "stack.json")
    engine = workload.load_engine(tmp_path / "stack.json")
    recording = workload.make_sessions(4, "dense", 1)[0]
    score = evaluate_stream(engine, GestureSample(
        recording=recording, label="stream", user_id=0, session_id=0,
        repetition=0))
    engine.reset()
    events = engine.feed_recording(recording)
    assert workload.score(recording, events) == (score.n_correct,
                                                 score.n_truth)
