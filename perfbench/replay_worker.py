"""The replay-idle recogniser: offline replay in its own process.

Usage: ``python3 perfbench/replay_worker.py STACK INPUTS SECONDS [TRACE_OUT]``

Loads the stack and the recordings, prints ``ready``, and waits for a
line on stdin (end of input exits without replaying).  It then warms
up, replays the recordings round-robin for *SECONDS* through
:meth:`AirFinger.iter_events` over ``stream_blocks(recording,
DEFAULT_BLOCK_SIZE)`` — the generator ``feed_recording`` collects — and
prints one JSON line: frames, CPU seconds, the turnaround of every
full block, split by whether it delivered events (see
:func:`replay_pass`), a digest of every pass's event ``repr``s and the
process's peak RSS.  A process of its own keeps the
CPU and memory figures free of input generation and training.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import spans

#: recordings replayed once before timing starts
WARMUP_RECORDINGS = 4


def replay_pass(engine, recording, quiet_s: list[float] | None = None,
                event_s: list[float] | None = None) -> str:
    """One reset + replay of *recording*; returns the digest of its events.

    With *quiet_s* and *event_s* given, books the turnaround of every full
    ``DEFAULT_BLOCK_SIZE`` block: from handing the block to the engine
    until the engine asks for the next one, which covers its processing
    and the delivery of its events.  Blocks that delivered no event go
    to *quiet_s*, the others to *event_s*.  The short last block and the
    flush are not booked.
    """
    from repro.acquisition.stream import stream_blocks
    from repro.core.pipeline import DEFAULT_BLOCK_SIZE

    marks: list[float] = []
    full: list[bool] = []
    delivered: set[int] = set()

    def blocks():
        for block in stream_blocks(recording, DEFAULT_BLOCK_SIZE):
            full.append(len(block.indices) == DEFAULT_BLOCK_SIZE)
            marks.append(time.perf_counter())
            yield block
        marks.append(time.perf_counter())

    engine.reset()
    digest = hashlib.sha1()
    for event in engine.iter_events(blocks(),
                                    block_size=DEFAULT_BLOCK_SIZE):
        delivered.add(len(marks) - 1)
        digest.update(repr(event).encode())
        digest.update(b"\n")
    if quiet_s is not None:
        for i, is_full in enumerate(full):
            if is_full:
                (event_s if i in delivered else quiet_s).append(
                    marks[i + 1] - marks[i])
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    stack, inputs, seconds = Path(argv[0]), Path(argv[1]), float(argv[2])
    recorder = None
    if len(argv) == 4:
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    import workload

    engine = workload.load_engine(stack)
    recordings = workload.load_recordings(inputs)
    print("ready", flush=True)
    if not sys.stdin.readline():
        return 0
    for recording in recordings[:WARMUP_RECORDINGS]:
        replay_pass(engine, recording)
    if recorder is not None:
        recorder.clear()
    quiet_s: list[float] = []
    event_s: list[float] = []
    passes: list[tuple[int, str]] = []
    frames = 0
    t_end = time.perf_counter() + seconds
    cpu0 = time.process_time()
    while time.perf_counter() < t_end:
        i = len(passes) % len(recordings)
        passes.append((i, replay_pass(engine, recordings[i], quiet_s,
                                              event_s)))
        frames += recordings[i].n_samples
    cpu_s = time.process_time() - cpu0
    if recorder is not None:
        recorder.dump(argv[3])
    print(json.dumps({
        "frames": frames, "cpu_s": cpu_s, "quiet_s": quiet_s,
        "event_s": event_s,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
