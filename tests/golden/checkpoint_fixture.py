"""A committed mid-gesture checkpoint: restore compatibility across releases.

The migrate-mid-stream test checkpoints and restores with the *same*
code, so it cannot notice a change in what the checkpoint fields mean —
for example the segmenter envelope moving to another class while the
``segmenter.env``/``segmenter.env_sum`` keys stay put.  This fixture pins
that: ``checkpoint_mid_gesture.json`` holds the ``engine_state`` of an
engine stopped inside a gesture of the golden ``clean_mixed`` stream, the
frames that follow, and the event ``repr`` lines an unmigrated engine
emitted for those frames plus the final flush.  The file was written by
the engine that kept its own envelope deque; a restore under later code
must reproduce the same events.

Regenerate only when the payload layout changes on purpose (and
``CHECKPOINT_SCHEMA`` is bumped with it)::

    PYTHONPATH=src python tests/golden/checkpoint_fixture.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CHECKPOINT_FIXTURE_PATH = Path(__file__).parent / "checkpoint_mid_gesture.json"
CASE = "clean_mixed"
#: frames fed after the checkpoint — enough for the open gesture to close
TAIL_FRAMES = 300


def build_fixture() -> dict:
    """Run ``clean_mixed`` to the middle of a gesture and capture it."""
    from repro.core.pipeline import AirFinger
    from repro.serve.checkpoint import (
        CHECKPOINT_SCHEMA,
        config_digest,
        engine_state,
    )

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from golden.stream_cases import build_stream_cases

    frames = dict(build_stream_cases())[CASE]
    engine = AirFinger()
    opened_at = None
    for cut, frame in enumerate(frames):
        engine.feed(frame)
        if engine._segmenter.open_start is None:
            opened_at = None
            continue
        if opened_at is None:
            opened_at = cut
        state = engine_state(engine)
        seg = state["segmenter"]
        # ten frames into a gesture, with a running envelope sum that
        # differs from a fresh sum of its window: a restore that
        # re-derived the carry would then change the events
        if cut - opened_at >= 10 and seg["env_sum"] != sum(seg["env"]):
            break
    else:
        raise RuntimeError(f"no suitable cut in {CASE!r}")
    cut += 1
    tail = frames[cut:cut + TAIL_FRAMES]
    events = []
    for frame in tail:
        events.extend(engine.feed(frame))
    events.extend(engine.flush())
    return {
        "schema": CHECKPOINT_SCHEMA,
        "case": CASE,
        "cut": cut,
        "config_digest": config_digest(AirFinger()),
        "engine": state,
        "frames": [[f.index, f.time_s, list(f.values)] for f in tail],
        "events": [repr(e) for e in events],
    }


def main() -> int:
    fixture = build_fixture()
    with CHECKPOINT_FIXTURE_PATH.open("w") as fh:
        json.dump(fixture, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {CHECKPOINT_FIXTURE_PATH} (cut {fixture['cut']}, "
          f"{len(fixture['events'])} events)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
