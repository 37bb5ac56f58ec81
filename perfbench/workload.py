"""Seeded inputs, the trained stack, the in-process reference and scoring.

Everything the benchmark feeds the system is generated here from the
workload seed; the system under test only ever receives the generated
frames.  The simulated users are a fixed population; the stack is
trained once per set-up from their enrolment sessions, and the workload
seed picks the later sessions they play, their gesture order and every
noise draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.acquisition.sampler import Recording
from repro.acquisition.stream import stream_frames
from repro.core.config import AirFingerConfig
from repro.core.detector import DetectAimedRecognizer
from repro.core.events import GestureEvent, ScrollUpdate
from repro.core.interference import InterferenceFilter
from repro.core.persistence import load_stack, save_stack
from repro.core.pipeline import AirFinger
from repro.datasets.generator import CampaignConfig, CampaignGenerator
from repro.eval.protocols import DETECT_GESTURES_SET
from repro.hand.gestures import GESTURE_NAMES
from repro.hand.nongestures import NONGESTURE_NAMES
from repro.ml.forest import RandomForestClassifier
from repro.serve import protocol
from repro.utils import derive_rng

#: Frames per ``frames`` message, the serving regime (100 Hz, 10 per send).
FRAMES_PER_SEND = 10

#: Seed of the simulated user population the device sessions come from
#: (fixed, like the users of a deployment; the workload seed varies the
#: sessions, repetitions and sensor noise).
POPULATION_SEED = 417
POPULATION = 6
TRAIN_REPETITIONS = 2

#: Session shapes.  ``dense``: every gesture and non-gesture once, in a
#: seeded order, short idle between.  ``idle``: hand present at rest, one
#: gesture per ~10 s.  An idle pool deals the gestures out round robin
#: (as evenly as its size allows), so seeds differ in instances, not in
#: the gesture mix.
SHAPES = {
    "dense": {"idle_s": 0.3, "lead_in_s": 0.5},
    "idle": {"gestures": 3, "idle_s": 7.5, "lead_in_s": 2.0},
}


def train_stack(path: Path) -> None:
    """Train detector + interference filter from an enrolment campaign.

    The campaign records session 0 of every user in the population; the
    device sessions served later are other sessions of the same users.
    """
    generator = CampaignGenerator(CampaignConfig(
        n_users=POPULATION, n_sessions=1, repetitions=TRAIN_REPETITIONS,
        seed=POPULATION_SEED))
    corpus = generator.main_campaign()
    mask = np.array([s.label in DETECT_GESTURES_SET for s in corpus])
    detect = corpus.subset(mask)
    detector = DetectAimedRecognizer(
        model_factory=lambda: RandomForestClassifier(
            n_estimators=30, random_state=7))
    detector.fit([s.segmented_signal() for s in detect], detect.labels)
    inter = generator.interference_campaign(
        users=tuple(range(POPULATION)), sessions=(0,),
        gestures_per_session=4, nongestures_per_session=4)
    interference = InterferenceFilter().fit(
        inter.signals(), [s.is_gesture for s in inter])
    save_stack(path, detector=detector, interference_filter=interference,
               config=AirFingerConfig())


def load_engine(path: Path) -> AirFinger:
    """A fresh engine over the persisted stack, as ``serve --stack`` builds."""
    stack = load_stack(path)
    return AirFinger(config=stack["config"] or AirFingerConfig(),
                     detector=stack["detector"],
                     interference_filter=stack["interference_filter"])


def make_sessions(seed: int, shape: str, count: int) -> list[Recording]:
    """*count* seeded device captures of the given shape."""
    spec = SHAPES[shape]
    generator = CampaignGenerator(CampaignConfig(
        n_users=POPULATION, n_sessions=1, repetitions=1,
        seed=POPULATION_SEED))
    rng = derive_rng(seed, "perfbench", shape)
    if shape == "dense":
        elements = list(GESTURE_NAMES) + list(NONGESTURE_NAMES)
        sequences = [[elements[k] for k in rng.permutation(len(elements))]
                     for _ in range(count)]
    else:
        per = spec["gestures"]
        mix = [GESTURE_NAMES[k % len(GESTURE_NAMES)]
               for k in rng.permutation(count * per)]
        sequences = [mix[i * per:(i + 1) * per] for i in range(count)]
    recordings = []
    for i, sequence in enumerate(sequences):
        sample = generator.stream(
            i % POPULATION, sequence, session_id=1 + seed * 64 + i,
            idle_s=spec["idle_s"], lead_in_s=spec["lead_in_s"],
            condition=f"perfbench-{shape}")
        recordings.append(sample.recording)
    return recordings


def send_batches(recording: Recording) -> list[list]:
    """The recording as the 10-frame batches a device sends."""
    frames = list(stream_frames(recording))
    return [frames[i:i + FRAMES_PER_SEND]
            for i in range(0, len(frames), FRAMES_PER_SEND)]


def encode_sends(batches: list[list]) -> list[bytes]:
    """Pre-framed ``frames`` messages, one per batch."""
    return [protocol.encode_message(protocol.frames_message(b))
            for b in batches]


@dataclass
class Reference:
    """In-process replay of one session: events and what triggered them.

    ``trigger[j]`` is the index of the send whose batch emitted event
    ``j``, or ``-1`` for the flush tail emitted at ``bye``.
    """

    events: list
    trigger: list[int]

    @property
    def reprs(self) -> list[str]:
        return [repr(e) for e in self.events]


def reference_replay(engine: AirFinger, batches: list[list]) -> Reference:
    """Replay *batches* through ``feed_block`` exactly as they are sent."""
    engine.reset()
    events: list = []
    trigger: list[int] = []
    for k, batch in enumerate(batches):
        out = engine.feed_block(batch)
        events.extend(out)
        trigger.extend([k] * len(out))
    tail = engine.flush()
    events.extend(tail)
    trigger.extend([-1] * len(tail))
    return Reference(events, trigger)


def trigger_frames(engine: AirFinger, recording: Recording) -> list[int]:
    """Per event, the frame whose scalar ``feed`` emitted it (-1: flush)."""
    engine.reset()
    out: list[int] = []
    for frame in stream_frames(recording):
        out.extend([frame.index] * len(engine.feed(frame)))
    out.extend([-1] * len(engine.flush()))
    return out


def _decisions(events) -> list[tuple[int, int, str, int]]:
    """Accepted decisions: (start, end, label, event position)."""
    out = []
    for j, event in enumerate(events):
        if isinstance(event, GestureEvent) and event.accepted:
            out.append((event.segment.start_index, event.segment.end_index,
                        event.label, j))
        elif isinstance(event, ScrollUpdate) and event.final:
            out.append((event.segment.start_index, event.segment.end_index,
                        event.direction_name, j))
    return out


def match_truth(recording: Recording, events,
                min_overlap: float = 0.3) -> list[tuple]:
    """Ground truth matched to decisions by ``evaluate_stream``'s rules.

    Returns ``(name, start, end, correct, event_position or None)`` per
    ground-truth element (gesture or non-gesture).
    """
    decisions = _decisions(events)
    used: set[int] = set()
    out = []
    for name, start, end in recording.meta["segments"]:
        if name == "idle":
            continue
        hit = None
        for i, (s_start, s_end, _, _) in enumerate(decisions):
            if i in used:
                continue
            overlap = min(end, s_end) - max(start, s_start)
            if overlap > min_overlap * (end - start):
                hit = i
                break
        if hit is not None:
            used.add(hit)
        if name in GESTURE_NAMES:
            correct = hit is not None and decisions[hit][2] == name
        else:
            correct = hit is None
        position = decisions[hit][3] if hit is not None else None
        out.append((name, start, end, correct, position))
    return out


def score(recording: Recording, events) -> tuple[int, int]:
    """``(correct, truth)`` counts for one session's event stream."""
    matched = match_truth(recording, events)
    return sum(1 for m in matched if m[3]), len(matched)


def label_delays(recording: Recording, events,
                 triggers: list[int]) -> list[int]:
    """Frames from each recognised gesture's true end to its trigger frame."""
    n = recording.n_samples
    out = []
    for name, _, end, _, position in match_truth(recording, events):
        if name in GESTURE_NAMES and position is not None:
            frame = triggers[position]
            out.append((n - 1 if frame < 0 else frame) - end)
    return out


def save_recordings(path: Path, recordings: list[Recording]) -> None:
    """Persist recordings for a worker process (arrays + JSON meta)."""
    arrays = {}
    meta = []
    for i, rec in enumerate(recordings):
        arrays[f"rss{i}"] = rec.rss
        arrays[f"t{i}"] = rec.times_s
        meta.append({"channels": list(rec.channel_names),
                     "rate": rec.sample_rate_hz, "label": rec.label,
                     "segments": [list(s) for s in rec.meta["segments"]]})
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def load_recordings(path: Path) -> list[Recording]:
    """The inverse of :func:`save_recordings`."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        return [Recording(times_s=data[f"t{i}"], rss=data[f"rss{i}"],
                          channel_names=tuple(m["channels"]),
                          sample_rate_hz=m["rate"], label=m["label"],
                          meta={"segments": [tuple(s)
                                             for s in m["segments"]]})
                for i, m in enumerate(meta)]
