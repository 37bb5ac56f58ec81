"""Span recording around the public functions of each layer.

:func:`install` wraps the listed public functions of ``repro`` with
timing wrappers owned by the benchmark; nothing in ``repro`` is edited.
Each call becomes one span ``(id, name, start, end, parent, request)``
kept in memory; :meth:`SpanRecorder.dump` writes them out when the
traced process ends.  The ``request`` field is shared by the spans of
one ``frames`` message: its decode, its enqueue, and the dispatch (with
every engine call under it) that drains its first frame.

:func:`layer_metrics` turns a dump into the per-layer metrics.  A span's
self time is its duration minus the union of its children's intervals.
The ``obs`` layer is counted, not timed: its calls are too small and too
many for a span each.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict, deque

#: (span name, module, owner class or None for a module function, attribute)
SPAN_TARGETS = (
    ("protocol.feed", "repro.serve.protocol", "MessageDecoder", "feed"),
    ("protocol.decode_frames", "repro.serve.protocol", None, "decode_frames"),
    ("protocol.events_message", "repro.serve.protocol", None,
     "events_message"),
    ("protocol.encode_message", "repro.serve.protocol", None,
     "encode_message"),
    ("session.enqueue", "repro.serve.session", "SessionManager", "enqueue"),
    ("session.dispatch", "repro.serve.session", "SessionManager", "dispatch"),
    ("pipeline.feed_block", "repro.core.pipeline", "AirFinger", "feed_block"),
    ("pipeline.feed", "repro.core.pipeline", "AirFinger", "feed"),
    ("pipeline.feed_recording", "repro.core.pipeline", "AirFinger",
     "feed_recording"),
    ("guard.push", "repro.core.calibration", "ChannelGuard", "push"),
    ("guard.push_block", "repro.core.calibration", "ChannelGuard",
     "push_block"),
    ("sbc.ma_push", "repro.core.sbc", "StreamingMovingAverage", "push"),
    ("sbc.ma_push_block", "repro.core.sbc", "StreamingMovingAverage",
     "push_block"),
    ("sbc.push", "repro.core.sbc", "StreamingSbc", "push"),
    ("sbc.push_block", "repro.core.sbc", "StreamingSbc", "push_block"),
    ("segmentation.push", "repro.core.segmentation",
     "DynamicThresholdSegmenter", "push"),
    ("segmentation.push_block", "repro.core.segmentation",
     "DynamicThresholdSegmenter", "push_block"),
    ("dispatcher.classify", "repro.core.dispatcher", "GestureDispatcher",
     "classify"),
    ("zebra.track", "repro.core.zebra", "ZebraTracker", "track"),
    ("interference.gesture_probability", "repro.core.interference",
     "InterferenceFilter", "gesture_probability"),
    ("detector.predict_one", "repro.core.detector", "DetectAimedRecognizer",
     "predict_one"),
    ("features.extract_many", "repro.features.extractor", "FeatureExtractor",
     "extract_many"),
    ("forest.predict_proba", "repro.ml.forest", "RandomForestClassifier",
     "predict_proba"),
)

#: obs calls are counted per call, without a span
COUNT_TARGETS = (
    ("repro.obs.metrics", "Counter", "inc"),
    ("repro.obs.metrics", "Histogram", "observe"),
    ("repro.obs.metrics", "Histogram", "observe_many"),
)

_PIPELINE = ("pipeline.feed_block", "pipeline.feed", "pipeline.feed_recording")


class SpanRecorder:
    """In-memory span store plus the counters the layer metrics need."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.request = -1
        self.next_request = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._pipeline_depth = 0
        #: (wait_s, frames) pairs, enqueue call -> start of draining dispatch
        self.queue_waits: list[tuple[float, int]] = []
        self._pending_requests: deque[int] = deque()
        #: per session: deque of [enqueue_s, frames_left, request]
        self._fifo: dict[int, deque] = defaultdict(deque)

    def clear(self) -> None:
        """Forget what was recorded so far (warm-up), keep queue state."""
        self.spans = []
        self.counts = defaultdict(float)
        self.queue_waits = []

    # -- generic span ----------------------------------------------------
    def call(self, name: str, fn, args, kwargs):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.request))

    # -- layer-specific hooks --------------------------------------------
    def hook(self, name: str, fn):
        rec = self

        if name == "protocol.feed":
            def wrapper(decoder, data):
                rec.counts["protocol.bytes"] += len(data)
                messages = rec.call(name, fn, (decoder, data), {})
                for message in messages:
                    if message.get("type") == "frames":
                        rec._pending_requests.append(rec.next_request)
                        rec.next_request += 1
                return messages
        elif name == "protocol.decode_frames":
            def wrapper(message):
                if rec._pending_requests:
                    rec.request = rec._pending_requests.popleft()
                else:
                    rec.request = rec.next_request
                    rec.next_request += 1
                frames = rec.call(name, fn, (message,), {})
                rec.counts["protocol.frames"] += len(frames)
                return frames
        elif name == "protocol.events_message":
            def wrapper(events):
                events = list(events)
                rec.counts["protocol.events"] += len(events)
                return rec.call(name, fn, (events,), {})
        elif name == "protocol.encode_message":
            def wrapper(message):
                if message.get("type") != "events":
                    return fn(message)
                return rec.call(name, fn, (message,), {})
        elif name == "session.enqueue":
            def wrapper(manager, session, frames):
                t_enq = time.perf_counter()
                dropped = rec.call(name, fn, (manager, session, frames), {})
                rec.counts["session.enqueued"] += len(frames)
                fifo = rec._fifo[id(session)]
                fifo.append([t_enq, len(frames), rec.request])
                if dropped:
                    rec.counts["session.drops"] += dropped
                    rec._take(fifo, dropped, None)
                return dropped
        elif name == "session.dispatch":
            def wrapper(manager, session):
                n = min(session.pending, manager.config.max_batch_frames)
                fifo = rec._fifo[id(session)]
                if fifo:
                    rec.request = fifo[0][2]
                if n:
                    rec.counts["session.dispatch_calls"] += 1
                    rec.counts["session.dispatched"] += n
                    rec._take(fifo, n, time.perf_counter())
                if not fifo:
                    rec._fifo.pop(id(session), None)
                return rec.call(name, fn, (manager, session), {})
        elif name in _PIPELINE:
            def wrapper(engine, *args, **kwargs):
                if rec._pipeline_depth == 0:
                    if name == "pipeline.feed":
                        rec.counts["pipeline.frames"] += 1
                    elif name == "pipeline.feed_block":
                        rec.counts["pipeline.frames"] += len(args[0])
                    else:
                        rec.counts["pipeline.frames"] += args[0].n_samples
                rec._pipeline_depth += 1
                try:
                    return rec.call(name, fn, (engine,) + args, kwargs)
                finally:
                    rec._pipeline_depth -= 1
        elif name == "segmentation.push":
            def wrapper(segmenter, value):
                segment = rec.call(name, fn, (segmenter, value), {})
                if segment is not None:
                    rec.counts["segmentation.segments"] += 1
                return segment
        elif name == "segmentation.push_block":
            def wrapper(segmenter, values):
                result = rec.call(name, fn, (segmenter, values), {})
                rec.counts["segmentation.segments"] += len(result.finished)
                return result
        else:
            def wrapper(*args, **kwargs):
                return rec.call(name, fn, args, kwargs)
        return functools.update_wrapper(wrapper, fn)

    def _take(self, fifo: deque, n: int, now: float | None) -> None:
        """Pop *n* frames off a session FIFO; book waits when *now* given."""
        while n > 0 and fifo:
            head = fifo[0]
            k = min(n, head[1])
            if now is not None:
                self.queue_waits.append((now - head[0], k))
            head[1] -= k
            n -= k
            if head[1] == 0:
                fifo.popleft()

    def counter_hook(self, key: str, fn):
        rec = self

        def wrapper(*args, **kwargs):
            rec.counts[key] += 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def dump(self, path) -> None:
        """Write every span, counter and queue wait to *path* (JSON)."""
        payload = {"spans": self.spans, "counts": dict(self.counts),
                   "queue_waits": self.queue_waits}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def install(recorder: SpanRecorder) -> None:
    """Wrap every target in :data:`SPAN_TARGETS` and :data:`COUNT_TARGETS`."""
    import importlib

    for name, module_name, owner, attr in SPAN_TARGETS:
        module = importlib.import_module(module_name)
        target = module if owner is None else getattr(module, owner)
        setattr(target, attr, recorder.hook(name, getattr(target, attr)))
    for module_name, owner, attr in COUNT_TARGETS:
        cls = getattr(importlib.import_module(module_name), owner)
        setattr(cls, attr, recorder.counter_hook("obs.calls",
                                                 getattr(cls, attr)))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: call count, inclusive seconds and self seconds."""
    children: dict[int, list] = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for sid, name, t0, t1, _, _ in spans:
        calls[name] += 1
        incl[name] += t1 - t0
        self_s[name] += (t1 - t0) - _union_length(children.get(sid, []))
    return calls, incl, self_s


def weighted_quantile(pairs: list[tuple[float, int]], q: float) -> float:
    """Quantile of values given as ``(value, weight)`` pairs (0 if empty)."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    if total == 0:
        return 0.0
    rank = q * (total - 1)
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen > rank:
            return value
    return pairs[-1][0]


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics from a :meth:`SpanRecorder.dump` payload."""
    calls, incl, self_s = span_times(dump["spans"])
    counts = defaultdict(float, dump["counts"])
    frames = counts["pipeline.frames"]

    def per(total: float, n: float, scale: float) -> float:
        return total / n * scale if n else 0.0

    wire_frames = counts["protocol.frames"]
    out = {
        "protocol.decode_us_per_frame": per(
            incl["protocol.feed"] + incl["protocol.decode_frames"],
            wire_frames, 1e6),
        "protocol.encode_us_per_event": per(
            incl["protocol.events_message"] + incl["protocol.encode_message"],
            counts["protocol.events"], 1e6),
        "protocol.bytes_per_frame": per(counts["protocol.bytes"],
                                        wire_frames, 1.0),
        "session.enqueue_us_per_frame": per(
            self_s["session.enqueue"], counts["session.enqueued"], 1e6),
        "session.dispatch_glue_us_per_frame": per(
            self_s["session.dispatch"], counts["session.dispatched"], 1e6),
        "session.dispatch_frames_mean": per(
            counts["session.dispatched"], counts["session.dispatch_calls"],
            1.0),
        "session.queue_wait_p50_ms": 1e3 * weighted_quantile(
            dump["queue_waits"], 0.50),
        "session.queue_wait_p99_ms": 1e3 * weighted_quantile(
            dump["queue_waits"], 0.99),
        "session.backpressure_drops": counts["session.drops"],
        "pipeline.feed_block_calls": float(calls["pipeline.feed_block"]),
        "pipeline.self_us_per_frame": per(
            sum(self_s[n] for n in _PIPELINE), frames, 1e6),
        "guard.us_per_frame": per(
            self_s["guard.push"] + self_s["guard.push_block"], frames, 1e6),
        "sbc.us_per_frame": per(
            sum(self_s[n] for n in ("sbc.ma_push", "sbc.ma_push_block",
                                    "sbc.push", "sbc.push_block")),
            frames, 1e6),
        "segmentation.us_per_frame": per(
            self_s["segmentation.push"] + self_s["segmentation.push_block"],
            frames, 1e6),
        "segmentation.segments": counts["segmentation.segments"],
        "dispatcher.calls": float(calls["dispatcher.classify"]),
        "dispatcher.us_per_call": per(incl["dispatcher.classify"],
                                      calls["dispatcher.classify"], 1e6),
        "zebra.calls": float(calls["zebra.track"]),
        "zebra.us_per_call": per(incl["zebra.track"], calls["zebra.track"],
                                 1e6),
        "interference.calls": float(
            calls["interference.gesture_probability"]),
        "interference.ms_per_call": per(
            incl["interference.gesture_probability"],
            calls["interference.gesture_probability"], 1e3),
        "detector.calls": float(calls["detector.predict_one"]),
        "detector.ms_per_call": per(incl["detector.predict_one"],
                                    calls["detector.predict_one"], 1e3),
        "features.ms_per_call": per(incl["features.extract_many"],
                                    calls["features.extract_many"], 1e3),
        "forest.ms_per_call": per(incl["forest.predict_proba"],
                                  calls["forest.predict_proba"], 1e3),
        "obs.metric_calls_per_frame": per(counts["obs.calls"], frames, 1.0),
    }
    return out
