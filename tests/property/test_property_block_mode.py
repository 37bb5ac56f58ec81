"""Property-based equivalence: block-mode feeding vs per-frame feeding.

Hypothesis drives randomized streams through every degradation path the
pipeline owns — short gaps (interpolated), long gaps (segmenter flush +
:class:`StreamGap`), out-of-order frames (dropped), bursts that open and
close segments — and asserts that :meth:`AirFinger.feed_block` over
arbitrary block splits produces the exact event sequence and the exact
final state of frame-by-frame :meth:`AirFinger.feed`.

Events are compared as ``repr`` lines (flat dataclasses of
ints/floats/strings; ``repr(float)`` is shortest-round-trip, so equal
lines mean equal bits).  Final state is compared both directly (stream
position, envelope carry, threshold, history tails) and behaviorally: the
engines keep consuming a shared scalar tail afterwards and must keep
agreeing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acquisition.stream import RssFrame
from repro.core.pipeline import AirFinger

# mostly contiguous advances, salted with short gaps (interpolated), long
# gaps (flush + StreamGap) and stale indices (out-of-order drops)
moves = st.lists(
    st.sampled_from([1] * 12 + [2, 3, 8, 60, 0, -1, -7]),
    min_size=1, max_size=250)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
channel_counts = st.integers(min_value=2, max_value=4)
block_plans = st.lists(st.integers(min_value=1, max_value=64),
                       min_size=1, max_size=12)


def _build_frames(move_list, seed, n_channels):
    """A deterministic frame stream with bursts that cross the threshold."""
    rng = np.random.default_rng(seed)
    frames = []
    index = -1
    for move in move_list:
        index = max(0, index + move)
        values = rng.uniform(0.0, 30.0, size=n_channels)
        if rng.random() < 0.2:  # an energy burst the segmenter can latch
            values += rng.uniform(300.0, 3000.0)
        frames.append(RssFrame(
            index=index, time_s=index * 0.01,
            values=tuple(float(v) for v in values)))
    return frames


def _scalar_trace(engine, frames):
    events = []
    for frame in frames:
        events.extend(engine.feed(frame))
    return [repr(e) for e in events]


def _state_fingerprint(engine):
    seg = engine._segmenter
    return repr((
        engine._pos, engine._fed, engine._anchor, engine._last_time_s,
        engine._last_values, tuple(engine._delta), len(engine._raw),
        seg._index, seg._threshold, seg._envelope._sum, seg._open_start,
        seg._pending, seg._gap, seg._since_refresh, seg._hist_len,
    ))


def _split(frames, plan):
    chunks = []
    i = 0
    while i < len(frames):
        for size in plan:
            chunks.append(frames[i:i + size])
            i += size
            if i >= len(frames):
                break
    return chunks


@given(moves, seeds, channel_counts, block_plans)
@settings(max_examples=40, deadline=None)
def test_block_splits_preserve_events_and_state(move_list, seed,
                                                n_channels, plan):
    frames = _build_frames(move_list, seed, n_channels)
    ref = AirFinger()
    ref_trace = _scalar_trace(ref, frames)

    block = AirFinger()
    got = []
    for chunk in _split(frames, plan):
        got.extend(block.feed_block(chunk))
    assert [repr(e) for e in got] == ref_trace
    assert _state_fingerprint(block) == _state_fingerprint(ref)

    # behavioral state check: both engines keep consuming a shared tail
    tail = _build_frames([1] * 40, seed + 1, n_channels)
    base = frames[-1].index + 1 if frames else 0
    tail = [RssFrame(index=f.index + base, time_s=(f.index + base) * 0.01,
                     values=f.values) for f in tail]
    assert _scalar_trace(block, tail) == _scalar_trace(ref, tail)
    assert ([repr(e) for e in block.flush()]
            == [repr(e) for e in ref.flush()])


@given(moves, seeds, st.integers(min_value=1, max_value=80))
@settings(max_examples=30, deadline=None)
def test_feed_frames_block_size_equivalence(move_list, seed, block_size):
    frames = _build_frames(move_list, seed, 3)
    ref = AirFinger()
    ref_trace = _scalar_trace(ref, frames)
    ref_trace += [repr(e) for e in ref.flush()]

    block = AirFinger()
    got = block.feed_frames(frames, block_size=block_size)
    assert [repr(e) for e in got] == ref_trace
