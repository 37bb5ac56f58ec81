"""Unit tests for the block-mode primitives behind ``AirFinger.feed_block``.

Every ``push_block`` here carries a bit-identity contract against its
scalar counterpart (the end-to-end version lives in the golden-trace and
property suites); these tests pin each layer in isolation so a
divergence points at the component, not the pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.stream import FrameBlock, RssFrame, stream_blocks
from repro.core.calibration import ChannelGuard
from repro.core.events import SegmentEvent
from repro.core.pipeline import DEFAULT_BLOCK_SIZE, AirFinger
from repro.core.sbc import StreamingMovingAverage, StreamingSbc
from repro.core.segmentation import (
    DynamicThresholdSegmenter,
    _otsu_batch,
    otsu_threshold,
)
from repro.obs import MetricsRegistry
from repro.utils import fast_quantile


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestStreamingMovingAverageBlock:
    def test_matches_scalar_bitwise(self):
        rng = _rng(1)
        for split in (1, 3, 50, 200):
            scalar = StreamingMovingAverage(5)
            block = StreamingMovingAverage(5)
            x = rng.uniform(0, 4096, size=200)
            ref = [scalar.push(float(v)) for v in x]
            got = []
            for i in range(0, x.size, split):
                got.extend(block.push_block(x[i:i + split]).tolist())
            assert [repr(a) for a in ref] == [repr(b) for b in got]


class TestStreamingSbcBlock:
    def test_matches_scalar_bitwise_on_adc_grid(self):
        rng = _rng(2)
        # ADC-like values: multiples of 1/16
        x = np.round(rng.uniform(0, 4096, size=300) * 16) / 16
        for split in (1, 7, 128):
            scalar = StreamingSbc(3)
            block = StreamingSbc(3)
            ref = [scalar.push(float(v)) for v in x]
            got = []
            for i in range(0, x.size, split):
                got.extend(block.push_block(x[i:i + split]).tolist())
            assert [repr(a) for a in ref] == [repr(b) for b in got]

    def test_matches_scalar_off_grid(self):
        # irrational-ish inputs: every partial sum rounds, and the
        # contract (bit-identity) must hold regardless
        rng = _rng(3)
        x = rng.normal(size=100) * np.pi
        scalar = StreamingSbc(2)
        block = StreamingSbc(2)
        ref = [scalar.push(float(v)) for v in x]
        got = block.push_block(x).tolist()
        assert [repr(a) for a in ref] == [repr(b) for b in got]


class TestChannelGuardBlock:
    def test_transitions_match_scalar(self):
        rng = _rng(4)
        n, c = 400, 3
        x = rng.uniform(100, 1000, size=(n, c))
        x[120:260, 1] = 0.0          # flat channel -> mask
        x[300:, 2] = 65535.0         # saturated channel -> mask
        scalar = ChannelGuard(n_channels=c)
        block = ChannelGuard(n_channels=c)
        ref = []
        for i in range(n):
            for ch, masked, reason in scalar.push(tuple(x[i])):
                ref.append((i, ch, masked, reason))
        got = []
        for i in range(0, n, 64):
            for off, transitions in block.push_block(x[i:i + 64]):
                for ch, masked, reason, _hold in transitions:
                    got.append((i + off, ch, masked, reason))
        assert got == ref
        assert list(block.mask) == list(scalar.mask)
        for ch in range(c):
            assert repr(block.hold_value(ch)) == repr(scalar.hold_value(ch))


class TestSegmenterBlock:
    def test_segments_and_state_match_scalar(self):
        rng = _rng(5)
        # bursty energy signal: quiet floor with occasional loud spans
        x = rng.uniform(0.0, 4.0, size=3000)
        for start in range(200, 3000, 700):
            x[start:start + 60] += rng.uniform(200, 800)
        for split in (1, 25, 256, 3000):
            scalar = DynamicThresholdSegmenter()
            block = DynamicThresholdSegmenter()
            ref = []
            for i, v in enumerate(x.tolist()):
                seg = scalar.push(v)
                if seg is not None:
                    ref.append((i, seg))
            got = []
            for i in range(0, x.size, split):
                out = block.push_block(x[i:i + split])
                got.extend((i + off, seg) for off, seg in out.finished)
            assert got == ref, split
            assert repr(block.threshold) == repr(scalar.threshold)
            assert block._index == scalar._index
            assert repr(block._envelope._sum) == repr(scalar._envelope._sum)
            assert block._since_refresh == scalar._since_refresh

    def test_block_reports_threshold_trajectory(self):
        seg = DynamicThresholdSegmenter()
        out = seg.push_block(np.zeros(300))
        assert len(out.thresholds) == 300
        assert len(out.open_start) == 300
        assert all(o is None for o in out.open_start)


class TestOtsuBatch:
    def test_rows_match_scalar_otsu_bitwise(self):
        rng = _rng(6)
        rows = []
        for scale in (1e-6, 1.0, 1e4):
            base = rng.uniform(0.0, 10.0, size=800) * scale
            base[rng.random(800) < 0.3] += scale * rng.uniform(50, 500)
            rows.append(base)
        rows.append(np.zeros(800))            # no positive mass
        rows.append(np.full(800, 3.0))        # zero log-range
        values = np.stack(rows)
        out = _otsu_batch(values, 128, 10.0)
        assert out is not None
        for row, got in zip(values, out):
            assert repr(float(got)) == repr(otsu_threshold(row, n_bins=128))

    def test_permutation_invariance(self):
        rng = _rng(7)
        row = rng.uniform(0.1, 100.0, size=800)
        values = np.stack([row, rng.permutation(row)])
        out = _otsu_batch(values, 128, 10.0)
        assert repr(float(out[0])) == repr(float(out[1]))


class TestFastQuantile:
    def test_matches_numpy_bitwise(self):
        rng = _rng(8)
        for n in (1, 2, 17, 800):
            x = rng.normal(size=n) * 100
            for q in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert repr(fast_quantile(x, q)) == repr(
                    float(np.quantile(x, q)))


class TestObserveMany:
    def test_count_sum_and_buckets_match_repeated_observe(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        ha = a.histogram("h")
        hb = b.histogram("h")
        for _ in range(137):
            ha.observe(0.0042)
        hb.observe_many(0.0042, 137)
        snap_a = a.snapshot().histograms["h"]
        snap_b = b.snapshot().histograms["h"]
        # the sum is accumulated as value*n (one multiply, not n adds), so
        # it may differ in the last ulps; everything else is exact
        assert snap_b["sum"] == pytest.approx(snap_a["sum"], rel=1e-12)
        for key in snap_a:
            if key != "sum":
                assert snap_a[key] == snap_b[key], key


class TestFrameBlocks:
    def test_stream_blocks_round_trip(self, generator):
        rec = generator.stream(0, ["click"], idle_s=0.5,
                               lead_in_s=0.5).recording
        blocks = list(stream_blocks(rec, 64))
        assert sum(len(b) for b in blocks) == rec.n_samples
        frames = [f for b in blocks for f in b.frames()]
        assert [f.index for f in frames] == list(range(rec.n_samples))

    def test_from_frames_rejects_ragged_channels(self):
        frames = [RssFrame(index=0, time_s=0.0, values=(1.0, 2.0)),
                  RssFrame(index=1, time_s=0.01, values=(1.0, 2.0, 3.0))]
        with pytest.raises(ValueError):
            FrameBlock.from_frames(frames)


class TestIterEventsIncremental:
    """The ISSUE 6 fix: replay surfaces events as frames are consumed."""

    def _first_event_position(self, engine, frames, **kwargs):
        consumed = 0

        def counting():
            nonlocal consumed
            for frame in frames:
                consumed += 1
                yield frame

        for event in engine.iter_events(counting(), **kwargs):
            if isinstance(event, SegmentEvent):
                return consumed, len(frames)
        return consumed, len(frames)

    def test_events_arrive_incrementally_per_frame(self, generator):
        sample = generator.stream(0, ["circle", "click"], idle_s=2.0,
                                  lead_in_s=0.5)
        frames = list(stream_frames_list(sample.recording))
        at, total = self._first_event_position(AirFinger(), frames)
        assert at < total, "first event only surfaced at end of stream"

    def test_events_arrive_incrementally_in_blocks(self, generator):
        sample = generator.stream(0, ["circle", "click"], idle_s=2.0,
                                  lead_in_s=0.5)
        frames = list(stream_frames_list(sample.recording))
        at, total = self._first_event_position(
            AirFinger(), frames, block_size=64)
        assert at < total

    def test_events_arrive_incrementally_under_tracing(self, generator):
        from repro.obs import Tracer, set_tracer

        sample = generator.stream(0, ["circle", "click"], idle_s=2.0,
                                  lead_in_s=0.5)
        frames = list(stream_frames_list(sample.recording))
        previous = set_tracer(Tracer(sample=1.0))
        try:
            engine = AirFinger()
            at, total = self._first_event_position(
                engine, frames, block_size=DEFAULT_BLOCK_SIZE)
            assert at < total, (
                "tracing forced eager consumption of the whole stream")
        finally:
            set_tracer(previous)


def stream_frames_list(recording):
    from repro.acquisition.stream import stream_frames
    return stream_frames(recording)
