"""Unit tests for SBC and the streaming prefilter."""

import numpy as np
import pytest

from repro.core.sbc import (
    StreamingMovingAverage,
    StreamingSbc,
    prefilter,
    sbc_transform,
)


class TestSbcTransform:
    def test_window_one_is_squared_diff(self):
        x = np.array([1.0, 2.0, 4.0, 7.0, 7.0, 3.0])
        expected = np.array([0.0, 1.0, 4.0, 9.0, 0.0, 16.0])
        np.testing.assert_allclose(sbc_transform(x, 1), expected)

    def test_removes_static_offset(self):
        x = np.sin(np.arange(100) / 5.0)
        np.testing.assert_allclose(sbc_transform(x + 1000.0, 2),
                                   sbc_transform(x, 2), atol=1e-9)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(0)
        out = sbc_transform(rng.normal(0, 1, 200), 3)
        assert np.all(out >= 0)

    def test_warmup_zeros(self):
        x = np.arange(20, dtype=float)
        out = sbc_transform(x, 4)
        np.testing.assert_array_equal(out[: 2 * 4 - 1], 0.0)

    def test_constant_signal_zero(self):
        np.testing.assert_array_equal(sbc_transform(np.full(30, 5.0), 3), 0.0)

    def test_multichannel_independent(self):
        x = np.random.default_rng(1).normal(0, 1, (50, 3))
        out = sbc_transform(x, 2)
        for c in range(3):
            np.testing.assert_allclose(out[:, c], sbc_transform(x[:, c], 2))

    def test_short_signal(self):
        out = sbc_transform(np.array([1.0, 2.0]), 4)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            sbc_transform(np.zeros(5), 0)

    def test_amplifies_gesture_over_slow_drift(self):
        t = np.arange(400) / 100.0
        drift = 5.0 * np.sin(2 * np.pi * 0.05 * t)       # slow ambient
        gesture = np.zeros_like(t)
        gesture[200:250] = 40.0 * np.sin(2 * np.pi * 3.0 * t[200:250])
        out = sbc_transform(drift + gesture, 1)
        assert out[200:250].max() > 100 * out[:150].max()


class TestStreamingSbc:
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_matches_offline(self, window):
        x = np.random.default_rng(2).normal(0, 1, 80)
        stream = StreamingSbc(window)
        np.testing.assert_allclose(stream.push_block(x),
                                   sbc_transform(x, window))

    def test_reset(self):
        s = StreamingSbc(2)
        s.push_block(np.arange(10, dtype=float))
        s.reset()
        assert s.samples_seen == 0
        assert s.push(1.0) == 0.0  # warm-up again

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingSbc(0)


class TestPrefilter:
    def test_window_one_identity(self):
        x = np.random.default_rng(0).random(20)
        np.testing.assert_array_equal(prefilter(x, 1), x)

    def test_causal_start(self):
        x = np.array([4.0, 0.0, 0.0, 0.0])
        out = prefilter(x, 2)
        np.testing.assert_allclose(out, [4.0, 2.0, 0.0, 0.0])

    def test_reduces_noise_variance(self):
        x = np.random.default_rng(1).normal(0, 1, 5000)
        assert prefilter(x, 5).std() < 0.6 * x.std()

    def test_multichannel(self):
        x = np.random.default_rng(2).random((30, 2))
        out = prefilter(x, 3)
        np.testing.assert_allclose(out[:, 0], prefilter(x[:, 0], 3))

    def test_streaming_matches_offline(self):
        x = np.random.default_rng(3).random(50)
        sma = StreamingMovingAverage(4)
        streamed = np.array([sma.push(v) for v in x])
        np.testing.assert_allclose(streamed, prefilter(x, 4))

    def test_streaming_reset(self):
        sma = StreamingMovingAverage(3)
        sma.push(9.0)
        sma.reset()
        assert sma.push(3.0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            prefilter(np.zeros(5), 0)
        with pytest.raises(ValueError):
            StreamingMovingAverage(0)
