"""Square Based Calculation (SBC) — Section IV-B1 of the paper.

A sliding window of size ``w`` scans the real-time RSS; the mean of the
current window is subtracted from the mean of the previous window and the
difference is squared::

    ΔRSS²[i] = ( mean(x[i-w+1 .. i]) - mean(x[i-2w+1 .. i-w]) )²

The differencing removes the static offset ``N_static`` exactly and
attenuates slow dynamic noise, while squaring relatively enhances the large
gesture-driven excursions ``S_ges`` over the small residual noise — and
makes the output sign-free, which is what the Otsu-style threshold expects.
The whole transform is O(n) via prefix sums.

The streaming classes keep each running sum as serial float state.  Their
``push_block`` methods replay a block of ``push`` calls in one vectorized
pass that reproduces the scalar carry bit-for-bit for any input, so the
per-frame and per-block paths agree exactly.  :class:`StreamingMovingAverage`
is both the causal prefilter and the segmenter's energy envelope.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["sbc_transform", "StreamingSbc", "StreamingMovingAverage", "prefilter"]

def prefilter(signal: np.ndarray, window: int) -> np.ndarray:
    """Causal moving-average smoothing applied to raw RSS before SBC.

    The hardware pendant is the analog low-pass at the amplifier output;
    micro gestures occupy only a few hertz, so a short average costs no
    gesture bandwidth while suppressing sample-level converter noise.
    Multi-channel ``(T, C)`` inputs are filtered per channel.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    x = np.asarray(signal, dtype=np.float64)
    if window == 1 or len(x) == 0:
        return x.copy()
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    n = len(x)
    s0 = np.concatenate([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
    idx_hi = np.arange(1, n + 1)
    idx_lo = np.maximum(idx_hi - window, 0)
    out = (s0[idx_hi] - s0[idx_lo]) / (idx_hi - idx_lo)[:, None]
    return out[:, 0] if squeeze else out


class StreamingMovingAverage:
    """O(1)-per-sample causal moving average.

    The streaming prefilter ahead of SBC, and the energy envelope of
    :class:`~repro.core.segmentation.DynamicThresholdSegmenter`.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._buffer: deque[float] = deque(maxlen=window)
        self._sum = 0.0

    def push(self, value: float) -> float:
        """Ingest one sample; returns the mean of the last ``window`` samples."""
        value = float(value)
        if len(self._buffer) == self.window:
            self._sum -= self._buffer[0]
        self._buffer.append(value)
        self._sum += value
        return self._sum / len(self._buffer)

    def push_block(self, values: np.ndarray) -> np.ndarray:
        """Ingest N samples at once; bit-identical to N :meth:`push` calls.

        The running sum is serial float state: its rounding residue must
        match the scalar carry bit-for-bit, whatever the input values.  A
        left fold is exactly what ``np.add.accumulate`` computes, so the
        scalar loop's operations — add while the window fills, then
        subtract the evicted sample and add the new one — are laid out as
        one interleaved sequence and accumulated in a single pass.
        """
        x = np.asarray(values, dtype=np.float64).ravel()
        n = x.size
        w = self.window
        buf = self._buffer
        held = len(buf)
        n_grow = min(w - held, n)  # samples before the first eviction
        n_roll = n - n_grow
        steps = np.empty(1 + n_grow + 2 * n_roll)
        steps[0] = self._sum
        steps[1:1 + n_grow] = x[:n_grow]
        if n_roll:
            # the window is full from here on: each sample evicts the
            # oldest of (buffered ++ incoming), in order
            seq = np.concatenate(
                [np.fromiter(buf, dtype=np.float64, count=held), x])
            np.negative(seq[:n_roll], out=steps[1 + n_grow::2])
            steps[2 + n_grow::2] = x[n_grow:]
        acc = np.add.accumulate(steps)
        out = np.empty(n, dtype=np.float64)
        out[:n_grow] = acc[1:1 + n_grow] / np.arange(held + 1,
                                                   held + n_grow + 1)
        out[n_grow:] = acc[2 + n_grow::2] / w
        self._sum = float(acc[-1])
        buf.extend(x[max(0, n - w):].tolist())
        return out

    def reset(self) -> None:
        """Forget buffered samples."""
        self._buffer.clear()
        self._sum = 0.0


def sbc_transform(signal: np.ndarray, window: int = 1) -> np.ndarray:
    """Offline SBC: ΔRSS² of *signal* (same length; warm-up samples are 0).

    Parameters
    ----------
    signal:
        Raw RSS readings ``(T,)`` or multi-channel ``(T, C)`` (each channel
        is transformed independently).
    window:
        ``w`` in samples; at 100 Hz the paper's 10 ms is one sample, making
        SBC the squared first difference.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    x = np.asarray(signal, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    n = len(x)
    out = np.zeros_like(x)
    if n >= 2 * window:
        # S0[k] = sum of x[0 .. k-1]; window sum ending at i is S0[i+1]-S0[i+1-w]
        s0 = np.concatenate([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
        w = window
        cur = s0[2 * w: n + 1] - s0[w: n - w + 1]
        prev = s0[w: n - w + 1] - s0[0: n - 2 * w + 1]
        delta = (cur - prev) / w
        out[2 * w - 1:] = delta * delta
    return out[:, 0] if squeeze else out


class StreamingSbc:
    """On-line SBC over one channel: push a sample, get ΔRSS² back.

    Keeps two running window sums; each :meth:`push` is O(1), matching the
    O(n) complexity the paper claims for the full stream.
    """

    def __init__(self, window: int = 1) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._buffer: deque[float] = deque(maxlen=2 * window)
        self._count = 0

    def push(self, value: float) -> float:
        """Ingest one RSS sample; returns ΔRSS² (0.0 during warm-up)."""
        value = float(value)
        self._buffer.append(value)
        self._count += 1
        if len(self._buffer) < 2 * self.window:
            return 0.0
        buf = self._buffer
        prev_sum = sum(list(buf)[: self.window])
        cur_sum = sum(list(buf)[self.window:])
        delta = (cur_sum - prev_sum) / self.window
        return delta * delta

    def push_block(self, values: np.ndarray) -> np.ndarray:
        """Ingest N samples at once; bit-identical to N :meth:`push` calls.

        Window sums are built by strided accumulation in the same
        left-to-right order as the scalar ``sum()`` over the buffer, so
        every elementwise rounding step matches the streaming path.
        """
        x = np.asarray(values, dtype=np.float64).ravel()
        n = x.size
        if n == 0:
            return np.empty(0, dtype=np.float64)
        w = self.window
        buf = self._buffer
        carried = np.fromiter(buf, dtype=np.float64, count=len(buf))
        seq = np.concatenate([carried, x])
        out = np.zeros(n, dtype=np.float64)
        first_valid = max(0, 2 * w - len(carried) - 1)
        if first_valid < n:
            m = n - first_valid
            # Window start for output i: seq[L0+i+1-2w : ...] (buffer full).
            p0 = len(carried) + first_valid + 1 - 2 * w
            prev_sum = np.zeros(m, dtype=np.float64)
            cur_sum = np.zeros(m, dtype=np.float64)
            for k in range(w):
                prev_sum += seq[p0 + k: p0 + k + m]
                cur_sum += seq[p0 + w + k: p0 + w + k + m]
            delta = (cur_sum - prev_sum) / w
            out[first_valid:] = delta * delta
        buf.extend(x.tolist())
        self._count += n
        return out

    def reset(self) -> None:
        """Forget all buffered samples."""
        self._buffer.clear()
        self._count = 0

    @property
    def samples_seen(self) -> int:
        """Total samples pushed since construction or reset."""
        return self._count
