"""Audio front end: 48 kHz WAV decoding and log-mel feature extraction.

The feature geometry is fixed: 25 ms Hann windows, 10 ms hop, zero-padded
2048-point FFT, 128 triangular mel filters (HTK scale, 0 Hz to Nyquist),
natural log with a 1e-10 floor so digital silence maps to log(1e-10)
rather than -inf. Input outside 48 kHz is rejected, never resampled.

The spectrogram runs in float64, a block of frames at a time, so its
memory beyond the clip and its output does not grow with the clip's
length; its values are the bits of the whole-clip computation.
Normalization statistics come from per-clip moments, so a corpus is
normalized without holding its features.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .atomic import atomic_write


class AudioError(ValueError):
    """Base class for front-end input errors."""


class WavFormatError(AudioError):
    """Malformed RIFF container or unsupported codec."""


class SampleRateError(AudioError):
    """File sample rate differs from the required model rate."""


class FeatureError(ValueError):
    """Invalid feature-extraction input or corrupted output."""


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = 48000
    frame_len_s: float = 0.025
    frame_hop_s: float = 0.010
    n_fft: int = 2048
    n_mels: int = 128
    fmin: float = 0.0
    fmax: float | None = None  # None means Nyquist
    log_floor: float = 1e-10

    @property
    def window_samples(self) -> int:
        return int(round(self.frame_len_s * self.sample_rate))

    @property
    def hop_samples(self) -> int:
        return int(round(self.frame_hop_s * self.sample_rate))


@dataclass
class AudioClip:
    """Decoded mono waveform; amplitudes in [-1, 1] at a known rate.
    Construction raises AudioError unless the samples are a non-empty,
    finite mono signal within [-1, 1], so no later step repeats the
    check."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.samples.ndim != 1 or len(self.samples) == 0:
            raise AudioError("clip must contain at least one mono sample")
        if not np.isfinite(self.samples).all():
            raise AudioError("clip contains non-finite samples")
        peak = float(max(self.samples.max(), -self.samples.min()))  # no |samples| array
        if peak > 1.0 + 1e-6:
            raise AudioError(f"clip amplitude {peak} outside [-1, 1]")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class LogMelSpectrogram:
    """Log-mel energies, rows are time frames and columns are mel bins."""

    values: np.ndarray
    n_mels: int
    frame_hop_s: float
    frame_len_s: float

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def frame_count(num_samples: int, window_samples: int, hop_samples: int) -> int:
    """Number of full analysis windows: floor((N - win) / hop) + 1."""
    if num_samples < window_samples:
        return 0
    return (num_samples - window_samples) // hop_samples + 1


# ---------------------------------------------------------------- WAV I/O


def _parse_fmt_chunk(body: memoryview) -> tuple[int, int, int, int]:
    if len(body) < 16:
        raise WavFormatError("fmt chunk too short")
    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack(
        "<HHIIHH", body[:16]
    )
    return audio_format, channels, rate, bits


def decode_wav(path: str | os.PathLike, expected_sample_rate: int = 48000) -> AudioClip:
    """Decode a RIFF/WAVE file into a mono AudioClip.

    Accepts 16-bit integer PCM and 32-bit IEEE float, mono or stereo.
    Stereo is averaged to mono; integer samples are scaled by 1/32768.
    Raises SampleRateError unless the header rate matches
    expected_sample_rate (pass None to accept any rate).
    """
    raw = memoryview(Path(path).read_bytes())  # chunk slices are views, not copies
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = bytes(raw[pos : pos + 4])
        (chunk_len,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + chunk_len]
        if len(body) < chunk_len:
            raise WavFormatError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt = _parse_fmt_chunk(body)
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_len + (chunk_len & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, bits = fmt
    if channels not in (1, 2):
        raise WavFormatError(f"{path}: unsupported channel count {channels}")

    if audio_format == 1 and bits == 16:
        usable = len(data) - len(data) % (2 * channels)
        ints = np.frombuffer(data[:usable], dtype="<i2")
        samples = np.multiply(ints, 1.0 / 32768.0, dtype=np.float64)  # one array; 2**-15 is exact
    elif audio_format == 3 and bits == 32:
        usable = len(data) - len(data) % (4 * channels)
        samples = np.frombuffer(data[:usable], dtype="<f4").astype(np.float64)
    else:
        raise WavFormatError(
            f"{path}: unsupported codec (format={audio_format}, bits={bits}); "
            "expected 16-bit PCM or 32-bit float"
        )

    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)

    if expected_sample_rate is not None and rate != expected_sample_rate:
        raise SampleRateError(
            f"{path}: sample rate {rate} Hz, expected {expected_sample_rate} Hz "
            "(this toolkit rejects rather than resamples)"
        )

    return AudioClip(samples=samples, sample_rate=rate)


# ------------------------------------------------------------ mel filters


def hz_to_mel(freq_hz):
    """HTK mel scale: 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edge_frequencies(n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    mel_pts = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    return mel_to_hz(mel_pts)


@lru_cache(maxsize=8)
def _cached_filterbank(n_mels, n_fft, sample_rate, fmin, fmax):
    edges = _mel_edge_frequencies(n_mels, fmin, fmax)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs[None, :] - lo) / (ctr - lo)
    falling = (hi - bin_freqs[None, :]) / (hi - ctr)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights.setflags(write=False)
    return weights


def mel_filterbank(
    n_mels: int, n_fft: int, sample_rate: int, fmin: float = 0.0, fmax: float | None = None
) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft // 2 + 1).

    Filters peak at mel-equally-spaced center frequencies. Raises
    FeatureError when n_mels is too large for the FFT resolution (a
    filter would have no positive weight at any bin).
    """
    if n_mels < 1:
        raise FeatureError("n_mels must be >= 1")
    if n_fft < 2 or n_fft & (n_fft - 1):
        raise FeatureError("n_fft must be a power of two")
    fmax = sample_rate / 2.0 if fmax is None else fmax
    weights = _cached_filterbank(n_mels, n_fft, sample_rate, fmin, fmax)
    empty = np.where(~weights.any(axis=1))[0]
    if empty.size:
        raise FeatureError(
            f"filter rows {empty.tolist()} have no positive weight; "
            f"n_mels={n_mels} too large for n_fft={n_fft} at {sample_rate} Hz"
        )
    return weights


def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann window, built by mirroring so w[i] == w[n-1-i] exactly."""
    if n < 2:
        raise FeatureError("window length must be >= 2")
    w = np.empty(n, dtype=np.float64)
    half = (n + 1) // 2
    idx = np.arange(half)
    w[:half] = 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / (n - 1))
    w[n - half :] = w[:half][::-1]
    return w


# ------------------------------------------------------------ spectrogram


# Frames per block of the spectrogram loop. On OpenBLAS the mel GEMM of
# 8-256 rows gives each row the bits of the whole-clip product, but not
# of 1-7 rows, so the last block takes the remainder: every block has
# FRAME_BLOCK to 2 * FRAME_BLOCK - 1 frames, unless the whole clip is
# shorter than one block.
FRAME_BLOCK = 128


def log_mel_spectrogram(
    clip: AudioClip, config: FrontendConfig = FrontendConfig()
) -> LogMelSpectrogram:
    """Compute the log-mel spectrogram of one clip.

    Per frame: Hann-windowed segment of window_samples, zero-padded to
    n_fft, power spectrum, mel filterbank, then log(max(energy, floor)).

    The frames go through in blocks of FRAME_BLOCK or more, which reuse
    one padded-frame, one spectrum and one power buffer, and each
    block's mel energies go straight into the output. So the memory
    beyond the clip and its output is one block's, whatever the clip's
    length, and every value has the bits of the whole-clip computation.
    """
    if clip.sample_rate != config.sample_rate:
        raise SampleRateError(
            f"clip at {clip.sample_rate} Hz, front end configured for {config.sample_rate} Hz"
        )
    win = config.window_samples
    hop = config.hop_samples
    n_frames = frame_count(len(clip.samples), win, hop)
    if n_frames == 0:
        raise FeatureError(
            f"clip of {len(clip.samples)} samples shorter than one {win}-sample window"
        )

    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, win)[::hop]
    # rfft(x, n=n_fft) crops a longer window to n_fft samples
    width = min(win, config.n_fft)
    window = hann_window(win)[:width]
    fb_t = mel_filterbank(
        config.n_mels, config.n_fft, config.sample_rate, config.fmin, config.fmax
    ).T
    bounds = [*range(0, max(n_frames - FRAME_BLOCK, 0) + 1, FRAME_BLOCK), n_frames]
    widest = bounds[-1] - bounds[-2]  # the last block, which takes the remainder
    padded = np.zeros((widest, config.n_fft))
    spectrum = np.empty((widest, config.n_fft // 2 + 1), dtype=np.complex128)
    power = np.empty(spectrum.shape)
    values = np.empty((n_frames, config.n_mels))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = hi - lo
        np.multiply(frames[lo:hi, :width], window, out=padded[:rows, :width])
        np.fft.rfft(padded[:rows], axis=1, out=spectrum[:rows])
        parts = spectrum[:rows].view(np.float64).reshape(rows, -1, 2)  # (re, im) pairs
        np.square(parts, out=parts)
        np.add(parts[..., 0], parts[..., 1], out=power[:rows])
        np.matmul(power[:rows], fb_t, out=values[lo:hi])
    np.maximum(values, config.log_floor, out=values)
    np.log(values, out=values)
    if not np.isfinite(values).all():
        raise FeatureError("non-finite values in log-mel output (corrupt input?)")
    return LogMelSpectrogram(
        values=values,
        n_mels=config.n_mels,
        frame_hop_s=config.frame_hop_s,
        frame_len_s=config.frame_len_s,
    )


# ---------------------------------------------------------- feature cache
#
# Cache file layout: two little-endian uint32 (frames, mels) followed by
# row-major little-endian float32 values.


def save_features(path: str | os.PathLike, values: np.ndarray) -> None:
    """Write one clip's feature matrix atomically (temp file + rename)."""
    frames, mels = values.shape
    atomic_write(path, struct.pack("<II", frames, mels) + values.astype("<f4").tobytes())


def load_features(path: str | os.PathLike) -> np.ndarray:
    """Read one clip's (frames, mels) feature matrix as the stored
    float32, with no upcast; the model casts it to its own dtype.
    featurize writes only finite values of at least one frame, so a NaN,
    an inf or no frames means the file is damaged."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise FeatureError(f"{path}: truncated feature file")
    frames, mels = struct.unpack("<II", raw[:8])
    if frames == 0:
        raise FeatureError(f"{path}: feature file holds no frames")
    expected = 8 + 4 * frames * mels
    if len(raw) != expected:
        raise FeatureError(f"{path}: size {len(raw)} != expected {expected}")
    values = np.frombuffer(raw, dtype="<f4", offset=8).reshape(frames, mels)
    if not np.isfinite(values).all():
        raise FeatureError(f"{path}: non-finite feature values")
    return values.astype(np.float32)


def feature_moments(values: np.ndarray) -> tuple[float, float, int]:
    """One clip's (sum, sum of squares, cell count), for corpus_normalization."""
    return float(values.sum()), float((values**2).sum()), values.size


def corpus_normalization(moments: Iterable[tuple[float, float, int]]) -> tuple[float, float]:
    """Scalar mean/std over every time-mel cell of a corpus, from each
    clip's feature_moments in corpus order."""
    total = 0.0
    total_sq = 0.0
    count = 0
    for clip_sum, clip_sum_sq, clip_count in moments:
        total += clip_sum
        total_sq += clip_sum_sq
        count += clip_count
    if count == 0:
        raise FeatureError("cannot normalize an empty corpus")
    mean = total / count
    var = max(total_sq / count - mean**2, 0.0)
    return mean, float(np.sqrt(var) or 1.0)
