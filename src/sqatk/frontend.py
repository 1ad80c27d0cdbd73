"""Audio front end: 48 kHz WAV decoding and log-mel feature extraction.

The feature geometry is one set of constants, FrontendConfig: 25 ms Hann
windows, 10 ms hop, zero-padded 2048-point FFT, 128 triangular mel
filters (HTK scale, 0 Hz to Nyquist), natural log with a 1e-10 floor so
digital silence maps to log(1e-10) rather than -inf. An AudioClip at any
rate but 48 kHz is rejected, never resampled.

The spectrogram runs in float64, a block of frames at a time, so its
memory beyond the clip and its output does not grow with the clip's
length; its values are the bits of the whole-clip computation. The mel
step multiplies each group of adjacent filters over only the FFT bins
it covers, since 98.5% of the filterbank's weights are exact zeros.
Normalization statistics come from per-clip moments, so a corpus is
normalized without holding its features.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
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


class FrontendConfig:
    """The one front-end geometry, as constants; both models read its frames."""

    sample_rate = 48000
    frame_len_s = 0.025
    frame_hop_s = 0.010
    n_fft = 2048
    n_mels = 128
    log_floor = 1e-10
    window_samples = int(round(frame_len_s * sample_rate))  # 1200, shorter than n_fft
    hop_samples = int(round(frame_hop_s * sample_rate))  # 480


@dataclass
class AudioClip:
    """Decoded mono waveform; amplitudes in [-1, 1] at the front end's rate.
    Construction raises SampleRateError unless the rate is 48 kHz, and
    AudioError unless the samples are a non-empty, finite mono signal
    within [-1, 1], so no later step repeats the check."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate != FrontendConfig.sample_rate:
            raise SampleRateError(
                f"sample rate {self.sample_rate} Hz, expected {FrontendConfig.sample_rate} Hz "
                "(this toolkit rejects rather than resamples)"
            )
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


# WAVE_FORMAT_EXTENSIBLE (0xFFFE) names its codec by a sub-format GUID:
# the format code (1 PCM, 3 IEEE float) in its first two bytes, then these
# fourteen.
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _parse_fmt_chunk(body: memoryview, path) -> tuple[int, int, int, int]:
    if len(body) < 16:
        raise WavFormatError(f"{path}: fmt chunk too short")
    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack(
        "<HHIIHH", body[:16]
    )
    if audio_format == 0xFFFE:
        if len(body) < 40:
            raise WavFormatError(f"{path}: extensible fmt chunk of {len(body)} bytes, under 40")
        if body[26:40] != _GUID_TAIL:
            raise WavFormatError(f"{path}: unsupported extensible sub-format {bytes(body[24:40]).hex()}")
        (audio_format,) = struct.unpack("<H", body[24:26])
    return audio_format, channels, rate, bits


def decode_wav(path: str | os.PathLike) -> AudioClip:
    """Decode a RIFF/WAVE file into a mono AudioClip.

    Accepts 16-bit integer PCM and 32-bit IEEE float, mono or stereo,
    each also in a WAVE_FORMAT_EXTENSIBLE fmt chunk of at least 40 bytes
    whose sub-format is that codec. Stereo is averaged to mono; integer
    samples are scaled by 1/32768.
    Every AudioError it raises names the file, those of AudioClip's
    checks (the 48 kHz rate among them) included, and keeps its class.
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
            fmt = _parse_fmt_chunk(body, path)
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
        with np.errstate(invalid="ignore"):  # a signalling NaN is AudioClip's to reject
            samples = np.frombuffer(data[:usable], dtype="<f4").astype(np.float64)
    else:
        raise WavFormatError(
            f"{path}: unsupported codec (format={audio_format}, bits={bits}); "
            "expected 16-bit PCM or 32-bit float"
        )

    if channels == 2:
        with np.errstate(invalid="ignore"):  # inf and -inf average to a NaN, AudioClip's to reject
            samples = samples.reshape(-1, 2).mean(axis=1)

    try:
        return AudioClip(samples=samples, sample_rate=rate)
    except AudioError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# ------------------------------------------------------------ mel filters


def hz_to_mel(freq_hz):
    """HTK mel scale: 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@cache
def mel_filterbank() -> np.ndarray:
    """The front end's read-only triangular mel filterbank, shape
    (128, 1025), built on the first call: filters from 0 Hz to Nyquist,
    peaking at mel-equally-spaced center frequencies. Every filter has
    positive weight at some FFT bin."""
    fc = FrontendConfig
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(fc.sample_rate / 2.0), fc.n_mels + 2))
    bin_freqs = np.arange(fc.n_fft // 2 + 1) * (fc.sample_rate / fc.n_fft)
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs[None, :] - lo) / (ctr - lo)
    falling = (hi - bin_freqs[None, :]) / (hi - ctr)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights.setflags(write=False)
    return weights


MEL_GROUP = 8  # adjacent filters per banded GEMM: 9,064 multiply-adds a frame, not 131,200


@cache
def mel_bands() -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """mel_filterbank() as one (filters, FFT bins, weights) per group of
    MEL_GROUP adjacent filters. weights, shape (bins, filters), holds
    the group's filters over the contiguous FFT bins where any of them
    is non-zero; every weight outside them is an exact zero, so the
    bands drop no term of the mel product."""
    fb = mel_filterbank()
    bands = []
    for first in range(0, len(fb), MEL_GROUP):
        mels = slice(first, first + MEL_GROUP)
        nonzero = np.flatnonzero(fb[mels].any(axis=0))
        bins = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
        weights = np.ascontiguousarray(fb[mels, bins].T)
        weights.setflags(write=False)
        bands.append((mels, bins, weights))
    return tuple(bands)


def mel_energies(power: np.ndarray, out: np.ndarray) -> None:
    """out[:] = power @ mel_filterbank().T, one GEMM per band of
    mel_bands(), each over its own FFT bins only."""
    for mels, bins, weights in mel_bands():
        np.matmul(power[:, bins], weights, out=out[:, mels])


@cache
def hann_window() -> np.ndarray:
    """The front end's read-only symmetric Hann window of window_samples,
    built once by mirroring, so w[i] == w[n-1-i] exactly."""
    n = FrontendConfig.window_samples
    w = np.empty(n, dtype=np.float64)
    half = (n + 1) // 2
    idx = np.arange(half)
    w[:half] = 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / (n - 1))
    w[n - half :] = w[:half][::-1]
    w.setflags(write=False)
    return w


# Built at import: built lazily in the first clip's spectrogram, the kept
# array sits among that clip's freed buffers, and the cnn_train_2s bench's
# peak RSS read 1.1 MiB higher.
hann_window()


# ------------------------------------------------------------ spectrogram


# Frames per block of the spectrogram loop; no size tried with the
# banded mel GEMMs ran faster. On OpenBLAS a banded GEMM of two or more
# rows (checked up to a 12 s clip's 1198) gives each row the bits of the
# whole-clip product, but not of one row, which NumPy hands to gemv, so
# the last block takes the remainder: every block has FRAME_BLOCK to
# 2 * FRAME_BLOCK - 1 frames, unless the whole clip is shorter than one
# block.
FRAME_BLOCK = 64


def log_mel_spectrogram(clip: AudioClip) -> LogMelSpectrogram:
    """Compute the log-mel spectrogram of one clip.

    Per frame: Hann-windowed segment of window_samples, zero-padded to
    n_fft, power spectrum, mel filterbank, then log(max(energy, floor)).

    The frames go through in blocks of FRAME_BLOCK or more, which reuse
    one windowed-frame, one spectrum and one power buffer, and each
    block's mel energies go straight into the output. So the memory
    beyond the clip and its output is one block's, whatever the clip's
    length, and every value has the bits of the whole-clip computation.
    """
    fc = FrontendConfig
    win = fc.window_samples
    hop = fc.hop_samples
    n_frames = frame_count(len(clip.samples), win, hop)
    if n_frames == 0:
        raise FeatureError(
            f"clip of {len(clip.samples)} samples shorter than one {win}-sample window"
        )

    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, win)[::hop]
    window = hann_window()
    bounds = [*range(0, max(n_frames - FRAME_BLOCK, 0) + 1, FRAME_BLOCK), n_frames]
    widest = bounds[-1] - bounds[-2]  # the last block, which takes the remainder
    windowed = np.empty((widest, win))
    spectrum = np.empty((widest, fc.n_fft // 2 + 1), dtype=np.complex128)
    power = np.empty(spectrum.shape)
    values = np.empty((n_frames, fc.n_mels))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = hi - lo
        np.multiply(frames[lo:hi], window, out=windowed[:rows])
        np.fft.rfft(windowed[:rows], n=fc.n_fft, axis=1, out=spectrum[:rows])  # zero-pads to n_fft
        parts = spectrum[:rows].view(np.float64).reshape(rows, -1, 2)  # (re, im) pairs
        np.square(parts, out=parts)
        np.add(parts[..., 0], parts[..., 1], out=power[:rows])
        mel_energies(power[:rows], values[lo:hi])
    np.maximum(values, fc.log_floor, out=values)
    np.log(values, out=values)
    if not np.isfinite(values).all():
        raise FeatureError("non-finite values in log-mel output (corrupt input?)")
    return LogMelSpectrogram(values, fc.n_mels, fc.frame_hop_s, fc.frame_len_s)


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
    featurize writes only finite values of at least one frame, in
    FrontendConfig.n_mels bins, so a NaN, an inf, no frames or another
    mel count means the file is damaged or was not written by featurize."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise FeatureError(f"{path}: truncated feature file")
    frames, mels = struct.unpack("<II", raw[:8])
    if frames == 0:
        raise FeatureError(f"{path}: feature file holds no frames")
    if mels != FrontendConfig.n_mels:
        raise FeatureError(
            f"{path}: feature file has {mels} mel bins, the models read {FrontendConfig.n_mels}"
        )
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
