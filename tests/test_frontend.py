"""Front-end tests: WAV decoding, mel filterbank, log-mel extraction,
and the brute-force DFT oracle."""

import re
import struct
import uuid
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from damage import damaged
from memory import peak_traced_bytes
from sqatk import frontend as fe
from sqatk.cli import ERRORS

SR = 48000
CFG = fe.FrontendConfig()


def write_pcm16(path, samples, rate=SR, channels=1):
    data = np.asarray(samples)
    if channels == 2 and data.ndim == 1:
        data = np.stack([data, data], axis=1)
    ints = np.clip(data * 32768.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(ints.tobytes())


def write_float32(path, samples, rate=SR):
    """Minimal RIFF writer for IEEE float WAVs (stdlib wave cannot)."""
    path.write_bytes(float32_wav(samples, rate))


def float32_wav(samples, rate=SR) -> bytes:
    """The bytes of a mono IEEE float WAV."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, rate, rate * 4, 4, 32)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def sub_format(code) -> bytes:
    """The WAVE_FORMAT_EXTENSIBLE sub-format GUID of a format code, as
    the fmt chunk stores it."""
    return uuid.UUID(f"{code:08x}-0000-0010-8000-00aa00389b71").bytes_le


def extensible_wav(raw, guid=None, bits=None, fmt_len=40) -> bytes:
    """raw, a WAV with a 16-byte fmt chunk and then its data chunk, with
    the fmt chunk rewritten as WAVE_FORMAT_EXTENSIBLE (0xFFFE): its codec
    moves into the sub-format GUID, and the chunk is cut to fmt_len."""
    code, channels, rate, byte_rate, align, plain_bits = struct.unpack("<HHIIHH", raw[20:36])
    bits = bits or plain_bits
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, byte_rate, align, bits, 22, bits, 0)
    fmt = (fmt + (guid or sub_format(code)))[:fmt_len]
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt + raw[36:]
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


# ------------------------------------------------------------------ decode


def test_decode_silence(tmp_path):
    path = tmp_path / "silence.wav"
    write_pcm16(path, np.zeros(SR))
    clip = fe.decode_wav(path)
    assert clip.sample_rate == SR
    assert len(clip.samples) == SR
    assert np.all(clip.samples == 0.0)


def test_decode_int16_scale_boundary(tmp_path):
    """Every int16 value decodes to the bits of the two-array expression
    ints.astype(float64) / 32768 that decode_wav replaced."""
    path = tmp_path / "min.wav"
    ints = np.concatenate([[-32768, 0, 32767], np.arange(-32768, 32768)]).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SR)
        fh.writeframes(ints.tobytes())
    clip = fe.decode_wav(path)
    assert clip.samples[0] == -1.0
    assert clip.samples[1] == 0.0
    assert clip.samples[2] == pytest.approx(32767 / 32768)
    assert clip.samples.tobytes() == (ints.astype(np.float64) / 32768.0).tobytes()


def test_decode_sine_roundtrip(tmp_path):
    t = np.arange(int(0.5 * SR)) / SR
    sine = np.sin(2 * np.pi * 440.0 * t)
    path = tmp_path / "sine.wav"
    write_pcm16(path, sine)
    clip = fe.decode_wav(path)
    assert len(clip.samples) == 24000
    assert abs(clip.samples.max() - 1.0) < 1e-3
    assert np.abs(clip.samples - sine).max() < 1e-3  # 16-bit quantization


def test_decode_stereo_averages(tmp_path):
    left = np.full(100, 0.5)
    data = np.stack([left, -left], axis=1)
    path = tmp_path / "stereo.wav"
    write_pcm16(path, data, channels=2)
    clip = fe.decode_wav(path)
    assert np.abs(clip.samples).max() < 1e-4


def test_decode_float32(tmp_path):
    path = tmp_path / "float.wav"
    values = np.array([0.25, -0.75, 1.0], dtype=np.float32)
    write_float32(path, values)
    clip = fe.decode_wav(path)
    np.testing.assert_allclose(clip.samples, values, atol=0)


def test_decode_rejects_wrong_rate(tmp_path):
    path = tmp_path / "rate.wav"
    write_pcm16(path, np.zeros(100), rate=16000)
    expected = f"^{re.escape(str(path))}: sample rate 16000 Hz, expected 48000 Hz"
    with pytest.raises(fe.SampleRateError, match=expected):
        fe.decode_wav(path)


def test_a_hand_built_clip_at_another_rate_is_rejected():
    with pytest.raises(fe.SampleRateError, match="rejects rather than resamples"):
        fe.AudioClip(np.zeros(480), 44100)


@pytest.mark.parametrize("samples, error, message", [
    (np.array([0.0, np.nan, 0.5]), fe.AudioError, "clip contains non-finite samples"),
    (np.array([0.0, -1.5, 0.5]), fe.AudioError, r"clip amplitude 1.5 outside \[-1, 1\]"),
    (np.zeros(0), fe.AudioError, "clip must contain at least one mono sample"),
], ids=["nan", "loud", "empty"])
def test_every_clip_check_decode_reports_names_the_file(tmp_path, samples, error, message):
    """AudioClip's own messages carry no path; decode_wav adds it and
    keeps the error's class."""
    path = tmp_path / "clip.wav"
    write_float32(path, samples)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: {message}$") as caught:
        fe.decode_wav(path)
    assert type(caught.value) is error


def test_decode_rejects_malformed(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFFxxxxNOPE")
    with pytest.raises(fe.WavFormatError):
        fe.decode_wav(path)


def test_decode_rejects_unsupported_codec(tmp_path):
    path = tmp_path / "ulaw.wav"
    fmt = struct.pack("<HHIIHH", 7, 1, SR, SR, 1, 8)  # mu-law
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 4) + b"\x00\x00\x00\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(fe.WavFormatError, match="codec"):
        fe.decode_wav(path)


@pytest.mark.parametrize("codec, channels", [("pcm16", 1), ("pcm16", 2), ("float32", 1)])
def test_extensible_wav_decodes_as_its_plain_twin(tmp_path, codec, channels):
    """A WAVE_FORMAT_EXTENSIBLE file whose sub-format is 16-bit PCM or
    32-bit float decodes bit for bit as the same file in format 1 or 3."""
    plain = tmp_path / "plain.wav"
    samples = np.random.default_rng(1).uniform(-0.9, 0.9, size=480)
    if codec == "pcm16":
        write_pcm16(plain, samples, channels=channels)
    else:
        write_float32(plain, samples)
    ext = tmp_path / "ext.wav"
    ext.write_bytes(extensible_wav(plain.read_bytes()))
    want, got = fe.decode_wav(plain).samples, fe.decode_wav(ext).samples
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kwargs, message", [
    (dict(bits=24), r"unsupported codec \(format=1, bits=24\)"),
    (dict(guid=uuid.UUID("00000001-0721-11d3-8644-c8c1ca000000").bytes_le),
     "unsupported extensible sub-format 010000002107d3118644c8c1ca000000$"),
    (dict(guid=sub_format(7)), r"unsupported codec \(format=7, bits=16\)"),
    (dict(fmt_len=18), "extensible fmt chunk of 18 bytes, under 40"),
], ids=["pcm24", "ambisonic-guid", "mulaw-guid", "short-chunk"])
def test_extensible_wav_of_another_codec_is_rejected_by_name(tmp_path, kwargs, message):
    plain = tmp_path / "plain.wav"
    write_pcm16(plain, np.zeros(48))
    path = tmp_path / "ext.wav"
    path.write_bytes(extensible_wav(plain.read_bytes(), **kwargs))
    with pytest.raises(fe.WavFormatError, match=f"^{re.escape(str(path))}: {message}"):
        fe.decode_wav(path)


@pytest.mark.parametrize("peak", [1.5, -1.5])
def test_decode_rejects_a_clip_beyond_full_scale(tmp_path, peak):
    path = tmp_path / "loud.wav"
    write_float32(path, np.array([0.0, peak, 0.5], dtype=np.float32))
    with pytest.raises(fe.AudioError, match=r"outside \[-1, 1\]"):
        fe.decode_wav(path)


@pytest.mark.parametrize("samples,message", [
    (np.array([0.0, np.nan, 0.5]), "non-finite"),
    (np.array([0.0, np.inf]), "non-finite"),
    (np.array([0.0, -1.5, 0.5]), r"outside \[-1, 1\]"),
    (np.zeros(0), "at least one mono sample"),
    (np.zeros((4, 2)), "at least one mono sample"),
])
def test_a_hand_built_clip_is_checked_at_construction(samples, message):
    with pytest.raises(fe.AudioError, match=message):
        fe.AudioClip(samples, SR)


def test_decode_of_a_12s_clip_holds_one_float64_copy(tmp_path):
    """Beside the file's bytes, decoding holds the 4.6 MB float64 samples
    once and the PCM data not at all: 6.05 MiB traced at the peak. A
    float64 temporary for the scale and another for |samples| peaked at
    11.0 MiB, and a bytes copy of the data chunk at 7.1 MiB."""
    path = tmp_path / "long.wav"
    write_pcm16(path, 0.3 * np.sin(np.arange(SAMPLES_12S) / 10.0))
    peak, _ = peak_traced_bytes(lambda: fe.decode_wav(path))
    assert peak < 6.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# -------------------------------------------------------------- filterbank


def test_filterbank_shape():
    fb = fe.mel_filterbank()
    assert fb.shape == (128, 1025)
    assert (fb >= 0).all()
    assert (fb.sum(axis=1) > 0).all()


def test_mel_formula_value():
    # mel(f) = 2595 * log10(1 + f / 700); evaluated independently
    assert fe.hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), abs=1e-6)
    assert float(fe.hz_to_mel(700.0)) == pytest.approx(781.17, abs=0.01)


def _filter_centers(n_mels, sample_rate):
    """Peak frequency in Hz of each triangular filter, 0 Hz to Nyquist."""
    mel_pts = np.linspace(fe.hz_to_mel(0.0), fe.hz_to_mel(sample_rate / 2.0), n_mels + 2)
    return fe.mel_to_hz(mel_pts[1:-1])


def test_filter_peaks_strictly_increasing():
    centers = _filter_centers(128, SR)
    assert (np.diff(centers) > 0).all()
    fb = fe.mel_filterbank()
    bin_freqs = np.arange(1025) * (SR / 2048)
    assert (np.abs(bin_freqs[fb.argmax(axis=1)] - centers) <= SR / 2048).all()


def test_hann_window_exactly_symmetric():
    w = fe.hann_window()
    assert w.shape == (1200,)
    assert np.array_equal(w, w[::-1])
    assert fe.hann_window() is w and not w.flags.writeable


# ------------------------------------------------------------ spectrogram


def test_silence_spectrogram():
    clip = fe.AudioClip(np.zeros(SR), SR)
    spec = fe.log_mel_spectrogram(clip)
    # frame count: floor((48000 - 1200) / 480) + 1 == 98
    assert spec.n_frames == (48000 - 1200) // 480 + 1 == 98
    assert np.all(spec.values == np.log(1e-10))


def test_sine_argmax_at_nearest_center():
    t = np.arange(SR) / SR
    clip = fe.AudioClip(0.8 * np.sin(2 * np.pi * 1000.0 * t), SR)
    spec = fe.log_mel_spectrogram(clip)
    arg = spec.values[2:-2].argmax(axis=1)
    assert len(set(arg.tolist())) == 1
    # independent center computation from the mel formula
    mel_pts = np.linspace(0.0, 2595.0 * np.log10(1.0 + 24000.0 / 700.0), 130)
    centers = 700.0 * (10.0 ** (mel_pts[1:-1] / 2595.0) - 1.0)
    assert arg[0] == int(np.argmin(np.abs(centers - 1000.0)))


def test_amplitude_doubling_adds_log4():
    rng = np.random.default_rng(7)
    base = 0.3 * rng.standard_normal(9600)
    base = np.clip(base, -0.49, 0.49)
    spec1 = fe.log_mel_spectrogram(fe.AudioClip(base, SR)).values
    spec2 = fe.log_mel_spectrogram(fe.AudioClip(2.0 * base, SR)).values
    floor = np.log(1e-10)
    above = (spec1 > floor + 1e-6) & (spec2 > floor + 1e-6)
    assert above.any()
    np.testing.assert_allclose((spec2 - spec1)[above], np.log(4.0), atol=1e-9)


def test_too_short_clip_rejected():
    with pytest.raises(fe.FeatureError, match="shorter"):
        fe.log_mel_spectrogram(fe.AudioClip(np.zeros(1199), SR))


def test_output_always_finite(rng):
    clip = fe.AudioClip(rng.uniform(-1, 1, size=4800), SR)
    values = fe.log_mel_spectrogram(clip).values
    assert np.isfinite(values).all()


@given(st.integers(min_value=1200, max_value=60000))
def test_frame_count_formula(num_samples):
    clip = fe.AudioClip(np.full(num_samples, 0.01), SR)
    spec = fe.log_mel_spectrogram(clip)
    assert spec.n_frames == (num_samples - 1200) // 480 + 1


def _whole_clip_power(samples):
    """Every frame's power spectrum, in one windowing, rfft and power."""
    win = CFG.window_samples
    frames = np.lib.stride_tricks.sliding_window_view(samples, win)[:: CFG.hop_samples]
    spectrum = np.fft.rfft(frames * fe.hann_window(), n=CFG.n_fft, axis=1)
    return spectrum.real**2 + spectrum.imag**2


def _banded_energies(power):
    energies = np.empty((len(power), CFG.n_mels))
    fe.mel_energies(power, energies)
    return energies


def _log_mel_whole_clip(samples):
    """The log-mel without frame blocks: every frame of the clip in one
    windowing, rfft, power and banded mel product."""
    return np.log(np.maximum(_banded_energies(_whole_clip_power(samples)), CFG.log_floor))


BLOCK = fe.FRAME_BLOCK
SAMPLES_12S = 12 * SR  # 1198 frames


@pytest.mark.parametrize(
    "n_frames",
    [*range(1, 10), BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK + 7,
     4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1, 6 * BLOCK + 7, 1198],
)
def test_blocked_log_mel_is_bit_equal_to_the_whole_clip(rng, n_frames):
    """Frame blocks change no bit of the banded whole-clip product: one
    block, a last block that takes a remainder of one frame up to one
    block less one, and a 12 s clip."""
    if n_frames == 1198:
        n_samples = SAMPLES_12S
    else:
        n_samples = CFG.window_samples + (n_frames - 1) * CFG.hop_samples + int(rng.integers(0, 480))
    samples = rng.uniform(-0.5, 0.5, size=n_samples)
    got = fe.log_mel_spectrogram(fe.AudioClip(samples, SR)).values
    ref = _log_mel_whole_clip(samples)
    assert got.shape == ref.shape == (n_frames, CFG.n_mels)
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_mel_bands_hold_every_nonzero_weight_of_the_filterbank():
    """The bands put back together are mel_filterbank() bit for bit, so
    they drop only exact zeros; a band cut one bin short fails here."""
    fb = fe.mel_filterbank()
    rebuilt = np.zeros_like(fb)
    for mels, bins, weights in fe.mel_bands():
        rebuilt[mels, bins] = weights.T
    np.testing.assert_array_equal(rebuilt.view(np.uint64), fb.view(np.uint64))


def test_banded_energies_match_the_dense_mel_product(rng):
    """Only the order of the non-zero terms differs from the dense GEMM."""
    power = _whole_clip_power(rng.uniform(-0.5, 0.5, size=SR))
    dense = power @ fe.mel_filterbank().T
    np.testing.assert_allclose(_banded_energies(power), dense, rtol=1e-14, atol=0)


def test_log_mel_of_a_12s_clip_peaks_at_one_block():
    """Beyond the 4.6 MB clip and its 1.2 MB output, a 12 s clip needs
    one block's buffers: 4.9 MiB traced at the peak, where the whole-clip
    computation peaked at 48 MiB."""
    clip = fe.AudioClip(np.random.default_rng(0).uniform(-0.5, 0.5, size=SAMPLES_12S), SR)
    peak, _ = peak_traced_bytes(lambda: fe.log_mel_spectrogram(clip))
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ------------------------------------------------------------- DFT oracle


def naive_log_mel(samples, config=CFG):
    """Brute-force O(N^2) DFT oracle sharing only window and filterbank."""
    win = config.window_samples
    hop = config.hop_samples
    window = fe.hann_window()
    n_frames = (len(samples) - win) // hop + 1
    k = np.arange(config.n_fft // 2 + 1)
    n = np.arange(win)
    basis = np.exp(-2j * np.pi * np.outer(k, n) / config.n_fft)  # (bins, win)
    fb = fe.mel_filterbank()
    out = np.empty((n_frames, config.n_mels))
    for f in range(n_frames):
        seg = samples[f * hop : f * hop + win] * window
        spectrum = basis @ seg
        power = spectrum.real**2 + spectrum.imag**2
        out[f] = np.log(np.maximum(power @ fb.T, config.log_floor))
    return out


def test_against_naive_dft_oracle(rng):
    for trial in range(3):
        n = int(rng.integers(1200, int(0.2 * SR)))
        samples = np.clip(0.4 * rng.standard_normal(n), -1, 1)
        fast = fe.log_mel_spectrogram(fe.AudioClip(samples, SR)).values
        slow = naive_log_mel(samples)
        assert np.abs(fast - slow).max() < 1e-6


# ----------------------------------------------------------- feature cache


def test_feature_cache_roundtrip(tmp_path, rng):
    values = rng.normal(size=(37, 128))
    path = tmp_path / "clip.feat"
    fe.save_features(path, values)
    loaded = fe.load_features(path)
    assert loaded.shape == (37, 128)
    np.testing.assert_allclose(loaded, values, atol=1e-6)
    # header is two little-endian uint32
    frames, mels = struct.unpack("<II", path.read_bytes()[:8])
    assert (frames, mels) == (37, 128)


def test_feature_cache_rejects_truncated(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(struct.pack("<II", 10, 128) + b"\x00" * 16)
    with pytest.raises(fe.FeatureError, match="size"):
        fe.load_features(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_cache_rejects_a_non_finite_value(tmp_path, value):
    values = np.zeros((4, 128))
    values[2, 1] = value
    path = tmp_path / "bad.feat"
    fe.save_features(path, values)
    with pytest.raises(fe.FeatureError, match=f"{path}: non-finite"):
        fe.load_features(path)


def test_feature_cache_of_another_mel_count_is_rejected(tmp_path, rng):
    """featurize writes FrontendConfig.n_mels bins, so a 64-mel cache is a
    FeatureError that names the file, raised before a model reads it."""
    path = tmp_path / "clip.feat"
    fe.save_features(path, rng.normal(size=(50, 64)))
    with pytest.raises(fe.FeatureError) as exc:
        fe.load_features(path)
    assert str(exc.value) == f"{path}: feature file has 64 mel bins, the models read 128"


# A valid one-frame cache, the shortest load_features accepts: 520 bytes.
_CACHE = struct.pack("<II", 1, 128) + np.random.default_rng(0).normal(size=(1, 128)).astype("<f4").tobytes()


@given(raw=damaged(_CACHE))
def test_damaged_cache_loads_as_its_header_says_or_is_a_feature_error(tmp_path_factory, raw):
    """load_features either returns a finite float32 array of the header's
    (frames, mels) or raises FeatureError, never another exception."""
    path = tmp_path_factory.getbasetemp() / "damaged.feat"
    path.write_bytes(raw)
    try:
        values = fe.load_features(path)
    except fe.FeatureError:
        return
    assert values.dtype == np.float32
    assert values.shape == struct.unpack("<II", raw[:8])
    assert np.isfinite(values).all()


# A valid 8-sample WAV of 76 bytes, 44 of them headers, so that edits
# often reach a header field.
_WAV = float32_wav(np.random.default_rng(0).uniform(-0.9, 0.9, size=8))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300)
@given(raw=damaged(_WAV))
@example(raw=_WAV[:16] + struct.pack("<I", 14) + _WAV[20:])  # a fmt chunk too short to unpack
@example(raw=extensible_wav(_WAV))  # the same clip in a WAVE_FORMAT_EXTENSIBLE fmt chunk
@example(raw=_WAV[:40] + struct.pack("<I", 31) + _WAV[44:])  # data of 7.75 samples
@example(raw=_WAV[:44] + struct.pack("<I", 0x7F800001) + _WAV[48:])  # a signalling NaN sample
@example(raw=_WAV[:22] + struct.pack("<H", 2) + _WAV[24:44] + struct.pack("<ff", np.inf, -np.inf) + _WAV[52:])
def test_damaged_wav_decodes_or_fails_with_an_error_main_reports(tmp_path_factory, raw):
    """decode_wav gives a checked AudioClip or one of the errors cli.main
    turns into exit code 1, never another exception, and NumPy warns of
    nothing on the way; the last example is a stereo frame of inf and
    -inf, whose mean is NaN."""
    path = tmp_path_factory.getbasetemp() / "damaged.wav"
    path.write_bytes(raw)
    try:
        clip = fe.decode_wav(path)
    except ERRORS:
        return
    assert clip.sample_rate == SR
    assert np.isfinite(clip.samples).all() and np.abs(clip.samples).max() <= 1.0 + 1e-6


def test_corpus_normalization():
    feats = [np.full((4, 2), 2.0), np.full((4, 2), 6.0)]
    mean, std = fe.corpus_normalization(fe.feature_moments(v) for v in feats)
    assert mean == pytest.approx(4.0)
    assert std == pytest.approx(2.0)
