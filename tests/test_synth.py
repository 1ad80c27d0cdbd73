"""synth: the seeded corpus keeps its WAV bytes, and a clip is built and
written in one float64 buffer."""

import hashlib
import wave

import numpy as np
import pytest

from memory import peak_traced_bytes
from sqatk.frontend import FrontendConfig
from sqatk.synth import SAMPLE_BLOCK, generate_corpus, write_wav_pcm16

# SHA-256 of each WAV, taken when the clips were built out of place.
_WAV_SHA256 = {
    # one 12 s clip, which peak normalization divides by its peak
    (3, 1, 12.0): {"syn0000.wav": "9d2e199fbcb7594e4ad9757bbf0ed4423bc09689528abb290ae3711a46a1ded1"},
    # 0.5 s clips: the first two are normalized, the third is not
    (0, 3, 0.5): {
        "syn0000.wav": "d6abe35cf7e400dcf01eba3cf774b45a0e0d0a4cc8d4b10d8832a5d1c4e85c28",
        "syn0001.wav": "b3d9b8b9fd7a9549b750b797548f966578fea8bb0f8c84ea6d2eeef0d0aa997f",
        "syn0002.wav": "8fa2376eb274dfee089a5ba5b00782e75a8a967b68c3635735745a81b0b2c37e",
    },
}


@pytest.mark.parametrize("seed, n_clips, duration_s", sorted(_WAV_SHA256))
def test_seeded_corpus_keeps_its_wav_bytes(tmp_path, seed, n_clips, duration_s):
    generate_corpus(tmp_path, n_clips=n_clips, seed=seed, duration_s=duration_s)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.glob("*.wav"))}
    assert got == _WAV_SHA256[(seed, n_clips, duration_s)]


def test_a_12s_clip_is_built_in_one_buffer(tmp_path):
    """One 12 s clip traces under twice its 4.4 MiB of float64 samples:
    the clip's buffer plus one block's noise and quantization, 5.7 MiB.
    Built out of place, with whole-clip copies, it traced 27.0 MiB."""
    clip_bytes = 12 * FrontendConfig.sample_rate * 8
    peak, _ = peak_traced_bytes(lambda: generate_corpus(tmp_path, n_clips=1, seed=3, duration_s=12.0))
    assert peak < 2 * clip_bytes, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_blocked_quantization_matches_one_pass(tmp_path, dtype):
    """Quantizing in blocks of SAMPLE_BLOCK writes the frames of one
    pass over the whole input, clipping included, in the input's own
    float dtype (float64 for integers)."""
    n = 2 * SAMPLE_BLOCK + 123
    samples = (np.random.default_rng(0).normal(0.0, 0.7, n) * (3 if dtype == np.int64 else 1)).astype(dtype)
    path = tmp_path / "x.wav"
    write_wav_pcm16(path, samples)
    with wave.open(str(path)) as fh:
        assert fh.getnframes() == n
        frames = fh.readframes(n)
    assert frames == (np.clip(samples, -1.0, 1.0) * 32767.0).round().astype("<i2").tobytes()
