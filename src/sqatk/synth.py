"""Synthetic test corpus: tones plus noise at scripted SNRs, with
rule-derived pseudo-labels. Clearly synthetic; for tests and demos only,
never a substitute for subjectively rated speech."""

from __future__ import annotations

import math
import wave
from pathlib import Path

import numpy as np

from .frontend import FrontendConfig
from .manifest import ManifestEntry, write_manifest
from .quality import QualityScores

SNR_GRID_DB = (0, 5, 10, 15, 20, 30)
SAMPLE_BLOCK = 1 << 16  # samples per block of synthesis and of quantization


def write_wav_pcm16(path, samples: np.ndarray, sample_rate: int = FrontendConfig.sample_rate) -> None:
    """Write samples in [-1, 1] as 16-bit PCM, clipping any beyond. They
    are quantized one block of SAMPLE_BLOCK at a time, so the memory
    beyond the samples is one block's."""
    samples = np.asarray(samples)
    block = np.empty(min(len(samples), SAMPLE_BLOCK), dtype=np.result_type(samples, 1.0))
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.setnframes(len(samples))
        for lo in range(0, len(samples), SAMPLE_BLOCK):
            chunk = samples[lo : lo + SAMPLE_BLOCK]
            part = np.clip(chunk, -1.0, 1.0, out=block[: len(chunk)])
            part *= 32767.0
            fh.writeframes(part.round(out=part).astype("<i2").tobytes())


def _pseudo_labels(freq_hz: float, amplitude: float, snr_db: float, dropouts: int) -> QualityScores:
    def clamp(v):
        return float(np.clip(round(v, 2), 1.0, 5.0))

    noi = 1.0 + 4.0 * snr_db / 30.0
    loud = 1.0 + 4.0 * (amplitude - 0.2) / 0.75
    col = 5.0 - 1.6 * abs(math.log2(freq_hz / 1000.0))
    dis = 5.0 - 1.4 * dropouts
    mos = 0.45 * noi + 0.2 * dis + 0.2 * col + 0.15 * loud
    return QualityScores(
        mos=clamp(mos), col=clamp(col), dis=clamp(dis), loud=clamp(loud), noi=clamp(noi)
    )


def generate_corpus(
    out_dir,
    n_clips: int = 16,
    seed: int = 0,
    languages: tuple[str, ...] = ("ENG",),
    duration_s: float = 1.0,
    n_val: int = 0,
    n_test: int = 0,
) -> Path:
    """Write n_clips degraded tone WAVs plus a manifest; returns its path.

    Clips cycle through languages; the last n_val + n_test clips are
    assigned to the val and test splits respectively.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_samples = int(round(duration_s * FrontendConfig.sample_rate))
    bounds = [*range(0, n_samples, SAMPLE_BLOCK), n_samples]
    wave_data = np.empty(n_samples)  # each clip is built in place here

    entries = []
    for i in range(n_clips):
        freq = float(np.exp(rng.uniform(math.log(250.0), math.log(3000.0))))
        amplitude = float(rng.uniform(0.25, 0.95))
        snr_db = float(rng.choice(SNR_GRID_DB))
        dropouts = int(rng.integers(0, 3))

        # amplitude * sin(2 pi freq t) plus Gaussian noise, one block at a
        # time: the noise drawn in blocks is the stream of one draw.
        noise_std = math.sqrt((amplitude**2 / 2.0) / (10.0 ** (snr_db / 10.0)))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = wave_data[lo:hi]
            np.divide(np.arange(lo, hi), FrontendConfig.sample_rate, out=part)
            part *= 2.0 * np.pi * freq
            np.sin(part, out=part)
            part *= amplitude
            part += rng.normal(0.0, noise_std, size=hi - lo)
        drop_len = int(0.030 * FrontendConfig.sample_rate)
        for _ in range(dropouts):
            start = int(rng.integers(0, max(1, n_samples - drop_len)))
            wave_data[start : start + drop_len] = 0.0
        peak = max(float(wave_data.max()), -float(wave_data.min()))  # |x|'s max, with no |x| array
        if peak > 1.0:
            wave_data /= peak

        sample_id = f"syn{i:04d}"
        wav_path = out_dir / f"{sample_id}.wav"
        write_wav_pcm16(wav_path, wave_data)

        if i >= n_clips - n_test:
            split = "test"
        elif i >= n_clips - n_test - n_val:
            split = "val"
        else:
            split = "train"
        entries.append(
            ManifestEntry(
                sample_id=sample_id,
                audio=wav_path,
                language=languages[i % len(languages)],
                condition=f"snr{snr_db:g}_d{dropouts}",
                split=split,
                provenance="subjective",
                scores=_pseudo_labels(freq, amplitude, snr_db, dropouts),
            )
        )

    manifest_path = out_dir / "manifest.csv"
    write_manifest(manifest_path, entries)
    return manifest_path


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Generate a synthetic tone corpus for testing.")
    parser.add_argument("out_dir")
    parser.add_argument("--clips", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument("--languages", default="ENG")
    parser.add_argument("--val", type=int, default=0)
    parser.add_argument("--test", type=int, default=0)
    args = parser.parse_args(argv)
    path = generate_corpus(
        args.out_dir,
        n_clips=args.clips,
        seed=args.seed,
        languages=tuple(args.languages.split(",")),
        duration_s=args.duration,
        n_val=args.val,
        n_test=args.test,
    )
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
