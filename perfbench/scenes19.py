"""Synthetic 19-class scene set shaped like LITIS Rouen.

LITIS Rouen has 19 scene classes recorded at 22.05 kHz.  This stand-in
keeps that shape (19 classes, 22.05 kHz, clips of a few seconds) so the
171 one-vs-one pairs and the long constant-Q windows of the real set
are exercised without the audio.  Each class is one member of three
signal families:

  chirp     a log-frequency sweep between two frequencies, gated on for
            part of the clip at a random onset
  harmonic  a tone with harmonics of decaying amplitude and a slow
            tremolo, over the whole clip
  burst     a tone gated on and off at a fixed rate with a random phase
            and a random level per burst

Every clip scales its sweep ends, fundamental or carrier by a random
factor near 1 and adds white noise, so neighbouring classes overlap and
the task stays well short of perfect (MAP about 0.85-0.9).  Clip i of class k draws from a Philox stream keyed by
(seed, k, i), so the set is a pure function of the seed and the sizes.
"""

from __future__ import annotations

import math

import numpy as np

from scenehog import AudioClip

SAMPLE_RATE_HZ = 22050
CLIP_SECONDS = 2.0
FREQ_JITTER = 0.05
NOISE_SIGMA = 0.3
AMPLITUDE = 0.8

# (label, family, parameters); frequencies in Hz, rates in Hz
CLASSES = (
    ("chirp_up_low", "chirp", (150.0, 1200.0)),
    ("chirp_down_low", "chirp", (1200.0, 150.0)),
    ("chirp_up_mid", "chirp", (400.0, 3200.0)),
    ("chirp_down_mid", "chirp", (3200.0, 400.0)),
    ("chirp_up_high", "chirp", (1000.0, 8000.0)),
    ("chirp_down_high", "chirp", (8000.0, 1000.0)),
    ("chirp_up_wide", "chirp", (150.0, 8000.0)),
    ("harm_110", "harmonic", (110.0,)),
    ("harm_147", "harmonic", (147.0,)),
    ("harm_196", "harmonic", (196.0,)),
    ("harm_262", "harmonic", (262.0,)),
    ("harm_349", "harmonic", (349.0,)),
    ("harm_466", "harmonic", (466.0,)),
    ("burst_400_slow", "burst", (400.0, 2.0)),
    ("burst_400_fast", "burst", (400.0, 7.0)),
    ("burst_1600_slow", "burst", (1600.0, 2.0)),
    ("burst_1600_fast", "burst", (1600.0, 7.0)),
    ("burst_6400_slow", "burst", (6400.0, 2.0)),
    ("burst_6400_fast", "burst", (6400.0, 7.0)),
)


def _chirp(t: np.ndarray, f0: float, f1: float, rng: np.random.Generator) -> np.ndarray:
    span = 1.2
    onset = rng.uniform(0.0, t[-1] - span)
    tau = t - onset
    rate = math.log(f1 / f0) / span
    phase = 2.0 * math.pi * f0 * np.expm1(rate * tau) / rate
    return np.where((tau >= 0.0) & (tau <= span), np.sin(phase), 0.0)


def _harmonic(t: np.ndarray, f0: float, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros_like(t)
    for h in range(1, 7):
        x += 0.7 ** (h - 1) * np.sin(2.0 * math.pi * h * f0 * t + rng.uniform(0, 2 * math.pi))
    tremolo = 1.0 + 0.3 * np.sin(2.0 * math.pi * rng.uniform(0.5, 2.0) * t)
    return x * tremolo / 2.5


def _burst(t: np.ndarray, fc: float, rate: float, rng: np.random.Generator) -> np.ndarray:
    cycle = t * rate + rng.uniform(0.0, 1.0)
    on = (cycle % 1.0) < 0.35
    levels = rng.uniform(0.5, 1.0, size=int(math.ceil(cycle[-1])) + 1)
    carrier = np.sin(2.0 * math.pi * fc * t + rng.uniform(0, 2 * math.pi))
    return np.where(on, levels[cycle.astype(np.int64)] * carrier, 0.0)


def make_scenes19(seed: int, n_per_class: int) -> list[AudioClip]:
    """Generate 19 * n_per_class labelled clips, class by class."""
    n = int(SAMPLE_RATE_HZ * CLIP_SECONDS)
    t = np.arange(n, dtype=np.float64) / SAMPLE_RATE_HZ
    clips = []
    for k, (label, family, params) in enumerate(CLASSES):
        for i in range(n_per_class):
            seq = np.random.SeedSequence([int(seed), k, i])
            rng = np.random.Generator(np.random.Philox(seq))
            scale = math.exp(FREQ_JITTER * rng.standard_normal())
            if family == "chirp":
                x = _chirp(t, params[0] * scale, params[1] * scale, rng)
            elif family == "harmonic":
                x = _harmonic(t, params[0] * scale, rng)
            else:
                x = _burst(t, params[0] * scale, params[1], rng)
            x = AMPLITUDE * x + NOISE_SIGMA * rng.standard_normal(n)
            clips.append(
                AudioClip(x, SAMPLE_RATE_HZ, label=label, source_id=f"{label}_{i:04d}")
            )
    return clips
