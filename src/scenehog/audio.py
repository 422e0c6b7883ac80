"""Audio input: WAV decoding, segmentation and the synthetic benchmark set.

All audio is represented as mono float64 in [-1, 1].  The synthetic
benchmark is a two class chirp problem whose classes are time reversed
copies of each other, which makes it a cheap but non-trivial sanity
check for the whole pipeline.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, UnsupportedCodecError
from .util import atomic_write_bytes

__all__ = [
    "AudioClip",
    "ToyConfig",
    "read_wav",
    "wav_length",
    "write_wav",
    "segment_length",
    "segment",
    "make_toy_dataset",
]


@dataclass
class AudioClip:
    """A mono audio signal with its sample rate and bookkeeping tags.

    samples        float64 vector, finite, non-empty
    sample_rate_hz positive integer
    label          class identifier, or None when unknown
    source_id      stable identifier used in manifests and file names
    """

    samples: np.ndarray
    sample_rate_hz: int
    label: str | None = None
    source_id: str = ""

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("AudioClip.samples must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("AudioClip.samples must be finite")
        if int(self.sample_rate_hz) <= 0:
            raise DataError("AudioClip.sample_rate_hz must be positive")
        self.sample_rate_hz = int(self.sample_rate_hz)


# ---------------------------------------------------------------------------
# WAV container
# ---------------------------------------------------------------------------

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


# bytes per sample of each supported (codec, bit depth)
_SAMPLE_BYTES = {
    (_WAVE_FORMAT_PCM, 8): 1,
    (_WAVE_FORMAT_PCM, 16): 2,
    (_WAVE_FORMAT_PCM, 24): 3,
    (_WAVE_FORMAT_IEEE_FLOAT, 32): 4,
}


def _wav_layout(handle, path: Path) -> tuple[int, int, int, int, int, int]:
    """(codec, channels, sample rate, bits, data offset, data bytes) of an
    open RIFF/WAVE file.

    Walks the chunk headers, honouring pad bytes, and reads the payload
    of the fmt chunk only.  Raises FormatError for a malformed container
    (a chunk declaring more bytes than the file holds included) and
    UnsupportedCodecError for an encoding read_wav cannot decode.
    """
    size = os.fstat(handle.fileno()).st_size
    head = handle.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= size:
        handle.seek(pos)
        fourcc, chunk_size = struct.unpack("<4sI", handle.read(8))
        if pos + 8 + chunk_size > size:
            raise FormatError(
                f"{path}: truncated chunk {fourcc!r}: declared {chunk_size} bytes, "
                f"got {size - pos - 8}"
            )
        if fourcc == b"fmt " and fmt is None:
            chunk = handle.read(chunk_size)
            if len(chunk) < 16:
                raise FormatError(f"{path}: fmt chunk too short ({len(chunk)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", chunk, 0)
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                if len(chunk) < 40:
                    raise FormatError(f"{path}: extensible fmt chunk too short")
                # first two bytes of the sub-format GUID carry the codec tag
                (subformat,) = struct.unpack_from("<H", chunk, 24)
                fmt = (subformat,) + fmt[1:]
        elif fourcc == b"data" and data is None:
            data = (pos + 8, chunk_size)
        pos += 8 + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise FormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")

    codec, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        raise FormatError(f"{path}: channel count {n_channels} invalid")
    if codec not in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT):
        raise UnsupportedCodecError(f"{path}: codec tag {codec} not supported")
    if (codec, bits) not in _SAMPLE_BYTES:
        kind = "PCM" if codec == _WAVE_FORMAT_PCM else "float"
        raise UnsupportedCodecError(f"{path}: {bits}-bit {kind} not supported")
    return codec, n_channels, sample_rate, bits, data[0], data[1]


def wav_length(path: str | Path) -> tuple[int, int]:
    """(frames, sample rate) of a WAV file from its header alone: the
    length of the clip read_wav returns, without reading the samples.

    A file read_wav refuses raises the same error here when the fault
    lies in the header; a fault in the samples shows only on decoding.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        codec, n_channels, rate, bits, _, n_bytes = _wav_layout(handle, path)
    return n_bytes // _SAMPLE_BYTES[codec, bits] // n_channels, rate


def read_wav(path: str | Path, label: str | None = None) -> AudioClip:
    """Read a RIFF/WAVE file into a mono AudioClip.

    Supported encodings: 8/16/24 bit integer PCM and 32 bit IEEE float,
    any channel count.  Multichannel input is downmixed by averaging
    the channels.  Integer samples are scaled onto [-1, 1] by the full
    scale of their bit width; 8 bit data is unsigned per the format.

    Raises FormatError for a malformed container and
    UnsupportedCodecError for well-formed files using other encodings.
    Only the data chunk's payload is read into memory.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        codec, n_channels, sample_rate, bits, offset, n_bytes = _wav_layout(handle, path)
        handle.seek(offset)
        payload = handle.read(n_bytes)

    if codec == _WAVE_FORMAT_PCM and bits == 8:
        raw = np.frombuffer(payload, dtype=np.uint8)
        x = (raw.astype(np.float64) - 128.0) / 128.0
    elif codec == _WAVE_FORMAT_PCM and bits == 16:
        raw = np.frombuffer(payload, dtype="<i2", count=len(payload) // 2)
        x = raw.astype(np.float64) / 32768.0
    elif codec == _WAVE_FORMAT_PCM and bits == 24:
        b = np.frombuffer(payload, dtype=np.uint8, count=len(payload) // 3 * 3).reshape(-1, 3)
        val = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        val = np.where(val >= 1 << 23, val - (1 << 24), val)
        x = val.astype(np.float64) / float(1 << 23)
    else:  # 32 bit float, the one other entry of _SAMPLE_BYTES
        raw = np.frombuffer(payload, dtype="<f4", count=len(payload) // 4)
        x = raw.astype(np.float64)

    if x.size == 0:
        raise FormatError(f"{path}: empty data chunk")
    if n_channels > 1:
        frames = x.size // n_channels
        x = x[: frames * n_channels].reshape(frames, n_channels).mean(axis=1)
    if not np.all(np.isfinite(x)):
        raise FormatError(f"{path}: non-finite sample values")
    return AudioClip(x, sample_rate, label=label, source_id=path.stem)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a mono 32 bit IEEE float WAV file.

    Output bytes are a pure function of the samples and rate, so equal
    clips always produce identical files.
    """
    x = np.asarray(clip.samples, dtype="<f4")
    payload = x.tobytes()
    fmt = struct.pack(
        "<HHIIHH",
        _WAVE_FORMAT_IEEE_FLOAT,
        1,
        clip.sample_rate_hz,
        clip.sample_rate_hz * 4,
        4,
        32,
    )
    fact = struct.pack("<I", x.size)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<I", len(fact)) + fact
        + b"data" + struct.pack("<I", len(payload)) + payload
    )
    if len(payload) & 1:
        body += b"\x00"
    atomic_write_bytes(Path(path), [b"RIFF" + struct.pack("<I", len(body)) + body])


def segment_length(seg_seconds: float, sample_rate_hz: int) -> int:
    """Samples per segment: seg_seconds * sample_rate_hz rounded, at least 1."""
    if seg_seconds <= 0:
        raise ConfigError(f"seg_seconds must be positive, got {seg_seconds}")
    seg_len = int(round(seg_seconds * sample_rate_hz))
    if seg_len < 1:
        raise ConfigError("seg_seconds shorter than one sample")
    return seg_len


def segment(clip: AudioClip, seg_seconds: float) -> list[AudioClip]:
    """Cut a clip into consecutive non-overlapping pieces of fixed length.

    Returns floor(duration / seg_seconds) segments; the trailing
    remainder is dropped.  Segment source ids append a zero padded
    index to the parent id so concatenating the segments in id order
    reproduces a prefix of the input.  A segment's samples are a
    read-only view of the clip's, so cutting a clip copies none of it;
    writing to the clip's samples afterwards changes its segments.
    """
    seg_len = segment_length(seg_seconds, clip.sample_rate_hz)
    out = []
    for i in range(clip.samples.size // seg_len):
        view = clip.samples[i * seg_len:(i + 1) * seg_len]
        view.flags.writeable = False
        out.append(
            AudioClip(view, clip.sample_rate_hz, label=clip.label,
                      source_id=f"{clip.source_id}#{i:03d}")
        )
    return out


# ---------------------------------------------------------------------------
# Synthetic two class chirp benchmark
# ---------------------------------------------------------------------------


# (label, a, b) of each class, "pos" sweeping upward and "neg" downward
TOY_CHIRPS = (("pos", 1200.0, 0.0), ("neg", -1200.0, 2400.0))
# seconds during which the chirp sounds, both ends included
TOY_GATE_S = (0.4, 0.6)


@dataclass
class ToyConfig:
    """Parameters of the synthetic chirp dataset.

    Each clip is one second long:  s(t) = g(t) cos(2 pi (a t + b) t) + n(t)
    where g is the indicator of [0.4, 0.6] (both endpoints included) and
    n is white Gaussian noise of standard deviation noise_sigma.  The
    coefficients are fixed: the "pos" class sweeps upward (a, b) =
    (1200, 0), the "neg" class downward (a, b) = (-1200, 2400), so the
    two classes are exact time reversed mirrors of each other in the
    noise free limit.
    """

    n_per_class: int = 100
    sample_rate_hz: int = 8000
    noise_sigma: float = 0.4
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_per_class < 1:
            raise ConfigError("n_per_class must be >= 1")
        if self.sample_rate_hz < 2:
            raise ConfigError("sample_rate_hz must be >= 2")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")


def _chirp(cfg: ToyConfig, a: float, b: float, clip_seed: int) -> np.ndarray:
    fs = cfg.sample_rate_hz
    t = np.arange(fs, dtype=np.float64) / fs
    gate = (t >= TOY_GATE_S[0]) & (t <= TOY_GATE_S[1])
    x = np.where(gate, np.cos(2.0 * np.pi * (a * t + b) * t), 0.0)
    if cfg.noise_sigma > 0:
        # Philox is a counter based generator, so per clip streams derived
        # by XORing the index into the seed are independent and the result
        # does not depend on generation order.
        rng = np.random.Generator(np.random.Philox(clip_seed))
        x = x + cfg.noise_sigma * rng.standard_normal(fs)
    return x


def make_toy_dataset(cfg: ToyConfig) -> list[AudioClip]:
    """Generate 2 * n_per_class labelled clips ("pos" first, then "neg").

    Clip i is the chirp of its class, (a, b) = (1200, 0) for "pos" and
    (-1200, 2400) for "neg", gated to [0.4, 0.6] s, plus noise drawn
    from a Philox stream keyed by rng_seed XOR i, with i the global clip
    index, so regeneration with the same config is bit for bit
    reproducible clip by clip.
    """
    clips = []
    for i in range(2 * cfg.n_per_class):
        label, a, b = TOY_CHIRPS[i // cfg.n_per_class]
        x = _chirp(cfg, a, b, cfg.rng_seed ^ i)
        clips.append(
            AudioClip(
                x,
                cfg.sample_rate_hz,
                label=label,
                source_id=f"{label}_{i % cfg.n_per_class:04d}",
            )
        )
    return clips
