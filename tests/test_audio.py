import os
import struct
import tracemalloc

import numpy as np
import pytest

from scenehog import (
    AudioClip,
    DataError,
    FormatError,
    ToyConfig,
    UnsupportedCodecError,
    make_toy_dataset,
    read_wav,
    segment,
    write_wav,
)
from scenehog.audio import TOY_GATE_S, wav_length
from scenehog.errors import ConfigError


def make_wav_bytes(codec, bits, channels, rate, payload, extra_chunks=b""):
    fmt = struct.pack(
        "<HHIIHH", codec, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits,
    )
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + extra_chunks
        + b"data" + struct.pack("<I", len(payload)) + payload
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestReadWav:
    def test_pcm16_constant_scaling(self, tmp_path):
        """Constant 16384 decodes to exactly 0.5."""
        payload = struct.pack("<100h", *([16384] * 100))
        path = tmp_path / "c.wav"
        path.write_bytes(make_wav_bytes(1, 16, 1, 8000, payload))
        clip = read_wav(path)
        assert clip.sample_rate_hz == 8000
        assert clip.samples.shape == (100,)
        np.testing.assert_array_equal(clip.samples, 0.5)

    def test_pcm16_full_scale(self, tmp_path):
        payload = struct.pack("<3h", -32768, 0, 32767)
        path = tmp_path / "f.wav"
        path.write_bytes(make_wav_bytes(1, 16, 1, 44100, payload))
        clip = read_wav(path)
        np.testing.assert_allclose(clip.samples, [-1.0, 0.0, 32767 / 32768], atol=0)

    def test_pcm8_unsigned(self, tmp_path):
        path = tmp_path / "u8.wav"
        path.write_bytes(make_wav_bytes(1, 8, 1, 8000, bytes([0, 128, 255])))
        clip = read_wav(path)
        np.testing.assert_array_equal(clip.samples, [-1.0, 0.0, 127 / 128])

    def test_pcm24(self, tmp_path):
        vals = [(1 << 23) - 1, 0, -(1 << 23)]
        payload = b"".join(struct.pack("<i", v)[:3] for v in vals)
        path = tmp_path / "p24.wav"
        path.write_bytes(make_wav_bytes(1, 24, 1, 8000, payload))
        clip = read_wav(path)
        np.testing.assert_allclose(
            clip.samples, [((1 << 23) - 1) / (1 << 23), 0.0, -1.0], atol=0
        )

    def test_float32(self, tmp_path):
        payload = struct.pack("<4f", -0.25, 0.0, 0.5, 1.0)
        path = tmp_path / "f32.wav"
        path.write_bytes(make_wav_bytes(3, 32, 1, 16000, payload))
        clip = read_wav(path)
        np.testing.assert_array_equal(clip.samples, [-0.25, 0.0, 0.5, 1.0])

    def test_stereo_downmix_average(self, tmp_path):
        """Channels (+0.5, -0.5) average to exactly 0."""
        frames = struct.pack("<4h", 16384, -16384, 16384, -16384)
        path = tmp_path / "st.wav"
        path.write_bytes(make_wav_bytes(1, 16, 2, 8000, frames))
        clip = read_wav(path)
        np.testing.assert_array_equal(clip.samples, [0.0, 0.0])

    def test_extensible_header_resolves_subformat(self, tmp_path):
        base = struct.pack("<HHIIHH", 0xFFFE, 1, 8000, 16000, 2, 16)
        # cbSize, valid bits, channel mask, then the 16 byte sub-format
        # GUID whose leading two bytes carry the codec tag (1 = PCM)
        ext = struct.pack("<HHIH", 22, 16, 0, 1) + b"\x00" * 14
        fmt = base + ext
        payload = struct.pack("<2h", 16384, 16384)
        body = (
            b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload
        )
        path = tmp_path / "ext.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        clip = read_wav(path)
        np.testing.assert_array_equal(clip.samples, 0.5)

    def test_garbage_is_format_error(self, tmp_path):
        path = tmp_path / "g.wav"
        path.write_bytes(b"not a wave file at all")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        blob = make_wav_bytes(1, 16, 1, 8000, struct.pack("<4h", 1, 2, 3, 4))
        path = tmp_path / "t.wav"
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            read_wav(path)

    def test_missing_fmt_chunk(self, tmp_path):
        payload = struct.pack("<2h", 0, 0)
        body = b"WAVE" + b"data" + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "nofmt.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_compressed_codec_rejected(self, tmp_path):
        path = tmp_path / "adpcm.wav"
        path.write_bytes(make_wav_bytes(2, 4, 1, 8000, b"\x00" * 64))
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)

    def test_pcm32_int_rejected(self, tmp_path):
        path = tmp_path / "i32.wav"
        path.write_bytes(make_wav_bytes(1, 32, 1, 8000, b"\x00" * 8))
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)

    def test_unknown_chunks_skipped(self, tmp_path):
        junk = b"LIST" + struct.pack("<I", 5) + b"INFO\x00" + b"\x00"
        payload = struct.pack("<2h", 16384, 16384)
        path = tmp_path / "x.wav"
        path.write_bytes(make_wav_bytes(1, 16, 1, 8000, payload, extra_chunks=junk))
        np.testing.assert_array_equal(read_wav(path).samples, 0.5)


class TestWavLength:
    @pytest.mark.parametrize(
        "codec, bits, channels, payload",
        [
            (1, 8, 1, bytes(range(9))),
            (1, 16, 1, b"\x01" * 11),
            (1, 16, 2, b"\x01" * 14),
            (1, 24, 3, b"\x01" * 40),
            (3, 32, 2, struct.pack("<5f", 0.1, 0.2, 0.3, 0.4, 0.5)),
        ],
    )
    def test_matches_decoded_length(self, tmp_path, codec, bits, channels, payload):
        """The header alone gives the frame count read_wav decodes,
        trailing partial samples and frames included."""
        junk = b"LIST" + struct.pack("<I", 5) + b"INFO\x00" + b"\x00"
        path = tmp_path / "x.wav"
        path.write_bytes(make_wav_bytes(codec, bits, channels, 11025, payload, junk))
        clip = read_wav(path)
        assert wav_length(path) == (clip.samples.size, 11025)

    def test_header_faults_raise_as_in_read_wav(self, tmp_path):
        path = tmp_path / "bad.wav"
        for blob, error in (
            (b"not a wave file at all", FormatError),
            (make_wav_bytes(1, 16, 1, 8000, b"\x00" * 8)[:-5], FormatError),
            (make_wav_bytes(2, 4, 1, 8000, b"\x00" * 64), UnsupportedCodecError),
            (make_wav_bytes(1, 32, 1, 8000, b"\x00" * 8), UnsupportedCodecError),
        ):
            path.write_bytes(blob)
            with pytest.raises(error, match="bad.wav"):
                wav_length(path)
            with pytest.raises(error, match="bad.wav"):
                read_wav(path)


class TestWriteWav:
    def test_round_trip_float32(self, tmp_path):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, 500)
        clip = AudioClip(x, 8000, label="a", source_id="rt")
        path = tmp_path / "rt.wav"
        write_wav(path, clip)
        back = read_wav(path)
        assert back.sample_rate_hz == 8000
        np.testing.assert_array_equal(back.samples, x.astype(np.float32))

    def test_deterministic_bytes(self, tmp_path):
        x = np.linspace(-1, 1, 64)
        write_wav(tmp_path / "a.wav", AudioClip(x, 8000))
        write_wav(tmp_path / "b.wav", AudioClip(x, 8000))
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()

    def test_failed_rename_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "clip.wav"
        write_wav(path, AudioClip(np.linspace(-1, 1, 64), 8000))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_wav(path, AudioClip(np.zeros(128), 16000))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["clip.wav"]


class TestAudioClip:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            AudioClip(np.array([]), 8000)

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            AudioClip(np.array([0.0, np.nan]), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            AudioClip(np.zeros(4), 0)


class TestSegment:
    def test_drops_remainder(self):
        clip = AudioClip(np.arange(950, dtype=float), 10, label="x", source_id="seg")
        parts = segment(clip, 30.0)
        assert len(parts) == 3
        assert all(p.samples.size == 300 for p in parts)
        assert [p.source_id for p in parts] == ["seg#000", "seg#001", "seg#002"]
        assert all(p.label == "x" for p in parts)

    def test_concatenation_is_prefix(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(rng.normal(size=1000), 100, source_id="p")
        parts = segment(clip, 3.0)
        glued = np.concatenate([p.samples for p in parts])
        np.testing.assert_array_equal(glued, clip.samples[: glued.size])

    def test_exact_multiple(self):
        clip = AudioClip(np.zeros(600), 10)
        assert len(segment(clip, 30.0)) == 2

    def test_bad_length(self):
        clip = AudioClip(np.zeros(600), 10)
        with pytest.raises(ConfigError):
            segment(clip, 0.0)

    def test_segments_are_read_only_views(self):
        """Cutting a clip copies none of its samples: each segment shares
        the clip's memory and refuses writes, and segment() allocates
        far less than the clip's bytes."""
        clip = AudioClip(np.random.default_rng(1).normal(size=80_000), 8000)
        segment(clip, 0.5)
        tracemalloc.start()
        try:
            parts = segment(clip, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parts) == 20
        for part in parts:
            assert np.shares_memory(part.samples, clip.samples)
            assert not part.samples.flags.writeable
            with pytest.raises(ValueError):
                part.samples[0] = 0.0
        assert clip.samples.flags.writeable
        assert peak < clip.samples.nbytes // 8


class TestToyDataset:
    def test_counts_and_labels(self):
        clips = make_toy_dataset(ToyConfig(n_per_class=5, rng_seed=1))
        assert len(clips) == 10
        assert [c.label for c in clips[:5]] == ["pos"] * 5
        assert [c.label for c in clips[5:]] == ["neg"] * 5
        assert len({c.source_id for c in clips}) == 10

    def test_clip_shape(self):
        cfg = ToyConfig(n_per_class=1, sample_rate_hz=4000, rng_seed=0)
        clips = make_toy_dataset(cfg)
        assert all(c.samples.size == 4000 for c in clips)
        assert all(c.sample_rate_hz == 4000 for c in clips)

    def test_support_gate_noise_free(self):
        cfg = ToyConfig(n_per_class=1, noise_sigma=0.0, rng_seed=0)
        clip = make_toy_dataset(cfg)[0]
        fs = cfg.sample_rate_hz
        t = np.arange(fs) / fs
        t1, t2 = TOY_GATE_S
        outside = (t < t1) | (t > t2)
        np.testing.assert_array_equal(clip.samples[outside], 0.0)
        inside = (t >= t1) & (t <= t2)
        assert np.abs(clip.samples[inside]).max() > 0.9

    def test_time_reversal_symmetry(self):
        """Noise free classes are mirror images: neg(1 - t) == pos(t)."""
        cfg = ToyConfig(n_per_class=1, noise_sigma=0.0, rng_seed=3)
        pos, neg = (c.samples for c in make_toy_dataset(cfg))
        fs = cfg.sample_rate_hz
        t1, t2 = TOY_GATE_S
        k = np.arange(int(t1 * fs) + 1, int(t2 * fs) - 1)
        np.testing.assert_allclose(neg[fs - k], pos[k], atol=1e-9)

    def test_clips_match_formula(self):
        """Every clip rebuilt from the chirp formula with literal values."""
        cfg = ToyConfig(n_per_class=3, rng_seed=7)
        clips = make_toy_dataset(cfg)
        fs = 8000
        t = np.arange(fs, dtype=np.float64) / fs
        gate = (t >= 0.4) & (t <= 0.6)
        for i, clip in enumerate(clips):
            a, b = (1200.0, 0.0) if i < 3 else (-1200.0, 2400.0)
            noise = np.random.Generator(np.random.Philox(7 ^ i)).standard_normal(fs)
            want = np.where(gate, np.cos(2.0 * np.pi * (a * t + b) * t), 0.0) + 0.4 * noise
            assert clip.label == ("pos" if i < 3 else "neg")
            assert clip.sample_rate_hz == fs
            np.testing.assert_array_equal(clip.samples, want)

    def test_seed_determinism(self):
        a = make_toy_dataset(ToyConfig(n_per_class=3, rng_seed=7))
        b = make_toy_dataset(ToyConfig(n_per_class=3, rng_seed=7))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.samples, cb.samples)

    def test_seed_changes_noise(self):
        a = make_toy_dataset(ToyConfig(n_per_class=1, rng_seed=1))[0]
        b = make_toy_dataset(ToyConfig(n_per_class=1, rng_seed=2))[0]
        assert not np.array_equal(a.samples, b.samples)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ToyConfig(n_per_class=0)
        with pytest.raises(ConfigError):
            ToyConfig(noise_sigma=-1.0)
