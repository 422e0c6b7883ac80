import math
import tracemalloc

import numpy as np
import pytest

from scenehog import AudioClip, CqtConfig, cqt, mean_filter, resize_bicubic, to_image
from scenehog.errors import ConfigError
from scenehog.tfr import _STACK_BYTES, _octave_kernels, _resize_weights

from oracles import (
    cqt_hop_loop,
    cqt_oracle,
    cqt_profile_oracle,
    mean_filter_oracle,
    mean_filter_padded,
    mean_filter_sliding,
    resize_weights_scatter,
)

# small geometry that keeps the per-frame oracle affordable
FS = 4000
ORACLE_CFG = dict(f_min_hz=40.0, f_max_hz=1900.0, bins_per_octave=8, hop_samples=16)

# (sample rate, clip samples, CqtConfig fields); every case but the
# 1 bin per octave one ends in a partial octave block
ORACLE_CASES = [
    (FS, 2000, ORACLE_CFG),
    (FS, 2000, dict(f_min_hz=40.0, f_max_hz=1900.0, bins_per_octave=1, hop_samples=16)),
    (FS, 2000, dict(f_min_hz=40.0, f_max_hz=1900.0, bins_per_octave=3, hop_samples=16)),
    (FS, 2000, dict(f_min_hz=40.0, f_max_hz=1900.0, bins_per_octave=12, hop_samples=16)),
    (FS, 2000, dict(f_min_hz=80.0, f_max_hz=1900.0, bins_per_octave=24, hop_samples=16)),
    (8000, 4000, dict(f_min_hz=40.0, f_max_hz=3900.0, bins_per_octave=8, hop_samples=40)),
    (22050, 11025, dict(f_min_hz=100.0, f_max_hz=10000.0, bins_per_octave=12, hop_samples=128)),
    (44100, 22050, dict(f_min_hz=200.0, f_max_hz=20000.0, bins_per_octave=24, hop_samples=256)),
]

# hops of one sample, of exactly the second octave block's window, just
# past the longest window, and longer than the clip (a single frame)
_WINDOW = CqtConfig(**ORACLE_CFG).window_length
HOP_CASES = [
    (FS, 2000, {**ORACLE_CFG, "hop_samples": hop})
    for hop in (1, _WINDOW(8, FS), _WINDOW(0, FS) + 1, 1999, 5000)
]

# the chain's own geometries at the automatic hop (samples // 127): a
# README toy clip, 1 s at 8 kHz, and a 2 s clip at 22.05 kHz as in the
# LITIS Rouen stand-in; then 30 s at 22.05 kHz with a fixed hop of 256,
# whose stacked products need several chunks
CHAIN_CASES = [
    (8000, 8000, dict(f_min_hz=20.0, f_max_hz=3800.0, bins_per_octave=8, hop_samples=62)),
    (22050, 44100, dict(f_min_hz=20.0, f_max_hz=10000.0, bins_per_octave=8, hop_samples=347)),
    (22050, 661500, dict(f_min_hz=20.0, f_max_hz=10000.0, bins_per_octave=8, hop_samples=256)),
]
CHAIN_IDS = ["toy", "scenes19", "30s-hop256"]


def tone_clip(freq, n=2000, fs=FS):
    t = np.arange(n) / fs
    return AudioClip(np.cos(2 * np.pi * freq * t), fs, source_id=f"tone{freq:.0f}")


class TestCqtGeometry:
    def test_bin_count_formula(self):
        cfg = CqtConfig(f_min_hz=20, f_max_hz=10000, bins_per_octave=8)
        assert cfg.n_bins == math.floor(8 * math.log2(10000 / 20)) + 1

    def test_q_factor(self):
        cfg = CqtConfig(bins_per_octave=8)
        np.testing.assert_allclose(cfg.q_factor, 1 / (2 ** 0.125 - 1), rtol=1e-15)

    def test_window_lengths_decrease(self):
        cfg = CqtConfig(**ORACLE_CFG)
        lengths = [cfg.window_length(k, FS) for k in range(cfg.n_bins)]
        assert lengths == sorted(lengths, reverse=True)
        assert lengths[0] == math.ceil(cfg.q_factor * FS / cfg.f_min_hz)

    def test_output_shape(self):
        cfg = CqtConfig(**ORACLE_CFG)
        clip = tone_clip(440.0)
        out = cqt(clip, cfg)
        assert out.shape == (cfg.n_bins, 2000 // cfg.hop_samples + 1)
        assert out.dtype == np.complex128
        assert np.all(np.isfinite(out))

    def test_f_max_above_nyquist_rejected(self):
        cfg = CqtConfig(f_min_hz=40, f_max_hz=2100, bins_per_octave=8)
        with pytest.raises(ConfigError):
            cqt(tone_clip(440.0), cfg)

    def test_window_longer_than_clip_rejected(self):
        cfg = CqtConfig(f_min_hz=1.0, f_max_hz=1900, bins_per_octave=8)
        with pytest.raises(ConfigError):
            cqt(tone_clip(440.0), cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CqtConfig(f_min_hz=0.0)
        with pytest.raises(ConfigError):
            CqtConfig(f_min_hz=100.0, f_max_hz=50.0)
        with pytest.raises(ConfigError):
            CqtConfig(hop_samples=0)


class TestCqtAgainstOracle:
    def test_pure_tone_profiles_match_oracle(self):
        """Mean column magnitudes agree with the per-frame reference."""
        rng = np.random.default_rng(42)
        for fs, n, geometry in ORACLE_CASES:
            cfg = CqtConfig(**geometry)
            margin = min(4, cfg.n_bins // 4)
            for _ in range(3):
                k_true = int(rng.integers(margin, cfg.n_bins - margin))
                freq = cfg.bin_frequency(k_true)
                clip = tone_clip(freq, n=n, fs=fs)
                profile = np.abs(cqt(clip, cfg)).mean(axis=1)
                reference = cqt_profile_oracle(
                    clip.samples, fs, cfg.f_min_hz, cfg.bins_per_octave,
                    cfg.hop_samples, cfg.n_bins,
                )
                case = f"{fs} Hz, {geometry}, tone at bin {k_true}"
                np.testing.assert_allclose(
                    profile, reference, rtol=1e-9, atol=1e-12, err_msg=case
                )
                assert abs(int(np.argmax(profile)) - k_true) <= 1, case

    @pytest.mark.parametrize(
        "fs,n,geometry", ORACLE_CASES + HOP_CASES,
        ids=[f"{fs}Hz-b{g['bins_per_octave']}" for fs, _, g in ORACLE_CASES]
        + [f"hop{g['hop_samples']}" for _, _, g in HOP_CASES],
    )
    def test_complex_coefficients_match_oracle(self, fs, n, geometry):
        """Every coefficient, phase included, agrees with the per-frame
        reference to float64 rounding of a length N_k inner product."""
        cfg = CqtConfig(**geometry)
        x = np.random.default_rng(7).standard_normal(n)
        got = cqt(AudioClip(x, fs), cfg)
        want = cqt_oracle(
            x, fs, cfg.f_min_hz, cfg.bins_per_octave, cfg.hop_samples, cfg.n_bins
        )
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_energy_locality(self):
        """At least 60% of the profile mass sits within +-2 bins of the peak."""
        cfg = CqtConfig(**ORACLE_CFG)
        clip = tone_clip(cfg.bin_frequency(20))
        profile = np.abs(cqt(clip, cfg)).mean(axis=1)
        peak = int(np.argmax(profile))
        lo, hi = max(0, peak - 2), min(profile.size, peak + 3)
        assert profile[lo:hi].sum() / profile.sum() >= 0.60

    def test_silence_gives_zeros(self):
        cfg = CqtConfig(**ORACLE_CFG)
        clip = AudioClip(np.zeros(2000), FS)
        np.testing.assert_array_equal(cqt(clip, cfg), 0.0)

    def test_amplitude_linearity(self):
        cfg = CqtConfig(**ORACLE_CFG)
        clip = tone_clip(500.0)
        doubled = AudioClip(2.0 * clip.samples, FS)
        np.testing.assert_allclose(
            cqt(doubled, cfg), 2.0 * cqt(clip, cfg), rtol=1e-12, atol=1e-300
        )


def _cqt_peak(transform, *args):
    tracemalloc.start()
    try:
        transform(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCqtStackedSums:
    """cqt adds each octave block's hop-slice products from stacked
    batches; the per-hop loop it replaced is the reference for its bits
    and its memory."""

    @pytest.mark.parametrize(
        "fs,n,geometry", ORACLE_CASES + HOP_CASES + CHAIN_CASES,
        ids=[f"{fs}Hz-b{g['bins_per_octave']}" for fs, _, g in ORACLE_CASES]
        + [f"hop{g['hop_samples']}" for _, _, g in HOP_CASES] + CHAIN_IDS,
    )
    def test_bit_identical_to_hop_loop(self, fs, n, geometry):
        cfg = CqtConfig(**geometry)
        x = np.random.default_rng(n).standard_normal(n)
        kernels = _octave_kernels(cfg.f_min_hz, cfg.f_max_hz, cfg.bins_per_octave, fs)
        got = cqt(AudioClip(x, fs), cfg)
        want = cqt_hop_loop(x, cfg.hop_samples, kernels)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_long_clip_needs_several_chunks(self):
        """The 30 s case above has more whole slices in its first block
        than one stack of _STACK_BYTES holds."""
        fs, n, geometry = CHAIN_CASES[-1]
        cfg = CqtConfig(**geometry)
        n_frames = n // cfg.hop_samples + 1
        slices = cfg.window_length(0, fs) // cfg.hop_samples
        per_slice = 8 * n_frames * 2 * cfg.bins_per_octave
        assert slices > 2 * (_STACK_BYTES // per_slice)

    @pytest.mark.parametrize("fs,n,geometry", CHAIN_CASES, ids=CHAIN_IDS)
    def test_peak_memory_within_the_stack_bound(self, fs, n, geometry):
        """At most _STACK_BYTES above the per-hop loop's peak (0.25, 0.61
        and 8.6 MiB for these clips)."""
        cfg = CqtConfig(**geometry)
        clip = AudioClip(np.random.default_rng(1).standard_normal(n), fs)
        kernels = _octave_kernels(cfg.f_min_hz, cfg.f_max_hz, cfg.bins_per_octave, fs)
        cqt(clip, cfg)  # kernels are cached before the peaks are taken
        reference = _cqt_peak(cqt_hop_loop, clip.samples, cfg.hop_samples, kernels)
        assert _cqt_peak(cqt, clip, cfg) <= reference + _STACK_BYTES

    def test_hop_past_the_clip_costs_no_memory(self):
        """A hop beyond the clip gives one frame and pads nothing for it:
        the per-hop loop padded a hop of zeros, 76 MiB at hop 1e7."""
        clip = tone_clip(440.0, n=8000, fs=8000)
        peaks = []
        for hop in (8000, 10**5, 10**7):
            cfg = CqtConfig(f_min_hz=20.0, f_max_hz=3800.0, bins_per_octave=8, hop_samples=hop)
            cqt(clip, cfg)
            peaks.append(_cqt_peak(cqt, clip, cfg))
        assert max(peaks[1:]) <= peaks[0]


class TestCqtKernelCache:
    def test_cached_kernels_are_read_only(self):
        cfg = CqtConfig(**ORACLE_CFG)
        cqt(tone_clip(440.0), cfg)
        blocks = _octave_kernels(cfg.f_min_hz, cfg.f_max_hz, cfg.bins_per_octave, FS)
        assert [first for first, _ in blocks] == list(range(0, cfg.n_bins, 8))
        for _, kernel in blocks:
            assert not kernel.flags.writeable
            with pytest.raises(ValueError):
                kernel[0, 0] = 1.0

    def test_sample_rates_do_not_share_an_entry(self):
        cfg = CqtConfig(**ORACLE_CFG)
        key = (cfg.f_min_hz, cfg.f_max_hz, cfg.bins_per_octave)
        low, high = tone_clip(440.0, fs=FS), tone_clip(440.0, n=4000, fs=2 * FS)
        first = cqt(low, cfg)
        cqt(high, cfg)
        np.testing.assert_array_equal(cqt(low, cfg), first)
        a, b = _octave_kernels(*key, FS), _octave_kernels(*key, 2 * FS)
        assert a is not b
        assert b[0][1].shape[0] == cfg.window_length(0, 2 * FS) > a[0][1].shape[0]


class TestResize:
    def test_identity_at_equal_size(self):
        rng = np.random.default_rng(42)
        img = rng.random((33, 47))
        np.testing.assert_array_equal(resize_bicubic(img, 33, 47), img)

    def test_constant_preserved(self):
        out = resize_bicubic(np.full((7, 9), 0.37), 64, 64)
        np.testing.assert_allclose(out, 0.37, rtol=1e-12)

    def test_linear_ramp_reproduced_in_interior(self):
        """Catmull-Rom interpolation is exact for affine images away from
        the replicated borders."""
        col = np.arange(16, dtype=float)
        img = np.tile(col, (16, 1))
        out = resize_bicubic(img, 32, 32)
        src = (np.arange(32) + 0.5) * 0.5 - 0.5
        interior = (src >= 1.0) & (src <= 14.0)
        np.testing.assert_allclose(
            out[16][interior], src[interior], rtol=0, atol=1e-12
        )

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            resize_bicubic(np.zeros((4, 4)), 0, 4)

    @pytest.mark.parametrize(
        "n_out,n_in",
        [(512, 61), (512, 72), (512, 130), (512, 512), (5, 3), (3, 5), (7, 1), (1, 7)],
    )
    def test_weights_bit_identical_to_scatter(self, n_out, n_in):
        """Edge taps collapse onto one column at the borders, and on
        every tap when n_in is 1; they must add up in the same order."""
        got = _resize_weights(n_out, n_in)
        want = resize_weights_scatter(n_out, n_in)
        assert got.shape == want.shape == (n_out, n_in)
        assert got.tobytes() == want.tobytes()


class TestToImage:
    def test_constant_input_maps_to_one(self):
        img = to_image(np.full((16, 20), 2.5), size=32)
        np.testing.assert_allclose(img.pixels, 1.0, atol=1e-12)
        assert img.height == img.width == 32

    def test_all_zero_flagged(self):
        img = to_image(np.zeros((8, 8)), size=16)
        np.testing.assert_array_equal(img.pixels, 0.0)
        assert img.meta.get("all_zero") is True

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        mag = rng.uniform(0.5, 2.0, (24, 40))
        a = to_image(mag, size=64)
        b = to_image(1000.0 * mag, size=64)
        np.testing.assert_allclose(a.pixels, b.pixels, atol=1e-9)

    def test_two_level_matrix_hits_zero_and_one(self):
        """Blocks at max and max + db_floor become flat 0 / 1 regions."""
        top = 1.0
        low = 10 ** ((20 * math.log10(top + 1e-10) - 80.0) / 20.0) - 1e-10
        mag = np.full((16, 16), low)
        mag[:, 8:] = top
        img = to_image(mag, size=32, db_floor=-80.0)
        # block interiors, away from the boundary ringing of the resize
        np.testing.assert_allclose(img.pixels[:, :10], 0.0, atol=1e-9)
        np.testing.assert_allclose(img.pixels[:, 22:], 1.0, atol=1e-9)

    def test_monotone_at_matched_size(self):
        """With the resize inactive the level pipeline is order preserving."""
        rng = np.random.default_rng(42)
        base = rng.uniform(0.1, 1.0, (32, 32))
        base[0, 0] = 2.0
        bigger = base + rng.uniform(0.0, 0.5, (32, 32))
        bigger[0, 0] = 2.0  # keep maxima equal
        a = to_image(base, size=32)
        b = to_image(bigger, size=32)
        assert np.all(a.pixels <= b.pixels + 1e-9)

    def test_output_range(self):
        rng = np.random.default_rng(42)
        img = to_image(rng.uniform(0, 1, (20, 30)), size=64)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_rejects_tiny_input(self):
        with pytest.raises(ConfigError):
            to_image(np.ones((1, 5)), size=16)
        with pytest.raises(ConfigError):
            to_image(np.ones((5, 5)), size=16, db_floor=0.0)


class TestMeanFilter:
    def test_k1_identity(self):
        rng = np.random.default_rng(42)
        img = rng.random((17, 23))
        np.testing.assert_array_equal(mean_filter(img, 1), img)

    def test_unit_impulse_k3(self):
        img = np.zeros((9, 9))
        img[4, 4] = 1.0
        out = mean_filter(img, 3)
        expected = np.zeros((9, 9))
        expected[3:6, 3:6] = 1.0 / 9.0
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_even_kernel_anchor(self):
        """For k = 2 the window leans up/left: output (i, j) averages rows
        i-1..i and columns j-1..j."""
        img = np.zeros((6, 6))
        img[2, 2] = 1.0
        out = mean_filter(img, 2)
        hot = {(2, 2), (2, 3), (3, 2), (3, 3)}
        for i in range(6):
            for j in range(6):
                want = 0.25 if (i, j) in hot else 0.0
                assert out[i, j] == pytest.approx(want, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(42)
        a = rng.random((64, 64))
        b = rng.random((64, 64))
        for k in (3, 5, 15):
            lhs = mean_filter(2.0 * a + 0.5 * b, k)
            rhs = 2.0 * mean_filter(a, k) + 0.5 * mean_filter(b, k)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_constant_preserved_exactly(self):
        out = mean_filter(np.full((20, 20), 0.7), 5)
        np.testing.assert_allclose(out, 0.7, rtol=1e-15)

    def test_interior_mass_preserved(self):
        rng = np.random.default_rng(42)
        img = np.zeros((64, 64))
        img[20:40, 20:40] = rng.random((20, 20))
        for k in (5, 15):
            out = mean_filter(img, k)
            np.testing.assert_allclose(out.sum(), img.sum(), rtol=1e-10)

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            mean_filter(np.zeros((4, 4)), 0)

    def test_matches_oracle(self):
        """Non-square images and even k catch a swapped axis or anchor."""
        rng = np.random.default_rng(42)
        for shape in ((17, 29), (29, 17), (3, 5)):
            img = rng.random(shape)
            for k in (1, 2, 3, 4, 15):
                np.testing.assert_allclose(
                    mean_filter(img, k), mean_filter_oracle(img, k), rtol=0, atol=1e-14
                )

    @pytest.mark.parametrize("side", [31, 32, 33, 65])
    def test_matches_oracle_around_band_edges(self, side):
        """Sides just under, on and just over a multiple of the 32-pixel
        band, along either axis."""
        rng = np.random.default_rng(side)
        for shape in ((side, 19), (19, side)):
            img = rng.random(shape)
            for k in (3, 15):
                np.testing.assert_allclose(
                    mean_filter(img, k), mean_filter_oracle(img, k), rtol=0, atol=1e-14
                )

    def test_window_larger_than_the_image(self):
        rng = np.random.default_rng(42)
        for shape in ((17, 29), (29, 17)):
            img = rng.random(shape)
            np.testing.assert_allclose(
                mean_filter(img, 31), mean_filter_oracle(img, 31), rtol=0, atol=1e-14
            )

    def test_even_k_matches_oracle(self):
        rng = np.random.default_rng(42)
        img = rng.random((33, 40))
        for k in (2, 4, 6, 16):
            np.testing.assert_allclose(
                mean_filter(img, k), mean_filter_oracle(img, k), rtol=0, atol=1e-14
            )

    def test_full_size_matches_sliding_reference(self):
        """The chain's 512 x 512 image at the default k = 15."""
        img = np.random.default_rng(42).random((512, 512))
        np.testing.assert_allclose(
            mean_filter(img, 15), mean_filter_sliding(img, 15), rtol=0, atol=1e-14
        )

    def test_sliding_reference_matches_oracle(self):
        img = np.random.default_rng(42).random((17, 29))
        for k in (2, 15):
            np.testing.assert_allclose(
                mean_filter_sliding(img, k), mean_filter_oracle(img, k), rtol=0, atol=1e-14
            )

    @pytest.mark.parametrize(
        "shape", [(512, 512), (33, 65), (65, 33), (31, 31), (17, 29), (2, 7), (7, 2)]
    )
    def test_bit_identical_to_padded_copies(self, shape):
        """Views of interior bands and gathered edge blocks give the bits
        of the version that padded the whole image, at even and odd k and
        at windows wider than the image."""
        img = np.random.default_rng(sum(shape)).random(shape)
        for k in (1, 2, 3, 4, 15, 16, max(shape) + 3):
            np.testing.assert_array_equal(mean_filter(img, k), mean_filter_padded(img, k))

    def test_output_is_a_fresh_c_contiguous_array(self):
        img = np.asfortranarray(np.random.default_rng(42).random((40, 50)))
        for k in (1, 3, 15):
            out = mean_filter(img, k)
            assert out.dtype == np.float64
            assert out.flags.c_contiguous
            assert not np.shares_memory(out, img)
