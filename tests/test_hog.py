import math

import numpy as np
import pytest

from scenehog import HogConfig, HogGrid, cell_histograms, gradient, hog, normalize_cells
from scenehog.errors import ConfigError

from oracles import cell_histograms_oneshot, cell_histograms_oracle

NEIGHBOURHOODS = ((-1, -1), (-1, 1), (1, -1), (1, 1))

# (Gx, Gy) on bin edges and signed zeros: the four diagonals, the axes,
# theta = -pi (Gy = -0.0 with Gx < 0), a tiny negative theta that
# rounds to 2pi once shifted, and zero gradients
EDGE_GRADIENTS = [
    (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (2.5, 2.5),
    (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
    (-1.0, -0.0), (1.0, -0.0), (-0.0, 1.0), (-0.0, -1.0), (1.0, -1e-300),
    (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0),
]


def gradients_with_edges(rng, shape):
    """Random gradients whose first row starts with EDGE_GRADIENTS.

    Only edges that atan2 returns exactly are used: near an edge, a one
    ulp difference between two atan2 implementations may pick either
    bin.
    """
    gx = rng.standard_normal(shape)
    gy = rng.standard_normal(shape)
    for j, (x, y) in enumerate(EDGE_GRADIENTS):
        gx[0, j], gy[0, j] = x, y
    return gx, gy


def normalize_reference(raw, cfg):
    """Scalar per-cell re-statement of the four-block normalisation."""
    b = cfg.n_orient
    n_rows, n_cols, _ = raw.shape
    unsigned = raw[:, :, :b] + raw[:, :, b:]
    energy = (unsigned ** 2).sum(axis=2)
    h_signed = np.zeros_like(raw)
    h_unsigned = np.zeros_like(unsigned)
    factors = np.zeros((n_rows, n_cols, 4))
    for r in range(n_rows):
        for c in range(n_cols):
            for n, (dr, dc) in enumerate(NEIGHBOURHOODS):
                r2 = min(max(r + dr, 0), n_rows - 1)
                c2 = min(max(c + dc, 0), n_cols - 1)
                norm = math.sqrt(
                    energy[r, c] + energy[r2, c] + energy[r, c2]
                    + energy[r2, c2] + cfg.eps_norm
                )
                clip_s = np.minimum(raw[r, c] / norm, cfg.clip_tau)
                clip_u = np.minimum(unsigned[r, c] / norm, cfg.clip_tau)
                h_signed[r, c] += clip_s
                h_unsigned[r, c] += clip_u
                factors[r, c, n] = clip_u.sum()
    return h_signed / 4.0, h_unsigned / 4.0, factors


def eager_factors(raw, cfg):
    """The four factor sums formed eagerly, with np.ix_ gathers of the
    neighbour energies and one clipped folded sum per neighbourhood."""
    b = cfg.n_orient
    unsigned = raw[:, :, :b] + raw[:, :, b:]
    energy = np.einsum("rcb,rcb->rc", unsigned, unsigned)
    n_rows, n_cols = energy.shape
    factors = np.zeros((n_rows, n_cols, 4))
    for n, (dr, dc) in enumerate(NEIGHBOURHOODS):
        r2 = np.clip(np.arange(n_rows) + dr, 0, n_rows - 1)
        c2 = np.clip(np.arange(n_cols) + dc, 0, n_cols - 1)
        block = energy + energy[r2, :] + energy[:, c2] + energy[np.ix_(r2, c2)]
        norm = np.sqrt(block + cfg.eps_norm)[:, :, None]
        factors[:, :, n] = np.minimum(unsigned / norm, cfg.clip_tau).sum(axis=2)
    return factors


class TestGradient:
    def test_manual_values(self):
        img = np.array([[0.0, 1.0, 4.0], [2.0, 3.0, 5.0], [6.0, 7.0, 8.0]])
        gx, gy = gradient(img)
        # one sided at the borders, central elsewhere
        assert gx[0, 0] == 1.0 and gx[0, 1] == 2.0 and gx[0, 2] == 3.0
        assert gy[0, 0] == 2.0 and gy[1, 0] == 3.0 and gy[2, 0] == 4.0
        assert gx[1, 1] == 1.5
        assert gy[1, 1] == 3.0

    def test_constant_image_zero(self):
        gx, gy = gradient(np.full((5, 7), 3.0))
        np.testing.assert_array_equal(gx, 0.0)
        np.testing.assert_array_equal(gy, 0.0)

    def test_rejects_small_input(self):
        with pytest.raises(ConfigError):
            gradient(np.zeros((1, 8)))

    @pytest.mark.parametrize("shape", [(512, 512), (2, 9), (9, 2), (2, 2), (3, 3), (17, 40)])
    def test_bit_identical_to_numpy_gradient(self, shape):
        """Gx is taken over the flattened image, so a Fortran-ordered
        image, a strided view and a transpose must give np.gradient's
        bits too."""
        rng = np.random.default_rng(sum(shape))
        h, w = shape
        img = rng.random(shape)
        for layout in (
            img,
            np.asfortranarray(img),
            rng.random((h, 2 * w))[:, ::2],
            rng.random((w, h)).T,
        ):
            gx, gy = gradient(layout)
            want_gy, want_gx = np.gradient(layout)
            np.testing.assert_array_equal(gx, want_gx)
            np.testing.assert_array_equal(gy, want_gy)


class TestCellHistograms:
    def test_axis_aligned_votes(self):
        cfg = HogConfig(cell_size=4, n_orient=8)
        gx = np.zeros((4, 4))
        gy = np.zeros((4, 4))
        gx[0, 0] = 1.0                      # theta 0       -> bin 0
        gy[1, 1] = 1.0                      # theta pi/2    -> bin 4
        gx[2, 2], gy[2, 2] = -1.0, 0.0      # theta pi      -> bin 8
        gy[3, 3] = -1.0                     # theta 3pi/2   -> bin 12
        hist = cell_histograms(gx, gy, cfg)
        expected = np.zeros(16)
        expected[[0, 4, 8, 12]] = 1.0
        np.testing.assert_allclose(hist[0, 0], expected, atol=1e-15)

    def test_magnitude_weighting(self):
        cfg = HogConfig(cell_size=2, n_orient=8)
        gx = np.array([[1.0, 1.0], [1.0, 3.0]])
        gy = np.array([[1.0, 1.0], [1.0, 3.0]])
        hist = cell_histograms(gx, gy, cfg)
        # all four pixels at pi/4 -> signed bin 2
        assert hist[0, 0, 2] == pytest.approx(3 * math.sqrt(2) + math.sqrt(18))
        assert hist[0, 0].sum() == pytest.approx(hist[0, 0, 2])

    def test_zero_gradient_no_vote(self):
        cfg = HogConfig(cell_size=2, n_orient=8)
        hist = cell_histograms(np.zeros((4, 4)), np.zeros((4, 4)), cfg)
        np.testing.assert_array_equal(hist, 0.0)

    def test_votes_routed_to_own_cell(self):
        cfg = HogConfig(cell_size=2, n_orient=4)
        gx = np.zeros((4, 6))
        gx[3, 5] = 2.0
        hist = cell_histograms(gx, np.zeros((4, 6)), cfg)
        assert hist.shape == (2, 3, 8)
        assert hist[1, 2, 0] == 2.0
        assert hist.sum() == 2.0

    def test_total_mass_is_total_magnitude(self):
        cfg = HogConfig(cell_size=8, n_orient=8)
        rng = np.random.default_rng(42)
        gx = rng.standard_normal((32, 32))
        gy = rng.standard_normal((32, 32))
        hist = cell_histograms(gx, gy, cfg)
        np.testing.assert_allclose(hist.sum(), np.hypot(gx, gy).sum(), rtol=1e-12)

    def test_indivisible_shape_rejected(self):
        cfg = HogConfig(cell_size=5, n_orient=8)
        with pytest.raises(ConfigError):
            cell_histograms(np.zeros((12, 12)), np.zeros((12, 12)), cfg)

    def test_bins_match_oracle(self):
        """With one pixel per cell the only non-zero entry is the pixel's bin."""
        rng = np.random.default_rng(42)
        for n_orient in (1, 2, 3, 4, 8, 9):
            gx, gy = gradients_with_edges(rng, (6, 20))
            hist = cell_histograms(gx, gy, HogConfig(cell_size=1, n_orient=n_orient))
            ref = cell_histograms_oracle(gx, gy, 1, n_orient)
            np.testing.assert_array_equal(hist != 0, ref != 0)

    def test_weighted_sums_match_oracle(self):
        rng = np.random.default_rng(42)
        for n_orient, cs in ((8, 4), (3, 2), (9, 5)):
            gx, gy = gradients_with_edges(rng, (4 * cs, 20))
            hist = cell_histograms(gx, gy, HogConfig(cell_size=cs, n_orient=n_orient))
            ref = cell_histograms_oracle(gx, gy, cs, n_orient)
            np.testing.assert_allclose(hist, ref, rtol=1e-12, atol=0)


    @pytest.mark.parametrize(
        "shape, cell_size",
        [((512, 512), 1), ((96, 30), 3), ((512, 512), 8), ((200, 64), 8),
         ((512, 512), 32), ((96, 64), 32), ((256, 128), 128)],
    )
    def test_bands_bit_identical_to_one_bincount(self, shape, cell_size):
        """Bands of whole cell rows give the one-shot histograms bit for
        bit, also when the height is no multiple of the band."""
        rng = np.random.default_rng(cell_size)
        gx, gy = gradients_with_edges(rng, shape)
        for n_orient in (8, 3):
            hist = cell_histograms(gx, gy, HogConfig(cell_size=cell_size, n_orient=n_orient))
            want = cell_histograms_oneshot(gx, gy, cell_size, n_orient)
            np.testing.assert_array_equal(hist, want)


class TestNormalizeCells:
    def test_matches_scalar_reference(self):
        cfg = HogConfig(cell_size=8, n_orient=8)
        rng = np.random.default_rng(42)
        raw = rng.uniform(0.0, 5.0, (6, 9, 16))
        grid = normalize_cells(raw, cfg)
        ref_s, ref_u, ref_f = normalize_reference(raw, cfg)
        np.testing.assert_allclose(grid.h_signed, ref_s, rtol=1e-12)
        np.testing.assert_allclose(grid.h_unsigned, ref_u, rtol=1e-12)
        np.testing.assert_allclose(grid.factors, ref_f, rtol=1e-12)

    def test_derived_factors_equal_the_eager_sums(self):
        """factors, formed on first read, equal the eager
        four-neighbourhood sums bit for bit, and are formed once."""
        rng = np.random.default_rng(42)
        for shape, n_orient in (((6, 9, 16), 8), ((1, 1, 16), 8), ((1, 7, 8), 4), ((64, 64, 16), 8)):
            cfg = HogConfig(n_orient=n_orient)
            raw = rng.uniform(0.0, 5.0, shape)
            raw[0, 0] = 0.0
            grid = normalize_cells(raw, cfg)
            np.testing.assert_array_equal(grid.factors, eager_factors(raw, cfg))
            assert grid.factors is grid.factors

    def test_grid_needs_factors_or_normalisers(self):
        with pytest.raises(ConfigError):
            HogGrid(np.zeros((1, 1, 16)), np.zeros((1, 1, 8)))

    def test_single_cell_clips_at_tau(self):
        cfg = HogConfig(n_orient=8, clip_tau=0.2)
        raw = np.zeros((1, 1, 16))
        raw[0, 0, 0] = 10.0
        grid = normalize_cells(raw, cfg)
        # energy 100, every neighbour clamps to self: N = sqrt(400 + eps),
        # so the normalised value 0.5 is clipped to 0.2
        assert grid.h_signed[0, 0, 0] == pytest.approx(0.2)
        assert grid.h_unsigned[0, 0, 0] == pytest.approx(0.2)
        np.testing.assert_allclose(grid.factors[0, 0], 0.2, rtol=1e-9)

    def test_single_cell_without_clip(self):
        cfg = HogConfig(n_orient=8, clip_tau=10.0)
        raw = np.zeros((1, 1, 16))
        raw[0, 0, 0] = 10.0
        grid = normalize_cells(raw, cfg)
        assert grid.h_signed[0, 0, 0] == pytest.approx(0.5, rel=1e-9)
        assert grid.h_unsigned[0, 0, 0] == pytest.approx(0.5, rel=1e-9)

    def test_uniform_grid_closed_form(self):
        cfg = HogConfig(n_orient=8, clip_tau=0.2)
        v = 1.0
        raw = np.full((5, 5, 16), v)
        grid = normalize_cells(raw, cfg)
        b = cfg.n_orient
        expected_u = min(2 * v / math.sqrt(16 * b * v * v + cfg.eps_norm), 0.2)
        np.testing.assert_allclose(grid.h_unsigned, expected_u, rtol=1e-12)
        np.testing.assert_allclose(grid.h_signed, expected_u / 2.0, rtol=1e-12)
        np.testing.assert_allclose(grid.factors, b * expected_u, rtol=1e-12)

    def test_fold_identity_without_clip(self):
        """With the clip disabled the folded histogram equals the sum of
        opposite signed bins."""
        cfg = HogConfig(n_orient=8, clip_tau=1e9)
        rng = np.random.default_rng(42)
        raw = rng.uniform(0.0, 3.0, (4, 4, 16))
        grid = normalize_cells(raw, cfg)
        folded = grid.h_signed[:, :, :8] + grid.h_signed[:, :, 8:]
        np.testing.assert_allclose(folded, grid.h_unsigned, rtol=1e-12)

    def test_stored_values_bounded_by_tau(self):
        cfg = HogConfig(n_orient=8, clip_tau=0.2)
        rng = np.random.default_rng(42)
        raw = rng.uniform(0.0, 50.0, (8, 8, 16))
        grid = normalize_cells(raw, cfg)
        assert grid.h_signed.max() <= 0.2 + 1e-12
        assert grid.h_unsigned.max() <= 0.2 + 1e-12
        assert grid.factors.max() <= 8 * 0.2 + 1e-12

    def test_zero_histograms_stay_zero(self):
        cfg = HogConfig(n_orient=8)
        grid = normalize_cells(np.zeros((3, 3, 16)), cfg)
        np.testing.assert_array_equal(grid.h_signed, 0.0)
        np.testing.assert_array_equal(grid.factors, 0.0)

    def test_bad_bin_count_rejected(self):
        cfg = HogConfig(n_orient=8)
        with pytest.raises(ConfigError):
            normalize_cells(np.zeros((3, 3, 12)), cfg)


class TestHogProperties:
    @pytest.mark.parametrize(
        "shape, cell_size",
        [((300, 40), 1), ((129, 7), 1), ((512, 512), 8), ((320, 96), 32),
         ((512, 512), 32), ((512, 512), 64), ((384, 256), 128), ((384, 192), 192)],
    )
    def test_bands_bit_identical_to_whole_image(self, shape, cell_size):
        """hog's row bands, each with its clamped halo, give the bits of
        the whole image's gradients, histograms and normalisation: heights
        that are no multiple of the 128-row band (one ending in a single
        row), and cells as tall as the band or taller."""
        img = np.random.default_rng(cell_size).random(shape)
        cfg = HogConfig(cell_size=cell_size)
        got = hog(img, cfg)
        want = normalize_cells(cell_histograms(*gradient(img), cfg), cfg)
        for name in ("h_signed", "h_unsigned", "factors"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_shapes_and_composition(self):
        cfg = HogConfig(cell_size=8, n_orient=8)
        rng = np.random.default_rng(42)
        img = rng.random((32, 48))
        grid = hog(img, cfg)
        assert (grid.n_rows, grid.n_cols, grid.n_orient) == (4, 6, 8)
        gx, gy = gradient(img)
        ref = normalize_cells(cell_histograms(gx, gy, cfg), cfg)
        np.testing.assert_array_equal(grid.h_signed, ref.h_signed)

    def test_half_turn_rotation(self):
        """Rotating the image by a half turn flips the cell grid, shifts
        signed bins by n_orient and leaves unsigned values in place."""
        cfg = HogConfig(cell_size=8, n_orient=8)
        rng = np.random.default_rng(42)
        img = rng.random((32, 40))
        a = hog(img, cfg)
        r = hog(img[::-1, ::-1], cfg)
        np.testing.assert_allclose(
            r.h_signed, np.roll(a.h_signed[::-1, ::-1], 8, axis=2), rtol=1e-12
        )
        np.testing.assert_allclose(
            r.h_unsigned, a.h_unsigned[::-1, ::-1], rtol=1e-12
        )
        np.testing.assert_allclose(
            r.factors, a.factors[::-1, ::-1, ::-1], rtol=1e-12
        )

    def test_cell_shift_covariance(self):
        """Shifting the window by one cell width relabels interior cells."""
        cfg = HogConfig(cell_size=8, n_orient=8)
        rng = np.random.default_rng(42)
        canvas = rng.random((32, 72))
        a = hog(canvas[:, 0:64], cfg)
        b = hog(canvas[:, 8:72], cfg)
        # cells touched by either window border or its normaliser differ;
        # columns 2..4 of b line up with columns 3..5 of a
        np.testing.assert_allclose(
            b.h_signed[:, 2:5], a.h_signed[:, 3:6], rtol=1e-12
        )
        np.testing.assert_allclose(
            b.factors[:, 2:5], a.factors[:, 3:6], rtol=1e-12
        )

    def test_gradient_scale_changes_nothing_when_unclipped(self):
        """Block normalisation cancels a global image scale (up to eps)."""
        cfg = HogConfig(cell_size=8, n_orient=8, clip_tau=1e9, eps_norm=1e-300)
        rng = np.random.default_rng(42)
        img = rng.random((32, 32))
        a = hog(img, cfg)
        b = hog(7.0 * img, cfg)
        np.testing.assert_allclose(b.h_signed, a.h_signed, rtol=1e-9)
