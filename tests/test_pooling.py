import numpy as np
import pytest

from scenehog import (
    FeatureVector,
    HogGrid,
    PoolConfig,
    feature_dim,
    full_features,
    pool_grid,
    pool_marginalized,
)
from scenehog.errors import ConfigError


def make_grid(rows, cols, n_orient, seed=42):
    rng = np.random.default_rng(seed)
    return HogGrid(
        h_signed=rng.random((rows, cols, 2 * n_orient)),
        h_unsigned=rng.random((rows, cols, n_orient)),
        factors=rng.random((rows, cols, 4)),
    )


class TestPoolGrid:
    def test_single_block_is_global_mean(self):
        grid = make_grid(8, 16, 4)
        cfg = PoolConfig(mode="grid", use_signed=True, use_unsigned=True, use_factors=True)
        vec = pool_grid(grid, 1, 1, cfg)
        expected = np.concatenate([
            grid.h_signed.mean(axis=(0, 1)),
            grid.h_unsigned.mean(axis=(0, 1)),
            grid.factors.mean(axis=(0, 1)),
        ])
        np.testing.assert_allclose(vec.values, expected, rtol=1e-14)

    def test_block_means_and_frequency_major_order(self):
        grid = make_grid(4, 6, 4)
        cfg = PoolConfig(mode="grid", use_signed=True, use_unsigned=False)
        vec = pool_grid(grid, 2, 3, cfg)
        assert vec.dim == 2 * 3 * 8
        # block (f, t) averages cell rows 2f..2f+1 and columns 2t..2t+1
        for f in range(2):
            for t in range(3):
                start = (f * 3 + t) * 8
                expected = grid.h_signed[2 * f:2 * f + 2, 2 * t:2 * t + 2].mean(axis=(0, 1))
                np.testing.assert_allclose(vec.values[start:start + 8], expected, rtol=1e-14)

    def test_component_order_inside_block(self):
        grid = make_grid(2, 2, 4)
        cfg = PoolConfig(mode="grid", use_signed=True, use_unsigned=True, use_factors=True)
        vec = pool_grid(grid, 1, 1, cfg)
        assert vec.dim == 8 + 4 + 4
        np.testing.assert_allclose(vec.values[:8], grid.h_signed.mean(axis=(0, 1)), rtol=1e-14)
        np.testing.assert_allclose(vec.values[8:12], grid.h_unsigned.mean(axis=(0, 1)), rtol=1e-14)
        np.testing.assert_allclose(vec.values[12:], grid.factors.mean(axis=(0, 1)), rtol=1e-14)

    def test_identity_partition(self):
        grid = make_grid(3, 5, 4)
        cfg = PoolConfig(mode="grid", use_signed=True, use_unsigned=False)
        vec = pool_grid(grid, 3, 5, cfg)
        np.testing.assert_array_equal(vec.values, grid.h_signed.reshape(-1))

    def test_indivisible_partition_rejected(self):
        grid = make_grid(4, 6, 4)
        cfg = PoolConfig(mode="grid")
        with pytest.raises(ConfigError):
            pool_grid(grid, 3, 2, cfg)
        with pytest.raises(ConfigError):
            pool_grid(grid, 2, 4, cfg)


class TestPoolMarginalized:
    def test_concatenation_layout(self):
        grid = make_grid(4, 6, 4)
        cfg = PoolConfig(use_signed=True, use_unsigned=True, use_factors=False)
        vec = pool_marginalized(grid, cfg)
        time_part = pool_grid(grid, 4, 1, cfg).values
        freq_part = pool_grid(grid, 1, 6, cfg).values
        assert vec.dim == (4 + 6) * 12
        np.testing.assert_array_equal(vec.values[:4 * 12], time_part)
        np.testing.assert_array_equal(vec.values[4 * 12:], freq_part)

    def test_row_blocks_average_over_time(self):
        grid = make_grid(3, 5, 2)
        cfg = PoolConfig(use_signed=False, use_unsigned=True)
        vec = pool_marginalized(grid, cfg)
        np.testing.assert_allclose(vec.values[:2], grid.h_unsigned[0].mean(axis=0), rtol=1e-14)
        np.testing.assert_allclose(
            vec.values[3 * 2:3 * 2 + 2], grid.h_unsigned[:, 0].mean(axis=0), rtol=1e-14
        )


class TestFeatureDim:
    def test_matches_actual_vectors(self):
        grid = make_grid(8, 16, 8)
        for cfg in (
            PoolConfig(mode="marginalized"),
            PoolConfig(mode="marginalized", use_factors=True),
            PoolConfig(mode="grid", grid_freq=4, grid_time=4, use_signed=False),
            PoolConfig(mode="grid", grid_freq=2, grid_time=8, use_factors=True),
        ):
            if cfg.mode == "marginalized":
                vec = pool_marginalized(grid, cfg)
            else:
                vec = pool_grid(grid, cfg.grid_freq, cfg.grid_time, cfg)
            assert feature_dim(cfg, 8, 8, 16) == vec.dim
        full_cfg = PoolConfig(mode="full")
        assert feature_dim(full_cfg, 8, 8, 16) == full_features(grid, full_cfg).dim

    def test_reference_dimensions(self):
        """Regenerate the layout size table for a 512 pixel image, B = 8.

        Side of the cell grid is 512 / cell_size.  The descriptor menu is
        signed only, unsigned only, or both, each with or without the four
        factors, pooled marginally, on an F x T grid, or not at all.
        """
        def marg(signed, unsig, fact, cells):
            cfg = PoolConfig(
                mode="marginalized",
                use_signed=signed, use_unsigned=unsig, use_factors=fact,
            )
            return feature_dim(cfg, 8, cells, cells)

        # histogram variant sweep at cell size 8
        assert marg(True, False, False, 64) == 2048
        assert marg(True, False, True, 64) == 2560
        assert marg(False, True, False, 64) == 1024
        assert marg(False, True, True, 64) == 1536
        assert marg(True, True, False, 64) == 3072
        assert marg(True, True, True, 64) == 3584
        # cell size sweep, signed + unsigned, no factors
        assert [marg(True, True, False, 512 // cs) for cs in (2, 4, 8, 16, 32)] \
            == [12288, 6144, 3072, 1536, 768]
        # fixed block budget F * T = 64 gives the same size for every split
        for f, t in ((1, 64), (2, 32), (8, 8), (32, 2), (64, 1)):
            cfg = PoolConfig(mode="grid", grid_freq=f, grid_time=t)
            assert feature_dim(cfg, 8, 64, 64) == 1536
        # no pooling, signed histograms alone
        full_cfg = PoolConfig(mode="full", use_signed=True, use_unsigned=False)
        assert feature_dim(full_cfg, 8, 64, 64) == 65536


class TestFeatureVector:
    def test_rejects_non_1d(self):
        with pytest.raises(ConfigError):
            FeatureVector(np.zeros((3, 3)))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PoolConfig(mode="diagonal")
        with pytest.raises(ConfigError):
            PoolConfig(use_signed=False, use_unsigned=False, use_factors=False)
        with pytest.raises(ConfigError):
            PoolConfig(grid_freq=0)
