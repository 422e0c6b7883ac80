"""Pooling of cell descriptors into fixed length feature vectors.

Cells are averaged over rectangular blocks of the grid.  A pooling
mode is a list of (F, T) block layouts whose outputs are concatenated
(PoolConfig.layouts): the marginalized mode is full time pooling (one
block per cell row) followed by full frequency pooling (one block per
cell column), the grid mode one F x T partition and the full mode one
block per cell.  Blocks are emitted frequency major (all blocks of the
lowest frequency band first) and each block concatenates the enabled
components in the fixed order signed | unsigned | factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .hog import HogGrid

__all__ = [
    "PoolConfig",
    "FeatureVector",
    "pool_grid",
    "pool_marginalized",
    "full_features",
    "pool",
    "feature_dim",
]


@dataclass
class PoolConfig:
    """Which components are pooled and how the grid is partitioned.

    mode          "marginalized", "grid" or "full" (no pooling)
    grid_freq     F, number of frequency blocks (grid mode)
    grid_time     T, number of time blocks (grid mode)
    use_signed    include the 2B signed histogram per block
    use_unsigned  include the B folded histogram per block
    use_factors   include the 4 normalisation factors per block
    """

    mode: str = "marginalized"
    grid_freq: int = 8
    grid_time: int = 8
    use_signed: bool = True
    use_unsigned: bool = True
    use_factors: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("marginalized", "grid", "full"):
            raise ConfigError(f"pooling must be marginalized|grid|full, got {self.mode!r}")
        if self.grid_freq < 1 or self.grid_time < 1:
            raise ConfigError("grid_freq and grid_time must be >= 1")
        if not (self.use_signed or self.use_unsigned or self.use_factors):
            raise ConfigError("at least one descriptor component must be enabled")

    def block_width(self, n_orient: int) -> int:
        """Length of one pooled block for histograms with B = n_orient."""
        return (
            (2 * n_orient if self.use_signed else 0)
            + (n_orient if self.use_unsigned else 0)
            + (4 if self.use_factors else 0)
        )

    def layouts(self, n_rows: int, n_cols: int) -> list[tuple[int, int]]:
        """The (F, T) block layouts of this mode on an n_rows x n_cols grid."""
        if self.mode == "marginalized":
            return [(n_rows, 1), (1, n_cols)]
        if self.mode == "grid":
            return [(self.grid_freq, self.grid_time)]
        return [(n_rows, n_cols)]


@dataclass
class FeatureVector:
    """A pooled descriptor."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ConfigError("FeatureVector.values must be 1-D")

    @property
    def dim(self) -> int:
        return self.values.size


def _components(grid: HogGrid, cfg: PoolConfig) -> list[np.ndarray]:
    parts = []
    if cfg.use_signed:
        parts.append(grid.h_signed)
    if cfg.use_unsigned:
        parts.append(grid.h_unsigned)
    if cfg.use_factors:
        parts.append(grid.factors)
    return parts


def pool_grid(grid: HogGrid, n_freq: int, n_time: int, cfg: PoolConfig) -> FeatureVector:
    """Average cells over an n_freq x n_time partition of the grid.

    Both block counts must divide the respective grid dimension.  The
    output lays the blocks out frequency major and, inside each block,
    the enabled components in signed | unsigned | factors order, giving
    n_freq * n_time * block_width values in total.
    """
    r, c = grid.n_rows, grid.n_cols
    if r % n_freq or c % n_time:
        raise ConfigError(
            f"grid of {r}x{c} cells cannot be split into {n_freq}x{n_time} blocks"
        )
    blocks = []
    for part in _components(grid, cfg):
        d = part.shape[2]
        pooled = part.reshape(n_freq, r // n_freq, n_time, c // n_time, d).mean(axis=(1, 3))
        blocks.append(pooled)
    stacked = np.concatenate(blocks, axis=2)
    return FeatureVector(stacked.reshape(-1))


def pool(grid: HogGrid, cfg: PoolConfig) -> FeatureVector:
    """Pool the grid over every layout of cfg.mode, concatenated in order."""
    layouts = cfg.layouts(grid.n_rows, grid.n_cols)
    return FeatureVector(
        np.concatenate([pool_grid(grid, f, t, cfg).values for f, t in layouts])
    )


def pool_marginalized(grid: HogGrid, cfg: PoolConfig) -> FeatureVector:
    """Concatenate time pooling (R blocks) with frequency pooling (C blocks)."""
    return pool(grid, replace(cfg, mode="marginalized"))


def full_features(grid: HogGrid, cfg: PoolConfig) -> FeatureVector:
    """No pooling: one block per cell (grid layout with F = R, T = C)."""
    return pool(grid, replace(cfg, mode="full"))


def feature_dim(cfg: PoolConfig, n_orient: int, grid_rows: int, grid_cols: int) -> int:
    """Dimension of the pooled vector without computing any features."""
    layouts = cfg.layouts(grid_rows, grid_cols)
    return sum(f * t for f, t in layouts) * cfg.block_width(n_orient)
