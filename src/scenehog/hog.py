"""Histograms of oriented gradients over a square cell grid.

The descriptor keeps three views per cell: the signed histogram over
2 * n_orient bins covering [0, 2pi), the unsigned histogram obtained by
folding opposite directions together, and the four block normalisation
factors.  Normalisation follows the diagonal neighbourhood scheme: each
cell is normalised four times, once against each 2x2 block of cells
containing it, the normalised values are clipped and the four copies
averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "HogConfig",
    "HogGrid",
    "gradient",
    "cell_histograms",
    "normalize_cells",
    "hog",
]

# Clamp order for the four 2x2 neighbourhoods: (row offset, col offset).
_NEIGHBOURHOODS = ((-1, -1), (-1, 1), (1, -1), (1, 1))

# Pixel rows per band of cell_histograms, rounded down to whole cell
# rows (one cell row when a cell is taller).
_BAND_ROWS = 64


@dataclass
class HogConfig:
    """Cell geometry and binning of the gradient histograms.

    cell_size    side of a square cell in pixels; must divide the image
    n_orient     number of unsigned orientation bins B (signed bins = 2B)
    clip_tau     ceiling applied to every normalised histogram entry
    eps_norm     additive constant inside the normaliser square root
    """

    cell_size: int = 8
    n_orient: int = 8
    clip_tau: float = 0.2
    eps_norm: float = 1e-10

    def __post_init__(self) -> None:
        if self.cell_size < 1:
            raise ConfigError("cell_size must be >= 1")
        if self.n_orient < 1:
            raise ConfigError("n_orient must be >= 1")
        if self.clip_tau <= 0:
            raise ConfigError("clip_tau must be positive")
        if self.eps_norm <= 0:
            raise ConfigError("eps_norm must be positive")


class HogGrid:
    """Per cell descriptors on an (n_rows, n_cols) grid.

    h_signed   (R, C, 2B) normalised signed histograms
    h_unsigned (R, C, B)  normalised folded histograms
    factors    (R, C, 4)  sums of clipped unsigned values, one per
               neighbourhood in _NEIGHBOURHOODS order

    Only pooling with use_factors reads the factors, so normalize_cells
    does not sum them: it hands over the folded histograms, the four
    normalisers and clip_tau, and the first read of factors forms and
    keeps the sums.
    """

    def __init__(
        self,
        h_signed: np.ndarray,
        h_unsigned: np.ndarray,
        factors: np.ndarray | None = None,
        *,
        normalisers: tuple[np.ndarray, list[np.ndarray], float] | None = None,
    ) -> None:
        if (factors is None) == (normalisers is None):
            raise ConfigError("HogGrid needs either factors or normalisers")
        self.h_signed = h_signed
        self.h_unsigned = h_unsigned
        self._factors = factors
        self._normalisers = normalisers

    @property
    def factors(self) -> np.ndarray:
        if self._factors is None:
            unsigned, norms, clip_tau = self._normalisers
            factors = np.empty(unsigned.shape[:2] + (len(norms),))
            for n, norm in enumerate(norms):
                factors[:, :, n] = np.minimum(unsigned / norm, clip_tau).sum(axis=2)
            self._factors = factors
        return self._factors

    @property
    def n_rows(self) -> int:
        return self.h_signed.shape[0]

    @property
    def n_cols(self) -> int:
        return self.h_signed.shape[1]

    @property
    def n_orient(self) -> int:
        return self.h_unsigned.shape[2]


def gradient(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central difference gradients (Gx along columns, Gy along rows).

    Interior pixels use (next - previous) / 2; border pixels fall back
    to the one sided difference with unit step.  Gx's interior is one
    subtraction over the flattened image, whose edge columns (taken
    across row breaks) are then overwritten.  Halving multiplies by 0.5:
    x * 0.5 and x / 2.0 round the same real number, so to the same
    double.  These are np.gradient's IEEE operations, so its bits,
    without its image-sized temporaries.
    """
    img = np.ascontiguousarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 2 or img.shape[1] < 2:
        raise ConfigError(f"gradient expects at least 2x2 input, got {img.shape}")
    gx = np.empty_like(img)
    np.subtract(img.ravel()[2:], img.ravel()[:-2], out=gx.ravel()[1:-1])
    gx.ravel()[1:-1] *= 0.5
    np.subtract(img[:, 1], img[:, 0], out=gx[:, 0])
    np.subtract(img[:, -1], img[:, -2], out=gx[:, -1])
    gy = np.empty_like(img)
    np.subtract(img[2:], img[:-2], out=gy[1:-1])
    gy[1:-1] *= 0.5
    np.subtract(img[1], img[0], out=gy[0])
    np.subtract(img[-1], img[-2], out=gy[-1])
    return gx, gy


def cell_histograms(gx: np.ndarray, gy: np.ndarray, cfg: HogConfig) -> np.ndarray:
    """Accumulate magnitude weighted signed histograms, shape (R, C, 2B).

    Each pixel votes its full gradient magnitude into the single signed
    orientation bin containing atan2(Gy, Gx), taken in [0, 2pi).  Zero
    gradients contribute nothing.  The image sides must be divisible by
    the cell size.

    The magnitude is sqrt(Gx^2 + Gy^2), within one ulp of hypot(Gx, Gy)
    while the squares neither overflow nor underflow; the central
    differences of an image in [0, 1] are at most 1 in size.  Negative
    angles gain 2pi and the rest +0.0, which bins -0.0 as 0.  An angle
    just below 0 can round to 2pi once shifted; bin n_bins wraps to 0.

    The image is walked in bands of whole cell rows, about _BAND_ROWS
    pixel rows each, so the magnitude, angle and bin index arrays are
    band-sized rather than image-sized (256 KB against 2 MB each at
    512 x 512).  Every cell lies in one band, and a band's bincount adds
    its pixels in the same raster order as one bincount over the whole
    image would, so the histograms are the same bits.
    """
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    if gx.shape != gy.shape or gx.ndim != 2:
        raise ConfigError("gradient fields must be 2-D and of equal shape")
    h, w = gx.shape
    cs = cfg.cell_size
    if h % cs or w % cs:
        raise ConfigError(
            f"image shape {gx.shape} not divisible by cell_size {cs}"
        )
    n_bins = 2 * cfg.n_orient
    rows, cols = h // cs, w // cs
    band = max(1, _BAND_ROWS // cs) * cs
    offsets = (np.arange(band) // cs * (cols * n_bins))[:, None] + np.arange(w) // cs * n_bins

    hist = np.empty((rows, cols, n_bins))
    for top in range(0, h, band):
        bx, by = gx[top:top + band], gy[top:top + band]
        mag = bx * bx
        mag += by * by
        np.sqrt(mag, out=mag)
        theta = np.arctan2(by, bx)
        theta += (theta < 0) * (2.0 * np.pi)
        theta *= n_bins / (2.0 * np.pi)
        flat = theta.astype(np.intp)
        flat[flat == n_bins] = 0
        flat += offsets[:len(flat)]
        cells = len(flat) // cs
        hist[top // cs:top // cs + cells] = np.bincount(
            flat.ravel(), weights=mag.ravel(), minlength=cells * cols * n_bins
        ).reshape(cells, cols, n_bins)
    return hist


def normalize_cells(raw: np.ndarray, cfg: HogConfig) -> HogGrid:
    """Apply four-neighbourhood block normalisation to raw histograms.

    For offsets (dr, dc) in {-1, +1}^2 the normaliser of cell (r, c) is
        N = sqrt(e(r,c) + e(r+dr,c) + e(r,c+dc) + e(r+dr,c+dc) + eps_norm)
    where e is the squared L2 energy of the folded (unsigned) histogram
    and out of range neighbours are replaced by the border cell.  Both
    the signed and the folded histogram are divided by N and clipped at
    clip_tau; the stored histograms average the four clipped copies and
    factors[n] is the sum of the clipped folded values for
    neighbourhood n, formed when first read.

    The neighbour energies are shifted slices of the edge-padded energy
    grid, added in the order above.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[2] != 2 * cfg.n_orient:
        raise ConfigError(
            f"raw histograms must have shape (R, C, {2 * cfg.n_orient})"
        )
    b = cfg.n_orient
    unsigned = raw[:, :, :b] + raw[:, :, b:]
    energy = np.einsum("rcb,rcb->rc", unsigned, unsigned)
    n_rows, n_cols = energy.shape
    padded = np.pad(energy, 1, mode="edge")

    norms = []
    for dr, dc in _NEIGHBOURHOODS:
        rows = slice(1 + dr, 1 + dr + n_rows)
        cols = slice(1 + dc, 1 + dc + n_cols)
        block = energy + padded[rows, 1:-1] + padded[1:-1, cols] + padded[rows, cols]
        norm = np.sqrt(block + cfg.eps_norm)[:, :, None]
        clipped_s = np.minimum(raw / norm, cfg.clip_tau)
        clipped_u = np.minimum(unsigned / norm, cfg.clip_tau)
        if norms:
            h_signed += clipped_s
            h_unsigned += clipped_u
        else:
            h_signed, h_unsigned = clipped_s, clipped_u
        norms.append(norm)
    h_signed /= 4.0
    h_unsigned /= 4.0
    return HogGrid(h_signed, h_unsigned, normalisers=(unsigned, norms, cfg.clip_tau))


def hog(img: np.ndarray, cfg: HogConfig) -> HogGrid:
    """Full descriptor for one image: gradients, cell votes, normalisation.

    The gradient fields are dropped once the cells are counted, so the
    normalisation runs beside the image and the raw histograms only.
    """
    gx, gy = gradient(img)
    raw = cell_histograms(gx, gy, cfg)
    del gx, gy
    return normalize_cells(raw, cfg)
