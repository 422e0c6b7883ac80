"""Time-frequency analysis: constant-Q transform and image conversion.

The pipeline turns a clip into a fixed size greyscale image so that
later stages never see the sample rate, hop or clip length:

    cqt -> magnitude -> log power -> clamp/rescale to [0, 1]
        -> bicubic resize to size x size -> optional mean filtering

Row 0 of the image is the lowest frequency bin, column 0 the earliest
frame.

The transform works one octave block of bins at a time against one
real kernel matrix holding the windowed cosines and sines of all its
bins (the time-domain form of the constant-Q kernels of Brown and
Puckette, 1992), read straight from the padded signal without copying
out frames.  Kernels depend only on the frequency range, bins per
octave and sample rate, not on the hop or clip length, and are kept in
a small read-only cache.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioClip
from .errors import ConfigError, DataError

__all__ = [
    "CqtConfig",
    "TfrImage",
    "cqt",
    "to_image",
    "resize_bicubic",
    "mean_filter",
]


@dataclass
class CqtConfig:
    """Geometry of the constant-Q filter bank.

    Bin k is centred at f_min * 2**(k / bins_per_octave); the number of
    bins is floor(bins_per_octave * log2(f_max / f_min)) + 1, i.e. every
    centre at or below f_max.  The quality factor Q = 1 / (2**(1/b) - 1)
    fixes the analysis window of bin k at N_k = ceil(Q * fs / f_k)
    samples, so low bins see long windows and high bins short ones.
    """

    f_min_hz: float = 20.0
    f_max_hz: float = 10000.0
    bins_per_octave: int = 8
    hop_samples: int = 256

    def __post_init__(self) -> None:
        if self.f_min_hz <= 0:
            raise ConfigError(f"f_min_hz must be positive, got {self.f_min_hz}")
        if self.f_max_hz <= self.f_min_hz:
            raise ConfigError(
                f"f_max_hz must exceed f_min_hz, got {self.f_min_hz}..{self.f_max_hz}"
            )
        if self.bins_per_octave < 1:
            raise ConfigError("bins_per_octave must be >= 1")
        if self.hop_samples < 1:
            raise ConfigError("hop_samples must be >= 1")

    @property
    def q_factor(self) -> float:
        return 1.0 / (2.0 ** (1.0 / self.bins_per_octave) - 1.0)

    @property
    def n_bins(self) -> int:
        return int(math.floor(self.bins_per_octave * math.log2(self.f_max_hz / self.f_min_hz))) + 1

    def bin_frequency(self, k: int) -> float:
        return self.f_min_hz * 2.0 ** (k / self.bins_per_octave)

    def window_length(self, k: int, sample_rate_hz: int) -> int:
        return int(math.ceil(self.q_factor * sample_rate_hz / self.bin_frequency(k)))


def cqt(clip: AudioClip, cfg: CqtConfig) -> np.ndarray:
    """Constant-Q transform; returns complex matrix of shape (n_bins, T).

    Column t is centred on sample t * hop_samples, with
    T = floor(len / hop) + 1 columns.  Each coefficient is the inner
    product of the signal with a Hann windowed complex exponential at
    the bin frequency, normalised by the window length N_k; windows
    reaching past either end of the clip read zeros.

    Bins are processed in octave blocks [0, b), [b, 2b), ... of
    b = bins_per_octave bins (the last block may be partial).  Each
    block has one real kernel matrix as long as its longest window,
    giving the real and imaginary parts of all its bins at once.  No
    frame matrix is built: the padded signal is viewed as rows of
    hop_samples samples, so frame t is rows t, t + 1, ... laid end to
    end, and the block's coefficients are the sum over i of the row
    block starting at row i times the kernel's i-th hop-sized slice.
    That is ceil(window / hop) GEMMs on views, where a frame matrix
    would copy window / hop times the signal.  The kernels depend only
    on the frequency range, bins per octave and sample rate, so they
    are built once per geometry and cached (the 8 most recently used
    geometries are kept).
    """
    fs = clip.sample_rate_hz
    nyquist = fs / 2.0
    if cfg.f_max_hz > nyquist:
        raise ConfigError(
            f"f_max_hz {cfg.f_max_hz} exceeds the Nyquist frequency {nyquist}"
        )
    n = clip.samples.size
    n_max = cfg.window_length(0, fs)
    if n_max > n:
        raise ConfigError(
            f"longest analysis window ({n_max} samples at f_min {cfg.f_min_hz} Hz) "
            f"exceeds the clip length {n}"
        )
    n_bins = cfg.n_bins
    if n_bins < 2:
        raise ConfigError("frequency range spans fewer than 2 bins")

    hop = cfg.hop_samples
    n_frames = n // hop + 1
    # x is pad zeros, the clip, then pad + hop zeros.  Frame t of a block
    # with an n_blk window starts at clip sample t * hop - n_blk // 2,
    # which is x[off + t * hop] for off = pad - n_blk // 2.  Its
    # q = ceil(n_blk / hop) rows of hop samples end by
    # off + (n_frames + q - 1) * hop <= pad + n + ceil(n_blk / 2) + hop - 1,
    # inside x for any hop.
    pad = n_max // 2 + 1
    x = np.pad(clip.samples, (pad, pad + hop))

    out = np.empty((n_bins, n_frames), dtype=np.complex128)
    kernels = _octave_kernels(cfg.f_min_hz, cfg.f_max_hz, cfg.bins_per_octave, fs)
    for first, kernel in kernels:
        n_blk, nb = kernel.shape[0], kernel.shape[1] // 2
        q = -(-n_blk // hop)
        off = pad - n_blk // 2
        rows = x[off:off + (n_frames + q - 1) * hop].reshape(-1, hop)
        part = kernel[:hop]
        coeffs = rows[:n_frames, :len(part)] @ part
        for i in range(1, q):
            part = kernel[i * hop:(i + 1) * hop]
            coeffs += rows[i:i + n_frames, :len(part)] @ part
        out[first:first + nb].real = coeffs[:, :nb].T
        out[first:first + nb].imag = coeffs[:, nb:].T
    return out


@functools.lru_cache(maxsize=8)
def _octave_kernels(
    f_min_hz: float, f_max_hz: float, bins_per_octave: int, sample_rate_hz: int
) -> tuple[tuple[int, np.ndarray], ...]:
    """Real analysis kernels of the octave blocks, as (first bin, kernel).

    A block of nb bins starting at bin `first` has a kernel of shape
    (N_first, 2 nb): column j holds w cos / N_k and column nb + j holds
    -w sin / N_k for bin first + j, placed at row offset
    N_first // 2 - N_k // 2 so that every bin reads the samples centred
    on the frame centre, as a separate window of N_k samples would.
    The arrays are shared by every caller and therefore read-only.
    """
    geometry = CqtConfig(f_min_hz, f_max_hz, bins_per_octave)
    n_bins = geometry.n_bins
    blocks = []
    for first in range(0, n_bins, bins_per_octave):
        bins = range(first, min(first + bins_per_octave, n_bins))
        nb = len(bins)
        n_blk = geometry.window_length(first, sample_rate_hz)
        kernel = np.zeros((n_blk, 2 * nb))
        for j, k in enumerate(bins):
            n_k = geometry.window_length(k, sample_rate_hz)
            idx = np.arange(n_k)
            window = 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / n_k)
            phase = 2.0 * np.pi * geometry.bin_frequency(k) / sample_rate_hz * idx
            rows = slice(n_blk // 2 - n_k // 2, n_blk // 2 - n_k // 2 + n_k)
            kernel[rows, j] = window * np.cos(phase) / n_k
            kernel[rows, nb + j] = -window * np.sin(phase) / n_k
        kernel.setflags(write=False)
        blocks.append((first, kernel))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Image conversion
# ---------------------------------------------------------------------------


@dataclass
class TfrImage:
    """A resized log-power image with values in [0, 1]."""

    pixels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2:
            raise DataError("TfrImage.pixels must be 2-D")
        if not np.all(np.isfinite(self.pixels)):
            raise DataError("TfrImage.pixels must be finite")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _catmull_rom(t: np.ndarray) -> np.ndarray:
    # Cubic convolution kernel with a = -0.5 (Catmull-Rom); interpolating,
    # reproduces constants and linears exactly.
    t = np.abs(t)
    near = (1.5 * t - 2.5) * t * t + 1.0
    far = ((-0.5 * t + 2.5) * t - 4.0) * t + 2.0
    return np.where(t <= 1.0, near, np.where(t < 2.0, far, 0.0))


def _resize_weights(n_out: int, n_in: int) -> np.ndarray:
    """Row-stochastic (n_out, n_in) interpolation matrix for one axis."""
    scale = n_in / n_out
    src = (np.arange(n_out) + 0.5) * scale - 0.5
    base = np.floor(src).astype(np.int64)
    taps = base[:, None] + np.arange(-1, 3)[None, :]
    w = _catmull_rom(src[:, None] - taps)
    idx = np.clip(taps, 0, n_in - 1)  # edge replication
    mat = np.zeros((n_out, n_in))
    np.add.at(mat, (np.repeat(np.arange(n_out), 4), idx.ravel()), w.ravel())
    return mat


def resize_bicubic(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bicubic (Catmull-Rom) resize with replicated edges.

    Output pixel centres are placed by the half pixel convention
    src = (dst + 0.5) * in/out - 0.5, which makes an equal size resize
    the exact identity.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ConfigError("resize_bicubic expects a non-empty 2-D array")
    if out_h < 1 or out_w < 1:
        raise ConfigError("output size must be positive")
    rows = _resize_weights(out_h, img.shape[0])
    cols = _resize_weights(out_w, img.shape[1])
    return rows @ img @ cols.T


def to_image(mag: np.ndarray, size: int = 512, db_floor: float = -80.0) -> TfrImage:
    """Convert a magnitude matrix to a size x size image in [0, 1].

    The magnitude is compressed to log power L = 20 log10(mag + 1e-10),
    clamped to the window [max(L) + db_floor, max(L)] and mapped
    affinely onto [0, 1], so the image is invariant to rescaling the
    input by a positive constant.  All-zero input has no meaningful
    level window; it yields an all zero image flagged with
    meta["all_zero"].
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2 or mag.shape[0] < 2 or mag.shape[1] < 2:
        raise ConfigError(f"to_image expects at least 2x2 input, got {mag.shape}")
    if size < 2:
        raise ConfigError("image size must be >= 2")
    if db_floor >= 0:
        raise ConfigError(f"db_floor must be negative, got {db_floor}")
    if not np.any(mag > 0):
        return TfrImage(np.zeros((size, size)), {"all_zero": True})
    level = 20.0 * np.log10(mag + 1e-10)
    top = level.max()
    level = np.clip(level, top + db_floor, top)
    img = resize_bicubic((level - (top + db_floor)) / (-db_floor), size, size)
    return TfrImage(np.clip(img, 0.0, 1.0))


def mean_filter(img: np.ndarray, k: int) -> np.ndarray:
    """k x k box average with replicated borders.

    The window for output pixel (i, j) starts floor(k/2) rows above and
    floor(k/2) columns left of the pixel, which for even k leans one
    pixel up and left.  k = 1 is the identity.

    The filter is separable and runs as two identical passes that
    average k consecutive rows: the first over the image, the second
    over its transpose, each followed by a contiguous transpose.  A row
    pass adds whole rows in order, which streams through memory, where
    averaging each k-pixel window along a row would reduce every window
    on its own.  Constants are reproduced exactly.
    """
    if k < 1:
        raise ConfigError(f"filter size must be >= 1, got {k}")
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ConfigError("mean_filter expects a 2-D array")
    if k == 1:
        return img.copy()
    lo = k // 2
    hi = k - 1 - lo
    out = img
    for _ in range(2):
        padded = np.pad(out, ((lo, hi), (0, 0)), mode="edge")
        out = np.ascontiguousarray(sliding_window_view(padded, k, axis=0).mean(axis=-1).T)
    return out
