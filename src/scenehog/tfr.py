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
Puckette, 1992).  Frames are strided read-only views of the padded
signal, never copies.  Each block multiplies its hop-sized slices of
frames and kernel in one batched matrix product and adds the products
in slice order, so it makes a few numpy calls however many slices its
window spans.  Kernels depend only on the frequency range, bins
per octave and sample rate, not on the hop or clip length, and are
kept in a small read-only cache.

The image stages are matrix products too.  The resize applies its
column weights first, to the narrow spectrum, and its row weights
last; the mean filter sums each band of output rows, then of output
columns, with one GEMM of a 0/1 band matrix and the band's edge-extended
window of the image.
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


# Bytes of one octave block's stacked hop-slice products; see cqt.
_STACK_BYTES = 9 << 18


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
    frame is copied: the longest window's frames are a strided
    read-only view of the zero-padded signal (sliding_window_view, one
    row per hop), and each block reads the centred columns its window
    covers.  The padding is half the longest window on either side,
    whatever the hop, so a hop past the clip's end costs no memory.

    A block's coefficients are the sum over i of its frames' i-th
    hop-sized slice of columns times its kernel's i-th hop-sized slice
    of rows, added for i = 0, 1, ... in turn: one batched matmul over
    stacked views of the whole slices writes a stack of products, one
    np.add.reduce over the stack's outer axis adds them in slice order,
    and a last slice shorter than a hop is one more GEMM, added last.
    These are the additions of one GEMM per slice, in the same order,
    so the bits are those of that loop (tests/oracles.py keeps it); a
    reduce along the innermost axis in memory would add pairwise and
    change them.  A block makes a handful of numpy calls however many
    slices it has (71 in the first block of a 1 s clip at 8 kHz); each
    call gives up the GIL and takes it back, so few calls let two
    extract threads overlap.

    The stack holds at most _STACK_BYTES of products (two slices at
    least).  A block with more slices runs in chunks, and from the
    second on, slot 0 of the stack holds the running sum, so the
    additions stay left to right.  _STACK_BYTES = 2.25 MiB keeps every
    automatic-hop clip at 8 bins per octave in one chunk: those stack
    at most 2.08 MiB per block (a clip as long as the 20 Hz window at
    8 kHz: 130 slices of 131 frames), 1.13 MiB for 1 s at 8 kHz.  A
    long clip with a fixed hop splits: 30 s at 22.05 kHz with hop 256
    has 47 slices of 0.32 MiB, in 8 chunks.  At one thread the bound
    hardly matters: on a 2-core x86-64 host with one OpenBLAS thread
    (best of 40 calls), 0.25, 1, 2.25 and 8 MiB took 0.70-0.75 ms for
    the 1 s 8 kHz clip and 1.76-1.81 ms for 2 s at 22.05 kHz.  Besides
    its result the transform holds the padded clip, one stack and two
    blocks of coefficients.

    The kernels depend only on the frequency range, bins per octave and
    sample rate, so they are built once per geometry and cached (the 8
    most recently used geometries are kept).
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
    # Row t of longest is frame t of the longest window: n_max samples
    # from clip sample t * hop - pad.  Its last row ends at clip sample
    # (n_frames - 1) * hop + n_max - pad - 1 <= n + n_max - pad - 1, so x
    # is pad zeros, the clip and n_max - pad zeros, whatever the hop.
    pad = n_max // 2
    x = np.pad(clip.samples, (pad, n_max - pad))
    longest = sliding_window_view(x, n_max)[::hop][:n_frames]

    out = np.empty((n_bins, n_frames), dtype=np.complex128)
    kernels = _octave_kernels(cfg.f_min_hz, cfg.f_max_hz, cfg.bins_per_octave, fs)
    for first, kernel in kernels:
        n_blk, nb = kernel.shape[0], kernel.shape[1] // 2
        # every window is centred on the frame centre, sample pad of a row
        frames = longest[:, pad - n_blk // 2:pad - n_blk // 2 + n_blk]
        cut = n_blk // hop * hop  # samples in whole hop-sized slices
        if cut:
            coeffs = _slice_sums(frames[:, :cut], kernel[:cut], hop)
            if cut < n_blk:
                coeffs += frames[:, cut:] @ kernel[cut:]
        else:
            coeffs = frames @ kernel
        out[first:first + nb].real = coeffs[:, :nb].T
        out[first:first + nb].imag = coeffs[:, nb:].T
    return out


def _slice_sums(frames: np.ndarray, kernel: np.ndarray, hop: int) -> np.ndarray:
    """Sum over i of frames[:, i*hop:(i+1)*hop] @ kernel[i*hop:(i+1)*hop],
    added for i = 0, 1, ... in turn, in chunks of one batched matmul and
    one reduce each; see cqt.  frames holds whole hop-sized slices."""
    n_frames, width = frames.shape[0], kernel.shape[1]
    whole = kernel.shape[0] // hop
    slices = frames.reshape(n_frames, whole, hop).swapaxes(0, 1)  # a view
    parts = kernel.reshape(whole, hop, width)
    slots = min(whole, max(2, _STACK_BYTES // (8 * n_frames * width)))
    stack = np.empty((slots, n_frames, width))
    coeffs = np.empty((n_frames, width))
    done = 0
    while done < whole:
        carry = int(done > 0)
        end = min(whole, done + slots - carry)
        np.matmul(slices[done:end], parts[done:end], out=stack[carry:carry + end - done])
        if carry:
            stack[0] = coeffs  # the running sum adds first
        np.add.reduce(stack[:carry + end - done], axis=0, out=coeffs)
        done = end
    return coeffs


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

# Output rows (columns) per block GEMM of mean_filter; see its docstring.
_BAND = 32


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
    flat = (np.arange(n_out)[:, None] * n_in + idx).ravel()
    return np.bincount(flat, weights=w.ravel(), minlength=n_out * n_in).reshape(n_out, n_in)


def resize_bicubic(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bicubic (Catmull-Rom) resize with replicated edges.

    Output pixel centres are placed by the half pixel convention
    src = (dst + 0.5) * in/out - 0.5, which makes an equal size resize
    the exact identity.

    The result is rows @ (img @ cols.T): the column weights act first,
    on the spectrum's few rows (its bins).  For a 72 x 128 spectrum
    resized to 512 x 512 that is 23.6M multiply-adds, against 38.3M for
    (rows @ img) @ cols.T.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ConfigError("resize_bicubic expects a non-empty 2-D array")
    if out_h < 1 or out_w < 1:
        raise ConfigError("output size must be positive")
    rows = _resize_weights(out_h, img.shape[0])
    cols = _resize_weights(out_w, img.shape[1])
    return rows @ (img @ cols.T)


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
    return TfrImage(np.clip(img, 0.0, 1.0, out=img))


def _edge_window(img: np.ndarray, start: int, n: int, axis: int) -> np.ndarray:
    """Rows (axis 0) or columns (axis 1) start .. start + n - 1 of img,
    an index outside the image reading the nearest edge one: a view of
    img when all lie inside, else a gathered C-contiguous copy."""
    size = img.shape[axis]
    if 0 <= start and start + n <= size:
        return img[start:start + n] if axis == 0 else img[:, start:start + n]
    # np.take lays the copy out in C order, as the padded image was; a
    # column-major block would go to another GEMM kernel, and other bits
    return np.take(img, np.clip(np.arange(start, start + n), 0, size - 1), axis=axis)


def mean_filter(img: np.ndarray, k: int) -> np.ndarray:
    """k x k box average with replicated borders.

    The window for output pixel (i, j) starts floor(k/2) rows above and
    floor(k/2) columns left of the pixel, which for even k leans one
    pixel up and left.  k = 1 is the identity.

    The filter is separable and runs as two passes of banded block
    GEMMs.  For each block of _BAND output rows, the first multiplies a
    0/1 matrix whose row i holds ones in columns i .. i + k - 1 with the
    _BAND + k - 1 input rows the block's windows cover, writing the
    window sums straight into the result, which is then divided by k.
    The second does the same for blocks of output columns from the
    right, with the transposed 0/1 matrix, so no transposed copy is
    made.  No edge-padded copy of the image is made either: an interior
    block reads its rows (columns) as a view of the input, and only a
    block whose windows reach past an edge gathers its own small copy,
    the edge row (column) repeated.  Every output is the sum of its k
    edge-extended values (the band's zeros add nothing), then divided
    by k.  The BLAS kernel picks the order of the additions: on
    512-pixel images it adds in window order and the result equals two
    sliding-window row passes bit for bit; at other sides the edge tiles
    go to other kernels and can differ in the last bit.

    Apart from the input the filter holds one image, the row pass, which
    the column pass overwrites with the result.  A block's column sums
    are written to a ring of (h, _BAND) buffers and copied back once no
    later block's window reads the columns they replace, a delay of
    slots = 1 + ceil(floor(k/2) / _BAND) blocks: two at k = 15, so the
    ring holds 256 KiB beside a 2 MiB 512 x 512 image.  The ring is cut
    to w columns, so however large k is it holds at most one image.  A
    gathered edge window is freed before the next one is made.  The GEMM
    operands are those of a pass into a separate result, so the bits
    are too.

    _BAND = 32 is measured, on one 512 x 512 image at k = 15 with one
    OpenBLAS thread on a 2-core x86-64 host (medians of 7 runs): bands
    of 8, 16, 32, 64 and 128 took 4.8, 4.2, 4.4, 5.0 and 6.0 ms,
    against 8.4 ms for two sliding-window row passes with transposed
    copies.  Narrow bands pay per-call overhead, wide ones multiply
    mostly zeros; 32 is as fast as 16 with half the calls.
    """
    if k < 1:
        raise ConfigError(f"filter size must be >= 1, got {k}")
    # C order, so every window has the layout the GEMM kernels were
    # measured and bit-checked with
    img = np.ascontiguousarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ConfigError("mean_filter expects a 2-D array")
    if k == 1:
        return img.copy()
    lo = k // 2
    h, w = img.shape
    span = np.arange(_BAND + k - 1)[None, :] - np.arange(_BAND)[:, None]
    ones = ((span >= 0) & (span < k)).astype(np.float64)

    out = np.empty((h, w))
    for r in range(0, h, _BAND):
        n = min(_BAND, h - r)
        window = _edge_window(img, r - lo, n + k - 1, axis=0)
        np.matmul(ones[:n, :n + k - 1], window, out=out[r:r + n])
        del window
    out /= k

    # Block j's sums wait in ring slot j % slots until block j + slots
    # starts: that block's windows, and all later ones, begin at or
    # right of column (j + slots) * _BAND - lo, past block j's columns,
    # since (slots - 1) * _BAND >= lo.
    n_blocks = -(-w // _BAND)
    slots = 1 + -(-lo // _BAND)
    ring = np.empty(h * min(slots * _BAND, w))

    def held(j: int) -> np.ndarray:
        start = j % slots * h * _BAND
        return ring[start:start + h * min(_BAND, w - j * _BAND)].reshape(h, -1)

    for j in range(n_blocks):
        if j >= slots:
            out[:, (j - slots) * _BAND:(j - slots + 1) * _BAND] = held(j - slots)
        c = j * _BAND
        n = min(_BAND, w - c)
        window = _edge_window(out, c - lo, n + k - 1, axis=1)
        np.matmul(window, ones[:n, :n + k - 1].T, out=held(j))
        del window
    for j in range(max(0, n_blocks - slots), n_blocks):
        out[:, j * _BAND:(j + 1) * _BAND] = held(j)
    out /= k
    return out
