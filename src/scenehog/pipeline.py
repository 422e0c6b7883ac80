"""End to end orchestration: one flat configuration drives every stage.

A RunConfig collects the knobs of all stages (generation, transform,
descriptor, pooling, learning, evaluation) and can be loaded from a
flat key=value file with command line overrides.  The extraction
pipeline maps a clip to a feature vector:

    clip -> cqt -> to_image -> mean_filter -> hog -> pooling

extract_clip is the only code that runs this chain; extract_clips maps
it over clips and can write each row's filtered image as a PGM from the
same pass.  Two conveniences keep one configuration usable across
sample rates:
f_max_hz is capped at 95% of the Nyquist frequency of each clip, and
hop_samples=0 picks clip_length // 127 so every clip yields at least
128 transform columns before the resize.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioClip, ToyConfig, make_toy_dataset, segment, segment_length
from .errors import ConfigError, DataError
from .evaluation import EvalReport, run_protocol
from .hog import HogConfig, hog
from .pooling import FeatureVector, PoolConfig, feature_dim, pool
from .store import DatasetScan, write_pgm
from .svm import KernelSpec, default_sigma_grid
from .tfr import CqtConfig, cqt, mean_filter, to_image
from .util import check_threads, parallel_map

__all__ = [
    "RunConfig",
    "parse_config_file",
    "extract_clip",
    "extract_clips",
    "generate_toy",
    "run_experiment",
]

# The keys that shape a feature vector: transform, image, descriptor,
# pooling and segmentation.  A feature file records their hash.
_EXTRACTION_KEYS = (
    "f_min_hz", "f_max_hz", "bins_per_octave", "hop_samples",
    "image_size", "db_floor", "filter_size",
    "cell_size", "n_orient", "clip_tau", "eps_norm",
    "variant", "include_factors", "pooling", "grid_freq", "grid_time",
    "seg_seconds",
)


@dataclass
class RunConfig:
    """Flat bag of stage parameters; defaults match the reference setup
    (8 px cells, 8 orientations, both histogram variants without the
    normalisation factors, 15 px mean filter, marginalized pooling,
    linear kernel)."""

    seed: int = 0
    # synthetic data generation
    n_per_class: int = 100
    toy_sample_rate_hz: int = 8000
    noise_sigma: float = 0.4
    # constant-Q transform
    f_min_hz: float = 20.0
    f_max_hz: float = 10000.0
    bins_per_octave: int = 8
    hop_samples: int = 0
    # image conversion
    image_size: int = 512
    db_floor: float = -80.0
    filter_size: int = 15
    # descriptor
    cell_size: int = 8
    n_orient: int = 8
    clip_tau: float = 0.2
    eps_norm: float = 1e-10
    # pooling
    variant: str = "both"
    include_factors: bool = False
    pooling: str = "marginalized"
    grid_freq: int = 8
    grid_time: int = 8
    # input segmentation (0 disables)
    seg_seconds: float = 0.0
    # learning and evaluation
    kernel: str = "linear"
    c_grid: str = ""
    sigma_grid: str = ",".join(f"{s:g}" for s in default_sigma_grid())
    n_splits: int = 20
    train_frac: float = 0.8
    fixed_train_count: int = 0
    n_resample: int = 5

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in ("signed", "unsigned", "both"):
            raise ConfigError(f"variant must be signed|unsigned|both, got {self.variant!r}")
        if self.kernel not in ("linear", "gaussian"):
            raise ConfigError(f"kernel must be linear|gaussian, got {self.kernel!r}")
        if self.image_size % self.cell_size:
            raise ConfigError(
                f"cell_size {self.cell_size} does not divide image_size {self.image_size}"
            )
        # a wider window only repeats edge pixels, at a cost linear in it
        if not 1 <= self.filter_size <= self.image_size:
            raise ConfigError(
                f"filter_size must be in 1..image_size ({self.image_size}), got {self.filter_size}"
            )
        cells = self.image_size // self.cell_size
        if self.pooling == "grid":
            if cells % self.grid_freq or cells % self.grid_time:
                raise ConfigError(
                    f"pooling grid {self.grid_freq}x{self.grid_time} does not "
                    f"divide the {cells}x{cells} cell grid"
                )
        if self.hop_samples < 0:
            raise ConfigError("hop_samples must be >= 0 (0 selects automatic)")
        if self.fixed_train_count < 0:
            raise ConfigError("fixed_train_count must be >= 0 (0 disables)")
        # constructing the stage configs runs their own checks
        CqtConfig(self.f_min_hz, self.f_max_hz, self.bins_per_octave)
        self.hog_config()
        self.pool_config()
        self.c_grid_values()
        self.sigma_grid_values()
        if self.seg_seconds < 0:
            raise ConfigError("seg_seconds must be >= 0 (0 disables)")

    # -- derived stage configurations ------------------------------------

    def toy_config(self) -> ToyConfig:
        return ToyConfig(
            n_per_class=self.n_per_class,
            sample_rate_hz=self.toy_sample_rate_hz,
            noise_sigma=self.noise_sigma,
            rng_seed=self.seed,
        )

    def cqt_config(self, clip: AudioClip) -> CqtConfig:
        nyquist = clip.sample_rate_hz / 2.0
        f_max = min(self.f_max_hz, 0.95 * nyquist)
        n = clip.samples.size
        hop = self.hop_samples if self.hop_samples > 0 else max(1, n // 127)
        if hop > n:
            raise ConfigError(
                f"hop_samples {hop} exceeds the {n} samples of clip {clip.source_id!r}, "
                "leaving fewer than 2 frames"
            )
        return CqtConfig(
            f_min_hz=self.f_min_hz,
            f_max_hz=f_max,
            bins_per_octave=self.bins_per_octave,
            hop_samples=hop,
        )

    def hog_config(self) -> HogConfig:
        return HogConfig(
            cell_size=self.cell_size,
            n_orient=self.n_orient,
            clip_tau=self.clip_tau,
            eps_norm=self.eps_norm,
        )

    def pool_config(self) -> PoolConfig:
        return PoolConfig(
            mode=self.pooling,
            grid_freq=self.grid_freq,
            grid_time=self.grid_time,
            use_signed=self.variant in ("signed", "both"),
            use_unsigned=self.variant in ("unsigned", "both"),
            use_factors=self.include_factors,
        )

    def c_grid_values(self) -> np.ndarray | None:
        if not self.c_grid.strip():
            return None
        try:
            values = np.asarray([float(v) for v in self.c_grid.split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad c_grid {self.c_grid!r}") from exc
        if values.size == 0 or not all(0 < v < math.inf for v in values):
            raise ConfigError("c_grid values must be positive and finite")
        return values

    def sigma_grid_values(self) -> tuple[float, ...]:
        try:
            values = tuple(float(v) for v in self.sigma_grid.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"bad sigma_grid {self.sigma_grid!r}") from exc
        if not values or not all(0 < v < math.inf for v in values):
            raise ConfigError("sigma_grid values must be positive and finite")
        for v in values:
            KernelSpec("gaussian", v)  # refuses a sigma whose 2 sigma^2 is unusable
        return values

    # -- serialisation ----------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            lines.append(f"{f.name}={getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:40]

    def extraction_hash(self) -> str:
        """Hash of the extraction keys alone, as stored in feature files;
        learning, evaluation and generation keys do not change it."""
        text = "".join(f"{k}={getattr(self, k)}\n" for k in _EXTRACTION_KEYS)
        return hashlib.sha256(text.encode()).hexdigest()[:40]


def _coerce(name: str, kind: type, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def _apply_pairs(cfg: RunConfig, pairs: list[str], where: str) -> None:
    kinds = {f.name: type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"{where}: expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key not in kinds:
            raise ConfigError(f"{where}: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, kinds[key], value))


def parse_config_file(path: str | Path | None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus overrides.

    Lines that are blank or start with '#' are ignored.  Overrides are
    applied after the file, last occurrence wins, and the combined
    configuration is validated.
    """
    cfg = RunConfig()
    if path is not None:
        text = Path(path).read_text()
        pairs = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{i}: expected key=value, got {line!r}")
            pairs.append(line)
        _apply_pairs(cfg, pairs, where=str(path))
    if overrides:
        _apply_pairs(cfg, overrides, where="--set")
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_clip(
    clip: AudioClip, cfg: RunConfig, *, dump_images: str | Path | None = None
) -> tuple[FeatureVector, dict[str, float]]:
    """Feature vector for one clip plus wall clock seconds per stage.

    With dump_images set, the filtered image (the descriptor's input) is
    also written there as <source id>.pgm, the id's folders included.
    """
    pool_cfg = cfg.pool_config()
    # stage functions are looked up by name at call time, so rebinding
    # a module attribute (a profiler, a test double) reaches this path
    stages = {
        "cqt": lambda audio: cqt(audio, cfg.cqt_config(audio)),
        "image": lambda spectrum: to_image(
            np.abs(spectrum), size=cfg.image_size, db_floor=cfg.db_floor
        ).pixels,
        "filter": lambda pixels: mean_filter(pixels, cfg.filter_size),
        "hog": lambda filtered: hog(filtered, cfg.hog_config()),
        "pool": lambda grid: pool(grid, pool_cfg),
    }
    timing = {}
    value = clip
    for name, stage in stages.items():
        t0 = time.perf_counter()
        value = stage(value)
        timing[name] = time.perf_counter() - t0
        if name == "filter":
            filtered = value
    if dump_images is not None:
        write_pgm(Path(dump_images) / f"{clip.source_id}.pgm", filtered)
    return value, timing


def _row_counts(clips: Sequence[AudioClip], seg_seconds: float) -> list[int]:
    """Rows each clip gives: one, or with seg_seconds > 0 its segment
    count, read from the WAV header for a DatasetScan and from the
    samples otherwise, one clip at a time."""
    if seg_seconds <= 0:
        return [1] * len(clips)

    def length(i: int) -> tuple[int, int]:
        if isinstance(clips, DatasetScan):
            return clips.length(i)
        clip = clips[i]
        return clip.samples.size, clip.sample_rate_hz

    return [n // segment_length(seg_seconds, rate) for n, rate in map(length, range(len(clips)))]


def extract_clips(
    clips: Sequence[AudioClip],
    cfg: RunConfig,
    *,
    threads: int = 1,
    dump_images: str | Path | None = None,
) -> tuple[np.ndarray, list[str], list[str], dict[str, float]]:
    """Extract all clips; returns (matrix, labels, source ids, timings).

    Rows follow the input order: one per clip, or with seg_seconds > 0
    one per segment of each clip in turn.  Clips are independent, so the
    result is the same for any thread count.  Each worker takes
    clips[i] itself and lets go of it once that clip's rows are done, so
    a sequence that decodes on access, such as a DatasetScan, has at
    most `threads` decoded clips in memory at a time, and a clip that
    cannot be read fails the call with its own error when its turn
    comes.  dump_images is passed on to extract_clip, giving one PGM
    per row.

    The matrix is allocated once, before any clip is extracted: its
    width is pooling.feature_dim of the configuration, and its row
    count is known beforehand, since a segmented clip gives
    floor(samples / segment length) rows (a DatasetScan reads the
    sample counts from the WAV headers, so no clip is decoded twice).
    Each worker copies its rows into their place and drops every
    FeatureVector once copied.  A row of another width, or a clip with
    another segment count than its header promised, fails the call.
    """
    cfg.validate()
    check_threads(threads)
    counts = _row_counts(clips, cfg.seg_seconds)
    first = np.cumsum([0] + counts)
    if not first[-1]:
        raise ConfigError("no clips to extract")
    cells = cfg.image_size // cfg.cell_size
    dim = feature_dim(cfg.pool_config(), cfg.n_orient, cells, cells)
    x = np.empty((int(first[-1]), dim))

    def rows_of(i: int) -> list:
        clip = clips[i]
        parts = segment(clip, cfg.seg_seconds) if cfg.seg_seconds > 0 else [clip]
        if len(parts) != counts[i]:
            raise DataError(
                f"{clip.source_id}: {len(parts)} segments, {counts[i]} expected "
                "from its length before decoding"
            )
        del clip
        tags = []
        for row, part in enumerate(parts, start=first[i]):
            fv, timing = extract_clip(part, cfg, dump_images=dump_images)
            if fv.dim != dim:
                raise ConfigError(f"inconsistent feature dimensions: {fv.dim} against {dim}")
            x[row] = fv.values
            tags.append((part.label, part.source_id, timing))
        return tags

    tags = [tag for rows in parallel_map(rows_of, range(len(clips)), threads) for tag in rows]
    labels = [label if label is not None else "?" for label, _, _ in tags]
    ids = [source_id for _, source_id, _ in tags]
    totals = {name: sum(t[name] for _, _, t in tags) for name in tags[0][2]}
    return x, labels, ids, totals


def generate_toy(cfg: RunConfig) -> list[AudioClip]:
    return make_toy_dataset(cfg.toy_config())


def run_experiment(x: np.ndarray, labels, cfg: RunConfig) -> EvalReport:
    """Run the repeated split protocol as configured."""
    cfg.validate()
    return run_protocol(
        x,
        labels,
        n_splits=cfg.n_splits,
        seed=cfg.seed,
        train_frac=cfg.train_frac,
        fixed_train_count=cfg.fixed_train_count or None,
        kernel_kind=cfg.kernel,
        c_grid=cfg.c_grid_values(),
        sigma_grid=cfg.sigma_grid_values(),
        n_resample=cfg.n_resample,
        params={"config_hash": cfg.config_hash()},
    )
