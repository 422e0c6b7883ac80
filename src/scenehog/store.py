"""On disk formats: feature matrices, dataset layout, split manifests, PGM.

Feature files use a fixed 64 byte header (magic "HFTR", version, row
and column counts, 40 character extraction hash) followed by the row
major little endian float32 payload.  Labels travel in a text
sidecar next to the matrix, one class name per line.
"""

from __future__ import annotations

import itertools
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioClip, read_wav, wav_length
from .errors import DatasetError, FormatError
from .util import atomic_write_bytes, atomic_write_text

__all__ = [
    "write_features",
    "read_features",
    "scan_dataset",
    "DatasetScan",
    "SplitManifest",
    "write_pgm",
]

_FEATURE_MAGIC = b"HFTR"
_FEATURE_VERSION = 1
_HASH_BYTES = 40
_HEADER_BYTES = 4 + 4 + 8 + 8 + _HASH_BYTES
# float32 payload bytes converted and written at a time by write_features
_WRITE_BLOCK_BYTES = 1 << 20


def labels_path(path: str | Path) -> Path:
    return Path(str(path) + ".labels")


def write_features(
    path: str | Path, x: np.ndarray, labels, config_hash: str = ""
) -> None:
    """Write a feature matrix and its label sidecar atomically.

    Values are quantized to float32 exactly once, here; reading the
    file back returns those float32 values unchanged.  The payload is
    converted and written in blocks of rows of about _WRITE_BLOCK_BYTES,
    so no float32 copy of the whole matrix is made.  Labels holding a
    line break are refused before anything is written.
    """
    path = Path(path)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = [str(v) for v in labels]
    if len(labels) != x.shape[0]:
        raise FormatError(f"{x.shape[0]} feature rows but {len(labels)} labels")
    if broken := sorted({v for v in labels if v.splitlines() not in ([], [v])}):
        raise FormatError(f"labels {broken} hold a line break")
    if x.shape[1] == 0:
        raise FormatError("a feature matrix needs at least one column")
    tag = config_hash.encode("ascii")[:_HASH_BYTES].ljust(_HASH_BYTES, b"\x00")
    header = (
        _FEATURE_MAGIC
        + struct.pack("<I", _FEATURE_VERSION)
        + struct.pack("<QQ", x.shape[0], x.shape[1])
        + tag
    )
    step = max(1, _WRITE_BLOCK_BYTES // (4 * max(1, x.shape[1])))
    blocks = (
        np.ascontiguousarray(x[r:r + step], dtype="<f4") for r in range(0, x.shape[0], step)
    )
    atomic_write_bytes(path, itertools.chain([header], blocks))
    atomic_write_text(labels_path(path), "".join(v + "\n" for v in labels))


def read_features(path: str | Path) -> tuple[np.ndarray, list[str], str]:
    """Read a feature file; returns (matrix as float64, labels, extraction hash).

    A file with no columns or holding a NaN or infinite value is refused
    with FormatError.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER_BYTES or data[:4] != _FEATURE_MAGIC:
        raise FormatError(f"{path}: not a feature file (bad magic)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != _FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature file version {version}")
    n_rows, n_dims = struct.unpack_from("<QQ", data, 8)
    if n_dims == 0:
        raise FormatError(f"{path}: feature file has no columns")
    config_hash = data[24:24 + _HASH_BYTES].rstrip(b"\x00").decode("ascii")
    expected = n_rows * n_dims * 4
    payload_bytes = len(data) - _HEADER_BYTES
    if payload_bytes != expected:
        raise FormatError(
            f"{path}: payload is {payload_bytes} bytes, expected {expected} "
            f"for {n_rows}x{n_dims} float32"
        )
    x = np.frombuffer(data, dtype="<f4", count=n_rows * n_dims, offset=_HEADER_BYTES)
    x = x.reshape(n_rows, n_dims)
    if not np.all(np.isfinite(x)):
        raise FormatError(f"{path}: non-finite feature values")
    side = labels_path(path)
    if not side.exists():
        raise FormatError(f"{path}: missing label sidecar {side}")
    labels = side.read_text().splitlines()
    if len(labels) != n_rows:
        raise FormatError(
            f"{side}: {len(labels)} labels for {n_rows} feature rows"
        )
    return x.astype(np.float64), labels, config_hash


# ---------------------------------------------------------------------------
# Dataset directory layout
# ---------------------------------------------------------------------------


@dataclass
class DatasetScan(Sequence):
    """The clips of a class-per-subdirectory dataset root, read on demand.

    entries  (path, label, source_id) sorted by class then file path;
             source ids are the paths below the root, so duplicate file
             names in different directories stay distinct
    skipped  count of non WAV files that were ignored

    len(scan) is the number of entries.  scan[i] decodes entry i with
    read_wav on every access and tags it with its label and source id;
    the scan itself holds no samples; scan.length(i) reads entry i's
    (frames, sample rate) from its WAV header alone.
    """

    entries: list[tuple[Path, str, str]]
    skipped: int

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> AudioClip:
        path, label, source_id = self.entries[i]
        clip = read_wav(path, label=label)
        clip.source_id = source_id
        return clip

    def length(self, i: int) -> tuple[int, int]:
        return wav_length(self.entries[i][0])

    @property
    def classes(self) -> list[str]:
        return sorted({label for _, label, _ in self.entries})


def scan_dataset(root: str | Path) -> DatasetScan:
    """Find <root>/<class>/**/*.wav; refuses roots with no usable audio.

    A clip's source id is its path below root without the suffix, so
    <root>/beach/x.wav is beach/x and <root>/beach/a/x.wav is beach/a/x.
    """
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"{root}: not a directory")
    entries = []
    skipped = 0
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        for item in sorted(p for p in sub.rglob("*") if p.is_file()):
            if item.suffix.lower() == ".wav":
                source_id = item.relative_to(root).with_suffix("").as_posix()
                entries.append((item, sub.name, source_id))
            else:
                skipped += 1
    if not entries:
        raise DatasetError(f"{root}: no class subdirectory contains WAV files")
    return DatasetScan(entries, skipped)


# ---------------------------------------------------------------------------
# Split manifests
# ---------------------------------------------------------------------------


@dataclass
class SplitManifest:
    """Record of one train/test partition, keyed by example ids."""

    seed: int
    split_index: int
    train_ids: list[str]
    test_ids: list[str]

    def to_text(self) -> str:
        lines = [f"seed={self.seed}", f"split_index={self.split_index}", "[train]"]
        lines += self.train_ids
        lines.append("[test]")
        lines += self.test_ids
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SplitManifest":
        header: dict[str, str] = {}
        train: list[str] = []
        test: list[str] = []
        bucket = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line == "[train]":
                bucket = train
            elif line == "[test]":
                bucket = test
            elif bucket is None:
                if "=" not in line:
                    raise FormatError(f"bad manifest line {line!r}")
                key, value = line.split("=", 1)
                header[key] = value
            else:
                bucket.append(line)
        if "seed" not in header or "split_index" not in header:
            raise FormatError("manifest missing seed or split_index")
        try:
            return cls(int(header["seed"]), int(header["split_index"]), train, test)
        except ValueError:
            raise FormatError("manifest seed or split_index is not an integer") from None

    def write(self, path: str | Path) -> None:
        atomic_write_text(Path(path), self.to_text())

    @classmethod
    def read(cls, path: str | Path) -> "SplitManifest":
        return cls.from_text(Path(path).read_text())


# ---------------------------------------------------------------------------
# PGM rendering
# ---------------------------------------------------------------------------


def write_pgm(path: str | Path, img: np.ndarray) -> None:
    """Binary 8 bit PGM of an image with values in [0, 1]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise FormatError("write_pgm expects a 2-D array")
    gray = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(Path(path), [header, gray])
