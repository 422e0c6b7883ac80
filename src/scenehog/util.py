"""Small shared helpers: derived random streams, a stratified index
split, atomic file writes and an order preserving parallel map."""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = [
    "rng_from", "split_by_class", "atomic_write_bytes", "atomic_write_text",
    "check_threads", "parallel_map",
]


def rng_from(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator for a (seed, keys...) coordinate.

    Built on the Philox counter based bit generator, so streams for
    different coordinates are independent and the draw order of one
    stream never influences another.
    """
    seq = np.random.SeedSequence([int(seed)] + [int(k) for k in keys])
    return np.random.Generator(np.random.Philox(seq))


def split_by_class(
    labels: np.ndarray, n_first, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split row indices into two sorted parts, class by class.

    Classes are taken in sorted order; each draws one rng.permutation
    of its rows, and the first n_first[k] of them go to the first part
    for the k-th class, the rest to the second.
    """
    first, second = [], []
    for k, name in enumerate(sorted(set(labels))):
        idx = np.flatnonzero(labels == name)
        idx = idx[rng.permutation(idx.size)]
        first.append(idx[: n_first[k]])
        second.append(idx[n_first[k]:])
    return np.sort(np.concatenate(first)), np.sort(np.concatenate(second))


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a sibling temporary file and rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")


def parallel_map(fn, items, threads: int) -> list:
    """[fn(item) for item in items] on up to `threads` worker threads.

    Results follow the input order.  The worker count is capped at the
    number of items; one worker runs in the calling thread.
    """
    check_threads(threads)
    items = list(items)
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
