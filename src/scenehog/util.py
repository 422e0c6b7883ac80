"""Small shared helpers: derived random streams, class indices of
labels, a stratified index split, atomic file writes and an order
preserving parallel map."""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = [
    "rng_from", "class_codes", "split_by_class", "atomic_write_bytes", "atomic_write_text",
    "check_threads", "usable_cores", "parallel_map",
]


def rng_from(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator for a (seed, keys...) coordinate.

    Built on the Philox counter based bit generator, so streams for
    different coordinates are independent and the draw order of one
    stream never influences another.
    """
    seq = np.random.SeedSequence([int(seed)] + [int(k) for k in keys])
    return np.random.Generator(np.random.Philox(seq))


def class_codes(labels) -> tuple[list[str], np.ndarray]:
    """(classes, codes): the sorted distinct label names and, for each
    label, the index of its name in classes.  Labels are compared as
    names (str), so 10 sorts before 2."""
    names = [str(v) for v in labels]
    classes = sorted(set(names))
    return classes, np.searchsorted(np.asarray(classes), names)


def split_by_class(
    codes: np.ndarray, n_first, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split row indices into two sorted parts, class by class.

    codes holds each row's class index; classes are taken in index
    order, each draws one rng.permutation of its rows, and the first
    n_first[k] of them go to the first part for class k, the rest to
    the second.
    """
    first, second = [], []
    for k, count in enumerate(n_first):
        idx = np.flatnonzero(codes == k)
        idx = idx[rng.permutation(idx.size)]
        first.append(idx[:count])
        second.append(idx[count:])
    return np.sort(np.concatenate(first)), np.sort(np.concatenate(second))


def atomic_write_bytes(path: Path, parts) -> None:
    """Write an iterable of bytes-like parts, in order, via a sibling
    temporary file and rename it into place; no file is left behind on
    failure, also when the iterable itself raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])


def check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn, items, threads: int) -> list:
    """[fn(item) for item in items] on up to `threads` worker threads.

    Its one caller, extract_clips, checks `threads`; evaluation's SMO
    loop holds the GIL, so its splits run inline.  Results follow the
    input order.  Workers are capped at the number of items and at
    usable_cores(): each holds its own working set, and more workers
    than cores gain no speed.  One worker runs in the calling thread.
    """
    items = list(items)
    workers = min(threads, len(items), usable_cores())
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
