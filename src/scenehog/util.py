"""Small shared helpers: derived random streams, atomic file writes and
an order preserving parallel map."""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = [
    "rng_from", "atomic_write_bytes", "atomic_write_text", "check_threads", "parallel_map",
]


def rng_from(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator for a (seed, keys...) coordinate.

    Built on the Philox counter based bit generator, so streams for
    different coordinates are independent and the draw order of one
    stream never influences another.
    """
    seq = np.random.SeedSequence([int(seed)] + [int(k) for k in keys])
    return np.random.Generator(np.random.Philox(seq))


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
