"""scripts/scale_probe.py runs end to end at its smallest size."""

import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale_probe.py"


def run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=300
    )


def test_smallest_size_runs():
    proc = run("5")
    assert proc.returncode == 0, proc.stderr
    header, line = proc.stdout.strip().splitlines()
    assert header.split("\t") == [
        "clips_per_class", "rows", "extract_s", "split_s", "map", "c",
        "extract_rss_mb", "experiment_rss_mb", "solves", "reused", "smo_steps",
    ]
    n, rows, extract_s, split_s, score, c, extract_mb, experiment_mb, *solver = line.split("\t")
    assert (int(n), int(rows)) == (5, 95)
    assert float(extract_s) > 0.0 and float(split_s) > 0.0
    assert 10.0 < float(extract_mb) < 1000.0
    assert 10.0 < float(experiment_mb) < 1000.0
    assert 0.0 <= float(score) <= 1.0
    assert np.isclose(10.0 ** np.linspace(-3.0, 2.0, 10), float(c), rtol=1e-5).any()
    # 171 pairs: 10 C values on 5 halves, then the final fit; each
    # (half, pair) solves its first C afresh, and SMO steps at least once
    solves, reused, steps = map(int, solver)
    assert solves + reused == 171 * (10 * 5 + 1)
    assert solves >= 171 * (5 + 1) and steps >= solves


def test_sizes_below_five_refused():
    proc = run("4")
    assert proc.returncode == 2
    assert proc.stdout == ""
