"""Time extraction and one evaluation split of scenes19 sets of growing size.

For each clips-per-class value on the command line (default 8 40 80)
the script generates the ``perfbench/scenes19.py`` set at seed 1
(19 classes of 2 s clips at 22.05 kHz), extracts it under the default
config with one worker, and runs one split of the evaluation protocol
on it: linear kernel, ``train_frac`` 0.8, default C grid and five
resampled halves.  ``split_s`` is the median of SPLIT_RUNS runs of that
split, since one run's time spreads too widely to show a change of the
solver.  One more run of the split counts the solver's work by wrapping
``svm.train_binary``: ``solves`` machines solved afresh, ``reused``
machines that returned their prior's solution (``alpha_signed`` is the
prior's) and ``smo_steps``, the SMO steps of the fresh solves.
Features go through float32 first, as they do on
their way through a feature file to ``scenehog experiment``.  It then
writes the set out as WAV files and runs ``scenehog extract`` on them in
a child process under the same config and worker count, whose peak
resident memory is ``extract_rss_mb``, and ``scenehog experiment`` on
the feature file that child wrote in another, one split at
``train_frac`` 0.8 (seed 1), whose peak is ``experiment_rss_mb``.  It
prints one tab separated line per size:

    clips_per_class  rows  extract_s  split_s  map  c  extract_rss_mb  experiment_rss_mb
    solves  reused  smo_steps

The benchmark workloads use 8 clips per class.  The source paper's set
has about 160, and from about 40 on evaluation costs more than
extraction, which the fixed workloads cannot show.  BLAS runs on one
thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS
says otherwise.  The smallest size that runs is 5 (one test clip per
class).  Run from anywhere:

    python3 scripts/scale_probe.py [CLIPS_PER_CLASS ...]
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread settings)

ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.path[:0] = PATHS

from scenehog import RunConfig, extract_clips, run_protocol, svm, write_wav  # noqa: E402
from scenes19 import make_scenes19  # noqa: E402

DEFAULT_SIZES = (8, 40, 80)
SEED = 1
SPLIT_RUNS = 3

# a `scenehog` command in a fresh process, then its own peak RSS in MB on
# the last stdout line; benchmark and probe read it the same way.
CLI_CHILD = """
import sys
from scenehog.cli import main
from worker import _peak_rss_mb
rc = main(sys.argv[1:])
print(_peak_rss_mb())
sys.exit(rc)
"""


def cli_rss_mb(*args: str) -> float:
    """Peak resident MB of a child `scenehog ARGS...`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.splitlines()[-1])


def solver_work(x: np.ndarray, labels) -> tuple[int, int, int]:
    """(solves, reused, smo_steps) of one split, counted by wrapping
    svm.train_binary while it runs."""
    work = [0, 0, 0]
    real = svm.train_binary

    def counted(*args, **kwargs):
        machine = real(*args, **kwargs)
        prior = kwargs.get("prior")
        if prior is not None and machine.alpha_signed is prior.alpha_signed:
            work[1] += 1
        else:
            work[0] += 1
            work[2] += machine.solve.iterations
        return machine

    svm.train_binary = counted
    try:
        run_protocol(x, labels, n_splits=1, seed=SEED, train_frac=0.8)
    finally:
        svm.train_binary = real
    return work[0], work[1], work[2]


def probe(n_per_class: int, work: Path) -> tuple:
    """(rows, extraction s, median split s, MAP, chosen C, extract and
    experiment peak RSS MB, solves, reused, smo_steps)."""
    clips = make_scenes19(SEED, n_per_class)
    start = time.perf_counter()
    x, labels, _, _ = extract_clips(clips, RunConfig())
    extract_s = time.perf_counter() - start
    x = x.astype(np.float32).astype(np.float64)
    split_times = []
    for _ in range(SPLIT_RUNS):
        start = time.perf_counter()
        report = run_protocol(x, labels, n_splits=1, seed=SEED, train_frac=0.8)
        split_times.append(time.perf_counter() - start)
    split_s = float(np.median(split_times))
    solver = solver_work(x, labels)
    data = work / f"scenes19-{n_per_class}"
    for clip in clips:
        write_wav(data / clip.label / f"{clip.source_id}.wav", clip)
    del clips  # let the child decode the set without this copy alongside
    features = work / f"scenes19-{n_per_class}.features"
    extract_mb = cli_rss_mb("extract", "--data", str(data), "--out", str(features))
    experiment_mb = cli_rss_mb(
        "experiment", "--features", str(features), "--report", str(work / "report.txt"),
        "--set", "n_splits=1", "--set", f"seed={SEED}", "--set", "train_frac=0.8",
    )
    return (
        x.shape[0], extract_s, split_s, report.map_mean, float(report.chosen_c[0]),
        extract_mb, experiment_mb, *solver,
    )


def main(argv: list[str]) -> int:
    try:
        sizes = [int(v) for v in argv] or list(DEFAULT_SIZES)
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 5:
        print("usage: scale_probe.py [CLIPS_PER_CLASS ...]  (each at least 5)", file=sys.stderr)
        return 2
    print(
        "clips_per_class\trows\textract_s\tsplit_s\tmap\tc\textract_rss_mb\texperiment_rss_mb"
        "\tsolves\treused\tsmo_steps"
    )
    for n in sizes:
        with tempfile.TemporaryDirectory(prefix="scale_probe.") as work:
            rows, extract_s, split_s, score, c, extract_mb, experiment_mb, *solver = probe(
                n, Path(work)
            )
        print(
            f"{n}\t{rows}\t{extract_s:.2f}\t{split_s:.2f}\t{score:.6f}\t{c:.6g}"
            f"\t{extract_mb:.1f}\t{experiment_mb:.1f}\t" + "\t".join(map(str, solver)),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
