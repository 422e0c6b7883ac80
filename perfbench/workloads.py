"""The benchmark's workloads: which WAV set each writes and which commands it runs.

A workload is a generator of labelled clips (a pure function of the
workload seed) plus a list of steps.  A step is one ``scenehog extract``
of the WAV set followed by one ``scenehog experiment`` on the features,
both under the same descriptor settings.  See README.md in this
directory for why each workload exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

N_C = 10          # default c_grid size
N_SIGMA = 6       # default sigma_grid size
N_RESAMPLE = 5    # default n_resample


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Step:
    name: str
    descriptor: tuple[str, ...]   # --set pairs shared by extract and experiment
    learning: tuple[str, ...]     # --set pairs of the experiment only


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list]
    n_classes: int
    n_splits: int
    kernel: str
    threads: int                  # 0 means one per available core
    steps: tuple[Step, ...]
    reference_map: float          # median map_mean over seeds 1..10 at the baseline

    def thread_count(self) -> int:
        return self.threads or nproc()

    def train_binary_calls(self) -> int:
        """splits x (|C| |sigma| n_resample + 1) x pairs, summed over steps."""
        n_sigma = N_SIGMA if self.kernel == "gaussian" else 1
        pairs = self.n_classes * (self.n_classes - 1) // 2
        per_step = self.n_splits * (N_C * n_sigma * N_RESAMPLE + 1) * pairs
        return per_step * len(self.steps)

    def extract_args(self, step: Step, data, out, threads: int) -> list[str]:
        args = ["extract", "--data", str(data), "--out", str(out), "--threads", str(threads)]
        return args + _sets(step.descriptor)

    def experiment_args(self, step: Step, features, report) -> list[str]:
        args = [
            "experiment", "--features", str(features), "--report", str(report),
            "--threads", str(self.thread_count()),
        ]
        learning = (f"kernel={self.kernel}", f"n_splits={self.n_splits}") + step.learning
        return args + _sets(step.descriptor + learning)


def _sets(pairs: tuple[str, ...]) -> list[str]:
    out = []
    for pair in pairs:
        out += ["--set", pair]
    return out


def _toy(n_per_class: int) -> Callable[[int], list]:
    def generate(seed: int) -> list:
        from scenehog import ToyConfig, make_toy_dataset

        return make_toy_dataset(ToyConfig(n_per_class=n_per_class, rng_seed=seed))

    return generate


def _scenes19(n_per_class: int) -> Callable[[int], list]:
    def generate(seed: int) -> list:
        from scenes19 import make_scenes19

        return make_scenes19(seed, n_per_class)

    return generate


WORKLOADS = {
    w.name: w
    for w in (
        # README quick start: 200 x 1 s clips at 8 kHz, cell 32.  70 splits
        # instead of the README's 20: with 2 s of evaluation per pass,
        # eval_splits_per_s drifted with the machine more than any other
        # number of the benchmark.
        Workload(
            name="toy-chirp",
            generate=_toy(100),
            n_classes=2,
            n_splits=70,
            kernel="linear",
            threads=1,
            steps=(Step("cell32", ("cell_size=32",), ("fixed_train_count=40",)),),
            reference_map=0.99,
        ),
        # LITIS-Rouen-shaped: 19 classes x 8 clips of 2 s at 22.05 kHz,
        # default descriptor, half of each class tested per split.  4 splits
        # make one pass fill most of a run.
        Workload(
            name="scenes19",
            generate=_scenes19(8),
            n_classes=19,
            n_splits=4,
            kernel="linear",
            threads=1,
            steps=(Step("default", (), ("train_frac=0.5",)),),
            reference_map=0.886,
        ),
        # One toy set under three descriptors sharing the transform prefix,
        # gaussian kernel, threaded at one worker per core.
        Workload(
            name="sweep-gauss",
            generate=_toy(50),
            n_classes=2,
            n_splits=2,
            kernel="gaussian",
            threads=0,
            steps=(
                Step("cell8-marg", ("cell_size=8",), ()),
                Step(
                    "cell16-grid4",
                    ("cell_size=16", "pooling=grid", "grid_freq=4", "grid_time=4"),
                    (),
                ),
                Step("cell32-full", ("cell_size=32", "pooling=full"), ()),
            ),
            reference_map=0.99,
        ),
    )
}
