"""scenehog benchmark: run one workload for one seed and report its metrics.

    python3 perfbench/run.py --workload toy-chirp --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload in turn

Run it from the root of a scenehog checkout; the program is imported
from ``src/``.  A run sets up the workload's WAV set five times in
fresh processes (``setup_s`` is the median), then measures passes of
the workload's commands, each in a fresh process.

``--trace 0`` measures whole passes, as many as end closest to
``--seconds`` (at least one), and reports the end-to-end metrics as
medians over passes.  ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics from the traced pass's spans,
plus ``trace.overhead_frac``.

The host's speed drifts by up to ±25% over minutes, so the timing
metrics are scaled to a reference speed.  Every pass runs a fixed
calibration workload (``worker.calibrate``) before its first command
and after each command; a run's timings are multiplied by
``CAL_REF_S`` over the median calibration time.  The unscaled timings
are printed as ``raw<TAB>name<TAB>value`` lines.

Every metric is printed as ``name<TAB>value<TAB>unit`` and every check
as ``check<TAB>ok|FAILED<TAB>what``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes:
0 all checks passed, 1 some check failed, 2 no scenehog source next to
the benchmark, 3 a worker process crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TIME_LIMIT_S = 170.0       # a run must end within 180 s
SETUP_REPEATS = 5
# One BLAS thread per process.  OpenBLAS otherwise starts one spinning
# thread per core, so two busy processes (or --threads > 1) on a small
# machine oversubscribe the cores and run several times slower.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from tracer import read_jsonl  # noqa: E402
from worker import CAL_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class WorkerError(Exception):
    """A worker process crashed or ran out of time."""


def _worker(mode: str, spec: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for a {mode} worker")
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    argv = [sys.executable, str(HERE / "worker.py"), mode, json.dumps(spec)]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker ran out of time") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    """Machine, library and code identity recorded with every result."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_ENV,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, map_bound: float):
    """Set up and measure one workload.

    Returns (end-to-end metrics, unscaled timings, per-layer metrics,
    checks); the per-layer metrics are empty unless `trace`.
    """
    wl = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(wl, seed, seconds, trace, work, map_bound)
    finally:
        # keep only the spans; WAV sets and feature files are rewritten every run
        for path in work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)


def _measure(wl, seed: int, seconds: int, trace: bool, work: Path, map_bound: float):
    deadline = time.monotonic() + TIME_LIMIT_S
    data = work / "wav"
    setup_spec = {"src": str(SRC), "workload": wl.name, "seed": seed, "data": str(data)}
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(data, ignore_errors=True)
        setups.append(_worker("setup", setup_spec, deadline))

    spec = dict(setup_spec, clips=setups[-1]["clips"], out=str(work / "out"), trace=False)
    passes = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        passes.append(_worker("pass", spec, deadline))
        took = time.monotonic() - started
        # end as close to `seconds` as whole passes allow
        if trace or time.monotonic() - begin + took / 2 > seconds:
            break

    def median(values) -> float:
        return float(statistics.median(values))

    raw = {
        "setup_s": median(s["setup_s"] for s in setups),
        "total_s": median(p["total_s"] for p in passes),
        "extract_clips_per_s": median(p["clips"] / p["extract_s"] for p in passes),
        "eval_splits_per_s": median(p["splits"] / p["eval_s"] for p in passes),
        "calibration_s": median(c for p in passes for c in p["calibration_s"]),
    }
    speed = CAL_REF_S / raw["calibration_s"]   # > 1 while the machine runs fast
    e2e = {
        "setup_s": raw["setup_s"] * speed,
        "total_s": raw["total_s"] * speed,
        "extract_clips_per_s": raw["extract_clips_per_s"] / speed,
        "eval_splits_per_s": raw["eval_splits_per_s"] / speed,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "map_mean": median(p["map_mean"] for p in passes),
    }
    checks = [c for p in passes for c in p["checks"]]
    checks.append((
        f"map_mean {e2e['map_mean']:.4f} within {map_bound:.0%} of reference {wl.reference_map}",
        abs(e2e["map_mean"] - wl.reference_map) <= map_bound * wl.reference_map,
    ))
    if not trace:
        return e2e, raw, {}, checks

    spans_path = work / "spans.jsonl"
    traced = _worker(
        "pass", dict(spec, out=str(work / "traced"), trace=True, spans=str(spans_path)), deadline
    )
    checks += traced["checks"]
    spans = read_jsonl(spans_path)
    absent = layers.missing(spans)
    checks += [(f"span {s} recorded calls", s not in absent) for s in layers.REQUIRED]
    per_layer = layers.metrics(spans)
    traced_total_s = traced["total_s"] * CAL_REF_S / median(traced["calibration_s"])
    per_layer["trace.overhead_frac"] = traced_total_s / e2e["total_s"] - 1.0
    rows = sum(s["attrs"]["rows"] for s in spans if s["name"] == "pipeline.extract_clips")
    checks.append((
        f"tfr.cqt.calls {per_layer['tfr.cqt.calls']} == rows extracted {rows}",
        per_layer["tfr.cqt.calls"] == rows,
    ))
    return e2e, raw, per_layer, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "scenehog" / "__init__.py").is_file():
        print(f"perfbench: no scenehog source under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    map_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "map_mean")
    printed = bench["end_to_end"] + (bench["per_layer"] if args.trace else [])
    reported = bench["per_layer" if args.trace else "end_to_end"]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env\t" + json.dumps(environment(args.seed)))
    out, attempted, failed = {}, 0, 0
    for name in names:
        try:
            e2e, raw, per_layer, checks = run_workload(
                name, args.seed, args.seconds, bool(args.trace), map_bound
            )
        except WorkerError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 3
        metrics = {**e2e, **per_layer}
        if set(metrics) != {m["name"] for m in printed}:
            print(f"perfbench: {name}: metrics differ from BENCHMARK.json", file=sys.stderr)
            return 3
        print(f"workload\t{name}")
        for m in printed:
            print(f"{m['name']}\t{metrics[m['name']]!r}\t{m['unit']}")
        for key, value in raw.items():
            print(f"raw\t{key}\t{value!r}")
        for what, ok in checks:
            print(f"check\t{'ok' if ok else 'FAILED'}\t{what}")
        for m in reported:
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            out[key] = {"value": metrics[m["name"]], "unit": m["unit"]}
        attempted += len(checks)
        failed += sum(1 for _, ok in checks if not ok)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
