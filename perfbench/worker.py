"""One fresh process of the benchmark: write a WAV set, or run one pass.

    python3 worker.py setup '<json spec>'
    python3 worker.py pass '<json spec>'

``setup`` times importing scenehog and generating and writing the
workload's WAV set.  ``pass`` runs the workload's commands in-process
through ``scenehog.cli.main``, each between two ``calibrate()`` calls
that measure the machine's speed, then checks their outputs; with
``"trace": true`` it also records spans and runs the checks that need
them.  Either prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _import_scenehog(src: str):
    import scenehog

    if Path(scenehog.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"scenehog imported from {scenehog.__file__}, not from {src}")
    return scenehog


# Seconds one calibrate() call takes on the reference machine (the
# 2-core Xeon VM of README.md, at a median moment).  Timings are
# reported as if measured at that speed.
CAL_REF_S = 0.30


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that uses no scenehog code.

    The host's speed drifts by up to ±25% over minutes, far more than
    passes differ by anything else.  The work imitates the kinds the
    workloads do: many tiny NumPy calls as in the SMO loop, FFT rows as
    in the CQT, and gradients and histograms as in HOG; so its time
    tracks the drift.  run.py scales a run's timings by CAL_REF_S over
    the median calibration time of its passes.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    k = rng.standard_normal((64, 64))
    k = k @ k.T
    g = rng.standard_normal(64)
    x = rng.standard_normal((32, 4096))
    image = rng.random((128, 256))
    start = time.perf_counter()
    for _ in range(12_000):
        i, j = int(np.argmax(g)), int(np.argmin(g))
        g += 1e-6 * (k[i] - k[j])
    for _ in range(90):
        np.abs(np.fft.rfft(x, axis=1))
    for _ in range(45):
        gy, gx = np.gradient(image)
        np.histogram(np.arctan2(gy, gx), bins=9, weights=np.hypot(gx, gy))
    return time.perf_counter() - start


def setup(spec: dict) -> dict:
    start = time.perf_counter()
    scenehog = _import_scenehog(spec["src"])
    from workloads import WORKLOADS

    clips = WORKLOADS[spec["workload"]].generate(spec["seed"])
    data = Path(spec["data"])
    for clip in clips:
        scenehog.write_wav(data / clip.label / f"{clip.source_id}.wav", clip)
    return {"setup_s": time.perf_counter() - start, "clips": len(clips)}


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    Read from /proc where it exists: getrusage's ru_maxrss survives
    fork and exec, so it can report the parent's size instead.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quiet(argv: list[str]) -> int:
    """cli.main with its stdout table discarded."""
    from scenehog import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_pass(spec: dict) -> dict:
    _import_scenehog(spec["src"])
    import numpy as np
    from scenehog import ScenehogError, read_features, read_report
    import scenehog.cli  # noqa: F401  (load every module before wrapping)

    import layers
    from tracer import CallCounter, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[spec["workload"]]
    data, out = Path(spec["data"]), Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    checks: list[tuple[str, bool]] = []  # (what, passed): one per command or output check
    tracer = extractions = counter = None
    if spec["trace"]:
        tracer, extractions = Tracer(), []
        layers.instrument(tracer, extractions)
    else:
        counter = CallCounter("svm.train_binary")
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    # calibrate() before the first command and after every command
    cal = [calibrate()]
    took = {"extract": 0.0, "eval": 0.0}

    def timed(kind: str, what: str, argv: list[str]) -> None:
        t0 = time.perf_counter()
        with span(f"cli.{argv[0]}"):
            rc = _quiet(argv)
        took[kind] += time.perf_counter() - t0
        checks.append((f"{argv[0]} {what} exits 0", rc == 0))
        cal.append(calibrate())

    for step in wl.steps:
        features, report = out / f"{step.name}.features", out / f"{step.name}.report"
        timed("extract", step.name, wl.extract_args(step, data, features, wl.thread_count()))
        timed("eval", step.name, wl.experiment_args(step, features, report))
    rss_mb = _peak_rss_mb()

    with tracer.paused() if tracer else contextlib.nullcontext():
        maps, n_rows = [], spec["clips"]
        for step in wl.steps:
            try:
                x, _, _ = read_features(out / f"{step.name}.features")
                ok = x.shape[0] == n_rows and bool(np.isfinite(x).all())
            except (ScenehogError, OSError):
                ok = False
            checks.append((f"features {step.name} finite", ok))
            try:
                report = read_report(out / f"{step.name}.report")
                maps.append(report.map_mean)
                ok = report.n_splits == wl.n_splits and len(report.classes) == wl.n_classes
            except (ScenehogError, OSError, ValueError):
                ok = False
            checks.append((f"report {step.name} reads back", ok))
        if tracer:
            calls = sum(1 for s in tracer.spans if s[1] == "svm.train_binary")
            _check_stage_rows(wl, extractions, checks)
            _check_thread_identity(wl, data, out, checks)
            tracer.write_jsonl(Path(spec["spans"]))
        else:
            calls = counter.calls
        expected = wl.train_binary_calls()
        checks.append((f"svm.train_binary calls {calls} == {expected}", calls == expected))

    return {
        "total_s": took["extract"] + took["eval"],
        "extract_s": took["extract"],
        "eval_s": took["eval"],
        "calibration_s": cal,
        "clips": n_rows * len(wl.steps),
        "splits": wl.n_splits * len(wl.steps),
        "peak_rss_mb": rss_mb,
        "map_mean": float(np.mean(maps)) if maps else 0.0,
        "checks": checks,
    }


def _check_stage_rows(wl, extractions, checks: list) -> None:
    """Calling the stages one by one reproduces extract_clips rows bit for bit.

    Checks the first, middle and last clip of every extraction.
    """
    import importlib

    import numpy as np
    from scenehog import parse_config_file

    tfr, hog, pooling = (
        importlib.import_module(f"scenehog.{name}") for name in ("tfr", "hog", "pooling")
    )

    ok = len(extractions) == len(wl.steps)
    for step, (clips, x) in zip(wl.steps, extractions):
        cfg = parse_config_file(None, list(step.descriptor))
        pool_cfg = cfg.pool_config()
        for i in sorted({0, len(clips) // 2, len(clips) - 1}):
            clip = clips[i]
            spectrum = tfr.cqt(clip, cfg.cqt_config(clip))
            image = tfr.to_image(np.abs(spectrum), size=cfg.image_size, db_floor=cfg.db_floor)
            filtered = tfr.mean_filter(image.pixels, cfg.filter_size)
            grid = hog.hog(filtered, cfg.hog_config())
            if cfg.pooling == "marginalized":
                row = pooling.pool_marginalized(grid, pool_cfg)
            elif cfg.pooling == "full":
                row = pooling.full_features(grid, pool_cfg)
            else:
                row = pooling.pool_grid(grid, cfg.grid_freq, cfg.grid_time, pool_cfg)
            ok = ok and np.array_equal(row.values, x[i])
    checks.append(("stage calls reproduce extract_clips rows", bool(ok)))


def _check_thread_identity(wl, data: Path, out: Path, checks: list) -> None:
    """Feature files written with worker threads equal one-thread output byte for byte."""
    threads = wl.thread_count()
    if threads == 1:
        return
    for step in wl.steps:
        threaded = out / f"{step.name}.features"
        single = out / f"{step.name}.t1.features"
        rc = _quiet(wl.extract_args(step, data, single, 1))
        same = rc == 0 and all(
            Path(f"{threaded}{ext}").read_bytes() == Path(f"{single}{ext}").read_bytes()
            for ext in ("", ".labels")
        )
        checks.append((f"features {step.name} at {threads} threads == 1 thread", same))


def main() -> None:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    result = setup(spec) if mode == "setup" else run_pass(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
