"""Per-layer metrics: which scenehog functions are traced, and what their spans give.

The layers are the modules of ``src/scenehog``.  Each traced function
gets a span named ``module.function``; the metrics below are derived
from those spans alone.  ``.s`` is the summed time inside the function
(busy time, added up over threads), ``.calls`` the number of calls and
``.ms_p50`` / ``.ms_p95`` percentiles of the per-call time.
"""

from __future__ import annotations

import hashlib
import os
from collections import defaultdict

import numpy as np

POOLING = ("pooling.pool_marginalized", "pooling.pool_grid", "pooling.full_features")
STAGES = ("tfr.cqt", "tfr.to_image", "tfr.mean_filter", "hog.hog")

# Every traced span must record at least one call in a traced pass; one
# that records none means the program no longer goes through it.
REQUIRED = (
    "audio.read_wav",
    "pipeline.extract_clips",
    "tfr.cqt",
    "tfr.to_image",
    "tfr.mean_filter",
    "hog.hog",
    "hog.gradient",
    "hog.cell_histograms",
    "hog.normalize_cells",
    "pooling",
    "store.write_features",
    "store.read_features",
    "evaluation.run_protocol",
    "evaluation.stratified_split",
    "svm.fit_standardizer",
    "svm.model_select",
    "svm.train_binary",
    "svm.kernel_matrix",
    "svm.predict",
)

def _cqt(args, kwargs, result):
    clip, cfg = args[0], args[1]
    taps = sum(cfg.window_length(k, clip.sample_rate_hz) for k in range(result.shape[0]))
    return {"macs": result.shape[1] * taps}


def _kernel_matrix(args, kwargs, result):
    x, z = args[0], args[1]
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    attrs = {"macs": result.shape[0] * result.shape[1] * x.shape[1]}
    if args[0] is args[1]:
        # a training Gram; fingerprint its rows to count distinct ones
        digest = hashlib.blake2b(repr((x.shape, spec)).encode(), digest_size=12)
        digest.update(x.sum(axis=1).tobytes())
        digest.update(x[:, 0].tobytes())
        attrs["gram"] = digest.hexdigest()
    return attrs


def _train_binary(args, kwargs, result):
    return {"n_sv": int(result.alpha_signed.size)}


def _write_features(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def instrument(tracer, extractions: list) -> None:
    """Wrap every traced function; each extract_clips call appends
    (clips, feature matrix) to `extractions`."""

    def extract_clips(args, kwargs, result):
        extractions.append((args[0], result[0]))
        return {"threads": kwargs.get("threads", 1), "rows": int(result[0].shape[0])}

    annotations = {
        "tfr.cqt": _cqt,
        "svm.kernel_matrix": _kernel_matrix,
        "svm.train_binary": _train_binary,
        "store.write_features": _write_features,
        "pipeline.extract_clips": extract_clips,
    }
    names = set(REQUIRED) - {"pooling"} | set(POOLING)
    for name in sorted(names):
        tracer.instrument(name, annotations.get(name))


def missing(spans: list[dict]) -> list[str]:
    """Required spans that recorded no call."""
    seen = {s["name"] for s in spans}
    seen |= {"pooling"} if seen & set(POOLING) else set()
    return [name for name in REQUIRED if name not in seen]


def metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac, from one pass's spans."""
    by_id = {s["id"]: s for s in spans}
    groups: dict[str, list[dict]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        groups[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["dur"]

    def total(name: str) -> float:
        return float(sum(s["dur"] for s in groups[name]))

    def ms_pct(name: str, q: float) -> float:
        durs = [s["dur"] * 1e3 for s in groups[name]]
        return float(np.percentile(durs, q)) if durs else 0.0

    def attr_sum(name: str, key: str) -> int:
        return int(sum(s["attrs"][key] for s in groups[name]))

    # outermost pooling calls only: pool_marginalized calls pool_grid
    pool_s = sum(
        s["dur"]
        for name in POOLING
        for s in groups[name]
        if by_id.get(s["parent"], {}).get("name") not in POOLING
    )
    stage_sum = sum(total(name) for name in STAGES) + pool_s
    capacity = sum(s["dur"] * s["attrs"]["threads"] for s in groups["pipeline.extract_clips"])
    grams = [s["attrs"]["gram"] for s in groups["svm.kernel_matrix"] if "gram" in s["attrs"]]
    solves = groups["svm.train_binary"]
    model_select = [s["dur"] for s in groups["svm.model_select"]]

    return {
        "tfr.cqt.s": total("tfr.cqt"),
        "tfr.cqt.calls": len(groups["tfr.cqt"]),
        "tfr.cqt.ms_p50": ms_pct("tfr.cqt", 50),
        "tfr.cqt.ms_p95": ms_pct("tfr.cqt", 95),
        "tfr.cqt.macs": attr_sum("tfr.cqt", "macs"),
        "tfr.to_image.s": total("tfr.to_image"),
        "tfr.mean_filter.s": total("tfr.mean_filter"),
        "tfr.mean_filter.ms_p50": ms_pct("tfr.mean_filter", 50),
        "tfr.mean_filter.ms_p95": ms_pct("tfr.mean_filter", 95),
        "hog.gradient.s": total("hog.gradient"),
        "hog.cell_histograms.s": total("hog.cell_histograms"),
        "hog.normalize_cells.s": total("hog.normalize_cells"),
        "hog.hog.ms_p50": ms_pct("hog.hog", 50),
        "hog.hog.ms_p95": ms_pct("hog.hog", 95),
        "pooling.pool.s": float(pool_s),
        "pipeline.extract_clips.wall_s": total("pipeline.extract_clips"),
        "pipeline.stage_sum_s": float(stage_sum),
        "pipeline.parallel_efficiency": float(stage_sum / capacity) if capacity else 0.0,
        "audio.read_wav.s": total("audio.read_wav"),
        "audio.read_wav.calls": len(groups["audio.read_wav"]),
        "store.write_features.s": total("store.write_features"),
        "store.read_features.s": total("store.read_features"),
        "store.features.bytes": attr_sum("store.write_features", "bytes"),
        "evaluation.run_protocol.wall_s": total("evaluation.run_protocol"),
        "evaluation.stratified_split.s": total("evaluation.stratified_split"),
        "svm.fit_standardizer.s": total("svm.fit_standardizer"),
        "svm.model_select.s": total("svm.model_select"),
        "svm.model_select.s_p50": float(np.median(model_select)) if model_select else 0.0,
        "svm.train_binary.calls": len(solves),
        "svm.train_binary.s": total("svm.train_binary"),
        "svm.train_binary.ms_p50": ms_pct("svm.train_binary", 50),
        "svm.train_binary.ms_p95": ms_pct("svm.train_binary", 95),
        "svm.train_binary.n_sv_mean": (
            float(np.mean([s["attrs"]["n_sv"] for s in solves])) if solves else 0.0
        ),
        "svm.kernel_matrix.calls": len(groups["svm.kernel_matrix"]),
        "svm.kernel_matrix.s": total("svm.kernel_matrix"),
        "svm.kernel_matrix.macs": attr_sum("svm.kernel_matrix", "macs"),
        "svm.solver_self_s": float(sum(s["dur"] - child_time[s["id"]] for s in solves)),
        "svm.gram_distinct_ratio": len(set(grams)) / len(grams) if grams else 0.0,
        "svm.predict.s": total("svm.predict"),
    }
