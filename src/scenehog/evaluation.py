"""Repeated random split evaluation with per split model selection.

Every split draws a stratified train/test partition from a seed, fits
the standardizer on the training half only, selects hyperparameters by
resampled validation inside the training half, retrains on the whole
training half and scores the untouched test half.  Scores are averaged
over splits and the per split confusion matrices are summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svm
from .errors import ConfigError, DataError, FormatError, ProtocolError
from .metrics import column_normalize, confusion_codes, map_score_codes
from .util import atomic_write_text, class_codes, rng_from, split_by_class

__all__ = [
    "EvalReport",
    "stratified_split",
    "run_protocol",
    "check_class_names",
    "write_report",
    "read_report",
]


def _train_quota(counts: np.ndarray, total: int) -> np.ndarray:
    """Largest remainder apportionment of `total` training slots."""
    quota = total * counts / counts.sum()
    base = np.floor(quota).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        # stable order: biggest fractional part first, earlier class on ties
        order = np.lexsort((np.arange(counts.size), -(quota - base)))
        base[order[:short]] += 1
    return base


def stratified_split(
    labels: np.ndarray,
    *,
    seed: int,
    split_index: int,
    train_frac: float = 0.8,
    fixed_train_count: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One seeded stratified train/test partition (index arrays).

    With train_frac, each class contributes floor(count * (1 - frac))
    test examples and the rest train.  With fixed_train_count the
    training slots are apportioned to classes proportionally (largest
    remainder).  Every class must land at least one example in each
    half, otherwise the protocol is refused.
    """
    classes, codes = class_codes(labels)
    counts = np.bincount(codes, minlength=len(classes))
    if fixed_train_count is not None:
        if not 0 < fixed_train_count < codes.size:
            raise ProtocolError(
                f"fixed_train_count {fixed_train_count} out of range for "
                f"{codes.size} examples"
            )
        n_train = _train_quota(counts, fixed_train_count)
    else:
        if not 0.0 < train_frac < 1.0:
            raise ConfigError(f"train_frac must be in (0, 1), got {train_frac}")
        # guard the floor against float error: 10 * (1 - 0.8) < 2 in doubles
        n_test = np.floor(counts * (1.0 - train_frac) + 1e-9).astype(np.int64)
        n_train = counts - n_test
    bad = [
        f"{classes[k]} ({counts[k]} examples, {n_train[k]} to train)"
        for k in range(len(classes))
        if n_train[k] < 1 or n_train[k] >= counts[k]
    ]
    if bad:
        raise ProtocolError(
            "classes too small to appear in both halves: " + ", ".join(bad)
        )
    return split_by_class(codes, n_train, rng_from(seed, split_index))


@dataclass
class EvalReport:
    """Aggregated outcome of the repeated split protocol.

    map_mean / map_std    mean and population deviation of per split scores
    map_from_confusion    mean diagonal of the column normalized summed
                          confusion matrix (a second aggregate of the same
                          runs, not the same quantity as map_mean)
    confusion_sum         integer counts, rows true / columns predicted
    chosen_c, chosen_sigma  per split model selection outcome (sigma is
                          NaN for the linear kernel)
    """

    classes: list[str]
    seed: int
    n_splits: int
    n_train: int
    n_test: int
    kernel_kind: str
    per_split_map: np.ndarray
    confusion_sum: np.ndarray
    chosen_c: np.ndarray
    chosen_sigma: np.ndarray
    params: dict[str, str] = field(default_factory=dict)

    @property
    def map_mean(self) -> float:
        return float(np.mean(self.per_split_map))

    @property
    def map_std(self) -> float:
        return float(np.std(self.per_split_map))

    @property
    def map_from_confusion(self) -> float:
        return float(np.mean(np.diag(column_normalize(self.confusion_sum))))


def run_protocol(
    x: np.ndarray,
    labels,
    *,
    n_splits: int = 20,
    seed: int = 0,
    train_frac: float = 0.8,
    fixed_train_count: int | None = None,
    kernel_kind: str = "linear",
    c_grid=None,
    sigma_grid=None,
    n_resample: int = 5,
    tol: float = 1e-3,
    params: dict[str, str] | None = None,
) -> EvalReport:
    """Run n_splits independent evaluations and aggregate them.

    Split i is fully determined by (seed, i).  Splits run one after another
    in the calling thread, since the SMO step loop holds the GIL.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray([str(v) for v in labels])
    if x.shape[0] != labels.size:
        raise ConfigError(f"{x.shape[0]} feature rows but {labels.size} labels")
    if not np.all(np.isfinite(x)):
        raise DataError("features contain NaN or infinite values")
    if x.shape[1] == 0:
        raise DataError("features have no columns")
    if n_splits < 1:
        raise ConfigError("n_splits must be >= 1")
    classes, codes = class_codes(labels)
    if len(classes) < 2:
        raise ProtocolError("evaluation needs at least two classes")
    n_classes, names = len(classes), np.asarray(classes)

    def job(i: int):
        train_idx, test_idx = stratified_split(
            labels, seed=seed, split_index=i,
            train_frac=train_frac, fixed_train_count=fixed_train_count,
        )
        x_train, train_labels = x[train_idx], labels[train_idx]
        scaler = svm.fit_standardizer(x_train)
        x_train = scaler.apply(x_train)
        c, sigma, _ = svm.model_select(
            x_train, train_labels, kernel_kind, c_grid=c_grid, sigma_grid=sigma_grid,
            n_resample=n_resample, seed=int(rng_from(seed, i, 1).integers(2**63)), tol=tol,
        )
        spec = svm.KernelSpec("linear") if sigma is None else svm.KernelSpec("gaussian", sigma)
        model = svm.train_one_vs_one(
            x_train, train_labels, c, spec, classes=classes, standardizer=scaler, tol=tol
        )
        del x_train  # the model holds its own copy of its support rows
        # predict returns class names; they are sorted, so one search gives their indices
        pred = np.searchsorted(names, svm.predict(model, x[test_idx]))
        true = codes[test_idx]
        return (
            map_score_codes(true, pred, n_classes),
            confusion_codes(true, pred, n_classes),
            c, np.nan if sigma is None else sigma, train_idx.size, test_idx.size,
        )

    maps, confusions, chosen_c, chosen_sigma, n_train, n_test = zip(*map(job, range(n_splits)))
    return EvalReport(
        classes=classes,
        seed=seed,
        n_splits=n_splits,
        n_train=n_train[0],
        n_test=n_test[0],
        kernel_kind=kernel_kind,
        per_split_map=np.asarray(maps),
        confusion_sum=np.sum(confusions, axis=0),
        chosen_c=np.asarray(chosen_c),
        chosen_sigma=np.asarray(chosen_sigma),
        params=dict(params or {}),
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

_REPORT_FORMAT = "scenehog-report"
_REPORT_VERSION = 1


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def check_class_names(names) -> None:
    """Refuse (DataError) names that a report's comma separated, stripped lines cannot hold."""
    bad = sorted(n for n in names if "," in n or n != n.strip() or len(n.splitlines()) > 1)
    if bad:
        raise DataError(f"class names {bad} hold a comma or a line break or outer whitespace")


def write_report(path: str | Path, report: EvalReport) -> None:
    """Write a report as a key=value header plus CSV blocks.

    The rendering is deterministic, so reports from identical runs are
    byte identical.
    """
    check_class_names(report.classes)
    lines = [
        f"format={_REPORT_FORMAT}",
        f"version={_REPORT_VERSION}",
        f"seed={report.seed}",
        f"n_splits={report.n_splits}",
        f"n_train={report.n_train}",
        f"n_test={report.n_test}",
        f"kernel={report.kernel_kind}",
        "classes=" + ",".join(report.classes),
        f"map_mean={_fmt(report.map_mean)}",
        f"map_std={_fmt(report.map_std)}",
        f"map_from_confusion={_fmt(report.map_from_confusion)}",
    ]
    for key in sorted(report.params):
        lines.append(f"param.{key}={report.params[key]}")
    lines.append("[per_split]")
    lines.append("split,map,c,sigma")
    for i in range(report.n_splits):
        lines.append(
            f"{i},{_fmt(report.per_split_map[i])},{_fmt(report.chosen_c[i])},"
            f"{_fmt(report.chosen_sigma[i])}"
        )
    lines.append("[confusion_sum]")
    lines.append("true\\pred," + ",".join(report.classes))
    for k, name in enumerate(report.classes):
        row = ",".join(str(int(v)) for v in report.confusion_sum[k])
        lines.append(f"{name},{row}")
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def _parse_cell(path: Path, kind: type, text: str):
    try:
        return kind(text)
    except ValueError:
        raise FormatError(f"{path}: {text!r} is not a valid {kind.__name__}") from None


def read_report(path: str | Path) -> EvalReport:
    path = Path(path)
    header: dict[str, str] = {}
    per_split: list[list[float]] = []
    confusion: list[list[int]] = []
    section = "header"
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "[per_split]":
            section = "per_split"
            continue
        if line == "[confusion_sum]":
            section = "confusion"
            continue
        if section == "header":
            if "=" not in line:
                raise FormatError(f"{path}: bad header line {line!r}")
            key, value = line.split("=", 1)
            header[key] = value
        elif section == "per_split":
            if line.startswith("split,"):
                continue
            cells = line.split(",")
            if len(cells) != 4:
                raise FormatError(f"{path}: per_split row {line!r} needs 4 cells")
            per_split.append([_parse_cell(path, float, v) for v in cells[1:]])
        else:
            if line.startswith("true\\pred"):
                continue
            confusion.append([_parse_cell(path, int, v) for v in line.split(",")[1:]])
    if header.get("format") != _REPORT_FORMAT:
        raise FormatError(f"{path}: not a report file")
    if header.get("version") != str(_REPORT_VERSION):
        raise FormatError(f"{path}: unsupported report version")
    required = ("seed", "n_splits", "n_train", "n_test", "kernel", "classes")
    missing = [k for k in required if k not in header]
    if missing:
        raise FormatError(f"{path}: missing header keys {missing}")
    classes = header["classes"].split(",")
    if any(len(row) != len(classes) for row in confusion) or len(confusion) != len(classes):
        raise FormatError(f"{path}: confusion matrix is not {len(classes)}x{len(classes)}")
    table = np.asarray(per_split, dtype=np.float64).reshape(len(per_split), 3)
    if not np.all(np.isfinite(table[:, :2])):
        raise FormatError(f"{path}: non-finite per_split map or c")
    params = {
        k[len("param."):]: v for k, v in header.items() if k.startswith("param.")
    }
    report = EvalReport(
        classes=classes,
        seed=_parse_cell(path, int, header["seed"]),
        n_splits=_parse_cell(path, int, header["n_splits"]),
        n_train=_parse_cell(path, int, header["n_train"]),
        n_test=_parse_cell(path, int, header["n_test"]),
        kernel_kind=header["kernel"],
        per_split_map=table[:, 0],
        confusion_sum=np.asarray(confusion, dtype=np.int64),
        chosen_c=table[:, 1],
        chosen_sigma=table[:, 2],
        params=params,
    )
    for key in ("n_splits", "n_train", "n_test"):
        if getattr(report, key) < 1:
            raise FormatError(f"{path}: {key} must be at least 1, got {getattr(report, key)}")
    if report.n_splits != report.per_split_map.size:
        raise FormatError(
            f"{path}: header claims {report.n_splits} splits, "
            f"found {report.per_split_map.size}"
        )
    return report
