"""Classification metrics and the paired sign rank test.

The headline score is the mean over classes of the per class precision
of the predictions: for each class, the fraction of the examples
predicted as that class that really belong to it, with classes that are
never predicted scoring zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError

__all__ = [
    "map_score",
    "map_score_codes",
    "confusion_codes",
    "confusion_counts",
    "column_normalize",
    "WilcoxonResult",
    "wilcoxon_signed_rank",
]


def _class_index(classes) -> dict:
    index = {name: k for k, name in enumerate(classes)}
    if len(index) != len(classes):
        raise ConfigError("classes must be distinct")
    return index


def _paired_names(y_true, y_pred) -> tuple[list[str], list[str]]:
    y_true = [str(v) for v in y_true]
    y_pred = [str(v) for v in y_pred]
    if len(y_true) != len(y_pred):
        raise ConfigError("y_true and y_pred must be 1-D and of equal length")
    return y_true, y_pred


def map_score(y_true, y_pred, *, classes: list[str] | None = None) -> float:
    """Mean over classes of per predicted class precision.

    classes fixes the set (and count) of classes to average over; by
    default it is the sorted union of true and predicted labels.  A
    label outside classes counts for no class.
    """
    y_true, y_pred = _paired_names(y_true, y_pred)
    if not y_true:
        raise ConfigError("empty label vectors")
    if classes is None:
        classes = sorted(set(y_true) | set(y_pred))
    index = _class_index(classes)
    n = len(classes)
    true = np.asarray([index.get(v, n) for v in y_true], dtype=np.intp)
    pred = np.asarray([index.get(v, n) for v in y_pred], dtype=np.intp)
    return map_score_codes(true, pred, n)


def map_score_codes(true: np.ndarray, pred: np.ndarray, n_classes: int) -> float | np.ndarray:
    """map_score on class indices: true and pred hold integers in
    0 .. n_classes, where n_classes stands for a label outside the class
    list.  The per class precisions are added in class order.

    pred may also be 2-D, one row of predictions of true per candidate;
    the result is then the array of each row's score.
    """
    rows = np.atleast_2d(pred)
    bins = n_classes + 1
    # one bin per (row, class), plus each row's bin for outside labels
    flat = (rows + bins * np.arange(rows.shape[0])[:, None]).ravel()
    size = bins * rows.shape[0]
    predicted = np.bincount(flat, minlength=size).reshape(-1, bins)[:, :n_classes]
    hits = np.bincount(flat[(rows == true).ravel()], minlength=size)
    hits = hits.reshape(-1, bins)[:, :n_classes]
    scores = []
    for hit_row, predicted_row in zip(hits.tolist(), predicted.tolist()):
        total = 0.0
        for n_hit, n_predicted in zip(hit_row, predicted_row):
            if n_predicted:
                total += float(n_hit) / n_predicted
        scores.append(total / n_classes)
    return scores[0] if np.ndim(pred) == 1 else np.asarray(scores)


def confusion_codes(true: np.ndarray, pred: np.ndarray, n_classes: int) -> np.ndarray:
    """Integer confusion matrix of class indices in 0 .. n_classes - 1,
    true classes as rows and predictions as columns."""
    flat = np.asarray(true, dtype=np.intp) * n_classes + np.asarray(pred, dtype=np.intp)
    return np.bincount(flat, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def confusion_counts(y_true, y_pred, classes: list[str]) -> np.ndarray:
    """Integer confusion matrix with true classes as rows, predictions as
    columns, both in the order of `classes`.  A label outside classes,
    or a class listed twice, is refused with ConfigError."""
    y_true, y_pred = _paired_names(y_true, y_pred)
    index = _class_index(classes)
    unknown = sorted(set(y_true + y_pred) - index.keys())
    if unknown:
        raise ConfigError(f"labels outside the class list: {unknown}")
    true = np.asarray([index[v] for v in y_true], dtype=np.intp)
    pred = np.asarray([index[v] for v in y_pred], dtype=np.intp)
    return confusion_codes(true, pred, len(classes))


def column_normalize(counts: np.ndarray) -> np.ndarray:
    """Divide each column by its sum; all zero columns stay all zero."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ConfigError("expected a 2-D count matrix")
    sums = counts.sum(axis=0)
    safe = np.where(sums > 0, sums, 1.0)
    out = counts / safe
    out[:, sums == 0] = 0.0
    return out


# ---------------------------------------------------------------------------
# Wilcoxon signed rank test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WilcoxonResult:
    """statistic: min(W+, W-) over nonzero differences; p_value two sided;
    n_effective: pairs remaining after zero differences are dropped;
    degenerate: no nonzero differences at all."""

    statistic: float
    p_value: float
    n_effective: int
    degenerate: bool = False


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the average of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_p(ranks: np.ndarray, w_obs: float) -> float:
    """P(min(W+, W-) <= w_obs) by full enumeration of sign assignments."""
    n = ranks.size
    patterns = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    w_plus = patterns @ ranks
    w_min = np.minimum(w_plus, ranks.sum() - w_plus)
    return float(np.count_nonzero(w_min <= w_obs + 1e-12)) / (1 << n)


def _approx_p(ranks: np.ndarray, w_obs: float) -> float:
    """Normal approximation with tie and continuity corrections."""
    n = ranks.size
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(counts.astype(np.float64) ** 3 - counts)) / 48.0
    if var <= 0:
        return 1.0
    z = (w_obs - mean + 0.5) / math.sqrt(var)
    p = 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0))
    return min(max(p, 0.0), 1.0)


def wilcoxon_signed_rank(a, b, *, method: str = "auto") -> WilcoxonResult:
    """Two sided paired sign rank test on equal length score vectors.

    Zero differences are dropped.  With method="auto" the p value is
    exact (full enumeration of the 2^n equally likely sign patterns)
    for n <= 12 effective pairs and uses the tie corrected, continuity
    corrected normal approximation beyond; "exact" and "approx" force
    the respective path.  All differences zero is reported as a
    degenerate result with p = 1 rather than an error.
    """
    if method not in ("auto", "exact", "approx"):
        raise ConfigError(f"unknown method {method!r}")
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ConfigError(f"length mismatch: {a.size} vs {b.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ConfigError("scores must be finite")
    diff = a - b
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0, degenerate=True)
    if n < 5:
        raise ProtocolError(
            f"only {n} nonzero differences; need at least 5 for the test"
        )
    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    w = min(w_plus, w_minus)
    if method == "exact" or (method == "auto" and n <= 12):
        p = _exact_p(ranks, w)
    else:
        p = _approx_p(ranks, w)
    return WilcoxonResult(w, p, n)
