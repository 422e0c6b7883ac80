"""Kernel support vector machines trained by sequential minimal optimisation.

Everything here is deterministic: training visits working pairs chosen
by the maximal violating pair rule with ties resolved by lowest index,
so the same inputs always give the same model.  The solver keeps the
violation vector up to date from the two kernel rows of each step
instead of recomputing it.  Small problems (at most SMALL_N rows, such
as the few-example class pairs of model selection) run the step loop on
Python lists, where a step costs less than the NumPy call overhead of
the array loop used for larger ones; both loops share the pair update
and evaluate the same floating point operations, so a model does not
depend on which loop trained it.  A solve that stops short of its KKT
tolerance raises TrainingError.  Multiclass problems are handled one
against one with majority voting.  Model selection computes each pair's
training Gram and its kernel block against the validation half once
per (half, sigma) and reuses both across the whole C grid.

Every solve also returns a certificate of what it compared against C:
the largest alpha it held, the smallest value it compared above atol,
and whether a C-dependent bound (a clip at C, C + a_j - a_i or
a_i + a_j - C, or the snap to C) was taken.  When no bound was taken
and every alpha stayed below C - atol, the solve never saw C except
through comparisons whose outcome the certificate fixes, so the same
problem at a larger C follows the same steps to the same bits (the
regularisation path is flat in C while no multiplier sits at the box).
train_binary(prior=) checks that at the new C and then returns the
prior's solution without solving; model selection walks each pair's C
values in ascending order to use it.

The dual problem solved for each binary machine is

    max  sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)
    s.t. 0 <= alpha_i <= C,   sum_i alpha_i y_i = 0.
"""

from __future__ import annotations

import math
import struct
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FormatError, TrainingError
from .metrics import map_score
from .util import atomic_write_bytes, rng_from, split_by_class

__all__ = [
    "KernelSpec",
    "Standardizer",
    "BinarySvm",
    "SvmModel",
    "default_c_grid",
    "default_sigma_grid",
    "kernel_matrix",
    "fit_standardizer",
    "train_binary",
    "train_one_vs_one",
    "predict",
    "model_select",
    "save_model",
    "load_model",
]

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and its parameter.

    kind   "linear" (dot product) or "gaussian"
           (exp(-||x - z||^2 / (2 sigma^2)))
    sigma  bandwidth, required positive for the gaussian kernel
    """

    kind: str = "linear"
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "gaussian"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if not math.isfinite(self.sigma):
            raise ConfigError(f"kernel sigma must be finite, got {self.sigma}")
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ConfigError("gaussian kernel needs sigma > 0")


def kernel_matrix(x: np.ndarray, z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Dense kernel matrix K[i, j] = k(x_i, z_j)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if x.shape[1] != z.shape[1]:
        raise ConfigError(f"dimension mismatch: {x.shape[1]} vs {z.shape[1]}")
    if spec.kind == "linear":
        return x @ z.T
    sq = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(z * z, axis=1)[None, :]
        - 2.0 * (x @ z.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * spec.sigma**2))


# ---------------------------------------------------------------------------
# Standardisation
# ---------------------------------------------------------------------------


@dataclass
class Standardizer:
    """Per feature affine map to zero mean and unit variance.

    Uses the population standard deviation; features whose deviation
    falls below STD_FLOOR divide by 1 instead so constant columns pass
    through centred but unscaled.
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.mean.size:
            raise ConfigError(
                f"standardizer fitted on {self.mean.size} features, got {x.shape[1]}"
            )
        return (x - self.mean) / self.std


def fit_standardizer(x: np.ndarray) -> Standardizer:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] < 1:
        raise TrainingError("cannot standardize an empty matrix")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < STD_FLOOR, 1.0, std)
    return Standardizer(mean, std)


# ---------------------------------------------------------------------------
# Binary machine
# ---------------------------------------------------------------------------


@dataclass
class BinarySvm:
    """One trained two class machine.

    support_vectors  (n_sv, dim) rows with nonzero dual weight
    alpha_signed     alpha_i * y_i for each support vector
    bias             intercept; decision f(x) = sum alpha_signed K(sv, x) + bias
    support          row indices of the support vectors in the training set;
                     None when unknown, as for a machine read from a model file
    solve            the record of the SMO solve behind the machine, which
                     train_binary(prior=) reads; None when unknown
    """

    support_vectors: np.ndarray
    alpha_signed: np.ndarray
    bias: float
    kernel: KernelSpec
    c: float
    support: np.ndarray | None = None
    solve: _Solve | None = field(default=None, repr=False, compare=False)

    def decision(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.alpha_signed.size == 0:
            return np.full(x.shape[0], self.bias)
        k = kernel_matrix(self.support_vectors, x, self.kernel)
        return self.alpha_signed @ k + self.bias


# Problems with at most SMALL_N rows run the step loop on Python lists,
# larger ones on NumPy arrays.  Measured cost per step of whole solves
# (µs, 2-core x86, Python 3.11, numpy 2.4, one BLAS thread), list vs
# NumPy: 5.3 vs 13.5 at n = 4, 14.1 vs 16.8 at n = 48, 16.8 vs 16.7 at
# n = 64, 25.2 vs 15.2 at n = 128.  CHANGES.md has the whole table.
SMALL_N = 48


def _atol(c: float) -> float:
    """Distance within which a multiplier counts as sitting on a bound."""
    return 1e-12 * max(c, 1.0)


class _Solve(NamedTuple):
    """What an SMO solve ran on, and its certificate (see _smo).

    gram and rows are weak references to the kernel matrix and the
    feature rows, so a machine does not keep them alive; labels holds
    the bytes of y.
    """

    gram: weakref.ref
    rows: weakref.ref
    labels: bytes
    tol: float
    max_iter: int
    iterations: int
    amax: float
    amin: float
    bound: bool

    def holds_at(self, c_prior: float, c: float) -> bool:
        """Whether every comparison the solve made at c_prior against C,
        C - atol or atol has the same outcome at c.

        No C-dependent bound was taken, every alpha stayed below
        C - atol at both costs, and atol either did not change or grew
        while staying below every value compared above it.  A value
        compared at or below a larger atol may lie above a smaller one,
        and the certificate does not record those values, so a solve is
        not carried to a cost whose atol is smaller.
        """
        atol_prior, atol = _atol(c_prior), _atol(c)
        return (
            not self.bound
            and self.amax < c_prior - atol_prior
            and self.amax < c - atol
            and (atol == atol_prior or atol_prior < atol < self.amin)
        )


def _not_converged(tol: float, gap: float, why: str) -> TrainingError:
    return TrainingError(f"solver did not reach tolerance {tol}: {why} (gap m - M = {gap:.6g})")


def _pair_step(
    y_i: float, y_j: float, a_i: float, a_j: float, f_i: float, f_j: float,
    k_ii: float, k_jj: float, k_ij: float, c: float, tol: float, atol: float,
    cert: list,
) -> tuple[float, float, float, float]:
    """(delta_i, delta_j, new alpha_i, new alpha_j) of one SMO step on
    the working pair (i, j).

    Clips alpha_j to the segment the box and the equality constraint
    leave it, and snaps values within atol of a bound onto the bound.
    Raises TrainingError when the step rounds to nothing: the caller
    only steps while m - M = f_i - f_j > tol, so a pinned pair leaves
    the solve short of tolerance.  Records the step in the certificate
    cert = [amax, amin, bound] of _smo.
    """
    sign = y_i * y_j
    # lo_c and hi_c are the C-dependent ends of the segment
    if sign < 0:
        lo = max(0.0, a_j - a_i)
        hi = hi_c = min(c, c + a_j - a_i)
        lo_c = -math.inf
    else:
        lo_c = a_i + a_j - c
        lo = max(0.0, lo_c)
        hi = min(c, a_i + a_j)
        hi_c = c
    eta = max(k_ii + k_jj - 2.0 * k_ij, 1e-12)
    # -f is the bias-free prediction error, so this is the classic
    # Platt step for the second variable.
    new_j = a_j + y_j * (f_j - f_i) / eta
    new_j = min(max(new_j, lo), hi)
    bound = lo_c >= new_j or hi_c <= new_j
    if new_j < atol:
        new_j = 0.0
    elif new_j > c - atol:
        new_j = c
        bound = True
    elif new_j < cert[1]:
        cert[1] = new_j
    delta_j = new_j - a_j
    if delta_j == 0.0:
        raise _not_converged(tol, f_i - f_j, "the working pair is pinned at the box")
    delta_i = -sign * delta_j
    new_i, new_j = a_i + delta_i, a_j + delta_j
    for a_t in (new_i, new_j):
        if a_t > cert[0]:
            cert[0] = a_t
        if atol < a_t < cert[1]:
            cert[1] = a_t
    if bound:
        cert[2] = True
    return delta_i, delta_j, new_i, new_j


def _bias(f: list, up: list, low: list) -> float:
    """Bias from the free support vectors (free to move both ways);
    midpoint of the violation bracket when every multiplier sits at a
    box bound.

    The mean of the free values equals np.mean's bit for bit: below 8
    values numpy adds them left to right onto 0.0, which the loop
    repeats (0.0 + v also turns a lone -0.0 into 0.0, as np.mean does);
    from 8 values on numpy sums pairwise, so np.mean itself runs.
    """
    free = [f_t for f_t, u, l in zip(f, up, low) if u and l]
    if len(free) >= 8:
        return float(np.mean(free))
    if free:
        total = 0.0
        for f_t in free:
            total += f_t
        return total / len(free)
    f, up, low = np.asarray(f, dtype=np.float64), np.asarray(up, bool), np.asarray(low, bool)
    hi = f[up].max() if up.any() else 0.0
    lo = f[low].min() if low.any() else 0.0
    return float((hi + lo) / 2.0)


def _smo(
    k: np.ndarray, y: np.ndarray, c: float, tol: float, max_iter: int
) -> tuple[np.ndarray, float, int, tuple[float, float, bool]]:
    """Core solver on a precomputed kernel matrix.

    Works on the violation vector f = -y g, where g = Q alpha - 1 is the
    dual gradient (Q = yy' * K).  Each step updates the pair (i, j)
    maximising the KKT violation m - M, where m = max f over indices
    free to increase and M = min f over indices free to decrease (lowest
    index on ties), and stops when m - M <= tol.  Because y is +-1, the
    gradient update of a step is exactly f -= (y_i d_i) K[i] + (y_j d_j) K[j],
    so f is maintained rather than recomputed, and only the mask entries
    of i and j are rewritten.  A solve that runs out of iterations or
    whose working pair cannot move raises TrainingError with the gap.

    Two loops share _pair_step and the bias tail.  Up to SMALL_N rows,
    f, alpha, the masks and the kernel rows are Python lists, the
    arg-extremes are forward scans with strict comparisons (lowest index
    on ties) and f is updated as f[t] - (a K[i, t] + b K[j, t]); above
    it they are NumPy arrays.  Both evaluate the same IEEE operations in
    the same order, so they return the same bits.

    Returns (alpha, bias, iterations, certificate).  The certificate
    (amax, amin, bound) covers every comparison the solve makes against
    C, C - atol or atol, atol = 1e-12 max(C, 1); everything else it
    computes is independent of C.  amax is the largest alpha it held,
    starting from 0.0, which also covers the opening test 0 < C - atol.
    amin is the smallest value it compared above atol: a clamped alpha_j
    that was not snapped, or an alpha above atol in a mask update (inf
    if none).  bound says whether a step clipped alpha_j at a C-dependent
    end of its segment (C, C + a_j - a_i or a_i + a_j - C) or snapped it
    to C.  _Solve.holds_at turns these into the test for reusing the
    solve at another C.
    """
    n = y.size
    atol = _atol(c)
    top = c - atol
    cert = [0.0, math.inf, False]
    ys = y.tolist()
    pos = [v > 0 for v in ys]
    alpha = [0.0] * n
    f = [float(v) for v in ys]
    # at alpha = 0 an index can only move up, off its lower bound
    room = 0.0 < top
    up = [p and room for p in pos]
    low = [not p and room for p in pos]
    it = 0

    if n <= SMALL_N:
        rows = k.tolist()
        span = range(n)
        while True:
            i = j = -1
            f_i, f_j = -np.inf, np.inf
            for t in span:
                f_t = f[t]
                if up[t] and f_t > f_i:
                    i, f_i = t, f_t
                if low[t] and f_t < f_j:
                    j, f_j = t, f_t
            if i < 0 or j < 0 or f_i - f_j <= tol:
                break
            if it >= max_iter:
                raise _not_converged(tol, f_i - f_j, f"{max_iter} iterations")
            it += 1
            k_i, k_j = rows[i], rows[j]
            d_i, d_j, alpha[i], alpha[j] = _pair_step(
                ys[i], ys[j], alpha[i], alpha[j], f_i, f_j,
                k_i[i], k_j[j], k_i[j], c, tol, atol, cert,
            )
            a, b = ys[i] * d_i, ys[j] * d_j
            f = [f_t - (a * k_it + b * k_jt) for f_t, k_it, k_jt in zip(f, k_i, k_j)]
            for t in (i, j):
                a_t = alpha[t]
                up[t] = a_t < top if pos[t] else a_t > atol
                low[t] = a_t > atol if pos[t] else a_t < top
    else:
        alpha, f, up, low = (np.array(v) for v in (alpha, f, up, low))
        while True:
            i = int(np.where(up, f, -np.inf).argmax())
            j = int(np.where(low, f, np.inf).argmin())
            # a masked arg-extreme falls outside its mask only when the mask is empty
            if not (up[i] and low[j]):
                break
            f_i, f_j = float(f[i]), float(f[j])
            if f_i - f_j <= tol:
                break
            if it >= max_iter:
                raise _not_converged(tol, f_i - f_j, f"{max_iter} iterations")
            it += 1
            d_i, d_j, alpha[i], alpha[j] = _pair_step(
                ys[i], ys[j], float(alpha[i]), float(alpha[j]), f_i, f_j,
                float(k[i, i]), float(k[j, j]), float(k[i, j]), c, tol, atol, cert,
            )
            f -= ys[i] * d_i * k[i] + ys[j] * d_j * k[j]
            for t in (i, j):
                a_t = alpha[t]
                up[t] = a_t < top if pos[t] else a_t > atol
                low[t] = a_t > atol if pos[t] else a_t < top
        f, up, low = f.tolist(), up.tolist(), low.tolist()

    return np.asarray(alpha, dtype=np.float64), _bias(f, up, low), it, tuple(cert)


def train_binary(
    x: np.ndarray,
    y: np.ndarray,
    c: float,
    kernel: KernelSpec,
    *,
    tol: float = 1e-3,
    max_iter: int = 0,
    gram: np.ndarray | None = None,
    prior: BinarySvm | None = None,
) -> BinarySvm:
    """Train one soft margin machine on labels in {-1, +1}.

    The kernel matrix is computed once and held in memory; a caller
    that trains several machines on the same rows passes it as gram,
    which must equal kernel_matrix(x, x, kernel).  max_iter of 0 picks
    a generous default proportional to the training size.

    prior is a machine this function trained at another C on the same,
    unmodified gram and x objects, with the same labels, kernel, tol and
    max_iter.  Those arguments were checked when the prior was solved,
    so only c is checked again.  If c is valid and the prior's solve
    certificate holds at it (_Solve.holds_at: no
    C-dependent bound taken, every alpha below C - atol at both costs,
    and atol unchanged or still below every value compared above it),
    the solve at c would take the same steps to the same bits, so the
    returned machine shares the prior's alpha, bias and support vectors
    (made read-only) with c as its cost, and _smo does not run.  Any
    other prior is ignored and the machine is solved afresh.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    k = None if gram is None else np.asarray(gram, dtype=np.float64)
    labels = y.tobytes()
    if max_iter <= 0:
        max_iter = max(100_000, 1_000 * y.size)
    # a prior solved afresh on these very gram and x objects and label
    # bytes passed the checks below then, so only c is left to check
    solve = None if prior is None else prior.solve
    if (
        solve is not None
        and k is not None
        and solve.gram() is k
        and solve.rows() is x
        and solve.labels == labels
        and solve.tol == tol
        and solve.max_iter == max_iter
        and prior.kernel == kernel
        and 0.0 < c < math.inf
        and solve.holds_at(prior.c, c)
    ):
        for shared in (prior.support_vectors, prior.alpha_signed, prior.support):
            shared.flags.writeable = False
        return BinarySvm(
            prior.support_vectors, prior.alpha_signed, prior.bias, kernel, c,
            prior.support, solve,
        )

    if x.shape[0] != y.size:
        raise ConfigError(f"{x.shape[0]} rows but {y.size} labels")
    n_pos = np.count_nonzero(y == 1.0)
    n_neg = np.count_nonzero(y == -1.0)
    if n_pos + n_neg != y.size:
        raise TrainingError("labels must be -1 or +1")
    if n_pos == 0 or n_neg == 0:
        raise TrainingError("training set contains a single class")
    if not 0.0 < c < math.inf:
        raise ConfigError(f"C must be positive and finite, got {c}")
    if k is None:
        k = kernel_matrix(x, x, kernel)
    elif k.shape != (y.size, y.size):
        raise ConfigError(f"gram has shape {k.shape}, expected {(y.size, y.size)}")

    alpha, bias, it, cert = _smo(k, y, c, tol, max_iter)
    sv = alpha > _atol(c)
    return BinarySvm(
        support_vectors=x[sv],
        alpha_signed=(alpha * y)[sv],
        bias=bias,
        kernel=kernel,
        c=c,
        support=np.flatnonzero(sv),
        solve=_Solve(weakref.ref(k), weakref.ref(x), labels, tol, max_iter, it, *cert),
    )


# ---------------------------------------------------------------------------
# One against one multiclass
# ---------------------------------------------------------------------------


@dataclass
class SvmModel:
    """A one against one ensemble over an ordered class list.

    machines[(i, j)] with i < j separates classes[i] (+1) from
    classes[j] (-1).  The standardizer that produced the training
    features travels with the model so persisted models are self
    contained.
    """

    classes: list[str]
    machines: dict[tuple[int, int], BinarySvm]
    standardizer: Standardizer | None = None
    c: float = 1.0
    kernel: KernelSpec = field(default_factory=KernelSpec)


def train_one_vs_one(
    x: np.ndarray,
    labels: np.ndarray,
    c: float,
    kernel: KernelSpec,
    *,
    classes: list[str] | None = None,
    standardizer: Standardizer | None = None,
    tol: float = 1e-3,
) -> SvmModel:
    """Train all class pair machines on already standardized features."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray([str(v) for v in labels])
    if classes is None:
        classes = sorted(set(labels))
    if len(classes) < 2:
        raise TrainingError("training set contains a single class")
    machines = {}
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            take_a = labels == classes[a]
            take_b = labels == classes[b]
            if not take_a.any() or not take_b.any():
                raise TrainingError(
                    f"no examples for pair ({classes[a]}, {classes[b]})"
                )
            rows = take_a | take_b
            y = np.where(take_a[rows], 1.0, -1.0)
            machines[(a, b)] = train_binary(x[rows], y, c, kernel, tol=tol)
    return SvmModel(list(classes), machines, standardizer, c, kernel)


def _vote(values: np.ndarray, pairs: list[tuple[int, int]], n_classes: int) -> np.ndarray:
    """Winning class index for each column of values, one row per pair.

    Machine (a, b) votes for a where its decision value is >= 0 and for
    b otherwise.  The class with most votes wins; vote ties are broken
    by the larger sum of |decision| over the machines involving the
    class, added in the order of pairs, and any remaining tie by the
    lower class index.
    """
    n = values.shape[1]
    ends = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    cols = np.arange(n)
    # flat (class, column) bins; bincount adds in input order, so each
    # bin's weights are summed in the order of pairs
    winner = np.where(values >= 0, ends[:, :1], ends[:, 1:])
    votes = np.bincount((winner * n + cols).ravel(), minlength=n_classes * n)
    bins = ends.reshape(-1, 1) * n + cols  # rows a0, b0, a1, b1, ...
    weight = np.bincount(
        bins.ravel(), weights=np.repeat(np.abs(values), 2, axis=0).ravel(),
        minlength=n_classes * n,
    )
    votes, weight = votes.reshape(n_classes, n), weight.reshape(n_classes, n)
    heavy = np.where(votes == votes.max(axis=0), weight, -1.0)
    return (heavy == heavy.max(axis=0)).argmax(axis=0)


def predict(model: SvmModel, x: np.ndarray, *, standardized: bool = False) -> np.ndarray:
    """Predicted class names for the rows of x.

    Each pairwise machine votes for the class favoured by the sign of
    its decision value (ties at exactly zero go to the lower indexed
    class).  The class with most votes wins; vote ties are broken by
    the larger sum of |decision| over the machines involving the class,
    and any remaining tie by class order.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not standardized and model.standardizer is not None:
        x = model.standardizer.apply(x)
    pairs = list(model.machines)
    values = np.asarray([model.machines[p].decision(x) for p in pairs], dtype=np.float64)
    winners = _vote(values.reshape(len(pairs), x.shape[0]), pairs, len(model.classes))
    return np.asarray([model.classes[k] for k in winners])


# ---------------------------------------------------------------------------
# Model selection
# ---------------------------------------------------------------------------


def default_c_grid() -> np.ndarray:
    """Ten cost values spaced logarithmically from 1e-3 to 1e2 inclusive."""
    return 10.0 ** np.linspace(-3.0, 2.0, 10)


def default_sigma_grid() -> tuple[float, ...]:
    return (1.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def model_select(
    x: np.ndarray,
    labels: np.ndarray,
    kernel_kind: str = "linear",
    *,
    c_grid: np.ndarray | None = None,
    sigma_grid: tuple[float, ...] | None = None,
    n_resample: int = 5,
    seed: int = 0,
    tol: float = 1e-3,
) -> tuple[float, float | None, float]:
    """Pick (C, sigma) by averaged validation score over random halves.

    The training set is split n_resample times into equal stratified
    learning and validation halves (the same splits are reused for
    every candidate).  Each candidate trains one against one machines
    on the learning half and is scored by mean average precision on the
    validation half; the candidate with the best average wins.  Ties go
    to the smaller C, then the smaller sigma.  For the linear kernel the
    sigma grid is ignored.  Every machine trains to the KKT tolerance
    tol.  Returns (c, sigma_or_None, best_score).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray([str(v) for v in labels])
    if c_grid is None:
        c_grid = default_c_grid()
    if sigma_grid is None:
        sigma_grid = default_sigma_grid()
    if n_resample < 1:
        raise ConfigError("n_resample must be >= 1")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise TrainingError("model selection needs at least two classes")

    c_values = [float(c) for c in c_grid]
    if kernel_kind == "linear":
        sigmas = [None]
    elif kernel_kind == "gaussian":
        sigmas = [float(s) for s in sigma_grid]
    else:
        raise ConfigError(f"unknown kernel kind {kernel_kind!r}")
    # (C index, sigma index), in the order candidates are preferred on ties
    candidates = sorted(
        ((ci, si) for ci in range(len(c_values)) for si in range(len(sigmas))),
        key=lambda cs: (c_values[cs[0]], sigmas[cs[1]] or 0.0),
    )

    # equal halves per class; an odd count leaves the extra example, and a
    # single example class its only one, in the learning half
    learn_counts = [(int(np.sum(labels == name)) + 1) // 2 for name in classes]
    halves = [
        split_by_class(labels, learn_counts, rng_from(seed, r)) for r in range(n_resample)
    ]
    # validation halves may be empty when every class has one example
    halves = [(le, va) for le, va in halves if va.size > 0]
    if not halves:
        ci, si = candidates[0]
        return c_values[ci], sigmas[si], 0.0

    # Every candidate trains the same pair machines on the same rows, so
    # each pair's training Gram and its kernel block against the
    # validation half are computed once per half and sigma and shared by
    # the whole C grid.  The grid is walked in ascending C so each
    # machine can take over the solve at the C below it (train_binary's
    # prior); a machine that did keeps that solve's decision values.
    c_order = sorted(range(len(c_values)), key=c_values.__getitem__)
    pairs = [(a, b) for a in range(len(classes)) for b in range(a + 1, len(classes))]
    names = np.asarray(classes)
    totals = np.zeros((len(c_values), len(sigmas)))
    for learn_idx, val_idx in halves:
        x_learn, x_val = x[learn_idx], x[val_idx]
        learn_labels, val_labels = labels[learn_idx], labels[val_idx]
        for si, sigma in enumerate(sigmas):
            spec = KernelSpec("linear") if sigma is None else KernelSpec("gaussian", sigma)
            values = np.empty((len(c_values), len(pairs), val_idx.size))
            for p, (a, b) in enumerate(pairs):
                take_a = learn_labels == classes[a]
                rows = take_a | (learn_labels == classes[b])
                y = np.where(take_a[rows], 1.0, -1.0)
                xr = x_learn[rows]
                gram = kernel_matrix(xr, xr, spec)
                cross = kernel_matrix(xr, x_val, spec)
                machine = last = None
                for ci in c_order:
                    prior, machine = machine, train_binary(
                        xr, y, c_values[ci], spec, tol=tol, gram=gram, prior=machine
                    )
                    if prior is not None and machine.alpha_signed is prior.alpha_signed:
                        values[ci, p] = values[last, p]
                    else:
                        values[ci, p] = machine.alpha_signed @ cross[machine.support] + machine.bias
                    last = ci
            for ci in range(len(c_values)):
                pred = names[_vote(values[ci], pairs, len(classes))]
                totals[ci, si] += map_score(val_labels, pred, classes=classes)

    best, best_score = candidates[0], -1.0
    for ci, si in candidates:
        score = float(totals[ci, si] / len(halves))
        if score > best_score:
            best, best_score = (ci, si), score
    return c_values[best[0]], sigmas[best[1]], best_score


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"HSVM"
_MODEL_VERSION = 1
_KERNEL_CODES = {"linear": 0, "gaussian": 1}
_KERNEL_NAMES = {v: k for k, v in _KERNEL_CODES.items()}


def save_model(path: str | Path, model: SvmModel) -> None:
    """Serialize a model; all floats are little endian float64.

    The write goes through a temporary file in the destination
    directory followed by an atomic rename, so a crash cannot leave a
    half written model behind.
    """
    if model.standardizer is None:
        raise ConfigError("only models carrying a standardizer can be saved")
    dim = model.standardizer.mean.size
    parts = [
        _MODEL_MAGIC,
        struct.pack(
            "<IIdd",
            _MODEL_VERSION,
            _KERNEL_CODES[model.kernel.kind],
            model.kernel.sigma,
            model.c,
        ),
        struct.pack("<IQ", len(model.classes), dim),
    ]
    for name in model.classes:
        blob = name.encode("utf-8")
        parts.append(struct.pack("<I", len(blob)) + blob)
    parts.append(np.asarray(model.standardizer.mean, "<f8").tobytes())
    parts.append(np.asarray(model.standardizer.std, "<f8").tobytes())
    parts.append(struct.pack("<I", len(model.machines)))
    for (a, b) in sorted(model.machines):
        svm = model.machines[(a, b)]
        parts.append(
            struct.pack(
                "<IIIddd",
                a,
                b,
                _KERNEL_CODES[svm.kernel.kind],
                svm.kernel.sigma,
                svm.c,
                svm.bias,
            )
        )
        parts.append(struct.pack("<Q", svm.alpha_signed.size))
        parts.append(np.asarray(svm.alpha_signed, "<f8").tobytes())
        parts.append(np.ascontiguousarray(svm.support_vectors, "<f8").tobytes())
    atomic_write_bytes(Path(path), b"".join(parts))


class _Reader:
    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.what}: truncated at byte {self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)


def load_model(path: str | Path) -> SvmModel:
    """Read a model written by save_model; bit exact round trip."""
    path = Path(path)
    r = _Reader(path.read_bytes(), str(path))
    if r.take(4) != _MODEL_MAGIC:
        raise FormatError(f"{path}: not a model file (bad magic)")
    version, kernel_code, sigma, c = r.unpack("<IIdd")
    if version != _MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    if kernel_code not in _KERNEL_NAMES:
        raise FormatError(f"{path}: unknown kernel code {kernel_code}")
    n_classes, dim = r.unpack("<IQ")
    classes = []
    for _ in range(n_classes):
        (n_bytes,) = r.unpack("<I")
        classes.append(r.take(n_bytes).decode("utf-8"))
    standardizer = Standardizer(r.floats(dim), r.floats(dim))
    (n_pairs,) = r.unpack("<I")
    machines = {}
    for _ in range(n_pairs):
        a, b, pair_code, pair_sigma, pair_c, bias = r.unpack("<IIIddd")
        if pair_code not in _KERNEL_NAMES:
            raise FormatError(f"{path}: unknown kernel code {pair_code}")
        (n_sv,) = r.unpack("<Q")
        alpha = r.floats(n_sv)
        sv = r.floats(n_sv * dim).reshape(n_sv, dim)
        spec = KernelSpec(_KERNEL_NAMES[pair_code], pair_sigma)
        machines[(a, b)] = BinarySvm(sv, alpha, bias, spec, pair_c)
    kernel = KernelSpec(_KERNEL_NAMES[kernel_code], sigma)
    return SvmModel(classes, machines, standardizer, c, kernel)
