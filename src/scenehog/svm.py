"""Kernel support vector machines trained by sequential minimal optimisation.

Everything here is deterministic: training visits working pairs chosen
by the maximal violating pair rule with ties resolved by lowest index,
so the same inputs always give the same model.  The solver keeps the
violation vector up to date from the two kernel rows of each step
instead of recomputing it.  Small problems (at most SMALL_N rows, such
as the few-example class pairs of model selection) run the step loop on
Python lists, where a step costs less than the NumPy call overhead of
the array loop used for larger ones, which allocates nothing per step;
both loops share the pair update and evaluate the same floating point
operations, so a model does not depend on which loop trained it.  A
solve that stops short of its KKT tolerance raises TrainingError.
Multiclass problems are handled one against one with majority voting;
each pair's Gram is sliced from one kernel matrix per training set.
Model selection computes the sigma-free base of the learning half's
matrix and of its block against the validation half once per half,
maps both per sigma (kernel_matrix's own map, so the same bits), reuses
them across the whole C grid and scores the grid with one vote per half
and sigma.  A model stores the training rows its machines use once,
and predict scores every machine from one kernel block against them.

Every machine stops at the same rule, m - M <= TOL = 1e-3 (LIBSVM's
default).  train_binary takes a machine's Gram, never its feature
rows, so callers slice each pair's block and copy no pair's rows.
train_binary(prior=) returns a prior machine's solution at a new C
without solving in two cases, each checked against the stopping rule
at that C (Fan, Chen and Lin, JMLR 2005): the alpha that solve
returned as it is (_Solve.holds_at), or, when every alpha it returned
sits on a bound, that alpha scaled to the new C (_scaled), since with
no free alpha the solution is linear in C.  Model selection walks each
pair's C values in ascending order to use them.  A prior is reused on
the key (Gram object, label bytes, kernel), which train_binary tests
before anything else.

The dual problem solved for each binary machine is

    max  sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)
    s.t. 0 <= alpha_i <= C,   sum_i alpha_i y_i = 0.
"""

from __future__ import annotations

import math
import struct
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FormatError, TrainingError
from .metrics import map_score_codes
from .util import atomic_write_bytes, class_codes, rng_from, split_by_class

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
_STD_BLOCK = 256
TOL = 1e-3  # every machine's KKT tolerance: it stops at m - M <= TOL


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and its parameter.

    kind   "linear" (dot product) or "gaussian"
           (exp(-||x - z||^2 / (2 sigma^2)))
    sigma  bandwidth, required positive for the gaussian kernel, with
           2 sigma^2 a positive finite float
    """

    kind: str = "linear"
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "gaussian"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if not math.isfinite(self.sigma):
            raise ConfigError(f"kernel sigma must be finite, got {self.sigma}")
        if self.kind == "gaussian":
            if self.sigma <= 0:
                raise ConfigError("gaussian kernel needs sigma > 0")
            # the divisor of _kernel_map; a float's ** raises on overflow
            try:
                width = 2.0 * float(self.sigma) ** 2
            except OverflowError:
                width = math.inf
            if not 0.0 < width < math.inf:
                raise ConfigError(
                    f"gaussian kernel sigma {self.sigma} gives 2 sigma^2 = {width}, "
                    "not a positive finite float"
                )


def kernel_matrix(x: np.ndarray, z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Dense kernel matrix K[i, j] = k(x_i, z_j)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if x.shape[1] != z.shape[1]:
        raise ConfigError(f"dimension mismatch: {x.shape[1]} vs {z.shape[1]}")
    return _kernel_map(_kernel_base(x, z, spec.kind), spec)


def _kernel_base(x: np.ndarray, z: np.ndarray, kind: str) -> np.ndarray:
    """The sigma-free block of a kernel matrix of float64 rows: x @ z.T
    for the linear kernel, the squared distances ||x_i - z_j||^2
    (clamped at 0) for the gaussian one."""
    if kind == "linear":
        return x @ z.T
    sq = _row_norms(x)[:, None] + _row_norms(z)[None, :] - 2.0 * (x @ z.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.sum(x * x, axis=1) 16 rows at a time (each row sums alike)."""
    return np.concatenate([np.sum(b * b, axis=1) for b in np.split(x, range(16, len(x), 16))])


def _kernel_map(base: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The kernel matrix of spec from its _kernel_base block, which
    stays unchanged: base itself for the linear kernel."""
    if spec.kind == "linear":
        return base
    return np.exp(-base / (2.0 * spec.sigma**2))


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
        out = np.subtract(x, self.mean)
        out /= self.std
        return out


def fit_standardizer(x: np.ndarray) -> Standardizer:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] < 1:
        raise TrainingError("cannot standardize an empty matrix")
    mean = x.mean(axis=0)
    # x.std(axis=0) a block of columns at a time; blocks of >= _STD_BLOCK / 2
    # columns sum row by row as it does (a lone column would sum pairwise)
    d = x.shape[1]
    k = -(-d // _STD_BLOCK) or 1
    std = np.concatenate([x[:, j * d // k:(j + 1) * d // k].std(axis=0) for j in range(k)])
    std = np.where(std < STD_FLOOR, 1.0, std)
    return Standardizer(mean, std)


# ---------------------------------------------------------------------------
# Binary machine
# ---------------------------------------------------------------------------


@dataclass
class BinarySvm:
    """One trained two class machine.

    support       ascending indices of the support vectors (rows with
                  nonzero dual weight) among the rows it was trained on;
                  for a model's machines, rows of model.support_vectors
    alpha_signed  alpha_i * y_i for each support vector
    bias          intercept; decision f(x) = sum alpha_signed K(sv, x) + bias
    solve         the record of the SMO solve behind the machine, which
                  train_binary(prior=) reads; None when unknown
    """

    support: np.ndarray
    alpha_signed: np.ndarray
    bias: float
    kernel: KernelSpec
    c: float
    solve: _Solve | None = field(default=None, repr=False, compare=False)


def _decision(machine: BinarySvm, k: np.ndarray) -> np.ndarray:
    """The machine's decision values at the points of the columns of k,
    a kernel block whose rows machine.support indexes."""
    return machine.alpha_signed @ k.take(machine.support, axis=0) + machine.bias


# Problems with at most SMALL_N rows run the step loop on Python lists,
# larger ones on NumPy arrays.  Measured cost per step of whole solves
# (µs, best of 3 runs of 4 problems x 10 C values per size; 2-core x86,
# Python 3.11, numpy 2.4, one BLAS thread):
#   n      4    8   16   24   28   32   36   40   48   64
#   list  2.8  3.3  3.7  4.5  5.0  5.1  5.8  6.3  6.7  8.3
#   array 7.1  7.2  5.8  6.0  6.1  5.5  5.4  5.4  5.3  5.5
# so the two loops cross between 32 and 36 rows.
SMALL_N = 34


def _atol(c: float) -> float:
    """Distance within which a multiplier counts as sitting on a bound."""
    return 1e-12 * max(c, 1.0)


class _Solve(NamedTuple):
    """What an SMO solve ran on, and the extremes of the alpha it returned.

    gram is a weak reference to the kernel matrix, so a machine does not
    keep it alive; labels holds the bytes of y.  atol is _atol of the
    solve's C, amax the largest alpha and amin the smallest above atol
    (inf if none).  bound says that every returned alpha is exactly 0.0
    or exactly C, which _scaled needs.  A machine that reuses a solve
    carries its record, with atol, amax and amin at the machine's C when
    the alpha was scaled there.
    """

    gram: weakref.ref
    labels: bytes
    iterations: int
    atol: float
    amax: float
    amin: float
    bound: bool

    def holds_at(self, c_prior: float, c: float) -> bool:
        """Whether the alpha returned at c_prior meets the stopping rule at c.

        Every alpha lies below C - atol at both costs and atol did not
        change or grew while staying below amin, so each alpha sits on
        the same side of C - atol and of atol at both costs: the masks,
        f (which does not depend on C), m - M, the bias and the support
        are the prior's, and a solve started from the prior takes no
        step.  An alpha at or below a larger atol may lie above a
        smaller one, so a solve is not carried to a smaller atol.
        """
        atol_prior, atol = self.atol, _atol(c)
        return (
            self.amax < c_prior - atol_prior
            and self.amax < c - atol
            and (atol == atol_prior or atol_prior < atol < self.amin)
        )


def _not_converged(tol: float, gap: float, why: str) -> TrainingError:
    return TrainingError(f"solver did not reach tolerance {tol}: {why} (gap m - M = {gap:.6g})")


def _pair_step(
    y_i: float, y_j: float, a_i: float, a_j: float, f_i: float, f_j: float,
    k_ii: float, k_jj: float, k_ij: float, c: float, tol: float, atol: float,
) -> tuple[float, float, float, float]:
    """(delta_i, delta_j, new alpha_i, new alpha_j) of one SMO step on
    the working pair (i, j).

    Clips alpha_j to the segment the box and the equality constraint
    leave it, and snaps values within atol of a bound onto the bound.
    Raises TrainingError when the step rounds to nothing: the caller
    only steps while m - M = f_i - f_j > tol, so a pinned pair leaves
    the solve short of tolerance.
    """
    # max(0.0, lo), min(c, hi), max(eta, 1e-12) and min(max(new_j, lo),
    # hi) written as the comparisons by which the builtins pick an
    # operand (max(a, b) is b if b > a else a), since a builtin call costs
    # more than the rest of the step's arithmetic
    sign = y_i * y_j
    if sign < 0:
        lo, hi = a_j - a_i, c + a_j - a_i
    else:
        lo, hi = a_i + a_j - c, a_i + a_j
    lo = lo if lo > 0.0 else 0.0
    hi = hi if hi < c else c
    eta = k_ii + k_jj - 2.0 * k_ij
    eta = 1e-12 if 1e-12 > eta else eta
    # -f is the bias-free prediction error, so this is the classic
    # Platt step for the second variable.
    new_j = a_j + y_j * (f_j - f_i) / eta
    new_j = lo if lo > new_j else new_j
    new_j = hi if hi < new_j else new_j
    if new_j < atol:
        new_j = 0.0
    elif new_j > c - atol:
        new_j = c
    delta_j = new_j - a_j
    if delta_j == 0.0:
        raise _not_converged(tol, f_i - f_j, "the working pair is pinned at the box")
    delta_i = -sign * delta_j
    return delta_i, delta_j, a_i + delta_i, a_j + delta_j


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
) -> tuple[np.ndarray, float, int]:
    """Core solver on a precomputed kernel matrix; returns (alpha, bias, iterations).

    Works on the violation vector f = -y g, where g = Q alpha - 1 is the
    dual gradient (Q = yy' * K).  Each step updates the pair (i, j)
    maximising the KKT violation m - M, where m = max f over indices
    free to increase and M = min f over indices free to decrease (lowest
    index on ties), and stops when m - M <= tol.  Because y is +-1, the
    gradient update of a step is exactly f -= (y_i d_i) K[i] + (y_j d_j) K[j],
    so f is maintained rather than recomputed, and only the mask entries
    of i and j are rewritten.  A solve that runs out of iterations or
    whose working pair cannot move raises TrainingError with the gap.

    Two loops share _pair_step and the bias tail, and keep alpha, the
    masks and the diagonal of K as Python lists.  Up to SMALL_N rows, f
    and the kernel rows are lists too, the arg-extremes are forward
    scans with strict comparisons (lowest index on ties) and f is
    updated as f[t] - (a K[i, t] + b K[j, t]).  Above it f is an array
    and a step allocates nothing: one add of two penalty rows (0 where
    an index may move up or down, -inf or +inf where it may not) into a
    reused (2, n) buffer gives argmax / argmin their masked rows (lowest
    index on ties), only the penalties of i and j are rewritten, and f
    is updated through two reused vectors as step = a K[i]; step += b K[j];
    f -= step.  Both loops evaluate the same IEEE operations in the same
    order, so they return the same bits.
    """
    n = y.size
    atol = _atol(c)
    top = c - atol
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
                k_i[i], k_j[j], k_i[j], c, tol, atol,
            )
            a, b = ys[i] * d_i, ys[j] * d_j
            f = [f_t - (a * k_it + b * k_jt) for f_t, k_it, k_jt in zip(f, k_i, k_j)]
            for t in (i, j):
                a_t = alpha[t]
                up[t] = a_t < top if pos[t] else a_t > atol
                low[t] = a_t > atol if pos[t] else a_t < top
    else:
        diag = k.diagonal().tolist()
        f = np.array(f)
        # pens[0] is 0 where an index may move up and -inf elsewhere,
        # pens[1] 0 where it may move down and +inf elsewhere, so the
        # masked arg-extremes are those of the rows of f + pens
        pens = np.array([[0.0 if u else -np.inf for u in up], [0.0 if l else np.inf for l in low]])
        pen_up, pen_low = pens
        masked = np.empty((2, n))
        f_up, f_low = masked
        step, row = np.empty(n), np.empty(n)
        while True:
            np.add(f, pens, out=masked)
            i = int(f_up.argmax())
            j = int(f_low.argmin())
            # a masked arg-extreme falls outside its mask only when the mask is empty
            if not (up[i] and low[j]):
                break
            f_i, f_j = f.item(i), f.item(j)
            if f_i - f_j <= tol:
                break
            if it >= max_iter:
                raise _not_converged(tol, f_i - f_j, f"{max_iter} iterations")
            it += 1
            y_i, y_j = ys[i], ys[j]
            d_i, d_j, alpha[i], alpha[j] = _pair_step(
                y_i, y_j, alpha[i], alpha[j], f_i, f_j,
                diag[i], diag[j], k.item(i, j), c, tol, atol,
            )
            np.multiply(k[i], y_i * d_i, out=step)
            np.multiply(k[j], y_j * d_j, out=row)
            step += row
            f -= step
            for t in (i, j):
                a_t = alpha[t]
                up[t] = u = a_t < top if pos[t] else a_t > atol
                low[t] = l = a_t > atol if pos[t] else a_t < top
                pen_up[t] = 0.0 if u else -np.inf
                pen_low[t] = 0.0 if l else np.inf
        f = f.tolist()

    return np.asarray(alpha, dtype=np.float64), _bias(f, up, low), it


def train_binary(
    gram: np.ndarray,
    y: np.ndarray,
    c: float,
    kernel: KernelSpec,
    *,
    prior: BinarySvm | None = None,
) -> BinarySvm:
    """Train one soft margin machine on labels in {-1, +1} from its
    kernel matrix gram, kernel_matrix(x, x, kernel) of its rows x, to
    the KKT tolerance TOL.  A solve that takes more than
    max(100_000, 1_000 n) steps on n rows raises TrainingError.

    prior is a machine this function trained at another C on the same,
    unmodified gram object, with the same label bytes and kernel.  Those
    arguments were checked when the prior was solved, so the prior is
    tested first and only c is checked again.  If c is valid with room
    (0 < c - atol), _smo does not run when either of two reuses meets the
    stopping rule at c:
      - the prior's returned alpha as it is (_Solve.holds_at): the
        machine shares the prior's alpha, bias and support indices;
      - a bound-only prior (every alpha 0 or C) scaled to c (_scaled):
        the machine shares the prior's support indices, with alpha c
        there and a new bias.
    Either is a solution at c within TOL, though not always the bits of
    a solve from alpha = 0 at c.  Any other prior is ignored.  A
    machine's support and alpha_signed arrays are read-only, so the
    machines that share them cannot change each other.
    """
    # a prior solved afresh on this very gram object and these label
    # bytes passed the checks below then, so only c is left to check
    solve = None if prior is None else prior.solve
    if (
        solve is not None
        and gram is not None
        and solve.gram() is gram
        and (prior.kernel is kernel or prior.kernel == kernel)
        and solve.labels == np.asarray(y, dtype=np.float64).tobytes()
        and 0.0 < c - _atol(c) < math.inf
    ):
        if solve.holds_at(prior.c, c):
            return BinarySvm(prior.support, prior.alpha_signed, prior.bias, kernel, c, solve)
        if solve.bound:
            scaled = _scaled(prior, gram, np.asarray(y, dtype=np.float64).ravel(), c)
            if scaled is not None:
                return scaled

    y = np.asarray(y, dtype=np.float64).ravel()
    n_pos = np.count_nonzero(y == 1.0)
    n_neg = np.count_nonzero(y == -1.0)
    if n_pos + n_neg != y.size:
        raise TrainingError("labels must be -1 or +1")
    if n_pos == 0 or n_neg == 0:
        raise TrainingError("training set contains a single class")
    if not 0.0 < c < math.inf:
        raise ConfigError(f"C must be positive and finite, got {c}")
    k = np.asarray(gram, dtype=np.float64)
    if k.shape != (y.size, y.size):
        raise ConfigError(f"gram has shape {k.shape}, expected {(y.size, y.size)}")

    alpha, bias, it = _smo(k, y, c, TOL, max(100_000, 1_000 * y.size))
    # on lists, where a few rows cost less than NumPy's per-call overhead;
    # y is +-1, so |alpha_t y_t| is alpha_t
    alpha, ys, atol = alpha.tolist(), y.tolist(), _atol(c)
    support = [t for t, a_t in enumerate(alpha) if a_t > atol]
    signed = [alpha[t] * ys[t] for t in support]
    amax, amin = max(alpha), min(map(abs, signed), default=math.inf)
    bound = alpha.count(0.0) + alpha.count(c) == len(alpha)
    support, alpha_signed = np.array(support, dtype=np.intp), np.array(signed, dtype=np.float64)
    # read-only from the start, so machines that reuse this solve share them
    support.flags.writeable = alpha_signed.flags.writeable = False
    return BinarySvm(
        support, alpha_signed, bias, kernel, c,
        _Solve(weakref.ref(k), y.tobytes(), it, atol, amax, amin, bound),
    )


def _scaled(prior: BinarySvm, gram: np.ndarray, y: np.ndarray, c: float) -> BinarySvm | None:
    """The machine whose alpha is c on prior's support and 0 elsewhere,
    or None when that alpha does not meet the stopping rule at c, which
    has room (0 < c - atol).

    prior's alpha is bound-only, so this alpha is (c / prior.c) times it
    (with no free alpha the solution is linear in C; Hastie, Rosset,
    Tibshirani and Zhu, JMLR 2004), and the support holds as many rows
    of each label.  Its violation vector f = y - K (alpha y) comes from
    the support's columns of gram, not from the prior's f scaled by
    c / prior.c, which would scale that f's rounding as well.  An alpha
    at 0 may only rise and one at c only fall, so neither mask is empty
    and none is free: m - M <= TOL is the stopping rule, and the bias is
    the midpoint of the bracket, as _bias gives it.
    """
    alpha_signed = np.copysign(c, prior.alpha_signed)
    f = y - gram.take(prior.support, axis=1) @ alpha_signed
    at_c = np.zeros(y.size, dtype=bool)
    at_c[prior.support] = True
    up = (y > 0) != at_c
    hi, lo = f[up].max(), f[~up].min()
    if not hi - lo <= TOL:
        return None
    alpha_signed.flags.writeable = False
    return BinarySvm(
        prior.support, alpha_signed, float((hi + lo) / 2.0), prior.kernel, c,
        prior.solve._replace(atol=_atol(c), amax=c, amin=c),
    )


# ---------------------------------------------------------------------------
# One against one multiclass
# ---------------------------------------------------------------------------


@dataclass
class SvmModel:
    """A one against one ensemble over an ordered class list.

    machines[(i, j)] with i < j separates classes[i] (+1) from
    classes[j] (-1); its support indexes support_vectors, which holds
    each training row that any machine uses once, in training order.
    The standardizer that produced the training features travels with
    the model so persisted models are self contained.
    """

    classes: list[str]
    machines: dict[tuple[int, int], BinarySvm]
    support_vectors: np.ndarray
    standardizer: Standardizer | None = None
    c: float = 1.0
    kernel: KernelSpec = field(default_factory=KernelSpec)


def _class_pairs(codes: np.ndarray, classes: list[str]):
    """Each class pair (a, b), a < b, in order, with the indices of its
    rows in codes (class indices into classes) and their labels: +1 for
    class a, -1 for class b.  Each class's rows are found once, as an
    ascending list, and a pair's rows are the merge of two of them
    (sorted() on a list, cheaper than NumPy calls for a few rows); the
    labels are those rows of one +-1 array per class a."""
    members = [np.flatnonzero(codes == a).tolist() for a in range(len(classes))]
    for a, rows_a in enumerate(members):
        sign = np.where(codes == a, 1.0, -1.0)
        for b in range(a + 1, len(classes)):
            if not rows_a or not members[b]:
                raise TrainingError(f"no examples for pair ({classes[a]}, {classes[b]})")
            rows = np.array(sorted(rows_a + members[b]), dtype=np.intp)
            yield (a, b), rows, sign.take(rows)


def train_one_vs_one(
    x: np.ndarray,
    labels: np.ndarray,
    c: float,
    kernel: KernelSpec,
    *,
    classes: list[str] | None = None,
    standardizer: Standardizer | None = None,
) -> SvmModel:
    """Train all class pair machines on already standardized features,
    each on its pair's block of one kernel matrix over all rows; the
    rows any machine keeps as support vectors are stored once."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] == 0:
        raise TrainingError("features have no columns")
    if classes is None:
        classes, codes = class_codes(labels)
    else:
        # a label outside classes gets index -1, which is in no pair
        index = {name: k for k, name in enumerate(classes)}
        codes = np.asarray([index.get(str(v), -1) for v in labels], dtype=np.intp)
    if len(classes) < 2:
        raise TrainingError("training set contains a single class")
    gram = kernel_matrix(x, x, kernel)
    fits = [
        (pair, rows, train_binary(gram[rows[:, None], rows], y, c, kernel))
        for pair, rows, y in _class_pairs(codes, classes)
    ]
    # np.unique would import numpy.ma (14 ms, 0.5 MB RSS) into the process
    kept = np.bincount(np.concatenate([rows[m.support] for _, rows, m in fits]), minlength=len(x))
    used = np.flatnonzero(kept)
    machines = {
        pair: replace(m, support=np.searchsorted(used, rows[m.support])) for pair, rows, m in fits
    }
    return SvmModel(list(classes), machines, x[used], standardizer, c, kernel)


def _vote(values: np.ndarray, pairs: list[tuple[int, int]], n_classes: int) -> np.ndarray:
    """Winning class index for each column of values, one row per pair.

    Machine (a, b) votes for a where its decision value is >= 0 and for
    b otherwise.  The class with most votes wins; vote ties are broken
    by the larger sum of |decision| over the machines involving the
    class, added in the order of pairs, and any remaining tie by the
    lower class index.  Votes and sums accumulate into one (class,
    column) table a run of pairs (a, b), (a, b + 1), ... at a time (one
    against one order makes one run per class a): each b takes its row
    of the run in one operation and a takes the rows one after another,
    so every sum adds in pair order and no temporary outgrows a run.
    """
    n = values.shape[1]
    votes = np.zeros((n_classes, n), dtype=np.intp)
    weight = np.zeros((n_classes, n))
    start = 0
    while start < len(pairs):
        a, b = pairs[start]
        stop = start + 1
        while stop < len(pairs) and pairs[stop] == (a, b + stop - start):
            stop += 1
        run = values[start:stop]
        ahead = run >= 0
        votes[a] += ahead.sum(axis=0)
        votes[b:b + stop - start] += ~ahead
        magnitude = np.abs(run)
        weight[b:b + stop - start] += magnitude
        for row in magnitude:
            weight[a] += row
        start = stop
    heavy = np.where(votes == votes.max(axis=0), weight, -1.0)
    return (heavy == heavy.max(axis=0)).argmax(axis=0)


def predict(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Predicted class names for the rows of x, which the model's
    standardizer, when it has one, maps first.  One kernel block of the
    model's support vectors against x scores every machine, and the
    machines vote as _vote describes."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if model.standardizer is not None:
        x = model.standardizer.apply(x)
    k = kernel_matrix(model.support_vectors, x, model.kernel)
    values = np.asarray([_decision(m, k) for m in model.machines.values()])
    winners = _vote(values, list(model.machines), len(model.classes))
    return np.asarray([model.classes[w] for w in winners])


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
) -> tuple[float, float | None, float]:
    """Pick (C, sigma) by averaged validation score over random halves.

    The training set is split n_resample times into equal stratified
    learning and validation halves (the same splits are reused for
    every candidate).  Each candidate trains one against one machines
    on the learning half and is scored by mean average precision on the
    validation half; the candidate with the best average wins.  Ties go
    to the smaller C, then the smaller sigma.  For the linear kernel the
    sigma grid is ignored.  Returns (c, sigma_or_None, best_score).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] == 0:
        raise TrainingError("features have no columns")
    if c_grid is None:
        c_grid = default_c_grid()
    if sigma_grid is None:
        sigma_grid = default_sigma_grid()
    if n_resample < 1:
        raise ConfigError("n_resample must be >= 1")
    classes, codes = class_codes(labels)
    if len(classes) < 2:
        raise TrainingError("model selection needs at least two classes")

    c_values = [float(c) for c in c_grid]
    if kernel_kind == "linear":
        sigmas = [None]
    elif kernel_kind == "gaussian":
        sigmas = [float(s) for s in sigma_grid]
    else:
        raise ConfigError(f"unknown kernel kind {kernel_kind!r}")
    if not c_values:
        raise ConfigError("c_grid is empty")
    if not sigmas:
        raise ConfigError("sigma_grid is empty")
    specs = [KernelSpec("linear") if s is None else KernelSpec("gaussian", s) for s in sigmas]
    # (C index, sigma index) in the order preferred on ties; max keeps the first
    candidates = sorted(
        ((ci, si) for ci in range(len(c_values)) for si in range(len(sigmas))),
        key=lambda cs: (c_values[cs[0]], sigmas[cs[1]] or 0.0),
    )

    # equal halves per class; an odd count leaves the extra example, and a
    # single example class its only one, in the learning half
    learn_counts = (np.bincount(codes) + 1) // 2
    halves = [
        split_by_class(codes, learn_counts, rng_from(seed, r)) for r in range(n_resample)
    ]
    # validation halves may be empty when every class has one example
    halves = [(le, va) for le, va in halves if va.size > 0]
    if not halves:
        ci, si = candidates[0]
        return c_values[ci], sigmas[si], 0.0

    # Each pair's Gram and validation block are row slices of one
    # sigma-free base per half, mapped per sigma and shared by the C grid.
    # C ascends so each machine may reuse the solve below it (prior=) and
    # its decision values; one vote and one MAP pass score every C.
    c_order = sorted(range(len(c_values)), key=c_values.__getitem__)
    totals = np.zeros((len(c_values), len(sigmas)))
    for learn_idx, val_idx in halves:
        x_learn, val_codes = x[learn_idx], codes[val_idx]
        split = list(_class_pairs(codes[learn_idx], classes))
        pairs = [pair for pair, _, _ in split]
        base_gram = _kernel_base(x_learn, x_learn, kernel_kind)
        base_cross = _kernel_base(x_learn, x[val_idx], kernel_kind)
        del x_learn  # before the next half's rows are copied
        for si, spec in enumerate(specs):
            gram, cross = _kernel_map(base_gram, spec), _kernel_map(base_cross, spec)
            values = np.empty((len(pairs), len(c_values), val_idx.size))
            for row, (_, rows, y) in zip(values, split):
                gram_r, cross_r = gram[rows[:, None], rows], cross.take(rows, axis=0)
                machine = last = None
                for ci in c_order:
                    prior, machine = machine, train_binary(
                        gram_r, y, c_values[ci], spec, prior=machine
                    )
                    if prior is not None and machine.alpha_signed is prior.alpha_signed:
                        row[ci] = row[last]
                    else:
                        row[ci] = _decision(machine, cross_r)
                    last = ci
            pred = _vote(values.reshape(len(pairs), -1), pairs, len(classes))
            pred = pred.reshape(len(c_values), -1)
            totals[:, si] += map_score_codes(val_codes, pred, len(classes))

    scores = totals / len(halves)
    ci, si = max(candidates, key=lambda cs: scores[cs])
    return c_values[ci], sigmas[si], float(scores[ci, si])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"HSVM"
_MODEL_VERSION = 2
_KERNEL_CODES = {"linear": 0, "gaussian": 1}
_KERNEL_NAMES = {v: k for k, v in _KERNEL_CODES.items()}


def save_model(path: str | Path, model: SvmModel) -> None:
    """Serialize a model; all floats are little endian float64.

    The support vectors are stored once; each machine stores its pair,
    bias, and the indices and signed alphas of its support vectors.
    The write goes through a temporary file in the destination
    directory followed by an atomic rename, so a crash cannot leave a
    half written model behind.
    """
    if model.standardizer is None:
        raise ConfigError("only models carrying a standardizer can be saved")
    dim = model.standardizer.mean.size
    kernel = model.kernel
    parts = [
        _MODEL_MAGIC,
        struct.pack("<IIdd", _MODEL_VERSION, _KERNEL_CODES[kernel.kind], kernel.sigma, model.c),
        struct.pack("<IQ", len(model.classes), dim),
    ]
    for name in model.classes:
        blob = name.encode("utf-8")
        parts.append(struct.pack("<I", len(blob)) + blob)
    parts.append(np.asarray(model.standardizer.mean, "<f8").tobytes())
    parts.append(np.asarray(model.standardizer.std, "<f8").tobytes())
    parts.append(struct.pack("<Q", len(model.support_vectors)))
    parts.append(np.ascontiguousarray(model.support_vectors, "<f8").tobytes())
    parts.append(struct.pack("<I", len(model.machines)))
    for (a, b) in sorted(model.machines):
        svm = model.machines[(a, b)]
        parts.append(struct.pack("<IIdQ", a, b, svm.bias, svm.support.size))
        parts.append(np.asarray(svm.support, "<u8").tobytes())
        parts.append(np.asarray(svm.alpha_signed, "<f8").tobytes())
    atomic_write_bytes(Path(path), parts)


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
    """Read a model written by save_model; bit exact round trip.

    Raises FormatError unless the version is current, there are at
    least two classes with UTF-8 names and at least one feature, every
    value is finite, C and the deviations are positive, each pair
    a < b < n_classes has one machine, each machine's support indices
    ascend strictly below the number of support vectors, and no byte
    follows the last machine.
    """
    path = Path(path)
    r = _Reader(path.read_bytes(), str(path))
    if r.take(4) != _MODEL_MAGIC:
        raise FormatError(f"{path}: not a model file (bad magic)")
    version, kernel_code, sigma, c = r.unpack("<IIdd")
    if version != _MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    if kernel_code not in _KERNEL_NAMES:
        raise FormatError(f"{path}: unknown kernel code {kernel_code}")
    if not 0.0 < c < math.inf:
        raise FormatError(f"{path}: C must be positive and finite, got {c}")
    try:
        kernel = KernelSpec(_KERNEL_NAMES[kernel_code], sigma)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
    n_classes, dim = r.unpack("<IQ")
    if n_classes < 2 or dim < 1:
        raise FormatError(f"{path}: a model needs at least two classes and one feature")
    try:
        classes = [r.take(r.unpack("<I")[0]).decode("utf-8") for _ in range(n_classes)]
    except UnicodeDecodeError:
        raise FormatError(f"{path}: a class name is not UTF-8") from None
    mean, std = r.floats(dim), r.floats(dim)
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0.0).all()):
        raise FormatError(f"{path}: standardizer is not finite with positive deviations")
    (n_sv,) = r.unpack("<Q")
    support_vectors = r.floats(n_sv * dim).reshape(n_sv, dim)
    if not np.isfinite(support_vectors).all():
        raise FormatError(f"{path}: support vectors hold non-finite values")
    (n_pairs,) = r.unpack("<I")
    if n_pairs != n_classes * (n_classes - 1) // 2:
        raise FormatError(f"{path}: {n_pairs} machines for {n_classes} classes")
    machines = {}
    for _ in range(n_pairs):
        a, b, bias, n = r.unpack("<IIdQ")
        if not a < b < n_classes or (a, b) in machines:
            raise FormatError(f"{path}: bad or repeated pair ({a}, {b}) of {n_classes} classes")
        support = np.frombuffer(r.take(8 * n), dtype="<u8")
        alpha = r.floats(n)
        if not ((support[1:] > support[:-1]).all() and (support < n_sv).all()):
            raise FormatError(f"{path}: machine ({a}, {b}) has bad support indices")
        if not (math.isfinite(bias) and np.isfinite(alpha).all()):
            raise FormatError(f"{path}: machine ({a}, {b}) holds non-finite values")
        machines[(a, b)] = BinarySvm(support.astype(np.intp), alpha, bias, kernel, c)
    if r.pos != len(r.data):
        raise FormatError(f"{path}: {len(r.data) - r.pos} bytes after the last machine")
    return SvmModel(classes, machines, support_vectors, Standardizer(mean, std), c, kernel)
