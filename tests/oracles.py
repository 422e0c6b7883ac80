"""Independent reference implementations used to cross-check the library.

Everything here is written from the mathematical definitions with the
plainest possible code (explicit per frame loops, generic optimizers,
exhaustive enumeration) and shares no helpers with the package, so a
library bug cannot be masked by an identical bug in its oracle.
"""

import itertools
import math

import numpy as np
import scipy.optimize
import scipy.stats


def cqt_profile_oracle(x, fs, f_min, bins_per_octave, hop, n_bins):
    """Mean column magnitude per constant-Q bin, frame by frame.

    Bin k is centred at f_min * 2**(k / b) with a Hann window of
    N_k = ceil(Q fs / f_k) samples centred on each hop position;
    samples outside the clip count as zero and each inner product is
    divided by N_k.
    """
    x = np.asarray(x, dtype=np.float64)
    q = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    n_frames = len(x) // hop + 1
    profiles = []
    for k in range(n_bins):
        f_k = f_min * 2.0 ** (k / bins_per_octave)
        n_k = math.ceil(q * fs / f_k)
        n = np.arange(n_k)
        window = 0.5 - 0.5 * np.cos(2.0 * math.pi * n / n_k)
        kernel = window * np.exp(-2j * math.pi * f_k / fs * n)
        total = 0.0
        for t in range(n_frames):
            start = t * hop - n_k // 2
            lo = max(0, start)
            hi = min(len(x), start + n_k)
            if hi <= lo:
                continue
            seg = x[lo:hi]
            total += abs(np.dot(seg, kernel[lo - start:hi - start])) / n_k
        profiles.append(total / n_frames)
    return np.asarray(profiles)


def cqt_oracle(x, fs, f_min, bins_per_octave, hop, n_bins):
    """Complex constant-Q coefficients, one inner product per bin and frame.

    Same definition as cqt_profile_oracle, returned as the full
    (n_bins, n_frames) matrix so that phases are checked too.
    """
    x = np.asarray(x, dtype=np.float64)
    q = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    n_frames = len(x) // hop + 1
    out = np.zeros((n_bins, n_frames), dtype=complex)
    for k in range(n_bins):
        f_k = f_min * 2.0 ** (k / bins_per_octave)
        n_k = math.ceil(q * fs / f_k)
        n = np.arange(n_k)
        window = 0.5 - 0.5 * np.cos(2.0 * math.pi * n / n_k)
        kernel = window * np.exp(-2j * math.pi * f_k / fs * n)
        for t in range(n_frames):
            start = t * hop - n_k // 2
            lo = max(0, start)
            hi = min(len(x), start + n_k)
            if hi > lo:
                out[k, t] = np.dot(x[lo:hi], kernel[lo - start:hi - start]) / n_k
    return out


def cqt_bin_count(f_min, f_max, bins_per_octave):
    return int(math.floor(bins_per_octave * math.log2(f_max / f_min))) + 1


def svm_dual_objective(k_matrix, y, alpha):
    """Value of the soft margin dual at alpha."""
    q = (y[:, None] * y[None, :]) * k_matrix
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


def svm_dual_slsqp(k_matrix, y, c):
    """Maximise the dual with a generic constrained optimizer.

    Returns (alpha, objective).  SLSQP has nothing in common with a
    pairwise working set method, which is the point.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    q = (y[:, None] * y[None, :]) * k_matrix

    def neg_obj(a):
        return 0.5 * a @ q @ a - a.sum()

    def neg_grad(a):
        return q @ a - np.ones(n)

    best = None
    for start in (np.zeros(n), np.full(n, min(c, 1.0) / 2.0)):
        res = scipy.optimize.minimize(
            neg_obj,
            start,
            jac=neg_grad,
            method="SLSQP",
            bounds=[(0.0, c)] * n,
            constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
            options={"maxiter": 2000, "ftol": 1e-14},
        )
        if best is None or res.fun < best.fun:
            best = res
    return best.x, -best.fun


def svm_dual_enumerate(k_matrix, y, c):
    """Exact dual optimum by enumerating all active set patterns.

    Each variable is pinned at 0, pinned at C or left free; for every
    pattern the equality constrained stationary point of the free block
    is solved and feasible candidates keep their objective.  Exponential
    in n, intended for n <= 7 with positive definite kernels.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    q = (y[:, None] * y[None, :]) * k_matrix
    best = -np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        alpha = np.zeros(n)
        free = [i for i in range(n) if pattern[i] == 2]
        bound = [i for i in range(n) if pattern[i] == 1]
        alpha[bound] = c
        if free:
            m = len(free)
            kkt = np.zeros((m + 1, m + 1))
            kkt[:m, :m] = q[np.ix_(free, free)]
            kkt[:m, m] = y[free]
            kkt[m, :m] = y[free]
            rhs = np.ones(m + 1)
            if bound:
                rhs[:m] -= q[np.ix_(free, bound)] @ alpha[bound]
                rhs[m] = -float(y[bound] @ alpha[bound])
            else:
                rhs[m] = 0.0
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(sol[:m] < -1e-9) or np.any(sol[:m] > c + 1e-9):
                continue
            alpha[free] = np.clip(sol[:m], 0.0, c)
        elif abs(float(y @ alpha)) > 1e-9:
            continue
        best = max(best, svm_dual_objective(k_matrix, y, alpha))
    return best


def wilcoxon_oracle(a, b):
    """(statistic, exact two sided p) by enumerating all sign patterns."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    ranks = scipy.stats.rankdata(np.abs(d), method="average")
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    total = float(ranks.sum())
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        wp = sum(r for s, r in zip(signs, ranks) if s)
        if min(wp, total - wp) <= w + 1e-12:
            count += 1
    return w, count / 2.0 ** n
