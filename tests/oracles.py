"""Independent reference implementations used to cross-check the library.

Everything here is written from the mathematical definitions with the
plainest possible code (explicit per frame loops, generic optimizers,
exhaustive enumeration) and shares no helpers with the package, so a
library bug cannot be masked by an identical bug in its oracle.  The
exceptions check optimised library code against the plain version it
replaced: smo_oracle keeps the solver loop that recomputes every
quantity per step, model_select_oracle retrains every candidate from
scratch through the package's one against one trainer,
mean_filter_sliding keeps the sliding-window filter, fast enough to
check full size images, mean_filter_padded and cell_histograms_oneshot
keep the whole-image filter and histogram expressions that the banded
library versions must reproduce bit for bit, resize_weights_scatter
keeps the scattered resize weights that the library's bincount must
reproduce bit for bit, and cqt_hop_loop keeps the one-GEMM-per-hop
transform whose sums the library's stacked products must reproduce
bit for bit.
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


def cqt_hop_loop(samples, hop, kernels):
    """Constant-Q coefficients from the octave kernels, one GEMM per hop.

    kernels holds (first bin, kernel) per octave block as the library
    builds them, the first block's window the longest.  The clip is
    padded with n_max // 2 + 1 zeros in front and n_max // 2 + 1 + hop
    behind and viewed as rows of hop samples, so frame t of a block is
    rows t, t + 1, ... end to end from its offset.  The block's
    coefficients are row block 0 times the kernel's first hop-sized
    slice, then plus row block i times slice i for i = 1, 2, ... in
    turn, the last slice possibly shorter than a hop.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    n_max = kernels[0][1].shape[0]
    n_bins = sum(kernel.shape[1] // 2 for _, kernel in kernels)
    n_frames = n // hop + 1
    pad = n_max // 2 + 1
    x = np.pad(samples, (pad, pad + hop))
    out = np.empty((n_bins, n_frames), dtype=np.complex128)
    for first, kernel in kernels:
        n_blk, nb = kernel.shape[0], kernel.shape[1] // 2
        q = -(-n_blk // hop)
        off = pad - n_blk // 2
        rows = x[off:off + (n_frames + q - 1) * hop].reshape(-1, hop)
        part = kernel[:hop]
        coeffs = rows[:n_frames, :len(part)] @ part
        for i in range(1, q):
            part = kernel[i * hop:(i + 1) * hop]
            coeffs += rows[i:i + n_frames, :len(part)] @ part
        out[first:first + nb].real = coeffs[:, :nb].T
        out[first:first + nb].imag = coeffs[:, nb:].T
    return out


def cqt_bin_count(f_min, f_max, bins_per_octave):
    return int(math.floor(bins_per_octave * math.log2(f_max / f_min))) + 1


def mean_filter_oracle(img, k):
    """k x k box average with replicated borders, pixel by pixel.

    Output (i, j) averages rows i - k//2 .. i - k//2 + k - 1 and the
    same span of columns, with every index clamped into the image.
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    lo = k // 2
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            total = 0.0
            for di in range(k):
                r = min(max(i - lo + di, 0), h - 1)
                for dj in range(k):
                    c = min(max(j - lo + dj, 0), w - 1)
                    total += float(img[r, c])
            out[i, j] = total / (k * k)
    return out


def mean_filter_sliding(img, k):
    """The same box average as mean_filter_oracle, as two row passes.

    Each pass pads lo = k // 2 edge rows above and k - 1 - lo below,
    averages k consecutive rows of a sliding window view and transposes
    the result, so the second pass filters the columns.
    """
    img = np.asarray(img, dtype=np.float64)
    lo = k // 2
    out = img
    for _ in range(2):
        padded = np.pad(out, ((lo, k - 1 - lo), (0, 0)), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=0)
        out = np.ascontiguousarray(windows.mean(axis=-1).T)
    return out


def mean_filter_padded(img, k):
    """The box average as two banded GEMM passes over edge-padded copies.

    The first pass pads k - 1 edge rows and multiplies a 0/1 band matrix
    with each block of 32 output rows' padded rows; the second pads edge
    columns and does the same from the right with the transposed band
    matrix.  Both sums are divided by k.
    """
    img = np.asarray(img, dtype=np.float64)
    if k == 1:
        return img.copy()
    band = 32
    lo, hi = k // 2, k - 1 - k // 2
    h, w = img.shape
    span = np.arange(band + k - 1)[None, :] - np.arange(band)[:, None]
    ones = ((span >= 0) & (span < k)).astype(np.float64)
    padded = np.pad(img, ((lo, hi), (0, 0)), mode="edge")
    rows = np.empty((h, w))
    for r in range(0, h, band):
        n = min(band, h - r)
        np.matmul(ones[:n, :n + k - 1], padded[r:r + n + k - 1], out=rows[r:r + n])
    rows /= k
    padded = np.pad(rows, ((0, 0), (lo, hi)), mode="edge")
    out = np.empty((h, w))
    for c in range(0, w, band):
        n = min(band, w - c)
        np.matmul(padded[:, c:c + n + k - 1], ones[:n, :n + k - 1].T, out=out[:, c:c + n])
    out /= k
    return out


def resize_weights_scatter(n_out, n_in):
    """Catmull-Rom (a = -0.5) resize weights scattered with np.add.at.

    Output pixel i samples src = (i + 0.5) * n_in / n_out - 0.5 with the
    four taps floor(src) - 1 .. floor(src) + 2; a tap outside the input
    is clamped onto the edge column, where it adds onto the weights of
    the taps already there, left to right.
    """
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    taps = np.floor(src).astype(np.int64)[:, None] + np.arange(-1, 3)[None, :]
    t = np.abs(src[:, None] - taps)
    near = (1.5 * t - 2.5) * t * t + 1.0
    far = ((-0.5 * t + 2.5) * t - 4.0) * t + 2.0
    w = np.where(t <= 1.0, near, np.where(t < 2.0, far, 0.0))
    mat = np.zeros((n_out, n_in))
    cols = np.clip(taps, 0, n_in - 1)
    np.add.at(mat, (np.repeat(np.arange(n_out), 4), cols.ravel()), w.ravel())
    return mat


def cell_histograms_oneshot(gx, gy, cell_size, n_orient):
    """Signed cell histograms from one bincount over the whole image.

    Magnitude sqrt(Gx^2 + Gy^2), angle atan2(Gy, Gx) moved into
    [0, 2pi) and scaled by 2B / 2pi, truncated to a bin (2B wraps to 0),
    then every pixel's (cell, bin) index in raster order.
    """
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    h, w = gx.shape
    cs, n_bins = cell_size, 2 * n_orient
    rows, cols = h // cs, w // cs
    mag = gx * gx
    mag += gy * gy
    np.sqrt(mag, out=mag)
    theta = np.arctan2(gy, gx)
    np.add(theta, 2.0 * np.pi, out=theta, where=theta < 0)
    theta *= n_bins / (2.0 * np.pi)
    flat = theta.astype(np.intp)
    flat[flat == n_bins] = 0
    flat += (np.arange(h) // cs * (cols * n_bins))[:, None]
    flat += (np.arange(w) // cs * n_bins)[None, :]
    hist = np.bincount(flat.ravel(), weights=mag.ravel(), minlength=rows * cols * n_bins)
    return hist.reshape(rows, cols, n_bins)


def cell_histograms_oracle(gx, gy, cell_size, n_orient):
    """Signed orientation histograms per square cell, pixel by pixel.

    Pixel (i, j) votes hypot(Gx, Gy) into signed bin
    floor(theta * (2B / 2pi)) of cell (i // cell_size, j // cell_size),
    where theta = atan2(Gy, Gx) moved into [0, 2pi) and the bin scale
    2B / 2pi is rounded once, which places the float bin edges.  A bin
    index of 2B (theta rounding up to 2pi) is bin 0.  Zero gradients
    cast no vote.
    """
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    h, w = gx.shape
    n_bins = 2 * n_orient
    scale = n_bins / (2.0 * math.pi)
    hist = np.zeros((h // cell_size, w // cell_size, n_bins))
    for i in range(h):
        for j in range(w):
            x, y = float(gx[i, j]), float(gy[i, j])
            mag = math.hypot(x, y)
            if mag == 0.0:
                continue
            theta = math.atan2(y, x)
            if theta < 0.0:
                theta += 2.0 * math.pi
            b = math.floor(theta * scale) % n_bins
            hist[i // cell_size, j // cell_size, b] += mag
    return hist


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


def smo_oracle(k, y, c, tol, max_iter):
    """Pairwise SMO as first written: every mask and violation recomputed
    from the gradient at each step.

    Maintains the dual gradient g = Q alpha - 1 (Q = yy' * K) and at
    each step updates the pair (i, j) maximising the KKT violation
    m - M, where m = max(-y g) over indices free to increase and
    M = min(-y g) over indices free to decrease, lowest index on ties.
    Stops when m - M <= tol.  Returns (alpha, bias, iterations).  The
    library solver must reproduce all three bit for bit.
    """
    n = y.size
    atol = 1e-12 * max(c, 1.0)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    pos = y > 0

    it = 0
    while True:
        y_grad = y * grad
        up = (pos & (alpha < c - atol)) | (~pos & (alpha > atol))
        low = (~pos & (alpha < c - atol)) | (pos & (alpha > atol))
        if not up.any() or not low.any():
            break
        viol = -y_grad
        i = int(np.flatnonzero(up)[np.argmax(viol[up])])
        j = int(np.flatnonzero(low)[np.argmin(viol[low])])
        m, mm = viol[i], viol[j]
        if m - mm <= tol:
            break
        if it >= max_iter:
            raise RuntimeError(f"no convergence in {max_iter} iterations")
        it += 1

        sign = y[i] * y[j]
        if sign < 0:
            lo = max(0.0, alpha[j] - alpha[i])
            hi = min(c, c + alpha[j] - alpha[i])
        else:
            lo = max(0.0, alpha[i] + alpha[j] - c)
            hi = min(c, alpha[i] + alpha[j])
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        eta = max(eta, 1e-12)
        a_j = alpha[j] + y[j] * (y_grad[i] - y_grad[j]) / eta
        a_j = min(max(a_j, lo), hi)
        if a_j < atol:
            a_j = 0.0
        elif a_j > c - atol:
            a_j = c
        delta_j = a_j - alpha[j]
        if delta_j == 0.0:
            break
        delta_i = -sign * delta_j
        alpha[i] += delta_i
        alpha[j] += delta_j
        grad += y * (y[i] * delta_i * k[i] + y[j] * delta_j * k[j])

    y_grad = y * grad
    free = (alpha > atol) & (alpha < c - atol)
    if free.any():
        bias = float(np.mean(-y_grad[free]))
    else:
        up = (pos & (alpha < c - atol)) | (~pos & (alpha > atol))
        low = (~pos & (alpha < c - atol)) | (pos & (alpha > atol))
        hi = (-y_grad[up]).max() if up.any() else 0.0
        lo = (-y_grad[low]).min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    return alpha, bias, it


def map_score_oracle(y_true, y_pred, classes):
    """Mean average precision by a plain loop over classes in order: the
    fraction of the examples predicted as a class that truly belong to
    it, 0 for a class never predicted, summed left to right and divided
    by the number of classes.  A label outside classes counts for none."""
    total = 0.0
    for name in classes:
        hits = [str(t) == name for t, p in zip(y_true, y_pred) if str(p) == name]
        if hits:
            total += sum(hits) / len(hits)
    return total / len(classes)


def confusion_oracle(y_true, y_pred, classes):
    """Confusion counts by a plain loop over the rows: the row of the
    true class and the column of the predicted one, in classes order."""
    out = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        out[classes.index(t), classes.index(p)] += 1
    return out


def model_select_oracle(x, labels, kernel_kind, c_grid, sigma_grid, n_resample, seed):
    """(C, sigma, score) chosen by retraining every candidate from scratch.

    Each candidate trains one against one machines on every learning
    half with train_one_vs_one and scores predict on the validation
    half by mean average precision; the best average wins, ties going
    to the smaller C, then the smaller sigma.  The halves are drawn
    per class from Philox streams keyed (seed, r), the extra example of
    an odd class staying in the learning half.
    """
    from scenehog import KernelSpec, map_score, predict, train_one_vs_one

    labels = np.asarray([str(v) for v in labels])
    classes = sorted(set(labels))
    halves = []
    for r in range(n_resample):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, r])))
        learn, val = [], []
        for name in classes:
            idx = np.flatnonzero(labels == name)
            idx = idx[rng.permutation(idx.size)]
            cut = (idx.size + 1) // 2
            learn.append(idx[:cut])
            val.append(idx[cut:])
        learn, val = np.sort(np.concatenate(learn)), np.sort(np.concatenate(val))
        if val.size:
            halves.append((learn, val))

    sigmas = [None] if kernel_kind == "linear" else [float(s) for s in sigma_grid]
    candidates = sorted(
        ((float(c), s) for c in c_grid for s in sigmas),
        key=lambda cs: (cs[0], 0.0 if cs[1] is None else cs[1]),
    )
    best = None
    for c, sigma in candidates:
        spec = KernelSpec("linear") if sigma is None else KernelSpec("gaussian", sigma)
        total = 0.0
        for learn, val in halves:
            model = train_one_vs_one(x[learn], labels[learn], c, spec, classes=classes)
            pred = predict(model, x[val])
            total += map_score(labels[val], pred, classes=classes)
        score = total / len(halves)
        if best is None or score > best[2]:
            best = (c, sigma, score)
    return best


def class_pairs_oracle(codes, classes):
    """svm._class_pairs by one mask per class of each pair: the rows
    whose code is a or b, ascending, labelled +1 for a and -1 for b;
    TrainingError for a pair with an empty class."""
    from scenehog.errors import TrainingError

    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            take_a, take_b = codes == a, codes == b
            if not take_a.any() or not take_b.any():
                raise TrainingError(f"no examples for pair ({classes[a]}, {classes[b]})")
            rows = np.flatnonzero(take_a | take_b)
            yield (a, b), rows, np.where(take_a[rows], 1.0, -1.0)


def vote_oracle(values, pairs, n_classes):
    """Winning class per column of values (one row per pair (a, b)) by
    a plain loop: a vote for a when the value is >= 0 and for b
    otherwise, |value| added to both a and b in the order of pairs;
    most votes win, then the larger weight, then the lower index."""
    winners = []
    for col in range(values.shape[1]):
        votes = [0] * n_classes
        weight = [0.0] * n_classes
        for (a, b), v in zip(pairs, values[:, col].tolist()):
            votes[a if v >= 0 else b] += 1
            weight[a] += abs(v)
            weight[b] += abs(v)
        top = max(votes)
        best = max(w for w, n in zip(weight, votes) if n == top)
        winners.append(
            next(k for k in range(n_classes) if votes[k] == top and weight[k] == best)
        )
    return winners


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
