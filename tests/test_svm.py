import struct
import tracemalloc

import numpy as np
import pytest

from scenehog import (
    BinarySvm,
    KernelSpec,
    Standardizer,
    SvmModel,
    fit_standardizer,
    kernel_matrix,
    load_model,
    model_select,
    predict,
    save_model,
    train_binary,
    train_one_vs_one,
)
from scenehog import svm as svm_module
from scenehog.errors import ConfigError, FormatError, TrainingError

from oracles import (
    class_pairs_oracle,
    model_select_oracle,
    vote_oracle,
    smo_oracle,
    svm_dual_enumerate,
    svm_dual_objective,
    svm_dual_slsqp,
)


def recover_alpha(svm, x):
    """Full length alpha vector, reconstructed by matching support rows."""
    alpha = np.zeros(x.shape[0])
    for row, a in zip(x[svm.support], svm.alpha_signed):
        matches = np.flatnonzero(np.all(x == row, axis=1))
        assert matches.size == 1
        alpha[matches[0]] = abs(a)
    return alpha


def decide(svm, x, probe, spec):
    """Decision values at probe of a machine trained on the rows x."""
    return svm_module._decision(svm, kernel_matrix(x, probe, spec))


def violation_gap(k, y, alpha, c):
    """KKT gap m - M of the dual solution (non-positive at optimality)."""
    grad = (y[:, None] * y[None, :] * k) @ alpha - 1.0
    atol = 1e-12 * max(c, 1.0)
    up = ((alpha < c - atol) & (y > 0)) | ((alpha > atol) & (y < 0))
    low = ((alpha < c - atol) & (y < 0)) | ((alpha > atol) & (y > 0))
    viol = -y * grad
    return viol[up].max() - viol[low].min()


class TestKernelMatrix:
    def test_linear_is_gram(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((5, 3))
        z = rng.standard_normal((4, 3))
        np.testing.assert_allclose(
            kernel_matrix(x, z, KernelSpec("linear")), x @ z.T, rtol=1e-14
        )

    def test_gaussian_values(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        k = kernel_matrix(x, x, KernelSpec("gaussian", sigma=5.0))
        np.testing.assert_allclose(np.diag(k), 1.0, rtol=1e-15)
        np.testing.assert_allclose(k[0, 1], np.exp(-25.0 / 50.0), rtol=1e-14)
        np.testing.assert_allclose(k, k.T, rtol=1e-15)

    def test_gaussian_bounded(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((20, 6))
        k = kernel_matrix(x, x, KernelSpec("gaussian", sigma=0.3))
        assert k.min() >= 0.0 and k.max() <= 1.0 + 1e-15

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            KernelSpec("poly")
        with pytest.raises(ConfigError):
            KernelSpec("gaussian", sigma=0.0)

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sigma_rejected(self, kind, sigma):
        with pytest.raises(ConfigError, match="finite"):
            KernelSpec(kind, sigma=sigma)

    # 1e200 ** 2 raises OverflowError, 2 * 1.3e154 ** 2 rounds to inf,
    # 1e-200 ** 2 underflows to 0 (a NaN Gram diagonal)
    @pytest.mark.parametrize(
        "sigma", [1e200, 1.3e154, 1e-200, np.float64(1e200)],
        ids=["1e200", "1.3e154", "1e-200", "float64-1e200"],
    )
    def test_sigma_without_positive_finite_width_rejected(self, sigma):
        with pytest.raises(ConfigError, match="2 sigma\\^2"):
            KernelSpec("gaussian", sigma=sigma)

    @pytest.mark.parametrize("sigma", [1e150, 1e-150])
    def test_extreme_usable_sigma_accepted(self, sigma):
        x = np.array([[0.0, 1.0], [2.0, 3.0]])
        k = kernel_matrix(x, x, KernelSpec("gaussian", sigma=sigma))
        assert np.all(np.diag(k) == 1.0)

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_composed_of_base_block_and_map(self, kind):
        """kernel_matrix is _kernel_map of _kernel_base, bit for bit,
        and mapping leaves the base block as it was."""
        rng = np.random.default_rng(3)
        x, z = rng.standard_normal((7, 5)), rng.standard_normal((4, 5))
        base = svm_module._kernel_base(x, z, kind)
        before = base.copy()
        for sigma in (0.5, 2.0, 9.0):
            spec = KernelSpec(kind, sigma)
            mapped = svm_module._kernel_map(base, spec)
            assert mapped.tobytes() == kernel_matrix(x, z, spec).tobytes()
        assert base.tobytes() == before.tobytes()

    def test_gaussian_base_is_the_one_shot_expression(self):
        """The gaussian base block takes its row norms a few rows at a
        time and equals the whole-matrix expression bit for bit, for row
        counts around the block size and rows longer than numpy's
        pairwise summation block."""
        rng = np.random.default_rng(11)
        for n, m in ((1, 1), (15, 16), (16, 17), (40, 33), (0, 3)):
            x, z = rng.standard_normal((n, 300)), rng.standard_normal((m, 300))
            sq = np.sum(x * x, axis=1)[:, None] + np.sum(z * z, axis=1)[None, :] - 2.0 * (x @ z.T)
            expected = np.maximum(sq, 0.0)
            assert svm_module._kernel_base(x, z, "gaussian").tobytes() == expected.tobytes()


class TestStandardizer:
    def test_train_statistics_removed(self):
        rng = np.random.default_rng(42)
        x = rng.normal(3.0, 2.5, (40, 6))
        std = fit_standardizer(x)
        z = std.apply(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, rtol=1e-12)

    def test_population_std(self):
        x = np.array([[0.0], [1.0]])
        std = fit_standardizer(x)
        # population standard deviation of {0, 1} is 0.5
        np.testing.assert_allclose(std.std, [0.5], rtol=1e-15)

    def test_constant_column_passes_through(self):
        x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        z = fit_standardizer(x).apply(x)
        np.testing.assert_array_equal(z[:, 0], 0.0)
        assert np.all(np.isfinite(z))

    @pytest.mark.parametrize("block", [4, svm_module._STD_BLOCK])
    @pytest.mark.parametrize("rows", [1, 9, 130])
    def test_blockwise_std_is_numpy_std(self, monkeypatch, block, rows):
        """The column-block deviation pass gives x.std(axis=0) bit for
        bit: widths of one block, of several with a narrow remainder,
        one row, and constant columns."""
        monkeypatch.setattr(svm_module, "_STD_BLOCK", block)
        rng = np.random.default_rng(rows)
        for width in (1, 2, block, block + 1, 2 * block + 1, 12 * block + 3):
            x = rng.normal(0.0, 1.0, (rows, width)) * rng.uniform(0.01, 100.0, width)
            x[:, ::5] = 3.7
            x = x.astype(np.float32).astype(np.float64)
            fitted = fit_standardizer(x)
            expected = x.std(axis=0)
            expected = np.where(expected < svm_module.STD_FLOOR, 1.0, expected)
            assert fitted.std.tobytes() == expected.tobytes()
            assert fitted.mean.tobytes() == x.mean(axis=0).tobytes()

    def test_fit_and_apply_hold_one_matrix_sized_array(self):
        """fit_standardizer holds one block of deviations, not a copy of
        x; apply allocates its output and nothing else of x's size, is
        (x - mean) / std bit for bit and leaves x unchanged."""
        x = np.random.default_rng(7).normal(2.0, 3.0, (300, 1024))
        before = x.copy()
        tracemalloc.start()
        try:
            fitted = fit_standardizer(x)
            _, fit_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            z = fitted.apply(x)
            _, apply_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fit_peak < 0.5 * x.nbytes
        assert apply_peak < 1.1 * x.nbytes
        assert z.tobytes() == ((x - fitted.mean) / fitted.std).tobytes()
        assert x.tobytes() == before.tobytes()


class TestBinarySvm:
    def test_two_point_analytic(self):
        """Points -1 and +1 with C >= 0.5: f(x) = x, zero bias."""
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        svm = train_binary(x, y, 10.0, KernelSpec("linear"))
        assert svm.bias == pytest.approx(0.0, abs=1e-9)
        grid = np.array([[-2.0], [0.0], [0.5], [3.0]])
        np.testing.assert_allclose(
            decide(svm, x, grid, KernelSpec("linear")), grid.ravel(), atol=1e-9
        )
        alpha = recover_alpha(svm, x)
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-9)

    def test_xor_with_gaussian_kernel(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        spec = KernelSpec("gaussian", sigma=0.7)
        svm = train_binary(x, y, 100.0, spec)
        assert np.all(np.sign(decide(svm, x, x, spec)) == y)

    def test_decision_formula(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((14, 3))
        y = np.where(rng.random(14) < 0.5, -1.0, 1.0)
        y[:2] = (-1.0, 1.0)
        spec = KernelSpec("gaussian", sigma=2.0)
        svm = train_binary(x, y, 5.0, spec)
        probe = rng.standard_normal((6, 3))
        k = kernel_matrix(probe, x[svm.support], spec)
        np.testing.assert_allclose(
            decide(svm, x, probe, spec), k @ svm.alpha_signed + svm.bias, rtol=1e-12
        )

    def test_objective_matches_slsqp_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(6):
            n = int(rng.integers(6, 13))
            x = rng.standard_normal((n, 3))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            y[:2] = (-1.0, 1.0)
            c = float(rng.choice([0.1, 1.0, 10.0]))
            spec = KernelSpec("linear") if trial % 2 else KernelSpec("gaussian", sigma=1.5)
            k = kernel_matrix(x, x, spec)
            svm = train_binary(x, y, c, spec)
            alpha = recover_alpha(svm, x)
            mine = svm_dual_objective(k, y, alpha)
            _, best = svm_dual_slsqp(k, y, c)
            assert mine == pytest.approx(best, rel=1e-4, abs=1e-8)
            assert violation_gap(k, y, alpha, c) <= 1e-3 + 1e-9

    def test_objective_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        c = 2.0
        spec = KernelSpec("linear")
        k = kernel_matrix(x, x, spec)
        svm = train_binary(x, y, c, spec)
        mine = svm_dual_objective(k, y, recover_alpha(svm, x))
        best = svm_dual_enumerate(k, y, c)
        assert mine == pytest.approx(best, rel=1e-6, abs=1e-9)

    def test_alpha_within_box_and_balanced(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((20, 4))
        y = np.where(x[:, 0] + 0.3 * rng.standard_normal(20) > 0, 1.0, -1.0)
        y[:2] = (-1.0, 1.0)
        c = 1.0
        svm = train_binary(x, y, c, KernelSpec("linear"))
        alpha = recover_alpha(svm, x)
        assert alpha.min() >= 0.0 and alpha.max() <= c + 1e-12
        assert (alpha * y).sum() == pytest.approx(0.0, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((16, 3))
        y = np.where(rng.random(16) < 0.5, -1.0, 1.0)
        y[:2] = (-1.0, 1.0)
        a = train_binary(x, y, 3.0, KernelSpec("gaussian", sigma=1.0))
        b = train_binary(x, y, 3.0, KernelSpec("gaussian", sigma=1.0))
        np.testing.assert_array_equal(a.alpha_signed, b.alpha_signed)
        assert a.bias == b.bias

    def test_input_validation(self):
        x = np.array([[0.0], [1.0]])
        with pytest.raises(TrainingError):
            train_binary(x, np.array([1.0, 1.0]), 1.0, KernelSpec("linear"))
        with pytest.raises(TrainingError):
            train_binary(x, np.array([0.0, 1.0]), 1.0, KernelSpec("linear"))
        with pytest.raises(ConfigError):
            train_binary(x, np.array([-1.0, 1.0]), 0.0, KernelSpec("linear"))

    def test_solver_bit_identical_to_oracle(self):
        """The maintained violation vector reproduces the recompute-everything
        loop exactly: same alpha bits, bias bits and iteration count."""
        rng = np.random.default_rng(42)
        for trial in range(120):
            n = int(rng.integers(2, 41))
            x = rng.standard_normal((n, int(rng.integers(1, 6))))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            y[:2] = (-1.0, 1.0)
            c = float(10.0 ** rng.uniform(-3.0, 2.0))
            spec = (
                KernelSpec("linear") if trial % 2
                else KernelSpec("gaussian", sigma=float(10.0 ** rng.uniform(-0.5, 1.0)))
            )
            k = kernel_matrix(x, x, spec)
            alpha, bias, it = svm_module._smo(k, y, c, 1e-3, 10**6)
            want_alpha, want_bias, want_it = smo_oracle(k, y, c, 1e-3, 10**6)
            assert alpha.tobytes() == want_alpha.tobytes()
            assert np.float64(bias).tobytes() == np.float64(want_bias).tobytes()
            assert it == want_it

    def test_both_solver_loops_bit_identical_to_oracle(self):
        """Sizes on both sides of SMALL_N, so the list loop and the NumPy
        loop each reproduce the oracle's alpha bits, bias bits and
        iteration count."""
        small = svm_module.SMALL_N
        rng = np.random.default_rng(7)
        sizes = [2, 3, small - 1, small, small + 1, 2 * small]
        sizes += [int(v) for v in rng.integers(2, 2 * small + 1, 14)]
        for trial, n in enumerate(sizes * 2):
            x = rng.standard_normal((n, int(rng.integers(1, 6))))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            y[:2] = (-1.0, 1.0)
            c = float(10.0 ** rng.uniform(-3.0, 2.0))
            spec = (
                KernelSpec("linear") if trial < len(sizes)
                else KernelSpec("gaussian", sigma=float(10.0 ** rng.uniform(-0.5, 1.0)))
            )
            k = kernel_matrix(x, x, spec)
            alpha, bias, it = svm_module._smo(k, y, c, 1e-3, 10**6)
            want_alpha, want_bias, want_it = smo_oracle(k, y, c, 1e-3, 10**6)
            assert alpha.tobytes() == want_alpha.tobytes(), (n, spec.kind)
            assert np.float64(bias).tobytes() == np.float64(want_bias).tobytes()
            assert it == want_it

    @pytest.mark.parametrize("small_n", [10**6, 0], ids=["lists", "arrays"])
    def test_stalled_solve_raises(self, monkeypatch, small_n):
        """The first step of this problem rounds below atol, so alpha
        cannot move while the gap m - M is 2; both loops say so."""
        monkeypatch.setattr(svm_module, "SMALL_N", small_n)
        k = np.diag([1e20, 1e20])
        y = np.array([1.0, -1.0])
        with pytest.raises(TrainingError, match="pinned at the box.*gap m - M = 2"):
            svm_module._smo(k, y, 1.0, 1e-3, 10**6)
        with pytest.raises(TrainingError, match="tolerance"):
            train_binary(np.zeros((2, 1)), y, 1.0, KernelSpec("linear"), gram=k)

    @pytest.mark.parametrize("small_n", [10**6, 0], ids=["lists", "arrays"])
    def test_iteration_cap_reports_gap(self, monkeypatch, small_n):
        monkeypatch.setattr(svm_module, "SMALL_N", small_n)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 3))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        k = kernel_matrix(x, x, KernelSpec("linear"))
        with pytest.raises(TrainingError, match=r"1 iterations \(gap m - M = "):
            svm_module._smo(k, y, 10.0, 1e-3, 1)

    def test_given_gram_is_bit_identical(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((15, 4))
        y = np.where(rng.random(15) < 0.5, -1.0, 1.0)
        y[:2] = (-1.0, 1.0)
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", sigma=2.0)):
            plain = train_binary(x, y, 2.0, spec)
            given = train_binary(x, y, 2.0, spec, gram=kernel_matrix(x, x, spec))
            assert given.alpha_signed.tobytes() == plain.alpha_signed.tobytes()
            assert given.bias == plain.bias
            np.testing.assert_array_equal(given.support, plain.support)

    def test_gram_without_rows_is_bit_identical(self):
        """With a gram the solve never reads x, so x=None gives the
        machine and solve record of the call with rows, bit for bit."""
        rng = np.random.default_rng(43)
        for n in (9, svm_module.SMALL_N + 5):
            x, y = separable(rng, n)
            for spec in (KernelSpec("linear"), KernelSpec("gaussian", sigma=2.0)):
                gram = kernel_matrix(x, x, spec)
                want = train_binary(x, y, 3.0, spec, gram=gram)
                got = train_binary(None, y, 3.0, spec, gram=gram)
                assert_same_solve(got, want)
                assert got.solve == want.solve

    def test_rows_required_without_gram(self):
        with pytest.raises(ConfigError, match="needs the feature rows"):
            train_binary(None, np.array([1.0, -1.0]), 1.0, KernelSpec("linear"))

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_c_rejected(self, c):
        x = np.array([[0.0], [1.0]])
        with pytest.raises(ConfigError, match="finite"):
            train_binary(x, np.array([-1.0, 1.0]), c, KernelSpec("linear"))

    def test_bias_mean_bit_identical_to_numpy(self):
        """The bias tail averages the free values as np.mean does, bit
        for bit, at every count, signed zeros included."""
        rng = np.random.default_rng(8)
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e200, -1e200]
        for count in range(1, 12):
            for trial in range(200):
                if trial % 4 == 0:
                    free = rng.choice(specials, count)
                elif trial % 4 == 1:
                    free = np.full(count, rng.choice([0.0, -0.0]))
                elif trial % 4 == 2:
                    free = rng.standard_normal(count) * 10.0 ** rng.uniform(-20, 20, count)
                else:
                    free = rng.standard_normal(count)
                # bound entries are free in one direction only and drop out
                f = np.concatenate([free, rng.standard_normal(3)])
                up = [True] * count + [True, False, False]
                low = [True] * count + [False, True, False]
                order = rng.permutation(f.size)
                got = svm_module._bias(
                    f[order].tolist(), [up[t] for t in order], [low[t] for t in order]
                )
                want = np.mean(f[order][np.asarray(up)[order] & np.asarray(low)[order]])
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (count, free)

    def test_gram_of_wrong_shape_rejected(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([-1.0, 1.0, 1.0])
        spec = KernelSpec("linear")
        with pytest.raises(ConfigError):
            train_binary(x, y, 1.0, spec, gram=kernel_matrix(x[:2], x[:2], spec))
        with pytest.raises(ConfigError):
            train_binary(x, y, 1.0, spec, gram=kernel_matrix(x, x[:2], spec))


def three_blobs(n=12, seed=42):
    rng = np.random.default_rng(seed)
    centers = {"a": (0.0, 0.0), "b": (6.0, 0.0), "c": (0.0, 6.0)}
    xs, labels = [], []
    for name, (cx, cy) in centers.items():
        xs.append(rng.normal((cx, cy), 0.4, (n, 2)))
        labels += [name] * n
    return np.vstack(xs), np.asarray(labels)


def four_blobs(n=8, seed=42):
    """Four overlapping classes, so validation scores differ across C."""
    rng = np.random.default_rng(seed)
    centers = {"a": (0.0, 0.0), "b": (2.0, 0.0), "c": (0.0, 2.0), "d": (2.0, 2.0)}
    xs, labels = [], []
    for name, center in centers.items():
        xs.append(rng.normal(center, 0.9, (n, 2)))
        labels += [name] * n
    return np.vstack(xs), np.asarray(labels)


def wide_blobs(n=8, dim=1024, seed=42):
    """Eight overlapping classes of n rows in dim dimensions.  BLAS can
    tile a product over a whole learning half and one over a pair's rows
    differently, so at this size sliced kernel entries may differ from
    per-pair blocks in the last bit."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 0.2, (8, dim))
    x = np.vstack([center + rng.normal(0.0, 1.0, (n, dim)) for center in centers])
    return x, np.repeat([f"k{i}" for i in range(8)], n)


def count_calls(monkeypatch, name):
    """A list that gains one entry per call of svm.<name> from now on."""
    calls = []
    real = getattr(svm_module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(svm_module, name, counted)
    return calls


def separable(rng, n):
    """n rows labelled by a random hyperplane, both classes present."""
    while True:
        x = rng.standard_normal((n, int(rng.integers(1, 5))))
        y = np.where(x @ rng.standard_normal(x.shape[1]) > 0, 1.0, -1.0)
        if abs(y.sum()) < n:
            return x, y


def solve_or_none(*args, **kwargs):
    try:
        return train_binary(*args, **kwargs)
    except TrainingError:
        return None


def assert_same_solve(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got.alpha_signed.tobytes() == want.alpha_signed.tobytes()
        assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
        np.testing.assert_array_equal(got.support, want.support)
        assert got.solve.iterations == want.solve.iterations
        assert got.c == want.c


def atol_of(c):
    return 1e-12 * max(c, 1.0)


def assert_meets_stopping_rule(machine, alpha, gram, y):
    """machine carries alpha, the whole alpha of a solve at another C,
    to its own C: its support is alpha > atol there, and m - M
    recomputed from the Gram with that C's masks is within tol = 1e-3
    (plus rounding)."""
    c = machine.c
    np.testing.assert_array_equal(machine.support, np.flatnonzero(alpha > atol_of(c)))
    assert machine.alpha_signed.tobytes() == (alpha * y)[machine.support].tobytes()
    assert violation_gap(gram, y, alpha, c) <= 1e-3 + 1e-9


# costs around 1, around the bounds' atol floor and around 0 < C - atol
EDGE_COSTS = [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1e-13, 5e-13, 1e-12, 2e-12, 1e-3, 0.1, 10.0, 1e3]


class TestSolveReuse:
    @pytest.mark.parametrize(
        "sizes, trials", [((2, 25), 24), ((svm_module.SMALL_N + 1, svm_module.SMALL_N + 13), 6)],
        ids=["lists", "arrays"],
    )
    def test_reused_machine_equals_fresh_solve(self, sizes, trials):
        """Walking ascending, shuffled and duplicated grids with each
        machine as the next one's prior, a prior is reused exactly when
        holds_at holds on its returned alpha; every other machine has the
        bits of a fresh solve (or the same TrainingError), and a reused
        one meets the stopping rule at its own C, recomputed from the
        Gram.  The grids hold costs at the hard-margin largest alpha
        x (1 +- 1e-9, 1 +- 1e-15)."""
        rng = np.random.default_rng(11)
        reused = 0
        for trial in range(trials):
            x, y = separable(rng, int(rng.integers(*sizes)))
            spec = (
                KernelSpec("linear") if trial % 2
                else KernelSpec("gaussian", sigma=float(10.0 ** rng.uniform(-0.5, 1.0)))
            )
            gram = kernel_matrix(x, x, spec)
            amax = train_binary(x, y, 1e6, spec, gram=gram).solve.amax
            grid = EDGE_COSTS + [amax * f for f in (1 - 1e-9, 1 + 1e-9, 1 - 1e-15, 1 + 1e-15, 1.0)]
            for walk in (sorted(grid), list(rng.permutation(grid)), sorted(grid + grid[::3])):
                prior = None
                for c in walk:
                    got = solve_or_none(x, y, c, spec, gram=gram, prior=prior)
                    if prior is not None and prior.solve.holds_at(prior.c, c):
                        assert got.alpha_signed is prior.alpha_signed
                        assert not got.alpha_signed.flags.writeable
                        assert (got.bias, got.c) == (prior.bias, c)
                        assert_meets_stopping_rule(got, alpha, gram, y)
                        reused += 1
                    else:
                        if prior is not None and got is not None:
                            assert got.alpha_signed is not prior.alpha_signed
                        assert_same_solve(got, solve_or_none(x, y, c, spec, gram=gram))
                        if got is not None:
                            # the whole alpha of this solve, for the machines reusing it
                            alpha = svm_module._smo(gram, y, c, 1e-3, 10**6)[0]
                    if got is not None:
                        prior = got
        assert reused >= 2 * trials, reused

    def test_atol_band_blocks_reuse(self):
        """Multipliers near 1e-10 sit on either side of atol = 1e-12
        max(C, 1) as C moves.  A prior is reused only while every alpha
        above its atol stays above the new one, and never at a C whose
        atol is smaller: an alpha at or below its own atol may lie above
        the smaller one.  A reused machine meets the stopping rule at
        its C; any other has a fresh solve's bits."""
        rng = np.random.default_rng(5)
        ascending = descending = 0
        for trial in range(60):
            x, y = separable(rng, int(rng.integers(3, 12)))
            spec = KernelSpec("linear")
            gram = kernel_matrix(x, x, spec) * 10.0 ** rng.uniform(8.0, 10.0)
            for c_prior in (1.0, 300.0):
                prior = solve_or_none(x, y, c_prior, spec, gram=gram)
                if prior is None:
                    continue
                alpha = svm_module._smo(gram, y, c_prior, 1e-3, 10**6)[0]
                for c in (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 1e4):
                    got = solve_or_none(x, y, c, spec, gram=gram, prior=prior)
                    if got is not None and got.alpha_signed is prior.alpha_signed:
                        assert_meets_stopping_rule(got, alpha, gram, y)
                    else:
                        assert_same_solve(got, solve_or_none(x, y, c, spec, gram=gram))
                    # count the cases where only the atol test stands
                    # between the prior and a support that is wrong at c
                    if prior.solve.amax < min(c - atol_of(c), c_prior - atol_of(c_prior)):
                        support = np.flatnonzero(alpha > atol_of(c))
                        moved = support.tobytes() != prior.support.tobytes()
                        ascending += moved and c > c_prior
                        descending += moved and c < c_prior
        assert ascending > 10 and descending > 10, (ascending, descending)

    def test_prior_without_room_is_not_reused(self):
        """At C = 1e-13, C - atol < 0 and the solve stops at alpha = 0
        without a step; that says nothing about C = 1."""
        rng = np.random.default_rng(6)
        x, y = separable(rng, 8)
        spec = KernelSpec("linear")
        gram = kernel_matrix(x, x, spec)
        prior = train_binary(x, y, 1e-13, spec, gram=gram)
        assert prior.solve.iterations == 0 and prior.alpha_signed.size == 0
        got = train_binary(x, y, 1.0, spec, gram=gram, prior=prior)
        assert_same_solve(got, train_binary(x, y, 1.0, spec, gram=gram))
        assert got.alpha_signed.size > 0

    @pytest.mark.parametrize("small_n", [10**6, 0], ids=["lists", "arrays"])
    def test_solve_records_returned_alpha_extremes(self, monkeypatch, small_n):
        """Two points, K = I: the hard-margin solution sets both alphas
        to 1.  The record holds the returned alpha's largest value and
        its smallest above atol, and a solve whose alpha reaches
        C - atol (clipped at C or snapped onto it) is never carried to
        another C."""
        monkeypatch.setattr(svm_module, "SMALL_N", small_n)
        y = np.array([1.0, -1.0])

        def solve(c):
            return train_binary(None, y, c, KernelSpec("linear"), gram=np.eye(2)).solve

        free = solve(2.0)
        assert (free.amax, free.amin) == (1.0, 1.0)
        assert free.holds_at(2.0, 3.0) and free.holds_at(2.0, 1e3)
        assert not free.holds_at(2.0, 1.5)        # a smaller atol
        assert not free.holds_at(2.0, 1.0)        # alpha at C
        for c in (0.5, 1.0 + 1e-13):              # clipped at C; within atol of C, snapped
            at_box = solve(c)
            assert (at_box.amax, at_box.amin) == (c, c)
            assert not at_box.holds_at(c, 2.0 * c)
        empty = solve(1e-13)                      # C - atol < 0: no step
        assert (empty.amax, empty.amin) == (0.0, np.inf)
        assert not empty.holds_at(1e-13, 1.0)

    def test_prior_from_another_problem_ignored(self):
        rng = np.random.default_rng(9)
        x, y = separable(rng, 10)
        spec = KernelSpec("linear")
        gram = kernel_matrix(x, x, spec)
        prior = train_binary(x, y, 1e3, spec, gram=gram)
        # the solve never reads x, so other rows (or none) with the same
        # gram object are the same problem
        for rows in (x, x.copy(), None):
            got = train_binary(rows, y, 2e3, spec, gram=gram, prior=prior)
            assert got.alpha_signed is prior.alpha_signed
            assert_same_solve(got, train_binary(x, y, 2e3, spec, gram=gram))
        others = [
            (x, y, dict(gram=gram.copy())),
            (x, y, dict()),
            (x, y, dict(gram=gram, tol=1e-4)),
            (x, y, dict(gram=gram, max_iter=10**6)),
            (x, -y, dict(gram=gram)),
        ]
        for rows, labels, kwargs in others:
            got = train_binary(rows, labels, 2e3, spec, prior=prior, **kwargs)
            assert got.alpha_signed is not prior.alpha_signed
            assert_same_solve(got, train_binary(rows, labels, 2e3, spec, **kwargs))
        other_spec = KernelSpec("gaussian", sigma=1.0)
        got = train_binary(x, y, 2e3, other_spec, gram=gram, prior=prior)
        assert got.alpha_signed is not prior.alpha_signed

    def test_reuse_checks_only_the_new_cost(self, monkeypatch):
        """A matching prior's labels, rows and gram were checked when it
        was solved, so reuse counts no labels; a fresh solve still runs
        every check, and an invalid C is refused with or without a prior."""
        rng = np.random.default_rng(12)
        x, y = separable(rng, 10)
        spec = KernelSpec("linear")
        gram = kernel_matrix(x, x, spec)
        prior = train_binary(x, y, 1e3, spec, gram=gram)
        counted = []
        real = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda a: counted.append(1) or real(a))
        got = train_binary(x, y, 2e3, spec, gram=gram, prior=prior)
        assert got.alpha_signed is prior.alpha_signed and counted == []
        assert_same_solve(got, train_binary(x, y, 2e3, spec, gram=gram))
        assert len(counted) == 2
        for c in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="C must be"):
                train_binary(x, y, c, spec, gram=gram, prior=prior)

    def test_prior_without_gram_not_reused(self):
        """A prior solved on its own kernel matrix holds a dead reference
        to it, which never matches a call that passes no gram either."""
        rng = np.random.default_rng(13)
        x, y = separable(rng, 10)
        spec = KernelSpec("linear")
        prior = train_binary(x, y, 1e3, spec)
        assert prior.solve.gram() is None
        got = train_binary(x, y, 2e3, spec, prior=prior)
        assert got.alpha_signed is not prior.alpha_signed
        assert_same_solve(got, train_binary(x, y, 2e3, spec))


def unit_machine(row):
    """A linear machine of zero bias whose one support vector, of
    alpha_signed 1, is the given row of its model's support vectors."""
    return BinarySvm(np.array([row]), np.array([1.0]), 0.0, KernelSpec("linear"), 1.0)


class TestOneVsOne:
    def test_separable_three_class(self):
        x, labels = three_blobs()
        model = train_one_vs_one(x, labels, 10.0, KernelSpec("linear"))
        assert model.classes == ["a", "b", "c"]
        assert set(model.machines) == {(0, 1), (0, 2), (1, 2)}
        np.testing.assert_array_equal(predict(model, x), labels)

    def test_new_points_classified_by_nearest_blob(self):
        x, labels = three_blobs()
        model = train_one_vs_one(x, labels, 10.0, KernelSpec("linear"))
        probes = np.array([[0.5, -0.2], [6.2, 0.4], [-0.3, 5.8]])
        np.testing.assert_array_equal(
            predict(model, probes), ["a", "b", "c"]
        )

    def test_standardizer_applied_at_predict(self):
        x, labels = three_blobs()
        std = fit_standardizer(x)
        model = train_one_vs_one(
            x=std.apply(x), labels=labels, c=10.0,
            kernel=KernelSpec("linear"), standardizer=std,
        )
        np.testing.assert_array_equal(predict(model, x), labels)

    def test_vote_tie_broken_by_decision_weight(self):
        """A hand built 3 cycle of machines gives every class one vote;
        the summed |decision| picks the winner."""
        # at x = 1: f01 = +1 (votes 0), f12 = +2 (votes 1), f02 = -4 (votes 2)
        model = SvmModel(
            classes=["p", "q", "r"],
            machines={(0, 1): unit_machine(0), (1, 2): unit_machine(1), (0, 2): unit_machine(2)},
            support_vectors=np.array([[1.0], [2.0], [-4.0]]),
        )
        # weights: p gets 1+4, q gets 1+2, r gets 2+4 -> r wins
        assert predict(model, np.array([[1.0]]))[0] == "r"

    def test_vote_and_weight_tie_goes_to_lowest_class(self):
        """Every class gets one vote and the same |decision| sum; the
        lowest class index wins."""
        # at x = 1: f01 = +1 (votes 0), f12 = +1 (votes 1), f02 = -1 (votes 2)
        # at x = -1 every sign flips: f01 votes 1, f12 votes 2, f02 votes 0
        model = SvmModel(
            classes=["p", "q", "r"],
            machines={(0, 1): unit_machine(0), (1, 2): unit_machine(0), (0, 2): unit_machine(1)},
            support_vectors=np.array([[1.0], [-1.0]]),
        )
        probes = np.array([[1.0], [-1.0]])
        np.testing.assert_array_equal(predict(model, probes), ["p", "p"])

    def test_vote_matches_pair_order_oracle(self):
        """Votes and |decision| weights, summed in the order of pairs,
        pick the same winners as a plain loop; values repeat so that
        vote and weight ties are common."""
        rng = np.random.default_rng(12)
        for trial in range(60):
            n_classes = int(rng.integers(2, 7))
            pairs = [(a, b) for a in range(n_classes) for b in range(a + 1, n_classes)]
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
            if trial % 2:
                values = rng.choice([-0.3, -0.1, 0.0, 0.1, 0.2, 0.3], (len(pairs), 9))
            else:
                values = rng.standard_normal((len(pairs), 9))
            got = svm_module._vote(values, pairs, n_classes)
            np.testing.assert_array_equal(got, vote_oracle(values, pairs, n_classes))

    def test_class_pairs_match_per_pair_masks(self):
        """Pairs built from each class's member list equal the per pair
        mask definition, rows with code -1 (in no class) included, and an
        empty class raises at the first pair that needs it."""
        rng = np.random.default_rng(14)
        for trial in range(40):
            n_classes = int(rng.integers(2, 7))
            codes = rng.integers(-1, n_classes, int(rng.integers(1, 40)))
            if trial % 3 == 0:
                codes[codes == rng.integers(n_classes)] = -1
            classes = [f"k{a}" for a in range(n_classes)]
            got, want = [], []
            for out, pairs in ((got, svm_module._class_pairs), (want, class_pairs_oracle)):
                try:
                    for pair, rows, y in pairs(codes, classes):
                        out.append((pair, rows.tolist(), y.tobytes()))
                except TrainingError as exc:
                    out.append(str(exc))
            assert got == want

    def test_labels_outside_classes_in_no_pair(self, monkeypatch):
        """With classes given, a label outside them gets code -1, so its
        rows are in no pair and no machine keeps them."""
        x, labels = four_blobs()
        known = labels != "d"
        seen = []
        real = svm_module._class_pairs
        monkeypatch.setattr(
            svm_module, "_class_pairs",
            lambda codes, classes: seen.append(codes) or real(codes, classes),
        )
        model = train_one_vs_one(x, labels, 1.0, KernelSpec("linear"), classes=["c", "a", "b"])
        (codes,) = seen
        np.testing.assert_array_equal(codes[~known], -1)
        np.testing.assert_array_equal(
            np.asarray(["c", "a", "b"])[codes[known]], labels[known]
        )
        assert not any((model.support_vectors == row).all(axis=1).any() for row in x[~known])

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(TrainingError):
            train_one_vs_one(x, np.array(["a"] * 4), 1.0, KernelSpec("linear"))

    def test_missing_pair_examples_rejected(self):
        x = np.zeros((4, 2))
        labels = np.array(["a", "a", "b", "b"])
        with pytest.raises(TrainingError):
            train_one_vs_one(x, labels, 1.0, KernelSpec("linear"), classes=["a", "b", "c"])

    @pytest.mark.parametrize(
        "spec", [KernelSpec("linear"), KernelSpec("gaussian", 2.0)], ids=["linear", "gaussian"]
    )
    def test_one_kernel_matrix_per_training_set(self, monkeypatch, spec):
        calls = count_calls(monkeypatch, "kernel_matrix")
        x, labels = four_blobs()
        model = train_one_vs_one(x, labels, 1.0, spec)
        assert len(calls) == 1
        assert len(model.machines) == 6

    @pytest.mark.parametrize(
        "spec", [KernelSpec("linear"), KernelSpec("gaussian", 2.0)], ids=["linear", "gaussian"]
    )
    def test_one_kernel_matrix_per_predict(self, monkeypatch, spec):
        x, labels = four_blobs()
        model = train_one_vs_one(x, labels, 1.0, spec)
        calls = count_calls(monkeypatch, "kernel_matrix")
        for probes in (x, x[:1]):
            calls.clear()
            predict(model, probes)
            assert len(calls) == 1

    def test_support_vectors_stored_once(self):
        """Each training row some machine keeps is stored once, in
        training order, in memory of the model's own, and every machine
        indexes its support vectors there in ascending order."""
        x, labels = four_blobs()
        spec = KernelSpec("linear")
        gram = kernel_matrix(x, x, spec)
        for c in (0.01, 1.0, 100.0):
            model = train_one_vs_one(x, labels, c, spec)
            used = set()
            for (a, b), m in model.machines.items():
                rows = np.flatnonzero(np.isin(labels, [model.classes[a], model.classes[b]]))
                y = np.where(labels[rows] == model.classes[a], 1.0, -1.0)
                alone = train_binary(x[rows], y, c, spec, gram=gram[np.ix_(rows, rows)])
                kept = rows[alone.support]
                assert m.alpha_signed.tobytes() == alone.alpha_signed.tobytes()
                assert np.all(np.diff(m.support) > 0)
                np.testing.assert_array_equal(model.support_vectors[m.support], x[kept])
                used |= set(kept.tolist())
            np.testing.assert_array_equal(model.support_vectors, x[sorted(used)])
            assert model.support_vectors.flags.owndata
            assert not np.shares_memory(model.support_vectors, x)

    def test_machine_without_support_vectors_scores_its_bias(self, monkeypatch):
        """At C = 1e-13 no multiplier can leave 0, so every machine keeps
        no support vector and its decision value is its bias."""
        x, labels = three_blobs()
        model = train_one_vs_one(x, labels, 1e-13, KernelSpec("linear"))
        assert model.support_vectors.shape == (0, 2)
        assert all(m.alpha_signed.size == 0 for m in model.machines.values())
        voted = []
        real = svm_module._vote
        monkeypatch.setattr(
            svm_module, "_vote", lambda values, *rest: voted.append(values) or real(values, *rest)
        )
        predict(model, x[:5])
        want = [np.full(5, m.bias) for m in model.machines.values()]
        assert voted[0].tobytes() == np.asarray(want).tobytes()


class TestModelSelect:
    def test_perfect_validation_on_separable_data(self):
        x, labels = three_blobs(n=8)
        c, sigma, score = model_select(x, labels, "linear", seed=7)
        assert sigma is None
        assert score == pytest.approx(1.0)
        assert c in set(10.0 ** np.linspace(-3, 2, 10))

    def test_ties_prefer_smaller_c(self):
        # both classes are separated by a huge margin, every C wins:
        # the reported C must be the grid minimum
        x = np.vstack([np.full((6, 2), -10.0), np.full((6, 2), 10.0)])
        x += np.random.default_rng(42).normal(0.0, 0.1, x.shape)
        labels = np.asarray(["neg"] * 6 + ["pos"] * 6)
        c, _, score = model_select(x, labels, "linear", seed=3)
        assert score == pytest.approx(1.0)
        assert c == pytest.approx(1e-3)

    def test_gaussian_grid_searched(self):
        x, labels = three_blobs(n=6)
        c, sigma, score = model_select(
            x, labels, "gaussian",
            c_grid=np.array([1.0, 10.0]), sigma_grid=(1.0, 5.0), seed=1,
        )
        assert sigma in (1.0, 5.0)
        assert score > 0.8

    def test_deterministic_for_fixed_seed(self):
        x, labels = three_blobs(n=6)
        a = model_select(x, labels, "linear", seed=11)
        b = model_select(x, labels, "linear", seed=11)
        assert a == b

    def test_unknown_kernel_rejected(self):
        x, labels = three_blobs(n=4)
        with pytest.raises(ConfigError):
            model_select(x, labels, "cubic")

    @pytest.mark.parametrize(
        "kernel_kind, sigma_grid, blobs",
        [
            pytest.param("linear", None, four_blobs, id="linear-None"),
            pytest.param("gaussian", (0.5, 2.0, 8.0), four_blobs, id="gaussian-sigma_grid1"),
            pytest.param("linear", None, wide_blobs, id="linear-wide"),
            pytest.param("gaussian", (20.0, 50.0), wide_blobs, id="gaussian-wide"),
        ],
    )
    def test_matches_retrain_from_scratch_oracle(self, kernel_kind, sigma_grid, blobs):
        x, labels = blobs()
        c_grid = 10.0 ** np.linspace(-3.0, 2.0, 6)
        got = model_select(
            x, labels, kernel_kind, c_grid=c_grid, sigma_grid=sigma_grid, seed=5
        )
        want = model_select_oracle(x, labels, kernel_kind, c_grid, sigma_grid, 5, 5)
        assert got == want

    @pytest.mark.parametrize(
        "kernel_kind, sigma_grid", [("linear", None), ("gaussian", (0.5, 2.0, 8.0))]
    )
    def test_shuffled_c_grid_matches_sorted_and_oracle(self, kernel_kind, sigma_grid):
        x, labels = four_blobs()
        c_grid = 10.0 ** np.linspace(-3.0, 2.0, 6)
        shuffled = c_grid[[3, 0, 5, 1, 4, 2]]
        got = model_select(
            x, labels, kernel_kind, c_grid=shuffled, sigma_grid=sigma_grid, seed=5
        )
        assert got == model_select(
            x, labels, kernel_kind, c_grid=c_grid, sigma_grid=sigma_grid, seed=5
        )
        assert got == model_select_oracle(x, labels, kernel_kind, shuffled, sigma_grid, 5, 5)

    @pytest.mark.parametrize(
        "kernel_kind, sigma_grid, n_sigma", [("linear", (1.0, 2.0), 1), ("gaussian", (1.0, 2.0), 2)]
    )
    def test_one_machine_per_candidate_half_and_pair(
        self, monkeypatch, kernel_kind, sigma_grid, n_sigma
    ):
        calls = []
        real = svm_module.train_binary

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(svm_module, "train_binary", counted)
        x, labels = four_blobs()
        model_select(
            x, labels, kernel_kind, c_grid=np.array([0.1, 1.0, 10.0]),
            sigma_grid=sigma_grid, n_resample=3, seed=2,
        )
        assert len(calls) == 3 * n_sigma * 3 * 6   # |C| |sigma| halves pairs

    @pytest.mark.parametrize(
        "kernel_kind, sigma_grid, n_sigma", [("linear", (1.0, 2.0), 1), ("gaussian", (1.0, 2.0), 2)]
    )
    def test_one_vote_per_half_and_sigma(self, monkeypatch, kernel_kind, sigma_grid, n_sigma):
        """Each (half, sigma) votes once, on every pair's decision values
        of every C side by side: one column per (C, validation row)."""
        voted = []
        real = svm_module._vote
        monkeypatch.setattr(
            svm_module, "_vote",
            lambda values, *rest: voted.append(values.shape) or real(values, *rest),
        )
        x, labels = four_blobs()
        model_select(
            x, labels, kernel_kind, c_grid=np.array([0.1, 1.0, 10.0]),
            sigma_grid=sigma_grid, n_resample=3, seed=2,
        )
        # 8 rows per class: 4 learn and 4 validate, 16 validation rows
        assert voted == [(6, 3 * 16)] * (3 * n_sigma)

    @pytest.mark.parametrize("kernel_kind, sigma_grid", [("linear", None), ("gaussian", (1.0, 4.0))])
    def test_classes_taken_in_name_order(self, kernel_kind, sigma_grid):
        """Twelve classes named by numbers: "10" sorts before "2", which
        decides the order of the per class draws and of vote ties."""
        rng = np.random.default_rng(3)
        labels = np.repeat(np.arange(12), 4)
        x = rng.normal(0.0, 1.0, (labels.size, 3)) + labels[:, None] % 3
        c_grid = np.array([0.01, 1.0, 100.0])
        got = model_select(x, labels, kernel_kind, c_grid=c_grid, sigma_grid=sigma_grid, seed=4)
        assert got == model_select(
            x, labels.astype(str), kernel_kind, c_grid=c_grid, sigma_grid=sigma_grid, seed=4
        )
        assert got == model_select_oracle(x, labels, kernel_kind, c_grid, sigma_grid, 5, 4)

    @pytest.mark.parametrize(
        "kernel_kind, sigma_grid",
        [("linear", (1.0, 2.0)), ("gaussian", (1.0, 2.0)), ("gaussian", (0.5, 1.0, 2.0, 4.0, 8.0))],
    )
    def test_two_base_blocks_per_half(self, monkeypatch, kernel_kind, sigma_grid):
        """One sigma-free block of the learning half and one against the
        validation half, for any number of sigma values; each sigma only
        maps them, and no kernel matrix is computed from scratch."""
        bases = count_calls(monkeypatch, "_kernel_base")
        grams = count_calls(monkeypatch, "kernel_matrix")
        x, labels = four_blobs()
        model_select(
            x, labels, kernel_kind, c_grid=np.array([0.1, 1.0, 10.0]),
            sigma_grid=sigma_grid, n_resample=3, seed=2,
        )
        assert len(bases) == 2 * 3   # Gram and block, halves
        assert not grams

    @pytest.mark.parametrize("kernel_kind", ["linear", "gaussian"])
    def test_blocks_bit_identical_to_kernel_matrix(self, monkeypatch, kernel_kind):
        """Every pair Gram handed to train_binary and every validation
        block handed to _decision is the slice of kernel_matrix over the
        learning half, bit for bit, at every sigma of the default grid.
        A pair's rows within the half are those _class_pairs yielded with
        the label array that train_binary gets; no feature rows are
        passed."""
        x, labels = four_blobs()
        events = []
        real_pairs, real_base, real_train, real_decision = (
            svm_module._class_pairs, svm_module._kernel_base, svm_module.train_binary,
            svm_module._decision,
        )

        def class_pairs(codes, classes):
            for item in real_pairs(codes, classes):
                events.append(("pair", item))
                yield item

        def base(a, b, kind):
            events.append(("base", a, b))
            return real_base(a, b, kind)

        def train(xr, y, c, spec, **kwargs):
            events.append(("gram", xr, y, spec, kwargs["gram"]))
            return real_train(xr, y, c, spec, **kwargs)

        def decision(machine, k):
            events.append(("cross", k))
            return real_decision(machine, k)

        monkeypatch.setattr(svm_module, "_class_pairs", class_pairs)
        monkeypatch.setattr(svm_module, "_kernel_base", base)
        monkeypatch.setattr(svm_module, "train_binary", train)
        monkeypatch.setattr(svm_module, "_decision", decision)
        model_select(x, labels, kernel_kind, n_resample=2, seed=4)
        monkeypatch.undo()

        count = {"pair": 0, "base": 0, "gram": 0, "cross": 0}
        specs = set()
        split = []
        for kind, *args in events:
            count[kind] += 1
            if kind == "pair":
                split.append(args[0])
            elif kind == "base":
                a, b = args
                if a is b:
                    x_learn = a
                else:
                    x_val = b
            elif kind == "gram":
                xr, y, spec, gram = args
                assert xr is None
                (rows,) = [rows for _, rows, pair_y in split[-6:] if pair_y is y]
                want = kernel_matrix(x_learn, x_learn, spec)[np.ix_(rows, rows)]
                assert gram.tobytes() == want.tobytes()
                specs.add(spec)
            else:
                assert args[0].tobytes() == kernel_matrix(x_learn, x_val, spec)[rows].tobytes()
        n_sigma = 1 if kernel_kind == "linear" else len(svm_module.default_sigma_grid())
        assert count["pair"] == 2 * 6 and count["base"] == 2 * 2 and len(specs) == n_sigma
        assert count["gram"] == 2 * n_sigma * 10 * 6   # halves, |sigma|, |C|, pairs
        assert 0 < count["cross"] <= count["gram"]

    def test_unusable_sigma_refused_before_training(self, monkeypatch):
        calls = count_calls(monkeypatch, "train_binary")
        x, labels = four_blobs()
        for sigma in (1e200, 1e-200):
            with pytest.raises(ConfigError, match="2 sigma"):
                model_select(x, labels, "gaussian", sigma_grid=(1.0, sigma), seed=2)
        assert not calls

    @pytest.mark.parametrize(
        "kind, grids, name",
        [
            ("linear", dict(c_grid=np.array([])), "c_grid"),
            ("gaussian", dict(c_grid=[]), "c_grid"),
            ("gaussian", dict(sigma_grid=()), "sigma_grid"),
        ],
    )
    def test_empty_grid_refused_before_training(self, monkeypatch, kind, grids, name):
        calls = count_calls(monkeypatch, "train_binary")
        rng = np.random.default_rng(5)
        x, labels = rng.standard_normal((12, 3)), ["a", "b", "c"] * 4
        with pytest.raises(ConfigError, match=f"{name} is empty"):
            model_select(x, labels, kind, seed=1, **grids)
        assert not calls


def stub_model():
    """Three classes, gaussian kernel, three support vectors; machine
    (0, 2) keeps none and (1, 2) keeps two.  Every float in the file is
    distinct, so a test can find and replace it by its bytes."""
    spec = KernelSpec("gaussian", 5.0)
    machines = {
        (0, 1): BinarySvm(np.array([0]), np.array([19.0]), 17.0, spec, 3.0),
        (0, 2): BinarySvm(np.array([], np.intp), np.array([]), 13.0, spec, 3.0),
        (1, 2): BinarySvm(np.array([1, 2]), np.array([67.0, 11.0]), 71.0, spec, 3.0),
    }
    standardizer = Standardizer(np.array([31.0, 37.0]), np.array([41.0, 43.0]))
    support_vectors = np.array([[23.0, 29.0], [59.0, 61.0], [47.0, 53.0]])
    return SvmModel(["a", "b", "c"], machines, support_vectors, standardizer, 3.0, spec)


def f8(value):
    return struct.pack("<d", value)


def pair(a, b):
    return struct.pack("<II", a, b)


def machine_12(*support):
    """Machine (1, 2) of stub_model's file up to its alphas, with the
    given support indices."""
    return pair(1, 2) + f8(71.0) + struct.pack(f"<Q{len(support)}Q", len(support), *support)


# case: (bytes of stub_model's file, replacement that load_model must refuse)
MALFORMED = {
    "version_1": (b"HSVM\x02\x00\x00\x00", b"HSVM\x01\x00\x00\x00"),
    "class_name_not_utf8": (b"\x01\x00\x00\x00b", b"\x01\x00\x00\x00\xff"),
    "nan_mean": (f8(37.0), f8(np.nan)),
    "inf_std": (f8(41.0), f8(np.inf)),
    "zero_std": (f8(43.0), f8(0.0)),
    "nan_model_c": (f8(3.0), f8(np.nan)),
    "negative_model_c": (f8(3.0), f8(-1.0)),
    "nan_model_sigma": (f8(5.0), f8(np.nan)),
    "overflowing_model_sigma": (f8(5.0), f8(1e200)),
    "underflowing_model_sigma": (f8(5.0), f8(1e-200)),
    "nan_bias": (f8(17.0), f8(np.nan)),
    "nan_alpha": (f8(19.0), f8(np.nan)),
    "inf_support_vector": (f8(29.0), f8(-np.inf)),
    "pair_beyond_classes": (pair(1, 2), pair(1, 7)),
    "pair_not_ascending": (pair(1, 2), pair(2, 1)),
    "repeated_pair": (pair(1, 2), pair(0, 1)),
    "support_index_beyond_rows": (machine_12(1, 2), machine_12(1, 3)),
    "repeated_support_index": (machine_12(1, 2), machine_12(1, 1)),
    "descending_support_index": (machine_12(1, 2), machine_12(2, 1)),
    "trailing_byte": (f8(11.0), f8(11.0) + b"\x00"),   # 11.0 ends the file
}


class TestModelPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        x, labels = three_blobs()
        std = fit_standardizer(x)
        model = train_one_vs_one(
            std.apply(x), labels, 10.0, KernelSpec("gaussian", sigma=3.0),
            standardizer=std,
        )
        path = tmp_path / "model.svm"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.classes == model.classes
        assert loaded.kernel == model.kernel
        rng = np.random.default_rng(42)
        probes = rng.normal(2.0, 3.0, (50, 2))
        np.testing.assert_array_equal(predict(loaded, probes), predict(model, probes))
        assert loaded.support_vectors.tobytes() == model.support_vectors.tobytes()
        for pair in model.machines:
            np.testing.assert_array_equal(loaded.machines[pair].support, model.machines[pair].support)
            np.testing.assert_array_equal(
                loaded.machines[pair].alpha_signed, model.machines[pair].alpha_signed
            )
            assert loaded.machines[pair].bias == model.machines[pair].bias

    def test_save_is_deterministic(self, tmp_path):
        x, labels = three_blobs(n=5)
        model = train_one_vs_one(
            x, labels, 1.0, KernelSpec("linear"), standardizer=fit_standardizer(x)
        )
        p1, p2 = tmp_path / "a.svm", tmp_path / "b.svm"
        save_model(p1, model)
        save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.svm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        x, labels = three_blobs(n=5)
        model = train_one_vs_one(
            x, labels, 1.0, KernelSpec("linear"), standardizer=fit_standardizer(x)
        )
        path = tmp_path / "model.svm"
        save_model(path, model)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            load_model(path)

    def test_stub_model_loads(self, tmp_path):
        path = tmp_path / "model.svm"
        save_model(path, stub_model())
        loaded = load_model(path)
        assert sorted(loaded.machines) == [(0, 1), (0, 2), (1, 2)]
        assert predict(loaded, np.array([[31.0, 37.0]])).shape == (1,)
        save_model(tmp_path / "again.svm", loaded)
        assert (tmp_path / "again.svm").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("n_classes", [0, 1])
    def test_fewer_than_two_classes_rejected(self, tmp_path, n_classes):
        stub = stub_model()
        model = SvmModel(
            stub.classes[:n_classes], {}, stub.support_vectors, stub.standardizer, 3.0, stub.kernel
        )
        path = tmp_path / "model.svm"
        save_model(path, model)
        with pytest.raises(FormatError, match="at least two classes"):
            load_model(path)

    def test_featureless_model_rejected(self, tmp_path):
        """With no features the support matrix has no bytes, so its row
        count alone could claim any size."""
        model = stub_model()
        model.standardizer = Standardizer(np.zeros(0), np.zeros(0))
        model.support_vectors = np.zeros((2**40, 0))
        path = tmp_path / "model.svm"
        save_model(path, model)
        with pytest.raises(FormatError, match="one feature"):
            load_model(path)

    def test_missing_machine_rejected(self, tmp_path):
        """A 3-class model needs all three pair machines."""
        model = stub_model()
        del model.machines[(0, 2)]
        path = tmp_path / "model.svm"
        save_model(path, model)
        with pytest.raises(FormatError, match="2 machines for 3 classes"):
            load_model(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_rejected(self, tmp_path, case):
        old, new = MALFORMED[case]
        path = tmp_path / "model.svm"
        save_model(path, stub_model())
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        with pytest.raises(FormatError):
            load_model(path)
