import numpy as np
import pytest

from scenehog import (
    BinarySvm,
    KernelSpec,
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
    model_select_oracle,
    smo_oracle,
    svm_dual_enumerate,
    svm_dual_objective,
    svm_dual_slsqp,
)


def recover_alpha(svm, x):
    """Full length alpha vector, reconstructed by matching support rows."""
    alpha = np.zeros(x.shape[0])
    for row, a in zip(svm.support_vectors, svm.alpha_signed):
        matches = np.flatnonzero(np.all(x == row, axis=1))
        assert matches.size == 1
        alpha[matches[0]] = abs(a)
    return alpha


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


class TestBinarySvm:
    def test_two_point_analytic(self):
        """Points -1 and +1 with C >= 0.5: f(x) = x, zero bias."""
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        svm = train_binary(x, y, 10.0, KernelSpec("linear"))
        assert svm.bias == pytest.approx(0.0, abs=1e-9)
        grid = np.array([[-2.0], [0.0], [0.5], [3.0]])
        np.testing.assert_allclose(svm.decision(grid), grid.ravel(), atol=1e-9)
        alpha = recover_alpha(svm, x)
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-9)

    def test_xor_with_gaussian_kernel(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        svm = train_binary(x, y, 100.0, KernelSpec("gaussian", sigma=0.7))
        assert np.all(np.sign(svm.decision(x)) == y)

    def test_decision_formula(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((14, 3))
        y = np.where(rng.random(14) < 0.5, -1.0, 1.0)
        y[:2] = (-1.0, 1.0)
        spec = KernelSpec("gaussian", sigma=2.0)
        svm = train_binary(x, y, 5.0, spec)
        probe = rng.standard_normal((6, 3))
        k = kernel_matrix(probe, svm.support_vectors, spec)
        np.testing.assert_allclose(
            svm.decision(probe), k @ svm.alpha_signed + svm.bias, rtol=1e-12
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

    def test_support_vectors_own_their_rows(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 3))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        machine = train_binary(x, y, 1.0, KernelSpec("linear"))
        assert machine.support_vectors.flags.owndata
        assert not np.shares_memory(machine.support_vectors, x)
        np.testing.assert_array_equal(machine.support_vectors, x[machine.support])

    def test_given_gram_is_bit_identical(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((15, 4))
        y = np.where(rng.random(15) < 0.5, -1.0, 1.0)
        y[:2] = (-1.0, 1.0)
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", sigma=2.0)):
            plain = train_binary(x, y, 2.0, spec)
            given = train_binary(x, y, 2.0, spec, gram=kernel_matrix(x, x, spec))
            assert given.alpha_signed.tobytes() == plain.alpha_signed.tobytes()
            assert given.support_vectors.tobytes() == plain.support_vectors.tobytes()
            assert given.bias == plain.bias
            np.testing.assert_array_equal(given.support, plain.support)
            np.testing.assert_array_equal(x[given.support], given.support_vectors)

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


class TestOneVsOne:
    def test_separable_three_class(self):
        x, labels = three_blobs()
        model = train_one_vs_one(x, labels, 10.0, KernelSpec("linear"))
        assert model.classes == ["a", "b", "c"]
        assert set(model.machines) == {(0, 1), (0, 2), (1, 2)}
        np.testing.assert_array_equal(predict(model, x, standardized=True), labels)

    def test_new_points_classified_by_nearest_blob(self):
        x, labels = three_blobs()
        model = train_one_vs_one(x, labels, 10.0, KernelSpec("linear"))
        probes = np.array([[0.5, -0.2], [6.2, 0.4], [-0.3, 5.8]])
        np.testing.assert_array_equal(
            predict(model, probes, standardized=True), ["a", "b", "c"]
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
        spec = KernelSpec("linear")
        def stub(w, b):
            return BinarySvm(
                support_vectors=np.array([[w]]), alpha_signed=np.array([1.0]),
                bias=b, kernel=spec, c=1.0,
            )
        # at x = 1: f01 = +1 (votes 0), f12 = +2 (votes 1), f02 = -4 (votes 2)
        model = SvmModel(
            classes=["p", "q", "r"],
            machines={(0, 1): stub(1.0, 0.0), (1, 2): stub(2.0, 0.0), (0, 2): stub(-4.0, 0.0)},
        )
        # weights: p gets 1+4, q gets 1+2, r gets 2+4 -> r wins
        assert predict(model, np.array([[1.0]]), standardized=True)[0] == "r"

    def test_vote_and_weight_tie_goes_to_lowest_class(self):
        """Every class gets one vote and the same |decision| sum; the
        lowest class index wins."""
        spec = KernelSpec("linear")
        def stub(w):
            return BinarySvm(
                support_vectors=np.array([[w]]), alpha_signed=np.array([1.0]),
                bias=0.0, kernel=spec, c=1.0,
            )
        # at x = 1: f01 = +1 (votes 0), f12 = +1 (votes 1), f02 = -1 (votes 2)
        # at x = -1 every sign flips: f01 votes 1, f12 votes 2, f02 votes 0
        model = SvmModel(
            classes=["p", "q", "r"],
            machines={(0, 1): stub(1.0), (1, 2): stub(1.0), (0, 2): stub(-1.0)},
        )
        probes = np.array([[1.0], [-1.0]])
        np.testing.assert_array_equal(predict(model, probes, standardized=True), ["p", "p"])

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(TrainingError):
            train_one_vs_one(x, np.array(["a"] * 4), 1.0, KernelSpec("linear"))

    def test_missing_pair_examples_rejected(self):
        x = np.zeros((4, 2))
        labels = np.array(["a", "a", "b", "b"])
        with pytest.raises(TrainingError):
            train_one_vs_one(x, labels, 1.0, KernelSpec("linear"), classes=["a", "b", "c"])


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
        "kernel_kind, sigma_grid", [("linear", None), ("gaussian", (0.5, 2.0, 8.0))]
    )
    def test_matches_retrain_from_scratch_oracle(self, kernel_kind, sigma_grid):
        x, labels = four_blobs()
        c_grid = 10.0 ** np.linspace(-3.0, 2.0, 6)
        got = model_select(
            x, labels, kernel_kind, c_grid=c_grid, sigma_grid=sigma_grid, seed=5
        )
        want = model_select_oracle(x, labels, kernel_kind, c_grid, sigma_grid, 5, 5)
        assert got == want

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
        for pair in model.machines:
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
