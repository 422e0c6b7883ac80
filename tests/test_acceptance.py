"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test carries a criterion marker; the terminal summary prints one
PASS/FAIL line per criterion.  The two benchmark criteria run the whole
pipeline at full scale and are the slow part of the suite.
"""

import math
import time

import numpy as np
import pytest

from scenehog import (
    AudioClip,
    CqtConfig,
    HogConfig,
    KernelSpec,
    PoolConfig,
    RunConfig,
    cqt,
    extract_clips,
    feature_dim,
    fit_standardizer,
    hog,
    kernel_matrix,
    load_model,
    map_score,
    mean_filter,
    pool_grid,
    pool_marginalized,
    predict,
    read_features,
    run_experiment,
    save_model,
    train_binary,
    train_one_vs_one,
    wilcoxon_signed_rank,
)
from scenehog import svm as svm_module
from scenehog.cli import main
from scenehog.hog import HogGrid
from scenehog.pipeline import generate_toy

from oracles import (
    cqt_profile_oracle,
    svm_dual_enumerate,
    svm_dual_objective,
    svm_dual_slsqp,
    wilcoxon_oracle,
)

RUNTIME_BUDGET_SECONDS = 600.0


@pytest.fixture(scope="module")
def toy_clips():
    """The 200 clip synthetic benchmark, generated once for all criteria."""
    return generate_toy(RunConfig())


def full_alpha(svm, x):
    alpha = np.zeros(x.shape[0])
    for row, signed in zip(x[svm.support], svm.alpha_signed):
        hit = np.flatnonzero(np.all(x == row, axis=1))
        assert hit.size == 1
        alpha[hit[0]] = abs(signed)
    return alpha


def kkt_gap(k, y, alpha, c):
    grad = (y[:, None] * y[None, :] * k) @ alpha - 1.0
    atol = 1e-12 * max(c, 1.0)
    up = ((alpha < c - atol) & (y > 0)) | ((alpha > atol) & (y < 0))
    low = ((alpha < c - atol) & (y < 0)) | ((alpha > atol) & (y > 0))
    viol = -y * grad
    return viol[up].max() - viol[low].min()


@pytest.mark.criterion("1 toy benchmark, cell 32: map_mean >= 0.97 within runtime budget")
def test_toy_benchmark_cell32(toy_clips):
    cfg = RunConfig(cell_size=32, fixed_train_count=40)
    started = time.perf_counter()
    x, labels, _, _ = extract_clips(toy_clips, cfg)
    report = run_experiment(x, labels, cfg)
    elapsed = time.perf_counter() - started
    assert report.n_splits == 20 and report.n_train == 40
    assert x.shape == (200, 768)
    assert report.map_mean >= 0.97, f"map_mean {report.map_mean:.4f} < 0.97"
    assert elapsed < RUNTIME_BUDGET_SECONDS, f"took {elapsed:.0f}s"


@pytest.mark.criterion("2 toy benchmark, cell 8: map_mean within [0.90, 1.00]")
def test_toy_benchmark_cell8(toy_clips):
    cfg = RunConfig(cell_size=8, fixed_train_count=40)
    x, labels, _, _ = extract_clips(toy_clips, cfg)
    report = run_experiment(x, labels, cfg)
    assert x.shape == (200, 3072)
    assert 0.90 <= report.map_mean <= 1.00, f"map_mean {report.map_mean:.4f}"


@pytest.mark.criterion("3 feature dimension table regenerated exactly")
def test_dimension_table():
    rng = np.random.default_rng(42)
    grid64 = HogGrid(
        rng.random((64, 64, 16)), rng.random((64, 64, 8)), rng.random((64, 64, 4))
    )
    dims = set()

    def check(cfg, rows, cols, want, *, grid=None):
        got = feature_dim(cfg, 8, rows, cols)
        assert got == want, f"{cfg} on {rows}x{cols}: {got} != {want}"
        if grid is not None:
            if cfg.mode == "full":
                vec = pool_grid(grid, rows, cols, cfg)
            elif cfg.mode == "marginalized":
                vec = pool_marginalized(grid, cfg)
            else:
                vec = pool_grid(grid, cfg.grid_freq, cfg.grid_time, cfg)
            assert vec.dim == want
        dims.add(got)

    # histogram variant menu, marginalized, cell 8 (64x64 cells)
    variant_table = [
        (True, False, False, 2048),
        (True, False, True, 2560),
        (False, True, False, 1024),
        (False, True, True, 1536),
        (True, True, False, 3072),
        (True, True, True, 3584),
    ]
    for signed, unsigned, factors, want in variant_table:
        cfg = PoolConfig(
            mode="marginalized",
            use_signed=signed, use_unsigned=unsigned, use_factors=factors,
        )
        check(cfg, 64, 64, want, grid=grid64)

    # cell size sweep, both variants, no factors
    both = PoolConfig(mode="marginalized")
    for cell, want in [(2, 12288), (4, 6144), (8, 3072), (16, 1536), (32, 768)]:
        check(both, 512 // cell, 512 // cell, want)

    # fixed block budget F*T = 64, both variants
    for f, t in ((1, 64), (2, 32), (4, 16), (8, 8), (16, 4), (32, 2), (64, 1)):
        cfg = PoolConfig(mode="grid", grid_freq=f, grid_time=t)
        check(cfg, 64, 64, 1536, grid=grid64)

    # no pooling, signed histograms only
    check(
        PoolConfig(mode="full", use_signed=True, use_unsigned=False),
        64, 64, 65536, grid=grid64,
    )

    assert dims == {65536, 2048, 2560, 1024, 1536, 3072, 3584, 12288, 6144, 768}


@pytest.mark.criterion("4a descriptor fold, clip and half-turn properties on 100 random images")
def test_hog_properties_on_random_images():
    cfg = HogConfig(cell_size=8, n_orient=8)
    unclipped = HogConfig(cell_size=8, n_orient=8, clip_tau=1e9)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        img = rng.random((32, 40))
        grid = hog(img, cfg)
        assert grid.h_signed.max() <= cfg.clip_tau + 1e-12
        assert grid.h_unsigned.max() <= cfg.clip_tau + 1e-12
        free = hog(img, unclipped)
        np.testing.assert_allclose(
            free.h_signed[:, :, :8] + free.h_signed[:, :, 8:],
            free.h_unsigned, rtol=1e-12, atol=1e-15,
        )
        rot = hog(img[::-1, ::-1], cfg)
        np.testing.assert_allclose(
            rot.h_signed, np.roll(grid.h_signed[::-1, ::-1], 8, axis=2),
            rtol=1e-12, atol=1e-15,
        )
        np.testing.assert_allclose(
            rot.h_unsigned, grid.h_unsigned[::-1, ::-1], rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            rot.factors, grid.factors[::-1, ::-1, ::-1], rtol=1e-12, atol=1e-15
        )


@pytest.mark.criterion("4b full time pooling ignores cell-aligned time shifts (< 1e-9)")
def test_time_translation_invariance():
    cfg = HogConfig(cell_size=8, n_orient=8)
    pool_cfg = PoolConfig(
        mode="grid", use_signed=True, use_unsigned=True, use_factors=True
    )
    rng = np.random.default_rng(7)
    for _ in range(10):
        pattern = rng.random((64, 16))
        early = np.zeros((64, 64))
        early[:, 16:32] = pattern
        late = np.zeros((64, 64))
        late[:, 24:40] = pattern
        va = pool_grid(hog(early, cfg), 8, 1, pool_cfg).values
        vb = pool_grid(hog(late, cfg), 8, 1, pool_cfg).values
        gap = np.linalg.norm(va - vb) / max(np.linalg.norm(va), 1e-30)
        assert gap < 1e-9, f"relative change {gap:.2e}"


@pytest.mark.criterion("4c transform peak bins match the per-frame DFT oracle on 10 tones")
def test_cqt_tones_against_oracle():
    fs = 4000
    cfg = CqtConfig(f_min_hz=40.0, f_max_hz=1900.0, bins_per_octave=8, hop_samples=16)
    t = np.arange(2000) / fs
    rng = np.random.default_rng(11)
    for freq in rng.uniform(60.0, 1500.0, 10):
        clip = AudioClip(np.cos(2.0 * np.pi * freq * t), fs)
        profile = np.abs(cqt(clip, cfg)).mean(axis=1)
        reference = cqt_profile_oracle(
            clip.samples, fs, cfg.f_min_hz, cfg.bins_per_octave,
            cfg.hop_samples, cfg.n_bins,
        )
        np.testing.assert_allclose(profile, reference, rtol=1e-9, atol=1e-12)
        peak = int(np.argmax(profile))
        assert peak == int(np.argmax(reference))
        nominal = round(cfg.bins_per_octave * math.log2(freq / cfg.f_min_hz))
        assert abs(peak - nominal) <= 1


@pytest.mark.criterion("4d mean filter: k=1 identity exact, linearity within 1e-12")
def test_mean_filter_identity_and_linearity():
    rng = np.random.default_rng(5)
    img = rng.random((64, 48))
    np.testing.assert_array_equal(mean_filter(img, 1), img)
    a = rng.random((64, 48))
    b = rng.random((64, 48))
    for k in (3, 9, 15):
        lhs = mean_filter(1.5 * a - 0.25 * b, k)
        rhs = 1.5 * mean_filter(a, k) - 0.25 * mean_filter(b, k)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.criterion("5 solver matches QP oracle within 1e-4; KKT gap <= 1e-3")
def test_solver_against_qp_oracle():
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(6, 13))
        x = rng.standard_normal((n, int(rng.integers(2, 5))))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        y[0], y[1] = -1.0, 1.0
        c = float(rng.choice([0.1, 1.0, 10.0, 100.0]))
        if trial % 2:
            spec = KernelSpec("gaussian", sigma=float(rng.choice([0.5, 1.0, 2.0])))
        else:
            spec = KernelSpec("linear")
        k = kernel_matrix(x, x, spec)
        machine = train_binary(x, y, c, spec)
        alpha = full_alpha(machine, x)
        mine = svm_dual_objective(k, y, alpha)
        _, best = svm_dual_slsqp(k, y, c)
        assert abs(mine - best) <= 1e-4 * max(1.0, abs(best)), (
            f"trial {trial}: {mine} vs oracle {best}"
        )
        assert kkt_gap(k, y, alpha, c) <= 1e-3 + 1e-9
        if n <= 6:
            exact = svm_dual_enumerate(k, y, c)
            assert abs(mine - exact) <= 1e-4 * max(1.0, abs(exact))


@pytest.mark.criterion("6 MAP hand examples exact; sign-rank test matches enumeration")
def test_map_and_sign_rank_against_references():
    # the three documented score examples, exact
    assert map_score(["0", "1"], ["0", "1"]) == 1.0
    assert map_score(["0", "0", "1", "1"], ["0", "1", "1", "1"]) == (1.0 + 2.0 / 3.0) / 2.0
    assert map_score(["0", "1"], ["0", "0"]) == 0.25

    rng = np.random.default_rng(17)
    for _ in range(12):
        n = int(rng.integers(5, 13))
        a = rng.normal(0.0, 1.0, n)
        b = a + rng.normal(0.2, 0.7, n)
        res = wilcoxon_signed_rank(a, b, method="exact")
        w_ref, p_ref = wilcoxon_oracle(a, b)
        assert res.statistic == w_ref
        assert res.p_value == p_ref
    # tied magnitudes exercise the average rank path
    a = np.array([3.0, 3.0, 3.0, 2.0, 2.0, 5.0, 6.0, 1.0])
    b = np.array([1.0, 1.0, 1.0, 4.0, 4.0, 1.0, 2.0, 0.0])
    res = wilcoxon_signed_rank(a, b, method="exact")
    w_ref, p_ref = wilcoxon_oracle(a, b)
    assert (res.statistic, res.p_value) == (w_ref, p_ref)
    # the approximation stays close to exact at the crossover size
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(0.0, 1.0, 12)
        b = a + rng.normal(0.3, 0.8, 12)
        exact = wilcoxon_signed_rank(a, b, method="exact").p_value
        approx = wilcoxon_signed_rank(a, b, method="approx").p_value
        assert abs(exact - approx) <= 0.02


@pytest.mark.criterion("7 double run byte-identity; model round-trip reproduces predictions")
def test_determinism_and_persistence(tmp_path, capsys, monkeypatch):
    scale = [
        "--set", "n_per_class=12",
        "--set", "n_splits=3",
        "--set", "fixed_train_count=8",
        "--set", "cell_size=32",
    ]
    runs = [tmp_path / "a", tmp_path / "b"]
    for d in runs:
        assert main(["toygen", *scale, "--out", str(d / "data")]) == 0
        assert main([
            "extract", *scale, "--data", str(d / "data"),
            "--out", str(d / "toy.features"),
        ]) == 0
        assert main([
            "experiment", *scale, "--features", str(d / "toy.features"),
            "--report", str(d / "report.txt"),
        ]) == 0
    capsys.readouterr()

    a, b = runs
    wavs = sorted(p.relative_to(a) for p in (a / "data").rglob("*.wav"))
    assert len(wavs) == 24
    assert wavs == sorted(p.relative_to(b) for p in (b / "data").rglob("*.wav"))
    for rel in wavs:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    for name in ("toy.features", "toy.features.labels", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    x, labels, _ = read_features(a / "toy.features")
    scaler = fit_standardizer(x)
    model = train_one_vs_one(
        scaler.apply(x), labels, 1.0, KernelSpec("gaussian", sigma=10.0),
        standardizer=scaler,
    )
    first, second = tmp_path / "m1.svm", tmp_path / "m2.svm"
    save_model(first, model)
    save_model(second, model)
    assert first.read_bytes() == second.read_bytes()
    loaded = load_model(first)
    np.testing.assert_array_equal(predict(loaded, x), predict(model, x))
    # the per-machine decision values predict votes on, bit for bit
    voted = []
    real_vote = svm_module._vote
    monkeypatch.setattr(
        svm_module, "_vote", lambda values, *rest: voted.append(values) or real_vote(values, *rest)
    )
    predict(loaded, x)
    predict(model, x)
    assert voted[0].shape == (len(model.machines), x.shape[0])
    assert voted[0].tobytes() == voted[1].tobytes()
