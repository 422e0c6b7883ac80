import numpy as np
import pytest

from scenehog import (
    EvalReport,
    read_report,
    run_protocol,
    stratified_split,
    write_report,
)
from scenehog import svm
from scenehog.cli import main
from scenehog.errors import ConfigError, DataError, FormatError, ProtocolError


def blob_data(n_per_class=14, seed=42, spread=0.5):
    rng = np.random.default_rng(seed)
    x = np.vstack([
        rng.normal((0.0, 0.0), spread, (n_per_class, 2)),
        rng.normal((5.0, 5.0), spread, (n_per_class, 2)),
    ])
    labels = np.asarray(["lo"] * n_per_class + ["hi"] * n_per_class)
    return x, labels


class TestStratifiedSplit:
    def test_partition_properties(self):
        labels = np.asarray(["a"] * 10 + ["b"] * 15)
        train, test = stratified_split(labels, seed=1, split_index=0)
        assert np.intersect1d(train, test).size == 0
        assert np.union1d(train, test).size == 25
        # per class: floor(count * 0.2) test examples
        assert (labels[test] == "a").sum() == 2
        assert (labels[test] == "b").sum() == 3

    def test_fixed_train_count_apportionment(self):
        labels = np.asarray(["a"] * 10 + ["b"] * 5)
        train, test = stratified_split(
            labels, seed=1, split_index=0, fixed_train_count=9
        )
        assert train.size == 9
        # quotas 6.0 and 3.0 split exactly
        assert (labels[train] == "a").sum() == 6
        assert (labels[train] == "b").sum() == 3

    def test_fixed_train_count_largest_remainder(self):
        labels = np.asarray(["a"] * 9 + ["b"] * 6)
        train, _ = stratified_split(
            labels, seed=1, split_index=0, fixed_train_count=10
        )
        # quotas 6.0 and 4.0
        assert (labels[train] == "a").sum() == 6
        assert (labels[train] == "b").sum() == 4

    def test_split_index_changes_partition(self):
        labels = np.asarray(["a"] * 20 + ["b"] * 20)
        t0, _ = stratified_split(labels, seed=5, split_index=0)
        t1, _ = stratified_split(labels, seed=5, split_index=1)
        assert not np.array_equal(t0, t1)

    def test_same_inputs_same_partition(self):
        labels = np.asarray(["a"] * 20 + ["b"] * 20)
        t0, e0 = stratified_split(labels, seed=5, split_index=3)
        t1, e1 = stratified_split(labels, seed=5, split_index=3)
        np.testing.assert_array_equal(t0, t1)
        np.testing.assert_array_equal(e0, e1)

    def test_class_too_small_rejected(self):
        labels = np.asarray(["a"] * 10 + ["b"])
        with pytest.raises(ProtocolError):
            stratified_split(labels, seed=0, split_index=0)

    def test_bad_arguments(self):
        labels = np.asarray(["a"] * 4 + ["b"] * 4)
        with pytest.raises(ConfigError):
            stratified_split(labels, seed=0, split_index=0, train_frac=1.0)
        with pytest.raises(ProtocolError):
            stratified_split(labels, seed=0, split_index=0, fixed_train_count=8)


class TestRunProtocol:
    def test_separable_data_scores_one(self):
        x, labels = blob_data()
        report = run_protocol(x, labels, n_splits=4, seed=9)
        assert report.map_mean == pytest.approx(1.0)
        assert report.map_std == pytest.approx(0.0)
        assert report.map_from_confusion == pytest.approx(1.0)
        assert report.n_splits == 4
        assert report.classes == ["hi", "lo"]

    def test_confusion_totals(self):
        x, labels = blob_data(n_per_class=10)
        report = run_protocol(x, labels, n_splits=3, seed=2)
        assert report.confusion_sum.sum() == 3 * report.n_test
        assert report.confusion_sum.shape == (2, 2)

    def test_thread_count_does_not_change_results(self):
        x, labels = blob_data(n_per_class=8, spread=2.5)
        a = run_protocol(x, labels, n_splits=6, seed=4, threads=1)
        b = run_protocol(x, labels, n_splits=6, seed=4, threads=4)
        np.testing.assert_array_equal(a.per_split_map, b.per_split_map)
        np.testing.assert_array_equal(a.confusion_sum, b.confusion_sum)
        np.testing.assert_array_equal(a.chosen_c, b.chosen_c)

    def test_gaussian_kernel_path(self):
        x, labels = blob_data(n_per_class=8)
        report = run_protocol(
            x, labels, n_splits=2, seed=3, kernel_kind="gaussian",
            c_grid=np.array([1.0, 10.0]), sigma_grid=(1.0, 10.0),
        )
        assert report.kernel_kind == "gaussian"
        assert np.all(np.isfinite(report.chosen_sigma))

    def test_linear_kernel_records_nan_sigma(self):
        x, labels = blob_data(n_per_class=8)
        report = run_protocol(x, labels, n_splits=2, seed=3)
        assert np.all(np.isnan(report.chosen_sigma))

    def test_population_std_of_scores(self):
        x, labels = blob_data(n_per_class=8, spread=3.0)
        report = run_protocol(x, labels, n_splits=5, seed=8)
        np.testing.assert_allclose(
            report.map_std, np.std(report.per_split_map), rtol=1e-15
        )

    def test_single_class_rejected(self):
        x = np.zeros((6, 2))
        with pytest.raises(ProtocolError):
            run_protocol(x, ["a"] * 6, n_splits=1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            run_protocol(np.zeros((4, 2)), ["a", "b"], n_splits=1)

    def test_tol_reaches_model_selection(self, monkeypatch):
        """Every machine, in model selection and in the final one against
        one training, trains to the caller's tolerance."""
        seen = []
        real = svm.train_binary

        def recorded(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return real(*args, **kwargs)

        monkeypatch.setattr(svm, "train_binary", recorded)
        x, labels = blob_data(n_per_class=8)
        run_protocol(
            x, labels, n_splits=2, seed=3, c_grid=np.array([0.1, 1.0]),
            n_resample=2, tol=0.02,
        )
        # per split: |C| x halves x one pair in model selection, then one machine
        assert len(seen) == 2 * (2 * 2 + 1)
        assert seen == [0.02] * len(seen)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((16, 4))
        x[5, 2] = bad
        labels = ["a"] * 8 + ["b"] * 8
        with pytest.raises(DataError, match="NaN or infinite"):
            run_protocol(x, labels, n_splits=2, seed=0)


class TestReportFiles:
    def make_report(self):
        x, labels = blob_data(n_per_class=8, spread=2.0)
        return run_protocol(
            x, labels, n_splits=3, seed=7, params={"cell": "8", "kernel": "linear"}
        )

    def test_round_trip_preserves_everything(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.txt"
        write_report(path, report)
        loaded = read_report(path)
        assert loaded.classes == report.classes
        assert loaded.seed == report.seed
        assert (loaded.n_splits, loaded.n_train, loaded.n_test) == (
            report.n_splits, report.n_train, report.n_test,
        )
        assert loaded.kernel_kind == report.kernel_kind
        np.testing.assert_array_equal(loaded.per_split_map, report.per_split_map)
        np.testing.assert_array_equal(loaded.confusion_sum, report.confusion_sum)
        np.testing.assert_array_equal(loaded.chosen_c, report.chosen_c)
        np.testing.assert_array_equal(
            np.isnan(loaded.chosen_sigma), np.isnan(report.chosen_sigma)
        )
        assert loaded.params == report.params

    def test_write_is_deterministic(self, tmp_path):
        report = self.make_report()
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_report(a, report)
        write_report(b, report)
        assert a.read_bytes() == b.read_bytes()

    def test_derived_values_survive_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.txt"
        write_report(path, report)
        loaded = read_report(path)
        assert loaded.map_mean == report.map_mean
        assert loaded.map_std == report.map_std
        assert loaded.map_from_confusion == report.map_from_confusion

    def test_not_a_report_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("format=banana\nversion=1\n")
        with pytest.raises(FormatError):
            read_report(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("format=scenehog-report\nversion=1\nseed=0\n")
        with pytest.raises(FormatError):
            read_report(path)

    def test_split_count_mismatch_rejected(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.txt"
        write_report(path, report)
        text = path.read_text().replace("n_splits=3", "n_splits=4")
        path.write_text(text)
        with pytest.raises(FormatError):
            read_report(path)

    @pytest.mark.parametrize(
        "old,new",
        [
            ("\n0,1,", "\n0,1\n"),  # per_split rows with 2 cells
            ("\n0,1,", "\n0,high,"),  # non-numeric per_split cell
            ("\n0,1,", "\n0,nan,"),  # non-finite per_split map
            ("\nhi,3,", "\nhi,3.5,"),  # non-integer confusion cell
        ],
        ids=["short-row", "non-numeric-map", "nan-map", "non-integer-count"],
    )
    def test_malformed_rows_exit_as_data_errors(self, tmp_path, capsys, old, new):
        report = self.make_report()
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        write_report(good, report)
        text = good.read_text()
        assert old in text
        bad.write_text(text.replace(old, new, 1))
        with pytest.raises(FormatError):
            read_report(bad)
        rc = main(["compare", "--report-a", str(good), "--report-b", str(bad)])
        assert rc == 3
        assert "Traceback" not in capsys.readouterr().err
