import re
import tracemalloc

import numpy as np
import pytest

from scenehog import (
    EvalReport,
    KernelSpec,
    RunConfig,
    model_select,
    read_report,
    run_protocol,
    stratified_split,
    train_one_vs_one,
    write_features,
    write_report,
)
from scenehog import evaluation, svm
from scenehog.cli import main
from scenehog.metrics import confusion_counts, map_score
from scenehog.util import class_codes, rng_from
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

    def test_classes_drawn_in_name_order(self):
        """Twelve classes named by numbers draw their permutations in
        name order ("10" before "2"), class by class from one stream."""
        labels = np.repeat(np.arange(12), 5)
        train, test = stratified_split(labels, seed=3, split_index=2)
        rng = rng_from(3, 2)
        want_train, want_test = [], []
        for name in sorted({str(v) for v in labels}):
            idx = np.flatnonzero(labels.astype(str) == name)
            idx = idx[rng.permutation(idx.size)]
            want_train += idx[:4].tolist()
            want_test += idx[4:].tolist()
        np.testing.assert_array_equal(train, sorted(want_train))
        np.testing.assert_array_equal(test, sorted(want_test))

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


class TestClassCodes:
    def test_names_sorted_as_strings(self):
        classes, codes = class_codes([2, "10", "b", 2, 10, "3"])
        assert classes == ["10", "2", "3", "b"]
        assert codes.tolist() == [1, 0, 3, 1, 0, 2]

    def test_empty(self):
        classes, codes = class_codes([])
        assert classes == [] and codes.size == 0


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

    @pytest.mark.parametrize("kernel", ["linear", "gaussian"])
    def test_one_split_memory_budget(self, kernel):
        """One split holds one standardised copy of the training rows and
        one learning half's rows next to the input, not the raw and the
        standardised rows together, two halves' copies at once or the
        squares of a half's rows."""
        rng = np.random.default_rng(5)
        labels = np.repeat(["a", "b", "c"], 100)
        x = rng.standard_normal((300, 3072)) + (np.arange(300) % 3)[:, None] * 0.05
        tracemalloc.start()
        try:
            report = run_protocol(
                x, labels, n_splits=1, seed=1, kernel_kind=kernel, c_grid=np.array([0.01, 1.0]),
                sigma_grid=(50.0, 100.0),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        train_bytes = report.n_train * x.shape[1] * x.itemsize
        assert peak < 2.5 * train_bytes

    def test_gaussian_kernel_path(self, tmp_path):
        x, labels = blob_data(n_per_class=8)
        report = run_protocol(
            x, labels, n_splits=2, seed=3, kernel_kind="gaussian",
            c_grid=np.array([1.0, 10.0]), sigma_grid=(1.0, 10.0),
        )
        assert report.kernel_kind == "gaussian"
        assert np.all(np.isfinite(report.chosen_sigma))
        write_report(tmp_path / "report.txt", report)
        loaded = read_report(tmp_path / "report.txt")
        assert loaded.chosen_sigma.tobytes() == report.chosen_sigma.tobytes()

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

    def test_scores_equal_scoring_the_names(self, monkeypatch):
        """Each split's MAP and confusion counts, computed on class
        indices, equal map_score and confusion_counts of the test
        labels and the names predict returned; twelve classes named by
        numbers check that the indices follow name order."""
        rng = np.random.default_rng(6)
        labels = np.repeat(np.arange(12), 6)
        x = rng.normal(0.0, 1.5, (labels.size, 3)) + (labels[:, None] % 4) * [1.0, 0.0, 2.0]
        splits, predictions = [], []
        real_split, real_predict = evaluation.stratified_split, svm.predict
        monkeypatch.setattr(
            evaluation, "stratified_split",
            lambda *a, **k: splits.append(real_split(*a, **k)) or splits[-1],
        )
        monkeypatch.setattr(
            svm, "predict", lambda *a: predictions.append(real_predict(*a)) or predictions[-1]
        )
        report = run_protocol(x, labels, n_splits=3, seed=1, c_grid=np.array([0.1, 10.0]))
        names = labels.astype(str)
        assert report.classes == sorted(set(names.tolist()))
        confusion = 0
        for (_, test_idx), pred, score in zip(splits, predictions, report.per_split_map):
            assert score == map_score(names[test_idx], pred, classes=report.classes)
            confusion = confusion + confusion_counts(names[test_idx], pred, report.classes)
        np.testing.assert_array_equal(report.confusion_sum, confusion)

    def test_single_class_rejected(self):
        x = np.zeros((6, 2))
        with pytest.raises(ProtocolError):
            run_protocol(x, ["a"] * 6, n_splits=1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            run_protocol(np.zeros((4, 2)), ["a", "b"], n_splits=1)

    def test_zero_columns_refused(self):
        """Rows of no features are refused by the protocol, model
        selection and training instead of being scored."""
        x, labels = np.ones((20, 0)), ["a", "b"] * 10
        with pytest.raises(DataError, match="no columns"):
            run_protocol(x, labels, n_splits=2)
        with pytest.raises(DataError, match="no columns"):
            model_select(x, labels)
        with pytest.raises(DataError, match="no columns"):
            train_one_vs_one(x, labels, 1.0, KernelSpec("linear"))

    def test_report_keeps_the_splits_it_drew(self):
        """report.splits holds each split's index pair as stratified_split
        draws it from (seed, i); n_train and n_test are split 0's sizes."""
        x, labels = blob_data(n_per_class=8)
        report = run_protocol(x, labels, n_splits=3, seed=5, train_frac=0.7)
        assert len(report.splits) == 3
        for i, (train_idx, test_idx) in enumerate(report.splits):
            want = stratified_split(labels, seed=5, split_index=i, train_frac=0.7)
            np.testing.assert_array_equal(train_idx, want[0])
            np.testing.assert_array_equal(test_idx, want[1])
        assert (report.n_train, report.n_test) == (12, 4)

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
        assert len(report.splits) == 3 and loaded.splits == ()  # splits are not written

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
        "bad", ["cafe,bar", "cafe\nbar", "cafe\rbar", "cafe\u2028bar", " cafe", "cafe ", "cafe\t"]
    )
    def test_class_name_a_report_cannot_hold_refused(self, tmp_path, bad):
        report = self.make_report()
        report.classes = [bad, "b"]
        with pytest.raises(DataError, match="comma or a line break"):
            write_report(tmp_path / "report.txt", report)
        assert list(tmp_path.iterdir()) == []

    def test_experiment_refuses_comma_in_class_name(self, tmp_path, capsys):
        """A class named like the directory cafe,bar would split into two
        names in the report's class list, so compare could not read the
        report back; experiment exits 3 before any split and writes none."""
        x, labels = blob_data(n_per_class=10)
        names = np.where(labels == labels[0], "cafe,bar", "park")
        features, report = tmp_path / "feat.bin", tmp_path / "r.txt"
        write_features(features, x, names, RunConfig().extraction_hash())
        rc = main(["experiment", "--features", str(features), "--report", str(report)])
        assert rc == 3
        assert "cafe,bar" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "old,new",
        [
            ("\n0,1,", "\n0,1\n"),  # per_split rows with 2 cells
            ("\n0,1,", "\n0,high,"),  # non-numeric per_split cell
            ("\n0,1,", "\n0,nan,"),  # non-finite per_split map
            ("\nhi,3,", "\nhi,3.5,"),  # non-integer confusion cell
            ("\n0,", "\n7,"),  # split 0's row labelled split 7
            ("\nlo,", "\nzzz,"),  # the lo row of the confusion matrix named zzz
            ("\n0,1,", "\n0,5.0,"),  # a MAP above 1
            ("\n0,1,[^,]*,", "\n0,1,0,"),  # a chosen C of 0
            ("\n0,1,[^,]*,", "\n0,1,-1,"),  # a negative chosen C
            (",nan\n", ",-3\n"),  # a sigma under the linear kernel
            ("\nkernel=linear", "\nkernel=gaussian"),  # NaN sigmas under the gaussian one
            ("\nkernel=linear", "\nkernel=poly"),  # no such kernel
            ("\nhi,3,", "\nhi,-5,"),  # a negative confusion count
        ],
        ids=[
            "short-row", "non-numeric-map", "nan-map", "non-integer-count",
            "split-out-of-place", "confusion-row-of-another-class", "map-above-one",
            "zero-c", "negative-c", "negative-sigma", "gaussian-nan-sigma", "unknown-kernel",
            "negative-count",
        ],
    )
    def test_malformed_rows_exit_as_data_errors(self, tmp_path, capsys, old, new):
        report = self.make_report()
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        write_report(good, report)
        text = good.read_text()
        assert re.search(old, text)
        bad.write_text(re.sub(old, new, text, count=1))
        with pytest.raises(FormatError):
            read_report(bad)
        rc = main(["compare", "--report-a", str(good), "--report-b", str(bad)])
        assert rc == 3
        assert "Traceback" not in capsys.readouterr().err
