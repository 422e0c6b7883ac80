import numpy as np
import pytest

from scenehog import (
    column_normalize,
    confusion_counts,
    map_score,
    wilcoxon_signed_rank,
)
from scenehog.errors import ConfigError, ProtocolError
from scenehog.metrics import confusion_codes, map_score_codes

from oracles import confusion_oracle, map_score_oracle, wilcoxon_oracle


class TestMapScore:
    def test_perfect_predictions(self):
        y = ["a", "b", "c", "a", "b", "c"]
        assert map_score(y, y) == 1.0

    def test_mixed_precision_by_hand(self):
        # class a: predicted twice, both correct   -> 1
        # class b: predicted 3 times, 2 correct    -> 2/3
        y_true = ["a", "a", "b", "b", "a"]
        y_pred = ["a", "a", "b", "b", "b"]
        assert map_score(y_true, y_pred) == pytest.approx(5 / 6)

    def test_never_predicted_class_scores_zero(self):
        y_true = ["a", "a", "b", "b"]
        y_pred = ["a", "a", "a", "a"]
        # precision(a) = 1/2, precision(b) = 0
        assert map_score(y_true, y_pred) == pytest.approx(0.25)

    def test_three_class_example(self):
        y_true = ["a", "a", "b", "b", "c", "c"]
        y_pred = ["a", "b", "b", "c", "c", "a"]
        # each class predicted twice, once correctly -> mean of 1/2
        assert map_score(y_true, y_pred) == pytest.approx(0.5)

    def test_fixed_class_list_changes_denominator(self):
        y_true = ["a", "a"]
        y_pred = ["a", "a"]
        assert map_score(y_true, y_pred) == 1.0
        assert map_score(y_true, y_pred, classes=["a", "b"]) == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            map_score(["a"], ["a", "b"])
        with pytest.raises(ConfigError):
            map_score([], [])

    def test_repeated_class_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            map_score(["a"], ["a"], classes=["a", "b", "a"])

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_per_class_loop_oracle(self, trial):
        """Bit for bit, with true and predicted labels outside the class
        list and classes that are never predicted."""
        rng = np.random.default_rng(trial)
        classes = [f"c{k:02d}" for k in range(int(rng.integers(2, 20)))]
        outside = ["zz", "c99"]
        n = int(rng.integers(1, 120))
        y_true = [str(v) for v in rng.choice(classes + outside, n)]
        y_pred = [str(v) for v in rng.choice(classes[: len(classes) // 2 + 1] + outside, n)]
        assert map_score(y_true, y_pred, classes=classes) == map_score_oracle(
            y_true, y_pred, classes
        )
        union = sorted(set(y_true) | set(y_pred))
        assert map_score(y_true, y_pred) == map_score_oracle(y_true, y_pred, union)

    @pytest.mark.parametrize("trial", range(10))
    def test_rows_of_predictions_score_like_single_calls(self, trial):
        """A 2-D pred gives each row the bits of scoring it alone."""
        rng = np.random.default_rng(trial)
        n_classes = int(rng.integers(2, 20))
        true = rng.integers(0, n_classes + 1, 50)
        pred = rng.integers(0, n_classes + 1, (7, 50))
        got = map_score_codes(true, pred, n_classes)
        assert got.shape == (7,)
        assert got.tolist() == [map_score_codes(true, row, n_classes) for row in pred]
        assert isinstance(map_score_codes(true, pred[0], n_classes), float)


class TestConfusion:
    def test_counts_layout(self):
        y_true = ["a", "a", "b", "c", "c", "c"]
        y_pred = ["a", "b", "b", "c", "a", "c"]
        m = confusion_counts(y_true, y_pred, ["a", "b", "c"])
        expected = np.array([[1, 1, 0], [0, 1, 0], [1, 0, 2]])
        np.testing.assert_array_equal(m, expected)
        assert m.sum() == 6

    def test_label_outside_classes_rejected(self):
        with pytest.raises(ConfigError, match="z"):
            confusion_counts(["a", "b"], ["a", "z"], ["a", "b"])
        with pytest.raises(ConfigError, match="z"):
            confusion_counts(["z", "b"], ["a", "b"], ["a", "b"])

    def test_repeated_class_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            confusion_counts(["a", "b"], ["a", "b"], ["a", "b", "a"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            confusion_counts(["a", "b"], ["a"], ["a", "b"])

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_per_row_loop_oracle(self, trial):
        rng = np.random.default_rng(trial)
        classes = [f"c{k}" for k in range(int(rng.integers(1, 13)))]
        n = int(rng.integers(0, 80))
        y_true = [str(v) for v in rng.choice(classes, n)]
        y_pred = [str(v) for v in rng.choice(classes, n)]
        got = confusion_counts(y_true, y_pred, classes)
        np.testing.assert_array_equal(got, confusion_oracle(y_true, y_pred, classes))
        true = np.asarray([classes.index(v) for v in y_true], dtype=np.intp)
        pred = np.asarray([classes.index(v) for v in y_pred], dtype=np.intp)
        np.testing.assert_array_equal(confusion_codes(true, pred, len(classes)), got)

    def test_column_normalize(self):
        m = np.array([[2, 0, 0], [2, 3, 0], [0, 1, 0]])
        out = column_normalize(m)
        np.testing.assert_allclose(out[:, 0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(out[:, 1], [0.0, 0.75, 0.25])
        np.testing.assert_array_equal(out[:, 2], 0.0)

    def test_column_normalize_validation(self):
        with pytest.raises(ConfigError):
            column_normalize(np.zeros(4))


class TestWilcoxon:
    def test_textbook_small_sample(self):
        """Five strictly positive differences: W = 0, exact p = 2/32."""
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = a - np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        res = wilcoxon_signed_rank(a, b)
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1 / 16)
        assert res.n_effective == 5
        assert not res.degenerate

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(5, 13))
            a = rng.normal(0.0, 1.0, n)
            b = a + rng.normal(0.1, 0.6, n)
            res = wilcoxon_signed_rank(a, b, method="exact")
            w_ref, p_ref = wilcoxon_oracle(a, b)
            assert res.statistic == pytest.approx(w_ref, abs=0)
            assert res.p_value == pytest.approx(p_ref, abs=0)

    def test_ties_share_average_ranks(self):
        a = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        b = np.array([0.0, 0.0, 0.0, 0.0, 2.0, 0.0])
        res = wilcoxon_signed_rank(a, b, method="exact")
        w_ref, p_ref = wilcoxon_oracle(a, b)
        assert res.statistic == pytest.approx(w_ref, abs=0)
        assert res.p_value == pytest.approx(p_ref, abs=0)

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.9])
        b = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 9.9])
        res = wilcoxon_signed_rank(a, b)
        assert res.n_effective == 6

    def test_all_zero_is_degenerate(self):
        a = np.ones(8)
        res = wilcoxon_signed_rank(a, a)
        assert res.degenerate
        assert res.p_value == 1.0
        assert res.n_effective == 0

    def test_too_few_pairs_rejected(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.zeros(4)
        with pytest.raises(ProtocolError):
            wilcoxon_signed_rank(a, b)

    def test_approx_close_to_exact_at_boundary(self):
        rng = np.random.default_rng(42)
        a = rng.normal(0.0, 1.0, 12)
        b = a + rng.normal(0.3, 0.8, 12)
        exact = wilcoxon_signed_rank(a, b, method="exact")
        approx = wilcoxon_signed_rank(a, b, method="approx")
        assert approx.p_value == pytest.approx(exact.p_value, abs=0.02)

    def test_auto_switches_to_approximation(self):
        rng = np.random.default_rng(42)
        a = rng.normal(0.0, 1.0, 40)
        b = a + rng.normal(0.4, 1.0, 40)
        res = wilcoxon_signed_rank(a, b)
        assert 0.0 <= res.p_value <= 1.0
        assert res.n_effective == 40

    def test_validation(self):
        with pytest.raises(ConfigError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])
        with pytest.raises(ConfigError):
            wilcoxon_signed_rank([np.nan] * 6, [0.0] * 6)
        with pytest.raises(ConfigError):
            wilcoxon_signed_rank([1.0] * 6, [0.0] * 6, method="bootstrap")
