"""Threshold-scan semantics against a rank-based brute-force oracle."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from minacc import axiscore
from minacc.axiscore import (
    FeatureMatrix,
    LabeledDataset,
    Orientation,
    ThresholdClassifier,
    as_linear_classifier,
    axis_accuracy,
    best_counts,
    classifier_accuracy,
    linear_predict,
    r_min_deterministic,
)


def oracle_best_count(values, labels):
    """Best correct-count over every realizable threshold interval and both
    orientations, enumerated by sorted rank rather than by float thresholds."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    order = np.argsort(values, kind="stable")
    sv, sl = values[order], labels[order]
    n = sv.size
    best = 0
    for r in range(n + 1):  # r points strictly below the cut
        if 0 < r < n and sv[r - 1] == sv[r]:
            continue  # no real threshold separates equal values
        below, above = sl[:r], sl[r:]
        below_minus = int(np.sum(below == -1) + np.sum(above == 1))
        below_plus = int(np.sum(below == 1) + np.sum(above == -1))
        best = max(best, below_minus, below_plus)
    return best


def oracle_r_min(matrix, labels):
    counts = [oracle_best_count(matrix[:, i], labels) for i in range(matrix.shape[1])]
    return max(counts) / matrix.shape[0]


def random_instance(rng, n_max=20, d_max=10, discrete=False):
    n = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    if discrete:  # force plenty of ties
        matrix = rng.integers(0, 4, size=(n, d)).astype(float)
    else:
        matrix = rng.uniform(-1, 1, size=(n, d))
    labels = rng.choice([-1, 1], size=n)
    if np.all(labels == labels[0]) and n > 1:
        labels[0] = -labels[0]
    return matrix, labels


def test_single_class_column_is_perfect():
    assert axis_accuracy([0.1, 0.2], [1, 1]).accuracy == 1.0
    assert axis_accuracy([0.1, 0.2], [-1, -1]).accuracy == 1.0


def test_separated_column():
    result = axis_accuracy([-1, -0.5, 0.5, 1], [-1, -1, 1, 1])
    assert result.accuracy == 1.0
    assert -0.5 < result.best_threshold < 0.5


def test_alternating_column_gives_three_quarters():
    result = axis_accuracy([1, 2, 3, 4], [1, -1, 1, -1])
    assert result.accuracy == 0.75
    assert result.correct_count == oracle_best_count([1, 2, 3, 4], [1, -1, 1, -1])


def test_axis_accuracy_matches_oracle_on_random_instances():
    rng = np.random.default_rng(101)
    for trial in range(120):
        matrix, labels = random_instance(rng, d_max=1, discrete=trial % 3 == 0)
        result = axis_accuracy(matrix[:, 0], labels)
        assert result.correct_count == oracle_best_count(matrix[:, 0], labels)


def test_r_min_matches_oracle_on_random_instances():
    rng = np.random.default_rng(77)
    for trial in range(60):
        matrix, labels = random_instance(rng, discrete=trial % 4 == 0)
        r_min, best, accs = r_min_deterministic(FeatureMatrix(values=matrix), labels)
        assert r_min == oracle_r_min(matrix, labels)
        assert accs.shape == (matrix.shape[1],)
        assert r_min == accs.max()
        assert accs[best.axis_index] == r_min


def test_winner_tie_breaks_to_lowest_axis():
    col = np.array([0.0, 1.0, 2.0, 3.0])
    labels = np.array([-1, -1, 1, 1])
    matrix = np.column_stack([col, col, col])
    _, best, _ = r_min_deterministic(FeatureMatrix(values=matrix), labels)
    assert best.axis_index == 0


def test_threshold_tie_breaks_to_lowest():
    # counts of 3 are achievable both between ranks 1-2 and ranks 3-4
    result = axis_accuracy([0.0, 1.0, 2.0, 3.0], [-1, 1, -1, 1])
    assert result.accuracy == 0.75
    assert result.best_threshold == 0.5


def test_monotone_transform_invariance():
    rng = np.random.default_rng(5)
    matrix, labels = random_instance(rng)
    base, _, _ = r_min_deterministic(FeatureMatrix(values=matrix), labels)
    warped = matrix.copy()
    warped[:, 0] = np.exp(3.0 * warped[:, 0]) - 7.0
    after, _, _ = r_min_deterministic(FeatureMatrix(values=warped), labels)
    assert after == base


def test_label_flip_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        matrix, labels = random_instance(rng)
        fm = FeatureMatrix(values=matrix)
        assert r_min_deterministic(fm, labels)[0] == r_min_deterministic(fm, -labels)[0]


def test_majority_floor_and_rational_accuracies():
    rng = np.random.default_rng(7)
    for _ in range(20):
        matrix, labels = random_instance(rng)
        n = matrix.shape[0]
        majority = max(np.sum(labels == 1), np.sum(labels == -1))
        for i in range(matrix.shape[1]):
            result = axis_accuracy(matrix[:, i], labels, axis_index=i)
            assert result.correct_count >= majority
            assert result.accuracy == result.correct_count / n


def test_constant_column_yields_majority():
    result = axis_accuracy([0.5, 0.5, 0.5, 0.5], [1, 1, 1, -1])
    assert result.accuracy == 0.75


def test_all_identical_labels_r_min_is_one():
    matrix = np.random.default_rng(8).uniform(size=(6, 3))
    r_min, _, _ = r_min_deterministic(FeatureMatrix(values=matrix), np.ones(6, dtype=int))
    assert r_min == 1.0


def test_empty_dataset_error():
    with pytest.raises(ValueError, match="empty dataset"):
        axis_accuracy([], [])


_RULE = ThresholdClassifier(axis_index=1, threshold=0.0, orientation=Orientation.BELOW_IS_MINUS)


@pytest.mark.parametrize("call, message", [
    (lambda: axis_accuracy([0.1, 0.2], [[1, -1]]), "^empty dataset: need a non-empty 1-D label vector$"),
    (lambda: LabeledDataset(np.zeros((0, 2)), []), "^empty dataset: inputs must be a non-empty N x m matrix$"),
    (lambda: LabeledDataset(np.zeros((3, 2)), [1, -1]), "^inputs and labels disagree on N$"),
    (lambda: FeatureMatrix(values=np.zeros((0, 3))), "^empty dataset: feature matrix must be non-empty N x d$"),
    (lambda: axis_accuracy([0.1, 0.2, 0.3], [1, -1]), "^features and labels disagree on N$"),
    (lambda: classifier_accuracy(_RULE, np.zeros((3, 2)), [1, -1]), "^features and labels disagree on N$"),
    (lambda: as_linear_classifier(_RULE, 1), r"^axis 1 out of range \[0, 1\)$"),
], ids=["labels 2-D", "no inputs", "inputs vs labels", "no features", "values vs labels",
        "classifier vs labels", "axis out of range"])
def test_shape_errors_name_their_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_non_finite_feature_error():
    with pytest.raises(ValueError, match="non-finite feature"):
        axis_accuracy([0.1, np.nan], [1, -1])
    with pytest.raises(ValueError, match="non-finite"):
        FeatureMatrix(values=np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("order", ["C", "F"])
def test_feature_matrix_finds_a_non_finite_value_in_a_later_block(order):
    values = np.zeros((3, 3 * 512 + 1), order=order)
    values[2, -1] = np.nan
    with pytest.raises(ValueError, match="non-finite feature values in matrix"):
        FeatureMatrix(values=values)


@pytest.mark.parametrize("row", [0, 3, 6, slice(None)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_anywhere_in_a_column_is_rejected(bad, row):
    # the check reads the sorted ends of each row: NaN sorts last, -inf first;
    # a whole column of one non-finite value has equal ends and still fails
    block = np.random.default_rng(5).uniform(-1, 1, size=(7, 5))
    block[row, 2] = bad
    labels = np.array([1, -1, 1, 1, -1, -1, 1])
    with pytest.raises(ValueError, match="non-finite"):
        best_counts(block, labels)
    with pytest.raises(ValueError, match="non-finite"):
        axis_accuracy(block[:, 2], labels)


def test_all_equal_columns_score_the_majority_among_varying_ones():
    # signed zeros, one repeated value and a single-sample column have no cut
    # between values; the walk gives them max(#pos, #neg), and so must the shortcut
    rng = np.random.default_rng(7)
    labels = np.array([1, -1, 1, 1, -1, 1, -1, 1, 1])
    zeros = np.where(rng.uniform(size=9) < 0.5, -0.0, 0.0)
    columns = [zeros, rng.uniform(-1, 1, 9), np.full(9, 0.3), np.full(9, -0.0),
               rng.choice([0.0, 1.0], 9), np.zeros(9), rng.uniform(-1, 1, 9)]
    block = np.column_stack(columns)
    expected = [axis_accuracy(block[:, i], labels).correct_count for i in range(block.shape[1])]
    assert best_counts(block, labels).tolist() == expected
    assert [expected[i] for i in (0, 2, 3, 5)] == [6] * 4
    for order in ("C", "F"):
        assert best_counts(np.asarray(block, order=order), labels).tolist() == expected
    assert best_counts(block[:, [0, 2, 3, 5]], labels).tolist() == [6] * 4
    assert best_counts(block[:1], labels[:1]).tolist() == [1] * 7


def test_counts_do_not_overflow_a_narrow_integer():
    # 40,000 exceeds int16; every count of this single-class column must survive
    n = 40_000
    column = np.random.default_rng(6).uniform(size=(n, 1))
    labels = np.ones(n, dtype=np.int64)
    counts = best_counts(column, labels)
    assert counts.dtype == np.int64 and counts.tolist() == [n]
    assert axis_accuracy(column[:, 0], labels).accuracy == 1.0


def test_invalid_labels_error():
    with pytest.raises(ValueError):
        axis_accuracy([0.1, 0.2], [1, 0])


def test_classifier_roundtrip_consistency():
    rng = np.random.default_rng(9)
    for _ in range(20):
        matrix, labels = random_instance(rng)
        fm = FeatureMatrix(values=matrix)
        for i in range(matrix.shape[1]):
            result = axis_accuracy(matrix[:, i], labels, axis_index=i)
            clf = ThresholdClassifier(
                axis_index=i, threshold=result.best_threshold, orientation=result.orientation
            )
            assert classifier_accuracy(clf, fm, labels) == result.accuracy


def test_extreme_threshold_predicts_all_plus():
    matrix = np.array([[0.2], [0.4], [0.6]])
    labels = np.array([1, -1, 1])
    clf = ThresholdClassifier(
        axis_index=0, threshold=0.0, orientation=Orientation.BELOW_IS_MINUS
    )
    assert classifier_accuracy(clf, FeatureMatrix(values=matrix), labels) == 2 / 3


def test_orientation_flip_complements_accuracy():
    rng = np.random.default_rng(10)
    for _ in range(20):
        matrix, labels = random_instance(rng, d_max=1, discrete=True)
        fm = FeatureMatrix(values=matrix)
        tau = float(rng.uniform(-1, 4))
        a = ThresholdClassifier(0, tau, Orientation.BELOW_IS_MINUS)
        b = ThresholdClassifier(0, tau, Orientation.BELOW_IS_PLUS)
        acc_a = classifier_accuracy(a, fm, labels)
        acc_b = classifier_accuracy(b, fm, labels)
        assert acc_a + acc_b == pytest.approx(1.0)


def test_tie_at_threshold_classifies_at_or_above():
    clf = ThresholdClassifier(0, 0.5, Orientation.BELOW_IS_MINUS)
    assert clf.predict_values(np.array([0.5])).tolist() == [1]
    flipped = ThresholdClassifier(0, 0.5, Orientation.BELOW_IS_PLUS)
    assert flipped.predict_values(np.array([0.5])).tolist() == [-1]


def test_as_linear_classifier_examples():
    w, b = as_linear_classifier(
        ThresholdClassifier(3, 0.5, Orientation.BELOW_IS_MINUS), axis_count=5
    )
    assert w.tolist() == [0, 0, 0, 1, 0]
    assert b == -0.5
    w, b = as_linear_classifier(
        ThresholdClassifier(0, 0.0, Orientation.BELOW_IS_PLUS), axis_count=2
    )
    assert w.tolist() == [-1, 0]
    assert b == 0.0


def test_linear_form_reproduces_threshold_predictions():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        clf = ThresholdClassifier(
            axis_index=int(rng.integers(0, d)),
            threshold=float(rng.normal()),
            orientation=rng.choice(list(Orientation)),
        )
        points = rng.normal(size=(100, d))
        fm = FeatureMatrix(values=points)
        w, b = as_linear_classifier(clf, axis_count=d)
        assert np.array_equal(linear_predict(w, b, fm), clf.predict(fm))


def test_linear_predict_does_not_depend_on_the_memory_layout():
    # a dense hyperplane whose decision value on row k is exactly 0 in the
    # row-major product and below 0 in the axis-major one
    rng = np.random.default_rng(13)
    row_major = rng.normal(size=(100, 4096))
    axis_major = np.asfortranarray(row_major)
    w = rng.normal(size=4096)
    k = int(np.flatnonzero(axis_major @ w < row_major @ w)[0])
    bias = -float((row_major @ w)[k])
    assert np.array_equal(linear_predict(w, bias, FeatureMatrix(values=row_major)),
                          linear_predict(w, bias, FeatureMatrix(values=axis_major)))


def test_linear_predict_rejects_weights_of_another_length():
    with pytest.raises(ValueError, match="weights"):
        linear_predict(np.ones(3), 0.0, FeatureMatrix(values=np.ones((2, 4))))


def test_linear_witness_achieves_r_min_exactly():
    rng = np.random.default_rng(12)
    for _ in range(30):
        matrix, labels = random_instance(rng)
        fm = FeatureMatrix(values=matrix)
        r_min, best, _ = r_min_deterministic(fm, labels)
        clf = ThresholdClassifier(best.axis_index, best.best_threshold, best.orientation)
        w, b = as_linear_classifier(clf, axis_count=matrix.shape[1])
        predictions = linear_predict(w, b, fm)
        assert np.mean(predictions == labels) == r_min


def test_adjacent_double_values_still_match_oracle():
    lo = 1.0
    hi = np.nextafter(lo, 2.0)
    values = np.array([0.0, lo, hi, 2.0])
    labels = np.array([-1, -1, 1, 1])
    result = axis_accuracy(values, labels)
    assert result.correct_count == oracle_best_count(values, labels) == 4
    # the returned threshold must actually realize the count
    clf = ThresholdClassifier(0, result.best_threshold, result.orientation)
    fm = FeatureMatrix(values=values.reshape(-1, 1))
    assert classifier_accuracy(clf, fm, labels) == 1.0


def test_labeled_dataset_counts():
    ds = LabeledDataset(inputs=np.zeros((3, 2)), labels=np.array([1, -1, 1]))
    assert ds.sample_count == 3
    assert ds.input_dim == 2
    assert ds.positive_count == 2
    assert ds.negative_count == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_labeled_dataset_rejects_non_finite_inputs(bad):
    inputs = np.zeros((3, 2))
    inputs[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite input values in dataset"):
        LabeledDataset(inputs=inputs, labels=np.array([1, -1, 1]))


def _exit_zero_if_the_scan_matches(values, labels, expected):
    os._exit(0 if r_min_deterministic(values, labels)[0] == expected else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_scans_on_its_own_pool(monkeypatch):
    # the parent's pool threads do not exist in a forked child
    monkeypatch.setattr(axiscore, "_CORES", 2)
    values = np.random.default_rng(14).normal(size=(10, 6000))
    labels = np.where(np.arange(10) % 3 == 0, 1, -1)
    r_min, _, _ = r_min_deterministic(values, labels)
    child = multiprocessing.get_context("fork").Process(
        target=_exit_zero_if_the_scan_matches, args=(values, labels, r_min))
    child.start()
    child.join(60)
    if child.exitcode is None:
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_ordered_map_reads_ahead_by_two_tasks_per_core_and_yields_in_order(monkeypatch, cores):
    monkeypatch.setattr(axiscore, "_CORES", cores)
    caller = threading.get_ident()
    reads, read_threads, task_threads = [], set(), set()

    def read(item):
        reads.append(item)
        read_threads.add(threading.get_ident())
        return 10 * item

    def task(value):
        time.sleep(0.002 * (2 - value // 10 % 3))  # later tasks often finish first
        task_threads.add(threading.get_ident())
        if value == 70:
            raise RuntimeError("task 7 failed")
        return value + 1

    items = range(12)
    window = 1 if cores == 1 else 2 * cores  # reads made ahead of the consumer
    ahead = []
    for k, (value, result) in enumerate(axiscore._ordered_map(task, items[:7], read)):
        assert (value, result) == (10 * k, 10 * k + 1)
        ahead.append(len(reads) - k)
    assert reads == list(range(7))
    assert ahead == [min(window, 7 - k) for k in range(7)]
    assert read_threads == {caller}
    assert (caller in task_threads) == (cores == 1)

    # a task's exception is raised when its turn comes, after every earlier result
    reads.clear()
    got = []
    with pytest.raises(RuntimeError, match="task 7"):
        for value, _ in axiscore._ordered_map(task, items, read):
            got.append(value)
    assert got == [0, 10, 20, 30, 40, 50, 60]
    assert len(reads) == min(7 + window, len(items))

    # a single item runs inline
    inline_threads = []
    assert list(axiscore._ordered_map(lambda value: inline_threads.append(threading.get_ident()),
                                      items[:1], read)) == [(0, None)]
    assert inline_threads == [caller]
