"""Threshold-scan semantics against a rank-based brute-force oracle."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from minacc import axiscore, featmap
from minacc.axiscore import (
    FeatureMatrix,
    LabeledDataset,
    Orientation,
    ScannedFeatures,
    ThresholdClassifier,
    as_linear_classifier,
    axis_accuracy,
    best_counts,
    classifier_accuracy,
    linear_predict,
    r_min_deterministic,
)
from minacc.featmap import EncodingCircuitSpec, LazyProxyFeatures, PauliFeatures, ProjectionSpec
from minacc.sampling import conservative_estimate


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


def test_threshold_rule_predicts_from_any_feature_source():
    rng = np.random.default_rng(12)
    data = LabeledDataset(rng.uniform(-2, 2, size=(20, 2)), np.where(rng.random(20) < 0.5, 1, -1))
    lazy = LazyProxyFeatures(data, ProjectionSpec(2, 16, seed=3))
    matrix = lazy.materialize()
    for orientation in Orientation:
        rule = ThresholdClassifier(5, float(np.median(matrix.column(5))), orientation)
        labels = [rule.predict(source) for source in (matrix.values, matrix, lazy)]
        assert all(np.array_equal(got, labels[0]) for got in labels[1:])
        assert classifier_accuracy(rule, matrix.values, data.labels) == float(np.mean(labels[0] == data.labels))


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
def test_ordered_map_yields_in_order_and_raises_a_task_error_at_its_turn(monkeypatch, cores):
    monkeypatch.setattr(axiscore, "_CORES", cores)
    caller = threading.get_ident()
    task_threads = set()

    def task(item):
        time.sleep(0.002 * (2 - item % 3))  # later tasks often finish first
        task_threads.add(threading.get_ident())
        if item == 7:
            raise RuntimeError("task 7 failed")
        return 10 * item + 1

    items = range(12)
    assert list(axiscore._ordered_map(task, items[:7])) == [10 * k + 1 for k in range(7)]
    assert (caller in task_threads) == (cores == 1)

    # a task's exception is raised when its turn comes, after every earlier result
    got = []
    with pytest.raises(RuntimeError, match="task 7"):
        for result in axiscore._ordered_map(task, items):
            got.append(result)
    assert got == [10 * k + 1 for k in range(7)]

    # a single item runs inline
    inline_threads = []
    assert list(axiscore._ordered_map(lambda item: inline_threads.append(threading.get_ident()),
                                      items[:1])) == [None]
    assert inline_threads == [caller]


def _partitioned_sources(n):
    """A matrix, the proxy and the Pauli source over 4^n axes of three samples, and index
    sets over them: every axis, a draw without repeats, one with repeats, and one axis."""
    rng = np.random.default_rng(30 + n)
    data = LabeledDataset(rng.uniform(-2, 2, size=(3, 2)), np.array([1, -1, 1]))
    d = 4 ** n
    sources = (FeatureMatrix(rng.uniform(-1, 1, size=(3, d))), LazyProxyFeatures(data, ProjectionSpec(2, d, seed=n)),
               PauliFeatures.of(data, EncodingCircuitSpec(n)))
    return sources, (range(d), rng.permutation(d)[:5000].tolist(), rng.integers(0, d, size=300), [d - 1])


@pytest.mark.parametrize("n", range(1, 9))
def test_parts_cover_every_position_once_ascending_within_a_part(n):
    sources, index_sets = _partitioned_sources(n)
    for source in sources:
        for indices in index_sets:
            positions = [np.arange(len(indices))[part] for part in source.parts(indices)]
            assert all(p.size and np.all(np.diff(p) > 0) for p in positions)
            assert np.sort(np.concatenate(positions)).tolist() == list(range(len(indices)))
            if source is sources[2]:  # no X-mask in two Pauli parts, the parts in ascending mask order
                masks = [np.unique(featmap._pauli_masks(np.asarray(indices)[p], n)[0]) for p in positions]
                assert all(a[-1] < b[0] for a, b in zip(masks, masks[1:]))
    # a full request's Pauli part holds max(1, 4096 // 2^n) X-masks
    pauli, cap = sources[2], max(1, 4096 // 2 ** n)
    masks = [np.unique(featmap._pauli_masks(part, n)[0]) for part in pauli.parts(range(4 ** n))]
    assert all(m.size == cap for m in masks[:-1]) and 0 < masks[-1].size <= cap
    assert np.concatenate(masks).tolist() == list(range(2 ** n))


@pytest.mark.parametrize("n", range(1, 9))
def test_pauli_parts_are_int32_positions_grouped_by_x_mask(n):
    # 4 bytes a position: the parts a scan holds for its whole run.  The cover is the X-mask
    # grouping, max(1, 4096 // 2^n) requested masks a part, ascending, positions ascending in each
    pauli, per = _partitioned_sources(n)[0][2], max(1, 4096 // 2 ** n)
    for indices in _partitioned_sources(n)[1]:
        parts = pauli.parts(indices)
        assert all(part.dtype == np.int32 for part in parts)
        masks = featmap._pauli_masks(np.asarray(indices), n)[0]
        groups = np.unique(masks)
        expected = [np.flatnonzero(np.isin(masks, groups[g:g + per])).tolist() for g in range(0, groups.size, per)]
        assert [part.tolist() for part in parts] == expected
        # the axes a range request's parts give are int64, as an index array's are
        for part in parts:
            assert axiscore._at(range(len(indices)), part).dtype == np.int64


def test_a_scan_record_holds_the_counts_it_scored_uncopied(monkeypatch):
    # one batch, one count vector: the record's counts are the scored batch's own array;
    # two batches are joined in scoring order
    runs, init = [], axiscore._ScoredAxes.__init__

    def recorded(self, *args):
        init(self, *args)
        runs.append(self)

    monkeypatch.setattr(axiscore._ScoredAxes, "__init__", recorded)
    rng = np.random.default_rng(16)
    values, labels = rng.normal(size=(9, 6000)), np.where(np.arange(9) % 3 == 0, 1, -1)
    scanned = ScannedFeatures(values, labels)
    [run] = runs
    assert len(run._counts) == 1 and scanned.counts is run._counts[0]
    run.score([5, 1])
    assert run.counts.tolist() == scanned.counts.tolist() + scanned.counts[[5, 1]].tolist()


@pytest.mark.parametrize("n", range(1, 9))
def test_a_full_pauli_request_transforms_each_x_mask_once(monkeypatch, n):
    # the build and the lazy scan alike: each X-mask is in one part, and its transform
    # yields every Z-mask of it
    source = _partitioned_sources(n)[0][2]
    transformed, transform = [], featmap._transformed_products

    def spy(psi, x_masks, qubits):
        transformed.extend(x_masks.tolist())
        return transform(psi, x_masks, qubits)

    monkeypatch.setattr(featmap, "_transformed_products", spy)
    for full_request in (source.materialize, lambda: ScannedFeatures(source, np.array([1, -1, 1]))):
        transformed.clear()
        full_request()
        assert sorted(transformed) == list(range(2 ** n))


class _HalvingSource(featmap._ColumnSource):
    """The columns of a matrix, every request of two or more axes cut in two halves, so the
    build inside each half's scan task is two parts again."""

    def __init__(self, values):
        self._values = values
        self.sample_count, self.axis_count = values.shape

    def parts(self, axes) -> list[slice]:
        half = (len(axes) + 1) // 2
        return [slice(0, half), slice(half, len(axes))] if len(axes) > 1 else [slice(0, len(axes))]

    def _fill(self, axes, rows, buffer):
        buffer[rows] = self._values[:, axes[rows]].T


def _halving_case():
    values = np.random.default_rng(17).normal(size=(10, 96))
    return values, np.where(np.arange(10) % 3 == 0, 1, -1)


def _exit_zero_if_the_halving_source_is(values, labels, counts, best):
    source = _HalvingSource(values)
    scanned = ScannedFeatures(source, labels)
    same = (scanned.counts.tobytes(), scanned.best) == (counts, best)
    os._exit(0 if same and source.materialize().values.tobytes() == values.tobytes() else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_source_whose_parts_have_parts_scans_and_builds_on_two_workers(monkeypatch):
    # each half's scan task builds its columns in two parts, on its own worker, inline: a build
    # that sent them to the two busy workers and waited would hang, so the child is given a minute
    monkeypatch.setattr(axiscore, "_CORES", 2)
    values, labels = _halving_case()
    matrix = ScannedFeatures(FeatureMatrix(values), labels)
    child = multiprocessing.get_context("fork").Process(
        target=_exit_zero_if_the_halving_source_is, args=(values, labels, matrix.counts.tobytes(), matrix.best))
    child.start()
    child.join(60)
    if child.exitcode is None:
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_a_parts_own_parts_are_itself(monkeypatch):
    # the shipped sources cut the axes of a part into one part, all of it in order: a scan
    # task's column build is then a single task, which runs inline wherever it is started
    for n in range(1, 9):
        sources, index_sets = _partitioned_sources(n)
        for source in sources:
            for indices in index_sets:
                for part in source.parts(indices):
                    axes = np.asarray(indices)[part]
                    own = source.parts(axes)
                    assert len(own) == 1 and np.arange(axes.size)[own[0]].tolist() == list(range(axes.size))
    # no pool task submits to the pool, with those parts or with a source whose parts have
    # parts: a map started on a pool worker runs inline there
    monkeypatch.setattr(axiscore, "_CORES", 2)
    monkeypatch.setattr(axiscore, "_POOL", None)
    list(axiscore._ordered_map(abs, range(2)))  # starts the pool
    pool, submitted, caller = axiscore._POOL, [], threading.get_ident()
    submit = pool.submit

    def caller_only_submit(*args, **kwargs):
        if threading.get_ident() != caller:
            raise AssertionError("a pool task submitted to the pool")
        submitted.append(args)
        return submit(*args, **kwargs)

    monkeypatch.setattr(pool, "submit", caller_only_submit)
    sources, _ = _partitioned_sources(7)
    try:
        for source in sources[1:]:
            submitted.clear()
            ScannedFeatures(source, np.array([1, -1, 1]))
            assert len(submitted) == 4  # the scan's own tasks only, 16,384 axes in four parts
        submitted.clear()
        values, labels = _halving_case()
        assert ScannedFeatures(_HalvingSource(values), labels).counts.tolist() == best_counts(values, labels).tolist()
        assert len(submitted) == 2  # the scan's two halves only
    finally:
        pool.shutdown()


def test_a_scan_task_returns_one_column_not_its_block(monkeypatch):
    # three 4,096-axis parts of a matrix and four 32-X-mask parts of a lazy n = 7 Pauli source,
    # on the pool; each task returns its positions, its counts and the column of their first
    # maximum, a copy that holds no block alive
    monkeypatch.setattr(axiscore, "_CORES", 2)
    rng = np.random.default_rng(15)
    labels = np.where(np.arange(9) % 2 == 0, 1, -1)
    pauli = PauliFeatures.of(LabeledDataset(rng.uniform(-2, 2, size=(9, 3)), labels), EncodingCircuitSpec(7))
    results, ordered_map = [], axiscore._ordered_map

    def recording_map(task, items):
        for result in ordered_map(task, items):
            results.append(result)
            yield result

    monkeypatch.setattr(axiscore, "_ordered_map", recording_map)
    for values, tasks in ((rng.normal(size=(9, 10000)), 3), (pauli.materialize().values, 4)):
        results.clear()
        scanned = ScannedFeatures(FeatureMatrix(values) if tasks == 3 else pauli, labels)
        assert len(results) == tasks
        counts = np.empty(values.shape[1], dtype=np.int64)
        for part, part_counts, column in results:
            axis = np.arange(values.shape[1])[part][int(np.argmax(part_counts))]
            assert column.shape == (9,) and column.base is None
            assert column.tobytes() == values[:, axis].tobytes()
            counts[part] = part_counts
        assert counts.tobytes() == scanned.counts.tobytes()
        assert scanned.best.axis_index == np.flatnonzero(counts == scanned.best.correct_count)[0]


def _product_states(n):
    """|0...0> and |+>|0...0>: they differ on qubit 0 only, the amplitude index's top bit."""
    states = np.zeros((2, 2 ** n))
    states[:, 0] = 1.0
    states[1, 2 ** (n - 1)] = 1.0
    return PauliFeatures(states)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_a_tie_across_two_x_mask_parts_goes_to_the_lower_index(monkeypatch, cores):
    # every string with X or Z on qubit 0 and I or Z elsewhere separates the two states: all
    # tie at 2 correct.  The lowest, XIIIIIII (16,384, X-mask 128), lies in part 8; ZIIIIIII
    # (49,152) and the other Z strings lie in part 0 (X-mask 0), which is scored first
    monkeypatch.setattr(axiscore, "_CORES", cores)
    source, labels = _product_states(8), np.array([1, -1])
    parts = source.parts(range(4 ** 8))
    part_of = {axis: k for k, part in enumerate(parts) for axis in (16384, 49152) if axis in part}
    assert part_of == {16384: 8, 49152: 0}
    lazy, matrix = ScannedFeatures(source, labels), ScannedFeatures(source.materialize(), labels)
    assert lazy.counts.tobytes() == matrix.counts.tobytes() and lazy.counts.max() == 2
    assert np.count_nonzero(lazy.counts == 2) == 2 * 2 ** 7
    assert lazy.best == matrix.best and lazy.best.axis_index == 16384


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_a_sampled_pauli_batch_of_several_parts_keeps_draw_order(monkeypatch, cores):
    # t = 2,996 axes drawn over every X-mask: 16 parts.  The first drawn of the tied winners
    # lies in a later part than another of them, and it wins, as on the matrix
    monkeypatch.setattr(axiscore, "_CORES", cores)
    source, labels = _product_states(8), np.array([1, -1])
    lazy = conservative_estimate(source, labels, 0.001, 0.05, rng_seed=5)
    matrix = conservative_estimate(source.materialize(), labels, 0.001, 0.05, rng_seed=5)
    drawn = lazy.sampled_axes
    parts = source.parts(drawn)
    assert len(drawn) == 2996 and len(parts) == 16
    winners = np.flatnonzero(lazy.axis_accuracies == 1.0).tolist()
    part_of = {k: p for p, part in enumerate(parts) for k in part.tolist()}
    assert part_of[winners[0]] > min(part_of[k] for k in winners)
    assert drawn == matrix.sampled_axes
    assert lazy.axis_accuracies.tobytes() == matrix.axis_accuracies.tobytes()
    assert lazy.best == matrix.best and lazy.best.axis_index == drawn[winners[0]]
