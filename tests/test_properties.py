"""Property tests of the certified chain over random small shapes.

Every R_min and every estimate goes through one column protocol and one
sweep, so the properties here hold for any feature source: the batched
per-column counts equal the single-axis scan, an ndarray, a FeatureMatrix
and a lazy proxy source give identical estimates, and the reported best
axis reproduces the reported value.  A lazy source, proxy or Pauli, gives
its materialized matrix's scan and estimates bit for bit.  Lazy proxy
columns are byte-identical to the eager matrix for any index set,
whichever columns share a block, and no scan result depends on the order
of tied rows, on the memory layout of the matrix or on the number of
threads.  An estimate that looks up the exhaustive scan's counts is the
estimate that sweeps, byte for byte.  Shapes include N = 1, single-class
labels and duplicate-heavy columns.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minacc import axiscore, featmap
from minacc.axiscore import (
    LabeledDataset,
    ScannedFeatures,
    ThresholdClassifier,
    axis_accuracy,
    best_counts,
    classifier_accuracy,
    r_min_deterministic,
)
from minacc.featmap import (
    EncodingCircuitSpec,
    LazyProxyFeatures,
    PauliFeatures,
    ProjectionSpec,
    pauli_feature_matrix,
)
from minacc.sampling import (
    adaptive_estimate,
    conservative_estimate,
    deterministic_estimate,
    pilot_estimate,
)

# few distinct values, so ties and duplicate cut points are the common case
_DUPLICATE_HEAVY = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
_ANY_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# ties of signed zeros and of adjacent doubles, where a sort may order equal
# values either way and a midpoint may round onto its lower end
_TIE_HEAVY = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, float(np.nextafter(0.5, 1.0)),
])


@st.composite
def labeled_matrices(draw, max_n=12, max_d=8, element=None):
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    if element is None:
        element = draw(st.sampled_from([_DUPLICATE_HEAVY, _TIE_HEAVY, _ANY_FINITE]))
    values = draw(st.lists(element, min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return np.array(values).reshape(n, d), np.array(labels)


@st.composite
def lazy_sources(draw):
    """A lazy proxy source over duplicate-prone inputs, plus its labels."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 3))
    d = draw(st.integers(1, 24))
    inputs = draw(st.lists(_DUPLICATE_HEAVY, min_size=n * m, max_size=n * m))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    dataset = LabeledDataset(np.array(inputs).reshape(n, m), np.array(labels))
    spec = ProjectionSpec(input_dim=m, feature_dim=d, seed=draw(st.integers(0, 2**32)))
    return LazyProxyFeatures(dataset, spec), dataset.labels


@st.composite
def pauli_lazy_sources(draw):
    """A lazy 2- or 3-qubit Pauli source over duplicate-prone inputs, plus its labels."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 3))
    inputs = draw(st.lists(_DUPLICATE_HEAVY, min_size=n * m, max_size=n * m))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    dataset = LabeledDataset(np.array(inputs).reshape(n, m), np.array(labels))
    spec = EncodingCircuitSpec(draw(st.integers(2, 3)), layers=draw(st.integers(1, 2)),
                               entangler=draw(st.sampled_from(["ring_cz", "none"])))
    return PauliFeatures.of(dataset, spec), dataset.labels


def _estimators(d, seed):
    return {
        "deterministic": lambda f, y: deterministic_estimate(f, y),
        "conservative": lambda f, y: conservative_estimate(f, y, 0.5, 0.05, rng_seed=seed),
        "pilot": lambda f, y: pilot_estimate(f, y, n_pilot=min(3, d), cap_fraction=1.0,
                                             rng_seed=seed),
        "adaptive": lambda f, y: adaptive_estimate(f, y, batch_size=2, patience=2,
                                                   budget_fraction=1.0, rng_seed=seed),
    }


def _as_tuple(result):
    return (result.r_hat, result.sampled_axes, result.axis_accuracies.tolist(), result.best,
            result.method, result.stopping_reason, result.axes_evaluated, result.pilot_stats)


@settings(max_examples=200, deadline=None)
@given(labeled_matrices())
def test_batched_counts_equal_single_axis_scans(case):
    values, labels = case
    counts = best_counts(values, labels)
    assert counts.tolist() == [
        axis_accuracy(values[:, i], labels, axis_index=i).correct_count
        for i in range(values.shape[1])
    ]


@st.composite
def blocks_with_all_equal_columns(draw):
    """A block whose columns are, in any order, varying ones and all-equal ones:
    one repeated value, or signed zeros mixed."""
    values, labels = draw(labeled_matrices())
    n = values.shape[0]
    constant = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 3e-300, "zeros"]), min_size=1, max_size=6))
    for value in constant:
        if value == "zeros":
            column = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
        else:
            column = np.full(n, value)
        at = draw(st.integers(0, values.shape[1]))
        values = np.insert(values, at, column, axis=1)
    return values, labels


@settings(max_examples=200, deadline=None)
@given(blocks_with_all_equal_columns())
def test_all_equal_columns_count_as_their_single_axis_scans(case):
    values, labels = case
    expected = [axis_accuracy(values[:, i], labels).correct_count for i in range(values.shape[1])]
    assert best_counts(values, labels).tolist() == expected
    assert best_counts(np.asfortranarray(values), labels).tolist() == expected


@st.composite
def pauli_sources(draw):
    """The n = 2 or 3 Pauli matrix of a few duplicate-prone samples, with labels."""
    n = draw(st.integers(1, 8))
    inputs = draw(st.lists(_DUPLICATE_HEAVY, min_size=2 * n, max_size=2 * n))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    dataset = LabeledDataset(np.array(inputs).reshape(n, 2), np.array(labels))
    return pauli_feature_matrix(dataset, EncodingCircuitSpec(draw(st.integers(2, 3)))), dataset.labels


@settings(max_examples=200, deadline=None)
@given(st.one_of(labeled_matrices(max_n=6, max_d=20, element=st.sampled_from([0.0, 1.0])), pauli_sources()),
       st.sampled_from([1, 2, 3, 7]), st.sampled_from([1, 2, 3]))
def test_scan_result_does_not_depend_on_its_chunk_width(case, chunk, cores):
    # few rows and two values: most axes tie, within a chunk and across chunks,
    # so the maximum recurs in later blocks, which may finish first on the pool;
    # a Pauli matrix is axis-major, and ties on its exact zeros
    values, labels = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_CORES", 1)
        whole = r_min_deterministic(values, labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_SCAN_CHUNK", chunk)
        patch.setattr(axiscore, "_CORES", cores)
        r_min, best, per_axis = r_min_deterministic(values, labels)
    assert (r_min, best) == whole[:2]
    assert per_axis.tolist() == whole[2].tolist()
    assert best.axis_index == np.flatnonzero(per_axis == r_min)[0]


def _stable_gather_sorted_rows(block):
    """Reference sort: the sorted values gathered through a stable argsort."""
    rows = np.ascontiguousarray(block.T)
    sv = np.take_along_axis(rows, np.argsort(rows, axis=1, kind="stable"), axis=1)
    if not (np.all(np.isfinite(sv[:, 0])) and np.all(np.isfinite(sv[:, -1]))):
        raise ValueError("non-finite feature values")
    return rows, sv


def _stable_gather_sweep(rows, sv, y):
    """Reference sweep: a stable argsort, and the sorted values ``sv`` it is
    given for the duplicate mask."""
    order = np.argsort(rows, axis=1, kind="stable")
    n = y.size
    below_plus = np.cumsum(y[order] == 1, axis=1) - np.cumsum(y[order] == -1, axis=1)
    plus_side = np.empty((rows.shape[0], n), dtype=np.int64)
    plus_side[:, 0] = n - int(np.count_nonzero(y == 1))
    plus_side[:, 1:] = plus_side[:, :1] + below_plus[:, :-1]
    cand = np.maximum(plus_side, n - plus_side)
    cand[:, 1:][sv[:, :-1] >= sv[:, 1:]] = -1
    return plus_side, cand


def _scan_results(values, labels):
    """Every scan output, thresholds as bytes so that -0.0 and 0.0 differ."""
    def rule(result):
        return (result.axis_index, result.correct_count,
                np.float64(result.best_threshold).tobytes(), result.orientation)

    r_min, best, per_axis = r_min_deterministic(values, labels)
    axes = [rule(axis_accuracy(values[:, i], labels, axis_index=i)) for i in range(values.shape[1])]
    return best_counts(values, labels).tolist(), axes, (r_min, rule(best), per_axis.tolist())


@settings(max_examples=200, deadline=None)
@given(labeled_matrices(element=_TIE_HEAVY))
def test_scan_results_do_not_depend_on_layout_or_tie_order(case):
    values, labels = case
    row_major = _scan_results(np.ascontiguousarray(values), labels)
    assert _scan_results(np.asfortranarray(values), labels) == row_major
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_sorted_rows", _stable_gather_sorted_rows)
        patch.setattr(axiscore, "_sweep", _stable_gather_sweep)
        assert _scan_results(np.ascontiguousarray(values), labels) == row_major


@st.composite
def permuted_duplicate_blocks(draw):
    """A duplicate-heavy block with labels, and a permutation of its rows."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    values = draw(st.lists(_DUPLICATE_HEAVY, min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return np.array(values).reshape(n, d), np.array(labels), draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(permuted_duplicate_blocks())
def test_scan_results_do_not_depend_on_row_order(case):
    # the sort is unstable, so tied values may land in any order; no count,
    # threshold or orientation may depend on it
    values, labels, perm = case
    shuffled, shuffled_labels = values[list(perm)], labels[list(perm)]
    assert best_counts(shuffled, shuffled_labels).tolist() == best_counts(values, labels).tolist()
    for i in range(values.shape[1]):
        a = axis_accuracy(values[:, i], labels, axis_index=i)
        b = axis_accuracy(shuffled[:, i], shuffled_labels, axis_index=i)
        assert (b.correct_count, b.best_threshold, b.orientation) == (
            a.correct_count, a.best_threshold, a.orientation)


@settings(max_examples=80, deadline=None)
@given(st.one_of(lazy_sources(), pauli_lazy_sources()), st.integers(0, 2**32))
def test_estimators_agree_across_sources_and_best_reproduces_r_hat(case, seed):
    # the lazy source and its matrix: the same scan, and the same estimates,
    # swept or looked up in either one's scan record, bit for bit
    lazy, labels = case
    matrix = lazy.materialize()
    assert _scan_bytes(lazy, labels) == _scan_bytes(matrix, labels)
    r_min = r_min_deterministic(lazy, labels)[0]
    scanned = [ScannedFeatures(source, labels) for source in (lazy, matrix)]
    for name, estimate in _estimators(lazy.axis_count, seed).items():
        results = [estimate(source, labels) for source in (matrix.values, matrix, lazy)]
        assert _as_tuple(results[0]) == _as_tuple(results[1]) == _as_tuple(results[2]), name
        expected = _result_bytes(results[1])
        assert _result_bytes(results[2]) == expected, name
        assert all(_result_bytes(estimate(record, labels)) == expected for record in scanned), name
        result = results[0]
        assert result.r_hat == max(result.axis_accuracies) <= r_min
        best = result.best
        witness = ThresholdClassifier(best.axis_index, best.best_threshold, best.orientation)
        assert classifier_accuracy(witness, matrix, labels) == result.r_hat


def _scan_bytes(features, labels):
    """R_min, the winning rule and the per-axis vector, floats as bytes."""
    r_min, best, accuracies = r_min_deterministic(features, labels)
    return (np.float64(r_min).tobytes(), best.axis_index, np.float64(best.best_threshold).tobytes(),
            best.orientation, best.correct_count, accuracies.dtype, accuracies.tobytes())


def _result_bytes(result):
    """Every EstimateResult field, floats and arrays as bytes so that -0.0 and 0.0 differ."""
    best = result.best
    return (np.float64(result.r_hat).tobytes(), result.sampled_axes, result.axis_accuracies.dtype,
            result.axis_accuracies.tobytes(), best.axis_index, np.float64(best.best_threshold).tobytes(),
            best.orientation, np.float64(best.accuracy).tobytes(), best.correct_count, result.method,
            result.stopping_reason, result.axes_evaluated, result.pilot_stats)


@settings(max_examples=80, deadline=None)
@given(st.one_of(labeled_matrices(max_d=40), labeled_matrices(max_d=40, element=_TIE_HEAVY),
                 blocks_with_all_equal_columns(), lazy_sources(), pauli_sources(), pauli_lazy_sources()),
       st.integers(0, 2**32))
def test_estimates_on_the_scanned_source_equal_the_swept_ones(case, seed):
    source, labels = case
    scanned = ScannedFeatures(source, labels)
    d = scanned.source.axis_count
    estimators = dict(_estimators(d, seed), **{
        f"conservative p={p}": lambda f, y, p=p: conservative_estimate(f, y, p, 0.05, rng_seed=seed)
        for p in (0.05, 0.15, 0.25)
    })
    for name, estimate in estimators.items():
        assert _result_bytes(estimate(scanned, labels)) == _result_bytes(estimate(source, labels)), name
    assert _scan_bytes(scanned, labels) == _scan_bytes(source, labels)


def test_scanned_source_rejects_other_labels():
    values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0]])
    labels = np.array([1, -1, 1])
    scanned = ScannedFeatures(values, labels)
    for other in (np.array([1, 1, -1]), np.array([-1, 1, -1])):
        with pytest.raises(ValueError, match="labels differ"):
            conservative_estimate(scanned, other, 0.25, 0.05, rng_seed=0)
        with pytest.raises(ValueError, match="labels differ"):
            r_min_deterministic(scanned, other)


@st.composite
def proxy_index_sets(draw):
    """A lazy proxy source and an index set: a few axes, unsorted and with
    repeats, or a draw with replacement longer than one block."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    d = draw(st.integers(1, 2 * axiscore._SCAN_CHUNK + 8))
    inputs = draw(st.lists(_ANY_FINITE, min_size=n * m, max_size=n * m))
    dataset = LabeledDataset(np.array(inputs).reshape(n, m) / 100.0, np.ones(n, dtype=np.int64))
    spec = ProjectionSpec(input_dim=m, feature_dim=d, seed=draw(st.integers(0, 2**64 - 1)))
    few = st.lists(st.integers(0, d - 1), min_size=1, max_size=12)
    spanning = st.builds(
        lambda size, seed: np.random.default_rng(seed).integers(0, d, size=size).tolist(),
        st.integers(axiscore._SCAN_CHUNK - 2, axiscore._SCAN_CHUNK + 40), st.integers(0, 2**32),
    )
    return LazyProxyFeatures(dataset, spec), draw(st.one_of(few, spanning))


@settings(max_examples=60, deadline=None)
@given(proxy_index_sets(), st.sampled_from([1, 7, 37]), st.sampled_from([1, 2, 3]))
def test_lazy_proxy_columns_are_the_eager_bytes(case, chunk, cores):
    # narrow blocks, so narrow pool tasks: several per call, the last one
    # shorter, and each task splits into blocks of its own
    lazy, indices = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_CORES", 1)
        eager = lazy.materialize().values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(featmap, "_SCAN_CHUNK", chunk)
        patch.setattr(axiscore, "_CORES", cores)
        assert lazy.materialize().values.tobytes() == eager.tobytes()
        assert lazy.columns(indices).tobytes() == eager[:, indices].tobytes()
        i = indices[0]
        assert lazy.column(i).tobytes() == lazy.columns([i])[:, 0].tobytes() == eager[:, i].tobytes()


class _RecordingSource:
    """Columns of an unchecked array; records the thread of every read."""

    def __init__(self, values):
        self.values, self.threads = values, set()

    @property
    def sample_count(self):
        return self.values.shape[0]

    @property
    def axis_count(self):
        return self.values.shape[1]

    def column(self, axis_index):
        return self.columns([axis_index])[:, 0]

    def columns(self, indices):
        self.threads.add(threading.get_ident())
        return self.values[:, list(indices)]


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_pooled_scan_reads_columns_on_the_calling_thread_only(cores):
    """With the pool on, a batch of one task (up to 4,096 axes, as every sampled
    batch of the benchmark's workloads is) runs inline: every column read stays
    on the calling thread, where a single-threaded tracer of source calls sees it."""
    rng = np.random.default_rng(8)
    values = rng.choice([0.0, 1.0], size=(5, 40))
    labels = np.array([1, -1, 1, -1, 1])
    source = _RecordingSource(values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_CORES", cores)
        r_min, best, per_axis = r_min_deterministic(source, labels)
        estimate = conservative_estimate(source, labels, p_conservative=0.05, delta=0.05, rng_seed=3)
    assert source.threads == {threading.get_ident()}
    expected = r_min_deterministic(values, labels)
    assert (r_min, best) == expected[:2] and per_axis.tolist() == expected[2].tolist()
    one_thread = conservative_estimate(values, labels, p_conservative=0.05, delta=0.05, rng_seed=3)
    assert (estimate.r_hat, estimate.best, estimate.sampled_axes) == (
        one_thread.r_hat, one_thread.best, one_thread.sampled_axes)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_pooled_scan_tasks_read_their_own_columns_and_equal_the_one_thread_result(cores):
    rng = np.random.default_rng(8)
    values = rng.choice([0.0, 1.0], size=(5, 40))
    labels = np.array([1, -1, 1, -1, 1])
    source = _RecordingSource(values)

    def sampled(features):  # t = d = 40: one batch of two tasks
        return conservative_estimate(features, labels, p_conservative=0.05, delta=0.05, rng_seed=3)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_SCAN_CHUNK", 3)
        patch.setattr(axiscore, "_CORES", cores)
        r_min, best, per_axis = r_min_deterministic(source, labels)
        estimate = sampled(source)
    # two tasks or more read on the pool, and the winners' columns come with their counts
    assert (threading.get_ident() in source.threads) == (cores == 1)
    expected = r_min_deterministic(values, labels)
    assert (r_min, best) == expected[:2] and per_axis.tolist() == expected[2].tolist()
    one_thread = sampled(values)
    assert estimate.axes_evaluated == 40
    assert (estimate.r_hat, estimate.best, estimate.sampled_axes) == (
        one_thread.r_hat, one_thread.best, one_thread.sampled_axes)
    assert estimate.axis_accuracies.tolist() == one_thread.axis_accuracies.tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cores", [1, 2, 3])
def test_pooled_scan_rejects_a_non_finite_column_in_a_later_block(cores, bad):
    values = np.random.default_rng(9).uniform(-1, 1, size=(5, 40))
    values[2, 31] = bad
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_SCAN_CHUNK", 3)
        patch.setattr(axiscore, "_CORES", cores)
        with pytest.raises(ValueError, match="non-finite feature values"):
            r_min_deterministic(_RecordingSource(values), np.array([1, -1, 1, -1, 1]))


@pytest.mark.parametrize("bad_row", [[np.nan, np.nan], [np.inf, np.inf]])
@pytest.mark.parametrize("method", ["deterministic", "conservative", "pilot", "adaptive"])
def test_estimators_reject_non_finite_lazy_columns(method, bad_row):
    # LabeledDataset rejects non-finite inputs, so the bad row is written
    # into a built dataset: a source that yields non-finite columns must
    # still fail the scan.  A NaN input spoils every column; inf - inf
    # spoils only column 1 at this seed, so the winning axis is finite and
    # only the batch check sees it.  Each estimator below evaluates all six
    # axes.
    dataset = LabeledDataset(np.random.default_rng(0).normal(size=(6, 2)),
                             np.array([1, -1, 1, -1, 1, -1]))
    dataset.inputs[3] = bad_row
    lazy = LazyProxyFeatures(dataset, ProjectionSpec(input_dim=2, feature_dim=6, seed=3))
    estimate = {
        "deterministic": lambda: deterministic_estimate(lazy, dataset.labels),
        "conservative": lambda: conservative_estimate(lazy, dataset.labels, 0.5, 0.05, rng_seed=0),
        "pilot": lambda: pilot_estimate(lazy, dataset.labels, n_pilot=6, rng_seed=0),
        "adaptive": lambda: adaptive_estimate(lazy, dataset.labels, batch_size=6,
                                              budget_fraction=1.0, rng_seed=0),
    }[method]
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        estimate()
