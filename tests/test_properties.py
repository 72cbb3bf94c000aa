"""Property tests of the certified chain over random small shapes.

Every R_min and every estimate goes through one column protocol and one
sweep, so the properties here hold for any feature source: the batched
per-column counts equal the single-axis scan, an ndarray, a FeatureMatrix
and a lazy proxy source give identical estimates, and the reported best
axis reproduces the reported value.  Lazy proxy columns are byte-identical
to the eager matrix for any index set, whichever columns share a block, and
no scan result depends on the order of tied rows, on the memory layout of
the matrix or on the number of threads.  Shapes include N = 1, single-class labels and duplicate-heavy
columns.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minacc import axiscore, featmap
from minacc.axiscore import (
    LabeledDataset,
    ThresholdClassifier,
    axis_accuracy,
    best_counts,
    classifier_accuracy,
    r_min_deterministic,
)
from minacc.featmap import _PROXY_BLOCK, LazyProxyFeatures, ProjectionSpec
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


def _run_on_threads(patch, cores):
    """The exact path on ``cores`` threads, pooling every job of two or more items."""
    patch.setattr(axiscore, "_CORES", cores)
    patch.setattr(axiscore, "_POOL_MIN_ITEMS", 2)


@settings(max_examples=200, deadline=None)
@given(labeled_matrices(max_n=6, max_d=20, element=st.sampled_from([0.0, 1.0])),
       st.sampled_from([1, 2, 3, 7]), st.sampled_from([1, 2, 3]))
def test_scan_result_does_not_depend_on_its_chunk_width(case, chunk, cores):
    # few rows and two values: most axes tie, within a chunk and across chunks,
    # so the maximum recurs in later blocks, which may finish first on the pool
    values, labels = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_CORES", 1)
        whole = r_min_deterministic(values, labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_SCAN_CHUNK", chunk)
        _run_on_threads(patch, cores)
        r_min, best, per_axis = r_min_deterministic(values, labels)
    assert (r_min, best) == whole[:2]
    assert per_axis.tolist() == whole[2].tolist()
    assert best.axis_index == np.flatnonzero(per_axis == r_min)[0]


def _stable_gather_sweep(block, y):
    """Reference sweep: a stable argsort, the sorted values gathered through it."""
    rows = np.ascontiguousarray(block.T)
    order = np.argsort(rows, axis=1, kind="stable")
    sv = np.take_along_axis(rows, order, axis=1)
    if not (np.all(np.isfinite(sv[:, 0])) and np.all(np.isfinite(sv[:, -1]))):
        raise ValueError("non-finite feature values")
    n = y.size
    below_plus = np.cumsum(y[order] == 1, axis=1) - np.cumsum(y[order] == -1, axis=1)
    plus_side = np.empty((rows.shape[0], n), dtype=np.int64)
    plus_side[:, 0] = n - int(np.count_nonzero(y == 1))
    plus_side[:, 1:] = plus_side[:, :1] + below_plus[:, :-1]
    cand = np.maximum(plus_side, n - plus_side)
    cand[:, 1:][sv[:, :-1] >= sv[:, 1:]] = -1
    return sv, plus_side, cand


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
@given(lazy_sources(), st.integers(0, 2**32))
def test_estimators_agree_across_sources_and_best_reproduces_r_hat(case, seed):
    lazy, labels = case
    matrix = lazy.materialize()
    r_min = r_min_deterministic(lazy, labels)[0]
    for name, estimate in _estimators(lazy.axis_count, seed).items():
        results = [estimate(source, labels) for source in (matrix.values, matrix, lazy)]
        assert _as_tuple(results[0]) == _as_tuple(results[1]) == _as_tuple(results[2]), name
        result = results[0]
        assert result.r_hat == max(result.axis_accuracies) <= r_min
        best = result.best
        witness = ThresholdClassifier(best.axis_index, best.best_threshold, best.orientation)
        assert classifier_accuracy(witness, matrix, labels) == result.r_hat


@st.composite
def proxy_index_sets(draw):
    """A lazy proxy source and an index set: a few axes, unsorted and with
    repeats, or a draw with replacement longer than one block."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    d = draw(st.integers(1, 2 * _PROXY_BLOCK + 8))
    inputs = draw(st.lists(_ANY_FINITE, min_size=n * m, max_size=n * m))
    dataset = LabeledDataset(np.array(inputs).reshape(n, m) / 100.0, np.ones(n, dtype=np.int64))
    spec = ProjectionSpec(input_dim=m, feature_dim=d, seed=draw(st.integers(0, 2**64 - 1)))
    few = st.lists(st.integers(0, d - 1), min_size=1, max_size=12)
    spanning = st.builds(
        lambda size, seed: np.random.default_rng(seed).integers(0, d, size=size).tolist(),
        st.integers(_PROXY_BLOCK - 2, _PROXY_BLOCK + 40), st.integers(0, 2**32),
    )
    return LazyProxyFeatures(dataset, spec), draw(st.one_of(few, spanning))


@settings(max_examples=60, deadline=None)
@given(proxy_index_sets(), st.sampled_from([7, 300, _PROXY_BLOCK + 5]), st.sampled_from([1, 2, 3]))
def test_lazy_proxy_columns_are_the_eager_bytes(case, task, cores):
    # narrow pool tasks: several per call, the last one shorter, and a task
    # wider than a block splits into blocks of its own
    lazy, indices = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_CORES", 1)
        eager = lazy.materialize().values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(featmap, "_PROXY_TASK", task)
        _run_on_threads(patch, cores)
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
    rng = np.random.default_rng(8)
    values = rng.choice([0.0, 1.0], size=(5, 40))
    labels = np.array([1, -1, 1, -1, 1])
    source = _RecordingSource(values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_SCAN_CHUNK", 3)
        _run_on_threads(patch, cores)
        r_min, best, per_axis = r_min_deterministic(source, labels)
    assert source.threads == {threading.get_ident()}
    expected = r_min_deterministic(values, labels)
    assert (r_min, best) == expected[:2] and per_axis.tolist() == expected[2].tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cores", [1, 2, 3])
def test_pooled_scan_rejects_a_non_finite_column_in_a_later_block(cores, bad):
    values = np.random.default_rng(9).uniform(-1, 1, size=(5, 40))
    values[2, 31] = bad
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axiscore, "_SCAN_CHUNK", 3)
        _run_on_threads(patch, cores)
        with pytest.raises(ValueError, match="non-finite feature values"):
            r_min_deterministic(_RecordingSource(values), np.array([1, -1, 1, -1, 1]))


@pytest.mark.parametrize("bad_row", [[np.nan, np.nan], [np.inf, np.inf]])
@pytest.mark.parametrize("method", ["deterministic", "conservative", "pilot", "adaptive"])
def test_estimators_reject_non_finite_lazy_columns(method, bad_row):
    # LabeledDataset accepts non-finite inputs; the scan must not.  A NaN
    # input spoils every column; inf - inf spoils only column 1 at this
    # seed, so the winning axis is finite and only the batch check sees it.
    # Each estimator below evaluates all six axes.
    inputs = np.random.default_rng(0).normal(size=(6, 2))
    inputs[3] = bad_row
    dataset = LabeledDataset(inputs, np.array([1, -1, 1, -1, 1, -1]))
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
