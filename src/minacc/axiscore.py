"""Axis-aligned threshold scans and the exact minimum accuracy of a feature matrix.

The central quantity is the best empirical accuracy achievable by a
single-axis threshold rule: pick one feature coordinate, one cut point, and
an optional global sign flip.  Maximizing over cut points gives the per-axis
optimum, and maximizing that over all axes gives the minimum accuracy of the
feature matrix, a certified lower bound on what any linear classifier in the
same feature space can reach on the training set.

All accuracy comparisons are done on integer correct-counts; the floating
``accuracy`` values are derived from them and never compared with tolerances
internally, so results are exact multiples of 1/N.

The exhaustive scan sweeps its independent blocks of axes on a private
thread pool, one worker per usable core, created on first use; a scan of
at most 6,144 axes runs inline.  The calling thread reads every block and
folds the counts in block order, so every result is the one-thread result,
bit for bit.  Pool tasks run numpy only: no column source, no BLAS and no
nested pool call.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Column chunk width of one sweep of the full-matrix scan; keeps the working
# set of the vectorized sweep under a few MB regardless of d (at N = 100 its
# float64 and index arrays are 0.4 MB each, its int32 counts 0.2 MB), and
# each worker thread keeps its own allocation peak.  A pool task sweeps four
# chunks: fewer round trips through the pool and the GIL.  On both cores of
# a 2-core Xeon the 65,536-axis scan of the axis-major proxy embedding
# (N = 100) took a median 0.11 s in 512-axis tasks and 0.105 s in 2048-axis
# tasks of 512-axis sweeps; one core takes 0.17 s.  With another process
# spinning on one of the two cores, 512-axis tasks took 0.176 s and
# 2048-axis tasks 0.164 s, against 0.163 s on one thread.
_SCAN_CHUNK = 512

# Workers of the exact-path pool: the cores this process may run on.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = None
if hasattr(os, "register_at_fork"):  # a forked child has none of the parent's workers
    os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))
# Jobs of fewer tasks run inline; the scan and the proxy embedding both use
# 2048-axis tasks, so that is at most 6,144 axes.  On the 2-core Xeon the
# 4,096-axis scan of the n = 6 Pauli experiment (N = 100), pooled as eight
# 512-axis tasks, made the whole experiment slower across processes (median
# 0.378 s against 0.322 s on one thread, 1 of 8 runs faster), while 65,536
# axes gain about a third.
_POOL_MIN_ITEMS = 4


def _ordered_map(task, items, read=lambda item: item):
    """Yield ``(value, task(value))`` with ``value = read(item)`` for every
    item of the sequence ``items``, in order.

    ``read`` runs on the calling thread, and at most ``_CORES`` values are in
    flight, so a lazy source never holds more than a few.  The tasks run on
    the pool, or inline on one core or for fewer than ``_POOL_MIN_ITEMS``
    items.  A task's exception is raised when its turn comes, as inline.
    """
    if _CORES < 2 or len(items) < _POOL_MIN_ITEMS:
        for item in items:
            value = read(item)
            yield value, task(value)
        return
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor  # costs import time; load on first use
        _POOL = ThreadPoolExecutor(max_workers=_CORES, thread_name_prefix="minacc")
    pending = deque()
    try:
        for item in items:
            pending.append(_POOL.submit(lambda value: (value, task(value)), read(item)))
            if len(pending) >= _CORES:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


class Orientation(Enum):
    """Which label the below-threshold side receives.

    A point exactly at the threshold always counts as "at or above".
    """

    BELOW_IS_PLUS = "below_is_plus"    # a <  tau -> +1,  a >= tau -> -1
    BELOW_IS_MINUS = "below_is_minus"  # a <  tau -> -1,  a >= tau -> +1


def _as_label_array(labels) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("empty dataset: need a non-empty 1-D label vector")
    if not np.all(np.abs(y) == 1):
        raise ValueError("labels must be -1 or +1")
    return y.astype(np.int64)


@dataclass(frozen=True)
class LabeledDataset:
    """Raw inputs (N x m) with binary labels in {-1, +1}."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("empty dataset: inputs must be a non-empty N x m matrix")
        y = _as_label_array(self.labels)
        if y.shape[0] != x.shape[0]:
            raise ValueError("inputs and labels disagree on N")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def sample_count(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def positive_count(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def negative_count(self) -> int:
        return int(np.sum(self.labels == -1))


@dataclass(frozen=True)
class FeatureMatrix:
    """Embedded dataset: entry [k, i] is the value of feature axis i on sample k.

    Either memory layout is kept as given, with no copy.  The proxy embedding
    builds it axis-major (F-contiguous, each axis one contiguous run), which
    the exhaustive scan sorts with no transpose copy; Pauli and file matrices
    are row-major.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise ValueError("empty dataset: feature matrix must be non-empty N x d")
        # block by block: no N x d boolean temporary
        for start in range(0, v.shape[1], _SCAN_CHUNK):
            if not np.isfinite(v[:, start:start + _SCAN_CHUNK]).all():
                raise ValueError("non-finite feature values in matrix")
        object.__setattr__(self, "values", v)

    @property
    def sample_count(self) -> int:
        return self.values.shape[0]

    @property
    def axis_count(self) -> int:
        return self.values.shape[1]

    def column(self, axis_index: int) -> np.ndarray:
        if not 0 <= axis_index < self.axis_count:
            raise ValueError(f"axis {axis_index} out of range [0, {self.axis_count})")
        return self.values[:, axis_index]

    def columns(self, indices) -> np.ndarray:
        """N x k block of the given axes; an in-range range is a view, not a copy."""
        ascending = isinstance(indices, range) and indices.step > 0
        if ascending and 0 <= indices.start and indices.stop <= self.axis_count:
            return self.values[:, indices.start:indices.stop:indices.step]
        return self.values[:, checked_axes(indices, self.axis_count)]


def checked_axes(indices, axis_count: int) -> np.ndarray:
    """Axis indices as an int64 array; any index outside [0, axis_count) is a ValueError."""
    axes = np.asarray(indices, dtype=np.int64)
    outside = axes[(axes < 0) | (axes >= axis_count)]
    if outside.size:
        raise ValueError(f"axis {outside[0]} out of range [0, {axis_count})")
    return axes


def as_feature_source(features):
    """The column source every scan reads.

    A FeatureMatrix, or a lazy source with ``sample_count``, ``axis_count``,
    ``column(i)`` and ``columns(indices)``, passes through; anything else is
    validated into a FeatureMatrix.
    """
    if hasattr(features, "columns"):
        return features
    return FeatureMatrix(features)


@dataclass(frozen=True)
class AxisResult:
    """Optimal threshold rule along one axis and the accuracy it achieves."""

    axis_index: int
    best_threshold: float
    orientation: Orientation
    accuracy: float
    correct_count: int


@dataclass(frozen=True)
class ThresholdClassifier:
    """Single-axis threshold rule; ties a == threshold go to the at-or-above side."""

    axis_index: int
    threshold: float
    orientation: Orientation

    def predict_values(self, values: np.ndarray) -> np.ndarray:
        """Predict +/-1 from the raw values of this classifier's axis."""
        above = np.asarray(values, dtype=np.float64) >= self.threshold
        if self.orientation is Orientation.BELOW_IS_MINUS:
            return np.where(above, 1, -1).astype(np.int64)
        return np.where(above, -1, 1).astype(np.int64)

    def predict(self, features: FeatureMatrix) -> np.ndarray:
        return self.predict_values(features.column(self.axis_index))


def _midpoint(lo: float, hi: float) -> float:
    # Representative cut strictly above lo.  For adjacent doubles the exact
    # midpoint can round down onto lo; nextafter then yields hi, and the
    # at-or-above tie rule keeps the counts consistent.
    mid = 0.5 * (lo + hi)
    if not mid > lo:
        mid = float(np.nextafter(lo, hi))
    return float(mid)


def _sweep(block: np.ndarray, y: np.ndarray):
    """Threshold sweep over every column of an N x k block at once.

    Cut j (0 <= j < N) puts the first j sorted values of a column below the
    threshold: cut 0 is the sentinel below the minimum, where everything
    lands at-or-above and the two orientations realize the two single-class
    assignments, and cut j > 0 lies between sorted values j-1 and j.
    Returns three k x N arrays: the sorted columns, the correct-count of
    ``BELOW_IS_PLUS`` at each cut, and the better of the two orientations'
    counts, set to -1 where a cut falls between equal values (a duplicate
    value collapses the interval).

    ``BELOW_IS_PLUS`` at cut j scores every negative (all at-or-above) plus
    one for each positive and minus one for each negative below the cut, so
    its counts are a walk over the labels in sorted order: one int32 gather
    of the labels, ``n_minus`` folded into the first step, and one
    exclusive cumulative sum.  The sort need not be stable: a cut between
    equal values is masked to -1, and at every other cut the samples below
    it are exactly those with a smaller value, whatever order ties sorted
    in.  NaN sorts last and -inf/+inf to the ends, so the block is finite
    exactly when the first and last sorted value of every row are.

    Each sort runs over one contiguous row per axis.  An axis-major
    (F-contiguous) block, as the proxy embedding builds, transposes to those
    rows as a view; a row-major block is copied once.  The sorted values come
    from a second sort rather than a gather through the argsort: it yields the
    same sequence, except that equal -0.0 and +0.0 may swap, which no count,
    duplicate mask, finiteness check or midpoint can see.
    """
    rows = np.ascontiguousarray(block.T)
    steps = y.astype(np.int32)[np.argsort(rows, axis=1)]   # no int64 order beside the sort
    sv = np.sort(rows, axis=1)
    if not (np.all(np.isfinite(sv[:, 0])) and np.all(np.isfinite(sv[:, -1]))):
        raise ValueError("non-finite feature values")
    n = y.size
    n_minus = n - int(np.count_nonzero(y == 1))
    steps[:, 0] += n_minus
    plus_side = np.empty_like(steps)          # below predicted +1
    plus_side[:, 0] = n_minus
    np.cumsum(steps[:, :-1], axis=1, out=plus_side[:, 1:])
    cand = np.subtract(n, plus_side, out=steps)   # below predicted -1; steps is spent
    np.maximum(plus_side, cand, out=cand)
    cand[:, 1:][sv[:, :-1] >= sv[:, 1:]] = -1
    return sv, plus_side, cand


def _checked(values, labels, ndim: int):
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != ndim or v.size == 0:
        raise ValueError(f"empty dataset: need a non-empty {ndim}-D array of feature values")
    y = _as_label_array(labels)
    if y.shape[0] != v.shape[0]:
        raise ValueError("features and labels disagree on N")
    return v, y


def best_counts(block, labels) -> np.ndarray:
    """Best correct-count of every column of an N x k block, in one sweep.

    Entry i equals ``axis_accuracy(block[:, i], labels).correct_count``.
    """
    v, y = _checked(block, labels, 2)
    return _sweep(v, y)[2].max(axis=1).astype(np.int64)


def axis_accuracy(values, labels, axis_index: int = 0) -> AxisResult:
    """Best threshold rule along one axis.

    Candidate thresholds are one sentinel strictly below the minimum value
    plus the midpoint of every pair of distinct consecutive sorted values;
    accuracy is piecewise constant in the threshold, so these candidates
    attain the supremum.  Both orientations are evaluated at each candidate.

    Ties are broken toward the lowest threshold, then toward
    ``BELOW_IS_PLUS``, so the result is deterministic.

    Runs in O(N log N): one sort plus a prefix-count sweep.
    """
    v, y = _checked(values, labels, 1)
    sv, plus_side, cand = (a[0] for a in _sweep(v[:, None], y))
    n = v.size
    j = int(np.argmax(cand))               # first max: lowest threshold wins ties
    count = int(cand[j])
    if j == 0:
        tau = float(sv[0] - 1.0)
    else:
        tau = _midpoint(float(sv[j - 1]), float(sv[j]))
    if plus_side[j] >= n - plus_side[j]:
        orient = Orientation.BELOW_IS_PLUS
    else:
        orient = Orientation.BELOW_IS_MINUS
    return AxisResult(
        axis_index=axis_index,
        best_threshold=tau,
        orientation=orient,
        accuracy=count / n,
        correct_count=count,
    )


class _ScoredAxes:
    """Per-axis best counts of every block of axes scored, in order, and the
    first axis to reach their maximum, kept with its column so its threshold
    rule needs no second read.  The exhaustive scan and every estimator are
    rules for which blocks to score and when to stop.
    """

    def __init__(self, source, labels):
        self.source, self.labels = source, labels
        self._blocks: list = []               # index blocks as given: ranges stay ranges
        self._counts: list[np.ndarray] = []
        self.best_count = -1
        self.best_axis = -1
        self.best_column = None

    def score(self, indices) -> bool:
        """Score the axes ``indices`` in one sweep; True if the best count rose."""
        block = self.source.columns(indices)
        return self.fold(indices, block, best_counts(block, self.labels))

    def fold(self, indices, block, counts) -> bool:
        """Append the swept counts of ``block``, the columns ``indices``."""
        self._blocks.append(indices)
        self._counts.append(counts)
        j = int(np.argmax(counts))  # first max: the earliest axis wins ties, here and across blocks
        if counts[j] <= self.best_count:
            return False
        self.best_count, self.best_axis = int(counts[j]), int(indices[j])
        self.best_column = block[:, j].copy()  # keep one column, not its block
        return True

    @property
    def axes(self) -> list[int]:
        return [i for block in self._blocks for i in block]

    @property
    def accuracies(self) -> np.ndarray:
        """Per-axis optima of the scored axes, in scoring order."""
        return np.concatenate(self._counts) / self.source.sample_count


def _exhaustive_run(features, labels) -> _ScoredAxes:
    """Every axis scored, in ascending blocks of four ``_SCAN_CHUNK`` sweeps.
    The calling thread reads each block, the pool sweeps it, and the counts
    fold in block order.  A row-major block is copied axis-major one sweep
    at a time, by the sweep, not whole by the calling thread."""
    run = _ScoredAxes(as_feature_source(features), labels)
    d = run.source.axis_count

    width = 4 * _SCAN_CHUNK  # axes per pool task: four sweeps

    def read(start):
        indices = range(start, min(start + width, d))
        return indices, run.source.columns(indices)

    def sweep(item):
        block = item[1]
        return np.concatenate([best_counts(block[:, k:k + _SCAN_CHUNK], labels)
                               for k in range(0, block.shape[1], _SCAN_CHUNK)])

    sweeps = _ordered_map(sweep, range(0, d, width), read)
    for (indices, block), counts in sweeps:
        run.fold(indices, block, counts)
    return run


def r_min_deterministic(features, labels):
    """Exhaustive scan over every axis: the exact minimum accuracy.

    Parameters
    ----------
    features : FeatureMatrix, lazy column source, or ndarray of shape (N, d)
    labels : length-N vector over {-1, +1}

    Returns
    -------
    (r_min, best, axis_accuracies)
        ``r_min`` is the max over axes of the per-axis optimum, ``best`` the
        winning AxisResult (ties broken by lowest axis index), and
        ``axis_accuracies`` the full length-d vector of per-axis optima
        for survival-function analysis.
    """
    run = _exhaustive_run(features, labels)
    best = axis_accuracy(run.best_column, labels, axis_index=run.best_axis)
    return best.accuracy, best, run.accuracies


def classifier_accuracy(classifier: ThresholdClassifier, features, labels) -> float:
    """Empirical accuracy of a threshold rule: fraction of samples it labels correctly."""
    source = as_feature_source(features)
    y = _as_label_array(labels)
    if y.shape[0] != source.sample_count:
        raise ValueError("features and labels disagree on N")
    pred = classifier.predict(source)
    return float(np.sum(pred == y)) / source.sample_count


def as_linear_classifier(classifier: ThresholdClassifier, axis_count: int):
    """Rewrite a threshold rule as a hyperplane ``sign(<w, phi> + b)``.

    Returns ``w = +e_i, b = -tau`` for ``BELOW_IS_MINUS`` and
    ``w = -e_i, b = +tau`` for ``BELOW_IS_PLUS``.  With the convention
    ``sign(0) = +1`` the hyperplane reproduces the threshold rule everywhere
    except, for the flipped orientation only, on points lying exactly at the
    threshold; the scan never places a threshold on a data value, so the two
    forms agree on the data they were fit to.
    """
    if not 0 <= classifier.axis_index < axis_count:
        raise ValueError(f"axis {classifier.axis_index} out of range [0, {axis_count})")
    w = np.zeros(axis_count, dtype=np.float64)
    if classifier.orientation is Orientation.BELOW_IS_MINUS:
        w[classifier.axis_index] = 1.0
        b = -classifier.threshold
    else:
        w[classifier.axis_index] = -1.0
        b = classifier.threshold
    return w, float(b)


def linear_predict(weights: np.ndarray, bias: float, features) -> np.ndarray:
    """Predict +/-1 from a hyperplane; decision value exactly 0 maps to +1.

    The decision values sum over the nonzero weights only, ``_SCAN_CHUNK``
    axes at a time: each chunk is made row-major before its product and the
    partial sums add in chunk order, so they do not depend on the memory
    layout of the features, and no N x d temporary is built.
    """
    source = as_feature_source(features)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (source.axis_count,):
        raise ValueError(f"weights of shape {w.shape} for {source.axis_count} axes")
    axes = np.flatnonzero(w)
    z = np.zeros(source.sample_count)
    for start in range(0, axes.size, _SCAN_CHUNK):
        chunk = axes[start:start + _SCAN_CHUNK]
        z += np.ascontiguousarray(source.columns(chunk)) @ w[chunk]
    z += bias
    return np.where(z >= 0, 1, -1).astype(np.int64)
