"""Axis-aligned threshold scans and the exact minimum accuracy of a feature matrix.

The central quantity is the best empirical accuracy achievable by a
single-axis threshold rule: pick one feature coordinate, one cut point, and
an optional global sign flip.  Maximizing over cut points gives the per-axis
optimum, and maximizing that over all axes gives the minimum accuracy of the
feature matrix, a certified lower bound on what any linear classifier in the
same feature space can reach on the training set.

All accuracy comparisons are done on integer correct-counts; the floating
``accuracy`` values are derived from them and never compared with tolerances
internally, so results are exact multiples of 1/N.  The exhaustive scan's
record, ``ScannedFeatures``, keeps its int64 counts as swept, never divided.

Every batch of axes, the exhaustive scan's or a sampled one, is scored in
the tasks its source cuts it into, ``parts``, the partition of its own column
build; two or more run on a private thread pool, one worker per usable core,
created on first use, and one runs inline.  A task reads its own columns,
sweeps them and returns its counts and one column, never its block, so about
one block is alive per worker: from a lazy source, 4,096 x N doubles (3.3 MB
at N = 100).  A part's own parts are itself, so the build inside a task runs
inline on its worker.  The counts are placed at their positions, so every
result is the one-thread result, bit for bit.  The SVM fits stay off the
pool: 4,000 ``np.linalg.solve`` calls on 101 x 101 systems took as long on
two threads as on one, and fits beside the scan doubled it for no gain.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

# The exact path's one block width, in axes: one sweep of the scan, one
# finiteness check of ``FeatureMatrix``, one partial sum of ``linear_predict``,
# one block of the proxy embedding and one run of X-masks of the Pauli one
# (``featmap``).  The sweep's working set stays under a few MB whatever d (at
# N = 100 its float64 and index arrays are 0.4 MB each, its int32 counts
# 0.2 MB), and each worker thread keeps its own allocation peak.
_SCAN_CHUNK = 512
# Blocks per task of the exact-path pool, scan or embedding build alike: fewer
# round trips through the pool and the GIL.  On both cores of a 2-core Xeon
# (65,536 proxy axes, N = 100, one process, 12 interleaved rounds, two runs)
# the embedding took a median 75.7-77.0 ms in 4,096-axis tasks against
# 81.1-82.2 ms in 2,048-axis ones, and the scan 78.0-79.4 ms against 78.5-79.0.
_TASK_BLOCKS = 8

# Workers of the exact-path pool: the cores this process may run on.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = None
if hasattr(os, "register_at_fork"):  # a forked child has none of the parent's workers
    os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))


def _ordered_map(task, items):
    """``task(item)`` for every item of the sequence ``items``, yielded in order.

    The tasks run on the pool through ``Executor.map``, which raises a task's
    exception when its turn comes and cancels the tasks not yet started; they
    run inline, through ``map``, on one core or for a single item.
    """
    if _CORES < 2 or len(items) < 2:
        return map(task, items)
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor  # costs import time; load on first use
        _POOL = ThreadPoolExecutor(max_workers=_CORES, thread_name_prefix="minacc")
    return _POOL.map(task, items)


def _at(axes, part):
    """``axes[part]`` for a part, a slice or an int64 array of positions; a range is never materialized."""
    return axes.start + axes.step * part if isinstance(axes, range) and not isinstance(part, slice) else axes[part]


class Orientation(Enum):
    """Which label the below-threshold side receives.

    A point exactly at the threshold always counts as "at or above".
    """

    BELOW_IS_PLUS = "below_is_plus"    # a <  tau -> +1,  a >= tau -> -1
    BELOW_IS_MINUS = "below_is_minus"  # a <  tau -> -1,  a >= tau -> +1


class Rule:
    """Rule shapes of numeric settings, each what a value must do, as its error
    states it, and its test; a NaN or an infinity breaks every rule."""

    @staticmethod
    def is_integer(v) -> bool:
        """An integer, numpy's too, but not a bool, though ``numbers.Integral`` takes one."""
        return isinstance(v, numbers.Integral) and not isinstance(v, bool)

    @staticmethod
    def integer_at_least(low: int) -> tuple:
        return f"be an integer >= {low}", lambda v: Rule.is_integer(v) and v >= low
    COUNT = integer_at_least(1)
    INTEGER = ("be an integer", lambda v: Rule.is_integer(v))
    OPEN_UNIT = ("lie in (0, 1)", lambda v: 0.0 < v < 1.0)
    FRACTION = ("lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
    POSITIVE = ("be a finite number > 0", lambda v: 0.0 < v < math.inf)
    NON_NEGATIVE = ("be a finite number >= 0", lambda v: 0.0 <= v < math.inf)
    FINITE = ("be a finite number", lambda v: -math.inf < v < math.inf)

    @staticmethod
    def optional(rule: tuple) -> tuple:
        """``rule`` for a value that may also be None."""
        text, holds = rule
        return f"{text} when given", lambda v: v is None or holds(v)


def check(rules: dict, **values) -> None:
    """Raise ValueError naming the first value that breaks its rule in ``rules``."""
    for name, value in values.items():
        rule, holds = rules[name]
        if not holds(value):
            raise ValueError(f"{name} must {rule}: {value}")


class Checked:
    """Base of a dataclass that, when built, checks each field its unannotated ``_RULES`` names."""

    def __post_init__(self):
        check(self._RULES, **{name: getattr(self, name) for name in self._RULES})


def read_text(source) -> str:
    """The text of a path or text ``source``: an ``os.PathLike`` is a path,
    whose file is read; anything else, a ``str``, is the text itself."""
    if isinstance(source, os.PathLike):
        with open(source) as fh:
            return fh.read()
    return source


def write_text(text: str, path=None) -> str:
    """Return ``text``; with a ``path``, also write it there plus one newline."""
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


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
        if not np.isfinite(x).all():
            raise ValueError("non-finite input values in dataset")
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

    Either memory layout is kept as given, with no copy.  Both embeddings,
    proxy and Pauli, build it axis-major (F-contiguous, each axis one
    contiguous run), which the exhaustive scan sorts with no transpose copy;
    file matrices are row-major.
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
        return self.values[:, int(checked_axes(axis_index, self.axis_count))]

    def parts(self, axes) -> list[slice]:
        """The position sets of the tasks over ``axes``: ``_TASK_BLOCKS`` blocks of consecutive positions."""
        width = _TASK_BLOCKS * _SCAN_CHUNK
        return [slice(start, start + width) for start in range(0, len(axes), width)]

    def columns(self, indices) -> np.ndarray:
        """N x k block of the given axes; an in-range range is a view, not a copy."""
        ascending = isinstance(indices, range) and indices.step > 0
        if ascending and 0 <= indices.start and indices.stop <= self.axis_count:
            return self.values[:, indices.start:indices.stop:indices.step]
        return self.values[:, checked_axes(indices, self.axis_count)]


class ScannedFeatures:
    """The record of one exhaustive scan, made by running it over every axis:
    the ``source`` it read, its ``labels``, its int64 best ``counts`` as swept,
    in axis order, and ``best``, the winning rule (lowest axis of the ties),
    checked to reach its count.  Not a column source: the scan and every
    estimator take it in place of ``features`` and look its counts up instead
    of sweeping; on other labels that is a ValueError.
    """

    def __init__(self, features, labels):
        run = _ScoredAxes(features, labels)
        run.score(range(run.source.axis_count))
        self.source, self.labels, self.counts = run.source, _as_label_array(labels), run.counts
        self.best = run.winner(axis_accuracy(run.best_column, labels, axis_index=run.best_axis))


def checked_axes(indices, axis_count: int) -> np.ndarray:
    """Axis indices as an int64 array; a non-integer, boolean or out-of-range index is a ValueError."""
    axes = np.arange(indices.start, indices.stop, indices.step) if isinstance(indices, range) else np.asarray(indices)
    if axes.size and axes.dtype.kind not in "iu":
        raise ValueError(f"axis indices must be integers, not {axes.dtype}")
    outside = axes[(axes < 0) | (axes >= axis_count)]
    if outside.size:
        raise ValueError(f"axis {outside[0]} out of range [0, {axis_count})")
    return axes.astype(np.int64, copy=False)


def as_feature_source(features):
    """The column source every scan reads.

    A FeatureMatrix, or a lazy source with ``sample_count``, ``axis_count``,
    ``column(i)``, ``columns(indices)`` and ``parts(axes)`` (``_ScoredAxes.score``),
    passes through; anything else is validated into a FeatureMatrix.
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


def _sorted_rows(block: np.ndarray):
    """The k columns of an N x k block as k contiguous rows, and each row
    sorted.  NaN sorts last and -inf/+inf to the ends, so the block is finite
    exactly when the first and last sorted value of every row are.

    An axis-major (F-contiguous) block, as both embeddings build,
    transposes to those rows as a view; a row-major block is copied once.
    The sorted values come from a sort of their own rather than a gather
    through the sweep's argsort: it yields the same sequence, except that
    equal -0.0 and +0.0 may swap, which no count, duplicate mask, all-equal
    test, finiteness check or midpoint can see.
    """
    rows = np.ascontiguousarray(block.T)
    sv = np.sort(rows, axis=1)
    if not (np.all(np.isfinite(sv[:, 0])) and np.all(np.isfinite(sv[:, -1]))):
        raise ValueError("non-finite feature values")
    return rows, sv


def _sweep(rows: np.ndarray, sv: np.ndarray, y: np.ndarray):
    """Threshold sweep over k axes at once, given as the k x N ``rows`` and
    their sorted values ``sv`` from ``_sorted_rows``.

    Cut j (0 <= j < N) puts the first j sorted values of a row below the
    threshold: cut 0 is the sentinel below the minimum, where everything
    lands at-or-above and the two orientations realize the two single-class
    assignments, and cut j > 0 lies between sorted values j-1 and j.
    Returns two k x N arrays: the correct-count of ``BELOW_IS_PLUS`` at each
    cut, and the better of the two orientations' counts, set to -1 where a
    cut falls between equal values (a duplicate value collapses the interval).

    ``BELOW_IS_PLUS`` at cut j scores every negative (all at-or-above) plus
    one for each positive and minus one for each negative below the cut, so
    its counts are a walk over the labels in sorted order: one int32 gather
    of the labels, ``n_minus`` folded into the first step, and one
    exclusive cumulative sum.  The sort need not be stable: a cut between
    equal values is masked to -1, and at every other cut the samples below
    it are exactly those with a smaller value, whatever order ties sorted
    in.
    """
    steps = y.astype(np.int32)[np.argsort(rows, axis=1)]   # no int64 order beside the sort
    n = y.size
    n_minus = n - int(np.count_nonzero(y == 1))
    steps[:, 0] += n_minus
    plus_side = np.empty_like(steps)          # below predicted +1
    plus_side[:, 0] = n_minus
    np.cumsum(steps[:, :-1], axis=1, out=plus_side[:, 1:])
    cand = np.subtract(n, plus_side, out=steps)   # below predicted -1; steps is spent
    np.maximum(plus_side, cand, out=cand)
    cand[:, 1:][sv[:, :-1] >= sv[:, 1:]] = -1
    return plus_side, cand


def _checked(values, labels, ndim: int):
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != ndim or v.size == 0:
        raise ValueError(f"empty dataset: need a non-empty {ndim}-D array of feature values")
    y = _as_label_array(labels)
    if y.shape[0] != v.shape[0]:
        raise ValueError("features and labels disagree on N")
    return v, y


def best_counts(block, labels) -> np.ndarray:
    """Best correct-count of every column of an N x k block, swept
    ``_SCAN_CHUNK`` columns at a time; the labels are checked once.

    Entry i equals ``axis_accuracy(block[:, i], labels).correct_count``.  A
    column whose smallest value equals its largest has no cut between values,
    so it scores the majority count max(#pos, #neg) with no label walk; the
    other columns are swept.  A row-major block is copied axis-major one
    sweep at a time, not whole.
    """
    v, y = _checked(block, labels, 2)
    positives = int(np.count_nonzero(y == 1))
    counts = np.full(v.shape[1], max(positives, y.size - positives), dtype=np.int64)
    for start in range(0, v.shape[1], _SCAN_CHUNK):
        rows, sv = _sorted_rows(v[:, start:start + _SCAN_CHUNK])
        varying = sv[:, 0] != sv[:, -1]
        if not varying.all():
            rows, sv = rows[varying], sv[varying]
        counts[start:start + _SCAN_CHUNK][varying] = _sweep(rows, sv, y)[1].max(axis=1)
    return counts


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
    rows, sorted_rows = _sorted_rows(v[:, None])
    plus_side, cand = (a[0] for a in _sweep(rows, sorted_rows, y))
    sv = sorted_rows[0]
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
    """Per-axis best counts of every batch of axes scored, in order, and the
    first axis to reach their maximum, kept with its column so its threshold
    rule needs no second read.  The exhaustive scan and every estimator are
    rules for which batches to score and when to stop.

    Built on a ``ScannedFeatures`` record, it reads the record's source and
    looks counts up instead of sweeping: only a new winner's column is read.
    """

    def __init__(self, features, labels):
        self.labels, self._scanned = labels, None
        if isinstance(features, ScannedFeatures):
            if not np.array_equal(features.labels, labels):
                raise ValueError("labels differ from the labels the record was scanned with")
            features, self._scanned = features.source, features.counts
        self.source = as_feature_source(features)
        self._blocks: list = []
        self._counts: list[np.ndarray] = []
        self.best_count, self.best_axis, self.best_column = -1, -1, None

    def score(self, indices) -> bool:
        """Score the non-empty batch of axes ``indices``; True if the best count rose.

        One task per part of the source (its positions in the batch: each in one
        part, ascending, a part's own parts itself), pooled when two or more,
        reads its own columns, sweeps them with ``best_counts`` and returns its
        positions, counts and the column of their first maximum, not its block;
        a scan record's batch is one lookup.  The first maximum by position wins.
        """
        axes = indices if isinstance(indices, range) else np.asarray(indices)

        def sweep(part):
            block = self.source.columns(_at(axes, part))
            counts = best_counts(block, self.labels)
            return part, counts, block[:, int(np.argmax(counts))].copy()

        found = (_ordered_map(sweep, self.source.parts(indices)) if self._scanned is None else
                 [(slice(None), self._scanned[checked_axes(indices, self.source.axis_count)], None)])
        counts, columns = np.empty(len(indices), dtype=np.int64), {}
        for part, part_counts, column in found:
            counts[part] = part_counts
            columns[_at(range(counts.size), part)[int(np.argmax(part_counts))]] = column
        self._blocks.append(indices)  # index sets as given: ranges stay ranges
        self._counts.append(counts)
        j = int(np.argmax(counts))  # first max: the earliest axis wins ties, in this batch and across batches
        if counts[j] <= self.best_count:
            return False
        self.best_count, self.best_axis = int(counts[j]), int(indices[j])
        self.best_column = self.source.column(self.best_axis) if columns[j] is None else columns[j]
        return True

    def winner(self, best: AxisResult) -> AxisResult:
        """``best``, the winner's recomputed threshold rule; a rule that misses
        the count the axis won with is a RuntimeError, not a result."""
        if best.correct_count != self.best_count:
            raise RuntimeError(f"axis {self.best_axis} scored {self.best_count} correct but its rule gets "
                               f"{best.correct_count}")
        return best

    @property
    def axes(self) -> list[int]:
        return [i for block in self._blocks for i in block]

    @property
    def counts(self) -> np.ndarray:
        """Per-axis best counts of the scored axes, in scoring order."""
        return np.concatenate(self._counts)


def r_min_deterministic(features, labels):
    """Exhaustive scan over every axis: the exact minimum accuracy.

    Parameters
    ----------
    features : FeatureMatrix, lazy column source, ndarray of shape (N, d), or
        the ``ScannedFeatures`` record of an earlier scan of them
    labels : length-N vector over {-1, +1}

    Returns
    -------
    (r_min, best, axis_accuracies)
        ``r_min`` is the max over axes of the per-axis optimum, ``best`` the
        winning AxisResult (ties broken by lowest axis index), and
        ``axis_accuracies`` the per-axis optima: the counts of the record
        ``ScannedFeatures(features, labels)``, divided by N.
    """
    scanned = ScannedFeatures(features, labels)
    return scanned.best.accuracy, scanned.best, scanned.counts / scanned.source.sample_count


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
