"""Monte Carlo estimation of the minimum accuracy by axis subsampling.

Evaluating every axis of a d-dimensional feature space is exact but costs
O(d N log N); for Pauli-style spaces d grows as 4^n.  The estimators here
evaluate only a random subset of axes.  Because the subset maximum can never
exceed the full maximum, every estimate is itself a certified lower bound,
and uniform sampling without replacement admits exact hypergeometric
statements about how likely the sample is to contain a high-accuracy axis.

Every estimator, like the exhaustive scan, is a stopping rule over one
scoring run (``axiscore._ScoredAxes``): it draws axes from one
without-replacement stream, scores them a block at a time, and the run keeps
the first axis to reach the maximum.  Given ``axiscore.ScannedFeatures``,
the record the exhaustive scan of the same features and labels made, a run
looks up each drawn axis's count instead of sweeping its column; only the
winner's column is read, for its threshold rule, and every result is the one
a plain source gives, bit for bit.  On either path the winner's rule must
reach the count it won with, or the run is a RuntimeError, as the scan's is.
The survival function, too, is read off the record's counts.
Three rules trade prior knowledge for adaptivity:

* conservative: one block of fixed size t = ceil(log(1/delta) / p) from an
  assumed lower bound p on the fraction of good axes;
* pilot: estimate that fraction from a pilot block (target = 75th
  percentile of pilot accuracies, nearest-rank), then complete to the
  implied size with a second block;
* adaptive: batch-incremental with patience, a fixed 5-batch stability
  window, and budget stopping rules, with no a priori coverage guarantee.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .axiscore import AxisResult, Checked, Rule, ScannedFeatures, _ScoredAxes, axis_accuracy, check

# adaptive stops as STABLE once the best value spread over this many batch-ends is small
_STABILITY_WINDOW = 5
_PRIOR_RULES = dict(p=Rule.FRACTION)  # the prior a sample size is planned for


class EstimatorMethod(Enum):
    DETERMINISTIC = "deterministic"
    CONSERVATIVE = "conservative"
    PILOT = "pilot"
    ADAPTIVE = "adaptive"


class StopReason(Enum):
    FIXED_SIZE_REACHED = "fixed_size_reached"
    CONVERGED = "converged"
    STABLE = "stable"
    BUDGET_EXHAUSTED = "budget_exhausted"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class EstimatorSettings(Checked):
    """The estimators' settings, each the keyword of every estimator that takes
    it, with its default and the one rule that checks it wherever it comes from."""

    delta: float = 0.05
    n_pilot: int = 100
    cap_fraction: float = 0.01
    batch_size: int = 40
    patience: int = 3
    stability_eps: float = 1e-3
    budget_fraction: float = 0.01

    _RULES = dict(delta=Rule.OPEN_UNIT, n_pilot=Rule.COUNT, cap_fraction=Rule.FRACTION, batch_size=Rule.COUNT,
                  patience=Rule.COUNT, stability_eps=Rule.NON_NEGATIVE, budget_fraction=Rule.FRACTION)


@dataclass(frozen=True)
class CoverageQuery(Checked):
    """Inputs of a coverage question: population d, good fraction p, sample size t."""

    d: int
    p: float
    t: int

    _RULES = dict(d=Rule.COUNT, p=("lie in [0, 1]", lambda v: Rule.is_real(v) and 0.0 <= v <= 1.0), t=Rule.integer_at_least(0))

    def __post_init__(self):
        super().__post_init__()
        if self.t > self.d:
            raise ValueError("sample exceeds population")


def _good_axis_count(d: int, p: float) -> int:
    # floor(p * d); the tiny slack guards against p values whose binary
    # representation puts an integral product a hair below the integer.
    return int(math.floor(p * d + 1e-9))


def coverage_probability_exact(query: CoverageQuery) -> float:
    """Exact probability that a uniform without-replacement sample of t axes
    contains at least one of the k = floor(p*d) good axes.

    Computed as 1 - C(d-k, t)/C(d, t) via a running product of t factors in
    (0, 1], so no factorials and no overflow at any scale.
    """
    k = _good_axis_count(query.d, query.p)
    if k == 0:
        if query.p > 0.0:
            warnings.warn(
                "p * d < 1: the prior admits no good axes at this granularity",
                stacklevel=2,
            )
        return 0.0
    if query.t > query.d - k:
        return 1.0
    miss = 1.0
    for j in range(query.t):
        miss *= (query.d - k - j) / (query.d - j)
    return 1.0 - miss


def coverage_probability_bound(query: CoverageQuery) -> float:
    """Bernoulli lower bound 1 - (1-p)^t on the exact coverage probability.

    Uses the effective fraction floor(p*d)/d rather than the raw p, so the
    bound refers to the same good-axis count as the exact formula.  With a raw
    non-integral p*d the inequality bound <= exact can fail outright (for
    d=10, p=0.25, t=1 the exact probability is 2/10 but 1-(1-p)^t is 0.25);
    in the intended use p is a survival-function value, making p*d integral
    and the two conventions identical.
    """
    p_eff = _good_axis_count(query.d, query.p) / query.d
    return 1.0 - (1.0 - p_eff) ** query.t


def sample_size(p: float, delta: float) -> int:
    """Smallest certified sample size: ceil(log(1/delta) / p).

    Sampling that many axes uniformly without replacement guarantees, with
    probability at least 1 - delta, at least one axis from any group making
    up a fraction >= p of the population.  Callers that know d should clamp
    the result to d.
    """
    check(_PRIOR_RULES, p=p)
    check(EstimatorSettings._RULES, delta=delta)
    return int(math.ceil(math.log(1.0 / delta) / p))


@dataclass(frozen=True)
class SurvivalFunction:
    """Fraction of axes with accuracy at least eta, as a function of eta."""

    thresholds: np.ndarray        # sorted unique accuracy values
    values: np.ndarray            # S(eta) at each threshold

    def __call__(self, eta: float) -> float:
        # first grid threshold >= eta carries the answer; S is 0 past the max
        idx = int(np.searchsorted(self.thresholds, eta, side="left"))
        if idx == self.thresholds.size:
            return 0.0
        return float(self.values[idx])


def survival_function(scanned) -> SurvivalFunction:
    """S at every accuracy some axis of the scan record ``scanned`` reaches,
    read off the histogram of its integer counts: one suffix sum, no sort."""
    n, d = scanned.source.sample_count, scanned.counts.size
    histogram = np.bincount(scanned.counts, minlength=n + 1)
    at_least = np.cumsum(histogram[::-1])[::-1]   # axes whose count is >= c, at index c
    levels = np.flatnonzero(histogram)
    return SurvivalFunction(thresholds=levels / n, values=at_least[levels] / d)


class _AxisSampler:
    """Incremental uniform sampling of distinct indices from range(d).

    Partial Fisher-Yates with a sparse swap map: O(draws) memory, and
    successive draws extend the same without-replacement stream, which is
    what the pilot completion stage and adaptive batches need.
    """

    def __init__(self, d: int, seed):
        check(CoverageQuery._RULES, d=d)
        self._d = d
        self._rng = np.random.default_rng(seed)
        self._swaps: dict[int, int] = {}
        self._pos = 0

    @property
    def drawn(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._d - self._pos

    def draw(self, count: int) -> list[int]:
        if count < 0 or self._pos + count > self._d:
            raise ValueError("sample exceeds population")
        # one generator call draws the same stream as `count` scalar calls
        targets = self._rng.integers(np.arange(self._pos, self._pos + count), self._d).tolist()
        out = []
        for j, r in enumerate(targets, start=self._pos):
            # no draw reads a position behind the cursor: j leaves the map
            out.append(self._swaps.get(r, r))
            v_j = self._swaps.pop(j, j)
            if r != j:
                self._swaps[r] = v_j
        self._pos += count
        return out


def sample_axes(d: int, t: int, rng_seed) -> list[int]:
    """t distinct indices, uniform over t-subsets of range(d); deterministic per seed."""
    return _AxisSampler(d, rng_seed).draw(t)


@dataclass(frozen=True)
class PilotStats:
    eta_pilot: float
    p_hat: float
    t_required: int


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of a minimum-accuracy estimate, the same shape for every method.

    ``axis_accuracies[i]`` is the per-axis optimum of ``sampled_axes[i]``.
    ``best`` is the threshold rule of the first sampled axis reaching their
    maximum, and ``r_hat`` its accuracy; by the subset argument ``r_hat``
    never exceeds the exact full-scan value.
    """

    r_hat: float
    sampled_axes: list[int]
    axis_accuracies: np.ndarray
    best: AxisResult
    method: EstimatorMethod
    stopping_reason: StopReason
    axes_evaluated: int
    pilot_stats: PilotStats | None = None


def _result(run: _ScoredAxes, method, reason, pilot_stats=None) -> EstimateResult:
    """The result of a sampled method's scoring run: the threshold rule of its
    winner, from the column kept with it and checked by ``run.winner``; every
    other axis stays a count."""
    best = run.winner(axis_accuracy(run.best_column, run.labels, axis_index=run.best_axis))
    axes = run.axes
    return EstimateResult(
        r_hat=best.accuracy,
        sampled_axes=axes,
        axis_accuracies=run.counts / run.source.sample_count,
        best=best,
        method=method,
        stopping_reason=reason,
        axes_evaluated=len(axes),
        pilot_stats=pilot_stats,
    )


def deterministic_estimate(features, labels) -> EstimateResult:
    """The exhaustive scan's record, ``ScannedFeatures``, in the common estimator result shape."""
    scanned = ScannedFeatures(features, labels)
    d = scanned.counts.size
    return EstimateResult(r_hat=scanned.best.accuracy, sampled_axes=list(range(d)),
                          axis_accuracies=scanned.counts / scanned.source.sample_count, best=scanned.best,
                          method=EstimatorMethod.DETERMINISTIC, stopping_reason=StopReason.EXHAUSTED,
                          axes_evaluated=d)


def conservative_estimate(features, labels, p_conservative: float, delta: float, rng_seed) -> EstimateResult:
    """Fixed-size estimate: t = ceil(log(1/delta)/p_conservative) axes (clamped to d)."""
    run = _ScoredAxes(features, labels)
    d = run.source.axis_count
    run.score(sample_axes(d, min(sample_size(p_conservative, delta), d), rng_seed))
    return _result(run, EstimatorMethod.CONSERVATIVE, StopReason.FIXED_SIZE_REACHED)


def pilot_estimate(features, labels, n_pilot: int = EstimatorSettings.n_pilot,
                   delta: float = EstimatorSettings.delta,
                   cap_fraction: float = EstimatorSettings.cap_fraction, rng_seed=None) -> EstimateResult:
    """Two-stage estimate: learn the good-axis fraction from a pilot sample.

    Stage 1 draws ``n_pilot`` axes, clamped to d like every sample size, and
    sets the target accuracy eta to the nearest-rank 75th percentile of the
    pilot accuracies (ascending index ceil(0.75 * n_pilot)), so the
    estimated fraction p_hat of pilot axes at or above eta is always >= 0.25.
    Stage 2 completes the sample, without replacement from the unexplored
    axes, up to min(ceil(log(1/delta)/p_hat), ceil(cap_fraction * d), d).
    """
    check(EstimatorSettings._RULES, n_pilot=n_pilot, delta=delta, cap_fraction=cap_fraction)
    run = _ScoredAxes(features, labels)
    d = run.source.axis_count
    n_pilot = min(n_pilot, d)

    sampler = _AxisSampler(d, rng_seed)
    run.score(sampler.draw(n_pilot))
    ranked = np.sort(run.counts) / run.source.sample_count
    eta = float(ranked[math.ceil(0.75 * n_pilot) - 1])
    p_hat = float(np.sum(ranked >= eta)) / n_pilot
    t_required = sample_size(p_hat, delta)

    budget = min(t_required, math.ceil(cap_fraction * d), d)
    if budget > n_pilot:
        run.score(sampler.draw(budget - n_pilot))

    if sampler.drawn >= d:
        reason = StopReason.EXHAUSTED
    elif sampler.drawn >= t_required:
        reason = StopReason.FIXED_SIZE_REACHED
    else:
        reason = StopReason.BUDGET_EXHAUSTED
    return _result(run, EstimatorMethod.PILOT, reason,
                   PilotStats(eta_pilot=eta, p_hat=p_hat, t_required=t_required))


def adaptive_estimate(features, labels, batch_size: int = EstimatorSettings.batch_size,
                      patience: int = EstimatorSettings.patience,
                      stability_eps: float = EstimatorSettings.stability_eps,
                      budget_fraction: float = EstimatorSettings.budget_fraction,
                      rng_seed=None) -> EstimateResult:
    """Batch-incremental estimate with empirical stopping rules.

    After each batch the rules are checked in order: all axes evaluated
    (EXHAUSTED), budget ceil(budget_fraction * d) reached (BUDGET_EXHAUSTED),
    no strict improvement of the running best for ``patience`` consecutive
    batches (CONVERGED), best-value spread over the last 5 batch-ends at most
    ``stability_eps`` (STABLE); the 5-batch window is fixed.
    """
    check(EstimatorSettings._RULES, batch_size=batch_size, patience=patience, stability_eps=stability_eps,
          budget_fraction=budget_fraction)
    run = _ScoredAxes(features, labels)
    n, d = run.source.sample_count, run.source.axis_count
    budget = math.ceil(budget_fraction * d)
    sampler = _AxisSampler(d, rng_seed)
    no_improve = 0
    history: list[float] = []

    while True:
        rose = run.score(sampler.draw(min(batch_size, budget - sampler.drawn, sampler.remaining)))
        no_improve = 0 if rose else no_improve + 1
        history.append(run.best_count / n)

        if sampler.remaining == 0:
            reason = StopReason.EXHAUSTED
            break
        if sampler.drawn >= budget:
            reason = StopReason.BUDGET_EXHAUSTED
            break
        if no_improve >= patience:
            reason = StopReason.CONVERGED
            break
        window = history[-_STABILITY_WINDOW:]
        if len(history) >= _STABILITY_WINDOW and max(window) - min(window) <= stability_eps:
            reason = StopReason.STABLE
            break

    return _result(run, EstimatorMethod.ADAPTIVE, reason)
