"""Coverage math against scipy's hypergeometric distribution, sampler
statistics, and the estimator stopping rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from minacc.axiscore import FeatureMatrix, ScannedFeatures, axis_accuracy, best_counts, r_min_deterministic
from minacc.sampling import (
    CoverageQuery,
    EstimatorMethod,
    _AxisSampler,
    StopReason,
    adaptive_estimate,
    conservative_estimate,
    coverage_probability_bound,
    coverage_probability_exact,
    deterministic_estimate,
    pilot_estimate,
    sample_axes,
    sample_size,
    survival_function,
)

GRID_D = (10, 100, 1000)
GRID_P = (0.05, 0.1, 0.25, 0.5)
GRID_T = range(1, 21)


def scipy_coverage(d, p, t):
    k = int(np.floor(p * d + 1e-9))
    return float(1.0 - stats.hypergeom(d, k, t).pmf(0))


def random_matrix(rng, n_max=50, d_max=30):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    labels = rng.choice([-1, 1], size=n)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return FeatureMatrix(values=rng.uniform(-1, 1, size=(n, d))), labels


# ---------------------------------------------------------------------------
# sample size
# ---------------------------------------------------------------------------

def test_sample_sizes_for_standard_priors():
    assert sample_size(0.05, 0.05) == 60
    assert sample_size(0.15, 0.05) == 20
    assert sample_size(0.25, 0.05) == 12
    assert sample_size(1.0, 0.05) == 3


def test_sample_size_rejects_zero_prior():
    for p in (0.0, -0.25, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"^p must lie in \(0, 1\]: "):
            sample_size(p, 0.05)


# ---------------------------------------------------------------------------
# coverage probabilities
# ---------------------------------------------------------------------------

def test_exact_coverage_trivial_cases():
    assert coverage_probability_exact(CoverageQuery(d=100, p=0.3, t=0)) == 0.0
    assert coverage_probability_exact(CoverageQuery(d=100, p=0.0, t=10)) == 0.0
    assert coverage_probability_exact(CoverageQuery(d=4, p=0.5, t=1)) == 0.5
    # drawing more than the bad-axis count forces a hit
    assert coverage_probability_exact(CoverageQuery(d=10, p=0.5, t=6)) == 1.0


def test_exact_coverage_hand_computed():
    got = coverage_probability_exact(CoverageQuery(d=10, p=0.3, t=2))
    assert got == pytest.approx(24 / 45, abs=1e-15)


def test_bound_examples():
    assert coverage_probability_bound(CoverageQuery(d=4, p=0.5, t=1)) == 0.5
    assert coverage_probability_bound(CoverageQuery(d=100, p=1.0, t=5)) == 1.0
    assert coverage_probability_bound(CoverageQuery(d=10, p=0.3, t=2)) == pytest.approx(0.51)


@pytest.mark.filterwarnings("ignore:p \\* d < 1")
def test_exact_matches_scipy_on_grid():
    for d in GRID_D:
        for p in GRID_P:
            for t in GRID_T:
                if t > d:
                    continue
                got = coverage_probability_exact(CoverageQuery(d=d, p=p, t=t))
                assert got == pytest.approx(scipy_coverage(d, p, t), abs=1e-12)


@pytest.mark.filterwarnings("ignore:p \\* d < 1")
def test_exact_dominates_bound_and_is_monotone():
    for d in GRID_D:
        for p in GRID_P:
            prev_t = 0.0
            for t in GRID_T:
                if t > d:
                    continue
                q = CoverageQuery(d=d, p=p, t=t)
                exact = coverage_probability_exact(q)
                bound = coverage_probability_bound(q)
                assert 0.0 <= bound <= 1.0
                assert 0.0 <= exact <= 1.0
                assert exact >= bound - 1e-12
                assert exact >= prev_t - 1e-15  # non-decreasing in t
                prev_t = exact
        for t in (1, 5, 10):
            values = [
                coverage_probability_exact(CoverageQuery(d=d, p=p, t=t)) for p in GRID_P
            ]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_sample_exceeds_population_errors():
    with pytest.raises(ValueError, match="sample exceeds population"):
        CoverageQuery(d=5, p=0.5, t=6)
    with pytest.raises(ValueError, match="sample exceeds population"):
        sample_axes(5, 6, rng_seed=0)


def test_sub_unit_prior_mass_warns():
    with pytest.warns(UserWarning, match="admits no good axes"):
        value = coverage_probability_exact(CoverageQuery(d=10, p=0.05, t=5))
    assert value == 0.0


# ---------------------------------------------------------------------------
# survival function
# ---------------------------------------------------------------------------

def record_with_counts(counts, n):
    """The scan record of n samples, the first n // 2 positive, whose axis i
    reaches counts[i], for n - n // 2 <= counts[i] <= n: a 0/1 indicator of
    the positives with the first n - counts[i] of them set to 0."""
    labels = np.where(np.arange(n) < n // 2, 1, -1)
    values = np.tile((labels == 1).astype(float)[:, None], (1, len(counts)))
    for i, count in enumerate(counts):
        values[:n - count, i] = 0.0
    return ScannedFeatures(values, labels)


def sorted_survival(counts, n):
    """The survival function as defined before it read counts: thresholds
    and values from a sort of the accuracies counts / N."""
    accuracies = counts / n
    srt = np.sort(accuracies)
    thresholds = np.unique(srt)
    return thresholds, (accuracies.size - np.searchsorted(srt, thresholds, side="left")) / accuracies.size


def test_survival_function_values():
    record = record_with_counts([5, 7, 9], 10)
    assert record.counts.tolist() == [5, 7, 9]
    surv = survival_function(record)
    assert surv(0.7) == pytest.approx(2 / 3)
    assert surv(0.4) == 1.0
    assert surv(0.91) == 0.0


def test_survival_function_matches_direct_count():
    rng = np.random.default_rng(13)
    for _ in range(20):
        features, labels = random_matrix(rng, d_max=60)
        record = ScannedFeatures(features, labels)
        accuracies = record.counts / features.sample_count
        surv = survival_function(record)
        for eta in np.linspace(0.3, 1.1, 40):
            assert surv(float(eta)) == pytest.approx(np.mean(accuracies >= eta))
        grid = surv.values
        assert np.all(np.diff(grid) < 0)  # strictly falling along the thresholds
        assert np.allclose(grid * accuracies.size, np.round(grid * accuracies.size))
        assert surv.thresholds[0] == accuracies.min()
        assert surv.thresholds[-1] == r_min_deterministic(record, labels)[0]


def _count_vectors():
    """Count vectors of every shape the survival function must read: N = 1,
    d = 1, all counts equal, every level 0..N present, and random ones."""
    yield 1, np.array([1])
    yield 1, np.array([0, 1, 1, 0])
    yield 5, np.array([3])
    yield 7, np.full(9, 4)
    yield 6, np.arange(7)
    yield 6, np.arange(7)[::-1].repeat(3)
    rng = np.random.default_rng(31)
    for _ in range(300):
        n, d = int(rng.integers(1, 120)), int(rng.integers(1, 200))
        levels = rng.choice(n + 1, size=int(rng.integers(1, n + 2)), replace=False)
        yield n, rng.choice(levels, size=d)


def test_survival_function_from_counts_equals_the_sorted_one_byte_for_byte():
    for n, counts in _count_vectors():
        record = ScannedFeatures(np.zeros((n, counts.size)), np.ones(n, dtype=np.int64))
        record.counts[:] = counts  # any count vector, 0 and N included, not only ones a scan reaches
        surv = survival_function(record)
        thresholds, values = sorted_survival(record.counts, n)
        assert (surv.thresholds.dtype, surv.thresholds.tobytes()) == (thresholds.dtype, thresholds.tobytes())
        assert (surv.values.dtype, surv.values.tobytes()) == (values.dtype, values.tobytes())


# ---------------------------------------------------------------------------
# axis sampler
# ---------------------------------------------------------------------------

def test_sample_axes_full_draw_is_permutation():
    axes = sample_axes(5, 5, rng_seed=3)
    assert sorted(axes) == [0, 1, 2, 3, 4]


def test_sample_axes_deterministic_and_distinct():
    a = sample_axes(1000, 50, rng_seed=42)
    b = sample_axes(1000, 50, rng_seed=42)
    assert a == b
    assert len(set(a)) == 50
    assert sample_axes(1000, 50, rng_seed=43) != a


def test_sample_axes_uniform_frequency():
    counts = np.zeros(10)
    n_draws = 10000
    for seed in range(n_draws):
        counts[sample_axes(10, 1, rng_seed=seed)[0]] += 1
    freq = counts / n_draws
    sigma = np.sqrt(0.1 * 0.9 / n_draws)
    assert np.all(np.abs(freq - 0.1) <= 4 * sigma)


class ScalarAxisSampler:
    """Reference partial Fisher-Yates: one scalar generator call per index,
    writing both swapped positions back to the map, the drawn one included."""

    def __init__(self, d, seed):
        self.d, self.rng, self.swaps, self.pos = d, np.random.default_rng(seed), {}, 0

    def draw(self, count):
        out = []
        for _ in range(count):
            j = self.pos
            r = int(self.rng.integers(j, self.d))
            v_j, v_r = self.swaps.get(j, j), self.swaps.get(r, r)
            out.append(v_r)
            self.swaps[r], self.swaps[j] = v_j, v_r
            self.pos += 1
        return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 7, 4 ** 6, 4 ** 8, 4 ** 10, 2 ** 32, 2 ** 40, 2 ** 63 - 1]),
       st.integers(0, 2 ** 64 - 1), st.lists(st.integers(0, 40), max_size=6))
def test_batched_draws_follow_the_scalar_stream(d, seed, counts):
    sampler, reference = _AxisSampler(d, seed), ScalarAxisSampler(d, seed)
    for count in counts:
        count = min(count, sampler.remaining)
        assert sampler.draw(count) == reference.draw(count)
        assert sampler.drawn == reference.pos
        assert all(position >= sampler.drawn for position in sampler._swaps)  # only entries ahead of the cursor
    assert sampler._rng.bit_generator.state == reference.rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 5, 64])
def test_sample_axes_follows_the_scalar_stream_up_to_t_equal_d(d):
    # the last position always draws itself, and d = 1 draws nothing else
    for seed in range(20):
        for t in (1, d // 2, d):
            assert sample_axes(d, t, rng_seed=seed) == ScalarAxisSampler(d, seed).draw(t)
    sampler = _AxisSampler(d, 7)
    sampler.draw(d)
    assert sampler._swaps == {}


def test_pilot_and_adaptive_draws_follow_the_scalar_stream():
    # pilot stage 2 and every adaptive batch extend the stream of the first draw
    rng = np.random.default_rng(23)
    features = FeatureMatrix(rng.standard_normal((30, 400)))
    labels = rng.choice([-1, 1], size=30)
    pilot = pilot_estimate(features, labels, n_pilot=12, delta=1e-4, cap_fraction=0.5, rng_seed=5)
    assert pilot.axes_evaluated > 12  # stage 2 drew
    adaptive = adaptive_estimate(features, labels, batch_size=7, patience=50, stability_eps=0.0,
                                 budget_fraction=0.2, rng_seed=6)
    assert adaptive.axes_evaluated > 7  # several batches
    for result, seed in ((pilot, 5), (adaptive, 6)):
        assert result.sampled_axes == ScalarAxisSampler(400, seed).draw(result.axes_evaluated)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_deterministic_estimate_equals_exhaustive_scan():
    rng = np.random.default_rng(14)
    features, labels = random_matrix(rng)
    result = deterministic_estimate(features, labels)
    r_min, _, _ = r_min_deterministic(features, labels)
    assert result.r_hat == r_min
    assert result.method is EstimatorMethod.DETERMINISTIC
    assert result.stopping_reason is StopReason.EXHAUSTED
    assert result.axes_evaluated == features.axis_count
    assert np.array_equal(result.axis_accuracies, r_min_deterministic(features, labels)[2])


def test_conservative_sample_size_and_reason():
    rng = np.random.default_rng(15)
    features, labels = random_matrix(rng, n_max=30, d_max=30)
    d = features.axis_count
    result = conservative_estimate(features, labels, p_conservative=0.25, delta=0.05, rng_seed=1)
    assert result.axes_evaluated == min(12, d)
    assert result.stopping_reason is StopReason.FIXED_SIZE_REACHED
    assert result.method is EstimatorMethod.CONSERVATIVE
    assert len(set(result.sampled_axes)) == result.axes_evaluated


def test_conservative_clamps_to_small_d():
    values = np.random.default_rng(16).uniform(size=(12, 8))
    features = FeatureMatrix(values=values)
    labels = np.array([1, -1] * 6)
    result = conservative_estimate(features, labels, p_conservative=0.25, delta=0.05, rng_seed=9)
    assert result.axes_evaluated == 8
    assert result.r_hat == r_min_deterministic(features, labels)[0]


def test_conservative_constant_matrix_gives_majority():
    features = FeatureMatrix(values=np.full((10, 40), 0.3))
    labels = np.array([1] * 7 + [-1] * 3)
    for seed in range(5):
        result = conservative_estimate(features, labels, 0.25, 0.05, rng_seed=seed)
        assert result.r_hat == 0.7


def test_estimators_never_exceed_r_min():
    rng = np.random.default_rng(17)
    for trial in range(40):
        features, labels = random_matrix(rng)
        r_min, _, _ = r_min_deterministic(features, labels)
        seed = 1000 + trial
        results = [
            conservative_estimate(features, labels, 0.25, 0.05, rng_seed=seed),
            pilot_estimate(features, labels, n_pilot=min(5, features.axis_count), rng_seed=seed),
            adaptive_estimate(features, labels, batch_size=4, budget_fraction=0.5, rng_seed=seed),
        ]
        for result in results:
            assert result.r_hat <= r_min
            assert result.r_hat == max(result.axis_accuracies) == result.best.accuracy


class CountingSource:
    """A feature matrix that counts every column it serves."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.sample_count, self.axis_count = matrix.sample_count, matrix.axis_count
        self.served = 0

    parts = FeatureMatrix.parts  # a matrix's tasks

    def column(self, i):
        self.served += 1
        return self.matrix.column(i)

    def columns(self, indices):
        block = self.matrix.columns(indices)
        self.served += block.shape[1]
        return block


def test_estimators_read_each_sampled_column_once():
    rng = np.random.default_rng(19)
    pilot_completed = adaptive_later_batch = 0
    for trial in range(40):
        features, labels = random_matrix(rng, d_max=60)
        seed = 2000 + trial
        runs = {
            "conservative": lambda f: conservative_estimate(f, labels, 0.15, 0.05, rng_seed=seed),
            "pilot": lambda f: pilot_estimate(f, labels, n_pilot=min(5, f.axis_count),
                                              cap_fraction=1.0, rng_seed=seed),
            "adaptive": lambda f: adaptive_estimate(f, labels, batch_size=4, budget_fraction=1.0,
                                                    rng_seed=seed),
        }
        for name, run in runs.items():
            source = CountingSource(features)
            counted, plain = run(source), run(features)
            assert source.served == counted.axes_evaluated
            assert counted.r_hat == plain.r_hat and counted.best == plain.best
            pilot_completed += name == "pilot" and counted.axes_evaluated > 5
            adaptive_later_batch += name == "adaptive" and counted.sampled_axes.index(
                counted.best.axis_index) >= 4
    # both ways a winner can come from a batch after the first are exercised
    assert pilot_completed and adaptive_later_batch


def test_exhaustive_scan_serves_each_column_once():
    # the winner's threshold rule comes from the column kept by the scan, not a re-read
    rng = np.random.default_rng(20)
    for _ in range(10):
        features, labels = random_matrix(rng, d_max=60)
        for scan in (r_min_deterministic, deterministic_estimate):
            source = CountingSource(features)
            scan(source, labels)
            assert source.served == features.axis_count


def test_scanned_source_reads_only_the_winning_columns():
    # a one-batch estimate reads its winner's column and nothing else
    rng = np.random.default_rng(21)
    for trial in range(10):
        features, labels = random_matrix(rng, d_max=60)
        source = CountingSource(features)
        scanned = ScannedFeatures(source, labels)
        source.served = 0  # the record's own scan read every column
        looked_up = conservative_estimate(scanned, labels, 0.15, 0.05, rng_seed=trial)
        swept = conservative_estimate(features, labels, 0.15, 0.05, rng_seed=trial)
        assert source.served == 1
        assert (looked_up.r_hat, looked_up.best, looked_up.sampled_axes) == (
            swept.r_hat, swept.best, swept.sampled_axes)


@pytest.mark.parametrize("method", ["r_min", "deterministic", "conservative", "pilot", "adaptive"])
def test_a_count_no_rule_reaches_is_an_error(method):
    # one axis's count raised past the maximum: that axis wins the lookup, but
    # its threshold rule gets its true count, so no estimate may be returned
    rng = np.random.default_rng(22)
    features, labels = random_matrix(rng, n_max=20, d_max=12)
    scanned = ScannedFeatures(features, labels)
    scanned.counts[-1] = scanned.counts.max() + 1
    d = features.axis_count
    estimate = {  # each samples every axis
        "r_min": lambda: r_min_deterministic(scanned, labels),
        "deterministic": lambda: deterministic_estimate(scanned, labels),
        "conservative": lambda: conservative_estimate(scanned, labels, 0.05, 0.05, rng_seed=0),
        "pilot": lambda: pilot_estimate(scanned, labels, n_pilot=d, rng_seed=0),
        "adaptive": lambda: adaptive_estimate(scanned, labels, batch_size=d, budget_fraction=1.0,
                                              rng_seed=0),
    }[method]
    with pytest.raises(RuntimeError, match=f"axis {d - 1} scored"):
        estimate()


def test_the_record_holds_the_scan_it_ran():
    # a record used to take any per-axis vector of the right length: built
    # with [0.5, 1/3] on these features it made R_min 0.5, where it is 1.0
    values = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]], dtype=float)
    labels = np.array([1, -1, 1, -1, 1, -1])
    record = ScannedFeatures(values, labels)
    plain = [axis_accuracy(values[:, i], labels, axis_index=i) for i in range(2)]
    assert record.counts.dtype == np.int64
    assert record.counts.tolist() == best_counts(values, labels).tolist() == [3, 6]
    assert [a.correct_count for a in plain] == [3, 6]
    assert record.best == plain[1]
    assert r_min_deterministic(record, labels)[:2] == r_min_deterministic(values, labels)[:2] == (1.0, plain[1])


def test_subset_monotonicity():
    rng = np.random.default_rng(18)
    features, labels = random_matrix(rng, n_max=40, d_max=25)
    d = features.axis_count
    t_small = max(1, d // 3)
    axes = sample_axes(d, d, rng_seed=77)

    def subset_max(subset):
        return max(axis_accuracy(features.column(i), labels, axis_index=i).accuracy
                   for i in subset)

    small = subset_max(axes[:t_small])
    grown = subset_max(axes[: min(d, t_small * 2)])
    assert grown >= small


def test_pilot_percentile_guarantee_and_stats():
    rng = np.random.default_rng(19)
    features, labels = random_matrix(rng, n_max=40, d_max=30)
    n_pilot = min(8, features.axis_count)
    result = pilot_estimate(features, labels, n_pilot=n_pilot, delta=0.05, rng_seed=3)
    stats_ = result.pilot_stats
    assert stats_ is not None
    assert stats_.p_hat >= 0.25
    assert stats_.t_required <= 12
    assert result.method is EstimatorMethod.PILOT


def test_pilot_equal_accuracies_trace():
    # every axis identical: eta = the common value, p_hat = 1, t_required = 3
    features = FeatureMatrix(values=np.tile(np.linspace(0, 1, 10).reshape(-1, 1), (1, 20)))
    labels = np.array([-1] * 5 + [1] * 5)
    result = pilot_estimate(features, labels, n_pilot=6, delta=0.05, cap_fraction=1.0, rng_seed=4)
    assert result.pilot_stats.p_hat == 1.0
    assert result.pilot_stats.t_required == 3
    assert result.axes_evaluated == 6  # no completion draws needed
    assert result.stopping_reason is StopReason.FIXED_SIZE_REACHED


def test_pilot_full_coverage_equals_deterministic():
    # a pilot of d axes or more is clamped to d and scans every axis
    rng = np.random.default_rng(20)
    features, labels = random_matrix(rng, n_max=30, d_max=15)
    d = features.axis_count
    for n_pilot in (d, d + 5):
        result = pilot_estimate(features, labels, n_pilot=n_pilot, cap_fraction=1.0, rng_seed=5)
        assert result.r_hat == r_min_deterministic(features, labels)[0]
        assert sorted(result.sampled_axes) == list(range(d))
        assert result.stopping_reason is StopReason.EXHAUSTED


def test_pilot_rejects_an_empty_pilot():
    features = FeatureMatrix(values=np.random.default_rng(21).uniform(size=(6, 4)))
    labels = np.array([1, -1, 1, -1, 1, -1])
    with pytest.raises(ValueError, match="n_pilot must be an integer >= 1"):
        pilot_estimate(features, labels, n_pilot=0, rng_seed=0)


def test_pilot_respects_cap():
    rng = np.random.default_rng(22)
    values = rng.uniform(-1, 1, size=(30, 400))
    labels = rng.choice([-1, 1], size=30)
    features = FeatureMatrix(values=values)
    result = pilot_estimate(features, labels, n_pilot=10, cap_fraction=0.01, rng_seed=6)
    # cap = ceil(0.01 * 400) = 4 < n_pilot: no completion draws beyond the pilot
    assert result.axes_evaluated == 10


def test_adaptive_converges_with_patience():
    # one perfect axis guaranteed in the first batch, then no improvement
    rng = np.random.default_rng(23)
    values = rng.uniform(-1, 1, size=(20, 30))
    labels = np.array([-1, 1] * 10)
    values[:, :] = rng.uniform(-1, 1, size=(20, 30))
    values[:, 0] = labels * 0.5  # separable column
    # every axis lands in batch 1 of size 30... use smaller batch so batch 1
    # contains some axes and later batches none better
    result = adaptive_estimate(
        FeatureMatrix(values=values), labels,
        batch_size=30, patience=1, stability_eps=0.0, budget_fraction=1.0, rng_seed=7,
    )
    assert result.stopping_reason is StopReason.EXHAUSTED  # 30 axes in one batch
    result = adaptive_estimate(
        FeatureMatrix(values=values), labels,
        batch_size=10, patience=1, stability_eps=0.0, budget_fraction=1.0, rng_seed=11,
    )
    # with patience 1 the run ends one batch after the best stops improving
    assert result.stopping_reason is StopReason.CONVERGED
    assert result.axes_evaluated < 30


def test_adaptive_budget_binds_first():
    rng = np.random.default_rng(24)
    features = FeatureMatrix(values=rng.uniform(-1, 1, size=(10, 200)))
    labels = np.array([-1, 1] * 5)
    result = adaptive_estimate(
        features, labels, batch_size=20, patience=100, stability_eps=0.0,
        budget_fraction=0.1, rng_seed=8,
    )
    assert result.stopping_reason is StopReason.BUDGET_EXHAUSTED
    assert result.axes_evaluated == 20  # ceil(0.1 * 200) = 20 = one batch


def test_adaptive_exhausts_small_d():
    rng = np.random.default_rng(25)
    features = FeatureMatrix(values=rng.uniform(-1, 1, size=(12, 7)))
    labels = np.array([-1, 1] * 6)
    result = adaptive_estimate(
        features, labels, batch_size=40, patience=3, budget_fraction=1.0, rng_seed=9
    )
    assert result.stopping_reason is StopReason.EXHAUSTED
    assert result.axes_evaluated == 7
    assert result.r_hat == r_min_deterministic(features, labels)[0]


def test_adaptive_stability_window():
    # best value improves by tiny steps below eps: the 5-batch window triggers
    n = 100
    labels = np.array([-1, 1] * (n // 2))
    rng = np.random.default_rng(26)
    values = rng.uniform(-1, 1, size=(n, 400))
    result = adaptive_estimate(
        FeatureMatrix(values=values), labels,
        batch_size=10, patience=1000, stability_eps=0.5, budget_fraction=1.0, rng_seed=10,
    )
    assert result.stopping_reason is StopReason.STABLE
    assert result.axes_evaluated == 50  # five batches, then the window check


def test_estimators_are_deterministic_given_seed():
    rng = np.random.default_rng(27)
    features, labels = random_matrix(rng, n_max=30, d_max=40)
    for fn in (
        lambda s: conservative_estimate(features, labels, 0.25, 0.05, rng_seed=s),
        lambda s: pilot_estimate(features, labels, n_pilot=min(6, features.axis_count), rng_seed=s),
        lambda s: adaptive_estimate(features, labels, batch_size=5, rng_seed=s),
    ):
        a, b = fn(123), fn(123)
        assert a.r_hat == b.r_hat
        assert a.sampled_axes == b.sampled_axes
        assert a.stopping_reason == b.stopping_reason


@pytest.mark.parametrize("values", [np.empty((3, 0)), np.array([0.5, 0.75, 0.25])], ids=["empty", "2-D"])
def test_survival_function_needs_an_accuracy_vector(values):
    # S is read off a scan record's counts, and features with no axes, or not
    # 2-D, have no record to read
    with pytest.raises(ValueError, match="^empty dataset: feature matrix must be non-empty N x d$"):
        survival_function(ScannedFeatures(values, np.array([1, -1, 1])))
