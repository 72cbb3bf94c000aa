"""Acceptance tests: the externally advertised guarantees, one test each.

The first five checks are cheap and self-contained.  The last three share a
module-scoped fixture that runs the full benchmark pipeline (three datasets,
N_train = 100, proxy embedding at d = 4^8 = 65,536) exactly as the CLI would.
The file runs in about 6 s on a 2-core Xeon, most of it in that pipeline and
its rerun, about 1.5 s each, of which the SVM baselines take half.
"""

import dataclasses
import math

import numpy as np
import pytest

from minacc.axiscore import (
    FeatureMatrix,
    LabeledDataset,
    ThresholdClassifier,
    as_linear_classifier,
    linear_predict,
    r_min_deterministic,
)
from minacc.featmap import (
    EncodingCircuitSpec,
    encode_state,
    pauli_expectation,
    pauli_feature_matrix,
    pauli_string,
)
from minacc.harness import (
    ExperimentConfig,
    report_to_csv_text,
    reports_equivalent,
    run_experiment,
)
from minacc.sampling import (
    CoverageQuery,
    adaptive_estimate,
    conservative_estimate,
    coverage_probability_bound,
    coverage_probability_exact,
    deterministic_estimate,
    pilot_estimate,
    sample_size,
)

FULL_SCALE_D = 4 ** 8


# ---------------------------------------------------------------------------
# 1. sample-size planning
# ---------------------------------------------------------------------------

def test_sample_sizes_for_standard_priors():
    assert sample_size(0.05, 0.05) == 60
    assert sample_size(0.15, 0.05) == 20
    assert sample_size(0.25, 0.05) == 12


# ---------------------------------------------------------------------------
# 2. every estimate is a lower bound; the witness hyperplane is exact
# ---------------------------------------------------------------------------

def random_labeled_instance(rng):
    n = int(rng.integers(20, 201))
    d = int(rng.integers(4, 257))
    if rng.uniform() < 0.4:
        values = rng.integers(0, 5, size=(n, d)).astype(np.float64)  # heavy ties
    else:
        values = rng.uniform(-3, 3, size=(n, d))
    labels = np.where(rng.uniform(size=n) < 0.5, 1, -1)
    labels[0], labels[1] = 1, -1  # both classes present
    return FeatureMatrix(values), labels


def test_estimates_never_exceed_exhaustive_value_and_witness_is_exact():
    rng = np.random.default_rng(2024)
    priors = (0.05, 0.15, 0.25, 0.5, 1.0)
    for trial in range(100):
        features, labels = random_labeled_instance(rng)
        d = features.axis_count
        r_min, best, _ = r_min_deterministic(features, labels)

        # the winning axis rule, rewritten as a hyperplane in the same
        # feature space, reproduces the exhaustive value exactly
        clf = ThresholdClassifier(
            axis_index=best.axis_index,
            threshold=best.best_threshold,
            orientation=best.orientation,
        )
        w, b = as_linear_classifier(clf, axis_count=d)
        witness_acc = float(np.mean(linear_predict(w, b, features) == labels))
        assert witness_acc == r_min

        assert deterministic_estimate(features, labels).r_hat == r_min
        estimates = [
            conservative_estimate(
                features, labels, p_conservative=priors[trial % len(priors)],
                delta=0.05, rng_seed=trial,
            ),
            pilot_estimate(
                features, labels, n_pilot=min(d, 10 + trial % 40),
                delta=0.05, cap_fraction=0.5, rng_seed=trial + 1,
            ),
            adaptive_estimate(
                features, labels, batch_size=16, patience=2,
                stability_eps=1e-3, budget_fraction=1.0, rng_seed=trial + 2,
            ),
        ]
        for result in estimates:
            assert result.r_hat <= r_min  # exact: both are counts over n


# ---------------------------------------------------------------------------
# 3. the exhaustive scan agrees with a brute-force oracle
# ---------------------------------------------------------------------------

def oracle_best_count(values, labels):
    """Try every realizable cut position on one axis, both orientations."""
    order = np.argsort(values, kind="stable")
    v, y = values[order], labels[order]
    n = y.size
    best = 0
    for r in range(n + 1):
        if 0 < r < n and v[r - 1] == v[r]:
            continue  # equal values cannot be separated by any threshold
        correct = int(np.sum(y[:r] == -1) + np.sum(y[r:] == 1))
        best = max(best, correct, n - correct)
    return best


def test_exhaustive_scan_matches_bruteforce_oracle():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 11))
        values = np.round(rng.uniform(-2, 2, size=(n, d)), 1)  # force ties
        labels = np.where(rng.uniform(size=n) < 0.5, 1, -1)
        labels[0], labels[1] = 1, -1
        features = FeatureMatrix(values)
        r_min, best, per_axis = r_min_deterministic(features, labels)

        oracle_counts = [oracle_best_count(values[:, i], labels) for i in range(d)]
        assert best.correct_count == max(oracle_counts)
        assert r_min == max(oracle_counts) / n
        assert np.array_equal(per_axis, np.asarray(oracle_counts) / n)


# ---------------------------------------------------------------------------
# 4. coverage probabilities are calibrated and dominate the closed-form bound
# ---------------------------------------------------------------------------

def test_coverage_probability_calibration():
    # plant a matrix whose survival function hits p = 0.25 exactly:
    # 50 of 200 axes reproduce the labels (accuracy 1.0), the rest are
    # constant (accuracy 0.5), so axes with accuracy >= 0.75 are exactly 25%
    n, d, k = 40, 200, 50
    labels = np.tile([1, -1], n // 2)
    values = np.zeros((n, d))
    values[:, :k] = labels[:, None]
    features = FeatureMatrix(values)

    t = sample_size(0.25, 0.05)
    assert t == 12
    hits = 0
    trials = 2000
    for seed in range(trials):
        result = conservative_estimate(
            features, labels, p_conservative=0.25, delta=0.05, rng_seed=seed
        )
        assert result.axes_evaluated == t
        hits += result.r_hat >= 0.75
    expected = coverage_probability_exact(CoverageQuery(d=d, p=0.25, t=t))
    assert abs(hits / trials - expected) <= 0.03


@pytest.mark.filterwarnings("ignore:p \\* d < 1")
def test_exact_coverage_dominates_bernoulli_bound():
    for d in (1, 2, 10, 100, 4096, 65536):
        for p in (0.05, 0.15, 0.25, 0.5, 1.0):
            for t in (1, 2, 3, 12, 20, 60):
                if t > d:
                    continue
                query = CoverageQuery(d=d, p=p, t=t)
                exact = coverage_probability_exact(query)
                bound = coverage_probability_bound(query)
                assert exact >= bound - 1e-12


# ---------------------------------------------------------------------------
# 5. the Pauli feature map is physically consistent
# ---------------------------------------------------------------------------

def test_pauli_simulator_identities():
    rng = np.random.default_rng(5)

    # all-identity string measures exactly 1 on any encoded state
    for n in (1, 2, 3):
        spec = EncodingCircuitSpec(qubit_count=n)
        for _ in range(3):
            state = encode_state(rng.uniform(-2, 2, size=n), spec)
            assert pauli_expectation(state, pauli_string(0, n)) == 1.0

    # Bell-state two-point correlators
    bell = np.array([1, 0, 0, 1], dtype=np.complex128) / math.sqrt(2)
    assert pauli_expectation(bell, pauli_string(0b0101, 2)) == pytest.approx(1.0, abs=1e-12)
    assert pauli_expectation(bell, pauli_string(0b1010, 2)) == pytest.approx(-1.0, abs=1e-12)
    assert pauli_expectation(bell, pauli_string(0b1111, 2)) == pytest.approx(1.0, abs=1e-12)

    # purity: squared expectations over all strings sum to 2^n per sample
    pauli_mats = {
        "I": np.eye(2, dtype=np.complex128),
        "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    }
    for n in (2, 3):
        inputs = rng.uniform(-2, 2, size=(4, n))
        data = LabeledDataset(inputs=inputs, labels=[1, -1, 1, -1])
        spec = EncodingCircuitSpec(qubit_count=n)
        feats = pauli_feature_matrix(data, spec)
        purity = np.sum(feats.values ** 2, axis=1)
        assert purity == pytest.approx(np.full(4, 2.0 ** n), abs=1e-8)

        # dense Kronecker-product oracle, checked entry by entry
        for row, x in zip(feats.values, inputs):
            psi = encode_state(x, spec)
            for i, value in enumerate(row):
                mat = np.ones((1, 1), dtype=np.complex128)
                for ch in pauli_string(i, n).letters:
                    mat = np.kron(mat, pauli_mats[ch])
                oracle = np.vdot(psi, mat @ psi).real
                assert value == pytest.approx(oracle, abs=1e-10)


# ---------------------------------------------------------------------------
# 6-8. the full-scale benchmark pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_scale(tmp_path_factory):
    config = ExperimentConfig(
        qubit_count=8,
        methods=("deterministic", "conservative", "pilot", "adaptive"),
        p_values=(0.25,),
        repetitions=3,
        master_seed=0,
        output_dir=str(tmp_path_factory.mktemp("fullscale") / "run_a"),
    )
    return config, run_experiment(config)


def test_full_scale_pipeline_properties(full_scale):
    config, report = full_scale
    assert 4 ** config.qubit_count == FULL_SCALE_D
    assert report.errors == []
    kinds = list(config.datasets)
    assert sorted(report.r_min) == sorted(kinds)

    det_rows = [r for r in report.rows if r.method == "deterministic"]
    assert len(det_rows) == 3
    for row in det_rows:
        assert row.axes_evaluated == FULL_SCALE_D
        assert row.wall_ms < 300_000.0  # the exhaustive scan stays interactive
        assert row.r_hat == report.r_min[row.dataset]

    cons_rows = [r for r in report.rows if r.method == "conservative"]
    assert len(cons_rows) == 3 * config.repetitions
    for row in cons_rows:
        assert row.p == 0.25
        assert row.axes_evaluated == 12
        assert row.r_hat <= report.r_min[row.dataset]

    # concentric circles: the single-axis value sits well below an RBF fit
    assert report.embedded_svm["circles"]["rbf"] - report.r_min["circles"] >= 0.1
    # cleanly separable data: the single-axis value itself is already high
    assert report.r_min["linear_separable"] >= 0.9
    # the exhaustive value never exceeds a trained linear machine by more
    # than a hair, on any dataset
    for kind in kinds:
        assert report.embedded_svm[kind]["linear"] >= report.r_min[kind] - 0.02


def test_estimator_budgets_at_full_scale(full_scale):
    config, report = full_scale
    pilot_cap = math.ceil(config.cap_fraction * FULL_SCALE_D)
    pilot_rows = [r for r in report.rows if r.method == "pilot"]
    assert len(pilot_rows) == 3 * config.repetitions
    for row in pilot_rows:
        assert row.axes_evaluated <= pilot_cap

    adaptive_rows = [r for r in report.rows if r.method == "adaptive"]
    assert len(adaptive_rows) == 3 * config.repetitions
    for row in adaptive_rows:
        assert row.axes_evaluated < FULL_SCALE_D
        assert row.stop_reason in ("converged", "stable", "budget_exhausted")
        assert row.r_hat <= report.r_min[row.dataset]


def test_full_scale_run_is_reproducible(full_scale, tmp_path):
    config, report = full_scale
    rerun_config = dataclasses.replace(config, output_dir=str(tmp_path / "run_b"))
    rerun = run_experiment(rerun_config)
    assert reports_equivalent(report_to_csv_text(report), report_to_csv_text(rerun))
    assert rerun.r_min == report.r_min
    assert rerun.embedded_svm == report.embedded_svm
    assert rerun.raw_svm == report.raw_svm
