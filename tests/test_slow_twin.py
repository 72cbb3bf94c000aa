"""A slow twin of a small Pauli experiment: every count of its report recomputed
by code that shares nothing with the embedding or the scan.

``run_experiment`` runs at n = 2 and 3 for all three datasets.  For each dataset
the test takes the same train split and builds its own Pauli features: each
statevector is the encoding circuit (two layers of RY(x_{j mod m}) on qubit j,
then CZ on every ring pair) applied gate by gate as 2^n x 2^n matrices, and each
feature is <psi|P|psi> / <psi|psi> with P the Kronecker product of the string's
I, X, Y and Z.  Then it counts, by enumerating every cut between distinct values
of every axis in both orientations, each axis's best correct count.  From those
counts alone it rebuilds R_min, the witness, the majority rate, the survival
function and the exact support of every sampled r_hat.  Rates are compared as
counts: a count that differs means a result depends on rounding, which is a
defect, not a tolerance to widen.
"""

import functools

import numpy as np
import pytest

from minacc.datagen import DATASET_KINDS
from minacc.harness import ExperimentConfig, _training_split, run_experiment

PAULIS = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
          "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]), "Z": np.diag([1.0, -1.0])}
LAYERS = 2  # the encoding circuit of the Pauli embedding: EncodingCircuitSpec's defaults
DECIMALS = 9  # values equal in exact arithmetic (the zero strings, say) stay equal after rounding


def statevector(x: np.ndarray, n: int) -> np.ndarray:
    """|0...0> through the circuit, qubit 0 the most significant bit."""
    rotations = []
    for j in range(n):
        half = x[j % x.size] / 2.0
        rotations.append(np.array([[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]]))
    layer = functools.reduce(np.kron, rotations)
    bits = (np.arange(2 ** n)[:, None] >> (n - 1 - np.arange(n))) & 1
    ring = [(j, (j + 1) % n) for j in range(n)] if n > 2 else [(0, 1)] if n == 2 else []
    cz = np.diag([(-1.0) ** sum(int(b[p] & b[q]) for p, q in ring) for b in bits])
    psi = np.eye(2 ** n)[0]
    for _ in range(LAYERS):
        psi = cz @ (layer @ psi)
    return psi


def kronecker_features(inputs: np.ndarray, n: int) -> np.ndarray:
    """N x 4^n expectations, column i the string whose base-4 digits (I, X, Y, Z =
    0..3, qubit 0 first) spell i."""
    strings = [functools.reduce(np.kron, [PAULIS["IXYZ"[(i >> 2 * (n - 1 - q)) & 3]] for q in range(n)])
               for i in range(4 ** n)]
    states = [statevector(x, n) for x in inputs]
    values = np.array([[(psi.conj() @ p @ psi).real / (psi @ psi) for p in strings] for psi in states])
    return np.round(values, DECIMALS) + 0.0  # + 0.0 turns -0.0 into 0.0


def count_of(rate: float, total: int) -> int:
    """The whole count a reported rate stands for, out of ``total``."""
    count = round(rate * total)
    assert abs(rate * total - count) < 1e-9, (rate, total)
    return count


def cut_counts(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Correct counts of "value >= tau -> +1" at every cut: tau at each distinct
    value (the points below it get -1) and above the largest (every point gets -1)."""
    taus = np.append(np.unique(values), np.inf)
    return ((values[:, None] >= taus[None, :]) == (labels == 1)[:, None]).sum(axis=0)


def best_counts(matrix: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each axis's best count over every cut and both orientations: the other
    orientation gets right exactly the points the first gets wrong."""
    counts = [cut_counts(matrix[:, i], labels) for i in range(matrix.shape[1])]
    return np.array([max(c.max(), labels.size - c.min()) for c in counts])


def rule_count(values, labels, threshold: float, orientation: str) -> int:
    assert orientation in ("below_is_minus", "below_is_plus")
    above = values >= threshold
    plus = above if orientation == "below_is_minus" else ~above
    return int(np.sum(np.where(plus, 1, -1) == labels))


@pytest.fixture(scope="module", params=[2, 3])
def experiment(request, tmp_path_factory):
    config = ExperimentConfig(embedding="pauli", qubit_count=request.param, n_samples=120,
                              subsample_train=40, repetitions=2,
                              output_dir=str(tmp_path_factory.mktemp("twin")))
    return config, run_experiment(config)


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_every_count_of_the_report_is_recomputed(experiment, kind):
    config, report = experiment
    assert report.errors == []
    n = config.qubit_count
    train = _training_split(kind, config)
    matrix = kronecker_features(train.inputs, n)
    labels = train.labels
    total, d = labels.size, 4 ** n
    assert matrix.shape == (total, d)
    counts = best_counts(matrix, labels)
    best = int(counts.max())

    assert count_of(report.r_min[kind], total) == best

    witness = report.witness[kind]
    assert witness["sample_count"] == total
    assert witness["correct_count"] == counts[witness["axis"]] == best
    assert rule_count(matrix[:, witness["axis"]], labels, witness["threshold"], witness["orientation"]) == best
    assert witness["pauli"] == "".join("IXYZ"[(witness["axis"] >> 2 * (n - 1 - q)) & 3] for q in range(n))

    majority = max(int(np.sum(labels == 1)), int(np.sum(labels == -1)))
    assert count_of(report.majority_rate[kind], total) == majority

    survival = report.survival[kind]
    levels = sorted(set(counts.tolist()))
    assert [count_of(t, total) for t in survival["thresholds"]] == levels
    assert [count_of(v, d) for v in survival["values"]] == [int(np.sum(counts >= c)) for c in levels]

    rows = [row for row in report.rows if row.dataset == kind]
    assert rows
    ascending = np.sort(counts)
    for row in rows:
        count = count_of(row.r_hat, total)
        assert count in levels and count <= best, row
        if row.axes_evaluated == d:
            assert count == best, row
        if row.method == "conservative":
            # the best of t distinct axes is at least the t-th smallest count, and any axis's
            # count from there up is the best of some t axes: this is the estimate's exact support
            assert ascending[row.axes_evaluated - 1] <= count <= best, row
    assert any(row.method == "conservative" and row.axes_evaluated < d for row in rows)
