"""Tests for the proxy embedding and the exact Pauli feature map.

The Pauli simulator is checked against an independent oracle that builds
each Pauli word as an explicit Kronecker-product matrix and evaluates
psi^dagger M psi directly; the flip-mask implementation under test never
materializes those matrices.
"""

import math

import numpy as np
import pytest

from minacc.axiscore import LabeledDataset
from minacc.featmap import (
    EncodingCircuitSpec,
    LazyProxyFeatures,
    ProjectionSpec,
    encode_state,
    feature_matrix_from_csv,
    feature_matrix_to_csv,
    load_feature_matrix,
    pauli_expectation,
    pauli_feature_matrix,
    pauli_string,
    projection_column,
    proxy_embed,
    save_feature_matrix,
)

_PAULI_MATS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def dense_pauli(letters: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=np.complex128)
    for ch in letters:
        out = np.kron(out, _PAULI_MATS[ch])
    return out


def random_state(rng, n: int) -> np.ndarray:
    psi = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return psi / np.linalg.norm(psi)


def small_dataset(rng, n_samples=6, n_features=3) -> LabeledDataset:
    x = rng.uniform(-2, 2, size=(n_samples, n_features))
    y = np.where(rng.uniform(size=n_samples) < 0.5, -1, 1)
    return LabeledDataset(inputs=x, labels=y)


# ---------------------------------------------------------------------------
# proxy embedding
# ---------------------------------------------------------------------------

def test_proxy_zero_input_is_exactly_zero():
    data = LabeledDataset(inputs=np.zeros((3, 5)), labels=[1, -1, 1])
    emb = proxy_embed(data, ProjectionSpec(input_dim=5, feature_dim=16, seed=3))
    assert np.all(emb.values == 0.0)


def test_proxy_values_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    data = small_dataset(rng, n_samples=20, n_features=8)
    emb = proxy_embed(data, ProjectionSpec(input_dim=8, feature_dim=64, seed=1))
    assert np.all(np.abs(emb.values) < 1.0)


def test_proxy_is_odd_in_the_input():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(7, 4))
    spec = ProjectionSpec(input_dim=4, feature_dim=32, seed=9)
    plus = proxy_embed(LabeledDataset(inputs=x, labels=[1] * 7), spec)
    minus = proxy_embed(LabeledDataset(inputs=-x, labels=[1] * 7), spec)
    assert np.array_equal(minus.values, -plus.values)


def test_lazy_columns_match_eager_bitwise():
    rng = np.random.default_rng(2)
    data = small_dataset(rng, n_samples=11, n_features=6)
    spec = ProjectionSpec(input_dim=6, feature_dim=40, seed=17)
    eager = proxy_embed(data, spec)
    lazy = LazyProxyFeatures(data, spec)
    assert lazy.sample_count == 11 and lazy.axis_count == 40
    for i in (0, 1, 13, 39):
        assert np.array_equal(lazy.column(i), eager.values[:, i])
    assert np.array_equal(lazy.columns([5, 0, 22]), eager.values[:, [5, 0, 22]])
    assert np.array_equal(lazy.materialize().values, eager.values)


def test_projection_columns_stable_when_feature_dim_grows():
    small = ProjectionSpec(input_dim=5, feature_dim=8, seed=4)
    large = ProjectionSpec(input_dim=5, feature_dim=512, seed=4)
    for i in range(8):
        assert np.array_equal(projection_column(small, i), projection_column(large, i))


def test_projection_column_scale():
    # entries are N(0, 1/m): column norm concentrates near 1
    spec = ProjectionSpec(input_dim=20000, feature_dim=2, seed=5)
    col = projection_column(spec, 0)
    assert abs(np.std(col) * math.sqrt(20000) - 1.0) < 0.05
    assert abs(np.mean(col)) < 0.01


def test_projection_validation_errors():
    with pytest.raises(ValueError, match="dimensions must be >= 1"):
        ProjectionSpec(input_dim=0, feature_dim=4, seed=0)
    spec = ProjectionSpec(input_dim=3, feature_dim=4, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        projection_column(spec, 4)
    data = LabeledDataset(inputs=np.ones((2, 5)), labels=[1, -1])
    with pytest.raises(ValueError, match="input_dim"):
        LazyProxyFeatures(data, spec)


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

def test_pauli_string_decoding():
    assert pauli_string(0, 2).letters == "II"
    assert pauli_string(3, 1).letters == "Z"
    assert pauli_string(7, 2).letters == "XZ"       # 7 = 1*4 + 3
    assert pauli_string(30, 3).letters == "XZY"     # 30 = 1*16 + 3*4 + 2
    assert pauli_string(4 ** 3 - 1, 3).letters == "ZZZ"
    with pytest.raises(ValueError, match="out of range"):
        pauli_string(16, 2)
    with pytest.raises(ValueError, match="at least one qubit"):
        pauli_string(0, 0)


# ---------------------------------------------------------------------------
# encoding circuit
# ---------------------------------------------------------------------------

def test_zero_angles_leave_the_all_zero_state():
    spec = EncodingCircuitSpec(qubit_count=3, layers=2)
    state = encode_state(np.zeros(3), spec)
    expect = np.zeros(8, dtype=np.complex128)
    expect[0] = 1.0
    assert np.allclose(state, expect, atol=1e-14)


def test_single_qubit_rotation_by_hand():
    theta = 0.8137
    spec = EncodingCircuitSpec(qubit_count=1, layers=1, entangler="none")
    state = encode_state([theta], spec)
    assert state == pytest.approx(
        [math.cos(theta / 2), math.sin(theta / 2)], abs=1e-14
    )
    # a second layer doubles the rotation angle (no entangler on one qubit)
    state2 = encode_state([theta], EncodingCircuitSpec(qubit_count=1, layers=2))
    assert state2 == pytest.approx([math.cos(theta), math.sin(theta)], abs=1e-14)


def test_two_qubit_layer_by_hand():
    # RY(pi/2) on both qubits gives the uniform state; one CZ flips |11>
    spec = EncodingCircuitSpec(qubit_count=2, layers=1)
    state = encode_state([math.pi / 2, math.pi / 2], spec)
    assert state == pytest.approx([0.5, 0.5, 0.5, -0.5], abs=1e-14)


def test_rotation_scale_and_input_recycling():
    # a 1-component input feeds every qubit; scale multiplies the angle
    a = encode_state([0.3], EncodingCircuitSpec(qubit_count=2, layers=1, rotation_scale=2.0))
    b = encode_state([0.6, 0.6], EncodingCircuitSpec(qubit_count=2, layers=1))
    assert np.array_equal(a, b)


def test_encode_state_errors():
    with pytest.raises(ValueError, match="dense simulation limit"):
        encode_state(np.zeros(13), EncodingCircuitSpec(qubit_count=13))
    with pytest.raises(ValueError, match="empty dataset"):
        encode_state([], EncodingCircuitSpec(qubit_count=2))
    with pytest.raises(ValueError, match="entangler"):
        EncodingCircuitSpec(qubit_count=2, entangler="cnot_chain")


# ---------------------------------------------------------------------------
# expectations against the dense-matrix oracle
# ---------------------------------------------------------------------------

def test_bell_state_correlations():
    bell = np.array([1, 0, 0, 1], dtype=np.complex128) / math.sqrt(2)
    values = {
        s: pauli_expectation(bell, pauli_string(i, 2))
        for i, s in ((5, "XX"), (10, "YY"), (15, "ZZ"), (12, "ZI"), (3, "IZ"))
    }
    assert values["XX"] == pytest.approx(1.0, abs=1e-14)
    assert values["YY"] == pytest.approx(-1.0, abs=1e-14)
    assert values["ZZ"] == pytest.approx(1.0, abs=1e-14)
    assert values["ZI"] == pytest.approx(0.0, abs=1e-14)
    assert values["IZ"] == pytest.approx(0.0, abs=1e-14)


def test_expectations_match_dense_matrices():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(5):
            psi = random_state(rng, n)
            for i in range(4 ** n):
                word = pauli_string(i, n)
                oracle = np.vdot(psi, dense_pauli(word.letters) @ psi).real
                assert pauli_expectation(psi, word) == pytest.approx(oracle, abs=1e-10)


def test_feature_matrix_matches_dense_oracle():
    rng = np.random.default_rng(8)
    data = small_dataset(rng, n_samples=4, n_features=2)
    spec = EncodingCircuitSpec(qubit_count=2, layers=2)
    feats = pauli_feature_matrix(data, spec)
    assert feats.sample_count == 4 and feats.axis_count == 16
    for k in range(4):
        psi = encode_state(data.inputs[k], spec)
        for i in range(16):
            oracle = np.vdot(psi, dense_pauli(pauli_string(i, 2).letters) @ psi).real
            assert feats.values[k, i] == pytest.approx(oracle, abs=1e-10)


def test_identity_column_and_purity():
    rng = np.random.default_rng(9)
    for n in (2, 3):
        data = small_dataset(rng, n_samples=5, n_features=n)
        feats = pauli_feature_matrix(data, EncodingCircuitSpec(qubit_count=n))
        assert np.all(feats.values[:, 0] == 1.0)
        assert np.all(np.abs(feats.values) <= 1.0)
        # squared expectations of a pure state sum to 2^n
        purity = np.sum(feats.values ** 2, axis=1)
        assert purity == pytest.approx(np.full(5, 2.0 ** n), abs=1e-8)


def test_expectation_input_validation():
    with pytest.raises(ValueError, match="does not match"):
        pauli_expectation(np.ones(4) / 2.0, pauli_string(1, 1))
    rng = np.random.default_rng(10)
    data = small_dataset(rng, n_samples=2, n_features=2)
    with pytest.raises(ValueError, match="dense simulation limit"):
        pauli_feature_matrix(data, EncodingCircuitSpec(qubit_count=8))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_binary_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    data = small_dataset(rng, n_samples=9, n_features=4)
    feats = proxy_embed(data, ProjectionSpec(input_dim=4, feature_dim=25, seed=2))
    path = tmp_path / "feats.bin"
    save_feature_matrix(feats, path, flags=7)
    loaded = load_feature_matrix(path)
    assert np.array_equal(loaded.values, feats.values)


def test_binary_truncation_detected(tmp_path):
    rng = np.random.default_rng(12)
    data = small_dataset(rng)
    feats = proxy_embed(data, ProjectionSpec(input_dim=3, feature_dim=8, seed=0))
    path = tmp_path / "feats.bin"
    save_feature_matrix(feats, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_feature_matrix(path)
    path.write_bytes(blob[:10])
    with pytest.raises(ValueError, match="truncated"):
        load_feature_matrix(path)


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(13)
    data = small_dataset(rng, n_samples=6, n_features=3)
    feats = pauli_feature_matrix(data, EncodingCircuitSpec(qubit_count=2))
    path = tmp_path / "feats.csv"
    feature_matrix_to_csv(feats, path)
    loaded = feature_matrix_from_csv(path)
    # repr round-trips float64 exactly
    assert np.array_equal(loaded.values, feats.values)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[0] == "axis_0"
    # the feature-file loader recognises the CSV layout by that header
    assert np.array_equal(load_feature_matrix(path).values, feats.values)


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("axis_0,axis_1\n0.1,0.2\n0.3\n", 3),
    ("axis_0,axis_1\n0.1,0.2\n\n0.3,0.4,0.5\n", 4),
    ("axis_0,axis_1\n0.1,zero\n", 2),
])
def test_malformed_feature_csv_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.csv, line {line}:"):
        feature_matrix_from_csv(path)
