"""Tests for the proxy embedding and the exact Pauli feature map.

The Pauli simulator is checked against an independent oracle that builds
each Pauli word, and each gate of the encoding circuit, as an explicit
Kronecker-product matrix and evaluates psi^dagger M psi directly; the batched
flip-mask implementation under test never materializes those matrices.
"""

import hashlib
import math
import multiprocessing
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minacc import axiscore, featmap
from minacc.axiscore import FeatureMatrix, LabeledDataset, ScannedFeatures, ThresholdClassifier, best_counts
from minacc.datagen import CIRCLES, DATASET_KINDS
from minacc.featmap import (
    _philox4x32,
    EncodingCircuitSpec,
    LazyProxyFeatures,
    PauliFeatures,
    PauliString,
    ProjectionSpec,
    encode_state,
    feature_matrix_from_csv,
    feature_matrix_to_csv,
    load_feature_matrix,
    pauli_expectation,
    pauli_feature_matrix,
    pauli_string,
    projection_block,
    save_feature_matrix,
)
from minacc.harness import ExperimentConfig, _training_split
from minacc.sampling import conservative_estimate
from minacc.svmref import Gram

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


def dense_circuit_state(x, spec: EncodingCircuitSpec) -> np.ndarray:
    """The encoding circuit as explicit matrices: a Kronecker product of RY
    gates per layer, then the diagonal of the CZ ring."""
    n = spec.qubit_count
    x = np.asarray(x, dtype=np.float64)
    gates = []
    for q in range(n):
        c, s = np.cos(spec.rotation_scale * x[q % x.size] / 2), np.sin(spec.rotation_scale * x[q % x.size] / 2)
        gates.append(np.array([[c, -s], [s, c]], dtype=np.complex128))
    ry = np.ones((1, 1), dtype=np.complex128)
    for gate in gates:
        ry = np.kron(ry, gate)
    bits = [[(k >> (n - 1 - q)) & 1 for q in range(n)] for k in range(2 ** n)]
    pairs = [(j, (j + 1) % n) for j in range(n if n > 2 else n - 1)] if spec.entangler == "ring_cz" else []
    cz = np.diag([(-1.0) ** sum(b[i] & b[j] for i, j in pairs) for b in bits])
    psi = np.zeros(2 ** n, dtype=np.complex128)
    psi[0] = 1.0
    for _ in range(spec.layers):
        psi = cz @ (ry @ psi)
    return psi


def dense_expectations(psi) -> np.ndarray:
    """<psi|P|psi> of every Pauli word in index order, by dense_pauli."""
    n = int(np.log2(psi.size))
    return np.array([np.vdot(psi, dense_pauli(pauli_string(i, n).letters) @ psi).real
                     for i in range(4 ** n)])


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
    emb = LazyProxyFeatures(data, ProjectionSpec(input_dim=5, feature_dim=16, seed=3)).materialize()
    assert np.all(emb.values == 0.0)


def test_proxy_values_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    data = small_dataset(rng, n_samples=20, n_features=8)
    emb = LazyProxyFeatures(data, ProjectionSpec(input_dim=8, feature_dim=64, seed=1)).materialize()
    assert np.all(np.abs(emb.values) < 1.0)


def test_proxy_is_odd_in_the_input():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(7, 4))
    spec = ProjectionSpec(input_dim=4, feature_dim=32, seed=9)
    plus = LazyProxyFeatures(LabeledDataset(inputs=x, labels=[1] * 7), spec).materialize()
    minus = LazyProxyFeatures(LabeledDataset(inputs=-x, labels=[1] * 7), spec).materialize()
    assert np.array_equal(minus.values, -plus.values)


def test_lazy_columns_match_eager_bitwise():
    rng = np.random.default_rng(2)
    data = small_dataset(rng, n_samples=11, n_features=6)
    spec = ProjectionSpec(input_dim=6, feature_dim=40, seed=17)
    eager = LazyProxyFeatures(data, spec).materialize()
    lazy = LazyProxyFeatures(data, spec)
    assert lazy.sample_count == 11 and lazy.axis_count == 40
    for i in (0, 1, 13, 39):
        assert np.array_equal(lazy.column(i), eager.values[:, i])
    assert np.array_equal(lazy.columns([5, 0, 22]), eager.values[:, [5, 0, 22]])
    assert np.array_equal(lazy.materialize().values, eager.values)


def test_proxy_blocks_are_axis_major():
    # the scan sorts one axis per contiguous row; an axis-major block hands
    # it those rows as a view of the embedding, with no transpose copy
    rng = np.random.default_rng(3)
    lazy = LazyProxyFeatures(small_dataset(rng, n_samples=9, n_features=4),
                             ProjectionSpec(input_dim=4, feature_dim=1100, seed=5))
    for block in (lazy.materialize().values, lazy.columns([7, 1099, 0, 7]),
                  lazy.columns(range(300, 1100))):
        assert block.flags.f_contiguous
        assert np.shares_memory(block, np.ascontiguousarray(block.T))


def test_lazy_proxy_columns_check_each_axis_once(monkeypatch):
    # the task's projection_block checks its slice; nothing checks the batch before it
    lazy = LazyProxyFeatures(small_dataset(np.random.default_rng(23)),
                             ProjectionSpec(input_dim=3, feature_dim=4 ** 8, seed=6))
    axes = np.random.default_rng(24).integers(0, 4 ** 8, size=60)
    expected = lazy.columns(axes)
    checked, check = [], featmap.checked_axes

    def spy(indices, axis_count):
        checked.append(len(indices))
        return check(indices, axis_count)

    monkeypatch.setattr(featmap, "checked_axes", spy)
    assert lazy.columns(axes).tobytes() == expected.tobytes()
    assert checked == [60]


def test_projection_columns_stable_when_feature_dim_grows():
    small = ProjectionSpec(input_dim=5, feature_dim=8, seed=4)
    large = ProjectionSpec(input_dim=5, feature_dim=512, seed=4)
    for i in range(8):
        assert np.array_equal(projection_block(small, [i])[:, 0], projection_block(large, [i])[:, 0])


def test_projection_column_scale():
    # entries are N(0, 1/m): column norm concentrates near 1
    spec = ProjectionSpec(input_dim=20000, feature_dim=2, seed=5)
    col = projection_block(spec, [0])[:, 0]
    assert abs(np.std(col) * math.sqrt(20000) - 1.0) < 0.05
    assert abs(np.mean(col)) < 0.01


@pytest.mark.parametrize("counter, key, expected", [
    # Random123's published Philox4x32-10 known-answer vectors
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
])
def test_philox_known_answers(counter, key, expected):
    even = np.array([[counter[0]], [counter[2]]], dtype=np.uint64)
    odd = np.array([[counter[1]], [counter[3]]], dtype=np.uint64)
    (x0, x2), (x1, x3) = _philox4x32(even, odd, key)
    assert [int(w[0]) for w in (x0, x1, x2, x3)] == list(expected)
    assert _philox_reference(counter, key) == expected


def _philox_reference(counter, key):
    """Philox4x32-10 word by word on Python integers."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p2 = 0xD2511F53 * x0, 0xCD9E8D57 * x2
        x0, x1, x2, x3 = (p2 >> 32) ^ x1 ^ k0, p2 & 0xFFFFFFFF, (p0 >> 32) ^ x3 ^ k1, p0 & 0xFFFFFFFF
        k0, k1 = (k0 + 0x9E3779B9) & 0xFFFFFFFF, (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return x0, x1, x2, x3


@pytest.mark.parametrize("key", [(0xFFFFFFFF, 0xFFFFFFFF), (0xFFFFFFFF, 0), (0x12345678, 0x9ABCDEF0)])
def test_philox_batch_matches_the_word_by_word_reference(key):
    rng = np.random.default_rng(15)
    words = rng.integers(0, 2 ** 32, size=(4, 2, 3, 5), dtype=np.uint64)
    words[:, :, 0, :3] = 2 ** 32 - np.arange(1, 4)  # counters near 2^32
    words[:, 0, 1, 0] = 0
    even, odd = words[0], words[1]
    for dtype in (np.uint32, np.uint64):
        out_even, out_odd = _philox4x32(even.astype(dtype), odd.astype(dtype), key)
        assert out_even.dtype == out_odd.dtype == np.uint32
        assert out_even.shape == out_odd.shape == (2, 3, 5)
        for index in np.ndindex(3, 5):
            counter = tuple(int(w) for w in (even[0][index], odd[0][index], even[1][index], odd[1][index]))
            x0, x1, x2, x3 = _philox_reference(counter, key)
            assert (int(out_even[0][index]), int(out_odd[0][index]),
                    int(out_even[1][index]), int(out_odd[1][index])) == (x0, x1, x2, x3)


def test_projection_block_columns_are_projection_columns():
    spec = ProjectionSpec(input_dim=5, feature_dim=2 ** 40, seed=2 ** 64 - 1)
    axes = [3, 2 ** 33 + 3, 0, 3]  # the high counter word matters; repeats agree
    block = projection_block(spec, axes)
    assert block.shape == (5, 4)
    for j, axis in enumerate(axes):
        assert block[:, j].tobytes() == projection_block(spec, [axis])[:, 0].tobytes()
    assert not np.array_equal(block[:, 0], block[:, 1])


def test_projection_seed_must_fit_the_philox_key():
    for seed in (-1, 2 ** 64, -(2 ** 64)):
        with pytest.raises(ValueError, match="seed"):
            ProjectionSpec(input_dim=3, feature_dim=4, seed=seed)
    for seed in (0, 2 ** 64 - 1):
        assert projection_block(ProjectionSpec(input_dim=3, feature_dim=4, seed=seed), [3])[:, 0].shape == (3,)


def four_axis_source(source: str):
    """A column source of 4 axes over 3 samples: a proxy matrix, a lazy proxy
    source or a one-qubit Pauli source."""
    data = LabeledDataset(inputs=np.arange(6.0).reshape(3, 2), labels=[1, -1, 1])
    if source == "pauli":
        return PauliFeatures.of(data, EncodingCircuitSpec(qubit_count=1))
    lazy = LazyProxyFeatures(data, ProjectionSpec(input_dim=2, feature_dim=4, seed=0))
    return lazy.materialize() if source == "matrix" else lazy


@pytest.mark.parametrize("source", ["matrix", "lazy", "pauli"])
@pytest.mark.parametrize(
    "indices", [[-1], [4], [0, -3], [2, 4, 1], [-(2 ** 63)], range(0, 6), range(-1, 4)]
)
def test_column_sources_reject_axes_out_of_range(source, indices):
    features = four_axis_source(source)
    bad = next(i for i in indices if not 0 <= i < 4)
    with pytest.raises(ValueError, match=rf"axis {bad} out of range \[0, 4\)"):
        features.columns(indices)
    with pytest.raises(ValueError, match=rf"axis {bad} out of range \[0, 4\)"):
        features.column(bad)


@pytest.mark.parametrize("source", ["matrix", "lazy", "pauli"])
def test_column_sources_reject_non_integer_axes(source):
    # a float index was once truncated to the axis below it, and a boolean
    # mask read as the axes 1 and 0
    features = four_axis_source(source)
    for bad, dtype in ((1.5, "float64"), (True, "bool"), (np.float32(2.0), "float32")):
        with pytest.raises(ValueError, match=f"^axis indices must be integers, not {dtype}$"):
            features.column(bad)
    for bad, dtype in (([2.9], "float64"), ([True, False, True, False], "bool"), (np.array([1.0, 3.0]), "float64"),
                       ([1, 2.5], "float64")):
        with pytest.raises(ValueError, match=f"^axis indices must be integers, not {dtype}$"):
            features.columns(bad)
    # an empty selection, ranges, numpy integers and lists of Python ints stay valid
    whole = features.columns([0, 1, 2, 3])
    assert features.columns([]).shape == features.columns(np.array([])).shape == (3, 0)
    assert features.columns(range(1, 4)).tobytes() == whole[:, 1:].tobytes()
    assert features.columns(np.array([3, 0], dtype=np.uint8)).tobytes() == whole[:, [3, 0]].tobytes()
    assert features.column(np.int64(2)).tobytes() == features.column(2).tobytes() == whole[:, 2].tobytes()


def test_projection_validation_errors():
    with pytest.raises(ValueError, match="^input_dim must be an integer >= 1: 0$"):
        ProjectionSpec(input_dim=0, feature_dim=4, seed=0)
    spec = ProjectionSpec(input_dim=3, feature_dim=4, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        projection_block(spec, [4])
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


def test_feature_matrix_matches_dense_oracle_at_four_qubits():
    rng = np.random.default_rng(14)
    data = small_dataset(rng, n_samples=3, n_features=4)
    spec = EncodingCircuitSpec(qubit_count=4)
    feats = pauli_feature_matrix(data, spec)
    oracles = [dense_pauli(pauli_string(i, 4).letters) for i in range(4 ** 4)]
    for k in range(3):
        psi = encode_state(data.inputs[k], spec)
        expected = [np.vdot(psi, mat @ psi).real for mat in oracles]
        assert feats.values[k] == pytest.approx(expected, abs=1e-10)
        # one string at a time runs the same arithmetic as the whole table
        singles = [pauli_expectation(psi, pauli_string(i, 4)) for i in range(4 ** 4)]
        assert singles == feats.values[k].tolist()


def test_vanishing_expectations_are_exact_zeros():
    # IYIY, YIYI and YYYY vanish on every state of this circuit; rounding
    # noise in their place would let the scan split the labels on it
    rng = np.random.default_rng(3)
    labels = np.tile([1, -1], 12)
    data = LabeledDataset(inputs=rng.uniform(-2, 2, size=(24, 4)), labels=labels)
    feats = pauli_feature_matrix(data, EncodingCircuitSpec(qubit_count=4))
    indices = [int("".join(str("IXYZ".index(c)) for c in word), 4)
               for word in ("IYIY", "YIYI", "YYYY")]
    block = feats.values[:, indices]
    assert np.all(block == block[0])
    assert best_counts(block, labels).tolist() == [12, 12, 12]


def test_feature_matrix_at_eight_qubits():
    rng = np.random.default_rng(15)
    data = small_dataset(rng, n_samples=2, n_features=4)
    feats = pauli_feature_matrix(data, EncodingCircuitSpec(qubit_count=8))
    assert feats.axis_count == 4 ** 8
    assert np.all(feats.values[:, 0] == 1.0)
    purity = np.sum(feats.values ** 2, axis=1)
    assert purity == pytest.approx(np.full(2, 2.0 ** 8), abs=1e-8)


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
    with pytest.raises(ValueError, match="do not spell"):
        PauliString(index=5, letters="ZZ")
    with pytest.raises(ValueError, match="out of range"):
        PauliString(index=17, letters="XX")
    with pytest.raises(ValueError, match="do not spell"):
        PauliString(index=0, letters="QQ")
    rng = np.random.default_rng(10)
    data = small_dataset(rng, n_samples=2, n_features=2)
    with pytest.raises(ValueError, match="dense simulation limit"):
        pauli_feature_matrix(data, EncodingCircuitSpec(qubit_count=9))


def test_encoded_states_are_real_unit_vectors():
    rng = np.random.default_rng(16)
    for n, layers, entangler in ((1, 1, "none"), (3, 2, "ring_cz"), (6, 3, "ring_cz")):
        spec = EncodingCircuitSpec(qubit_count=n, layers=layers, entangler=entangler)
        for _ in range(3):
            state = encode_state(rng.uniform(-3, 3, size=4), spec)
            assert state.dtype == np.float64 and state.shape == (2 ** n,)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("per_run", [1, 2, 3])
def test_feature_matrix_does_not_depend_on_its_chunks(monkeypatch, per_run):
    # each entry is the same bytes whichever X-masks share its transform,
    # and whichever samples share its matrix
    rng = np.random.default_rng(17)
    data = small_dataset(rng, n_samples=10, n_features=3)
    spec = EncodingCircuitSpec(qubit_count=3)
    whole = pauli_feature_matrix(data, spec).values
    monkeypatch.setattr(featmap, "_SCAN_CHUNK", per_run * 2 ** 3)
    for bounds in ([0, 10], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [0, 1, 4, 9, 10], [0, 5, 7, 10]):
        parts = [pauli_feature_matrix(LabeledDataset(inputs=data.inputs[a:b], labels=data.labels[a:b]),
                                      spec).values for a, b in zip(bounds, bounds[1:])]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("layers, entangler", [(1, "ring_cz"), (3, "ring_cz"), (2, "none")])
def test_single_expectations_are_the_matrix_entries_at_five_qubits(layers, entangler):
    rng = np.random.default_rng(18)
    data = small_dataset(rng, n_samples=2, n_features=5)
    spec = EncodingCircuitSpec(qubit_count=5, layers=layers, entangler=entangler)
    feats = pauli_feature_matrix(data, spec)
    for k in range(2):
        psi = encode_state(data.inputs[k], spec)
        singles = [pauli_expectation(psi, pauli_string(i, 5)) for i in range(4 ** 5)]
        assert singles == feats.values[k].tolist()


def test_odd_y_columns_are_exact_zeros():
    # RY and CZ keep the amplitudes real, and a string with an odd number of
    # Y has expectation 0 on every real state
    rng = np.random.default_rng(19)
    for n in (1, 2, 5, 6):
        feats = pauli_feature_matrix(small_dataset(rng, n_samples=7, n_features=3),
                                     EncodingCircuitSpec(qubit_count=n, layers=3))
        odd_y = [pauli_string(i, n).letters.count("Y") % 2 == 1 for i in range(4 ** n)]
        block = feats.values[:, odd_y]
        assert np.all(block == 0.0) and not np.any(np.signbit(block))


@pytest.mark.parametrize("n", [2, 6, 8])
def test_pauli_gram_is_the_linear_kernel_of_the_features(n):
    # sum_P <P>_x <P>_x' = 2^n |<psi_x|psi_x'>|^2, to rounding, on the circuit's real states
    # and on complex ones
    rng = np.random.default_rng(20)
    data = small_dataset(rng, n_samples=24, n_features=4)
    for source in (PauliFeatures.of(data, EncodingCircuitSpec(qubit_count=n)),
                   PauliFeatures(np.stack([random_state(rng, n) for _ in range(24)]))):
        features = source.materialize().values
        gram = source.gram().values
        assert gram.shape == (24, 24)
        assert np.max(np.abs(gram - features @ features.T)) <= 1e-11 * 2 ** n
        assert np.array_equal(gram, gram.T)
        assert np.all(np.diag(gram) == 2.0 ** n)


@st.composite
def encoded_datasets(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    samples = draw(st.integers(1, 5))
    inputs = draw(st.lists(st.floats(-4, 4, allow_nan=False), min_size=samples * m, max_size=samples * m))
    spec = EncodingCircuitSpec(qubit_count=n, layers=draw(st.integers(1, 3)),
                               entangler=draw(st.sampled_from(["ring_cz", "none"])),
                               rotation_scale=draw(st.sampled_from([1.0, 0.5, 2.0])))
    return LabeledDataset(inputs=np.array(inputs).reshape(samples, m), labels=[1] * samples), spec


@settings(max_examples=60, deadline=None)
@given(encoded_datasets())
def test_feature_matrix_matches_the_circuit_oracle(case):
    data, spec = case
    n = spec.qubit_count
    feats = pauli_feature_matrix(data, spec).values
    assert np.all(feats[:, 0] == 1.0)
    assert np.sum(feats ** 2, axis=1) == pytest.approx(np.full(data.sample_count, 2.0 ** n), abs=1e-8)
    for row, x in zip(feats, data.inputs):
        psi = dense_circuit_state(x, spec)
        assert encode_state(x, spec) == pytest.approx(psi.real, abs=1e-12)
        assert row == pytest.approx(dense_expectations(psi), abs=1e-10)


# sha256 prefixes of pauli_feature_matrix(_PIN_DATA, circuit).values.tobytes() at
# n = 1..8, and of the 4^n pauli_expectation values of one seeded complex state at
# n = 1..4, as the transform loop of the matrix and the two-mask transform of single
# expectations computed them before both became PauliFeatures columns
_PIN_DATA = LabeledDataset(
    inputs=[[0.3, -1.2, 2.0], [-0.7, 0.5, 1.1], [1.9, -2.2, -0.4], [0.0, 0.8, -1.5], [0.3, -1.2, 2.0]],
    labels=[1, -1, 1, -1, -1],
)
_PINNED_MATRICES = {
    (): ["c39aa3ccaa83d9b7", "e14f73a070be5ef9", "aab8482fe8383853", "be9cecfe304b4ffd",
         "aaf4a6b2736512ea", "5edf4ead55307a5f", "8390577e286796ae", "d2ebc47ac4867ce8"],
    (("layers", 1), ("entangler", "none"), ("rotation_scale", 0.7)):
        ["b21c360fa526a565", "98854586ba50e7ce", "171b588798b4e910", "f772fb2bf912afde",
         "4b7bbc09a65ee775", "df86942717297c60", "d7f693815c4ddb6c", "32be127be7f46d07"],
    (("layers", 3), ("entangler", "ring_cz"), ("rotation_scale", 2.3)):
        ["e3ff05170230de71", "debff4e2e7182715", "691cb9f3fa223aa5", "3f46b2c74b292824",
         "4739890da4c84a6b", "88a007729a7731c4", "5b63ac231d5cbe9a", "530bbc10c1d1a480"],
}
_PINNED_COMPLEX = ["33959e4dd75939de", "1d49946c531a5f1d", "4bf2101a5173fb03", "3365fa1999fdf333"]


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("circuit", list(_PINNED_MATRICES))
def test_pauli_feature_matrix_bytes_are_pinned(circuit):
    for n, expected in enumerate(_PINNED_MATRICES[circuit], start=1):
        assert _sha(pauli_feature_matrix(_PIN_DATA, EncodingCircuitSpec(n, **dict(circuit))).values) == expected, n


def test_complex_expectation_bytes_are_pinned():
    for n, expected in enumerate(_PINNED_COMPLEX, start=1):
        rng = np.random.default_rng(40 + n)
        psi = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        psi /= np.linalg.norm(psi)
        values = [pauli_expectation(psi, pauli_string(i, n)) for i in range(4 ** n)]
        assert _sha(values) == expected, n
        # the same bytes as a row of the columns of a batch holding the state twice
        assert _sha(PauliFeatures(np.stack([psi, psi])).columns(range(4 ** n))[1]) == expected, n


def test_pauli_columns_beyond_the_matrix_limit(monkeypatch):
    # n = 10: a source serves any columns of its 4^10 axes; only the whole matrix is refused
    train = _training_split(CIRCLES, ExperimentConfig(n_samples=60, subsample_train=20))
    spec = EncodingCircuitSpec(qubit_count=10)
    source = PauliFeatures.of(train, spec)
    assert (source.sample_count, source.axis_count) == (20, 4 ** 10)
    axes = np.random.default_rng(21).integers(0, 4 ** 10, size=60)
    block = source.columns(axes)
    assert block.tolist() == [[pauli_expectation(encode_state(x, spec), pauli_string(int(i), 10)) for i in axes]
                              for x in train.inputs]

    def refuse():
        raise AssertionError("the estimate materialized the 4^10 matrix")

    monkeypatch.setattr(source, "materialize", refuse)
    estimate = conservative_estimate(source, train.labels, 0.05, 0.05, rng_seed=4)
    assert estimate.axes_evaluated == 60
    best = estimate.best
    witness = ThresholdClassifier(best.axis_index, best.best_threshold, best.orientation)
    assert np.sum(witness.predict_values(source.column(best.axis_index)) == train.labels) == best.correct_count
    nine = small_dataset(np.random.default_rng(22), n_samples=2, n_features=2)
    for build in (lambda: PauliFeatures.of(nine, EncodingCircuitSpec(9)).materialize(),
                  lambda: pauli_feature_matrix(nine, EncodingCircuitSpec(9))):
        with pytest.raises(ValueError, match="dense simulation limit"):
            build()


def test_neither_embedding_builds_a_matrix_beyond_four_to_the_eight(monkeypatch):
    # one matrix-size rule in the column builder, checked before the N x d buffer is allocated
    data = small_dataset(np.random.default_rng(26), n_samples=4, n_features=2)
    wide = (LazyProxyFeatures(data, ProjectionSpec(input_dim=2, feature_dim=4 ** 9, seed=0)),
            PauliFeatures.of(data, EncodingCircuitSpec(9)))

    def refuse(self, indices):
        raise AssertionError(f"built {len(indices)} columns")

    monkeypatch.setattr(featmap._ColumnSource, "_build", refuse)
    for source in wide:
        with pytest.raises(ValueError, match=r"^dense simulation limit: a matrix of 4\^n features needs n <= 8$"):
            source.materialize()
    at_limit = LazyProxyFeatures(data, ProjectionSpec(input_dim=2, feature_dim=4 ** 8, seed=0))
    with pytest.raises(AssertionError, match="^built 65536 columns$"):  # the rule lets 4^8 through
        at_limit.materialize()


@pytest.mark.parametrize("n", [7, 8])
def test_pooled_pauli_build_bytes_do_not_depend_on_the_cores(monkeypatch, n):
    # from n = 7 the matrix is two or more tasks of _TASK_BLOCKS runs, pooled on two or more
    # cores; a fresh pool of three workers and a short switch interval interleave their row writes
    source = PauliFeatures.of(small_dataset(np.random.default_rng(25), n_samples=12), EncodingCircuitSpec(n))
    monkeypatch.setattr(axiscore, "_POOL", None)
    interval, builds = sys.getswitchinterval(), []
    try:
        sys.setswitchinterval(1e-5)
        for cores in (1, 3, 2):
            monkeypatch.setattr(axiscore, "_CORES", cores)
            builds.append(source.materialize().values.tobytes())
    finally:
        sys.setswitchinterval(interval)
        if axiscore._POOL is not None:
            axiscore._POOL.shutdown()
    assert builds[1] == builds[0] and builds[2] == builds[0]


def _exit_zero_if_the_lazy_scan_is(source, labels, counts, best):
    scanned = ScannedFeatures(source, labels)
    os._exit(0 if (scanned.counts.tobytes(), scanned.best) == (counts, best) else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_pooled_scan_of_lazy_pauli_columns_equals_the_scan_of_the_matrix(monkeypatch):
    # each scan task is one part, 32 X-masks at n = 7, and builds its own columns in one
    # inline task on its worker; a build that waited on the pool could deadlock it, so each
    # lazy scan runs in a forked child, given a minute
    data = small_dataset(np.random.default_rng(26), n_samples=20)
    source = PauliFeatures.of(data, EncodingCircuitSpec(7))
    matrix = ScannedFeatures(source.materialize(), data.labels)
    for cores in (2, 3):
        monkeypatch.setattr(axiscore, "_CORES", cores)
        child = multiprocessing.get_context("fork").Process(
            target=_exit_zero_if_the_lazy_scan_is, args=(source, data.labels, matrix.counts.tobytes(), matrix.best))
        child.start()
        child.join(60)
        if child.exitcode is None:
            child.kill()
            child.join()
        assert child.exitcode == 0, f"the lazy scan on {cores} cores exited with {child.exitcode}"


@pytest.mark.parametrize("n", range(1, 9))
def test_lazy_pauli_scan_is_the_matrix_scan(n):
    # X-mask-major parts, the counts placed back at their axes: the same bytes and winner
    data = small_dataset(np.random.default_rng(27 + n), n_samples=12)
    source = PauliFeatures.of(data, EncodingCircuitSpec(n))
    lazy, matrix = (ScannedFeatures(s, data.labels) for s in (source, source.materialize()))
    assert lazy.counts.tobytes() == matrix.counts.tobytes() and lazy.best == matrix.best


def _spy_on_transforms_and_paths(monkeypatch) -> tuple[list, list]:
    """The X-masks of each group transform and the (x, z) of each path, in call order."""
    transformed, paths = [], []
    transform, path = featmap._transformed_products, PauliFeatures._path

    def spy_transform(amplitudes, x_masks, n):
        transformed.append(x_masks.tolist())
        return transform(amplitudes, x_masks, n)

    def spy_path(self, x, z):
        paths.append((int(x), int(z)))
        return path(self, x, z)

    monkeypatch.setattr(featmap, "_transformed_products", spy_transform)
    monkeypatch.setattr(PauliFeatures, "_path", spy_path)
    return transformed, paths


def test_pauli_norms_are_computed_once_when_the_source_is_built(monkeypatch):
    # the squared norms are the path of (x = 0, z = 0), followed once, when the source is built; a
    # lone column, or a batch's one axis of an X-mask, follows its own path and transforms nothing
    psi = encode_state(np.array([0.3, -1.2, 0.8]), EncodingCircuitSpec(3)).reshape(1, -1)
    transformed, paths = _spy_on_transforms_and_paths(monkeypatch)
    source = PauliFeatures(psi)
    assert paths == [(0, 0)] and transformed == []
    lone = source.column(16)  # XII: X-mask 0b100
    assert paths == [(0, 0), (0b100, 0)] and transformed == []
    assert source.columns([16])[:, 0].tobytes() == lone.tobytes()
    assert paths == [(0, 0), (0b100, 0), (0b100, 0)] and transformed == []
    assert source.columns([16, 19])[:, 0].tobytes() == lone.tobytes()  # XII and XIZ: one transform of 0b100
    assert transformed == [[0b100]] and len(paths) == 3
    transformed.clear()
    assert source.columns([]).shape == (1, 0) and transformed == []
    for states in (np.zeros((1, 4)), np.array([[0.6, 0.8], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="^empty dataset: statevector has zero norm$"):
            PauliFeatures(states)


def test_pauli_states_are_a_nonempty_b_by_2n_array():
    with pytest.raises(ValueError, match="^empty dataset: no states$"):
        PauliFeatures(np.zeros((0, 4)))
    for shape in ((4,), (2, 0), (2, 1), (2, 3), (2, 6), (2, 2, 2)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'states must be B x 2^n, not {shape}')}$"):
            PauliFeatures(np.ones(shape))


def test_lone_x_masks_are_never_transformed_and_a_full_request_follows_no_path(monkeypatch):
    # in a batch, an X-mask asked for one axis follows that axis's path and the others are transformed,
    # each once; a full request, the scan's and the matrix's, asks for every Z-mask and follows no path
    n = 4
    source = PauliFeatures.of(small_dataset(np.random.default_rng(81), n_samples=6), EncodingCircuitSpec(n))
    x, z, _ = featmap._pauli_masks(np.arange(4 ** n), n)
    by_mask = [np.flatnonzero(x == mask) for mask in range(2 ** n)]
    lone = [by_mask[1][3], by_mask[6][0], by_mask[15][15]]
    axes = [*by_mask[2][:2], lone[0], *by_mask[9][4:7], lone[1], lone[2], by_mask[2][9]]
    transformed, paths = _spy_on_transforms_and_paths(monkeypatch)
    block = source.columns(axes)
    assert sorted(paths) == sorted((int(x[i]), int(z[i])) for i in lone)
    assert sorted(mask for run in transformed for mask in run) == [2, 9]
    matrix = source.materialize()
    assert len(paths) == len(lone) and sorted(mask for run in transformed[1:] for mask in run) == list(range(2 ** n))
    assert block.tobytes() == matrix.values[:, axes].tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_a_mixed_pauli_batch_is_the_matrix_bytes(n):
    # one axis of every even X-mask, read by its path, and every axis of each odd one, by the transforms,
    # shuffled: the same bytes as the matrix, whichever way each column was computed
    rng = np.random.default_rng(90 + n)
    source = PauliFeatures.of(_training_split(CIRCLES, ExperimentConfig()), EncodingCircuitSpec(n))
    x = featmap._pauli_masks(np.arange(4 ** n), n)[0]
    lone = [rng.choice(np.flatnonzero(x == mask)) for mask in range(0, 2 ** n, 2)]
    axes = rng.permutation(np.concatenate([lone, np.flatnonzero(x % 2 == 1)]))
    matrix = source.materialize().values
    assert source.columns(axes).tobytes() == matrix[:, axes].tobytes()
    single = rng.integers(0, 4 ** n, size=5)  # one-axis batches, lone by construction
    assert all(source.columns([i]).tobytes() == matrix[:, [i]].tobytes() for i in single)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_lone_column_is_the_transform_column_on_every_axis(n):
    # the path performs the float operations of the group transform for its output: the same bytes
    rng = np.random.default_rng(50 + n)
    real = PauliFeatures.of(small_dataset(rng, n_samples=7), EncodingCircuitSpec(n, layers=3))
    complex_ = PauliFeatures(np.stack([random_state(rng, n) for _ in range(5)]))
    for source in (real, complex_):
        block = source.columns(range(4 ** n))
        for i in range(4 ** n):
            column = source.column(i)
            assert column.shape == (source.sample_count,) and column.tobytes() == block[:, i].tobytes(), i


@pytest.mark.parametrize("n", [6, 8, 10])
def test_a_lone_column_is_the_matrix_column_on_seeded_axes(n):
    # 200 seeded axes: against the matrix at n = 6 and 8; above the matrix limit, against a group transform,
    # the batch of the axis and i ^ 3, its X-mask's axis of the other Z bit on the last qubit
    source = PauliFeatures.of(_training_split(CIRCLES, ExperimentConfig(n_samples=200, subsample_train=40)),
                              EncodingCircuitSpec(n))
    axes = np.random.default_rng(60 + n).integers(0, 4 ** n, size=200).tolist()
    matrix = source.materialize().values if n <= 8 else None
    for i in axes:
        expected = matrix[:, i] if matrix is not None else source.columns([i, i ^ 3])[:, 0]
        assert source.column(i).tobytes() == expected.tobytes(), i
    for bad in (4 ** n, -1, 2.0, True):
        with pytest.raises(ValueError):
            source.column(bad)


@pytest.mark.parametrize("n", range(2, 9))
def test_the_identity_mean_is_the_matrix_mean(n):
    # <psi|(I + X + Y + Z)^(x n)|psi> / <psi|psi> sums a state's 4^n expectations: the mean is the
    # matrix's to rounding, and the scale gamma keeps the matrix mean's bits on the default splits
    for kind in DATASET_KINDS:
        source = PauliFeatures.of(_training_split(kind, ExperimentConfig()), EncodingCircuitSpec(n))
        mean = float(np.ascontiguousarray(source.materialize().values.T).mean())
        assert source._mean() == pytest.approx(mean, rel=1e-12, abs=1e-15)
        gram = source.gram()
        assert gram.scale_gamma == Gram.of_kernel(gram.values, 4 ** n, mean).scale_gamma, kind
    states = np.stack([random_state(np.random.default_rng(70 + n), n) for _ in range(6)])
    complex_ = PauliFeatures(states)
    assert complex_._mean() == pytest.approx(complex_.materialize().values.mean(), rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_binary_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    data = small_dataset(rng, n_samples=9, n_features=4)
    feats = LazyProxyFeatures(data, ProjectionSpec(input_dim=4, feature_dim=25, seed=2)).materialize()
    path = tmp_path / "feats.bin"
    save_feature_matrix(feats, path)
    # the loader ignores the header's third word, the flags
    blob = path.read_bytes()
    assert blob[16:24] == bytes(8)
    flagged = tmp_path / "flagged.bin"
    flagged.write_bytes(blob[:16] + (7).to_bytes(8, "little") + blob[24:])
    for source in (path, flagged):
        assert np.array_equal(load_feature_matrix(source).values, feats.values)
    # the file is row-major whatever the layout in memory
    row_major = tmp_path / "row_major.bin"
    save_feature_matrix(FeatureMatrix(np.ascontiguousarray(feats.values)), row_major)
    assert feats.values.flags.f_contiguous and row_major.read_bytes() == blob
    # so is a Pauli matrix's, built axis-major
    pauli = pauli_feature_matrix(data, EncodingCircuitSpec(qubit_count=2))
    pauli_path = tmp_path / "pauli.bin"
    save_feature_matrix(pauli, pauli_path)
    assert pauli.values.flags.f_contiguous
    assert pauli_path.read_bytes()[24:] == np.ascontiguousarray(pauli.values).tobytes()
    assert load_feature_matrix(pauli_path).values.tobytes() == np.ascontiguousarray(pauli.values).tobytes()


def test_binary_truncation_detected(tmp_path):
    rng = np.random.default_rng(12)
    data = small_dataset(rng)
    feats = LazyProxyFeatures(data, ProjectionSpec(input_dim=3, feature_dim=8, seed=0)).materialize()
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


def test_expectation_errors_name_their_fault(tmp_path):
    with pytest.raises(ValueError, match="^empty dataset: statevector has zero norm$"):
        pauli_expectation(np.zeros(2), pauli_string(3, 1))
    # a Hermitian Pauli has a real expectation; only a broken phase leaves an imaginary part
    with pytest.raises(ValueError, match="^Pauli expectation has a non-negligible imaginary part$"):
        featmap._expectation_values(np.array([0.5 + 0.5j]), np.array([1.0]), 1)
    header_only = tmp_path / "features.csv"
    header_only.write_text("axis_0,axis_1\n")
    with pytest.raises(ValueError, match="^empty dataset: no feature rows in CSV$"):
        feature_matrix_from_csv(header_only)
