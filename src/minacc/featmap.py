"""Feature-map constructions: tanh random-projection proxy and exact Pauli features.

The proxy embedding tanh(W^T x) with a seeded Gaussian W (sd 1/sqrt(m))
imitates the bounded, high-dimensional geometry of Pauli expectation values
at d = 4^n scale without simulating circuits.  Each projection column is
generated from its own child seed (parent seed, column index), so a column
can be produced on demand: estimators that touch t << d axes never build
the N x d matrix, growing d extends rather than reshuffles earlier columns,
and the lazy and eager paths are bit-identical because they run the same
per-column code.

For small n there is also the real thing: an angle-encoding statevector
simulator and expectation values of all 4^n Pauli strings (eigenvalues +-1,
so features lie in [-1, 1] and the squared entries of one sample sum to
2^n for pure states).
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .axiscore import FeatureMatrix, LabeledDataset
from .datagen import read_numeric_csv

_DENSE_QUBIT_LIMIT = 12      # statevector simulation guard
_MATRIX_QUBIT_LIMIT = 7      # full 4^n-column materialization guard

_PAULI_LETTERS = "IXYZ"


# ---------------------------------------------------------------------------
# tanh random-projection proxy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionSpec:
    """Seeded random projection R^m -> R^d; column i is reproducible from (seed, i)."""

    input_dim: int
    feature_dim: int
    seed: int

    def __post_init__(self):
        if self.input_dim < 1 or self.feature_dim < 1:
            raise ValueError("projection dimensions must be >= 1")


def projection_column(spec: ProjectionSpec, axis_index: int) -> np.ndarray:
    """Column i of W: m i.i.d. normals with sd 1/sqrt(m) from child seed (seed, i)."""
    if not 0 <= axis_index < spec.feature_dim:
        raise ValueError(f"axis {axis_index} out of range [0, {spec.feature_dim})")
    ss = np.random.SeedSequence(entropy=int(spec.seed), spawn_key=(int(axis_index),))
    rng = np.random.default_rng(ss)
    return rng.standard_normal(spec.input_dim) * (spec.input_dim ** -0.5)


def _proxy_column(inputs: np.ndarray, spec: ProjectionSpec, axis_index: int) -> np.ndarray:
    # single code path shared by lazy and eager embeddings (bit-exactness)
    return np.tanh(inputs @ projection_column(spec, axis_index))


class LazyProxyFeatures:
    """Column-on-demand view of the proxy embedding of a fixed dataset."""

    def __init__(self, dataset: LabeledDataset, spec: ProjectionSpec):
        if dataset.input_dim != spec.input_dim:
            raise ValueError(
                f"dataset dimension {dataset.input_dim} != projection input_dim {spec.input_dim}"
            )
        self._inputs = dataset.inputs
        self.spec = spec

    @property
    def sample_count(self) -> int:
        return self._inputs.shape[0]

    @property
    def axis_count(self) -> int:
        return self.spec.feature_dim

    def column(self, axis_index: int) -> np.ndarray:
        return _proxy_column(self._inputs, self.spec, axis_index)

    def columns(self, indices) -> np.ndarray:
        out = np.empty((self.sample_count, len(indices)), dtype=np.float64)
        for j, i in enumerate(indices):
            out[:, j] = self.column(i)
        return out

    def materialize(self) -> FeatureMatrix:
        return FeatureMatrix(self.columns(range(self.axis_count)))


def proxy_embed(dataset: LabeledDataset, spec: ProjectionSpec) -> FeatureMatrix:
    """Eager proxy embedding: entry [k, i] = tanh(<W column i, x_k>), in (-1, 1)."""
    return LazyProxyFeatures(dataset, spec).materialize()


# ---------------------------------------------------------------------------
# Pauli strings and the dense simulator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli word; index is its base-4 code with qubit 0 as the most
    significant digit (0=I, 1=X, 2=Y, 3=Z)."""

    index: int
    letters: str

    @property
    def qubit_count(self) -> int:
        return len(self.letters)


def pauli_string(index: int, n: int) -> PauliString:
    if n < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= index < 4 ** n:
        raise ValueError(f"Pauli index {index} out of range [0, {4 ** n})")
    letters = "".join(_PAULI_LETTERS[(index >> (2 * (n - 1 - q))) & 3] for q in range(n))
    return PauliString(index=index, letters=letters)


@dataclass(frozen=True)
class EncodingCircuitSpec:
    """Angle-encoding circuit: L layers of RY(rotation_scale * x_{j mod m}) on
    qubit j followed by the entangler ('ring_cz' or 'none')."""

    qubit_count: int
    layers: int = 2
    entangler: str = "ring_cz"
    rotation_scale: float = 1.0

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("need at least one qubit")
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if self.entangler not in ("ring_cz", "none"):
            raise ValueError(f"unknown entangler {self.entangler!r}")


def _apply_ry(state: np.ndarray, theta: float, qubit: int, n: int) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    mat = np.array([[c, -s], [s, c]], dtype=np.complex128)
    psi = state.reshape([2] * n)
    psi = np.tensordot(mat, psi, axes=([1], [qubit]))
    return np.moveaxis(psi, 0, qubit).reshape(-1)


def _ring_pairs(n: int):
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    return [(j, (j + 1) % n) for j in range(n)]


def encode_state(x, spec: EncodingCircuitSpec) -> np.ndarray:
    """Statevector of the encoding circuit applied to |0...0>; qubit 0 is the
    most significant bit of the amplitude index."""
    n = spec.qubit_count
    if n > _DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense simulation limit: n <= {_DENSE_QUBIT_LIMIT}")
    xv = np.asarray(x, dtype=np.float64).ravel()
    if xv.size == 0:
        raise ValueError("empty dataset: input vector has no components")
    angles = spec.rotation_scale * xv[np.arange(n) % xv.size]

    state = np.zeros(2 ** n, dtype=np.complex128)
    state[0] = 1.0
    idx = np.arange(2 ** n)
    for _ in range(spec.layers):
        for q in range(n):
            state = _apply_ry(state, float(angles[q]), q, n)
        if spec.entangler == "ring_cz":
            for a, b in _ring_pairs(n):
                both = ((idx >> (n - 1 - a)) & 1) & ((idx >> (n - 1 - b)) & 1)
                state = np.where(both == 1, -state, state)
    return state


def _pauli_action(letters: str):
    """(index permutation, per-source phase) such that sigma|b> = phase[b] |perm[b]>."""
    n = len(letters)
    size = 2 ** n
    idx = np.arange(size)
    flip = 0
    phase = np.ones(size, dtype=np.complex128)
    for q, letter in enumerate(letters):
        bitpos = n - 1 - q
        bit = (idx >> bitpos) & 1
        if letter == "X":
            flip |= 1 << bitpos
        elif letter == "Y":
            flip |= 1 << bitpos
            phase = phase * np.where(bit == 0, 1j, -1j)
        elif letter == "Z":
            phase = phase * np.where(bit == 1, -1.0 + 0j, 1.0 + 0j)
        elif letter != "I":
            raise ValueError(f"invalid Pauli letter {letter!r}")
    return idx ^ flip, phase


def pauli_expectation(state, sigma: PauliString) -> float:
    """<psi| sigma |psi> / <psi|psi> without materializing the 2^n x 2^n matrix.

    The string acts as a bit-flip permutation with per-basis-state phases,
    so the expectation is one shuffled inner product.  Dividing by the squared
    norm cancels the few-ulp drift a simulated state picks up, which keeps the
    all-identity expectation exactly 1.0 (same float over itself).  The value
    is real for any state; the residual imaginary part is checked against
    1e-10 and the result clamped to [-1, 1].
    """
    psi = np.asarray(state, dtype=np.complex128).ravel()
    if psi.size != 2 ** sigma.qubit_count:
        raise ValueError("statevector length does not match Pauli string")
    perm, phase = _pauli_action(sigma.letters)
    val = np.vdot(psi, (phase * psi)[perm])
    norm_sq = np.vdot(psi, psi).real
    if norm_sq == 0.0:
        raise ValueError("empty dataset: statevector has zero norm")
    if abs(val.imag) > 1e-10 * norm_sq:
        raise ValueError("Pauli expectation has a non-negligible imaginary part")
    return float(np.clip(val.real / norm_sq, -1.0, 1.0))


def pauli_feature_matrix(dataset: LabeledDataset, spec: EncodingCircuitSpec) -> FeatureMatrix:
    """All 4^n Pauli expectations per sample, columns in Pauli index order."""
    n = spec.qubit_count
    if n > _MATRIX_QUBIT_LIMIT:
        raise ValueError(
            f"dense simulation limit: full 4^n feature matrix needs n <= {_MATRIX_QUBIT_LIMIT}"
        )
    d = 4 ** n
    actions = [_pauli_action(pauli_string(i, n).letters) for i in range(d)]
    out = np.empty((dataset.sample_count, d), dtype=np.float64)
    for k in range(dataset.sample_count):
        state = encode_state(dataset.inputs[k], spec)
        conj = np.conj(state)
        norm_sq = np.sum(conj * state).real
        for i, (perm, phase) in enumerate(actions):
            val = np.sum(conj * (phase * state)[perm])
            out[k, i] = val.real / norm_sq
    np.clip(out, -1.0, 1.0, out=out)
    return FeatureMatrix(out)


# ---------------------------------------------------------------------------
# feature matrix serialization
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<QQQ")  # sample_count, axis_count, flags


def save_feature_matrix(features: FeatureMatrix, path, flags: int = 0) -> None:
    """Binary layout: header (N, d, flags as little-endian uint64) then
    row-major float64 values."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(features.sample_count, features.axis_count, flags))
        fh.write(np.ascontiguousarray(features.values, dtype="<f8").tobytes())


def load_feature_matrix(path) -> FeatureMatrix:
    """Reads the binary layout of ``save_feature_matrix`` or, recognised by
    its ``axis_0`` header, the CSV layout of ``feature_matrix_to_csv``."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head.startswith(b"axis_0"):
            return feature_matrix_from_csv(path)
        if len(head) != _HEADER.size:
            raise ValueError("feature file truncated: incomplete header")
        n, d, _flags = _HEADER.unpack(head)
        body = fh.read()
    if len(body) != 8 * n * d:
        raise ValueError(
            f"feature file truncated: expected {n * d} values ({8 * n * d} bytes), got {len(body)} bytes"
        )
    return FeatureMatrix(np.frombuffer(body, dtype="<f8").reshape(n, d).astype(np.float64))


def feature_matrix_to_csv(features: FeatureMatrix, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"axis_{i}" for i in range(features.axis_count)])
        for row in features.values:
            writer.writerow([repr(float(v)) for v in row])


def feature_matrix_from_csv(path) -> FeatureMatrix:
    _, values = read_numeric_csv(path)
    if values.size == 0:
        raise ValueError("empty dataset: no feature rows in CSV")
    return FeatureMatrix(values)
