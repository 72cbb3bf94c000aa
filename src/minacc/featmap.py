"""Feature-map constructions: tanh random-projection proxy and exact Pauli features.

The proxy embedding tanh(W^T x) with a seeded Gaussian W (sd 1/sqrt(m))
imitates the bounded, high-dimensional geometry of Pauli expectation values
at d = 4^n scale without simulating circuits.  Column i of W is a function
of (seed, i) alone: Philox4x32-10, a counter-based generator keyed by the
seed and counting (i, draw pair), feeds Box-Muller.  Any set of columns is
therefore produced on demand, in one vectorized block: estimators that touch
t << d axes never build the N x d matrix, growing d extends rather than
reshuffles earlier columns, and the lazy and eager paths are bit-identical
because every value goes through the same elementwise block code.  The block
code fills a d x N axis-major buffer, one axis per contiguous row, and hands
out its N x d transpose: the exhaustive scan sorts each axis where it was
written, with no transpose copy.  Blocks of rows are filled on the exact-path
thread pool of ``axiscore``; each value is a function of (seed, axis, inputs)
alone, so the bytes do not depend on the number of threads.

For n <= 8 there is also the real thing: an angle-encoding statevector simulator and
expectation values of all 4^n Pauli strings (eigenvalues +-1, so features lie in [-1, 1]
and the squared entries of one sample sum to 2^n for pure states).  The circuit has
only RY and CZ gates, so its amplitudes are real: all N states are encoded in one
float64 batch.  A Walsh-Hadamard transform over k of conj(psi[k ^ x]) psi[k] gives
every Z-mask of X-mask x, O(n 4^n) per state, run on chunks of samples under a fixed
element budget.  On real states the strings with an odd number of Y are exactly 0.0,
and every other value within its rounding bound (n + 3) eps/2 of zero becomes 0.0.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .axiscore import FeatureMatrix, LabeledDataset, _ordered_map, checked_axes
from .datagen import read_numeric_csv

_DENSE_QUBIT_LIMIT = 12      # statevector simulation guard
_MATRIX_QUBIT_LIMIT = 8      # full 4^n-column materialization guard

_PAULI_LETTERS = "IXYZ"
_PAULI_DIGITS = str.maketrans(_PAULI_LETTERS, "0123")


# ---------------------------------------------------------------------------
# tanh random-projection proxy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionSpec:
    """Seeded random projection R^m -> R^d; column i is reproducible from (seed, i).
    The seed is the 64-bit Philox key, so it must lie in [0, 2^64)."""

    input_dim: int
    feature_dim: int
    seed: int

    def __post_init__(self):
        if self.input_dim < 1 or self.feature_dim < 1:
            raise ValueError("projection dimensions must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"projection seed {self.seed} out of range [0, 2^64)")


_LOW32 = 0xFFFFFFFF
_PHILOX_M = np.array([0xD2511F53, 0xCD9E8D57], dtype=np.uint64)   # round multipliers
# round r adds r times the key increments to the key, mod 2^32
_PHILOX_KEY_STEPS = np.outer(np.arange(10, dtype=np.uint64),
                             np.array([0x9E3779B9, 0xBB67AE85], dtype=np.uint64))

# Columns per block of the proxy embedding: the 512 x N product temporary stays
# a few hundred KB at N = 100, and no d x N temporary is built beside the output.
_PROXY_BLOCK = 512
# Columns per pool task: one projection_block call, then its blocks in turn.
# The Philox glue holds the GIL, so narrower tasks overlap less: on both cores
# of a 2-core Xeon, 65,536 axes (N = 100, m = 2) take a median 76 ms in
# 2048-wide tasks and 143 ms in 512-wide ones; one core takes 107 ms.
_PROXY_TASK = 4 * _PROXY_BLOCK


def _philox4x32(even: np.ndarray, odd: np.ndarray, key) -> tuple[np.ndarray, np.ndarray]:
    """Philox4x32-10 (Salmon et al., SC'11) on uint64 arrays holding 32-bit words.

    ``even`` stacks counter words (0, 2) and ``odd`` words (1, 3), each of
    shape (2, ...); ``key`` is (k0, k1).  Returns the output words stacked the
    same way.  A round multiplies words 0 and 2, so each pair steps as one array.
    """
    pair = (2,) + (1,) * (even.ndim - 1)
    multipliers = _PHILOX_M.reshape(pair)
    round_keys = (np.array(key, dtype=np.uint64) + _PHILOX_KEY_STEPS) & _LOW32
    for round_key in round_keys.reshape((10,) + pair):
        product = (even * multipliers)[::-1]
        even, odd = (product >> 32) ^ odd ^ round_key, product & _LOW32
    return even, odd


def projection_block(spec: ProjectionSpec, indices) -> np.ndarray:
    """Columns ``indices`` of W (m x k): i.i.d. normals with sd 1/sqrt(m), column
    i a function of (seed, i) alone.  Counter (i lo32, i hi32, j, 0) under key
    seed gives draw pair j of column i; its 53-bit uniforms from words (0, 1)
    and (2, 3) become entries 2j and 2j + 1 by Box-Muller."""
    axes = checked_axes(indices, spec.feature_dim)
    m = spec.input_dim
    even = np.empty((2, (m + 1) // 2, axes.size), dtype=np.uint64)
    odd = np.zeros_like(even)
    even[0], odd[0] = axes & _LOW32, axes >> 32
    even[1] = np.arange((m + 1) // 2)[:, None]
    seed = int(spec.seed)
    high, low = _philox4x32(even, odd, (seed & _LOW32, seed >> 32))
    u1, u2 = ((high << 32 | low) >> 11).astype(np.float64) * 2.0 ** -53
    radius, angle = np.sqrt(-2.0 * np.log(1.0 - u1)), 2.0 * np.pi * u2
    normals = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=1)
    return normals.reshape(-1, axes.size)[:m] * (m ** -0.5)


def projection_column(spec: ProjectionSpec, axis_index: int) -> np.ndarray:
    """Column i of W."""
    return projection_block(spec, [axis_index])[:, 0]


def _proxy_block(inputs: np.ndarray, spec: ProjectionSpec, indices) -> np.ndarray:
    """tanh(sum_j x_j w_j) for the given columns: the one path of every proxy
    value.  Each block of columns is summed over j in order by elementwise
    ufuncs (a BLAS matmul may order its sums by the block's width), so a value
    does not depend on the columns beside it.  The sums and the tanh run in
    place in one k x N axis-major buffer, one axis per row; the N x k result
    is its transpose, an F-contiguous view whose columns the scan sorts
    where they lie.  Tasks of ``_PROXY_TASK`` axes fill disjoint rows on the
    pool."""
    axes = checked_axes(indices, spec.feature_dim)
    buffer = np.empty((axes.size, inputs.shape[0]), dtype=np.float64)

    def fill(start):
        task = projection_block(spec, axes[start:start + _PROXY_TASK])
        for offset in range(0, task.shape[1], _PROXY_BLOCK):
            w = task[:, offset:offset + _PROXY_BLOCK]
            acc = buffer[start + offset:start + offset + w.shape[1]]
            np.multiply(w[0][:, None], inputs[:, 0], out=acc)
            for j in range(1, spec.input_dim):
                acc += w[j][:, None] * inputs[:, j]
            np.tanh(acc, out=acc)

    for _ in _ordered_map(fill, range(0, axes.size, _PROXY_TASK)):
        pass
    return buffer.T


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
        return _proxy_block(self._inputs, self.spec, [axis_index])[:, 0]

    def columns(self, indices) -> np.ndarray:
        return _proxy_block(self._inputs, self.spec, indices)

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

    def __post_init__(self):
        n = len(self.letters)
        if n < 1:
            raise ValueError("need at least one qubit")
        if not 0 <= self.index < 4 ** n:
            raise ValueError(f"Pauli index {self.index} out of range [0, {4 ** n})")
        if self.letters.strip(_PAULI_LETTERS) or int(self.letters.translate(_PAULI_DIGITS), 4) != self.index:
            raise ValueError(f"Pauli letters {self.letters!r} do not spell index {self.index}")

    @property
    def qubit_count(self) -> int:
        return len(self.letters)


def pauli_string(index: int, n: int) -> PauliString:
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


def _ring_pairs(n: int):
    # a ring of n > 2 qubits; one pair for n = 2, none for n = 1
    return [(j, (j + 1) % n) for j in range(n if n > 2 else n - 1)]


def _ring_signs(n: int) -> np.ndarray:
    """The CZ ring as one diagonal: (-1)^(number of ring pairs with both bits
    set) per basis state.  Multiplying by -1.0 is an exact negation, so this
    equals negating the state once per pair."""
    idx = np.arange(2 ** n)
    signs = np.ones(2 ** n)
    for a, b in _ring_pairs(n):
        signs[(idx >> (n - 1 - a)) & (idx >> (n - 1 - b)) & 1 == 1] *= -1.0
    return signs


def _encode_states(inputs, spec: EncodingCircuitSpec) -> np.ndarray:
    """N x 2^n float64 statevectors of the encoding circuit applied to |0...0>
    for the N rows of ``inputs``; qubit 0 is the most significant bit of the
    amplitude index.  RY and CZ are real gates, so the amplitudes are real.
    Each RY is two elementwise lines across the whole batch, on the (N, 2^q,
    2, rest) view that pairs the amplitudes differing in qubit q."""
    n = spec.qubit_count
    if n > _DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense simulation limit: n <= {_DENSE_QUBIT_LIMIT}")
    xv = np.asarray(inputs, dtype=np.float64)
    if xv.shape[1] == 0:
        raise ValueError("empty dataset: input vector has no components")
    half = spec.rotation_scale * xv[:, np.arange(n) % xv.shape[1]] / 2.0
    cos, sin = np.cos(half)[:, :, None, None], np.sin(half)[:, :, None, None]
    signs = _ring_signs(n) if spec.entangler == "ring_cz" else None

    states = np.zeros((xv.shape[0], 2 ** n), dtype=np.float64)
    states[:, 0] = 1.0
    for _ in range(spec.layers):
        for q in range(n):
            pairs = states.reshape(states.shape[0], 2 ** q, 2, -1)
            lo, hi = pairs[:, :, 0], pairs[:, :, 1]
            c, s = cos[:, q], sin[:, q]
            lo[...], hi[...] = c * lo - s * hi, s * lo + c * hi
        if signs is not None:
            states *= signs
    return states


def encode_state(x, spec: EncodingCircuitSpec) -> np.ndarray:
    """Real float64 statevector of one input: the row of ``_encode_states``
    for a batch of one, with the same guards."""
    return _encode_states(np.asarray(x, dtype=np.float64).reshape(1, -1), spec)[0]


def _pauli_masks(index, n: int):
    """(X-mask, Z-mask, i^{#Y}) of Pauli index(es): sigma|k> = i^{#Y} (-1)^{|z & k|} |k ^ x>."""
    x = z = y_count = 0
    for q in range(n):
        digit = (index >> (2 * (n - 1 - q))) & 3
        x = (x << 1) | ((digit ^ (digit >> 1)) & 1)
        z = (z << 1) | (digit >> 1)
        y_count = y_count + (digit == 2)
    return x, z, np.array([1, 1j, -1, -1j])[y_count % 4]


# Entries of the product table transformed at once: 16 samples at n = 6 and
# one at n = 8.  The table, its spare buffer and its gather stay at 512 KB
# each; transforming all 100 samples of an n = 6 dataset at once raised the peak
# RSS of a whole experiment by about 7 MB.
_TRANSFORM_BUDGET = 2 ** 16


def _transformed_products(psi: np.ndarray, x_masks: np.ndarray, n: int) -> np.ndarray:
    """[z, r, b] = <psi_b| X^{x_masks[r]} Z^z |psi_b> for the rows psi_b of a
    B x 2^n batch: one Walsh-Hadamard transform along k of the products
    conj(psi[k ^ x]) psi[k] gives every Z-mask of an X-mask.  Real states give
    real products.  The transform axis comes first, so each butterfly stage,
    most significant bit first, is two ufunc calls on contiguous runs of at
    least R x B entries, written into a second buffer."""
    states = psi.T
    w = np.take(states, np.bitwise_xor.outer(np.arange(2 ** n), x_masks), axis=0)
    if np.iscomplexobj(w):
        np.conj(w, out=w)
    w *= states[:, None, :]
    spare = np.empty_like(w)
    for bit in range(n):
        src, dst = w.reshape(2 ** bit, 2, -1), spare.reshape(2 ** bit, 2, -1)
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        w, spare = spare, w
    return w


def _expectation_values(raw, norm_sq, n: int):
    """Raw <psi|sigma|psi> / <psi|psi>, imaginary part checked, clipped, and 0.0 within
    (n + 3) eps/2: the rounding of the products (3) and of the n butterfly stages."""
    if np.any(norm_sq == 0.0):
        raise ValueError("empty dataset: statevector has zero norm")
    if np.iscomplexobj(raw):
        if np.any(np.abs(np.imag(raw)) > 1e-10 * norm_sq):
            raise ValueError("Pauli expectation has a non-negligible imaginary part")
        raw = np.real(raw)
    values = raw / norm_sq
    np.clip(values, -1.0, 1.0, out=values)
    values[np.abs(values) <= (n + 3) * np.finfo(np.float64).eps / 2] = 0.0
    return values


def pauli_expectation(state, sigma: PauliString) -> float:
    """<psi| sigma |psi> / <psi|psi>, bit-identical to its ``pauli_feature_matrix`` entry.
    A complex state keeps its phase i^{#Y} and has its imaginary part checked."""
    n = sigma.qubit_count
    is_complex = np.iscomplexobj(state)
    psi = np.asarray(state, dtype=np.complex128 if is_complex else np.float64).reshape(1, -1)
    if psi.size != 2 ** n:
        raise ValueError("statevector length does not match Pauli string")
    x, z, phase = _pauli_masks(sigma.index, n)
    w = _transformed_products(psi, np.array([0, x]), n)
    phase = phase if is_complex else phase.real
    return float(_expectation_values(phase * w[z, 1], w[0, 0].real, n)[0])


def pauli_feature_matrix(dataset: LabeledDataset, spec: EncodingCircuitSpec) -> FeatureMatrix:
    """All 4^n Pauli expectations per sample, columns in Pauli index order.
    The states are encoded in one batch; each chunk of samples then shares
    one transformed 2^n x 2^n x B product table, gathered with the real sign
    of i^{#Y} (0 for the odd-#Y strings, whose expectation on a real state is 0)."""
    n = spec.qubit_count
    if n > _MATRIX_QUBIT_LIMIT:
        raise ValueError(f"dense simulation limit: 4^n features need n <= {_MATRIX_QUBIT_LIMIT}")
    x, z, phase = _pauli_masks(np.arange(4 ** n), n)
    table_rows, sign = z * 2 ** n + x, phase.real[:, None]
    states = _encode_states(dataset.inputs, spec)
    chunk = max(1, _TRANSFORM_BUDGET // 4 ** n)
    out = np.empty((dataset.sample_count, 4 ** n), dtype=np.float64)
    for start in range(0, dataset.sample_count, chunk):
        w = _transformed_products(states[start:start + chunk], np.arange(2 ** n), n)
        table = w.reshape(4 ** n, -1)
        out[start:start + chunk] = _expectation_values(sign * table[table_rows], table[0], n).T
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
