"""Feature-map constructions: tanh random-projection proxy and exact Pauli features.

The proxy embedding tanh(W^T x) with a seeded Gaussian W (sd 1/sqrt(m))
imitates the bounded, high-dimensional geometry of Pauli expectation values
at d = 4^n scale without simulating circuits.  Column i of W is a function
of (seed, i) alone: Philox4x32-10, a counter-based generator keyed by the
seed and counting (i, draw pair), feeds Box-Muller.  Any set of columns is
therefore produced on demand, in vectorized blocks: estimators that touch
t << d axes never build the N x d matrix, growing d extends rather than
reshuffles earlier columns, and the lazy and eager paths are bit-identical
because every value goes through the same elementwise block code.

There is also the real thing: an angle-encoding statevector simulator and expectation
values of the 4^n Pauli strings (eigenvalues +-1, so features lie in [-1, 1] and the
squared entries of one sample sum to 2^n for pure states).  The circuit has only RY and
CZ gates, so its amplitudes are real: all N states are encoded in one float64 batch.
``PauliFeatures`` is the one path from states to expectations; it encodes the N states
once and keeps them, as given and as a 2^n x N copy, transform axis first.  A batch of
columns is group transforms: a Walsh-Hadamard transform over k of conj(psi[k ^ x]) psi[k]
gives every Z-mask of X-mask x, and one transform covers all N states and a run of the
requested X-masks, one exact-path block (``axiscore._SCAN_CHUNK`` axes) worth, each once.
A lone column, and a batch's one axis of an X-mask, follows only its own output's path
through the butterflies, the same float operations, so the same bytes; a full request asks
for every Z-mask and follows none.  The squared norms are the path of (x = 0, z = 0),
computed once.  Columns reach n = 12, the matrix n = 8.  On real states the strings with an odd
number of Y are exactly 0.0, and every other value within (n + 3) eps/2 of zero becomes 0.0.
The linear kernel of those features is the fidelity kernel of the states, and the sum of a
state's 4^n features is <psi|(I + X + Y + Z)^(x n)|psi> / <psi|psi>, so ``PauliFeatures.gram``
builds the SVM baselines' ``Gram`` from the N states without the N x 4^n matrix.

Both embeddings write only their math: ``_fill``, the rows of one of their ``parts`` of a
k x N axis-major buffer, the tasks of the build and of the scan alike (``_TASK_BLOCKS``
blocks of proxy columns; as many Pauli columns, grouped by X-mask).  One column builder,
``_ColumnSource``, checks the axes once, allocates the buffer, fills the parts on the pool
of ``axiscore`` (the n = 6 Pauli matrix is one inline task) and hands out the N x k
transpose, which the scan sorts where it was written.  Each value depends on its axis and
the source's inputs alone, so the bytes do not depend on the thread count.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass

import numpy as np

from .axiscore import (_SCAN_CHUNK, _TASK_BLOCKS, Checked, FeatureMatrix, LabeledDataset, Rule, _ordered_map,
                       checked_axes)
from .datagen import read_numeric_csv, write_numeric_csv
from .svmref import Gram

_DENSE_QUBIT_LIMIT = 12      # statevector simulation guard
_MATRIX_QUBIT_LIMIT = 8      # full 4^n-column materialization guard

_PAULI_LETTERS = "IXYZ"
_PAULI_DIGITS = str.maketrans(_PAULI_LETTERS, "0123")


# ---------------------------------------------------------------------------
# tanh random-projection proxy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionSpec(Checked):
    """Seeded random projection R^m -> R^d; column i is reproducible from (seed, i).
    The seed is the 64-bit Philox key, so it must lie in [0, 2^64)."""

    input_dim: int
    feature_dim: int
    seed: int

    _RULES = dict(input_dim=Rule.COUNT, feature_dim=Rule.COUNT,
                  seed=("be an integer in [0, 2^64)", lambda v: Rule.is_integer(v) and 0 <= v < 2 ** 64))


_LOW32 = 0xFFFFFFFF
_PHILOX_M = np.array([0xD2511F53, 0xCD9E8D57], dtype=np.uint64)   # round multipliers
# round r adds r times the key increments to the key, mod 2^32
_PHILOX_KEY_STEPS = np.outer(np.arange(10, dtype=np.uint64),
                             np.array([0x9E3779B9, 0xBB67AE85], dtype=np.uint64))
# positions of the high and low word of a uint64 in its uint32 view
_HIGH, _LOW = (1, 0) if sys.byteorder == "little" else (0, 1)


def _philox4x32(even: np.ndarray, odd: np.ndarray, key) -> tuple[np.ndarray, np.ndarray]:
    """Philox4x32-10 (Salmon et al., SC'11) on arrays of 32-bit words.

    ``even`` stacks counter words (0, 2) and ``odd`` words (1, 3), each of
    shape (2, ..., k) with at least two axes; ``key`` is (k0, k1).  Returns the
    output words as uint32, stacked the same way.  A round multiplies words 0
    and 2 into 64-bit products, so each pair steps as one array, and reads
    their high and low words as uint32 views: one multiply and two xors.
    """
    even, odd = np.asarray(even, dtype=np.uint32), np.asarray(odd, dtype=np.uint32)
    pair = (2,) + (1,) * (even.ndim - 1)
    multipliers = _PHILOX_M.reshape(pair)
    round_keys = ((np.array(key, dtype=np.uint64) + _PHILOX_KEY_STEPS) & _LOW32).astype(np.uint32)
    for round_key in round_keys.reshape((10,) + pair):
        words = np.multiply(even, multipliers).view(np.uint32)[::-1]
        even, odd = words[..., _HIGH::2] ^ odd ^ round_key, words[..., _LOW::2]
    return even, odd


def projection_block(spec: ProjectionSpec, indices) -> np.ndarray:
    """Columns ``indices`` of W (m x k): i.i.d. normals with sd 1/sqrt(m), column
    i a function of (seed, i) alone.  Counter (i lo32, i hi32, j, 0) under key
    seed gives draw pair j of column i; its 53-bit uniforms from words (0, 1)
    and (2, 3) become entries 2j and 2j + 1 by Box-Muller."""
    return _projection_block(spec, checked_axes(indices, spec.feature_dim))


def _projection_block(spec: ProjectionSpec, axes: np.ndarray) -> np.ndarray:
    """``projection_block`` of int64 ``axes`` already checked."""
    m = spec.input_dim
    even = np.empty((2, (m + 1) // 2, axes.size), dtype=np.uint32)
    odd = np.zeros_like(even)
    even[0], odd[0] = axes & _LOW32, axes >> 32
    even[1] = np.arange((m + 1) // 2)[:, None]
    seed = int(spec.seed)
    high, low = _philox4x32(even, odd, (seed & _LOW32, seed >> 32))
    u1, u2 = ((high.astype(np.uint64) << 32 | low) >> 11).astype(np.float64) * 2.0 ** -53
    radius, angle = np.sqrt(-2.0 * np.log(1.0 - u1)), 2.0 * np.pi * u2
    normals = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=1)
    return normals.reshape(-1, axes.size)[:m] * (m ** -0.5)


class _ColumnSource:
    """The column protocol over a subclass's ``sample_count``, ``axis_count`` and
    ``_fill(axes, rows, buffer)``, which fills row r of ``buffer`` with the column of
    ``axes[r]`` for the positions r of the part ``rows``."""

    parts = FeatureMatrix.parts  # a matrix's tasks, unless a subclass groups its axes

    def column(self, axis_index: int) -> np.ndarray:
        return self._build([axis_index])[:, 0]

    def columns(self, indices) -> np.ndarray:
        return self._build(indices)

    def materialize(self) -> FeatureMatrix:
        if self.axis_count > 4 ** _MATRIX_QUBIT_LIMIT:  # before the N x d buffer is allocated
            raise ValueError(f"dense simulation limit: a matrix of 4^n features needs n <= {_MATRIX_QUBIT_LIMIT}")
        return FeatureMatrix(self.columns(range(self.axis_count)))

    def _build(self, indices) -> np.ndarray:
        """N x k block, the transpose of the k x N buffer its parts fill, pooled when two or more."""
        axes = checked_axes(indices, self.axis_count)
        buffer = np.empty((axes.size, self.sample_count), dtype=np.float64)
        list(_ordered_map(lambda rows: self._fill(axes, rows, buffer), self.parts(axes)))
        return buffer.T


class LazyProxyFeatures(_ColumnSource):
    """Column-on-demand view of the proxy embedding of a fixed dataset."""

    def __init__(self, dataset: LabeledDataset, spec: ProjectionSpec):
        if dataset.input_dim != spec.input_dim:
            raise ValueError(
                f"dataset dimension {dataset.input_dim} != projection input_dim {spec.input_dim}"
            )
        self._inputs = dataset.inputs
        self.spec = spec
        self.sample_count, self.axis_count = dataset.sample_count, spec.feature_dim

    def _fill(self, axes, rows, buffer):
        """tanh(sum_j x_j w_j) in place: one W block for the part, then its blocks summed
        over j in order by elementwise ufuncs (a BLAS matmul may order its sums by the
        block's width), so a value does not depend on the columns beside it."""
        task, out = _projection_block(self.spec, axes[rows]), buffer[rows]
        for offset in range(0, task.shape[1], _SCAN_CHUNK):
            w = task[:, offset:offset + _SCAN_CHUNK]
            acc = out[offset:offset + w.shape[1]]
            np.multiply(w[0][:, None], self._inputs[:, 0], out=acc)
            for j in range(1, self.spec.input_dim):
                acc += w[j][:, None] * self._inputs[:, j]
            np.tanh(acc, out=acc)


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
class EncodingCircuitSpec(Checked):
    """Angle-encoding circuit: L layers of RY(rotation_scale * x_{j mod m}) on
    qubit j followed by the entangler ('ring_cz' or 'none')."""

    qubit_count: int
    layers: int = 2
    entangler: str = "ring_cz"
    rotation_scale: float = 1.0

    _RULES = dict(qubit_count=Rule.COUNT, layers=Rule.COUNT, rotation_scale=Rule.FINITE)

    def __post_init__(self):
        super().__post_init__()
        if self.entangler not in ("ring_cz", "none"):
            raise ValueError(f"unknown entangler {self.entangler!r}")


def _ring_signs(n: int) -> np.ndarray:
    """The CZ ring as one diagonal: (-1)^(number of ring pairs with both bits
    set) per basis state.  Multiplying by -1.0 is an exact negation, so this
    equals negating the state once per pair."""
    idx = np.arange(2 ** n)
    signs = np.ones(2 ** n)
    for a, b in [(j, (j + 1) % n) for j in range(n if n > 2 else n - 1)]:  # a ring; one pair at n = 2, none at 1
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


_PHASES = np.array([1, 1j, -1, -1j])  # i^{#Y} by #Y mod 4


def _pauli_masks(index, n: int):
    """(X-mask, Z-mask, i^{#Y}) of Pauli index(es): sigma|k> = i^{#Y} (-1)^{|z & k|} |k ^ x>."""
    x = z = y_count = 0
    for q in range(n):
        digit = (index >> (2 * (n - 1 - q))) & 3
        x = (x << 1) | ((digit ^ (digit >> 1)) & 1)
        z = (z << 1) | (digit >> 1)
        y_count = y_count + (digit == 2)
    return x, z, _PHASES[y_count % 4]


def _transformed_products(amplitudes: np.ndarray, x_masks: np.ndarray, n: int) -> np.ndarray:
    """[z, r, b] = <psi_b| X^{x_masks[r]} Z^z |psi_b> for the columns psi_b of the 2^n x B
    ``amplitudes``: one Walsh-Hadamard transform along k of the products conj(psi[k ^ x])
    psi[k] gives every Z-mask of an X-mask.  Real states give real products.  The transform
    axis comes first, so each butterfly stage, most significant bit first, is two ufunc calls
    on contiguous runs of at least R x B entries, written into a second buffer."""
    w = np.take(amplitudes, np.bitwise_xor.outer(np.arange(2 ** n), x_masks), axis=0)
    if np.iscomplexobj(w):
        np.conj(w, out=w)
    w *= amplitudes[:, None, :]
    spare = np.empty_like(w)
    for bit in range(n):
        src, dst = w.reshape(2 ** bit, 2, -1), spare.reshape(2 ** bit, 2, -1)
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        w, spare = spare, w
    return w


_EPS = np.finfo(np.float64).eps


def _expectation_values(raw, norm_sq, n: int):
    """Raw <psi|sigma|psi> / <psi|psi> in the memory of ``raw``, imaginary part checked, clipped,
    and 0.0 within (n + 3) eps/2: the rounding of the products (3) and of the n butterfly stages."""
    if np.iscomplexobj(raw):
        if np.any(np.abs(np.imag(raw)) > 1e-10 * norm_sq):
            raise ValueError("Pauli expectation has a non-negligible imaginary part")
        raw = np.real(raw)
    values = np.divide(raw, norm_sq, out=raw)
    np.minimum(np.maximum(values, -1.0, out=values), 1.0, out=values)  # np.clip, without its wrappers
    values[np.abs(values) <= (n + 3) * _EPS / 2] = 0.0
    return values


class PauliFeatures(_ColumnSource):
    """Column-on-demand Pauli expectations of B states, real or complex: entry
    [b, i] is <psi_b|sigma_i|psi_b> / <psi_b|psi_b> for Pauli index i.

    The states are kept twice: as given, B x 2^n, for the Gram, and as a C-contiguous
    2^n x B copy, transform axis first, that every column is computed from."""

    def __init__(self, states):
        self._states = psi = np.asarray(states, dtype=np.complex128 if np.iscomplexobj(states) else np.float64)
        n = psi.shape[1].bit_length() - 1 if psi.ndim == 2 else 0
        if n < 1 or psi.shape[1] != 2 ** n:
            raise ValueError(f"states must be B x 2^n, not {psi.shape}")
        if psi.shape[0] == 0:
            raise ValueError("empty dataset: no states")
        self.qubit_count, self.sample_count, self.axis_count = n, psi.shape[0], 4 ** n
        self._amplitudes, self._k = np.ascontiguousarray(psi.T), np.arange(2 ** n)  # k: gathers psi[k ^ x]
        self._norm_sq = self._path(0, 0).real  # the (x = 0, z = 0) output, as every transform computes it
        if np.any(self._norm_sq == 0.0):
            raise ValueError("empty dataset: statevector has zero norm")

    @classmethod
    def of(cls, dataset: LabeledDataset, spec: EncodingCircuitSpec) -> "PauliFeatures":
        return cls(_encode_states(dataset.inputs, spec))

    def column(self, axis_index: int) -> np.ndarray:
        """The column of one axis along its own path through the butterflies of its X-mask's
        transform: the float operations the transform performs for that output, so the bytes
        of ``columns``, at O(2^n B) instead of O(n 2^n B)."""
        if not (Rule.is_integer(axis_index) and 0 <= axis_index < self.axis_count):
            axis_index = int(checked_axes(axis_index, self.axis_count))
        x, z, phase = _pauli_masks(int(axis_index), self.qubit_count)
        raw = self._path(x, z)
        raw *= phase if np.iscomplexobj(raw) else phase.real
        return _expectation_values(raw, self._norm_sq, self.qubit_count)

    def _path(self, x: int, z: int) -> np.ndarray:
        """Raw <psi_b|X^x Z^z|psi_b> of the B states: the products conj(psi[k ^ x]) psi[k], halved
        n times, most significant bit first, into the sum of the halves where z's bit is 0 and
        their difference where it is 1."""
        n, amplitudes = self.qubit_count, self._amplitudes
        w = np.take(amplitudes, self._k ^ x, axis=0)
        if np.iscomplexobj(w):
            np.conj(w, out=w)
        w *= amplitudes
        for bit in range(n):
            half = 2 ** (n - 1 - bit)
            w = w[:half] - w[half:] if (z >> (n - 1 - bit)) & 1 else w[:half] + w[half:]
        return w[0]

    def parts(self, axes) -> list[np.ndarray]:
        """The int32 positions of ``axes`` by X-mask, max(1, 4096 // 2^n) of the requested masks a
        part in ascending order; the masks are decoded 4,096 axes at a time, never all at once."""
        n, width = self.qubit_count, _TASK_BLOCKS * _SCAN_CHUNK
        per = max(1, width // 2 ** n)
        if len(axes) <= per:  # no more masks than one part holds
            return [np.arange(len(axes), dtype=np.int32)]
        x = np.empty(len(axes), dtype=np.min_scalar_type(2 ** n - 1))
        for start in range(0, x.size, width):
            x[start:start + width] = _pauli_masks(checked_axes(axes[start:start + width], self.axis_count), n)[0]
        part = ((np.cumsum(np.bincount(x, minlength=2 ** n) > 0) - 1) // per).astype(x.dtype)[x]  # by mask rank
        positions = np.argsort(part, kind="stable").astype(np.int32)  # 4^12 < 2^31
        return np.split(positions, np.cumsum(np.bincount(part))[:-1])

    def _fill(self, axes, rows, buffer):
        """Runs of the part's X-masks, ``_SCAN_CHUNK`` axes' worth each: each axis's row of its
        run's transform, times i^{#Y} (its real part on real states), over the squared norms.
        An X-mask asked for one axis is not transformed: that axis follows its own path."""
        n = self.qubit_count
        x, z, phase = _pauli_masks(axes[rows], n)
        asked = np.bincount(x, minlength=2 ** n)
        for r in rows[asked[x] == 1]:
            buffer[r] = self.column(axes[r])
        present = asked > 1  # only the X-masks asked for two or more axes are transformed
        masks, slot = np.flatnonzero(present), np.where(present, np.cumsum(present) - 1, -1)[x]  # -1: a lone axis
        run = max(1, _SCAN_CHUNK // 2 ** n)
        for first in range(0, masks.size, run):
            w = _transformed_products(self._amplitudes, masks[first:first + run], n)
            at = np.flatnonzero(slot // run == first // run)  # this run's axes
            raw = np.take(w.reshape(-1, self.sample_count), z[at] * w.shape[1] + slot[at] - first, axis=0)
            raw *= (phase if np.iscomplexobj(raw) else phase.real)[at, None]  # in place: no fresh buffer
            buffer[rows[at]] = _expectation_values(raw, self._norm_sq, n)

    def gram(self) -> Gram:
        """The ``Gram`` of the B x 4^n features F from the states, with no B x 4^n matrix.

        F F' is the fidelity kernel: sum_P <P>_x <P>_x' = 2^n |<psi_x|psi_x'>|^2, each entry
        divided by the product of the two squared norms, as the features are, so the diagonal
        is exactly 2^n.  It agrees with the matrix's F F' within rounding (about 3e-12 at n = 8)
        at O(B^2 2^n), not O(B^2 4^n).
        """
        psi, n = self._states, self.qubit_count
        overlaps = np.conj(psi) @ psi.T if np.iscomplexobj(psi) else psi @ psi.T
        norms = np.diag(overlaps).real
        values = 2.0 ** n * (overlaps * np.conj(overlaps)).real / np.outer(norms, norms)
        return Gram.of_kernel(values, self.axis_count, self._mean())

    def _mean(self) -> float:
        """mean(F): each state's 4^n expectations sum to <psi|(I + X + Y + Z)^(x n)|psi> / <psi|psi>,
        n one-qubit passes at O(n 2^n) per state.  The Y factor stays: on real states the strings
        with an even number of Y are not zero."""
        psi = self._states
        summed = psi.astype(np.complex128)
        for q in range(self.qubit_count):  # I + X + Y + Z = [[2, 1 - i], [1 + i, 0]] on qubit q, as in _encode_states
            pairs = summed.reshape(psi.shape[0], 2 ** q, 2, -1)
            lo, hi = pairs[:, :, 0], pairs[:, :, 1]
            lo[...], hi[...] = 2.0 * lo + (1 - 1j) * hi, (1 + 1j) * lo
        sums = np.sum(np.conj(psi) * summed, axis=1).real / self._norm_sq
        return float(np.sum(sums)) / (self.sample_count * self.axis_count)


def pauli_expectation(state, sigma: PauliString) -> float:
    """<psi| sigma |psi> / <psi|psi>: one state's ``PauliFeatures`` column."""
    if np.size(state) != 2 ** sigma.qubit_count:
        raise ValueError("statevector length does not match Pauli string")
    return float(PauliFeatures(np.reshape(state, (1, -1))).column(sigma.index)[0])


def pauli_feature_matrix(dataset: LabeledDataset, spec: EncodingCircuitSpec) -> FeatureMatrix:
    """All 4^n Pauli expectations per sample, columns in Pauli index order."""
    return PauliFeatures.of(dataset, spec).materialize()


# ---------------------------------------------------------------------------
# feature matrix serialization
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<QQQ")  # sample_count, axis_count, flags


def save_feature_matrix(features: FeatureMatrix, path) -> None:
    """Binary layout: header (N, d, flags as little-endian uint64; flags is
    written 0 and ignored on load) then row-major float64 values."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(features.sample_count, features.axis_count, 0))
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
    write_numeric_csv(path, [f"axis_{i}" for i in range(features.axis_count)], features.values)


def feature_matrix_from_csv(path) -> FeatureMatrix:
    _, values = read_numeric_csv(path)
    if values.size == 0:
        raise ValueError("empty dataset: no feature rows in CSV")
    return FeatureMatrix(values)
