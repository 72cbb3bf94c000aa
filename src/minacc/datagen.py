"""Synthetic binary datasets, standardization, and stratified splitting.

Three generators with qualitatively different geometry:

* ``linear_separable``: one Gaussian cluster per class at antipodal
  hypercube vertices, cleanly separable;
* ``multi_cluster``: three Gaussian clusters per class at distinct hypercube
  vertices, partially axis-aligned;
* ``circles``: two concentric noisy circles, intrinsically non-linear.

Everything is deterministic per seed, and any dataset can be rebuilt from
its JSON spec alone.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .axiscore import LabeledDataset

LINEAR_SEPARABLE = "linear_separable"
MULTI_CLUSTER = "multi_cluster"
CIRCLES = "circles"
DATASET_KINDS = (LINEAR_SEPARABLE, MULTI_CLUSTER, CIRCLES)


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to reproduce a synthetic dataset."""

    kind: str
    n_samples: int = 1000
    seed: int = 0
    informative_features: int | None = None  # default: 2 (circles, the only value), 4 (the others)
    clusters_per_class: int | None = None  # default: 1 (linear), 3 (multi_cluster)
    noise_sigma: float = 0.1
    radius_factor: float = 0.5
    center_magnitude: float = 2.0
    cluster_std: float = 1.0

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}; choose from {DATASET_KINDS}")
        if self.informative_features is None:
            object.__setattr__(self, "informative_features", 2 if self.kind == CIRCLES else 4)
        if self.kind == CIRCLES and self.informative_features != 2:
            raise ValueError("circles have 2 informative features, the plane's coordinates")
        if self.n_samples < 4:
            raise ValueError("n_samples must be >= 4")
        if self.informative_features < 1:
            raise ValueError("informative_features must be >= 1")
        if not 0.0 < self.radius_factor < 1.0:
            raise ValueError("radius_factor must lie in (0, 1)")
        if self.noise_sigma < 0.0 or self.cluster_std <= 0.0:
            raise ValueError("noise/cluster scales must be positive")


def balanced_counts(n: int) -> tuple[int, int]:
    """(positives, negatives) of every generated dataset of n samples, differing by at most one."""
    return n - n // 2, n // 2


def _shuffled(inputs: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> LabeledDataset:
    perm = rng.permutation(inputs.shape[0])
    return LabeledDataset(inputs=inputs[perm], labels=labels[perm])


def gen_linear_separable(spec: DatasetSpec) -> LabeledDataset:
    """Two unit-covariance Gaussian clusters at antipodal hypercube vertices
    (+-center_magnitude per coordinate), balanced classes, no label noise."""
    rng = np.random.default_rng(spec.seed)
    m = spec.informative_features
    n_plus, n_minus = balanced_counts(spec.n_samples)
    center = np.full(m, spec.center_magnitude)
    x_plus = rng.standard_normal((n_plus, m)) + center
    x_minus = rng.standard_normal((n_minus, m)) - center
    inputs = np.vstack([x_plus, x_minus])
    labels = np.concatenate([np.ones(n_plus, dtype=np.int64), -np.ones(n_minus, dtype=np.int64)])
    return _shuffled(inputs, labels, rng)


def gen_multi_cluster(spec: DatasetSpec) -> LabeledDataset:
    """Three unit-covariance Gaussian clusters per class, centers drawn without
    replacement from the hypercube vertices {-c, +c}^m; points go round-robin
    to their class's clusters."""
    rng = np.random.default_rng(spec.seed)
    m = spec.informative_features
    per_class = spec.clusters_per_class if spec.clusters_per_class is not None else 3
    n_vertices = 2 ** m
    if 2 * per_class > n_vertices:
        raise ValueError(f"not enough hypercube vertices for {2 * per_class} distinct centers")

    vertex_ids = rng.choice(n_vertices, size=2 * per_class, replace=False)
    signs = ((vertex_ids[:, None] >> np.arange(m)) & 1) * 2 - 1
    centers = signs * spec.center_magnitude
    plus_centers, minus_centers = centers[:per_class], centers[per_class:]

    n_plus, n_minus = balanced_counts(spec.n_samples)
    rows, labels = [], []
    for count, cls_centers, label in ((n_plus, plus_centers, 1), (n_minus, minus_centers, -1)):
        assignment = np.arange(count) % per_class
        noise = rng.standard_normal((count, m)) * spec.cluster_std
        rows.append(cls_centers[assignment] + noise)
        labels.append(np.full(count, label, dtype=np.int64))
    return _shuffled(np.vstack(rows), np.concatenate(labels), rng)


def gen_circles(spec: DatasetSpec) -> LabeledDataset:
    """Concentric circles in the plane: outer radius 1 (label -1), inner radius
    ``radius_factor`` (label +1), uniform angles, additive Gaussian noise."""
    rng = np.random.default_rng(spec.seed)
    n_inner, n_outer = balanced_counts(spec.n_samples)
    rows, labels = [], []
    for count, radius, label in ((n_outer, 1.0, -1), (n_inner, spec.radius_factor, 1)):
        theta = rng.uniform(0.0, 2.0 * math.pi, count)
        pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
        pts = pts + rng.standard_normal((count, 2)) * spec.noise_sigma
        rows.append(pts)
        labels.append(np.full(count, label, dtype=np.int64))
    return _shuffled(np.vstack(rows), np.concatenate(labels), rng)


_GENERATORS = {
    LINEAR_SEPARABLE: gen_linear_separable,
    MULTI_CLUSTER: gen_multi_cluster,
    CIRCLES: gen_circles,
}


def generate(spec: DatasetSpec) -> LabeledDataset:
    return _GENERATORS[spec.kind](spec)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardizeRecord:
    """Per-column affine transform fitted by ``standardize``; apply it to
    held-out data with ``transform``."""

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, inputs: np.ndarray) -> np.ndarray:
        return (np.asarray(inputs, dtype=np.float64) - self.mean) / self.scale

    def inverse(self, inputs: np.ndarray) -> np.ndarray:
        return np.asarray(inputs, dtype=np.float64) * self.scale + self.mean


def standardize(dataset: LabeledDataset) -> tuple[LabeledDataset, StandardizeRecord]:
    """Column-wise zero mean, unit population variance; constant columns keep
    scale 1 and map to exact zeros."""
    x = dataset.inputs
    mean = x.mean(axis=0)
    constant = np.ptp(x, axis=0) == 0.0
    mean = np.where(constant, x[0], mean)  # exact zeros for constant columns
    scale = x.std(axis=0)
    scale = np.where(constant | (scale == 0.0), 1.0, scale)
    record = StandardizeRecord(mean=mean, scale=scale)
    return LabeledDataset(inputs=record.transform(x), labels=dataset.labels), record


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------

def _subsample_quotas(class_sizes: list[int], total: int) -> list[int]:
    # largest-remainder apportionment: quotas sum to total, each within one
    # sample of the exact proportional share
    grand = sum(class_sizes)
    exact = [total * c / grand for c in class_sizes]
    base = [math.floor(e) for e in exact]
    leftover = total - sum(base)
    order = sorted(range(len(exact)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def train_counts(class_sizes, train_fraction: float) -> list[int]:
    """Train rows per class of a stratified split: each class's share, rounded."""
    return [int(round(train_fraction * size)) for size in class_sizes]


def stratified_split(
    dataset: LabeledDataset,
    train_fraction: float = 0.7,
    subsample_train: int | None = 100,
    seed=0,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Per-class train/test split, then an optional stratified subsample of the
    train side to exactly ``subsample_train`` points (class ratio within one
    sample).  Deterministic per seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    labels = dataset.labels
    members_per_class = [np.flatnonzero(labels == cls) for cls in (-1, 1)]
    sizes = [members.size for members in members_per_class]
    if 0 in sizes:
        raise ValueError("both classes must be present for a stratified split")

    rng = np.random.default_rng(seed)
    train_per_class: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for members, n_train in zip(members_per_class, train_counts(sizes, train_fraction)):
        perm = rng.permutation(members.size)
        train_per_class.append(members[perm[:n_train]])
        test_parts.append(members[perm[n_train:]])

    if subsample_train is not None:
        n_train_total = sum(part.size for part in train_per_class)
        if subsample_train > n_train_total:
            raise ValueError(
                f"subsample of {subsample_train} exceeds train split of {n_train_total}"
            )
        quotas = _subsample_quotas([part.size for part in train_per_class], subsample_train)
        train_per_class = [part[:q] for part, q in zip(train_per_class, quotas)]

    train_idx = np.sort(np.concatenate(train_per_class))
    test_idx = np.sort(np.concatenate(test_parts))
    train = LabeledDataset(inputs=dataset.inputs[train_idx], labels=labels[train_idx])
    test = LabeledDataset(inputs=dataset.inputs[test_idx], labels=labels[test_idx])
    return train, test


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dataset_to_csv(dataset: LabeledDataset, path) -> None:
    """Columns x_1..x_m then y."""
    m = dataset.input_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j + 1}" for j in range(m)] + ["y"])
        for row, label in zip(dataset.inputs, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows (one array row per non-blank line) of a CSV.
    Malformed input raises ValueError naming the file and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}, line 1: no header row")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, header has {len(header)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
    return header, np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))


def dataset_from_csv(path) -> LabeledDataset:
    header, table = read_numeric_csv(path)
    if header[-1] != "y":
        raise ValueError("dataset CSV must end with a 'y' label column")
    return LabeledDataset(inputs=table[:, :-1], labels=table[:, -1].astype(np.int64))


def spec_to_json(spec: DatasetSpec, path=None) -> str:
    text = json.dumps(asdict(spec), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def spec_from_json(source) -> DatasetSpec:
    """From a path (os.PathLike: the file is read) or JSON text (str)."""
    text = source
    if isinstance(source, os.PathLike):
        with open(source) as fh:
            text = fh.read()
    return DatasetSpec(**json.loads(text))
