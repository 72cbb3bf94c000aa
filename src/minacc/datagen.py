"""Synthetic binary datasets, standardization, and stratified splitting.

Three generators with qualitatively different geometry:

* ``linear_separable``: one Gaussian cluster per class at antipodal
  hypercube vertices, cleanly separable;
* ``multi_cluster``: three Gaussian clusters per class at distinct hypercube
  vertices, partially axis-aligned;
* ``circles``: two concentric noisy circles, intrinsically non-linear.

A generator writes only ``draw(label, count)``, the rows of one class; one class
assembly sizes the classes by ``balanced_counts``, draws them in the generator's order,
then labels, stacks and shuffles them.  Everything is deterministic per seed, and any
dataset can be rebuilt from its JSON spec alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .axiscore import Checked, LabeledDataset, Rule, check, read_text, write_text

LINEAR_SEPARABLE = "linear_separable"
MULTI_CLUSTER = "multi_cluster"
CIRCLES = "circles"
DATASET_KINDS = (LINEAR_SEPARABLE, MULTI_CLUSTER, CIRCLES)
_SPLIT_RULES = dict(train_fraction=Rule.OPEN_UNIT, subsample_train=Rule.COUNT)


@dataclass(frozen=True)
class DatasetSpec(Checked):
    """Everything needed to reproduce a synthetic dataset."""

    kind: str
    n_samples: int = 1000
    seed: int = 0
    informative_features: int | None = None  # default: 2 (circles, the only value), 4 (the others)
    clusters_per_class: int | None = None  # read by multi_cluster alone, whose default is 3
    noise_sigma: float = 0.1
    radius_factor: float = 0.5
    center_magnitude: float = 2.0
    cluster_std: float = 1.0

    _RULES = dict(n_samples=Rule.integer_at_least(4), seed=Rule.integer_at_least(0), informative_features=Rule.COUNT,
                  clusters_per_class=Rule.optional(Rule.COUNT), radius_factor=Rule.OPEN_UNIT,
                  noise_sigma=Rule.NON_NEGATIVE, center_magnitude=Rule.FINITE, cluster_std=Rule.POSITIVE)

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}; choose from {DATASET_KINDS}")
        if self.informative_features is None:
            object.__setattr__(self, "informative_features", 2 if self.kind == CIRCLES else 4)
        if self.kind == MULTI_CLUSTER and self.clusters_per_class is None:
            object.__setattr__(self, "clusters_per_class", 3)
        super().__post_init__()
        if self.kind == CIRCLES and self.informative_features != 2:
            raise ValueError("circles have 2 informative features, the plane's coordinates")
        if self.kind == MULTI_CLUSTER and self.informative_features > 62:  # a vertex is drawn by its int64 index
            raise ValueError(f"multi_cluster needs informative_features <= 62: {self.informative_features}")
        if self.kind == MULTI_CLUSTER and 2 * self.clusters_per_class > 2 ** self.informative_features:
            raise ValueError(f"not enough hypercube vertices for {2 * self.clusters_per_class} distinct centers")


def balanced_counts(n: int) -> tuple[int, int]:
    """(positives, negatives) of every generated dataset of n samples, differing by at most one."""
    return n - n // 2, n // 2


def _assembled(rng: np.random.Generator, n: int, draw, order=(1, -1)) -> LabeledDataset:
    """The classes of ``balanced_counts(n)``, each drawn by ``draw(label, count)``
    in ``order``, then labelled, stacked and shuffled by ``rng``."""
    count = dict(zip((1, -1), balanced_counts(n)))
    inputs = np.vstack([draw(label, count[label]) for label in order])
    labels = np.concatenate([np.full(count[label], label, dtype=np.int64) for label in order])
    perm = rng.permutation(inputs.shape[0])
    return LabeledDataset(inputs=inputs[perm], labels=labels[perm])


def gen_linear_separable(spec: DatasetSpec) -> LabeledDataset:
    """Two unit-covariance Gaussian clusters at antipodal hypercube vertices
    (+-center_magnitude per coordinate), balanced classes, no label noise."""
    rng = np.random.default_rng(spec.seed)
    m = spec.informative_features
    center = np.full(m, spec.center_magnitude)
    return _assembled(rng, spec.n_samples, lambda label, count: rng.standard_normal((count, m)) + label * center)


def gen_multi_cluster(spec: DatasetSpec) -> LabeledDataset:
    """Three unit-covariance Gaussian clusters per class, centers drawn without
    replacement from the hypercube vertices {-c, +c}^m before either class;
    points go round-robin to their class's clusters."""
    rng = np.random.default_rng(spec.seed)
    m, per_class = spec.informative_features, spec.clusters_per_class
    vertex_ids = rng.choice(2 ** m, size=2 * per_class, replace=False)
    signs = ((vertex_ids[:, None] >> np.arange(m)) & 1) * 2 - 1
    centers = signs * spec.center_magnitude
    class_centers = {1: centers[:per_class], -1: centers[per_class:]}

    def draw(label, count):
        noise = rng.standard_normal((count, m)) * spec.cluster_std
        return class_centers[label][np.arange(count) % per_class] + noise

    return _assembled(rng, spec.n_samples, draw)


def gen_circles(spec: DatasetSpec) -> LabeledDataset:
    """Concentric circles in the plane: outer radius 1 (label -1, drawn first), inner
    radius ``radius_factor`` (label +1), uniform angles, additive Gaussian noise."""
    rng = np.random.default_rng(spec.seed)

    def draw(label, count):
        theta = rng.uniform(0.0, 2.0 * math.pi, count)
        pts = (spec.radius_factor if label == 1 else 1.0) * np.column_stack([np.cos(theta), np.sin(theta)])
        return pts + rng.standard_normal((count, 2)) * spec.noise_sigma

    return _assembled(rng, spec.n_samples, draw, order=(-1, 1))


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
    check(_SPLIT_RULES, train_fraction=train_fraction)
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
        check(_SPLIT_RULES, subsample_train=subsample_train)
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
    header = [f"x_{j + 1}" for j in range(dataset.input_dim)] + ["y"]
    write_numeric_csv(path, header, dataset.inputs, dataset.labels)


def write_numeric_csv(path, header, rows, *int_columns) -> None:
    """``header``, then each row's floats as ``repr`` followed by its entry of
    each of ``int_columns`` as an int: the layout ``read_numeric_csv`` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, *ints in zip(rows, *int_columns):
            writer.writerow([repr(float(v)) for v in row] + [int(i) for i in ints])


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
    return write_text(json.dumps(asdict(spec), indent=2, sort_keys=True), path)


def spec_from_json(source) -> DatasetSpec:
    """From JSON, with ``source`` taken as ``read_text`` takes it."""
    return DatasetSpec(**json.loads(read_text(source)))
