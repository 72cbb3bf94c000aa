"""Tests for the synthetic dataset generators, standardization, and splitting."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from minacc.axiscore import LabeledDataset
from minacc.datagen import (
    CIRCLES,
    DATASET_KINDS,
    LINEAR_SEPARABLE,
    MULTI_CLUSTER,
    DatasetSpec,
    _subsample_quotas,
    dataset_from_csv,
    dataset_to_csv,
    gen_circles,
    gen_linear_separable,
    gen_multi_cluster,
    generate,
    spec_from_json,
    spec_to_json,
    standardize,
    stratified_split,
)
from minacc.svmref import svm_predict, svm_train


def class_counts(ds: LabeledDataset):
    return ds.positive_count, ds.negative_count


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_all_kinds_balanced_and_deterministic():
    for kind in DATASET_KINDS:
        for n in (9, 100):
            spec = DatasetSpec(kind=kind, n_samples=n, seed=5)
            ds = generate(spec)
            assert ds.sample_count == n
            n_plus, n_minus = class_counts(ds)
            assert abs(n_plus - n_minus) <= 1
            again = generate(spec)
            assert np.array_equal(ds.inputs, again.inputs)
            assert np.array_equal(ds.labels, again.labels)
            other = generate(DatasetSpec(kind=kind, n_samples=n, seed=6))
            assert not np.array_equal(ds.inputs, other.inputs)


def test_linear_separable_midpoint_hyperplane():
    # clusters sit at +-2 per coordinate, so sign(sum(x)) is a near-perfect rule
    for seed in range(5):
        ds = gen_linear_separable(DatasetSpec(kind=LINEAR_SEPARABLE, n_samples=1000, seed=seed))
        assert ds.input_dim == 4
        pred = np.where(ds.inputs.sum(axis=1) >= 0, 1, -1)
        assert np.mean(pred == ds.labels) >= 0.99


def test_multi_cluster_has_six_distinct_vertex_centers():
    # shrink the clusters so every sample sits on top of its center
    spec = DatasetSpec(kind=MULTI_CLUSTER, n_samples=600, seed=3, cluster_std=1e-9)
    ds = gen_multi_cluster(spec)
    rounded = np.round(ds.inputs, 6)
    centers = np.unique(rounded, axis=0)
    assert centers.shape == (6, 4)
    assert np.all(np.abs(centers) == 2.0)
    # centers split three per class and do not overlap across classes
    plus = np.unique(rounded[ds.labels == 1], axis=0)
    minus = np.unique(rounded[ds.labels == -1], axis=0)
    assert plus.shape[0] == 3 and minus.shape[0] == 3
    joint = np.unique(np.vstack([plus, minus]), axis=0)
    assert joint.shape[0] == 6


def test_multi_cluster_samples_nearest_own_class_center():
    spec = DatasetSpec(kind=MULTI_CLUSTER, n_samples=600, seed=11, cluster_std=0.3)
    ds = gen_multi_cluster(spec)
    tight = gen_multi_cluster(
        DatasetSpec(kind=MULTI_CLUSTER, n_samples=600, seed=11, cluster_std=1e-9)
    )
    centers = {
        cls: np.unique(np.round(tight.inputs[tight.labels == cls], 6), axis=0)
        for cls in (-1, 1)
    }

    def nearest(points, refs):
        return np.min(np.linalg.norm(points[:, None, :] - refs[None], axis=2), axis=1)

    for cls in (-1, 1):
        pts = ds.inputs[ds.labels == cls]
        own = nearest(pts, centers[cls])
        other = nearest(pts, centers[-cls])
        assert np.mean(own) < np.mean(other)


def test_circles_radii_and_labels():
    # with zero noise every point sits exactly on its circle
    spec = DatasetSpec(kind=CIRCLES, n_samples=200, seed=7, noise_sigma=0.0)
    ds = gen_circles(spec)
    assert ds.input_dim == 2
    radii = np.linalg.norm(ds.inputs, axis=1)
    assert radii[ds.labels == -1] == pytest.approx(np.ones(100), abs=1e-12)
    assert radii[ds.labels == 1] == pytest.approx(np.full(100, 0.5), abs=1e-12)


def test_circles_radius_factor_parameter():
    ds = gen_circles(DatasetSpec(kind=CIRCLES, n_samples=100, seed=1,
                                 noise_sigma=0.0, radius_factor=0.25))
    inner = np.linalg.norm(ds.inputs[ds.labels == 1], axis=1)
    assert inner == pytest.approx(np.full(inner.size, 0.25), abs=1e-12)


def test_circles_resist_linear_classification():
    ds = gen_circles(DatasetSpec(kind=CIRCLES, n_samples=300, seed=4))
    model = svm_train(ds.inputs, ds.labels, kernel="linear", C=1.0, max_iter=60)
    acc = np.mean(svm_predict(model, ds.inputs) == ds.labels)
    assert acc < 0.8


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_default_spec_records_the_shape_of_its_data(kind):
    spec = DatasetSpec(kind=kind, n_samples=12, seed=0)
    assert generate(spec).input_dim == spec.informative_features == (2 if kind == CIRCLES else 4)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown dataset kind"):
        DatasetSpec(kind="moons")
    with pytest.raises(ValueError, match="n_samples"):
        DatasetSpec(kind=CIRCLES, n_samples=3)
    with pytest.raises(ValueError, match="radius_factor"):
        DatasetSpec(kind=CIRCLES, radius_factor=1.5)
    with pytest.raises(ValueError, match="informative_features"):
        DatasetSpec(kind=LINEAR_SEPARABLE, informative_features=0)
    with pytest.raises(ValueError, match="circles have 2 informative features"):
        DatasetSpec(kind=CIRCLES, informative_features=4)
    # checked when the spec is built, not when it is generated
    with pytest.raises(ValueError, match="not enough hypercube vertices for 6 distinct centers"):
        DatasetSpec(kind=MULTI_CLUSTER, informative_features=2, clusters_per_class=3)
    # its centres are drawn by int64 vertex index, so 2^m must fit one
    for m in (63, 64, 70):
        with pytest.raises(ValueError, match=f"^multi_cluster needs informative_features <= 62: {m}$"):
            DatasetSpec(kind=MULTI_CLUSTER, n_samples=10, informative_features=m)
    widest = generate(DatasetSpec(kind=MULTI_CLUSTER, n_samples=10, informative_features=62))
    assert widest.inputs.shape == (10, 62) and sorted(widest.labels.tolist()) == [-1] * 5 + [1] * 5


def test_multi_cluster_spec_records_its_cluster_count():
    assert DatasetSpec(kind=MULTI_CLUSTER).clusters_per_class == 3
    assert DatasetSpec(kind=MULTI_CLUSTER, informative_features=2, clusters_per_class=2).clusters_per_class == 2
    assert '"clusters_per_class": 3' in spec_to_json(DatasetSpec(kind=MULTI_CLUSTER))
    for kind in (LINEAR_SEPARABLE, CIRCLES):  # read by multi_cluster alone
        assert DatasetSpec(kind=kind).clusters_per_class is None


# sha256 prefixes of inputs + labels bytes, pinned before the generators shared one
# class assembly: (kind, seed, n_samples, spec overrides) -> digest
_PINNED_DATASETS = {
    (LINEAR_SEPARABLE, 0, 100, ()): "b587189e0254e028",
    (LINEAR_SEPARABLE, 0, 37, ()): "e5e6667becb4791b",
    (LINEAR_SEPARABLE, 7, 100, ()): "4fb3a8e6f0db4ab0",
    (LINEAR_SEPARABLE, 7, 37, ()): "9edf29e4539d2639",
    (MULTI_CLUSTER, 0, 100, ()): "9b2f7a3c06aa1ff8",
    (MULTI_CLUSTER, 0, 37, ()): "24ba2b918e50f9ba",
    (MULTI_CLUSTER, 7, 100, ()): "3207b2358946ede2",
    (MULTI_CLUSTER, 7, 37, ()): "b092490f28e30b0c",
    (CIRCLES, 0, 100, ()): "0d39cca53d84449c",
    (CIRCLES, 0, 37, ()): "b88a60c843c8431f",
    (CIRCLES, 7, 100, ()): "3be801c38564e344",
    (CIRCLES, 7, 37, ()): "9dbcba11e59d6e85",
    (LINEAR_SEPARABLE, 3, 21, (("informative_features", 3), ("center_magnitude", 1.5))): "40763296ece713a5",
    (MULTI_CLUSTER, 3, 50, (("informative_features", 5), ("clusters_per_class", 4), ("cluster_std", 0.5),
                            ("center_magnitude", 3.0))): "845da756b617dc08",
    (CIRCLES, 3, 33, (("radius_factor", 0.3), ("noise_sigma", 0.05))): "393e5fae202328f5",
}


@pytest.mark.parametrize("case", list(_PINNED_DATASETS))
def test_generated_bytes_are_pinned(case):
    kind, seed, n, overrides = case
    ds = generate(DatasetSpec(kind, n, seed, **dict(overrides)))
    digest = hashlib.sha256(ds.inputs.tobytes() + ds.labels.tobytes()).hexdigest()[:16]
    assert digest == _PINNED_DATASETS[case]


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardize_moments_and_inverse():
    rng = np.random.default_rng(8)
    x = rng.uniform(-3, 9, size=(50, 4)) * np.array([1.0, 10.0, 0.1, 100.0])
    ds = LabeledDataset(inputs=x, labels=np.where(np.arange(50) % 2 == 0, 1, -1))
    out, record = standardize(ds)
    assert out.inputs.mean(axis=0) == pytest.approx(np.zeros(4), abs=1e-10)
    assert out.inputs.std(axis=0) == pytest.approx(np.ones(4), abs=1e-8)
    assert np.array_equal(out.labels, ds.labels)
    assert record.inverse(out.inputs) == pytest.approx(x, abs=1e-8)
    # the fitted transform reproduces the training output on the same rows
    assert np.array_equal(record.transform(x), out.inputs)


def test_standardize_is_idempotent():
    rng = np.random.default_rng(9)
    ds = LabeledDataset(inputs=rng.standard_normal((40, 3)),
                        labels=np.where(np.arange(40) % 2 == 0, 1, -1))
    once, _ = standardize(ds)
    twice, _ = standardize(once)
    assert twice.inputs == pytest.approx(once.inputs, abs=1e-8)


def test_standardize_constant_column():
    x = np.column_stack([np.full(6, 3.7), np.arange(6.0)])
    ds = LabeledDataset(inputs=x, labels=[1, -1, 1, -1, 1, -1])
    out, record = standardize(ds)
    assert np.all(out.inputs[:, 0] == 0.0)
    assert record.scale[0] == 1.0 and record.mean[0] == 3.7


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------

def test_split_sizes_and_subsample():
    ds = generate(DatasetSpec(kind=LINEAR_SEPARABLE, n_samples=1000, seed=2))
    train, test = stratified_split(ds, train_fraction=0.7, subsample_train=100, seed=0)
    assert train.sample_count == 100
    assert test.sample_count == 300
    n_plus, n_minus = class_counts(train)
    assert abs(n_plus - n_minus) <= 1
    t_plus, t_minus = class_counts(test)
    assert abs(t_plus - t_minus) <= 1


def test_split_without_subsample_is_disjoint_cover():
    ds = generate(DatasetSpec(kind=MULTI_CLUSTER, n_samples=200, seed=3))
    train, test = stratified_split(ds, train_fraction=0.7, subsample_train=None, seed=1)
    assert train.sample_count + test.sample_count == 200
    # rows partition the original sample set: every original row appears
    # exactly once across the two sides
    combined = np.vstack([train.inputs, test.inputs])
    order_a = np.lexsort(combined.T)
    order_b = np.lexsort(ds.inputs.T)
    assert np.array_equal(combined[order_a], ds.inputs[order_b])


def test_split_deterministic_and_seed_sensitive():
    ds = generate(DatasetSpec(kind=CIRCLES, n_samples=300, seed=5))
    a1, _ = stratified_split(ds, subsample_train=80, seed=9)
    a2, _ = stratified_split(ds, subsample_train=80, seed=9)
    b, _ = stratified_split(ds, subsample_train=80, seed=10)
    assert np.array_equal(a1.inputs, a2.inputs)
    assert not np.array_equal(a1.inputs, b.inputs)


def test_split_ratio_preserved_when_unbalanced():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((100, 2))
    y = np.concatenate([np.ones(80, dtype=int), -np.ones(20, dtype=int)])
    ds = LabeledDataset(inputs=x, labels=y)
    train, test = stratified_split(ds, train_fraction=0.7, subsample_train=50, seed=0)
    # 4:1 class ratio carries into the subsample within one sample per class
    assert train.positive_count == 40 and train.negative_count == 10
    assert test.positive_count == 24 and test.negative_count == 6


def test_subsample_hands_out_the_remainder_by_largest_share():
    # 1,001 samples split 501/500, so the train split holds [351, 350]; the
    # shares of 100 are 50.07 and 49.93, and the leftover sample goes to the
    # larger remainder, the second class
    assert _subsample_quotas([351, 350], 100) == [50, 50]
    ds = generate(DatasetSpec(kind=CIRCLES, n_samples=1001, seed=0))
    assert class_counts(ds) == (501, 500)
    train, _ = stratified_split(ds, train_fraction=0.7, subsample_train=100, seed=0)
    assert class_counts(train) == (50, 50)


def test_split_errors():
    ds = generate(DatasetSpec(kind=CIRCLES, n_samples=50, seed=0))
    with pytest.raises(ValueError, match="exceeds train split"):
        stratified_split(ds, train_fraction=0.7, subsample_train=40, seed=0)
    with pytest.raises(ValueError, match="train_fraction"):
        stratified_split(ds, train_fraction=1.0, subsample_train=None, seed=0)
    single = LabeledDataset(inputs=np.ones((4, 2)), labels=[1, 1, 1, 1])
    with pytest.raises(ValueError, match="both classes"):
        stratified_split(single, subsample_train=None, seed=0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_dataset_csv_roundtrip(tmp_path):
    ds = generate(DatasetSpec(kind=MULTI_CLUSTER, n_samples=60, seed=12))
    path = tmp_path / "data.csv"
    dataset_to_csv(ds, path)
    loaded = dataset_from_csv(path)
    assert np.array_equal(loaded.inputs, ds.inputs)
    assert np.array_equal(loaded.labels, ds.labels)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["x_1", "x_2", "x_3", "x_4", "y"]


def test_dataset_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="label column"):
        dataset_from_csv(path)


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("x_1,x_2,y\n0.1,0.2,1\n0.3,-1\n", 3),
    ("x_1,y\n0.1,1\n0.2,-1,7\n", 3),
    ("x_1,y\n0.1,1\n\nabc,-1\n", 4),
])
def test_malformed_dataset_csv_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.csv, line {line}:"):
        dataset_from_csv(path)


def test_spec_json_roundtrip(tmp_path):
    spec = DatasetSpec(kind=CIRCLES, n_samples=250, seed=42, noise_sigma=0.2,
                       radius_factor=0.4)
    assert spec_from_json(spec_to_json(spec)) == spec
    path = tmp_path / "spec.json"
    spec_to_json(spec, path)
    assert spec_from_json(path) == spec
    regenerated = generate(spec_from_json(path))
    original = generate(spec)
    assert np.array_equal(regenerated.inputs, original.inputs)


def test_spec_from_json_reads_any_path_as_a_file(tmp_path, monkeypatch):
    # a path is a file to read and a str is JSON text, whatever either begins with
    monkeypatch.chdir(tmp_path)
    spec = DatasetSpec(kind=CIRCLES, n_samples=30, seed=5)
    spec_to_json(spec, Path("{run}.json"))
    assert spec_from_json(Path("{run}.json")) == spec
    with pytest.raises(ValueError):
        spec_from_json("spec.json")
