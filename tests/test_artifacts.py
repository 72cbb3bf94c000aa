"""The files the package writes, byte for byte, and its four readers that
take a path or the text itself: dataset specs, SVM models, experiment
configs and report CSVs."""

import contextlib

import numpy as np
import pytest

from minacc.axiscore import FeatureMatrix, LabeledDataset
from minacc.datagen import CIRCLES, DatasetSpec, dataset_to_csv, spec_from_json, spec_to_json
from minacc.featmap import feature_matrix_to_csv
from minacc.harness import CSV_HEADER, ExperimentConfig, parse_config, reports_equivalent
from minacc.svmref import SvmModel, model_from_json, model_to_json

SPEC = DatasetSpec(kind=CIRCLES, n_samples=30, seed=5, noise_sigma=0.2)
SPEC_JSON = """\
{
  "center_magnitude": 2.0,
  "cluster_std": 1.0,
  "clusters_per_class": null,
  "informative_features": 2,
  "kind": "circles",
  "n_samples": 30,
  "noise_sigma": 0.2,
  "radius_factor": 0.5,
  "seed": 5
}"""

MODEL = SvmModel(kernel="rbf", gamma=0.5, C=1.0, dual_coef=np.array([0.25, -0.25]), bias=-0.125,
                 support_indices=np.array([0, 2]), support_vectors=np.array([[1.0, 0.0], [0.0, -1.0]]),
                 training_accuracy=0.75, converged=True, n_sweeps=7, duality_gap=1e-09)
MODEL_JSON = """\
{
  "kernel": "rbf",
  "gamma": 0.5,
  "C": 1.0,
  "dual_coef": [
    0.25,
    -0.25
  ],
  "bias": -0.125,
  "support_indices": [
    0,
    2
  ],
  "support_vectors": [
    [
      1.0,
      0.0
    ],
    [
      0.0,
      -1.0
    ]
  ],
  "training_accuracy": 0.75,
  "converged": true,
  "n_sweeps": 7,
  "duality_gap": 1e-09
}"""


def test_spec_json_bytes_are_pinned(tmp_path):
    path = tmp_path / "spec.json"
    assert spec_to_json(SPEC, path) == SPEC_JSON
    assert path.read_bytes() == (SPEC_JSON + "\n").encode()


def test_model_json_bytes_are_pinned(tmp_path):
    path = tmp_path / "model.json"
    assert model_to_json(MODEL, path) == MODEL_JSON
    assert path.read_bytes() == (MODEL_JSON + "\n").encode()


def test_numeric_csv_bytes_are_pinned(tmp_path):
    # floats as repr, so every value reads back exactly; labels as ints
    dataset = LabeledDataset(inputs=np.array([[0.1, -2.5], [1e-300, 3.0]]), labels=np.array([1, -1]))
    dataset_to_csv(dataset, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == b"x_1,x_2,y\r\n0.1,-2.5,1\r\n1e-300,3.0,-1\r\n"
    features = FeatureMatrix(np.array([[0.1, -0.0, 1.5e300], [2.0, 1 / 3, -7.25]]))
    feature_matrix_to_csv(features, tmp_path / "features.csv")
    assert (tmp_path / "features.csv").read_bytes() == (
        b"axis_0,axis_1,axis_2\r\n0.1,-0.0,1.5e+300\r\n2.0,0.3333333333333333,-7.25\r\n")


REPORT_CSV = CSV_HEADER + "\ncircles,deterministic,,0,0.750000,16,exhausted,1.000000,0.500000,1.250000\n"

# reader, the text it reads, and what it should read from it
READERS = {
    "spec_from_json": (spec_from_json, SPEC_JSON, lambda got: got == SPEC),
    "model_from_json": (model_from_json, MODEL_JSON, lambda got: model_to_json(got) == MODEL_JSON),
    "parse_config": (parse_config, "qubit_count = 2\nrepetitions = 1\n",
                     lambda got: got == ExperimentConfig(qubit_count=2, repetitions=1)),
    "reports_equivalent": (lambda source: reports_equivalent(source, REPORT_CSV.replace("1.250000", "9.5")),
                           REPORT_CSV, lambda got: got is True),
}


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("as_path", [True, False], ids=["pathlib.Path", "str"])
def test_readers_take_a_path_or_the_text(tmp_path, name, as_path):
    read, text, expected = READERS[name]
    path = tmp_path / "artifact.txt"
    path.write_text(text)
    assert expected(read(path if as_path else text))
    if not as_path:  # a str is the text, never a file name: it fails to parse or reads as other text
        with contextlib.suppress(ValueError):
            assert not expected(read(str(path)))
