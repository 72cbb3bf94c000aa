"""Tests for the experiment pipeline, config parsing, and report emission.

Full-scale runs live in the acceptance tests; here everything is shrunk to
d = 16 (qubit_count 2) so the whole pipeline executes in well under a second.
"""

import csv
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from minacc import axiscore, cli, featmap, harness, svmref
from minacc.axiscore import FeatureMatrix, Orientation, ThresholdClassifier
from minacc.datagen import (
    CIRCLES,
    DATASET_KINDS,
    LINEAR_SEPARABLE,
    MULTI_CLUSTER,
    DatasetSpec,
    dataset_to_csv,
    generate,
    spec_from_json,
    stratified_split,
)
from minacc.featmap import EncodingCircuitSpec, PauliString, ProjectionSpec, save_feature_matrix
from minacc.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    default_datasets,
    derive_seed,
    embed_dataset,
    emit_report,
    parse_config,
    pearson,
    report_to_csv_text,
    reports_equivalent,
    reproducible,
    run_estimator,
    run_experiment,
)
from minacc.sampling import (
    CoverageQuery,
    EstimatorMethod,
    EstimatorSettings,
    adaptive_estimate,
    conservative_estimate,
    deterministic_estimate,
    pilot_estimate,
    sample_size,
)
from minacc.svmref import svm_train

SMALL = dict(
    qubit_count=2,          # d = 16
    n_pilot=8,
    cap_fraction=0.5,
    batch_size=8,
    patience=2,
    budget_fraction=1.0,
    repetitions=2,
    p_values=(0.25, 0.5),
    subsample_train=30,
    master_seed=0,
    n_samples=60,
)


def small_config(tmp_path, **overrides):
    kwargs = dict(SMALL)
    kwargs["output_dir"] = str(tmp_path / "results")
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# seeds and defaults
# ---------------------------------------------------------------------------

def test_derive_seed_is_stable_and_cell_specific():
    a = derive_seed(0, "circles", "conservative", 0.25, 3)
    assert a == derive_seed(0, "circles", "conservative", 0.25, 3)
    assert 0 <= a < 2**63
    others = {
        derive_seed(0, "circles", "conservative", 0.25, 4),
        derive_seed(0, "circles", "conservative", 0.15, 3),
        derive_seed(0, "circles", "pilot", 0.25, 3),
        derive_seed(0, "multi_cluster", "conservative", 0.25, 3),
        derive_seed(1, "circles", "conservative", 0.25, 3),
    }
    assert a not in others and len(others) == 5


def test_default_datasets_trio():
    specs = default_datasets(master_seed=7, n_samples=250)
    kinds = [s.kind for s in specs]
    assert kinds == [LINEAR_SEPARABLE, MULTI_CLUSTER, CIRCLES]
    assert all(s.n_samples == 250 for s in specs)
    by_kind = {s.kind: s for s in specs}
    assert by_kind[CIRCLES].informative_features == 2
    assert by_kind[LINEAR_SEPARABLE].informative_features == 4
    assert by_kind[CIRCLES].seed == derive_seed(7, CIRCLES, "datagen")


def test_config_validation():
    with pytest.raises(ValueError, match="embedding"):
        ExperimentConfig(embedding="fourier")
    with pytest.raises(ValueError, match="qubit_count"):
        ExperimentConfig(qubit_count=0)
    with pytest.raises(ValueError, match="<= 8"):
        ExperimentConfig(embedding="pauli", qubit_count=9)
    # either embedding builds the N x 4^n matrix: 100 x 4^12 float64 would be 13.4 GB
    for embedding in ("proxy", "pauli"):
        for qubits in (9, 12):
            with pytest.raises(ValueError, match="^dense simulation limit: qubit_count must be <= 8$"):
                ExperimentConfig(embedding=embedding, qubit_count=qubits)
    assert ExperimentConfig(qubit_count=8).qubit_count == 8
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig(methods=("deterministic", "oracle"))
    with pytest.raises(ValueError, match="repetitions"):
        ExperimentConfig(repetitions=0)
    # dataset kinds and sizes are checked when the config is built, not when it runs
    with pytest.raises(ValueError, match="unknown dataset kind 'moons'"):
        ExperimentConfig(datasets=("moons",))
    with pytest.raises(ValueError, match="kind twice"):
        ExperimentConfig(datasets=("circles", "circles"))
    with pytest.raises(ValueError, match="n_samples"):
        ExperimentConfig(n_samples=3)
    # estimator settings too: a repeat would write its rows twice, and a p out
    # of range would fail only after the embedding, SVMs and scan ran
    with pytest.raises(ValueError, match="p value twice"):
        ExperimentConfig(p_values=(0.25, 0.25))
    with pytest.raises(ValueError, match="method twice"):
        ExperimentConfig(methods=("conservative", "conservative"))
    for p in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="p_values"):
            ExperimentConfig(p_values=(0.05, p))
    with pytest.raises(ValueError, match="p_values"):
        ExperimentConfig(p_values=(), methods=("deterministic", "conservative"))
    assert ExperimentConfig(p_values=(), methods=("pilot",)).p_values == ()
    assert ExperimentConfig(p_values=(1.0,), delta=0.5).p_values == (1.0,)


# out-of-range values of every numeric setting; each would otherwise fail, or
# be ignored, only after the embedding, the SVMs and the scan had run
OUT_OF_RANGE = {
    "delta": (0.0, 1.0, 1.5, -0.05, math.nan),
    "n_pilot": (0, -1, 2.5),
    "batch_size": (0, 2.5),
    "patience": (0, 2.5),
    "stability_eps": (-1e-3, math.nan, math.inf),
    "cap_fraction": (0.0, 1.5, math.nan),
    "budget_fraction": (0.0, 1.5, math.nan),
    "qubit_count": (0, 2.5),
    "repetitions": (0, 2.5),
    "train_fraction": (0.0, 1.0, math.nan),
    "subsample_train": (1, 0, 5000, 2.5),  # the default train split holds 700 rows
    "svm_c": (0.0, -1.0, math.nan, math.inf),
    "svm_tol": (0.0, -1e-3, math.nan, math.inf),
    "svm_max_iter": (0, -3, 2.5),
}
ESTIMATORS = {
    EstimatorMethod.CONSERVATIVE.value: conservative_estimate,
    EstimatorMethod.PILOT.value: pilot_estimate,
    EstimatorMethod.ADAPTIVE.value: adaptive_estimate,
}
SETTING_NAMES = [f.name for f in dataclasses.fields(EstimatorSettings)]


def config_error(name, value) -> str:
    with pytest.raises(ValueError, match=f"^{name} must") as exc:
        ExperimentConfig(**{name: value})
    return str(exc.value)


def estimators_taking(name):
    return [method for method, estimator in ESTIMATORS.items()
            if name in inspect.signature(estimator).parameters]


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_every_setting_is_checked_when_the_config_is_built(name):
    for value in OUT_OF_RANGE[name]:
        config_error(name, value)


SPLIT_DATA = generate(DatasetSpec(CIRCLES, 40, seed=0))
SVM_X = np.linspace(-1.0, 1.0, 20)[:, None]
SVM_Y = np.where(SVM_X[:, 0] > 0.0, 1, -1)
# library calls with a value that breaks its rule; each must fail naming its key
# before it builds, fits or splits (an infinite tol fits as "converged" at once, an
# infinite C returns a NaN duality gap)
REJECTED_CALLS = {
    "svm tol inf": ("tol", lambda: svm_train(SVM_X, SVM_Y, tol=math.inf)),
    "svm C inf": ("C", lambda: svm_train(SVM_X, SVM_Y, C=math.inf)),
    "svm gamma inf": ("gamma", lambda: svm_train(SVM_X, SVM_Y, kernel="rbf", gamma=math.inf)),
    "svm gamma nan": ("gamma", lambda: svm_train(SVM_X, SVM_Y, kernel="rbf", gamma=math.nan)),
    "split subsample -3": ("subsample_train", lambda: stratified_split(SPLIT_DATA, subsample_train=-3)),
    "split subsample 2.5": ("subsample_train", lambda: stratified_split(SPLIT_DATA, subsample_train=2.5)),
    "projection feature_dim 2.5": ("feature_dim", lambda: ProjectionSpec(input_dim=2, feature_dim=2.5, seed=0)),
    "projection seed 2.5": ("seed", lambda: ProjectionSpec(input_dim=2, feature_dim=4, seed=2.5)),
    "coverage d 2.5": ("d", lambda: CoverageQuery(d=2.5, p=0.5, t=1)),
    "dataset n_samples 4.5": ("n_samples", lambda: DatasetSpec(CIRCLES, 4.5)),
}

# a bad clusters_per_class failed inside generate (0: IndexError, -1: "negative dimensions
# are not allowed"), and center_magnitude and rotation_scale took NaN and infinities
for _name, _values, _build in (
    ("clusters_per_class", (0, -1, 2.5), lambda v: DatasetSpec(MULTI_CLUSTER, 12, clusters_per_class=v)),
    ("center_magnitude", (math.nan, math.inf, -math.inf), lambda v: DatasetSpec(LINEAR_SEPARABLE, center_magnitude=v)),
    ("rotation_scale", (math.nan, math.inf, -math.inf), lambda v: EncodingCircuitSpec(2, rotation_scale=v)),
    # a float or negative dataset seed built and failed inside generate; a float or boolean
    # master seed ran as int(v)
    ("seed", (2.5, -1, True), lambda v: DatasetSpec(CIRCLES, 40, seed=v)),
    ("master_seed", (2.5, True), lambda v: ExperimentConfig(master_seed=v)),
):
    for _value in _values:
        REJECTED_CALLS[f"{_name} {_value}"] = (_name, functools.partial(_build, _value))


@pytest.mark.parametrize("case", sorted(REJECTED_CALLS))
def test_library_calls_check_each_value_by_its_rule(case):
    name, call = REJECTED_CALLS[case]
    with pytest.raises(ValueError, match=f"^{name} must "):
        call()


def test_a_negative_master_seed_still_derives_every_seed():
    config = ExperimentConfig(master_seed=-7)
    assert config.master_seed == -7
    assert [spec.seed for spec in default_datasets(-7)] == [derive_seed(-7, kind, "datagen") for kind in DATASET_KINDS]


# True and False are integers to isinstance(v, numbers.Integral); a flag in an integer
# field is an error naming the field, as a boolean axis index is, not a 1 or a 0 that
# builds (and in a dataset spec then fails inside generate)
BOOLEAN_INTEGERS = {}
for _label, _build, _defaults, _names in (
    ("config", ExperimentConfig, {}, ("n_samples", "qubit_count", "repetitions", "subsample_train", "svm_max_iter",
                                      "n_pilot", "batch_size", "patience")),
    ("settings", EstimatorSettings, {}, ("n_pilot", "batch_size", "patience")),
    ("projection", ProjectionSpec, dict(input_dim=2, feature_dim=4, seed=0), ("input_dim", "feature_dim", "seed")),
    ("circuit", EncodingCircuitSpec, dict(qubit_count=2), ("qubit_count", "layers")),
    ("coverage", CoverageQuery, dict(d=4, p=0.5, t=0), ("d", "t")),
    ("split", functools.partial(stratified_split, SPLIT_DATA), {}, ("subsample_train",)),
    ("json", lambda **fields: spec_from_json(json.dumps(fields)),
     dict(kind=MULTI_CLUSTER, n_samples=100, informative_features=4, clusters_per_class=2),
     ("n_samples", "informative_features", "clusters_per_class")),
):
    for _name in _names:
        BOOLEAN_INTEGERS[f"{_label} {_name}"] = (_name, functools.partial(
            lambda build, defaults, name, value: build(**{**defaults, name: value}), _build, _defaults, _name))


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("case", sorted(BOOLEAN_INTEGERS))
def test_integer_fields_reject_booleans(case, flag):
    name, build = BOOLEAN_INTEGERS[case]
    with pytest.raises(ValueError, match=f"^{name} must "):
        build(flag)


def test_subsample_train_may_take_the_whole_train_split():
    # the bound is the split's own per-class rounding, for every kind and odd sizes
    for n_samples, train_fraction in ((61, 0.7), (45, 0.5), (1000, 0.7), (9, 0.35)):
        for kind in DATASET_KINDS:
            data = generate(DatasetSpec(kind, n_samples, seed=3))
            train, _ = stratified_split(data, train_fraction=train_fraction, subsample_train=None)
            size = train.sample_count
            config = ExperimentConfig(datasets=(kind,), n_samples=n_samples,
                                      train_fraction=train_fraction, subsample_train=size)
            assert config.subsample_train == size
            with pytest.raises(ValueError, match=rf"^subsample_train must .*\[2, {size}\]"):
                dataclasses.replace(config, subsample_train=size + 1)
    assert ExperimentConfig(subsample_train=2).subsample_train == 2
    assert ExperimentConfig(subsample_train=None).subsample_train is None


@pytest.mark.parametrize("name", SETTING_NAMES)
def test_estimators_check_each_setting_by_the_config_rule(name):
    # the same rule, and the same message, from a library call as from a config
    rng = np.random.default_rng(31)
    features = FeatureMatrix(values=rng.uniform(size=(12, 16)))
    labels = np.array([1, -1] * 6)
    assert estimators_taking(name)
    for value in OUT_OF_RANGE[name]:
        message = config_error(name, value)
        with pytest.raises(ValueError) as exc:
            EstimatorSettings(**{name: value})
        assert str(exc.value) == message
        for method in estimators_taking(name):
            keywords = {name: value, "rng_seed": 0}
            if method == EstimatorMethod.CONSERVATIVE.value:
                keywords["p_conservative"] = 0.25
                keywords.setdefault("delta", EstimatorSettings.delta)
            with pytest.raises(ValueError) as exc:
                ESTIMATORS[method](features, labels, **keywords)
            assert str(exc.value) == message, method
        if name == "delta":
            with pytest.raises(ValueError) as exc:
                sample_size(0.25, value)
            assert str(exc.value) == message


@pytest.fixture(scope="module")
def minacc_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("minacc")
    data = generate(DatasetSpec(CIRCLES, 40, seed=3))
    features = embed_dataset(data, "proxy", 2, seed=0).materialize()
    dataset_to_csv(data, folder / "data.csv")
    save_feature_matrix(features, folder / "features.bin")
    return ["--features", str(folder / "features.bin"), "--data", str(folder / "data.csv")]


@pytest.mark.parametrize("name", SETTING_NAMES)
def test_minacc_flags_check_each_setting_by_the_config_rule(name, minacc_files, capsys):
    flag = "--" + name.replace("_", "-")
    for value in OUT_OF_RANGE[name]:
        message = config_error(name, value)
        for method in estimators_taking(name):
            argv = ["minacc", *minacc_files, "--method", method, f"{flag}={value}"]
            if isinstance(getattr(EstimatorSettings, name), int) and not isinstance(value, int):
                with pytest.raises(SystemExit) as exc:  # argparse reads the flag by its type
                    cli.main(argv)
                assert exc.value.code == 2
                capsys.readouterr()
                continue
            assert cli.main(argv) == 1, (method, value)
            assert capsys.readouterr().err == f"error: {message}\n"


def test_run_estimator_forwards_every_setting_by_name():
    settings = dict(delta=0.1, n_pilot=7, cap_fraction=0.5, batch_size=5, patience=2,
                    stability_eps=0.01, budget_fraction=0.75)
    assert sorted(settings) == sorted(SETTING_NAMES)
    assert all(value != getattr(EstimatorSettings, name) for name, value in settings.items())
    config = ExperimentConfig(**settings)
    rng = np.random.default_rng(32)
    features = FeatureMatrix(values=rng.uniform(size=(30, 256)))
    labels = np.where(rng.uniform(size=30) < 0.5, 1, -1)
    p, seed = 0.25, 3
    direct = {
        "deterministic": deterministic_estimate(features, labels),
        "conservative": conservative_estimate(features, labels, p_conservative=p, delta=0.1,
                                              rng_seed=seed),
        "pilot": pilot_estimate(features, labels, n_pilot=7, delta=0.1, cap_fraction=0.5,
                                rng_seed=seed),
        "adaptive": adaptive_estimate(features, labels, batch_size=5, patience=2, stability_eps=0.01,
                                      budget_fraction=0.75, rng_seed=seed),
    }

    def fields_of(result):
        return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
                if f.name != "axis_accuracies"} | {"accuracies": result.axis_accuracies.tolist()}

    for method, expected in direct.items():
        assert fields_of(run_estimator(method, features, labels, p, config, seed)) == fields_of(expected)
        # and the settings matter: the defaults give another run
        if method != "deterministic":
            default = run_estimator(method, features, labels, p, EstimatorSettings(), seed)
            assert fields_of(default) != fields_of(expected), method
    with pytest.raises(ValueError, match="unknown estimator method"):
        run_estimator("oracle", features, labels, p, config, seed)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_defaults_and_overrides():
    config = parse_config(
        """
        # comment-only lines are skipped
        qubit_count = 4
        methods = deterministic, conservative
        p_values = [0.05, 0.25]     # trailing comment
        subsample_train = none
        embedding = 'proxy'
        master_seed = 3
        """
    )
    assert config.qubit_count == 4
    assert config.methods == ("deterministic", "conservative")
    assert config.p_values == (0.05, 0.25)
    assert config.subsample_train is None
    assert config.master_seed == 3
    # untouched keys keep their defaults
    assert config.delta == 0.05 and config.repetitions == 10
    assert config.datasets == DATASET_KINDS and config.n_samples == 1000


def test_parse_config_datasets_and_n_samples():
    # (the default subsample of 100 rows needs n_samples >= 143)
    config = parse_config("datasets = circles\nn_samples = 150\nmaster_seed = 5")
    assert config.datasets == (CIRCLES,) and config.n_samples == 150
    # n_samples alone keeps the default trio
    trio = parse_config("n_samples = 200")
    assert trio.datasets == DATASET_KINDS and trio.n_samples == 200


def test_parse_config_rejects_unknown_keys_and_bad_lines():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("qubits = 4")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config("qubit_count = 2\njust some words\n")
    with pytest.raises(ValueError, match="unknown dataset kind"):
        parse_config("datasets = moons")
    # a value its key's type cannot read names the line and the key
    with pytest.raises(ValueError, match=r"^config line 1: subsample_train: .*'50\.0'"):
        parse_config("subsample_train = 50.0")
    with pytest.raises(ValueError, match=r"^config line 2: n_pilot: .*'1e2'"):
        parse_config("qubit_count = 2\nn_pilot = 1e2")


def test_empty_dataset_list_is_rejected():
    with pytest.raises(ValueError, match="datasets"):
        ExperimentConfig(datasets=())
    with pytest.raises(ValueError, match="datasets"):
        parse_config("datasets =\nqubit_count = 2")


def test_docstring_key_table_is_the_default_config():
    table = [line for line in harness.__doc__.splitlines() if re.match(r"^ {4}\w+ +=", line)]
    keys = {line.split("=")[0].strip() for line in table}
    assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert parse_config("\n".join(table)) == ExperimentConfig()


# a value unlike the default for every ExperimentConfig field: (config text, parsed value)
NON_DEFAULTS = {
    "datasets": ("circles", (CIRCLES,)),
    "n_samples": ("120", 120),
    "qubit_count": ("3", 3),
    "embedding": ("pauli", "pauli"),
    "methods": ("pilot, adaptive", ("pilot", "adaptive")),
    "p_values": ("[0.5]", (0.5,)),
    "delta": ("0.5", 0.5),
    "n_pilot": ("7", 7),
    "cap_fraction": ("0.5", 0.5),
    "batch_size": ("8", 8),
    "patience": ("5", 5),
    "stability_eps": ("0.01", 0.01),
    "budget_fraction": ("0.5", 0.5),
    "repetitions": ("2", 2),
    "master_seed": ("9", 9),
    "train_fraction": ("0.5", 0.5),
    "subsample_train": ("none", None),
    "svm_c": ("3", 3.0),              # an integer given for a float key
    "svm_tol": ("0.01", 0.01),
    "svm_max_iter": ("50", 50),
    "output_dir": ("'out/run'", "out/run"),
}


def test_parse_config_reads_every_field_by_its_type():
    assert set(NON_DEFAULTS) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    config = parse_config("\n".join(f"{key} = {text}" for key, (text, _) in NON_DEFAULTS.items()))
    default = ExperimentConfig()
    for key, (_, expected) in NON_DEFAULTS.items():
        value = getattr(config, key)
        assert value == expected and value != getattr(default, key), key
        pairs = zip(value, expected) if isinstance(expected, tuple) else [(value, expected)]
        assert all(type(got) is type(want) for got, want in pairs), key


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("qubit_count = 2\nrepetitions = 1\n")
    config = parse_config(path)
    assert config.qubit_count == 2 and config.repetitions == 1


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def test_run_experiment_small_full_grid(tmp_path):
    config = small_config(tmp_path)
    report = run_experiment(config)
    assert report.errors == []

    kinds = config.datasets
    assert sorted(report.r_min) == sorted(kinds)
    assert sorted(report.embedded_svm) == sorted(kinds)
    assert sorted(report.raw_svm) == sorted(kinds)
    assert sorted(report.survival) == sorted(kinds)
    assert sorted(report.majority_rate) == sorted(kinds)

    # row inventory: 1 deterministic + 2 p-cells x 2 reps + pilot x 2 + adaptive x 2
    for kind in kinds:
        rows = [r for r in report.rows if r.dataset == kind]
        by_method = {}
        for r in rows:
            by_method.setdefault(r.method, []).append(r)
        assert len(by_method["deterministic"]) == 1
        assert len(by_method["conservative"]) == 4
        assert len(by_method["pilot"]) == 2
        assert len(by_method["adaptive"]) == 2

        det = by_method["deterministic"][0]
        assert det.r_hat == report.r_min[kind]
        # the sentinel cut gives every axis the majority count
        assert 0.5 <= report.majority_rate[kind] <= report.r_min[kind]
        assert det.axes_evaluated == 16
        assert det.stop_reason == "exhausted"

        for r in rows:
            if r.method == "deterministic":
                continue
            assert r.r_hat <= report.r_min[kind]
            assert 1 <= r.axes_evaluated <= 16
            assert r.stop_reason != ""
            assert r.svm_linear == report.embedded_svm[kind]["linear"]
            assert r.svm_rbf == report.embedded_svm[kind]["rbf"]

    assert set(report.correlation) == {"r_min_vs_svm_linear", "r_min_vs_svm_rbf"}
    for kind in kinds:
        fits = report.svm_fits[kind]
        assert {source: set(models) for source, models in fits.items()} == {
            "embedded": {"linear", "rbf"}, "raw": {"linear", "rbf"}
        }
        for models in fits.values():
            assert all(fit["converged"] and 1 <= fit["sweeps"] < config.svm_max_iter
                       and fit["duality_gap"] >= 0.0 for fit in models.values())


def test_deterministic_row_leads_wherever_listed(tmp_path):
    report = run_experiment(small_config(tmp_path, methods=("conservative", "deterministic")))
    assert report.errors == [] and len(report.r_min) == 3
    for kind in report.r_min:
        methods = [r.method for r in report.rows if r.dataset == kind]
        assert methods == ["deterministic"] + ["conservative"] * 4


def test_scan_failure_keeps_svm_baselines(tmp_path, monkeypatch):
    def broken_scan(features, labels):
        raise FloatingPointError("scan exploded")

    monkeypatch.setattr(harness, "ScannedFeatures", broken_scan)
    config = small_config(tmp_path)
    report = run_experiment(config)
    assert report.rows == [] and report.r_min == {}
    kinds = config.datasets
    assert sorted(report.embedded_svm) == sorted(report.raw_svm) == sorted(kinds)
    assert report.errors == [
        {"dataset": kind, "stage": "deterministic", "message": "scan exploded",
         "type": "FloatingPointError"}
        for kind in kinds
    ]


def test_a_failing_embedding_ends_only_its_dataset(tmp_path, monkeypatch):
    def embed_all_but_circles(train, embedding, qubit_count, seed):
        if seed == derive_seed(0, CIRCLES, "embed"):
            raise MemoryError("no room for the embedding")
        return embed_dataset(train, embedding, qubit_count, seed)

    monkeypatch.setattr(harness, "embed_dataset", embed_all_but_circles)
    config = small_config(tmp_path, methods=("deterministic",))
    report = run_experiment(config)
    assert report.errors == [
        {"dataset": CIRCLES, "stage": "pipeline", "message": "no room for the embedding", "type": "MemoryError"}]
    assert report.timings[CIRCLES] == {} and CIRCLES in report.majority_rate
    others = [kind for kind in config.datasets if kind != CIRCLES]
    assert sorted(report.r_min) == sorted(report.embedded_svm) == sorted(others)
    assert [row.dataset for row in report.rows] == others
    assert all("embed_s" in report.timings[kind] for kind in others)


def test_unconverged_baselines_are_reported(tmp_path):
    # one iteration cannot converge on 30 rows; the accuracies and the gap
    # that the returned point leaves are still reported
    report = run_experiment(small_config(tmp_path, methods=(), svm_max_iter=1))
    assert report.errors == [] and len(report.svm_fits) == 3
    for kind, fits in report.svm_fits.items():
        assert set(report.embedded_svm[kind]) == {"linear", "rbf"}
        for models in fits.values():
            assert all(fit["converged"] is False and fit["sweeps"] == 1 and fit["duality_gap"] > 0.0
                       for fit in models.values())


def _refuse_pauli_matrices(monkeypatch, axis_count):
    """Make every Gram, kernel or gamma read of an N x ``axis_count`` matrix raise, and so a Pauli
    matrix built by ``pauli_feature_matrix`` or a source's ``materialize``, or a split's states
    encoded a second time."""
    for owner, name in ((svmref.Gram, "of"), (svmref, "kernel_matrix"), (svmref, "resolve_gamma")):
        original = getattr(owner, name)

        def guarded(*args, _original=original, _name=name):
            if any(np.ndim(a) == 2 and np.shape(a)[1] == axis_count for a in args):
                raise AssertionError(f"{_name} read the N x {axis_count} feature matrix")
            return _original(*args)

        monkeypatch.setattr(owner, name, staticmethod(guarded) if owner is svmref.Gram else guarded)

    def refuse(*args):
        raise AssertionError("built the Pauli feature matrix")

    for owner, name in ((featmap, "pauli_feature_matrix"), (harness, "pauli_feature_matrix"),
                        (featmap.PauliFeatures, "materialize")):
        monkeypatch.setattr(owner, name, refuse)
    encoded, encode = set(), featmap._encode_states

    def encode_once(inputs, spec):
        key = (np.asarray(inputs).tobytes(), spec)
        if key in encoded:
            raise AssertionError("encoded the same split twice")
        encoded.add(key)
        return encode(inputs, spec)

    monkeypatch.setattr(featmap, "_encode_states", encode_once)
    return encoded


@pytest.mark.parametrize("qubits", [6, 8])
def test_pauli_baselines_read_the_states_not_the_matrix(tmp_path, monkeypatch, qubits):
    # the fidelity kernel of the states gives the matrix path's accuracies and sweeps
    config = ExperimentConfig(embedding="pauli", qubit_count=qubits, methods=(), output_dir=str(tmp_path))
    with monkeypatch.context() as patch:
        _refuse_pauli_matrices(patch, 4 ** qubits)
        report = run_experiment(config)
    assert report.errors == [] and sorted(report.embedded_svm) == sorted(DATASET_KINDS)
    for kind in DATASET_KINDS:
        train = harness._training_split(kind, config)
        features = embed_dataset(train, "pauli", qubits, seed=0).materialize().values
        for kernel in ("linear", "rbf"):
            model = svm_train(features, train.labels, kernel=kernel)
            fit = report.svm_fits[kind]["embedded"][kernel]
            assert report.embedded_svm[kind][kernel] == model.training_accuracy
            assert (fit["sweeps"], fit["converged"]) == (model.n_sweeps, model.converged)
            assert fit["duality_gap"] == pytest.approx(model.duality_gap, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize("qubits", [6, 8])
def test_a_pauli_experiment_builds_no_matrix_and_encodes_each_split_once(tmp_path, monkeypatch, qubits):
    # the scan, the witness, every estimator cell and the baselines read one source per dataset
    config = ExperimentConfig(embedding="pauli", qubit_count=qubits, repetitions=2, output_dir=str(tmp_path))
    with monkeypatch.context() as patch:
        encoded = _refuse_pauli_matrices(patch, 4 ** qubits)

        def no_matrix(self):
            raise AssertionError(f"built a {self.values.shape} FeatureMatrix")

        patch.setattr(FeatureMatrix, "__post_init__", no_matrix)
        report = run_experiment(config)
    assert report.errors == [] and len(encoded) == len(DATASET_KINDS)
    assert sorted(report.r_min) == sorted(report.witness) == sorted(DATASET_KINDS)
    assert len(report.rows) == len(DATASET_KINDS) * (1 + 5 * config.repetitions)


def test_pauli_baselines_do_not_depend_on_the_matrix_layout(tmp_path, monkeypatch):
    # the run's embedded Grams read no matrix, yet are bit for bit the fidelity kernel with the
    # matrix's mean, summed axis-major, in either layout: the same Grams and fits
    config = ExperimentConfig(embedding="pauli", qubit_count=2, methods=(), output_dir=str(tmp_path))
    grams = []

    def spy(gram, *args, **kwargs):
        grams.append((gram.values.tobytes(), gram.squared_norms.tobytes(), gram.scale_gamma))
        return svm_train(gram, *args, **kwargs)

    monkeypatch.setattr(harness, "svm_train", spy)
    report = run_experiment(config)
    assert report.errors == [] and len(grams) == 4 * len(DATASET_KINDS)
    for k, kind in enumerate(DATASET_KINDS):  # per dataset: embedded linear, rbf, then raw linear, rbf
        train = harness._training_split(kind, config)
        source = embed_dataset(train, "pauli", 2, seed=0)
        matrix = source.materialize().values
        assert matrix.flags.f_contiguous
        for layout in (np.ascontiguousarray, np.asfortranarray):
            mean = float(np.ascontiguousarray(layout(matrix).T).mean())
            gram = svmref.Gram.of_kernel(source.gram().values, 16, mean)
            expected = (gram.values.tobytes(), gram.squared_norms.tobytes(), gram.scale_gamma)
            assert grams[4 * k:4 * k + 2] == [expected, expected]
            for kernel in ("linear", "rbf"):
                model, fit = svm_train(gram, train.labels, kernel=kernel), report.svm_fits[kind]["embedded"][kernel]
                assert report.embedded_svm[kind][kernel] == model.training_accuracy
                assert fit == dict(converged=model.converged, sweeps=model.n_sweeps, duality_gap=model.duality_gap)


def test_estimator_cells_look_up_the_scan_counts(tmp_path, monkeypatch):
    # only the exhaustive scan sweeps columns; every row is still the
    # estimate a standalone call on the plain features gives
    config = small_config(tmp_path, embedding="pauli")
    sweeps, cell_sweeps = [], []
    best_counts = axiscore.best_counts

    def counted(*args):
        sweeps.append(args)
        return best_counts(*args)

    def spied(*args):
        before = len(sweeps)
        result = run_estimator(*args)
        cell_sweeps.append(len(sweeps) - before)
        return result

    monkeypatch.setattr(axiscore, "best_counts", counted)
    monkeypatch.setattr(harness, "run_estimator", spied)
    report = run_experiment(config)
    sampled = [r for r in report.rows if r.method != "deterministic"]
    assert report.errors == [] and sweeps
    assert len(cell_sweeps) == len(sampled) == 3 * 4 * config.repetitions
    assert set(cell_sweeps) == {0}
    for kind in config.datasets:
        train = harness._training_split(kind, config)
        features = embed_dataset(train, "pauli", config.qubit_count, seed=0)
        for row in (r for r in sampled if r.dataset == kind):
            seed = derive_seed(config.master_seed, kind, row.method, row.p, row.rep)
            direct = run_estimator(row.method, features, train.labels, row.p, config, seed)
            assert (row.r_hat, row.axes_evaluated, row.stop_reason) == (
                direct.r_hat, direct.axes_evaluated, direct.stopping_reason.value)


def test_a_doctored_scan_count_is_a_cell_error(tmp_path, monkeypatch):
    # every count raised by one: each estimator's winner misses its count
    class Doctored(harness.ScannedFeatures):
        def __init__(self, features, labels):
            super().__init__(features, labels)
            self.counts += 1

    monkeypatch.setattr(harness, "ScannedFeatures", Doctored)
    config = small_config(tmp_path, datasets=(CIRCLES,))
    report = run_experiment(config)
    assert [r.method for r in report.rows] == ["deterministic"]
    assert len(report.errors) == 4 * config.repetitions
    assert {(e["stage"], e["type"]) for e in report.errors} == {
        (m, "RuntimeError") for m in ("conservative", "pilot", "adaptive")}


def test_an_estimate_above_r_min_is_a_cell_error(tmp_path, monkeypatch):
    def inflated(method, *args):
        result = run_estimator(method, *args)
        return dataclasses.replace(result, r_hat=result.r_hat + 1.0) if method == "adaptive" else result

    monkeypatch.setattr(harness, "run_estimator", inflated)
    config = small_config(tmp_path, datasets=(CIRCLES,))
    report = run_experiment(config)
    assert "adaptive" not in {row.method for row in report.rows}
    assert len(report.rows) == 1 + 3 * config.repetitions  # deterministic, two conservative p values, pilot
    r_min = report.r_min[CIRCLES]
    assert [(e["stage"], e["rep"], e["type"]) for e in report.errors] == [
        ("adaptive", rep, "RuntimeError") for rep in range(config.repetitions)]
    assert all(e["message"].endswith(f"exceeds exhaustive value {r_min}") for e in report.errors)
    assert report.timings[CIRCLES]["adaptive_s"] > 0.0


def test_proxy_baselines_read_the_matrix(tmp_path, monkeypatch):
    # the guard above sees a matrix read: the proxy experiment's fits make one
    _refuse_pauli_matrices(monkeypatch, 16)
    report = run_experiment(small_config(tmp_path, methods=()))
    assert [(e["stage"], e["type"]) for e in report.errors] == [("svm", "AssertionError")] * 3


# sha256 of the n = 4 Pauli report.json below (default config, repetitions 2,
# master seed 0), computed before the scan record kept integer counts, less
# what a run or machine may vary: timings, svm_fits (their duality gaps move
# with the BLAS thread count), config.output_dir, exact_path_threads and each
# row's wall_ms
_PINNED_PAULI_REPORT = "fca6e109c20e5aa93dc670c2abf4da841490e5a860badfddbde41adeb0fcbdd5"


def test_pauli_report_is_pinned(tmp_path):
    # any R_min, witness, survival value, estimate or SVM accuracy that moves fails this
    config = ExperimentConfig(embedding="pauli", qubit_count=4, repetitions=2, master_seed=0,
                              output_dir=str(tmp_path / "results"))
    [path] = emit_report(run_experiment(config), fmt="json")
    with open(path) as fh:
        report = json.load(fh)
    assert report["errors"] == []
    pinned = reproducible(report)
    del pinned["svm_fits"]  # the duality gaps move with the BLAS thread count
    assert hashlib.sha256(json.dumps(pinned, indent=2).encode()).hexdigest() == _PINNED_PAULI_REPORT


def test_run_experiment_is_deterministic(tmp_path):
    config = small_config(tmp_path)
    a = run_experiment(config)
    b = run_experiment(config)
    assert reports_equivalent(report_to_csv_text(a), report_to_csv_text(b))
    assert reproducible(asdict(a)) == reproducible(asdict(b))


def test_report_times_every_stage_per_dataset(tmp_path):
    report = run_experiment(small_config(tmp_path))
    (path,) = emit_report(report, fmt="json")
    with open(path) as fh:
        timings = json.load(fh)["timings"]
    assert timings == report.timings
    assert set(timings) == {CIRCLES, LINEAR_SEPARABLE, MULTI_CLUSTER}
    sampled = ("conservative", "pilot", "adaptive")
    for dataset, stages in timings.items():
        assert set(stages) == {"embed_s", "svm_s", "scan_s", *(f"{m}_s" for m in sampled)}
        assert all(isinstance(s, float) and s >= 0.0 for s in stages.values())
        for method in sampled:  # a method's stage is the sum of its cells
            cells = [r.wall_ms for r in report.rows if (r.dataset, r.method) == (dataset, method)]
            assert stages[f"{method}_s"] * 1000.0 == pytest.approx(sum(cells))
    det_rows = [r for r in report.rows if r.method == "deterministic"]
    assert [r.wall_ms for r in det_rows] == [timings[r.dataset]["scan_s"] * 1000.0 for r in det_rows]
    # only the methods that ran are timed
    pilot_only = run_experiment(small_config(tmp_path, methods=("pilot",), datasets=(CIRCLES,)))
    assert set(pilot_only.timings[CIRCLES]) == {"embed_s", "svm_s", "scan_s", "pilot_s"}


@pytest.mark.parametrize("embedding", ["pauli", "proxy"])
def test_the_reported_witness_reaches_r_min(tmp_path, embedding):
    # the rule report.json names, applied to the embedded train split, gets
    # exactly its correct_count right, and that count over N is R_min
    config = small_config(tmp_path, embedding=embedding, methods=("deterministic",))
    (path,) = emit_report(run_experiment(config), fmt="json")
    with open(path) as fh:
        report = json.load(fh)
    assert report["errors"] == [] and set(report["witness"]) == set(config.datasets)
    for kind, witness in report["witness"].items():
        train = harness._training_split(kind, config)
        seed = derive_seed(config.master_seed, kind, "embed")
        features = embed_dataset(train, embedding, config.qubit_count, seed)
        rule = ThresholdClassifier(witness["axis"], witness["threshold"], Orientation(witness["orientation"]))
        assert int(np.sum(rule.predict(features) == train.labels)) == witness["correct_count"]
        assert witness["sample_count"] == train.sample_count
        assert witness["correct_count"] / witness["sample_count"] == report["r_min"][kind]
        if embedding == "pauli":  # the letters spell the axis, one per qubit
            assert PauliString(witness["axis"], witness["pauli"]).qubit_count == config.qubit_count
        else:
            assert witness["pauli"] is None


@pytest.mark.parametrize("cores", [1, 3])
def test_report_records_the_threads_of_the_exact_path(tmp_path, monkeypatch, cores):
    monkeypatch.setattr(axiscore, "_CORES", cores)
    report = run_experiment(small_config(tmp_path, datasets=(LINEAR_SEPARABLE,)))
    (path,) = emit_report(report, fmt="json")
    with open(path) as fh:
        assert json.load(fh)["exact_path_threads"] == cores


def test_a_six_qubit_pauli_experiment_never_starts_the_pool(tmp_path, monkeypatch):
    # at n = 6 the Pauli build, the scan and every sampled batch are one task each, run inline
    monkeypatch.setattr(axiscore, "_CORES", 2)
    monkeypatch.setattr(axiscore, "_POOL", None)
    report = run_experiment(small_config(tmp_path, embedding="pauli", qubit_count=6, repetitions=1))
    assert report.errors == [] and axiscore._POOL is None


def test_run_experiment_seed_changes_results(tmp_path):
    a = run_experiment(small_config(tmp_path / "a"))
    b = run_experiment(small_config(tmp_path / "b", master_seed=1))
    assert not reports_equivalent(report_to_csv_text(a), report_to_csv_text(b))


def test_replaced_master_seed_reaches_the_datasets(tmp_path):
    # every seed, the datasets' included, follows master_seed at run time
    replaced = run_experiment(dataclasses.replace(small_config(tmp_path), master_seed=5))
    fresh = run_experiment(small_config(tmp_path, master_seed=5))
    assert reports_equivalent(report_to_csv_text(replaced), report_to_csv_text(fresh))


def test_run_experiment_records_cell_errors_and_continues(tmp_path, monkeypatch):
    # every pilot cell fails; everything else runs
    def failing_pilot(*args, **kwargs):
        raise ValueError("n_pilot must be >= 1")

    monkeypatch.setattr(harness, "pilot_estimate", failing_pilot)
    config = small_config(tmp_path)
    report = run_experiment(config)
    assert all(e["stage"] == "pilot" for e in report.errors)
    assert all(e["type"] == "ValueError" for e in report.errors)
    assert len(report.errors) == 3 * config.repetitions
    assert all("n_pilot" in e["message"] for e in report.errors)
    methods_seen = {r.method for r in report.rows}
    assert "pilot" not in methods_seen
    assert {"deterministic", "conservative", "adaptive"} <= methods_seen


def test_default_estimators_run_where_d_is_below_n_pilot():
    # d = 64 < n_pilot = 100: the pilot scans every axis instead of failing
    config = ExperimentConfig(qubit_count=3)
    report = run_experiment(config)
    assert report.errors == []
    pilot_rows = [r for r in report.rows if r.method == "pilot"]
    assert len(pilot_rows) == len(config.datasets) * config.repetitions
    assert all(r.axes_evaluated == 64 and r.stop_reason == "exhausted" and r.r_hat == report.r_min[r.dataset]
               for r in pilot_rows)


def test_run_experiment_baselines_only(tmp_path):
    config = small_config(tmp_path, methods=())
    report = run_experiment(config)
    assert report.r_min == {} and report.survival == {}
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.method == "baseline"
        assert row.r_hat is None and row.axes_evaluated == 0
        assert 0.0 <= row.svm_linear <= 1.0
    # no r_hat to aggregate: report.csv holds the header and the three rows
    lines = list(csv.DictReader(io.StringIO(report_to_csv_text(report))))
    assert [(line["method"], line["rep"], line["r_hat"]) for line in lines] == [("baseline", "0", "")] * 3


def test_rerun_with_fewer_training_rows_recomputes_r_min(tmp_path):
    # A rerun in the same output_dir on other training rows must not reuse
    # anything from the first run: same R_min as a fresh directory, and no
    # estimate flagged as exceeding it.
    run_experiment(small_config(tmp_path / "shared", subsample_train=30))
    rerun = run_experiment(small_config(tmp_path / "shared", subsample_train=12))
    fresh = run_experiment(small_config(tmp_path / "fresh", subsample_train=12))
    assert rerun.errors == []
    assert rerun.r_min == fresh.r_min


def test_pearson_edge_cases():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
    assert pearson([1, 1, 1], [2, 4, 6]) is None
    assert pearson([1], [2]) is None
    assert pearson([1, 2], [1, 2, 3]) is None


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_csv_layout(tmp_path):
    config = small_config(tmp_path)
    report = run_experiment(config)
    text = report_to_csv_text(report)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER

    parsed = list(csv.reader(io.StringIO(text)))[1:]
    assert all(len(fields) == 10 for fields in parsed)
    # per dataset: det + 2p x 2rep + pilot x2 + adaptive x2 = 9 rows,
    # aggregates: 3 stats x (det + 2 conservative cells + pilot + adaptive)
    assert len(parsed) == 3 * (9 + 3 * 5)
    six_dec = re.compile(r"^\d+\.\d{6}$")
    for fields in parsed:
        for value in (fields[4], fields[7], fields[8]):
            if value:
                assert six_dec.match(value), value
    # aggregate rows carry the stat label in the rep column
    labels = {fields[3] for fields in parsed}
    assert {"mean", "min", "max"} <= labels


def test_aggregate_rows_recompute_mean(tmp_path):
    config = small_config(tmp_path)
    report = run_experiment(config)
    parsed = list(csv.reader(io.StringIO(report_to_csv_text(report))))[1:]
    target = [f for f in parsed if f[:4] == ["circles", "conservative", "0.250000", "mean"]]
    assert len(target) == 1
    reps = [
        r.r_hat
        for r in report.rows
        if r.dataset == "circles" and r.method == "conservative" and r.p == 0.25
    ]
    assert len(reps) == 2
    assert target[0][4] == f"{np.mean(reps):.6f}"


def test_emit_csv_and_survival_files(tmp_path):
    config = small_config(tmp_path)
    report = run_experiment(config)
    written = emit_report(report, fmt="csv")
    names = {p.split("/")[-1] for p in written}
    assert "report.csv" in names
    assert {f"survival_{kind}.csv" for kind in config.datasets} <= names
    surv_path = [p for p in written if "survival_circles" in p][0]
    with open(surv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eta", "survival"]
    values = [float(v) for _, v in rows[1:]]
    assert values == sorted(values, reverse=True)  # survival is non-increasing
    assert values[0] == 1.0


def test_emit_json_roundtrip(tmp_path):
    config = small_config(tmp_path)
    report = run_experiment(config)
    (path,) = emit_report(report, fmt="json")
    with open(path) as fh:
        loaded = json.load(fh)
    expected = asdict(report)
    # JSON writes the config's tuples as arrays; the config reads back equal
    assert ExperimentConfig(**loaded.pop("config")) == report.config
    expected.pop("config")
    assert loaded == expected
    assert loaded["svm_fits"] == report.svm_fits
    with pytest.raises(ValueError, match="format"):
        emit_report(report, fmt="yaml")


PINNED_CSV = """\
dataset,method,p,rep,r_hat,axes_evaluated,stop_reason,svm_linear,svm_rbf,wall_ms
circles,deterministic,,0,0.750000,16,exhausted,1.000000,0.500000,1.250000
circles,conservative,0.250000,0,0.666667,12,fixed_size_reached,1.000000,0.500000,0.500000
circles,conservative,0.250000,1,0.700000,12,fixed_size_reached,1.000000,0.500000,0.125000
circles,deterministic,,mean,0.750000,16.000000,,1.000000,0.500000,1.250000
circles,deterministic,,min,0.750000,16.000000,,1.000000,0.500000,1.250000
circles,deterministic,,max,0.750000,16.000000,,1.000000,0.500000,1.250000
circles,conservative,0.250000,mean,0.683333,12.000000,,1.000000,0.500000,0.312500
circles,conservative,0.250000,min,0.666667,12.000000,,1.000000,0.500000,0.125000
circles,conservative,0.250000,max,0.700000,12.000000,,1.000000,0.500000,0.500000
"""


def test_emitted_report_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the config, and so report.json, names a relative output_dir
    rows = [ReportRow("circles", "deterministic", None, 0, 0.75, 16, "exhausted", 1.0, 0.5, 1.25),
            ReportRow("circles", "conservative", 0.25, 0, 2 / 3, 12, "fixed_size_reached", 1.0, 0.5, 0.5),
            ReportRow("circles", "conservative", 0.25, 1, 0.7, 12, "fixed_size_reached", 1.0, 0.5, 0.125)]
    report = ExperimentReport(
        config=ExperimentConfig(datasets=("circles",), repetitions=2, output_dir="out"), rows=rows,
        r_min={"circles": 0.75}, majority_rate={"circles": 0.5},
        survival={"circles": {"thresholds": [0.5, 0.75], "values": [1.0, 0.0625]}},
        embedded_svm={"circles": {"linear": 1.0, "rbf": 0.5}}, raw_svm={"circles": {"linear": 0.5, "rbf": 1.0}},
        svm_fits={"circles": {"embedded": {"linear": {"converged": True, "sweeps": 9, "duality_gap": 3.3e-08}}}},
        timings={"circles": {"embed_s": 0.25, "svm_s": 0.03125}}, exact_path_threads=2)
    emit_report(report, fmt="csv")
    emit_report(report, fmt="json")
    assert (tmp_path / "out" / "report.csv").read_bytes() == PINNED_CSV.encode()
    # report.json is the streaming encoder's text, byte for byte
    with open(tmp_path / "streamed.json", "w") as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")
    assert (tmp_path / "out" / "report.json").read_bytes() == (tmp_path / "streamed.json").read_bytes()


def test_reports_equivalent_ignores_wall_clock(tmp_path):
    config = small_config(tmp_path)
    report = run_experiment(config)
    text = report_to_csv_text(report)
    doctored = []
    for i, line in enumerate(text.strip().split("\n")):
        if i == 0:
            doctored.append(line)
        else:
            doctored.append(line.rsplit(",", 1)[0] + ",999.000000")
    assert reports_equivalent(text, "\n".join(doctored) + "\n")
    # but a real field difference is caught
    mutated = text.replace("circles", "rings", 1)
    assert not reports_equivalent(text, mutated)


def test_reports_equivalent_reads_paths_and_one_line_text(tmp_path):
    header_only = CSV_HEADER + "\n"
    path = tmp_path / "report.csv"
    path.write_text(header_only)
    assert reports_equivalent(path, header_only.strip())
    assert not reports_equivalent(path, header_only.replace("wall_ms", "x,wall_ms"))
