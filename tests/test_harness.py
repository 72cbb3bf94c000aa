"""Tests for the experiment pipeline, config parsing, and report emission.

Full-scale runs live in the acceptance tests; here everything is shrunk to
d = 16 (qubit_count 2) so the whole pipeline executes in well under a second.
"""

import csv
import dataclasses
import inspect
import io
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from minacc import axiscore, cli, harness
from minacc.axiscore import FeatureMatrix
from minacc.datagen import (
    CIRCLES,
    DATASET_KINDS,
    LINEAR_SEPARABLE,
    MULTI_CLUSTER,
    DatasetSpec,
    dataset_to_csv,
    generate,
    stratified_split,
)
from minacc.featmap import save_feature_matrix
from minacc.harness import (
    CSV_HEADER,
    ExperimentConfig,
    default_datasets,
    derive_seed,
    embed_dataset,
    emit_report,
    parse_config,
    pearson,
    report_to_csv_text,
    reports_equivalent,
    run_estimator,
    run_experiment,
)
from minacc.sampling import (
    EstimatorMethod,
    EstimatorSettings,
    adaptive_estimate,
    conservative_estimate,
    deterministic_estimate,
    pilot_estimate,
    sample_size,
)

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
    "stability_eps": (-1e-3, math.nan),
    "cap_fraction": (0.0, 1.5, math.nan),
    "budget_fraction": (0.0, 1.5, math.nan),
    "qubit_count": (0, 2.5),
    "repetitions": (0, 2.5),
    "train_fraction": (0.0, 1.0, math.nan),
    "subsample_train": (1, 0, 5000, 2.5),  # the default train split holds 700 rows
    "svm_c": (0.0, -1.0, math.nan),
    "svm_tol": (0.0, -1e-3, math.nan),
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
    features = embed_dataset(data, "proxy", 2, seed=0)
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

    monkeypatch.setattr(harness, "r_min_deterministic", broken_scan)
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


def test_run_experiment_is_deterministic(tmp_path):
    config = small_config(tmp_path)
    a = run_experiment(config)
    b = run_experiment(config)
    assert reports_equivalent(report_to_csv_text(a), report_to_csv_text(b))
    dict_a, dict_b = asdict(a), asdict(b)
    for d in (dict_a, dict_b):
        for row in d["rows"]:
            row.pop("wall_ms")
        d.pop("timings")  # wall clock, like wall_ms
    assert dict_a == dict_b


def test_report_times_every_stage_per_dataset(tmp_path):
    report = run_experiment(small_config(tmp_path))
    (path,) = emit_report(report, fmt="json")
    with open(path) as fh:
        timings = json.load(fh)["timings"]
    assert timings == report.timings
    assert set(timings) == {CIRCLES, LINEAR_SEPARABLE, MULTI_CLUSTER}
    for stages in timings.values():
        assert set(stages) == {"embed_s", "svm_s", "scan_s"}
        assert all(isinstance(s, float) and s >= 0.0 for s in stages.values())
    det_rows = [r for r in report.rows if r.method == "deterministic"]
    assert [r.wall_ms for r in det_rows] == [timings[r.dataset]["scan_s"] * 1000.0 for r in det_rows]


@pytest.mark.parametrize("cores", [1, 3])
def test_report_records_the_threads_of_the_exact_path(tmp_path, monkeypatch, cores):
    monkeypatch.setattr(axiscore, "_CORES", cores)
    report = run_experiment(small_config(tmp_path, datasets=(LINEAR_SEPARABLE,)))
    (path,) = emit_report(report, fmt="json")
    with open(path) as fh:
        assert json.load(fh)["exact_path_threads"] == cores


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
