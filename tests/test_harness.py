"""Tests for the experiment pipeline, config parsing, and report emission.

Full-scale runs live in the acceptance tests; here everything is shrunk to
d = 16 (qubit_count 2) so the whole pipeline executes in well under a second.
"""

import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest

from minacc import axiscore, harness
from minacc.datagen import CIRCLES, LINEAR_SEPARABLE, MULTI_CLUSTER, DatasetSpec
from minacc.harness import (
    CSV_HEADER,
    ExperimentConfig,
    default_datasets,
    derive_seed,
    emit_report,
    parse_config,
    pearson,
    report_to_csv_text,
    report_to_dict,
    reports_equivalent,
    run_experiment,
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
)


def small_config(tmp_path, **overrides):
    kwargs = dict(SMALL)
    kwargs["datasets"] = default_datasets(kwargs["master_seed"], n_samples=60)
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
    assert ExperimentConfig(qubit_count=3).axis_count == 64


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
    assert config.qubit_count == 4 and config.axis_count == 256
    assert config.methods == ("deterministic", "conservative")
    assert config.p_values == (0.05, 0.25)
    assert config.subsample_train is None
    assert config.master_seed == 3
    # untouched keys keep their defaults
    assert config.delta == 0.05 and config.repetitions == 10
    # dataset seeds follow the master seed
    assert config.datasets[0].seed == derive_seed(3, LINEAR_SEPARABLE, "datagen")


def test_parse_config_datasets_and_n_samples():
    config = parse_config("datasets = circles\nn_samples = 120\nmaster_seed = 5")
    assert len(config.datasets) == 1
    spec = config.datasets[0]
    assert spec.kind == CIRCLES and spec.n_samples == 120
    assert spec.seed == derive_seed(5, CIRCLES, "datagen")
    # n_samples alone rebuilds the default trio at the new size
    trio = parse_config("n_samples = 80")
    assert [s.n_samples for s in trio.datasets] == [80, 80, 80]


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
    assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)} | {"n_samples"}
    assert parse_config("\n".join(table)) == ExperimentConfig()


# a value unlike the default for every ExperimentConfig field: (config text, parsed value)
NON_DEFAULTS = {
    "datasets": ("circles", (CIRCLES,)),
    "qubit_count": ("3", 3),
    "embedding": ("pauli", "pauli"),
    "methods": ("pilot, adaptive", ("pilot", "adaptive")),
    "p_values": ("[0.5]", (0.5,)),
    "delta": ("1", 1.0),              # an integer given for a float key
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
    "svm_c": ("2.5", 2.5),
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
        if key == "datasets":
            assert value == tuple(s for s in default_datasets(9) if s.kind in expected)
            continue
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

    kinds = [s.kind for s in config.datasets]
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
    kinds = [s.kind for s in config.datasets]
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
    dict_a, dict_b = report_to_dict(a), report_to_dict(b)
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
    report = run_experiment(small_config(tmp_path, datasets=default_datasets(0, n_samples=60)[:1]))
    (path,) = emit_report(report, fmt="json")
    with open(path) as fh:
        assert json.load(fh)["exact_path_threads"] == cores


def test_run_experiment_seed_changes_results(tmp_path):
    a = run_experiment(small_config(tmp_path / "a"))
    b_conf = small_config(
        tmp_path / "b", master_seed=1, datasets=default_datasets(1, n_samples=60)
    )
    b = run_experiment(b_conf)
    assert not reports_equivalent(report_to_csv_text(a), report_to_csv_text(b))


def test_run_experiment_records_cell_errors_and_continues(tmp_path):
    # n_pilot larger than d makes every pilot cell fail; everything else runs
    config = small_config(tmp_path, n_pilot=100)
    report = run_experiment(config)
    assert all(e["stage"] == "pilot" for e in report.errors)
    assert all(e["type"] == "ValueError" for e in report.errors)
    assert len(report.errors) == 3 * config.repetitions
    assert all("n_pilot" in e["message"] for e in report.errors)
    methods_seen = {r.method for r in report.rows}
    assert "pilot" not in methods_seen
    assert {"deterministic", "conservative", "adaptive"} <= methods_seen


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
    assert {f"survival_{s.kind}.csv" for s in config.datasets} <= names
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
    assert loaded == report_to_dict(report)
    assert loaded["config"]["qubit_count"] == 2
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
