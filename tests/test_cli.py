"""End-to-end tests for the command-line interface.

Each subcommand runs through ``main(argv)`` against temporary files; outputs
are cross-checked with the library functions they wrap.
"""

import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minacc
from minacc import cli, featmap, harness
from minacc.axiscore import (
    Orientation,
    ThresholdClassifier,
    classifier_accuracy,
    r_min_deterministic,
)
from minacc.cli import _build_parser, main
from minacc.datagen import DatasetSpec, dataset_from_csv, generate, spec_from_json
from minacc.featmap import load_feature_matrix
from minacc.harness import ExperimentConfig
from minacc.sampling import (
    EstimatorMethod,
    EstimatorSettings,
    adaptive_estimate,
    conservative_estimate,
    pilot_estimate,
    sample_size,
)
from minacc.svmref import KERNELS, svm_train


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed_lines(out):
    values = {}
    for line in out.strip().split("\n"):
        for token in line.split():
            if "=" in token:
                key, _, val = token.partition("=")
                values[key] = val
    return values


@pytest.fixture
def small_data(tmp_path, capsys):
    data = tmp_path / "data.csv"
    code, _, _ = run_cli(
        capsys, "gen-data", "--kind", "circles", "--n-samples", "40",
        "--seed", "3", "--standardize", "--out", str(data),
    )
    assert code == 0
    return data


# ---------------------------------------------------------------------------

def test_gen_data_writes_csv_and_spec(tmp_path, capsys):
    out = tmp_path / "ds.csv"
    spec_out = tmp_path / "ds.json"
    code, stdout, _ = run_cli(
        capsys, "gen-data", "--kind", "multi_cluster", "--n-samples", "50",
        "--seed", "9", "--out", str(out), "--spec-out", str(spec_out),
    )
    assert code == 0
    values = parsed_lines(stdout)
    assert values["samples"] == "50" and values["dims"] == "4"

    loaded = dataset_from_csv(out)
    spec = spec_from_json(spec_out)
    assert spec == DatasetSpec(kind="multi_cluster", n_samples=50, seed=9)
    assert np.array_equal(loaded.inputs, generate(spec).inputs)


def test_gen_data_standardize_flag(tmp_path, capsys):
    out = tmp_path / "ds.csv"
    code, _, _ = run_cli(
        capsys, "gen-data", "--kind", "linear_separable", "--n-samples", "200",
        "--seed", "1", "--standardize", "--out", str(out),
    )
    assert code == 0
    ds = dataset_from_csv(out)
    assert ds.inputs.mean(axis=0) == pytest.approx(np.zeros(4), abs=1e-10)
    assert ds.inputs.std(axis=0) == pytest.approx(np.ones(4), abs=1e-8)


def test_embed_binary_and_csv(tmp_path, capsys, small_data):
    binary = tmp_path / "feats.bin"
    code, stdout, _ = run_cli(
        capsys, "embed", "--data", str(small_data), "--qubits", "2",
        "--seed", "5", "--out", str(binary),
    )
    assert code == 0
    assert parsed_lines(stdout)["axes"] == "16"
    features = load_feature_matrix(binary)
    assert features.sample_count == 40 and features.axis_count == 16

    as_csv = tmp_path / "feats.csv"
    code, _, _ = run_cli(
        capsys, "embed", "--data", str(small_data), "--qubits", "2",
        "--seed", "5", "--out", str(as_csv), "--format", "csv",
    )
    assert code == 0
    header = as_csv.read_text().splitlines()[0]
    assert header.startswith("axis_0,")


def test_embed_pauli(tmp_path, capsys, small_data):
    out = tmp_path / "pauli.bin"
    code, stdout, _ = run_cli(
        capsys, "embed", "--data", str(small_data), "--embedding", "pauli",
        "--qubits", "2", "--out", str(out),
    )
    assert code == 0
    features = load_feature_matrix(out)
    assert np.all(features.values[:, 0] == 1.0)  # identity-string column


@pytest.mark.parametrize("embedding", ["proxy", "pauli"])
def test_embed_refuses_a_matrix_beyond_eight_qubits(tmp_path, capsys, monkeypatch, small_data, embedding):
    # either embedding refuses the N x 4^9 matrix before it builds a column of it
    def refuse(self, indices):
        raise AssertionError("the N x 4^9 matrix was built")

    monkeypatch.setattr(featmap._ColumnSource, "_build", refuse)
    out = tmp_path / "wide.bin"
    code, _, err = run_cli(capsys, "embed", "--data", str(small_data), "--embedding", embedding,
                           "--qubits", "9", "--out", str(out))
    assert code == 1 and "dense simulation limit" in err and not out.exists()


def test_minacc_deterministic_matches_library(tmp_path, capsys, small_data):
    feats = tmp_path / "feats.bin"
    run_cli(capsys, "embed", "--data", str(small_data), "--qubits", "2",
            "--seed", "5", "--out", str(feats))
    code, stdout, _ = run_cli(
        capsys, "minacc", "--features", str(feats), "--data", str(small_data),
        "--method", "det",
    )
    assert code == 0
    values = parsed_lines(stdout)
    expected, best, _ = r_min_deterministic(
        load_feature_matrix(feats), dataset_from_csv(small_data).labels
    )
    assert values["r_hat"] == f"{expected:.6f}"
    assert values["axes_evaluated"] == "16"
    assert values["stop_reason"] == "exhausted"
    assert values["best_axis"] == str(best.axis_index)


def test_minacc_sampling_methods(tmp_path, capsys, small_data):
    feats = tmp_path / "feats.bin"
    run_cli(capsys, "embed", "--data", str(small_data), "--qubits", "2",
            "--seed", "5", "--out", str(feats))
    code, stdout, _ = run_cli(
        capsys, "minacc", "--features", str(feats), "--data", str(small_data),
        "--method", "conservative", "--p", "0.5", "--seed", "11",
    )
    assert code == 0
    values = parsed_lines(stdout)
    assert values["axes_evaluated"] == str(min(sample_size(0.5, 0.05), 16))

    code, stdout, _ = run_cli(
        capsys, "minacc", "--features", str(feats), "--data", str(small_data),
        "--method", "pilot", "--n-pilot", "8", "--cap-fraction", "0.5",
    )
    assert code == 0
    assert "pilot_p_hat" in parsed_lines(stdout)


@pytest.mark.parametrize("method_args", [
    ("--method", "conservative", "--p", "0.25", "--seed", "11"),
    ("--method", "pilot", "--n-pilot", "8", "--cap-fraction", "0.5", "--seed", "1"),
    ("--method", "adaptive", "--batch-size", "4", "--budget-fraction", "0.5", "--seed", "1"),
])
def test_minacc_printed_witness_reproduces_r_hat(tmp_path, capsys, small_data, method_args):
    feats = tmp_path / "feats.bin"
    run_cli(capsys, "embed", "--data", str(small_data), "--qubits", "2",
            "--seed", "5", "--out", str(feats))
    code, stdout, _ = run_cli(
        capsys, "minacc", "--features", str(feats), "--data", str(small_data), *method_args
    )
    assert code == 0
    values = parsed_lines(stdout)
    witness = ThresholdClassifier(
        int(values["best_axis"]), float(values["threshold"]), Orientation(values["orientation"])
    )
    accuracy = classifier_accuracy(
        witness, load_feature_matrix(feats), dataset_from_csv(small_data).labels
    )
    assert f"{accuracy:.6f}" == values["r_hat"]


@pytest.mark.parametrize("method", ["det", "conservative"])
def test_csv_feature_file_reads_like_binary(tmp_path, capsys, small_data, method):
    outputs = {}
    for fmt in ("binary", "csv"):
        feats = tmp_path / f"feats.{fmt}"
        run_cli(capsys, "embed", "--data", str(small_data), "--qubits", "2",
                "--seed", "5", "--out", str(feats), "--format", fmt)
        code, stdout, err = run_cli(
            capsys, "minacc", "--features", str(feats), "--data", str(small_data),
            "--method", method, "--p", "0.5",
        )
        assert code == 0, err
        code, svm_out, err = run_cli(capsys, "svm", "--data", str(small_data), "--features", str(feats))
        assert code == 0, err
        outputs[fmt] = (parsed_lines(stdout), parsed_lines(svm_out))
    assert outputs["csv"] == outputs["binary"]


def test_minacc_row_count_mismatch(tmp_path, capsys, small_data):
    feats = tmp_path / "feats.bin"
    run_cli(capsys, "embed", "--data", str(small_data), "--qubits", "2",
            "--out", str(feats))
    other = tmp_path / "other.csv"
    run_cli(capsys, "gen-data", "--kind", "circles", "--n-samples", "30",
            "--out", str(other))
    code, _, err = run_cli(
        capsys, "minacc", "--features", str(feats), "--data", str(other),
        "--method", "det",
    )
    assert code == 1
    assert "error: feature file has 40 rows but dataset has 30" in err
    # svm --features checks the same, with the same message
    code, stdout, err = run_cli(capsys, "svm", "--data", str(other), "--features", str(feats))
    assert code == 1 and stdout == ""
    assert "error: feature file has 40 rows but dataset has 30" in err


def test_coverage_planning_and_probabilities(capsys):
    code, stdout, _ = run_cli(
        capsys, "coverage", "--d", "65536", "--p", "0.25", "--delta", "0.05"
    )
    assert code == 0
    assert parsed_lines(stdout)["required_t"] == "12"

    code, stdout, _ = run_cli(
        capsys, "coverage", "--d", "20", "--p", "0.25", "--t", "5"
    )
    values = parsed_lines(stdout)
    # exact hypergeometric: 1 - C(15,5)/C(20,5)
    assert values["exact"] == f"{1.0 - 3003.0 / 15504.0:.6f}"
    assert values["bound"] == f"{1.0 - 0.75 ** 5:.6f}"
    assert float(values["bound"]) <= float(values["exact"])


def test_coverage_checks_d_and_plans_inside_it(capsys):
    # d is checked with or without --t, and the plan never exceeds d
    code, stdout, err = run_cli(capsys, "coverage", "--d", "-5", "--p", "0.25")
    assert code == 1 and stdout == "" and err == "error: d must be an integer >= 1: -5\n"
    code, stdout, _ = run_cli(capsys, "coverage", "--d", "5", "--p", "0.05")
    assert code == 0 and parsed_lines(stdout)["required_t"] == "5"
    code, stdout, _ = run_cli(capsys, "coverage", "--d", "65536", "--p", "0.25", "--t", "12")
    assert code == 0 and parsed_lines(stdout)["required_t"] == "12"


def test_estimator_defaults_are_the_config_defaults():
    settings = {f.name: f.default for f in dataclasses.fields(EstimatorSettings)}
    assert len(settings) == 7
    config = ExperimentConfig()
    assert {name: getattr(config, name) for name in settings} == settings
    parser = _build_parser()
    args = parser.parse_args(["minacc", "--features", "f", "--data", "d"])
    assert {name: getattr(args, name) for name in settings} == settings
    covered = set()
    for estimator in (conservative_estimate, pilot_estimate, adaptive_estimate):
        for name, param in inspect.signature(estimator).parameters.items():
            if name in settings and param.default is not param.empty:
                assert param.default == settings[name], (estimator.__name__, name)
                covered.add(name)
    assert covered == set(settings)

    # the other subcommands' defaults and choices come from the same sources
    def parse(*argv):
        return vars(parser.parse_args(list(argv)))

    def choices(command, flag):
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        (action,) = [a for a in sub.choices[command]._actions if flag in a.option_strings]
        return tuple(action.choices)

    assert parse("gen-data", "--kind", "circles", "--out", "o")["n_samples"] == config.n_samples
    embed = parse("embed", "--data", "d", "--out", "o")
    assert (embed["embedding"], embed["qubits"]) == (config.embedding, config.qubit_count)
    assert choices("embed", "--embedding") == harness._EMBEDDINGS
    assert parse("coverage", "--d", "4", "--p", "0.5")["delta"] == config.delta
    svm = parse("svm", "--data", "d")
    fit = {name: param.default for name, param in inspect.signature(svm_train).parameters.items()}
    assert (svm["kernel"], svm["c"], svm["tol"], svm["max_iter"]) == (
        fit["kernel"], config.svm_c, config.svm_tol, config.svm_max_iter)
    assert (fit["C"], fit["tol"], fit["max_iter"]) == (config.svm_c, config.svm_tol, config.svm_max_iter)
    assert choices("svm", "--kernel") == KERNELS
    assert cli._METHOD_ALIASES == {"det": "deterministic", **{m.value: m.value for m in EstimatorMethod}}
    assert choices("minacc", "--method") == tuple(cli._METHOD_ALIASES)
    # the experiment sets every config key through --set; only --seed and --out name one of their own
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert {flag for a in sub.choices["experiment"]._actions for flag in a.option_strings} == {
        "-h", "--help", "--config", "--set", "--seed", "--out", "--format"}


def test_svm_on_raw_and_embedded(tmp_path, capsys, small_data):
    code, stdout, _ = run_cli(
        capsys, "svm", "--data", str(small_data), "--kernel", "rbf",
        "--c", "5.0",
    )
    assert code == 0
    values = parsed_lines(stdout)
    assert float(values["training_accuracy"]) > 0.8  # rbf separates circles

    feats = tmp_path / "feats.bin"
    run_cli(capsys, "embed", "--data", str(small_data), "--qubits", "2",
            "--out", str(feats))
    model_path = tmp_path / "model.json"
    code, stdout, _ = run_cli(
        capsys, "svm", "--data", str(small_data), "--features", str(feats),
        "--kernel", "linear", "--out", str(model_path),
    )
    assert code == 0
    saved = json.loads(model_path.read_text())
    assert saved["kernel"] == "linear"
    assert f"{saved['training_accuracy']:.6f}" == parsed_lines(stdout)["training_accuracy"]
    assert f"{saved['duality_gap']:g}" == parsed_lines(stdout)["duality_gap"]


def test_svm_rejects_a_tolerance_it_cannot_meet(capsys, small_data):
    code, _, err = run_cli(capsys, "svm", "--data", str(small_data), "--tol", "0")
    assert code == 1 and err == "error: tol must be a finite number > 0: 0.0\n"


@pytest.mark.parametrize("flag, value", [("--tol", "inf"), ("--gamma", "nan"), ("--gamma", "inf")])
def test_svm_rejects_a_non_finite_setting(capsys, small_data, flag, value):
    # each would fit a model that looks trained: --tol inf stops at the starting point
    code, stdout, err = run_cli(capsys, "svm", "--data", str(small_data), "--kernel", "rbf", flag, value)
    assert code == 1 and stdout == ""
    assert err == f"error: {flag[2:]} must be a finite number > 0: {value}\n"


@pytest.mark.parametrize("command", ["svm", "embed"])
def test_a_non_finite_input_fails_when_the_dataset_is_read(tmp_path, capsys, small_data, command):
    lines = small_data.read_text().splitlines()
    first = lines[1].split(",")
    lines[1] = ",".join(["nan"] + first[1:])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code, stdout, err = run_cli(capsys, command, "--data", str(bad), "--out", str(tmp_path / "out"))
    assert code == 1 and stdout == ""
    assert "error: non-finite input values in dataset" in err


def test_experiment_end_to_end(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "\n".join(
            [
                "datasets = circles, linear_separable",
                "n_samples = 60",
                "qubit_count = 2",
                "methods = deterministic, conservative",
                "p_values = 0.25",
                "repetitions = 2",
                "subsample_train = 30",
                f"output_dir = {tmp_path / 'results'}",
            ]
        )
    )
    code, stdout, err = run_cli(
        capsys, "experiment", "--config", str(config), "--format", "both"
    )
    assert code == 0, err
    report_csv = tmp_path / "results" / "report.csv"
    report_json = tmp_path / "results" / "report.json"
    assert report_csv.exists() and report_json.exists()
    assert (tmp_path / "results" / "survival_circles.csv").exists()

    loaded = json.loads(report_json.read_text())
    assert {r["method"] for r in loaded["rows"]} == {"deterministic", "conservative"}
    assert "r_min=" in stdout and "svm_linear=" in stdout

    first_line = report_csv.read_text().splitlines()[0]
    assert first_line == ("dataset,method,p,rep,r_hat,axes_evaluated,"
                          "stop_reason,svm_linear,svm_rbf,wall_ms")


def test_experiment_warns_about_unconverged_baselines(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "datasets = circles\nn_samples = 60\nqubit_count = 2\nsubsample_train = 30\n"
        f"methods = deterministic\nsvm_max_iter = 1\noutput_dir = {tmp_path / 'results'}\n"
    )
    code, _, err = run_cli(capsys, "experiment", "--config", str(config), "--format", "json")
    assert code == 0
    fits = json.loads((tmp_path / "results" / "report.json").read_text())["svm_fits"]["circles"]
    assert {source: {kernel: (fit["converged"], fit["sweeps"]) for kernel, fit in models.items()}
            for source, models in fits.items()} == {
        source: {kernel: (False, 1) for kernel in ("linear", "rbf")} for source in ("embedded", "raw")
    }
    assert all(fit["duality_gap"] > 0.0 for models in fits.values() for fit in models.values())
    warnings = [line for line in err.splitlines() if "did not converge" in line]
    assert len(warnings) == 4
    assert "warning: dataset=circles embedded linear" in warnings[0]


def test_experiment_warns_about_report_errors_and_exits_zero(tmp_path, capsys, monkeypatch):
    # every pilot cell fails: each error is printed as a warning, and the
    # deterministic row is still written, so the run succeeds
    def failing_pilot(*args, **kwargs):
        raise ValueError("pilot broke")

    monkeypatch.setattr(harness, "pilot_estimate", failing_pilot)
    config = tmp_path / "exp.cfg"
    config.write_text(
        "datasets = circles\nn_samples = 60\nqubit_count = 2\nsubsample_train = 30\nrepetitions = 2\n"
        f"methods = deterministic, pilot\noutput_dir = {tmp_path / 'results'}\n"
    )
    code, _, err = run_cli(capsys, "experiment", "--config", str(config), "--format", "json")
    assert code == 0, err
    report = json.loads((tmp_path / "results" / "report.json").read_text())
    assert [row["method"] for row in report["rows"]] == ["deterministic"]
    assert [line for line in err.splitlines() if line.startswith("warning: {")] == [
        f"warning: {error}" for error in report["errors"]]
    assert [(e["stage"], e["rep"], e["message"]) for e in report["errors"]] == [
        ("pilot", rep, "pilot broke") for rep in range(2)]


def test_experiment_reads_a_config_path_containing_equals(tmp_path, capsys):
    config = tmp_path / "a=b.cfg"
    config.write_text(
        "datasets = circles\nn_samples = 60\nqubit_count = 2\nsubsample_train = 30\n"
        f"methods = deterministic\noutput_dir = {tmp_path / 'results'}\n"
    )
    code, stdout, err = run_cli(capsys, "experiment", "--config", str(config), "--format", "json")
    assert code == 0, err
    assert "dataset=circles r_min=" in stdout
    assert (tmp_path / "results" / "report.json").exists()


def test_experiment_rejects_an_empty_dataset_list(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(f"datasets =\nqubit_count = 2\noutput_dir = {tmp_path / 'results'}\n")
    code, _, err = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 1
    assert "error:" in err and "datasets" in err
    assert not (tmp_path / "results").exists()


# the config file every --set test starts from: a small run, which --set entries override
SMALL_RUN = ("datasets = circles\nn_samples = 60\nqubit_count = 2\nsubsample_train = 30\n"
             "methods = deterministic\nrepetitions = 1\n")

# an entry for every ExperimentConfig field, unlike the default and SMALL_RUN: (--set value, report.json value);
# output_dir's is a path under the test's tmp_path
SET_VALUES = {
    "datasets": ("linear_separable", ["linear_separable"]),
    "n_samples": ("80", 80),
    "qubit_count": ("3", 3),
    "embedding": ("pauli", "pauli"),
    "methods": ("conservative, adaptive", ["conservative", "adaptive"]),
    "p_values": ("[0.5]", [0.5]),
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
    "svm_c": ("3", 3.0),
    "svm_tol": ("0.01", 0.01),
    "svm_max_iter": ("50", 50),
    "output_dir": (None, None),
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_experiment_set_overrides_every_key(tmp_path, capsys, key):
    config = tmp_path / "exp.cfg"
    config.write_text(SMALL_RUN)
    text, expected = SET_VALUES[key]
    out = ["--out", str(tmp_path / "r")]
    if key == "output_dir":
        text = expected = str(tmp_path / "set_out")
        out = []
    code, _, err = run_cli(capsys, "experiment", "--config", str(config), "--set", f"{key}={text}", *out,
                           "--format", "json")
    assert code == 0, err
    report = json.loads(Path(expected if key == "output_dir" else out[1], "report.json").read_text())
    default, from_file = ({k: v for k, v in json.loads(json.dumps(dataclasses.asdict(c))).items() if k != "output_dir"}
                          for c in (ExperimentConfig(), harness.parse_config(SMALL_RUN)))
    assert report["config"][key] == expected and expected not in (default.get(key), from_file.get(key))
    # every other key keeps the file's value or its default
    assert {k: v for k, v in report["config"].items() if k not in (key, "output_dir")} == {
        k: v for k, v in from_file.items() if k != key}


def test_experiment_seed_reaches_the_datasets(tmp_path, capsys):
    # --seed and --set master_seed give the run configured with that seed, new data included
    config = tmp_path / "exp.cfg"
    config.write_text(SMALL_RUN)
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(SMALL_RUN + "master_seed = 4\n")
    runs = {
        "flag": ("--config", str(config), "--seed", "4"),
        "set": ("--config", str(config), "--set", "master_seed=4"),
        "file": ("--config", str(seeded)),
        "seed 0": ("--config", str(config)),
    }
    reports = {}
    for name, argv in runs.items():
        code, _, err = run_cli(capsys, "experiment", *argv, "--out", str(tmp_path / name), "--format", "json")
        assert code == 0, err
        reports[name] = json.loads((tmp_path / name / "report.json").read_text())
    assert reports["flag"]["config"]["master_seed"] == 4
    assert harness.reproducible(reports["flag"]) == harness.reproducible(reports["set"]) == harness.reproducible(
        reports["file"])
    assert reports["flag"]["raw_svm"] != reports["seed 0"]["raw_svm"]


@pytest.mark.parametrize("argv, message", [
    (("--set", "n_pilot=1e2"), r"error: --set n_pilot=1e2: n_pilot: invalid literal .*'1e2'"),
    (("--set", "qubits=4"), "error: --set qubits=4: unknown key 'qubits'"),
    (("--set", "qubit_count"), "error: --set qubit_count: expected 'key = value', got 'qubit_count'"),
    (("--set", "repetitions=1", "--set", "repetitions=2"),
     "error: --set repetitions=2: repetitions is already set by --set repetitions=1"),
    (("--seed", "3", "--set", "master_seed=4"), "error: --set master_seed=4: master_seed is already set by --seed"),
    (("--set", "output_dir=elsewhere"), "error: --set output_dir=elsewhere: output_dir is already set by --out"),
], ids=["bad value", "unknown key", "no equals", "repeated key", "seed twice", "output dir twice"])
def test_experiment_set_errors_name_the_entry(tmp_path, capsys, argv, message):
    config = tmp_path / "exp.cfg"
    config.write_text(SMALL_RUN)
    code, _, err = run_cli(capsys, "experiment", "--config", str(config), *argv, "--out", str(tmp_path / "r"))
    assert code == 1
    assert re.fullmatch(message, err.strip())
    assert not (tmp_path / "r").exists()


def test_cli_error_paths(tmp_path, capsys):
    # library errors surface as exit 1 with a message
    code, _, err = run_cli(
        capsys, "embed", "--data", str(tmp_path / "missing.csv"),
        "--out", str(tmp_path / "x.bin"),
    )
    assert code == 1 and "error:" in err
    # so do malformed dataset files, naming the file and the line
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run_cli(capsys, "embed", "--data", str(empty), "--out", str(tmp_path / "x.bin"))
    assert code == 1 and f"error: {empty}, line 1:" in err
    # argparse rejects unknown flags with exit 2
    with pytest.raises(SystemExit) as exc:
        main(["coverage", "--nope", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_importing_the_package_loads_no_pool_parser_or_scipy():
    # every command pays the package's import time; the thread pool, the parser and
    # scipy load on first use only
    code = ("import sys, minacc; print(minacc.__file__); "
            "print(*[m for m in ('concurrent.futures', 'argparse', 'scipy') if m in sys.modules])")
    src = str(Path(minacc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    path, loaded = out.stdout.split("\n")[:2]
    assert Path(path) == Path(minacc.__file__) and loaded == ""


def test_the_package_exports_its_public_bindings_but_not_its_submodules():
    # __all__ is read off the package's own bindings: sorted, each name bound, no `_` name and no
    # module, and a star import binds exactly those names
    names = minacc.__all__
    assert names == sorted(set(names))
    assert not [name for name in names if name.startswith("_") or inspect.ismodule(getattr(minacc, name))]
    assert {"axiscore", "datagen", "featmap", "harness", "sampling", "svmref"} <= set(vars(minacc)) - set(names)
    namespace = {}
    exec("from minacc import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == names
