"""End-to-end tests for the command-line interface.

Each subcommand runs through ``main(argv)`` against temporary files; outputs
are cross-checked with the library functions they wrap.
"""

import json

import numpy as np
import pytest

from minacc.axiscore import (
    Orientation,
    ThresholdClassifier,
    classifier_accuracy,
    r_min_deterministic,
)
from minacc.cli import main
from minacc.datagen import DatasetSpec, dataset_from_csv, generate, spec_from_json
from minacc.featmap import load_feature_matrix
from minacc.sampling import sample_size


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
    assert "error:" in err


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
    assert fits == {source: {kernel: {"converged": False, "sweeps": 1} for kernel in ("linear", "rbf")}
                    for source in ("embedded", "raw")}
    warnings = [line for line in err.splitlines() if "did not converge" in line]
    assert len(warnings) == 4
    assert "warning: dataset=circles embedded linear" in warnings[0]


def test_experiment_flag_overrides(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "datasets = circles\nn_samples = 60\nqubit_count = 2\n"
        "subsample_train = 30\nrepetitions = 5\n"
    )
    code, _, _ = run_cli(
        capsys, "experiment", "--config", str(config), "--seed", "4",
        "--method", "adaptive", "--repetitions", "1", "--batch-size", "8",
        "--budget-fraction", "1.0", "--out", str(tmp_path / "r2"),
        "--format", "json",
    )
    assert code == 0
    loaded = json.loads((tmp_path / "r2" / "report.json").read_text())
    assert loaded["config"]["master_seed"] == 4
    assert loaded["config"]["repetitions"] == 1
    # the seed override reaches the dataset specs too
    assert all(s["seed"] != 0 for s in loaded["config"]["datasets"])
    assert {r["method"] for r in loaded["rows"]} == {"adaptive"}


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
