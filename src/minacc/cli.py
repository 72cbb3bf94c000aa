"""Command-line front end.

Subcommands mirror the library stages so each pipeline step can run on its
own: ``gen-data`` writes a dataset CSV, ``embed`` turns one into a feature
file, ``minacc`` estimates the best single-axis accuracy on a feature file,
``coverage`` answers sample-size and coverage-probability queries, ``svm``
trains a reference baseline, and ``experiment`` drives the full sweep from a
config file.  Output is key=value lines so results are easy to grep.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

from . import harness
from .datagen import (
    DATASET_KINDS,
    DatasetSpec,
    dataset_from_csv,
    dataset_to_csv,
    generate,
    spec_to_json,
    standardize,
)
from .featmap import feature_matrix_to_csv, load_feature_matrix, save_feature_matrix
from .sampling import (
    CoverageQuery,
    EstimatorMethod,
    EstimatorSettings,
    coverage_probability_bound,
    coverage_probability_exact,
    sample_size,
)
from .svmref import KERNEL_LINEAR, KERNELS, model_to_json, svm_train

_METHOD_ALIASES = {"det": EstimatorMethod.DETERMINISTIC.value, **{m.value: m.value for m in EstimatorMethod}}


# experiment flags whose value is not the config field's value as given
_EXPERIMENT_FLAG_VALUE = {
    "methods": lambda alias: (_METHOD_ALIASES[alias],),
    "p_values": lambda p: (p,),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minacc",
        description="Minimum-accuracy certification toolkit: exact and Monte Carlo "
        "single-axis threshold scans over embedded datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p_gen.add_argument("--kind", required=True, choices=DATASET_KINDS)
    p_gen.add_argument("--n-samples", type=int, default=harness.ExperimentConfig.n_samples)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--standardize", action="store_true",
                       help="write standardized columns instead of raw ones")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--spec-out", help="also write the reproducible spec JSON here")

    p_embed = sub.add_parser("embed", help="embed a dataset CSV into a feature file")
    p_embed.add_argument("--data", required=True, help="dataset CSV from gen-data")
    p_embed.add_argument("--embedding", choices=harness._EMBEDDINGS,
                         default=harness.ExperimentConfig.embedding)
    p_embed.add_argument("--qubits", type=int, default=harness.ExperimentConfig.qubit_count,
                         help="feature count is 4^qubits")
    p_embed.add_argument("--seed", type=int, default=0)
    p_embed.add_argument("--out", required=True, help="output feature file")
    p_embed.add_argument("--format", choices=("binary", "csv"), default="binary")

    p_min = sub.add_parser("minacc", help="estimate the minimum accuracy on a feature file")
    p_min.add_argument("--features", required=True, help="feature file from embed")
    p_min.add_argument("--data", required=True, help="dataset CSV carrying the labels")
    p_min.add_argument("--method", choices=tuple(_METHOD_ALIASES), default="det")
    p_min.add_argument("--p", type=float, default=0.25, help="good-axis prior (conservative)")
    for f in dataclasses.fields(EstimatorSettings):  # each read by the type of its default
        p_min.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    p_min.add_argument("--seed", type=int, default=0)

    p_cov = sub.add_parser("coverage", help="coverage probabilities and sample-size planning")
    p_cov.add_argument("--d", type=int, required=True, help="total number of axes")
    p_cov.add_argument("--p", type=float, required=True, help="good-axis fraction")
    p_cov.add_argument("--t", type=int, help="sample size; omit to only plan the required t")
    p_cov.add_argument("--delta", type=float, default=harness.ExperimentConfig.delta)

    p_svm = sub.add_parser("svm", help="train a reference SVM baseline")
    p_svm.add_argument("--data", required=True, help="dataset CSV (labels, and inputs unless --features)")
    p_svm.add_argument("--features", help="optional feature file to train on instead of raw inputs")
    p_svm.add_argument("--kernel", choices=KERNELS, default=KERNEL_LINEAR)
    p_svm.add_argument("--c", type=float, default=harness.ExperimentConfig.svm_c)
    p_svm.add_argument("--tol", type=float, default=harness.ExperimentConfig.svm_tol)
    p_svm.add_argument("--max-iter", type=int, default=harness.ExperimentConfig.svm_max_iter,
                       help="interior-point iteration cap")
    p_svm.add_argument("--gamma", default="scale", help="float, or 'scale' for 1/(q*var)")
    p_svm.add_argument("--out", help="write the trained model JSON here")

    p_exp = sub.add_parser("experiment", help="run the full configured sweep")
    p_exp.add_argument("--config", help="key=value config file; defaults used when omitted")
    # Every dest but config's and format's names the ExperimentConfig field it overrides.
    p_exp.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                       help="override master_seed")
    p_exp.add_argument("--out", dest="output_dir", metavar="OUT", help="override output_dir")
    p_exp.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p_exp.add_argument("--method", dest="methods", choices=tuple(_METHOD_ALIASES),
                       help="restrict the run to a single estimator")
    p_exp.add_argument("--p", dest="p_values", metavar="P", type=float,
                       help="restrict conservative runs to one prior")
    p_exp.add_argument("--delta", type=float)
    p_exp.add_argument("--repetitions", type=int)
    p_exp.add_argument("--qubits", dest="qubit_count", metavar="QUBITS", type=int)
    p_exp.add_argument("--n-pilot", type=int)
    p_exp.add_argument("--batch-size", type=int)
    p_exp.add_argument("--patience", type=int)
    p_exp.add_argument("--budget-fraction", type=float)

    return parser


def _cmd_gen_data(args) -> int:
    spec = DatasetSpec(args.kind, args.n_samples, args.seed)
    dataset = generate(spec)
    if args.standardize:
        dataset, _ = standardize(dataset)
    dataset_to_csv(dataset, args.out)
    if args.spec_out:
        spec_to_json(spec, args.spec_out)
        print(f"wrote {args.spec_out}")
    print(f"wrote {args.out}")
    print(f"samples={dataset.sample_count} dims={dataset.input_dim} "
          f"positive={dataset.positive_count} negative={dataset.negative_count}")
    return 0


def _cmd_embed(args) -> int:
    dataset = dataset_from_csv(args.data)
    features = harness.embed_dataset(dataset, args.embedding, args.qubits, args.seed)
    if args.format == "csv":
        feature_matrix_to_csv(features, args.out)
    else:
        save_feature_matrix(features, args.out)
    print(f"wrote {args.out}")
    print(f"samples={features.sample_count} axes={features.axis_count}")
    return 0


def _feature_file(path, dataset):
    """The feature matrix at ``path``, one row per row of ``dataset``."""
    features = load_feature_matrix(path)
    if features.sample_count != dataset.sample_count:
        raise ValueError(f"feature file has {features.sample_count} rows but dataset has {dataset.sample_count}")
    return features


def _cmd_minacc(args) -> int:
    dataset = dataset_from_csv(args.data)
    features, labels = _feature_file(args.features, dataset), dataset.labels
    method = _METHOD_ALIASES[args.method]
    settings = EstimatorSettings(**{f.name: getattr(args, f.name)
                                    for f in dataclasses.fields(EstimatorSettings)})
    result = harness.run_estimator(method, features, labels, args.p, settings, args.seed)
    best = result.best
    print(f"method={method}")
    print(f"r_hat={result.r_hat:.6f}")
    print(f"axes_evaluated={result.axes_evaluated}")
    print(f"stop_reason={result.stopping_reason.value}")
    print(f"best_axis={best.axis_index} threshold={best.best_threshold!r} "
          f"orientation={best.orientation.value}")
    if result.pilot_stats is not None:
        stats = result.pilot_stats
        print(f"pilot_eta={stats.eta_pilot:.6f} pilot_p_hat={stats.p_hat:.6f} "
              f"pilot_t_required={stats.t_required}")
    return 0


def _cmd_coverage(args) -> int:
    plan = CoverageQuery(d=args.d, p=args.p, t=min(sample_size(args.p, args.delta), args.d))
    print(f"required_t={plan.t}")
    if args.t is not None:
        query = dataclasses.replace(plan, t=args.t)
        print(f"exact={coverage_probability_exact(query):.6f}")
        print(f"bound={coverage_probability_bound(query):.6f}")
    return 0


def _cmd_svm(args) -> int:
    dataset = dataset_from_csv(args.data)
    x = _feature_file(args.features, dataset).values if args.features else dataset.inputs
    gamma = args.gamma if args.gamma == "scale" else float(args.gamma)
    model = svm_train(
        x, dataset.labels, kernel=args.kernel, C=args.c,
        tol=args.tol, max_iter=args.max_iter, gamma=gamma,
    )
    if args.out:
        model_to_json(model, args.out)
        print(f"wrote {args.out}")
    print(f"kernel={model.kernel}")
    print(f"training_accuracy={model.training_accuracy:.6f}")
    print(f"support_vectors={model.support_indices.size}")
    print(f"converged={model.converged} sweeps={model.n_sweeps} duality_gap={model.duality_gap:g}")
    return 0


def _cmd_experiment(args) -> int:
    config = harness.parse_config(pathlib.Path(args.config)) if args.config else harness.ExperimentConfig()
    overrides = {
        field.name: _EXPERIMENT_FLAG_VALUE.get(field.name, lambda v: v)(value)
        for field in dataclasses.fields(config)
        if (value := getattr(args, field.name, None)) is not None
    }
    config = dataclasses.replace(config, **overrides)

    report = harness.run_experiment(config)
    written = []
    if args.format in ("csv", "both"):
        written += harness.emit_report(report, "csv")
    if args.format in ("json", "both"):
        written += harness.emit_report(report, "json")
    for path in written:
        print(f"wrote {path}")
    for name in report.r_min:
        svm = report.embedded_svm.get(name, {})
        print(f"dataset={name} r_min={report.r_min[name]:.6f} "
              f"svm_linear={svm.get('linear', float('nan')):.6f} "
              f"svm_rbf={svm.get('rbf', float('nan')):.6f}")
    for err in report.errors:
        print(f"warning: {err}", file=sys.stderr)
    for name, fits in report.svm_fits.items():
        for source, models in fits.items():
            for kernel, fit in models.items():
                if not fit["converged"]:
                    print(f"warning: dataset={name} {source} {kernel} SVM baseline did not "
                          f"converge in {fit['sweeps']} iterations, gap {fit['duality_gap']:.3g}",
                          file=sys.stderr)
    return 1 if report.errors and not report.rows else 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "embed": _cmd_embed,
    "minacc": _cmd_minacc,
    "coverage": _cmd_coverage,
    "svm": _cmd_svm,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
