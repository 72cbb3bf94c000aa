"""End-to-end experiment pipeline and reporting.

One experiment = for each configured dataset: generate, standardize, split,
subsample the train side, embed, compute the exhaustive ground truth, run the
configured estimators repeatedly with derived sub-seeds, and train SVM
baselines for comparison.  Results land in a fixed-format CSV (one row per
repetition plus mean/min/max aggregate rows) and a JSON document carrying the
full-precision values, survival functions, and summary statistics.

Config files are plain text, one ``key = value`` per line.  ``#`` starts a
comment, lists are comma separated, and quotes or brackets around values are
tolerated.  Recognized keys and their defaults:

    datasets        = linear_separable, multi_cluster, circles
    n_samples       = 1000
    qubit_count     = 8            # feature count d = 4^qubit_count
    embedding       = proxy        # proxy | pauli
    methods         = deterministic, conservative, pilot, adaptive
    p_values        = 0.05, 0.15, 0.25
    delta           = 0.05
    n_pilot         = 100
    cap_fraction    = 0.01
    batch_size      = 40
    patience        = 3
    stability_eps   = 0.001
    budget_fraction = 0.01
    repetitions     = 10
    master_seed     = 0
    train_fraction  = 0.7
    subsample_train = 100          # or `none`
    svm_c           = 1.0
    svm_tol         = 0.001
    svm_max_iter    = 10000
    output_dir      = results

Every random choice in the pipeline draws its seed from ``master_seed`` XOR a
hash of the (dataset, stage, p, repetition) tuple, so any single cell can be
re-run in isolation and full runs are byte-reproducible (wall-clock column
aside).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .axiscore import r_min_deterministic
from .datagen import CIRCLES, DATASET_KINDS, DatasetSpec, generate, standardize, stratified_split
from .featmap import (
    EncodingCircuitSpec,
    LazyProxyFeatures,
    ProjectionSpec,
    pauli_feature_matrix,
)
from .sampling import (
    EstimatorMethod,
    adaptive_estimate,
    conservative_estimate,
    deterministic_estimate,
    pilot_estimate,
    survival_function,
)
from .svmref import KERNEL_LINEAR, KERNEL_RBF, svm_train

CSV_HEADER = "dataset,method,p,rep,r_hat,axes_evaluated,stop_reason,svm_linear,svm_rbf,wall_ms"

_METHOD_NAMES = tuple(m.value for m in EstimatorMethod)
_EMBEDDINGS = ("proxy", "pauli")


def derive_seed(master_seed: int, dataset: str, stage: str, p=None, rep: int = 0) -> int:
    """Sub-seed for one pipeline cell: master seed XOR a stable hash of the
    cell coordinates.  Independent cells get independent streams."""
    tag = f"{dataset}|{stage}|{p}|{rep}".encode()
    digest = hashlib.blake2s(tag, digest_size=8).digest()
    return (int(master_seed) ^ int.from_bytes(digest, "big")) & (2**63 - 1)


def default_datasets(master_seed: int, n_samples: int = 1000) -> tuple[DatasetSpec, ...]:
    """The benchmark trio with per-dataset seeds derived from the master."""
    specs = []
    for kind in DATASET_KINDS:
        specs.append(
            DatasetSpec(
                kind=kind,
                n_samples=n_samples,
                seed=derive_seed(master_seed, kind, "datagen"),
                informative_features=2 if kind == CIRCLES else 4,
            )
        )
    return tuple(specs)


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...] | None = None  # None: benchmark trio
    qubit_count: int = 8
    embedding: str = "proxy"
    methods: tuple[str, ...] = _METHOD_NAMES
    p_values: tuple[float, ...] = (0.05, 0.15, 0.25)
    delta: float = 0.05
    n_pilot: int = 100
    cap_fraction: float = 0.01
    batch_size: int = 40
    patience: int = 3
    stability_eps: float = 1e-3
    budget_fraction: float = 0.01
    repetitions: int = 10
    master_seed: int = 0
    train_fraction: float = 0.7
    subsample_train: int | None = 100
    svm_c: float = 1.0
    svm_tol: float = 1e-3
    svm_max_iter: int = 10000
    output_dir: str = "results"

    def __post_init__(self):
        if self.datasets is None:
            object.__setattr__(self, "datasets", default_datasets(self.master_seed))
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        if self.embedding not in _EMBEDDINGS:
            raise ValueError(f"embedding must be one of {_EMBEDDINGS}")
        if self.embedding == "pauli" and self.qubit_count > 7:
            raise ValueError("pauli embedding is dense-simulated; qubit_count must be <= 7")
        for m in self.methods:
            if m not in _METHOD_NAMES:
                raise ValueError(f"unknown method {m!r}; choose from {_METHOD_NAMES}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def axis_count(self) -> int:
        return 4 ** self.qubit_count


@dataclass
class ReportRow:
    dataset: str
    method: str
    p: float | None
    rep: int
    r_hat: float | None
    axes_evaluated: int
    stop_reason: str
    svm_linear: float
    svm_rbf: float
    wall_ms: float


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[ReportRow]
    r_min: dict                     # dataset -> exhaustive ground truth
    survival: dict                  # dataset -> {"thresholds": [...], "values": [...]}
    embedded_svm: dict              # dataset -> {"linear": acc, "rbf": acc}
    raw_svm: dict                   # dataset -> baselines on unembedded inputs
    correlation: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_LIST_KEYS = {"datasets", "methods", "p_values"}
_INT_KEYS = {"qubit_count", "n_pilot", "batch_size", "patience", "repetitions",
             "master_seed", "svm_max_iter", "n_samples"}
_FLOAT_KEYS = {"delta", "cap_fraction", "stability_eps", "budget_fraction",
               "train_fraction", "svm_c", "svm_tol"}
_STR_KEYS = {"embedding", "output_dir"}
_KNOWN_KEYS = _LIST_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | {"subsample_train"}


def _clean_value(raw: str) -> str:
    return raw.strip().strip("[]()").strip().strip("\"'")


def parse_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from config-file text or a path to one."""
    text = str(source)
    if "\n" not in text and "=" not in text:
        with open(source) as fh:
            text = fh.read()

    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body or body.startswith(";"):
            continue
        if "=" not in body:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip().lower()
        if key not in _KNOWN_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = raw

    kwargs = {}
    n_samples = 1000
    if "n_samples" in values:
        n_samples = int(_clean_value(values.pop("n_samples")))
    for key, raw in values.items():
        if key in _LIST_KEYS:
            items = [_clean_value(part) for part in raw.split(",") if _clean_value(part)]
            kwargs[key] = tuple(float(it) for it in items) if key == "p_values" else tuple(items)
        elif key in _INT_KEYS:
            kwargs[key] = int(_clean_value(raw))
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(_clean_value(raw))
        elif key == "subsample_train":
            cleaned = _clean_value(raw).lower()
            kwargs[key] = None if cleaned in ("none", "") else int(cleaned)
        else:
            kwargs[key] = _clean_value(raw)

    specs = {s.kind: s for s in default_datasets(kwargs.get("master_seed", 0), n_samples)}
    kinds = kwargs.get("datasets", DATASET_KINDS)
    for kind in kinds:
        if kind not in specs:
            raise ValueError(f"unknown dataset kind {kind!r}")
    kwargs["datasets"] = tuple(specs[kind] for kind in kinds)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _prepare_dataset(spec: DatasetSpec, config: ExperimentConfig):
    """generate -> standardize -> split/subsample -> embed; returns the train
    split and its feature matrix, which the scan, the estimators and the SVM
    baselines all read."""
    full = generate(spec)
    standardized, _ = standardize(full)
    train, _ = stratified_split(
        standardized,
        train_fraction=config.train_fraction,
        subsample_train=config.subsample_train,
        seed=derive_seed(config.master_seed, spec.kind, "split"),
    )
    if config.embedding == "proxy":
        proj = ProjectionSpec(
            input_dim=train.input_dim,
            feature_dim=config.axis_count,
            seed=derive_seed(config.master_seed, spec.kind, "embed"),
        )
        return train, LazyProxyFeatures(train, proj).materialize()
    circuit = EncodingCircuitSpec(qubit_count=config.qubit_count)
    return train, pauli_feature_matrix(train, circuit)


def run_estimator(method: str, features, labels, p, settings, seed: int):
    """Run one estimator by its ``EstimatorMethod`` value.  ``settings`` is
    anything carrying the estimator parameters by their ExperimentConfig
    names (an ExperimentConfig or the CLI's parsed arguments); ``p`` is the
    conservative prior."""
    if method == EstimatorMethod.DETERMINISTIC.value:
        return deterministic_estimate(features, labels)
    if method == EstimatorMethod.CONSERVATIVE.value:
        return conservative_estimate(
            features, labels, p_conservative=p, delta=settings.delta, rng_seed=seed
        )
    if method == EstimatorMethod.PILOT.value:
        return pilot_estimate(
            features,
            labels,
            n_pilot=settings.n_pilot,
            delta=settings.delta,
            cap_fraction=settings.cap_fraction,
            rng_seed=seed,
        )
    if method == EstimatorMethod.ADAPTIVE.value:
        return adaptive_estimate(
            features,
            labels,
            batch_size=settings.batch_size,
            patience=settings.patience,
            stability_eps=settings.stability_eps,
            budget_fraction=settings.budget_fraction,
            rng_seed=seed,
        )
    raise ValueError(f"unknown estimator method {method!r}")


def pearson(xs, ys):
    """Sample correlation coefficient; None when undefined."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        return None
    xc, yc = x - x.mean(), y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if denom == 0.0:
        return None
    return float((xc * yc).sum() / denom)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(
        config=config, rows=[], r_min={}, survival={}, embedded_svm={}, raw_svm={}
    )
    need_ground_truth = bool(config.methods)

    for spec in config.datasets:
        name = spec.kind
        try:
            train, features = _prepare_dataset(spec, config)
        except Exception as exc:  # one bad dataset must not sink the others
            report.errors.append({"dataset": name, "stage": "pipeline", "message": str(exc)})
            continue

        try:
            linear = svm_train(
                features.values, train.labels, kernel=KERNEL_LINEAR,
                C=config.svm_c, tol=config.svm_tol, max_iter=config.svm_max_iter,
            )
            rbf = svm_train(
                features.values, train.labels, kernel=KERNEL_RBF,
                C=config.svm_c, tol=config.svm_tol, max_iter=config.svm_max_iter,
            )
            raw_linear = svm_train(
                train.inputs, train.labels, kernel=KERNEL_LINEAR,
                C=config.svm_c, tol=config.svm_tol, max_iter=config.svm_max_iter,
            )
            raw_rbf = svm_train(
                train.inputs, train.labels, kernel=KERNEL_RBF,
                C=config.svm_c, tol=config.svm_tol, max_iter=config.svm_max_iter,
            )
        except Exception as exc:
            report.errors.append({"dataset": name, "stage": "svm", "message": str(exc)})
            continue
        svm_lin, svm_rbf = linear.training_accuracy, rbf.training_accuracy
        report.embedded_svm[name] = {"linear": svm_lin, "rbf": svm_rbf}
        report.raw_svm[name] = {
            "linear": raw_linear.training_accuracy,
            "rbf": raw_rbf.training_accuracy,
        }

        r_min = None
        if need_ground_truth:
            try:
                start = time.perf_counter()
                r_min, _, accuracies = r_min_deterministic(features, train.labels)
                det_ms = (time.perf_counter() - start) * 1000.0
            except Exception as exc:
                report.errors.append(
                    {"dataset": name, "stage": "deterministic", "message": str(exc)}
                )
                continue
            report.r_min[name] = r_min
            surv = survival_function(accuracies)
            report.survival[name] = {
                "thresholds": surv.thresholds.tolist(),
                "values": surv.values.tolist(),
            }
            if EstimatorMethod.DETERMINISTIC.value in config.methods:
                report.rows.append(
                    ReportRow(
                        dataset=name,
                        method=EstimatorMethod.DETERMINISTIC.value,
                        p=None,
                        rep=0,
                        r_hat=r_min,
                        axes_evaluated=features.axis_count,
                        stop_reason="exhausted",
                        svm_linear=svm_lin,
                        svm_rbf=svm_rbf,
                        wall_ms=det_ms,
                    )
                )

        if not config.methods:
            report.rows.append(
                ReportRow(
                    dataset=name, method="baseline", p=None, rep=0,
                    r_hat=None, axes_evaluated=0, stop_reason="",
                    svm_linear=svm_lin, svm_rbf=svm_rbf, wall_ms=0.0,
                )
            )
            continue

        for method in config.methods:
            if method == EstimatorMethod.DETERMINISTIC.value:
                continue
            p_cells = config.p_values if method == EstimatorMethod.CONSERVATIVE.value else (None,)
            for p in p_cells:
                for rep in range(config.repetitions):
                    seed = derive_seed(config.master_seed, name, method, p, rep)
                    try:
                        start = time.perf_counter()
                        result = run_estimator(method, features, train.labels, p, config, seed)
                        wall_ms = (time.perf_counter() - start) * 1000.0
                        if r_min is not None and result.r_hat > r_min:
                            raise RuntimeError(
                                f"estimate {result.r_hat} exceeds exhaustive value {r_min}"
                            )
                    except Exception as exc:
                        report.errors.append(
                            {
                                "dataset": name, "stage": method, "p": p, "rep": rep,
                                "message": str(exc),
                            }
                        )
                        continue
                    report.rows.append(
                        ReportRow(
                            dataset=name,
                            method=method,
                            p=p,
                            rep=rep,
                            r_hat=result.r_hat,
                            axes_evaluated=result.axes_evaluated,
                            stop_reason=result.stopping_reason.value,
                            svm_linear=svm_lin,
                            svm_rbf=svm_rbf,
                            wall_ms=wall_ms,
                        )
                    )

    names = [n for n in report.r_min if n in report.embedded_svm]
    if len(names) >= 2:
        truths = [report.r_min[n] for n in names]
        report.correlation = {
            "r_min_vs_svm_linear": pearson(truths, [report.embedded_svm[n]["linear"] for n in names]),
            "r_min_vs_svm_rbf": pearson(truths, [report.embedded_svm[n]["rbf"] for n in names]),
        }
    return report


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _row_fields(row: ReportRow) -> list:
    return [
        row.dataset, row.method, _fmt(row.p), row.rep, _fmt(row.r_hat),
        row.axes_evaluated, row.stop_reason, _fmt(row.svm_linear),
        _fmt(row.svm_rbf), _fmt(row.wall_ms),
    ]


def _aggregate_rows(rows: list[ReportRow]) -> list[list]:
    """mean/min/max rows per (dataset, method, p) cell, in first-seen order."""
    cells: dict = {}
    for row in rows:
        cells.setdefault((row.dataset, row.method, row.p), []).append(row)
    out = []
    for (dataset, method, p), members in cells.items():
        if any(r.r_hat is None for r in members):
            continue
        stats = {
            "mean": lambda v: float(np.mean(v)),
            "min": lambda v: float(np.min(v)),
            "max": lambda v: float(np.max(v)),
        }
        for label, fn in stats.items():
            out.append(
                [
                    dataset, method, _fmt(p), label,
                    _fmt(fn([r.r_hat for r in members])),
                    _fmt(fn([float(r.axes_evaluated) for r in members])),
                    "",
                    _fmt(fn([r.svm_linear for r in members])),
                    _fmt(fn([r.svm_rbf for r in members])),
                    _fmt(fn([r.wall_ms for r in members])),
                ]
            )
    return out


def report_to_csv_text(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in report.rows:
        writer.writerow(_row_fields(row))
    for fields in _aggregate_rows(report.rows):
        writer.writerow(fields)
    return buf.getvalue()


def report_to_dict(report: ExperimentReport) -> dict:
    config = asdict(report.config)
    config["datasets"] = [asdict(s) for s in report.config.datasets]
    config["methods"] = list(report.config.methods)
    config["p_values"] = list(report.config.p_values)
    return {
        "config": config,
        "rows": [
            {
                "dataset": r.dataset, "method": r.method, "p": r.p, "rep": r.rep,
                "r_hat": r.r_hat, "axes_evaluated": r.axes_evaluated,
                "stop_reason": r.stop_reason, "svm_linear": r.svm_linear,
                "svm_rbf": r.svm_rbf, "wall_ms": r.wall_ms,
            }
            for r in report.rows
        ],
        "r_min": dict(report.r_min),
        "survival": dict(report.survival),
        "embedded_svm": dict(report.embedded_svm),
        "raw_svm": dict(report.raw_svm),
        "correlation": dict(report.correlation),
        "errors": list(report.errors),
    }


def emit_report(report: ExperimentReport, fmt: str = "csv", path=None) -> list[str]:
    """Write the report; returns the written file paths.

    csv: report.csv plus one survival_<dataset>.csv per exhaustive run.
    json: a single report.json (survival functions inline).
    """
    out_dir = report.config.output_dir
    if path is None:
        os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "csv":
        target = path or os.path.join(out_dir, "report.csv")
        with open(target, "w") as fh:
            fh.write(report_to_csv_text(report))
        written.append(target)
        base = os.path.dirname(target) or "."
        for dataset, surv in report.survival.items():
            spath = os.path.join(base, f"survival_{dataset}.csv")
            with open(spath, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["eta", "survival"])
                for eta, value in zip(surv["thresholds"], surv["values"]):
                    writer.writerow([_fmt(float(eta)), _fmt(float(value))])
            written.append(spath)
    elif fmt == "json":
        target = path or os.path.join(out_dir, "report.json")
        with open(target, "w") as fh:
            json.dump(report_to_dict(report), fh, indent=2)
            fh.write("\n")
        written.append(target)
    else:
        raise ValueError("format must be 'csv' or 'json'")
    return written


def reports_equivalent(a, b) -> bool:
    """Compare two report CSVs (paths or raw text) ignoring the wall_ms column."""

    def rows_of(source):
        text = str(source)
        if "\n" not in text:
            with open(source) as fh:
                text = fh.read()
        parsed = list(csv.reader(io.StringIO(text)))
        return [fields[:-1] for fields in parsed if fields]

    return rows_of(a) == rows_of(b)
