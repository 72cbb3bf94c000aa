"""End-to-end experiment pipeline and reporting.

One experiment = for each configured dataset: generate, standardize, split,
subsample the train side, embed, compute the exhaustive ground truth, run the
configured estimators repeatedly with derived sub-seeds, and train SVM
baselines for comparison.  The proxy embedding is built as the N x 4^n
matrix.  The Pauli embedding is one ``PauliFeatures`` source per dataset: its
states are encoded once, and the scan, the witness, every estimator cell and
the embedded baseline's Gram read them, with no N x 4^n matrix; so for Pauli
``embed_s`` times the encoding only and ``scan_s`` includes the transforms.
Results land in a fixed-format CSV (one row per repetition plus mean/min/max
aggregate rows) and a JSON document carrying the full-precision values,
majority rates, survival functions, SVM convergence, stage timings, and
summary statistics.

Config files are plain text, one ``key = value`` per line.  ``#`` starts a
comment, lists are comma separated, and quotes or brackets around values are
tolerated.  The keys are the ``ExperimentConfig`` fields, each read as the
type of its default and checked when the config is built.  Keys and their
defaults:

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
    svm_max_iter    = 10000        # interior-point iterations per SVM fit
    output_dir      = results

Every random choice in the pipeline draws its seed from ``master_seed`` XOR a
hash of the (dataset, stage, p, repetition) tuple, so any single cell can be
re-run in isolation and full runs are byte-reproducible at one BLAS thread
count, less the fields ``reproducible`` drops.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import math
import operator
import os
import time
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import axiscore, datagen
from .axiscore import Rule, ScannedFeatures, read_text, write_text
from .axiscore import r_min_deterministic  # not called here: perfbench/spans.py rebinds this name
from .datagen import DATASET_KINDS, DatasetSpec, generate, standardize, stratified_split
from .featmap import (_MATRIX_QUBIT_LIMIT, EncodingCircuitSpec, LazyProxyFeatures, PauliFeatures, ProjectionSpec,
                      pauli_string)
from .featmap import pauli_feature_matrix  # not called here: perfbench/spans.py rebinds this name
from .sampling import (
    EstimatorMethod,
    EstimatorSettings,
    StopReason,
    adaptive_estimate,
    conservative_estimate,
    deterministic_estimate,
    pilot_estimate,
    survival_function,
)
from .svmref import KERNELS, Gram, svm_train

_METHOD_NAMES = tuple(m.value for m in EstimatorMethod)
_EMBEDDINGS = ("proxy", "pauli")


def derive_seed(master_seed: int, dataset: str, stage: str, p=None, rep: int = 0) -> int:
    """Sub-seed for one pipeline cell: master seed XOR a stable hash of the
    cell coordinates.  Independent cells get independent streams."""
    tag = f"{dataset}|{stage}|{p}|{rep}".encode()
    digest = hashlib.blake2s(tag, digest_size=8).digest()
    return (int(master_seed) ^ int.from_bytes(digest, "big")) & (2**63 - 1)


@dataclass(frozen=True)
class ExperimentConfig(EstimatorSettings):
    datasets: tuple[str, ...] = DATASET_KINDS  # kinds; each spec is built from master_seed
    n_samples: int = 1000
    qubit_count: int = 8
    embedding: str = "proxy"
    methods: tuple[str, ...] = _METHOD_NAMES
    p_values: tuple[float, ...] = (0.05, 0.15, 0.25)
    repetitions: int = 10
    master_seed: int = 0
    train_fraction: float = 0.7
    subsample_train: int | None = 100
    svm_c: float = 1.0
    svm_tol: float = 1e-3
    svm_max_iter: int = 10000
    output_dir: str = "results"

    _RULES = dict(EstimatorSettings._RULES, qubit_count=Rule.COUNT, repetitions=Rule.COUNT, master_seed=Rule.INTEGER,
                  train_fraction=Rule.OPEN_UNIT, svm_c=Rule.POSITIVE, svm_tol=Rule.POSITIVE, svm_max_iter=Rule.COUNT)

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        if not self.datasets:
            raise ValueError("datasets must name at least one dataset")
        for kind in self.datasets:
            DatasetSpec(kind, self.n_samples)  # rejects an unknown kind or too few samples
        for name, noun in (("datasets", "kind"), ("methods", "method"), ("p_values", "p value")):
            listed = getattr(self, name)
            if len(set(listed)) < len(listed):  # a repeat would run, and write, its rows twice
                raise ValueError(f"{name} lists a {noun} twice: {listed}")
        text, holds = Rule.FRACTION
        if not all(holds(p) for p in self.p_values):
            raise ValueError(f"p_values must {text}: {self.p_values}")
        if EstimatorMethod.CONSERVATIVE.value in self.methods and not self.p_values:
            raise ValueError("the conservative method needs at least one value in p_values")
        super().__post_init__()
        rows = self.subsample_train
        split = sum(datagen.train_counts(datagen.balanced_counts(self.n_samples), self.train_fraction))
        if rows is not None and not (Rule.is_integer(rows) and 2 <= rows <= split):
            raise ValueError(f"subsample_train must be none or an integer in [2, {split}]: {rows}")
        if self.embedding not in _EMBEDDINGS:
            raise ValueError(f"embedding must be one of {_EMBEDDINGS}")
        # the proxy builds the N x 4^n matrix; Pauli holds none, but an exhaustive scan of its 4^n
        # columns takes about 2 s per dataset at n = 10 and a minute at n = 12, and no run above
        # n = 8 is checked end to end yet
        if self.qubit_count > _MATRIX_QUBIT_LIMIT:
            raise ValueError(f"dense simulation limit: qubit_count must be <= {_MATRIX_QUBIT_LIMIT}")
        for m in self.methods:
            if m not in _METHOD_NAMES:
                raise ValueError(f"unknown method {m!r}; choose from {_METHOD_NAMES}")


def default_datasets(master_seed: int,
                     n_samples: int = ExperimentConfig.n_samples) -> tuple[DatasetSpec, ...]:
    """The benchmark trio with per-dataset seeds derived from the master."""
    return tuple(DatasetSpec(kind, n_samples, derive_seed(master_seed, kind, "datagen"))
                 for kind in DATASET_KINDS)


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


CSV_HEADER = ",".join(f.name for f in fields(ReportRow))


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[ReportRow] = field(default_factory=list)
    r_min: dict = field(default_factory=dict)         # dataset -> exhaustive ground truth
    # dataset -> the scan's winning rule: {"axis", "pauli", "threshold", "orientation",
    # "correct_count", "sample_count"}; "pauli" is the axis's letters, None under the proxy
    witness: dict = field(default_factory=dict)
    majority_rate: dict = field(default_factory=dict)  # dataset -> max(#pos, #neg) / N of the train split
    survival: dict = field(default_factory=dict)      # dataset -> {"thresholds": [...], "values": [...]}
    embedded_svm: dict = field(default_factory=dict)  # dataset -> {"linear": acc, "rbf": acc}
    raw_svm: dict = field(default_factory=dict)       # dataset -> baselines on unembedded inputs
    correlation: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)        # {"dataset", "stage", ..., "message", "type"}
    # dataset -> {"embedded"|"raw": {"linear"|"rbf": {"converged", "sweeps", "duality_gap"}}}
    svm_fits: dict = field(default_factory=dict)
    # dataset -> seconds per stage that ran: "embed_s" (for Pauli the encoding only),
    # "svm_s" (all four baselines, with the two Grams they read, embedded and raw),
    # "scan_s" (for Pauli with the transforms), and "<method>_s" summing the cells
    # of each sampled method
    timings: dict = field(default_factory=dict)
    # threads of the proxy embedding and the exhaustive scan: one per usable core
    exact_path_threads: int = 1


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

# Every ExperimentConfig field is a config key, read by the type of its
# default (of its first element for tuples).
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _clean_value(raw: str) -> str:
    return raw.strip().strip("[]()").strip().strip("\"'")


def _clean_list(raw: str) -> list[str]:
    return [item for item in map(_clean_value, raw.split(",")) if item]


def _field_value(name: str, raw: str):
    default = _FIELDS[name].default
    if isinstance(default, tuple):
        return tuple(map(type(default[0]), _clean_list(raw)))
    value = _clean_value(raw)
    if value.lower() in ("none", "") and type(None) in typing.get_args(_FIELD_TYPES[name]):
        return None
    return type(default)(value)


def parse_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from config text, with ``source`` taken as ``read_text`` takes it."""
    values = {}
    for lineno, line in enumerate(read_text(source).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body or body.startswith(";"):
            continue
        if "=" not in body:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip().lower()
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _field_value(key, raw)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from exc

    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _pauli_spec(qubit_count: int) -> EncodingCircuitSpec:
    """The encoding circuit of the Pauli embedding: its features and the Gram
    of its SVM baselines both come from this one circuit."""
    return EncodingCircuitSpec(qubit_count=qubit_count)


def embed_dataset(dataset, embedding: str, qubit_count: int, seed: int):
    """The column source of the d = 4^qubit_count features of ``dataset``: the
    tanh proxy with projection seed ``seed``, or the exact Pauli expectations of
    its encoded states.  Its ``materialize()`` is the N x d matrix."""
    if embedding == "proxy":
        proj = ProjectionSpec(input_dim=dataset.input_dim, feature_dim=4 ** qubit_count, seed=seed)
        return LazyProxyFeatures(dataset, proj)
    return PauliFeatures.of(dataset, _pauli_spec(qubit_count))


def _training_split(kind: str, config: ExperimentConfig):
    """generate -> standardize -> split/subsample; returns the train split,
    whose embedding the scan, the estimators and the SVM baselines all read."""
    seed = derive_seed(config.master_seed, kind, "datagen")
    full = generate(DatasetSpec(kind, config.n_samples, seed))
    standardized, _ = standardize(full)
    train, _ = stratified_split(
        standardized,
        train_fraction=config.train_fraction,
        subsample_train=config.subsample_train,
        seed=derive_seed(config.master_seed, kind, "split"),
    )
    return train


# each estimator's keywords after (features, labels), read once from the library's signatures
_KEYWORDS = {m: tuple(inspect.signature(globals()[f"{m}_estimate"]).parameters)[2:] for m in _METHOD_NAMES}


def run_estimator(method: str, features, labels, p, settings: EstimatorSettings, seed: int):
    """Run one estimator by its ``EstimatorMethod`` value.  Each of its settings
    is the ``settings`` field of that name; ``p`` is the conservative prior."""
    if method not in _KEYWORDS:
        raise ValueError(f"unknown estimator method {method!r}")
    values = {**vars(settings), "p_conservative": p, "rng_seed": seed}
    # looked up at call time, so the module's current binding runs
    return globals()[f"{method}_estimate"](features, labels, **{k: values[k] for k in _KEYWORDS[method]})


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


def _run_dataset(name: str, config: ExperimentConfig, report: ExperimentReport) -> None:
    """One dataset kind through the pipeline, recorded into ``report``.  A
    failing stage records an error and ends the dataset; a failing estimator
    cell records an error and skips only that cell."""
    timings = report.timings[name] = {}

    def fail(stage, exc, **cell):
        report.errors.append(
            {"dataset": name, "stage": stage, **cell, "message": str(exc), "type": type(exc).__name__}
        )

    def timed(stage, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        timings[stage] = time.perf_counter() - start
        return result

    try:
        train = _training_split(name, config)
        report.majority_rate[name] = max(train.positive_count, train.negative_count) / train.sample_count
        seed = derive_seed(config.master_seed, name, "embed")

        def embed():  # Pauli: the encoded states, whose Gram needs no matrix; the proxy's Gram reads its rows
            source = embed_dataset(train, config.embedding, config.qubit_count, seed)
            return source if config.embedding == "pauli" else source.materialize()

        features = timed("embed_s", embed)
    except Exception as exc:  # one bad dataset must not sink the others
        return fail("pipeline", exc)

    def fit_baselines():
        embedded = features.gram() if config.embedding == "pauli" else Gram.of(features.values)
        return {
            source: {
                kernel: svm_train(
                    gram, train.labels, kernel=kernel,
                    C=config.svm_c, tol=config.svm_tol, max_iter=config.svm_max_iter,
                )
                for kernel in KERNELS
            }
            for source, gram in (("embedded", embedded), ("raw", Gram.of(train.inputs)))
        }

    try:
        fits = timed("svm_s", fit_baselines)
    except Exception as exc:
        return fail("svm", exc)
    report.embedded_svm[name] = {k: m.training_accuracy for k, m in fits["embedded"].items()}
    report.raw_svm[name] = {k: m.training_accuracy for k, m in fits["raw"].items()}
    report.svm_fits[name] = {
        source: {k: dict(converged=m.converged, sweeps=m.n_sweeps, duality_gap=m.duality_gap)
                 for k, m in models.items()}
        for source, models in fits.items()
    }
    svm = report.embedded_svm[name]

    def add_row(method, p, rep, r_hat, axes_evaluated, stop_reason, wall_ms):
        report.rows.append(ReportRow(
            name, method, p, rep, r_hat, axes_evaluated, stop_reason, svm["linear"], svm["rbf"], wall_ms
        ))

    if not config.methods:
        add_row("baseline", None, 0, None, 0, "", 0.0)
        return

    try:  # the one record of the dataset's scan: R_min, the witness, S and every estimator cell read it
        scanned = timed("scan_s", ScannedFeatures, features, train.labels)
    except Exception as exc:
        return fail(EstimatorMethod.DETERMINISTIC.value, exc)
    best = scanned.best
    r_min = report.r_min[name] = best.accuracy
    report.witness[name] = dict(
        axis=best.axis_index,
        pauli=pauli_string(best.axis_index, config.qubit_count).letters if config.embedding == "pauli" else None,
        threshold=best.best_threshold, orientation=best.orientation.value,
        correct_count=best.correct_count, sample_count=train.sample_count,
    )
    surv = survival_function(scanned)
    report.survival[name] = {"thresholds": surv.thresholds.tolist(), "values": surv.values.tolist()}
    # the exhaustive row leads the dataset's rows wherever `methods` lists it
    if EstimatorMethod.DETERMINISTIC.value in config.methods:
        add_row(EstimatorMethod.DETERMINISTIC.value, None, 0, r_min, features.axis_count,
                StopReason.EXHAUSTED.value, timings["scan_s"] * 1000.0)

    cells = [
        (method, p, rep)
        for method in config.methods
        if method != EstimatorMethod.DETERMINISTIC.value
        for p in (config.p_values if method == EstimatorMethod.CONSERVATIVE.value else (None,))
        for rep in range(config.repetitions)
    ]
    for method, p, rep in cells:
        seed = derive_seed(config.master_seed, name, method, p, rep)
        start = time.perf_counter()
        try:
            result = run_estimator(method, scanned, train.labels, p, config, seed)
            if result.r_hat > r_min:
                raise RuntimeError(f"estimate {result.r_hat} exceeds exhaustive value {r_min}")
        except Exception as exc:
            fail(method, exc, p=p, rep=rep)
            continue
        finally:
            seconds = time.perf_counter() - start
            timings[f"{method}_s"] = timings.get(f"{method}_s", 0.0) + seconds
        add_row(method, p, rep, result.r_hat, result.axes_evaluated, result.stopping_reason.value,
                seconds * 1000.0)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(config=config, exact_path_threads=axiscore._CORES)
    for name in config.datasets:
        _run_dataset(name, config, report)

    names = [n for n in report.r_min if n in report.embedded_svm]
    if len(names) >= 2:
        truths = [report.r_min[n] for n in names]
        report.correlation = {
            f"r_min_vs_svm_{kernel}": pearson(truths, [report.embedded_svm[n][kernel] for n in names])
            for kernel in KERNELS
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


_ROW_VALUES = operator.attrgetter(*(f.name for f in fields(ReportRow)))


def _row_fields(row: ReportRow) -> list:
    return [_fmt(value) for value in _ROW_VALUES(row)]


def _aggregate_rows(rows: list[ReportRow]) -> list[list]:
    """mean/min/max rows per (dataset, method, p) cell, in first-seen order;
    the stat label takes the place of the repetition."""
    cells: dict = {}
    for row in rows:
        cells.setdefault((row.dataset, row.method, row.p), []).append(row)
    numeric = ("r_hat", "axes_evaluated", "svm_linear", "svm_rbf", "wall_ms")
    out = []
    for (dataset, method, p), members in cells.items():
        if any(r.r_hat is None for r in members):
            continue
        columns = {key: [float(getattr(r, key)) for r in members] for key in numeric}
        for label, fn in (("mean", np.mean), ("min", np.min), ("max", np.max)):
            stats = {key: float(fn(values)) for key, values in columns.items()}
            out.append(_row_fields(ReportRow(dataset, method, p, label, stop_reason="", **stats)))
    return out


def report_to_csv_text(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(map(_row_fields, report.rows))
    writer.writerows(_aggregate_rows(report.rows))
    return buf.getvalue()


def emit_report(report: ExperimentReport, fmt: str = "csv") -> list[str]:
    """Write the report into ``report.config.output_dir``; returns the written file paths.

    csv: report.csv plus one survival_<dataset>.csv per exhaustive run.
    json: a single report.json (survival functions inline).
    """
    out_dir = report.config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "csv":
        target = os.path.join(out_dir, "report.csv")
        with open(target, "w") as fh:
            fh.write(report_to_csv_text(report))
        written.append(target)
        for dataset, surv in report.survival.items():
            spath = os.path.join(out_dir, f"survival_{dataset}.csv")
            with open(spath, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["eta", "survival"])
                for eta, value in zip(surv["thresholds"], surv["values"]):
                    writer.writerow([_fmt(float(eta)), _fmt(float(value))])
            written.append(spath)
    elif fmt == "json":
        target = os.path.join(out_dir, "report.json")
        write_text(json.dumps(asdict(report), indent=2), target)
        written.append(target)
    else:
        raise ValueError("format must be 'csv' or 'json'")
    return written


def reproducible(report: dict) -> dict:
    """A parsed report.json (or ``asdict`` of a report) less what a run may vary: ``timings``,
    ``exact_path_threads``, ``config["output_dir"]`` and each row's ``wall_ms``, keys in the
    document's order.  Equal for equal configs at one BLAS thread count; ``svm_fits`` holds
    duality gaps that move with that count."""
    def less(d: dict, *keys) -> dict:
        return {key: value for key, value in d.items() if key not in keys}

    return {**less(report, "timings", "exact_path_threads"), "config": less(report["config"], "output_dir"),
            "rows": [less(row, "wall_ms") for row in report["rows"]]}


def reports_equivalent(a, b) -> bool:
    """Compare two report CSVs, each taken as ``read_text`` takes it, ignoring
    the wall_ms column."""

    def rows_of(source):
        return [row[:-1] for row in csv.reader(io.StringIO(read_text(source))) if row]

    return rows_of(a) == rows_of(b)
