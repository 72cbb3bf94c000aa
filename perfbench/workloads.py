"""The benchmark's workloads.

Each workload builds its inputs from the seed (`prepare`, the set-up), runs
one pass of timed calls into the public minacc API (`run_pass`), checks
every output outside the timed region, and condenses the outputs into a
digest that is identical for two runs of the same code and seed.  Passes
repeat identical work, so every pass must reproduce the first one's digest.

Why these three: each dominant layer of the package dominates one of them,
and each is bypassed by at least one other.

* exact_proxy: eager proxy embedding plus the exhaustive block scan.
* sampled_proxy: lazy proxy columns, single-axis scans and the estimators;
  no materialised matrix and no block scan.
* experiment_pauli: `minacc experiment` end to end through the CLI, the
  harness, dense Pauli simulation and the SMO baselines, into a fresh
  output directory so the ground-truth cache never hits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
import time

import numpy as np

from minacc import axiscore, cli, datagen, featmap, harness, sampling


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes.  FULL is what the benchmark measures; TOY keeps every
    code path and check but runs in seconds."""

    n_samples: int = 1000          # per generated dataset, before the split
    subsample_train: int = 100     # training rows every layer sees
    qubits: int = 8                # proxy feature count d = 4^qubits
    pauli_qubits: int = 6          # Pauli feature count 4^pauli_qubits
    reps: int = 40                 # R: estimator repetitions per pass
    checked_columns: int = 32      # seeded column sample for the exact checks
    setup_reps: int = 3            # set-ups per run; setup_s is their median


FULL = Scale()
TOY = Scale(n_samples=40, subsample_train=20, qubits=4, pauli_qubits=2, reps=2,
            checked_columns=8, setup_reps=2)

# Conservative priors and the sample sizes ceil(log(1/0.05)/p) they must use.
CONSERVATIVE_AXES = {0.05: 60, 0.15: 20, 0.25: 12}
ESTIMATOR_CELLS = [("conservative", p) for p in CONSERVATIVE_AXES] + [("pilot", None), ("adaptive", None)]


class Workload:
    """What run.py needs of a workload; `prepare` is the set-up, `run_pass`
    the timed calls, `finish` the checks that need every pass."""

    name: str
    call_span = "call"        # span around each timed call in a traced pass
    op_unit: str              # what one call is; op_ms reports call latency
    environment: dict = {}    # facts about the run recorded with the results

    def __init__(self, seed: int, scale: Scale, out_dir: str):
        self.seed, self.scale, self.out_dir = seed, scale, out_dir

    def digest_lines(self, digest: dict) -> list[str]:
        """The digest values a reader compares across commits."""
        raise NotImplementedError


class Pass:
    """Timed calls of one pass.  Each call carries the failures found in its
    outputs; a call that raised or failed a check counts as failed.  When
    traced, each call is a span named `span` and checks are not traced."""

    def __init__(self, tracer=None, span: str = "call"):
        self.tracer, self.span = tracer, span
        self.seconds: list[float] = []
        self.failures: list[list[str]] = []
        self.digest: dict = {}

    def call(self, label: str, fn, *args, **kwargs):
        """Run and time `fn`; returns (call index, result or None)."""
        if self.tracer is not None:
            fn = self.tracer.wrap(self.span, fn)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is recorded, not fatal
            self.seconds.append(time.perf_counter() - start)
            self.failures.append([f"{label}: {type(exc).__name__}: {exc}"])
            return len(self.seconds) - 1, None
        self.seconds.append(time.perf_counter() - start)
        self.failures.append([])
        return len(self.seconds) - 1, result

    def check(self, index: int, ok: bool, message: str) -> None:
        if not ok:
            self.failures[index].append(message)

    def checking(self):
        """Context in which layer calls made by checks open no spans."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    @property
    def wall_s(self) -> float:
        return sum(self.seconds)


def digest_hash(digest: dict) -> str:
    text = json.dumps(digest, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _array_hash(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# shared set-up: the default dataset trio, as the harness prepares it
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Dataset:
    kind: str
    train: axiscore.LabeledDataset
    projection: featmap.ProjectionSpec

    @property
    def labels(self) -> np.ndarray:
        return self.train.labels


def prepare_datasets(seed: int, scale: Scale) -> list[Dataset]:
    """generate -> standardize -> stratified split and subsample, with the
    harness's sub-seeds, so R_min here equals the harness's ground truth."""
    config = harness.ExperimentConfig
    out = []
    for spec in harness.default_datasets(seed, scale.n_samples):
        full = datagen.generate(spec)
        standardized, _ = datagen.standardize(full)
        train, _ = datagen.stratified_split(
            standardized,
            train_fraction=config.train_fraction,
            subsample_train=scale.subsample_train,
            seed=harness.derive_seed(seed, spec.kind, "split"),
        )
        projection = featmap.ProjectionSpec(
            input_dim=train.input_dim,
            feature_dim=4 ** scale.qubits,
            seed=harness.derive_seed(seed, spec.kind, "embed"),
        )
        out.append(Dataset(spec.kind, train, projection))
    return out


def _embed(dataset: Dataset) -> axiscore.FeatureMatrix:
    return featmap.LazyProxyFeatures(dataset.train, dataset.projection).materialize()


# ---------------------------------------------------------------------------
# exact_proxy
# ---------------------------------------------------------------------------

class ExactProxy(Workload):
    """One call embeds one dataset eagerly and scans every axis."""

    name = "exact_proxy"
    op_unit = "one dataset embedded and scanned"

    def prepare(self):
        return prepare_datasets(self.seed, self.scale)

    def computed_work(self, datasets, first: Pass) -> dict:
        d = 4 ** self.scale.qubits
        n = sum(ds.train.sample_count for ds in datasets)
        return {"proxy_columns": len(datasets) * d, "scan_bytes": n * d * 8, "pauli_expectations": 0}

    @staticmethod
    def _embed_and_scan(dataset):
        features = _embed(dataset)
        return features, axiscore.r_min_deterministic(features, dataset.labels)

    def run_pass(self, datasets, tracer=None) -> Pass:
        run = Pass(tracer, self.call_span)
        for ds in datasets:
            index, result = run.call(ds.kind, self._embed_and_scan, ds)
            if result is not None:
                with run.checking():
                    run.digest[ds.kind] = self._check(run, index, ds, *result)
        return run

    def _check(self, run, index, ds, features, scan) -> dict:
        r_min, best, accuracies = scan
        y = ds.labels
        witness = axiscore.ThresholdClassifier(best.axis_index, best.best_threshold, best.orientation)
        run.check(index, axiscore.classifier_accuracy(witness, features, y) == r_min,
                  f"{ds.kind}: witness threshold rule does not reproduce R_min")
        weights, bias = axiscore.as_linear_classifier(witness, features.axis_count)
        hits = int(np.sum(axiscore.linear_predict(weights, bias, features) == y))
        run.check(index, hits == best.correct_count and hits / y.size == r_min,
                  f"{ds.kind}: witness hyperplane does not reproduce R_min")
        run.check(index, r_min == float(np.max(accuracies)),
                  f"{ds.kind}: R_min is not the largest per-axis accuracy")

        lazy = featmap.LazyProxyFeatures(ds.train, ds.projection)
        rng = np.random.default_rng(harness.derive_seed(self.seed, ds.kind, "bench-check"))
        size = min(self.scale.checked_columns, features.axis_count)
        for axis in rng.choice(features.axis_count, size=size, replace=False).tolist():
            eager = np.ascontiguousarray(features.values[:, axis])
            run.check(index, axiscore.axis_accuracy(eager, y, axis_index=axis).accuracy == accuracies[axis],
                      f"{ds.kind}: axis {axis} of the scan disagrees with axis_accuracy")
            run.check(index, lazy.column(axis).tobytes() == eager.tobytes(),
                      f"{ds.kind}: lazy column {axis} differs from the eager matrix")
        return {
            "r_min": r_min,
            "axis": best.axis_index,
            "threshold": repr(best.best_threshold),
            "orientation": best.orientation.value,
            "accuracies_sha": _array_hash(accuracies),
        }

    def finish(self, datasets, passes) -> dict:
        return {}

    def digest_lines(self, digest: dict) -> list[str]:
        return [f"{kind}: r_min={d['r_min']!r} axis={d['axis']} threshold={d['threshold']} "
                f"orientation={d['orientation']}" for kind, d in digest.items()]


# ---------------------------------------------------------------------------
# sampled_proxy
# ---------------------------------------------------------------------------

def _estimate(method, source, labels, p, seed):
    """One estimator call with the harness defaults."""
    config = harness.ExperimentConfig
    if method == "conservative":
        return sampling.conservative_estimate(source, labels, p_conservative=p,
                                              delta=config.delta, rng_seed=seed)
    if method == "pilot":
        return sampling.pilot_estimate(source, labels, n_pilot=config.n_pilot, delta=config.delta,
                                       cap_fraction=config.cap_fraction, rng_seed=seed)
    return sampling.adaptive_estimate(source, labels, batch_size=config.batch_size,
                                      patience=config.patience, stability_eps=config.stability_eps,
                                      budget_fraction=config.budget_fraction, rng_seed=seed)


class SampledProxy(Workload):
    """One call is one estimator run on lazy proxy columns."""

    name = "sampled_proxy"
    op_unit = "one estimator call"

    def prepare(self):
        datasets = prepare_datasets(self.seed, self.scale)
        return [(ds, featmap.LazyProxyFeatures(ds.train, ds.projection)) for ds in datasets]

    def computed_work(self, inputs, first: Pass) -> dict:
        columns = sum(cell[5] for cell in first.digest["calls"] if cell is not None)
        return {"proxy_columns": columns, "scan_bytes": 0, "pauli_expectations": 0}

    def run_pass(self, inputs, tracer=None) -> Pass:
        run = Pass(tracer, self.call_span)
        cells = []
        for ds, source in inputs:
            for method, p in ESTIMATOR_CELLS:
                for rep in range(self.scale.reps):
                    seed = harness.derive_seed(self.seed, ds.kind, method, p, rep)
                    index, result = run.call(f"{ds.kind}/{method}/{p}/{rep}", _estimate,
                                             method, source, ds.labels, p, seed)
                    if result is None:
                        cells.append(None)
                        continue
                    if method == "conservative":
                        run.check(index, result.axes_evaluated == len(result.sampled_axes)
                                  == CONSERVATIVE_AXES[p],
                                  f"{ds.kind}: conservative p={p} used {result.axes_evaluated} axes")
                    cells.append([ds.kind, method, p, rep, result.r_hat, result.axes_evaluated,
                                  result.stopping_reason.value])
        run.digest["calls"] = cells
        return run

    def finish(self, inputs, passes) -> dict:
        """Reference R_min per dataset, computed after the timed passes, and
        the certificate check r_hat <= R_min for every estimator call."""
        r_min = {ds.kind: axiscore.r_min_deterministic(_embed(ds), ds.labels)[0] for ds, _ in inputs}
        for run in passes:
            for index, cell in enumerate(run.digest["calls"]):
                if cell is not None:
                    run.check(index, cell[4] <= r_min[cell[0]],
                              f"{cell[0]}: {cell[1]} estimate {cell[4]} exceeds R_min {r_min[cell[0]]}")
        passes[0].digest["r_min"] = r_min
        return _estimate_outcomes(r_min, [(c[0], c[4]) for c in passes[0].digest["calls"] if c])

    def digest_lines(self, digest: dict) -> list[str]:
        """R_min per dataset, then mean r_hat and axes per call of each cell."""
        lines = []
        for kind, r_min in digest.get("r_min", {}).items():
            lines.append(f"{kind}: r_min={r_min!r}")
            for method, p in ESTIMATOR_CELLS:
                mine = [c for c in digest["calls"] if c and c[:3] == [kind, method, p]]
                lines.append(f"{kind}: {method} p={p} calls={len(mine)} "
                             f"mean_r_hat={float(np.mean([c[4] for c in mine]))!r} "
                             f"axes_per_call={float(np.mean([c[5] for c in mine]))!r}")
        return lines


def _estimate_outcomes(r_min: dict, estimates) -> dict:
    """estimate_gap = mean of R_min - r_hat; hit_ratio = share with r_hat = R_min."""
    gaps = [r_min[kind] - r_hat for kind, r_hat in estimates]
    if not gaps:
        return {}
    return {
        "estimate_gap": float(np.mean(gaps)),
        "hit_ratio": sum(g == 0.0 for g in gaps) / len(gaps),
    }


# ---------------------------------------------------------------------------
# experiment_pauli
# ---------------------------------------------------------------------------

class ExperimentPauli(Workload):
    """One call is `minacc experiment` on the Pauli embedding, in process."""

    name = "experiment_pauli"
    call_span = "cli.main"
    op_unit = "one minacc experiment invocation"
    environment = {"output_dir": "fresh per pass, so the ground-truth cache never hits"}

    def prepare(self):
        """Writes the experiment config; everything else happens in the call."""
        d = 4 ** self.scale.pauli_qubits
        lines = [
            "embedding = pauli",
            f"qubit_count = {self.scale.pauli_qubits}",
            f"n_samples = {self.scale.n_samples}",
            f"subsample_train = {self.scale.subsample_train}",
            f"n_pilot = {min(harness.ExperimentConfig.n_pilot, d)}",
        ]
        path = os.path.join(self.out_dir, f"experiment_pauli-{self.seed}.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def computed_work(self, config_path, first: Pass) -> dict:
        d = 4 ** self.scale.pauli_qubits
        n = self.scale.subsample_train * len(first.digest.get("r_min", {}))
        return {"proxy_columns": 0, "scan_bytes": n * d * 8, "pauli_expectations": n * d}

    def run_pass(self, config_path, tracer=None) -> Pass:
        run = Pass(tracer, self.call_span)
        fresh = tempfile.mkdtemp(prefix="experiment_pauli-", dir=self.out_dir)
        try:
            argv = ["experiment", "--config", config_path, "--seed", str(self.seed),
                    "--out", fresh, "--format", "both"]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                index, code = run.call("minacc experiment", cli.main, argv)
            run.check(index, code == 0, f"minacc experiment exited with {code}: {stderr.getvalue()[-500:]}")
            run.digest.update(self._check(run, index, fresh))
        finally:
            shutil.rmtree(fresh, ignore_errors=True)
        return run

    def _check(self, run, index, out_dir) -> dict:
        try:
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
            with open(os.path.join(out_dir, "report.csv")) as fh:
                header = fh.readline().rstrip("\n")
        except (OSError, ValueError) as exc:
            run.check(index, False, f"report unreadable: {exc}")
            return {}
        run.check(index, header == harness.CSV_HEADER, f"report.csv header is {header!r}")
        run.check(index, not report["errors"], f"report errors: {report['errors']}")
        r_min = report["r_min"]
        run.check(index, len(r_min) == len(harness.default_datasets(self.seed)), "R_min missing for a dataset")
        for row in report["rows"]:
            if row["r_hat"] is not None:
                run.check(index, row["r_hat"] <= r_min.get(row["dataset"], -1.0),
                          f"{row['dataset']}: {row['method']} estimate {row['r_hat']} exceeds R_min")
            del row["wall_ms"]
        return {key: report[key] for key in ("r_min", "embedded_svm", "raw_svm", "rows")}

    def finish(self, config_path, passes) -> dict:
        digest = passes[0].digest
        estimates = [(r["dataset"], r["r_hat"]) for r in digest.get("rows", [])
                     if r["method"] in ("conservative", "pilot", "adaptive")]
        return _estimate_outcomes(digest.get("r_min", {}), estimates)

    def digest_lines(self, digest: dict) -> list[str]:
        lines = []
        for kind, r_min in digest.get("r_min", {}).items():
            emb, raw = digest["embedded_svm"].get(kind, {}), digest["raw_svm"].get(kind, {})
            lines.append(f"{kind}: r_min={r_min!r} svm_linear={emb.get('linear')!r} "
                         f"svm_rbf={emb.get('rbf')!r} raw_linear={raw.get('linear')!r} "
                         f"raw_rbf={raw.get('rbf')!r}")
        return lines


WORKLOADS = {w.name: w for w in (ExactProxy, SampledProxy, ExperimentPauli)}
