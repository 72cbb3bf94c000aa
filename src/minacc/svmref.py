"""Soft-margin SVM baselines trained with a simplified SMO solver.

Self-contained reference implementation (no external ML dependency) used to
situate single-axis threshold accuracy below trained-classifier accuracy.
Working-pair selection is deterministic: sweep indices in order, pick the
first KKT violator i, pair it with the j maximizing |E_i - E_j| (ties to the
lowest index).  That is slower to converge than full heuristic SMO but makes
runs exactly reproducible, which matters more here than solver speed at
N around 100.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

KERNEL_LINEAR = "linear"
KERNEL_RBF = "rbf"
KERNELS = (KERNEL_LINEAR, KERNEL_RBF)

# materializing an explicit weight vector is only worthwhile at modest width
_EXPLICIT_WEIGHT_LIMIT = 1000


def resolve_gamma(gamma, features: np.ndarray) -> float:
    """Accept a positive float or the string 'scale' = 1 / (q * var(X))."""
    if gamma == "scale":
        x = np.asarray(features, dtype=np.float64)
        var = float(x.var())
        if var <= 0.0:
            return 1.0
        return 1.0 / (x.shape[1] * var)
    value = float(gamma)
    if value <= 0.0:
        raise ValueError("gamma must be positive")
    return value


def kernel_matrix(a: np.ndarray, b: np.ndarray, kernel: str, gamma: float | None) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if kernel == KERNEL_LINEAR:
        return a @ b.T
    if kernel == KERNEL_RBF:
        sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-gamma * sq)
    raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")


@dataclass
class SvmModel:
    """Trained dual soft-margin model; support vectors carry the whole
    decision function, so only those rows are retained."""

    kernel: str
    gamma: float | None
    C: float
    dual_coef: np.ndarray          # alpha_k * y_k for the support set
    bias: float
    support_indices: np.ndarray    # indices into the training set
    support_vectors: np.ndarray
    training_accuracy: float
    converged: bool
    n_sweeps: int
    objective_history: np.ndarray = field(repr=False)
    weights: np.ndarray | None = None  # explicit w for narrow linear models


def _dual_objective(alpha: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


def svm_train(
    features: np.ndarray,
    labels: np.ndarray,
    kernel: str = KERNEL_LINEAR,
    C: float = 1.0,
    tol: float = 1e-3,
    max_iter: int = 10000,
    gamma="scale",
) -> SvmModel:
    """Sequential minimal optimization on the dual problem.

    ``max_iter`` counts full sweeps over the training set.  A sweep with no
    successful pair update terminates the solver; hitting ``max_iter`` first
    leaves ``converged`` False on the returned model.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features must be N x q with one label per row")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two training samples")
    if np.all(y == y[0]):
        raise ValueError("single-class input: both labels must be present")
    if C <= 0.0:
        raise ValueError("C must be positive")

    gamma_val = resolve_gamma(gamma, x) if kernel == KERNEL_RBF else None
    K = kernel_matrix(x, x, kernel, gamma_val)

    alpha = np.zeros(n)
    b = 0.0
    decision = np.zeros(n)  # cached f(x_k), updated incrementally
    history = []
    converged = False
    sweeps = 0

    for sweeps in range(1, max_iter + 1):
        changed = 0
        for i in range(n):
            e_i = decision[i] - y[i]
            r_i = e_i * y[i]
            if not ((r_i < -tol and alpha[i] < C) or (r_i > tol and alpha[i] > 0.0)):
                continue

            errors = decision - y
            gap = np.abs(e_i - errors)
            gap[i] = -1.0
            # preferred partner is the max-|E_i - E_j| one; when that pair is
            # unusable (no box freedom, flat direction, or a zero step after
            # clipping) fall back to the next best, as in Platt's second-choice
            # hierarchy, so a lone bad partner cannot fake convergence
            for j in np.argsort(-gap, kind="stable"):
                if j == i:
                    continue
                e_j = errors[j]

                if y[i] != y[j]:
                    lo = max(0.0, alpha[j] - alpha[i])
                    hi = min(C, C + alpha[j] - alpha[i])
                else:
                    lo = max(0.0, alpha[i] + alpha[j] - C)
                    hi = min(C, alpha[i] + alpha[j])
                if lo >= hi:
                    continue

                eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
                if eta <= 0.0:
                    continue  # simplified SMO: skip flat directions

                a_j = alpha[j] + y[j] * (e_i - e_j) / eta
                a_j = min(max(a_j, lo), hi)
                if a_j == alpha[j]:
                    continue  # clipped onto the box edge it already sits on
                a_i = alpha[i] + y[i] * y[j] * (alpha[j] - a_j)

                d_i = y[i] * (a_i - alpha[i])
                d_j = y[j] * (a_j - alpha[j])
                b1 = b - e_i - d_i * K[i, i] - d_j * K[i, j]
                b2 = b - e_j - d_i * K[i, j] - d_j * K[j, j]
                if 0.0 < a_i < C:
                    b_new = b1
                elif 0.0 < a_j < C:
                    b_new = b2
                else:
                    b_new = 0.5 * (b1 + b2)

                decision += d_i * K[:, i] + d_j * K[:, j] + (b_new - b)
                alpha[i], alpha[j], b = a_i, a_j, b_new
                changed += 1
                break

        history.append(_dual_objective(alpha, y, K))
        if changed == 0:
            converged = True
            break

    support = np.flatnonzero(alpha > 0.0)
    dual_coef = alpha[support] * y[support]
    predictions = np.where(decision >= 0.0, 1.0, -1.0)
    training_accuracy = float(np.mean(predictions == y))

    weights = None
    if kernel == KERNEL_LINEAR and x.shape[1] <= _EXPLICIT_WEIGHT_LIMIT:
        weights = dual_coef @ x[support] if support.size else np.zeros(x.shape[1])

    return SvmModel(
        kernel=kernel,
        gamma=gamma_val,
        C=float(C),
        dual_coef=dual_coef,
        bias=float(b),
        support_indices=support,
        support_vectors=x[support],
        training_accuracy=training_accuracy,
        converged=converged,
        n_sweeps=sweeps,
        objective_history=np.asarray(history),
        weights=weights,
    )


def decision_function(model: SvmModel, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or (model.support_vectors.size and x.shape[1] != model.support_vectors.shape[1]):
        raise ValueError("feature dimension does not match the trained model")
    if model.support_indices.size == 0:
        return np.full(x.shape[0], model.bias)
    K = kernel_matrix(x, model.support_vectors, model.kernel, model.gamma)
    return K @ model.dual_coef + model.bias


def svm_predict(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """Sign of the decision function; exact zeros map to +1."""
    values = decision_function(model, features)
    return np.where(values >= 0.0, 1, -1).astype(np.int64)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# every field but the explicit weights, which are rebuilt from the support set
_SAVED_FIELDS = tuple(f for f in fields(SvmModel) if f.name != "weights")


def model_to_json(model: SvmModel, path=None) -> str:
    payload = {}
    for f in _SAVED_FIELDS:
        value = getattr(model, f.name)
        payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    text = json.dumps(payload, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def model_from_json(source) -> SvmModel:
    """Accepts a JSON string or a path to a JSON file."""
    text = source
    if not str(source).lstrip().startswith("{"):
        with open(source) as fh:
            text = fh.read()
    raw = json.loads(text)
    values = {f.name: raw[f.name] for f in _SAVED_FIELDS}
    for name, value in values.items():
        if isinstance(value, list):  # the arrays
            values[name] = np.asarray(value, dtype=np.int64 if name == "support_indices" else np.float64)
    model = SvmModel(**values)
    if model.support_vectors.size == 0:
        model.support_vectors = model.support_vectors.reshape(0, 0)
    if model.kernel == KERNEL_LINEAR and 0 < model.support_vectors.shape[1] <= _EXPLICIT_WEIGHT_LIMIT:
        model.weights = model.dual_coef @ model.support_vectors
    return model
