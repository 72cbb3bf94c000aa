"""Soft-margin SVM baselines: the exact dual QP, solved by interior point.

Self-contained reference implementation (no external ML dependency) used to
situate single-axis threshold accuracy below trained-classifier accuracy.
At N around 100 the dual is a small dense QP, so it is solved outright with
Mehrotra's predictor-corrector method (SIAM J. Optim. 2, 1992): each
iteration solves two (N+1) x (N+1) linear systems, and about ten iterations
suffice even where the Gram matrix is numerically singular.  Every model
carries its duality gap, primal minus dual objective at the returned point,
which bounds its distance from the optimum by weak duality alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .axiscore import _as_label_array

KERNEL_LINEAR = "linear"
KERNEL_RBF = "rbf"
KERNELS = (KERNEL_LINEAR, KERNEL_RBF)


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
    n_sweeps: int                  # interior-point iterations
    duality_gap: float             # primal minus dual objective at the returned point


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest t <= 1 keeping v + t * dv >= 0."""
    shrinking = dv < 0.0
    return min(1.0, float(np.min(-v[shrinking] / dv[shrinking]))) if shrinking.any() else 1.0


def svm_train(
    features: np.ndarray,
    labels: np.ndarray,
    kernel: str = KERNEL_LINEAR,
    C: float = 1.0,
    tol: float = 1e-3,
    max_iter: int = 10000,
    gamma="scale",
) -> SvmModel:
    """Solve the dual: minimize 1/2 a'Qa - 1'a, y'a = 0, 0 <= a <= C, Q = (yy')K.

    Mehrotra predictor-corrector steps from a = C/2; z and u are the
    multipliers of a >= 0 and a <= C, and the bias b is the multiplier of
    y'a = 0.  After each step the iterate is snapped onto any bound within
    1e-6 C and y'a = 0 is restored on the free coefficients; the solver stops
    once that point has no KKT violator at ``tol``, or after ``max_iter``
    iterations with ``converged`` False.

    Features are read row-major, so the fit does not depend on the memory
    layout of the input: an axis-major (F-ordered) matrix gives the same bits.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    y = _as_label_array(labels).astype(np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features must be N x q with one label per row")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two training samples")
    if np.all(y == y[0]):
        raise ValueError("single-class input: both labels must be present")
    if not C > 0.0:
        raise ValueError("C must be positive")
    if not tol > 0.0:  # a tolerance of zero is never met, and a NaN never compares
        raise ValueError(f"tol must be > 0: {tol}")
    if not max_iter >= 0:  # a negative cap is never reached
        raise ValueError(f"max_iter must be >= 0: {max_iter}")

    gamma_val = resolve_gamma(gamma, x) if kernel == KERNEL_RBF else None
    K = kernel_matrix(x, x, kernel, gamma_val)
    Q = y[:, None] * K * y[None, :]

    a, z, u, b = np.full(n, 0.5 * C), np.ones(n), np.ones(n), 0.0
    snap = 1e-6 * C
    converged = False
    iterations = 0
    while True:
        alpha = np.where(a < snap, 0.0, np.where(a > C - snap, C, a))
        free = (alpha > 0.0) & (alpha < C)
        if free.any():
            alpha[free] -= y[free] * (y @ alpha) / free.sum()
        decision = K @ (alpha * y) + b
        r = y * decision - 1.0
        # (r < -tol and alpha < C) or (r > tol and alpha > 0) flags a KKT
        # violator; the test is negated so that a NaN never passes
        inside = (alpha >= 0.0) & (alpha <= C)
        if np.all(inside & ((r >= -tol) | (alpha == C)) & ((r <= tol) | (alpha == 0.0))):
            converged = True
            break
        if iterations >= max_iter or not np.all((a > 0.0) & (a < C)):
            break  # out of iterations, or rounding has pinned the iterate to a bound
        iterations += 1

        s = C - a
        v = np.concatenate([a, s, z, u])
        mu = (a @ z + s @ u) / (2 * n)
        rd = Q @ a + b * y - 1.0 - z + u
        system = np.block([[Q + np.diag(z / a + u / s), y[:, None]], [y, 0.0]])

        def direction(rz, ru):
            d = np.linalg.solve(system, np.append(rz / a - ru / s - rd, -(y @ a)))
            da = d[:n]
            return da, d[n], (rz - z * da) / a, (ru + u * da) / s

        da, db, dz, du = direction(-a * z, -s * u)
        t = _max_step(v, np.concatenate([da, -da, dz, du]))
        mu_aff = ((a + t * da) @ (z + t * dz) + (s - t * da) @ (u + t * du)) / (2 * n)
        sigma_mu = (mu_aff / mu) ** 3 * mu
        da, db, dz, du = direction(sigma_mu - a * z - da * dz, sigma_mu - s * u + da * du)
        t = 0.99 * _max_step(v, np.concatenate([da, -da, dz, du]))
        a, b, z, u = a + t * da, b + t * db, z + t * dz, u + t * du

    ay = alpha * y
    quadratic = ay @ K @ ay
    # primal 1/2 a'Qa + C sum(hinge) minus dual 1'a - 1/2 a'Qa
    duality_gap = quadratic + C * np.maximum(0.0, -r).sum() - alpha.sum()
    support = np.flatnonzero(alpha > 0.0)
    dual_coef = ay[support]
    predictions = np.where(decision >= 0.0, 1.0, -1.0)
    training_accuracy = float(np.mean(predictions == y))

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
        n_sweeps=iterations,
        duality_gap=float(duality_gap),
    )


def decision_function(model: SvmModel, features: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(features, dtype=np.float64)  # row-major, as svm_train reads
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

def model_to_json(model: SvmModel, path=None) -> str:
    payload = {}
    for f in fields(SvmModel):
        value = getattr(model, f.name)
        payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    text = json.dumps(payload, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def model_from_json(source) -> SvmModel:
    """From a path (os.PathLike: the file is read) or JSON text (str)."""
    text = source
    if isinstance(source, os.PathLike):
        with open(source) as fh:
            text = fh.read()
    raw = json.loads(text)
    values = {f.name: raw[f.name] for f in fields(SvmModel)}
    for name, value in values.items():
        if isinstance(value, list):  # the arrays
            values[name] = np.asarray(value, dtype=np.int64 if name == "support_indices" else np.float64)
    model = SvmModel(**values)
    if model.support_vectors.size == 0:
        model.support_vectors = model.support_vectors.reshape(0, 0)
    return model
