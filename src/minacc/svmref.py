"""Soft-margin SVM baselines: the exact dual QP, solved by interior point.

Self-contained reference implementation (no external ML dependency) used to
situate single-axis threshold accuracy below trained-classifier accuracy.
At N around 100 the dual is a small dense QP, so it is solved outright with
Mehrotra's predictor-corrector method (SIAM J. Optim. 2, 1992): each
iteration solves two (N+1) x (N+1) linear systems, and about ten iterations
suffice even where the Gram matrix is numerically singular.  Every model
carries its duality gap, primal minus dual objective at the returned point,
which bounds its distance from the optimum by weak duality alone.

A fit reads only the ``Gram`` of its N x q features F: F F', the squared row
norms and the 'scale' gamma 1 / (q var(F)), each computed once, so one Gram per
input serves both kernels.  ``Gram.of`` sums them from the rows; ``Gram.of_kernel``
reads them off the diagonal and the trace of F F', given q and mean(F).  On Pauli
features F F' is the fidelity kernel 2^n <psi_x|psi_x'>^2 (Havlicek et al., Nature
567, 2019; Schuld & Killoran, PRL 122, 2019), built from the N statevectors by
``featmap.PauliFeatures.gram`` without the N x 4^n matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .axiscore import Rule, _as_label_array, check, read_text, write_text

KERNEL_LINEAR = "linear"
KERNEL_RBF = "rbf"
KERNELS = (KERNEL_LINEAR, KERNEL_RBF)

# a tolerance of zero is never met, a negative cap never reached
_RULES = dict(C=Rule.POSITIVE, tol=Rule.POSITIVE, max_iter=Rule.integer_at_least(0), gamma=Rule.POSITIVE,
              axis_count=Rule.COUNT)


def _n_by_n(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.size == 0:
        raise ValueError("a Gram matrix must be N x N with N >= 1")
    return values


def _scale_gamma(axis_count: int, variance: float) -> float:
    return 1.0 if variance <= 0.0 else 1.0 / (axis_count * variance)


@dataclass(frozen=True)
class Gram:
    """All a fit reads of an N x q feature matrix F, each computed once by a named
    constructor: ``values`` = F F' (N x N, finite), the ``squared_norms`` of the rows,
    and ``scale_gamma`` = 1 / (q var(F)), or 1.0 when var(F) <= 0."""

    values: np.ndarray
    squared_norms: np.ndarray = field(repr=False)
    scale_gamma: float

    def __post_init__(self):
        if not np.isfinite(_n_by_n(self.values)).all():
            raise ValueError("non-finite Gram values")

    @classmethod
    def of(cls, features) -> Gram:
        """The Gram of the N x q ``features``, read row-major: an axis-major
        (F-ordered) matrix gives the same bits."""
        rows = np.ascontiguousarray(features, dtype=np.float64)
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError("features must be a non-empty N x q matrix with one label per row")
        if not np.isfinite(rows).all():
            raise ValueError("non-finite feature values")
        return cls(rows @ rows.T, (rows * rows).sum(axis=1), _scale_gamma(rows.shape[1], float(rows.var())))

    @classmethod
    def of_kernel(cls, values, axis_count: int, feature_mean: float) -> Gram:
        """The Gram of F from ``values`` = F F', q and mean(F): the norms are the
        diagonal, and var(F) = trace / (N q) - mean(F)^2."""
        values = _n_by_n(values)
        check(_RULES, axis_count=axis_count)
        variance = float(np.trace(values)) / (values.shape[0] * axis_count) - feature_mean ** 2
        return cls(values, np.diag(values), _scale_gamma(axis_count, variance))

    def kernel(self, kernel: str, gamma: float | None) -> np.ndarray:
        """``kernel_matrix`` of F with itself."""
        return _kernel(self.values, self.squared_norms, self.squared_norms, kernel, gamma)


def resolve_gamma(gamma, gram: Gram) -> float:
    """A finite positive float, or 'scale': the ``Gram``'s ``scale_gamma``."""
    if gamma == "scale":
        return gram.scale_gamma
    value = float(gamma)
    check(_RULES, gamma=value)
    return value


def _kernel(cross: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray, kernel: str, gamma: float | None) -> np.ndarray:
    """``kernel`` between rows A and B, from A B' and their squared row norms."""
    if kernel == KERNEL_LINEAR:
        return cross
    if kernel == KERNEL_RBF:
        sq = sq_a[:, None] + sq_b[None, :] - 2.0 * cross
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-gamma * sq)
    raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")


def kernel_matrix(a: np.ndarray, b: np.ndarray, kernel: str, gamma: float | None) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return _kernel(a @ b.T, (a * a).sum(axis=1), (b * b).sum(axis=1), kernel, gamma)


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
    """Largest t <= 1 keeping v + t * dv >= 0.  Only entries a full step would
    push below zero bound it: their ratios lie below 1, so none overflows."""
    crossing = dv < -v
    return float(np.min(-v[crossing] / dv[crossing])) if crossing.any() else 1.0


def _solve_dual(K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int):
    """Minimize 1/2 a'Qa - 1'a, y'a = 0, 0 <= a <= C, Q = (yy')K, for a kernel
    matrix K and labels y in {-1.0, +1.0}.

    Mehrotra predictor-corrector steps from a = C/2; z and u are the
    multipliers of a >= 0 and a <= C, and the bias b is the multiplier of
    y'a = 0.  After each step the iterate is snapped onto any bound within
    1e-6 C and y'a = 0 is restored on the free coefficients; the solver stops
    once that point has no KKT violator at ``tol``.  Otherwise it stops with
    ``converged`` False after ``max_iter`` iterations, or once rounding pins
    the iterate to a bound: a = C, a so small that C - a == C, or every
    product a z and (C - a) u rounded to zero (mu = 0); it then returns the
    snapped point of smallest duality gap, not the last one.  The
    (N+1) x (N+1) system holds Q from the start, and each step rewrites
    only its diagonal.

    Returns (alpha, b, decision values, iterations, converged).
    """
    n = y.size
    Q = y[:, None] * K * y[None, :]
    system = np.empty((n + 1, n + 1))
    system[:n, :n] = Q
    system[:n, n] = system[n, :n] = y
    system[n, n] = 0.0
    diagonal = system.reshape(-1)[: n * (n + 2) : n + 2]  # a view of the first n diagonal entries
    q_diagonal = np.diagonal(Q)

    a, z, u, b = np.full(n, 0.5 * C), np.ones(n), np.ones(n), 0.0
    snap = 1e-6 * C
    iterations = 0
    best_gap, best = np.inf, None
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
            return alpha, b, decision, iterations, True
        # svm_train's duality gap in O(N): a'Qa = (alpha y)'(decision - b)
        gap = (alpha * y) @ (decision - b) + C * np.maximum(0.0, -r).sum() - alpha.sum()
        if gap < best_gap:
            best_gap, best = gap, (alpha, b, decision)
        s = C - a
        mu = (a @ z + s @ u) / (2 * n)
        if iterations >= max_iter or not (np.all((s > 0.0) & (s < C)) and mu > 0.0):
            break  # out of iterations, or rounding has pinned the iterate to a bound
        iterations += 1

        v = np.concatenate([a, s, z, u])
        rd = Q @ a + b * y - 1.0 - z + u
        np.add(q_diagonal, z / a + u / s, out=diagonal)

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
    if best is not None:  # None only if every gap was NaN
        alpha, b, decision = best
    return alpha, b, decision, iterations, False


def svm_train(
    features,
    labels: np.ndarray,
    kernel: str = KERNEL_LINEAR,
    C: float = 1.0,
    tol: float = 1e-3,
    max_iter: int = 10000,
    gamma="scale",
) -> SvmModel:
    """Solve the dual soft-margin QP on the kernel matrix of ``features``: a
    ``Gram``, or an N x q matrix fit as its ``Gram.of``.  A fit on a matrix
    keeps its support rows to predict with; a fit on a Gram reads no feature
    row, so its model reports its fit but cannot predict.
    """
    y = _as_label_array(labels).astype(np.float64)
    if not isinstance(features, Gram):
        rows = np.ascontiguousarray(features, dtype=np.float64)
        model = svm_train(Gram.of(rows), y, kernel, C, tol, max_iter, gamma)
        model.support_vectors = rows[model.support_indices]
        return model
    if features.values.shape[0] != y.shape[0]:
        raise ValueError("features must be N x q, or their Gram, with one label per row")
    if y.size < 2:
        raise ValueError("need at least two training samples")
    if np.all(y == y[0]):
        raise ValueError("single-class input: both labels must be present")
    check(_RULES, C=C, tol=tol, max_iter=max_iter)

    gamma_val = resolve_gamma(gamma, features) if kernel == KERNEL_RBF else None
    K = features.kernel(kernel, gamma_val)
    alpha, b, decision, iterations, converged = _solve_dual(K, y, C, tol, max_iter)

    ay = alpha * y
    # primal 1/2 a'Qa + C sum(hinge) minus dual 1'a - 1/2 a'Qa
    duality_gap = ay @ K @ ay + C * np.maximum(0.0, 1.0 - y * decision).sum() - alpha.sum()
    support = np.flatnonzero(alpha > 0.0)
    predictions = np.where(decision >= 0.0, 1.0, -1.0)

    return SvmModel(kernel=kernel, gamma=gamma_val, C=float(C), dual_coef=ay[support], bias=float(b),
                    support_indices=support, support_vectors=np.empty((0, 0)),
                    training_accuracy=float(np.mean(predictions == y)), converged=converged,
                    n_sweeps=iterations, duality_gap=float(duality_gap))


def decision_function(model: SvmModel, features: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(features, dtype=np.float64)  # row-major, as svm_train reads
    if x.ndim != 2 or (model.support_vectors.size and x.shape[1] != model.support_vectors.shape[1]):
        raise ValueError("feature dimension does not match the trained model")
    if model.support_indices.size == 0:
        return np.full(x.shape[0], model.bias)
    if model.support_vectors.shape[0] != model.support_indices.size:
        raise ValueError("a model fit on a Gram matrix keeps no support vectors to predict with")
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
    return write_text(json.dumps(payload, indent=2), path)


def model_from_json(source) -> SvmModel:
    """From JSON, with ``source`` taken as ``read_text`` takes it."""
    raw = json.loads(read_text(source))
    values = {f.name: raw[f.name] for f in fields(SvmModel)}
    for name, value in values.items():
        if isinstance(value, list):  # the arrays
            values[name] = np.asarray(value, dtype=np.int64 if name == "support_indices" else np.float64)
    model = SvmModel(**values)
    if model.support_vectors.size == 0:
        model.support_vectors = model.support_vectors.reshape(0, 0)
    return model
