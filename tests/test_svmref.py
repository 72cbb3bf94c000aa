"""Tests for the interior-point reference SVM.

Two independent oracles: the best linear rule on four XOR points is found by
enumerating threshold cuts over a dense grid of directions, and the dual
optimum on small instances is recomputed with scipy's SLSQP on the exact
same QP (box constraints plus the equality constraint).
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from minacc.datagen import CIRCLES, DATASET_KINDS, generate, standardize, stratified_split
from minacc.harness import ExperimentConfig, _training_split, default_datasets, derive_seed, embed_dataset
from minacc.svmref import (
    Gram,
    SvmModel,
    decision_function,
    kernel_matrix,
    model_from_json,
    model_to_json,
    resolve_gamma,
    svm_predict,
    svm_train,
)

XOR_X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
XOR_Y = np.array([1, -1, -1, 1])


def blobs(rng, n_per=15, gap=3.0, dim=2):
    x = np.vstack([
        rng.standard_normal((n_per, dim)) + gap / 2.0,
        rng.standard_normal((n_per, dim)) - gap / 2.0,
    ])
    y = np.concatenate([np.ones(n_per, dtype=int), -np.ones(n_per, dtype=int)])
    return x, y


def full_alpha(model, n):
    """The dual vector alpha rebuilt from the stored support set."""
    alpha = np.zeros(n)
    alpha[model.support_indices] = np.abs(model.dual_coef)
    return alpha


def dual_objective(alpha, y, K):
    ay = alpha * y
    return alpha.sum() - 0.5 * ay @ K @ ay


def qp_oracle(x, y, kernel, C, gamma=None, ftol=1e-14):
    """Solve the dual soft-margin QP directly with SLSQP to absolute ``ftol``."""
    K = kernel_matrix(x, x, kernel, gamma)
    yf = y.astype(np.float64)

    def neg(a):
        return -dual_objective(a, yf, K)

    def grad(a):
        return -(1.0 - yf * (K @ (a * yf)))

    res = minimize(
        neg, np.zeros(len(yf)), jac=grad, method="SLSQP",
        bounds=[(0.0, C)] * len(yf),
        constraints={"type": "eq", "fun": lambda a: a @ yf, "jac": lambda a: yf},
        options={"maxiter": 1000, "ftol": ftol},
    )
    assert res.success
    return -res.fun


# ---------------------------------------------------------------------------
# documented behavior on tiny instances
# ---------------------------------------------------------------------------

def test_separable_one_dimensional_points():
    model = svm_train(np.array([[-2.0], [-1.0], [1.0], [2.0]]),
                      [-1, -1, 1, 1], kernel="linear", C=1.0)
    assert model.training_accuracy == 1.0
    assert model.converged


def test_xor_linear_cannot_exceed_three_quarters():
    # oracle: sweep 720 directions; along each, try every threshold cut of the
    # four projections with both orientations
    best = 0.0
    for angle in np.linspace(0.0, np.pi, 720, endpoint=False):
        proj = XOR_X @ np.array([np.cos(angle), np.sin(angle)])
        cuts = np.concatenate([[proj.min() - 1.0], np.sort(proj)])
        for tau in cuts:
            side = np.where(proj >= tau, 1, -1)
            acc = max(np.mean(side == XOR_Y), np.mean(-side == XOR_Y))
            best = max(best, acc)
    assert best == 0.75

    model = svm_train(XOR_X, XOR_Y, kernel="linear", C=1.0)
    assert model.training_accuracy <= 0.75


def test_xor_rbf_interpolates():
    model = svm_train(XOR_X, XOR_Y, kernel="rbf", gamma=1.0, C=10.0)
    assert model.training_accuracy == 1.0


# ---------------------------------------------------------------------------
# solver invariants
# ---------------------------------------------------------------------------

def test_dual_feasibility_and_support_set():
    rng = np.random.default_rng(0)
    x, y = blobs(rng, gap=1.0)  # overlapping: some alphas at the C bound
    model = svm_train(x, y, kernel="linear", C=0.7)
    # recover the full alpha vector from the stored support slice
    alpha = np.abs(model.dual_coef)
    assert np.all(alpha > 0.0) and np.all(alpha <= 0.7 + 1e-12)
    assert model.support_indices.size == np.unique(model.support_indices).size
    # the equality constraint sum(alpha * y) = 0 survives every pairwise update
    assert model.dual_coef.sum() == pytest.approx(0.0, abs=1e-10)


def test_duality_gap_brackets_the_optimum():
    rng = np.random.default_rng(1)
    x, y = blobs(rng, n_per=25, gap=0.8)
    for kernel in ("linear", "rbf"):
        model = svm_train(x, y, kernel=kernel, C=1.0)
        dual = dual_objective(full_alpha(model, len(y)), y, kernel_matrix(x, x, kernel, model.gamma))
        qp_obj = qp_oracle(x, y, kernel, C=1.0, gamma=model.gamma)
        scale = max(1.0, abs(qp_obj))
        assert model.duality_gap >= 0.0
        # weak duality: the optimum lies between the dual and primal objectives
        assert dual - 1e-9 * scale <= qp_obj <= dual + model.duality_gap + 1e-9 * scale


def test_linear_decision_matches_explicit_weights():
    rng = np.random.default_rng(2)
    x, y = blobs(rng, n_per=20, gap=1.5, dim=3)
    model = svm_train(x, y, kernel="linear", C=1.0)
    explicit = x @ (model.dual_coef @ model.support_vectors) + model.bias
    assert decision_function(model, x) == pytest.approx(explicit, abs=1e-8)


def test_margin_signs_at_convergence():
    rng = np.random.default_rng(3)
    x, y = blobs(rng, n_per=20, gap=4.0)
    model = svm_train(x, y, kernel="linear", C=1.0, tol=1e-4)
    assert model.converged
    margins = y * decision_function(model, x)
    alpha = np.zeros(len(y))
    alpha[model.support_indices] = np.abs(model.dual_coef)
    free = (alpha > 1e-9) & (alpha < 1.0 - 1e-9)
    assert margins[free] == pytest.approx(np.ones(free.sum()), abs=1e-2)
    assert np.all(margins[alpha <= 1e-9] >= 1.0 - 1e-2)
    assert np.all(margins[alpha >= 1.0 - 1e-9] <= 1.0 + 1e-2)


def test_predictions_reproduce_training_accuracy():
    rng = np.random.default_rng(4)
    x, y = blobs(rng, n_per=18, gap=1.2)
    for kernel in ("linear", "rbf"):
        model = svm_train(x, y, kernel=kernel, C=2.0)
        acc = np.mean(svm_predict(model, x) == y)
        assert acc == model.training_accuracy


def test_rbf_scale_invariance_is_bit_exact():
    rng = np.random.default_rng(5)
    x, y = blobs(rng, n_per=12, gap=1.0)
    probe = rng.standard_normal((7, 2))
    a = svm_train(x, y, kernel="rbf", gamma=0.8, C=1.0)
    b = svm_train(2.0 * x, y, kernel="rbf", gamma=0.2, C=1.0)
    assert np.array_equal(svm_predict(a, probe), svm_predict(b, 2.0 * probe))
    assert np.array_equal(decision_function(a, probe), decision_function(b, 2.0 * probe))


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_fit_does_not_depend_on_memory_layout(kernel):
    # the proxy embedding is axis-major (F-ordered); reductions over a row
    # of an F-ordered matrix sum in another order unless the fit reads it
    # row-major
    rng = np.random.default_rng(6)
    x, y = blobs(rng, n_per=20, gap=1.0, dim=3)
    x = np.tanh(x @ rng.standard_normal((3, 200)))
    probe = np.tanh(rng.standard_normal((5, 3)) @ rng.standard_normal((3, 200)))
    c_fit = svm_train(np.ascontiguousarray(x), y, kernel=kernel)
    f_fit = svm_train(np.asfortranarray(x), y, kernel=kernel)
    for name in ("dual_coef", "bias", "gamma", "support_vectors", "training_accuracy"):
        assert np.asarray(getattr(f_fit, name)).tobytes() == np.asarray(getattr(c_fit, name)).tobytes(), name
    assert (decision_function(c_fit, np.asfortranarray(probe)).tobytes()
            == decision_function(c_fit, probe).tobytes())


def test_nonconvergence_is_flagged_not_raised():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 2))
    y = np.where(rng.uniform(size=40) < 0.5, 1, -1)
    y[0], y[1] = 1, -1  # force both classes
    model = svm_train(x, y, kernel="linear", C=10.0, max_iter=1)
    assert model.n_sweeps == 1
    assert not model.converged
    again = svm_train(x, y, kernel="linear", C=10.0, max_iter=10000)
    assert again.converged


@pytest.mark.parametrize("seed, shape, scale, C", [(1, (18, 29), 10.0, 10.0), (5, (6, 20), 100.0, 1.0)],
                         ids=["coefficients_reach_zero", "multipliers_reach_zero"])
def test_stuck_fit_stops_without_a_floating_point_warning(seed, shape, scale, C):
    # on these separable inputs, snapping the coefficients within 1e-6 C of
    # a bound leaves KKT violators, so the snapped point never passes; the
    # iterate then runs down to a bound until the barrier overflows (the
    # first; the parent ran out 10,000 iterations) or mu underflows to 0 (the
    # second).  Tier-1 makes any RuntimeWarning on the way an error.  The fit
    # returns the snapped point of smallest gap it passed, not the last one
    # (gaps 0.18 and 0.16 there, below 1e-4 at the best).
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * scale
    y = rng.choice([-1, 1], shape[0])
    model = svm_train(x, y, kernel="linear", C=C)
    assert model.n_sweeps < 200
    assert math.isfinite(model.duality_gap) and 0.0 <= model.duality_gap <= 1e-4
    # converged only if the returned point passes the KKT check
    alpha, r = full_alpha(model, len(y)), y * decision_function(model, x) - 1.0
    kkt = np.all(((r >= -1e-3) | (alpha == C)) & ((r <= 1e-3) | (alpha == 0.0)))
    assert not kkt and not model.converged


def _random_battery():
    """The 300 inputs of a random battery of fits: N in [5, 55], q in [1, 39],
    scales 0.1 to 100, random labels, all from ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(300):
        n, q = int(rng.integers(5, 56)), int(rng.integers(1, 40))
        x = rng.standard_normal((n, q)) * rng.choice([0.1, 1.0, 10.0, 100.0])
        cases.append((x, rng.choice([-1, 1], n)))
    return cases


@pytest.mark.parametrize("case, C", [(157, 100.0), (160, 10.0), (263, 1.0), (263, 10.0)])
def test_step_bound_does_not_overflow(case, C):
    # on these fits some entry of the iterate moves by so little against its
    # value that -v / dv overflowed, though a full step leaves it far above
    # zero; only entries a full step crosses bound the step now, and their
    # ratios lie below 1
    x, y = _random_battery()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model = svm_train(x, y, kernel="linear", C=C)
    assert math.isfinite(model.duality_gap) and model.n_sweeps < 10000


def test_degenerate_duplicate_points_terminate():
    model = svm_train(np.zeros((2, 1)), [1, -1], kernel="linear", C=1.0)
    assert model.training_accuracy == 0.5


def test_input_validation():
    with pytest.raises(ValueError, match="single-class"):
        svm_train(np.eye(3), [1, 1, 1])
    with pytest.raises(ValueError, match="two training samples"):
        svm_train(np.ones((1, 2)), [1])
    with pytest.raises(ValueError, match="^C must be a finite number > 0: 0.0$"):
        svm_train(np.eye(2), [1, -1], C=0.0)
    with pytest.raises(ValueError, match="unknown kernel"):
        svm_train(np.eye(2), [1, -1], kernel="poly")
    with pytest.raises(ValueError, match="gamma"):
        svm_train(np.eye(2), [1, -1], kernel="rbf", gamma=-1.0)
    model = svm_train(np.eye(2), [1, -1])
    with pytest.raises(ValueError, match="dimension"):
        decision_function(model, np.ones((3, 5)))


def test_svm_train_rejects_inputs_it_cannot_fit():
    x = np.linspace(-1.0, 1.0, 20)[:, None]
    y = np.where(x[:, 0] > 0.0, 1, -1)
    # 0/1 labels, separable on the one axis, used to fit as a "converged" coin flip
    with pytest.raises(ValueError, match=r"labels must be -1 or \+1"):
        svm_train(x, (y + 1) // 2)
    # a tolerance of zero or less is never met; zero overflowed on the way
    for tol in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="^tol must be a finite number > 0: "):
            svm_train(x, y, tol=tol)
    # a negative cap is never reached: max_iter = -3 ran until convergence
    for max_iter in (-1, -3, math.nan):
        with pytest.raises(ValueError, match="^max_iter must be an integer >= 0: "):
            svm_train(x, y, max_iter=max_iter)
    start = svm_train(x, y, max_iter=0)
    assert start.n_sweeps == 0 and not start.converged
    # a NaN feature used to fit as accuracy 0.5 with a NaN duality gap
    for kernel in ("linear", "rbf"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^non-finite feature values$"):
                svm_train(np.array([[bad], [1.0], [-1.0], [2.0]]), [1, -1, 1, -1], kernel=kernel)


def trace_gram(x):
    """The Pauli path's Gram: F F' given, the norms and var(F) read off its
    diagonal and trace."""
    return Gram.of_kernel(x @ x.T, x.shape[1], float(x.mean()))


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_fit_on_the_gram_is_the_fit_on_the_features(kernel):
    # the solver reads only the kernel matrix, which the Gram gives to within rounding
    rng = np.random.default_rng(10)
    x, y = blobs(rng, n_per=20, gap=1.0, dim=3)
    x = np.tanh(x @ rng.standard_normal((3, 50)))
    rows, gram = svm_train(x, y, kernel=kernel), svm_train(trace_gram(x), y, kernel=kernel)
    if kernel == "rbf":
        assert gram.gamma == pytest.approx(rows.gamma, rel=1e-12)
    assert (gram.training_accuracy, gram.n_sweeps, gram.converged) == (
        rows.training_accuracy, rows.n_sweeps, rows.converged)
    assert gram.support_indices.tolist() == rows.support_indices.tolist()
    assert gram.dual_coef == pytest.approx(rows.dual_coef, rel=1e-8, abs=1e-10)
    assert gram.duality_gap == pytest.approx(rows.duality_gap, rel=1e-6, abs=1e-10)
    assert gram.support_vectors.size == 0
    with pytest.raises(ValueError, match="Gram matrix keeps no support vectors"):
        decision_function(gram, x)


def _one_path_inputs():
    """Raw train splits and their proxy blocks (axis-major, as the embedding
    writes them), each in both memory layouts."""
    config = ExperimentConfig(qubit_count=3)
    for kind in DATASET_KINDS:
        train = _training_split(kind, config)
        block = embed_dataset(train, "proxy", config.qubit_count, derive_seed(0, kind, "embed")).values
        assert block.flags.f_contiguous and not block.flags.c_contiguous
        for name, rows in (("raw", train.inputs), ("proxy", block)):
            for order in "CF":
                yield f"{kind} {name} {order}", np.asarray(rows, order=order), train.labels


def _bytes(value):
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("kernel, gamma", [("linear", "scale"), ("rbf", "scale"), ("rbf", 0.37)])
def test_a_fit_on_rows_is_the_fit_on_their_gram(kernel, gamma):
    # one kernel path: a fit on rows is a fit on Gram.of(rows) plus its support
    # rows, and Gram.of's kernel is kernel_matrix of the row-major rows, bit for bit
    for case, rows, y in _one_path_inputs():
        gram = Gram.of(rows)
        contiguous = np.ascontiguousarray(rows)
        gamma_value = resolve_gamma(gamma, gram) if kernel == "rbf" else None
        assert _bytes(gram.kernel(kernel, gamma_value)) == _bytes(
            kernel_matrix(contiguous, contiguous, kernel, gamma_value)), case
        on_rows = svm_train(rows, y, kernel=kernel, gamma=gamma)
        on_gram = svm_train(gram, y, kernel=kernel, gamma=gamma)
        for name in ("dual_coef", "bias", "gamma", "duality_gap", "n_sweeps", "support_indices"):
            assert _bytes(getattr(on_rows, name)) == _bytes(getattr(on_gram, name)), (case, name)
        assert _bytes(on_rows.support_vectors) == _bytes(contiguous[on_rows.support_indices]), case
        assert on_gram.support_vectors.size == 0


def test_gram_of_rejects_what_it_cannot_read():
    with pytest.raises(ValueError, match="^features must be a non-empty N x q matrix with one label per row$"):
        Gram.of(np.ones(4))
    with pytest.raises(ValueError, match="^features must be a non-empty N x q matrix with one label per row$"):
        svm_train(np.ones((4, 0)), [1, -1, 1, -1])
    with pytest.raises(ValueError, match="^non-finite feature values$"):
        Gram.of(np.array([[1.0], [math.nan]]))
    # finite rows whose products overflow (numpy's own warning aside)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^non-finite Gram values$"):
        Gram.of(np.array([[1e200], [1.0]]))


def test_gram_input_validation():
    x = np.linspace(-1.0, 1.0, 6)[:, None]
    y = np.where(x[:, 0] > 0.0, 1, -1)
    for bad in (math.nan, math.inf):
        values = x @ x.T
        values[2, 3] = values[3, 2] = bad
        with pytest.raises(ValueError, match="^non-finite Gram values$"):
            svm_train(Gram.of_kernel(values, 1, 0.0), y, kernel="rbf")
    with pytest.raises(ValueError, match="Gram matrix must be N x N"):
        svm_train(Gram.of_kernel((x @ x.T)[:, :5], 1, 0.0), y)
    with pytest.raises(ValueError, match="^a Gram matrix must be N x N with N >= 1$"):
        Gram.of_kernel(np.zeros((0, 0)), 1, 0.0)
    with pytest.raises(ValueError, match="^axis_count must be an integer >= 1: 0$"):
        Gram.of_kernel(x @ x.T, 0, 0.0)
    with pytest.raises(ValueError, match="one label per row"):
        svm_train(trace_gram(x), y[:5])
    with pytest.raises(ValueError, match="unknown kernel"):
        svm_train(trace_gram(x), y, kernel="poly")
    assert resolve_gamma("scale", trace_gram(x)) == pytest.approx(resolve_gamma("scale", Gram.of(x)), rel=1e-12)
    assert resolve_gamma("scale", Gram.of_kernel(np.zeros((3, 3)), 4, 0.0)) == 1.0


def test_gamma_scale_convention():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 5, size=(30, 4))
    assert resolve_gamma("scale", Gram.of(x)) == 1.0 / (4 * x.var())
    assert resolve_gamma("scale", Gram.of(np.zeros((5, 3)))) == 1.0
    assert resolve_gamma(0.3, Gram.of(x)) == 0.3


def test_exact_zero_decision_predicts_plus_one():
    empty = np.zeros((0, 2))
    model = SvmModel(
        kernel="linear", gamma=None, C=1.0, dual_coef=np.zeros(0), bias=0.0,
        support_indices=np.zeros(0, dtype=np.int64), support_vectors=empty,
        training_accuracy=0.5, converged=True, n_sweeps=1, duality_gap=0.0,
    )
    assert np.all(svm_predict(model, np.ones((4, 2))) == 1)


# ---------------------------------------------------------------------------
# against the QP oracle
# ---------------------------------------------------------------------------

def test_solver_reaches_the_dual_optimum():
    rng = np.random.default_rng(8)
    for kernel, gamma in (("linear", None), ("rbf", 0.5)):
        x, y = blobs(rng, n_per=12, gap=1.0)
        kwargs = {} if gamma is None else {"gamma": gamma}
        model = svm_train(x, y, kernel=kernel, C=1.0, tol=1e-4, **kwargs)
        assert model.converged
        obj = dual_objective(full_alpha(model, len(y)), y, kernel_matrix(x, x, kernel, gamma))
        qp_obj = qp_oracle(x, y, kernel, C=1.0, gamma=gamma)
        scale = max(1.0, abs(qp_obj))
        assert obj <= qp_obj + 1e-6 * scale   # QP optimum is the max
        assert qp_obj - obj <= 5e-3 * scale   # and the solver gets close to it


def test_ill_conditioned_proxy_embedding_converges():
    # the d = 4^6 proxy embedding of the default circles training split
    # (N = 100): its Gram matrix is numerically singular, where SMO stalled
    config = ExperimentConfig(qubit_count=6)
    spec = next(s for s in default_datasets(config.master_seed, config.n_samples) if s.kind == CIRCLES)
    standardized, _ = standardize(generate(spec))
    train, _ = stratified_split(standardized, config.train_fraction, config.subsample_train,
                                seed=derive_seed(config.master_seed, CIRCLES, "split"))
    seed = derive_seed(config.master_seed, CIRCLES, "embed")
    x = embed_dataset(train, "proxy", config.qubit_count, seed).values
    y = train.labels
    assert x.shape == (100, 4 ** 6)
    model = svm_train(x, y, kernel="linear", C=1.0, max_iter=100)
    assert model.converged
    obj = dual_objective(full_alpha(model, len(y)), y, kernel_matrix(x, x, "linear", None))
    # the optimum is about 67, where 1e-14 is below one rounding unit and
    # SLSQP ends on a failed line search
    qp_obj = qp_oracle(x, y, "linear", C=1.0, ftol=1e-12)
    scale = max(1.0, abs(qp_obj))
    assert obj <= qp_obj + 1e-6 * scale
    assert qp_obj - obj <= 5e-3 * scale


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(9)
    x, y = blobs(rng, n_per=14, gap=1.0)
    probe = rng.standard_normal((11, 2))
    for kernel in ("linear", "rbf"):
        model = svm_train(x, y, kernel=kernel, C=1.0)
        path = tmp_path / f"{kernel}.json"
        model_to_json(model, path)
        loaded = model_from_json(path)
        assert loaded.kernel == model.kernel
        assert loaded.C == model.C
        assert np.array_equal(decision_function(loaded, probe),
                              decision_function(model, probe))
        assert np.array_equal(svm_predict(loaded, probe), svm_predict(model, probe))
    # string form round-trips too
    text = model_to_json(svm_train(x, y))
    assert model_from_json(text).training_accuracy == svm_train(x, y).training_accuracy


def test_gram_fit_model_roundtrips_without_support_vectors():
    # a Gram fit keeps no rows: its empty support vectors come back 0 x 0,
    # and the loaded model still refuses to predict
    rng = np.random.default_rng(9)
    x, y = blobs(rng, n_per=14, gap=1.0)
    model = svm_train(trace_gram(x), y)
    loaded = model_from_json(model_to_json(model))
    assert model.support_indices.size > 0
    assert loaded.support_vectors.shape == model.support_vectors.shape == (0, 0)
    assert loaded.support_indices.tolist() == model.support_indices.tolist()
    with pytest.raises(ValueError, match="Gram matrix keeps no support vectors"):
        decision_function(loaded, x)


def test_model_from_json_reads_any_path_as_a_file(tmp_path, monkeypatch):
    # a path is a file to read and a str is JSON text, whatever either begins with
    monkeypatch.chdir(tmp_path)
    model = svm_train(XOR_X, XOR_Y, kernel="rbf")
    model_to_json(model, Path("{run}.json"))
    assert model_from_json(Path("{run}.json")).training_accuracy == model.training_accuracy
    with pytest.raises(ValueError):
        model_from_json("model.json")
