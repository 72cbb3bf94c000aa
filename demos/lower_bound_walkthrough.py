"""Walk through the certification chain on one dataset, end to end.

The claim being demonstrated: for a fixed feature embedding, the best
accuracy reachable by *any* single-axis threshold rule (R_min, found by an
exhaustive scan) is a lower bound on the optimum over all linear classifiers
in the same feature space (R*), and every Monte Carlo estimate r_hat built
from a subset of axes is in turn a lower bound on R_min:

    r_hat  <=  R_min  <=  R*

Both inequalities are exact by construction; the second one because the
winning axis rule rewrites as a hyperplane (the "witness") that any linear
optimum must match or beat.  A trained soft-margin SVM only approximates R*
from below, so it can land under R_min at small effective C; the witness
never does.  Run it:

    python3 demos/lower_bound_walkthrough.py
"""

import time

import numpy as np

from minacc.axiscore import (
    ThresholdClassifier,
    as_linear_classifier,
    linear_predict,
    r_min_deterministic,
)
from minacc.datagen import CIRCLES, DatasetSpec, generate, standardize, stratified_split
from minacc.featmap import LazyProxyFeatures, ProjectionSpec
from minacc.sampling import adaptive_estimate, conservative_estimate, pilot_estimate, sample_size
from minacc.svmref import svm_train

QUBITS = 5                 # feature count d = 4^5 = 1024; the benchmark uses 4^8
D = 4 ** QUBITS
SEED = 0

# --- data: concentric circles, the intrinsically non-linear case -----------

spec = DatasetSpec(kind=CIRCLES, n_samples=1000, seed=SEED)
full = generate(spec)
standardized, _ = standardize(full)
train, test = stratified_split(standardized, train_fraction=0.7,
                               subsample_train=100, seed=SEED)
print(f"dataset: {spec.kind}, N_train = {train.sample_count} "
      f"({train.positive_count} positive / {train.negative_count} negative)")

# --- embedding: tanh random projection into d = 4^n dimensions -------------

projection = ProjectionSpec(input_dim=train.input_dim, feature_dim=D, seed=SEED)
lazy = LazyProxyFeatures(train, projection)
t0 = time.perf_counter()
dense = lazy.materialize()
print(f"embedded into d = {D} axes in {time.perf_counter() - t0:.2f} s")

# --- exhaustive scan: the exact minimum accuracy ----------------------------

t0 = time.perf_counter()
r_min, best, per_axis = r_min_deterministic(dense, train.labels)
scan_s = time.perf_counter() - t0
print(f"\nR_min = {r_min:.4f}  (axis {best.axis_index}, "
      f"threshold {best.best_threshold:+.4f}, {scan_s:.2f} s for all {D} axes)")
print(f"axis accuracy distribution: median {np.median(per_axis):.4f}, "
      f"90th pct {np.quantile(per_axis, 0.9):.4f}, max {per_axis.max():.4f}")

# --- Monte Carlo estimators: certified subsets of the scan ------------------

print("\nestimator            axes   r_hat   stop")
estimates = []
for p in (0.05, 0.15, 0.25):
    result = conservative_estimate(dense, train.labels, p_conservative=p,
                                   delta=0.05, rng_seed=SEED)
    estimates.append(result)
    print(f"conservative p={p:<5}  {result.axes_evaluated:>4}   "
          f"{result.r_hat:.4f}  {result.stopping_reason.value} "
          f"(planned t={sample_size(p, 0.05)})")

pilot = pilot_estimate(dense, train.labels, n_pilot=100, delta=0.05,
                       cap_fraction=0.1, rng_seed=SEED)
estimates.append(pilot)
print(f"pilot               {pilot.axes_evaluated:>4}   {pilot.r_hat:.4f}  "
      f"{pilot.stopping_reason.value} "
      f"(p_hat={pilot.pilot_stats.p_hat:.3f} -> t={pilot.pilot_stats.t_required})")

adaptive = adaptive_estimate(dense, train.labels, batch_size=40, patience=3,
                             stability_eps=1e-3, budget_fraction=0.1, rng_seed=SEED)
estimates.append(adaptive)
print(f"adaptive            {adaptive.axes_evaluated:>4}   {adaptive.r_hat:.4f}  "
      f"{adaptive.stopping_reason.value}")

print(f"\nevery estimate <= R_min, exactly: "
      f"{all(r.r_hat <= r_min for r in estimates)}")

# --- the witness: R* >= R_min is constructive --------------------------------

clf = ThresholdClassifier(axis_index=best.axis_index,
                          threshold=best.best_threshold,
                          orientation=best.orientation)
w, b = as_linear_classifier(clf, axis_count=D)
witness_acc = float(np.mean(linear_predict(w, b, dense) == train.labels))
print(f"witness hyperplane (w = +-e_{best.axis_index}, b = {b:+.4f}) "
      f"accuracy: {witness_acc:.4f} == R_min -> R* >= R_min")

# --- trained baselines in the same feature space ----------------------------

t0 = time.perf_counter()
linear = svm_train(dense.values, train.labels, kernel="linear", C=1.0)
rbf = svm_train(dense.values, train.labels, kernel="rbf", C=1.0)
print(f"\nlinear SVM (hinge, C=1): {linear.training_accuracy:.4f} "
      f"(converged={linear.converged}, {time.perf_counter() - t0:.1f} s)")
print(f"RBF SVM:                 {rbf.training_accuracy:.4f}")
print(f"RBF headroom over the single-axis certificate: "
      f"{rbf.training_accuracy - r_min:+.4f}")
print("\nnote: the soft-margin fit approximates R* from below and can land")
print("under R_min at small effective C; the witness shows R* itself cannot.")
print("At the benchmark width d = 4^8 the trained linear SVM clears R_min")
print("on all three datasets (see the acceptance tests).")
