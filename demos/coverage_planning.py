"""Sample-size planning and the exact coverage probability.

How many axes must a uniform without-replacement sample touch before it
contains at least one "good" axis, i.e. one whose threshold accuracy reaches
the target level?  If a fraction p of all d axes is good, the planner picks

    t = ceil(ln(1/delta) / p)

and the actual hit probability is hypergeometric.  This script prints the
planning table, compares the exact probability with the closed-form Bernoulli
lower bound, and then validates both against brute-force frequencies on a
planted accuracy vector.
"""

import numpy as np

from minacc.axiscore import FeatureMatrix
from minacc.sampling import (
    CoverageQuery,
    conservative_estimate,
    coverage_probability_bound,
    coverage_probability_exact,
    sample_size,
)

DELTA = 0.05
D = 65536

print(f"planning table at delta = {DELTA} (d = {D}):")
print("    p     t = ceil(ln(1/delta)/p)   exact coverage   Bernoulli bound")
for p in (0.05, 0.15, 0.25, 0.5, 1.0):
    t = sample_size(p, DELTA)
    query = CoverageQuery(d=D, p=p, t=t)
    exact = coverage_probability_exact(query)
    bound = coverage_probability_bound(query)
    print(f"  {p:5.2f}   {t:10d}               {exact:.6f}        {bound:.6f}")

print("\nwithout replacement beats the with-replacement bound as t grows")
print("(d = 40, p = 0.25, so 10 good axes in the population):")
print("    t   exact      bound      gap")
for t in (1, 2, 4, 8, 16, 30):
    query = CoverageQuery(d=40, p=0.25, t=t)
    exact = coverage_probability_exact(query)
    bound = coverage_probability_bound(query)
    print(f"  {t:3d}   {exact:.6f}  {bound:.6f}  {exact - bound:+.6f}")

# --- empirical check on a planted matrix ------------------------------------
# 50 of 200 axes copy the labels (accuracy 1.0), the rest are constant
# (accuracy 0.5): the good-axis fraction at level 0.75 is exactly 0.25.

n, d, k = 40, 200, 50
labels = np.tile([1, -1], n // 2)
values = np.zeros((n, d))
values[:, :k] = labels[:, None]
features = FeatureMatrix(values)

t = sample_size(0.25, DELTA)
trials = 1000
hits = sum(
    conservative_estimate(features, labels, p_conservative=0.25,
                          delta=DELTA, rng_seed=seed).r_hat >= 0.75
    for seed in range(trials)
)
expected = coverage_probability_exact(CoverageQuery(d=d, p=0.25, t=t))
print(f"\nplanted vector, d = {d}, {k} good axes, t = {t}:")
print(f"  exact coverage   {expected:.4f}")
print(f"  empirical rate   {hits / trials:.4f}   ({hits}/{trials} seeds)")
