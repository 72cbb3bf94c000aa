"""Exact Pauli features at small n, next to the proxy that stands in for them.

At n qubits the encoding circuit turns an input x into a statevector, and
every one of the 4^n Pauli strings contributes one feature: its expectation
value, a number in [-1, 1].  Dense simulation caps n at 8 (d = 65,536, about
0.15-0.19 s per 100 samples on one core); the tanh random-projection proxy
has no such cap and is what the benchmark uses at n = 8.  This script builds
both at n = 3 (d = 64) on a tiny dataset and compares what the axis scan
sees; set QUBITS to 8 to compare them at the benchmark width.
"""

import numpy as np

from minacc.axiscore import r_min_deterministic
from minacc.datagen import CIRCLES, DatasetSpec, generate, standardize, stratified_split
from minacc.featmap import (
    EncodingCircuitSpec,
    LazyProxyFeatures,
    ProjectionSpec,
    pauli_feature_matrix,
    pauli_string,
)

QUBITS = 3
D = 4 ** QUBITS
SEED = 7

spec = DatasetSpec(kind=CIRCLES, n_samples=400, seed=SEED)
standardized, _ = standardize(generate(spec))
train, _ = stratified_split(standardized, subsample_train=100, seed=SEED)

# --- the exact features ------------------------------------------------------

circuit = EncodingCircuitSpec(qubit_count=QUBITS, layers=2)
pauli = pauli_feature_matrix(train, circuit)
print(f"Pauli features: {pauli.sample_count} samples x {pauli.axis_count} strings")
print(f"  first strings: "
      f"{', '.join(pauli_string(i, QUBITS).letters for i in range(6))}, ...")
print(f"  identity column is all ones: {bool(np.all(pauli.values[:, 0] == 1.0))}")
purity = np.sum(pauli.values ** 2, axis=1)
print(f"  purity sum_i a_i^2 per sample: {purity.min():.8f} .. {purity.max():.8f} "
      f"(pure-state value {2 ** QUBITS})")

r_pauli, best_pauli, acc_pauli = r_min_deterministic(pauli, train.labels)
print(f"  R_min on the exact features: {r_pauli:.4f} "
      f"(axis {best_pauli.axis_index} = {pauli_string(best_pauli.axis_index, QUBITS).letters})")

# --- the proxy at the same width ---------------------------------------------

proxy = LazyProxyFeatures(train, ProjectionSpec(input_dim=train.input_dim,
                                                feature_dim=D, seed=SEED)).materialize()
r_proxy, best_proxy, acc_proxy = r_min_deterministic(proxy, train.labels)
print(f"\nproxy features: tanh of a seeded Gaussian projection, same d = {D}")
print(f"  values bounded like expectations: max |value| = {np.abs(proxy.values).max():.4f}")
print(f"  R_min on the proxy: {r_proxy:.4f} (axis {best_proxy.axis_index})")

print("\nper-axis accuracy spread (how much one axis can carry):")
for name, acc in (("pauli", acc_pauli), ("proxy", acc_proxy)):
    print(f"  {name}: median {np.median(acc):.4f}, "
          f"90th pct {np.quantile(acc, 0.9):.4f}, max {acc.max():.4f}")

print("\nthe two feature maps are different spaces; the scan treats both the")
print("same way, and growing the proxy d only appends axes, so these numbers")
print("are stable prefixes of any larger run with the same seed.")
