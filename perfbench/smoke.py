"""Toy-size smoke test of every workload's code path and checks.

    python3 perfbench/smoke.py

Runs each workload at the TOY scale (N = 20 training rows, d = 4^4, the
smallest d the pilot estimator accepts with n_pilot = 100), untraced
and traced, and requires that every check passes, that two runs of one seed
give one digest, that the traced run reports every per-layer metric, and
that the checks catch a corrupted output.  Takes seconds; it is not part of
the test suite.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run  # sets the BLAS threads and puts the package on the path first
import workloads


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    expected = {mode: {m["name"]: m["unit"] for m in declared[key]}
                for mode, key in ((False, "end_to_end"), (True, "per_layer"))}
    problems = []
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as out:
        for name, cls in workloads.WORKLOADS.items():
            digests = []
            for trace in (False, True):
                result = run.measure(cls(3, workloads.TOY, out), seconds=0.0, trace=trace)
                digests.append(result["digest_sha"])
                if result["failed"]:
                    problems.append(f"{name} trace={trace}: {result['failures'][:3]}")
                print(f"{name} trace={int(trace)}: {result['attempted']} calls, "
                      f"{result['failed']} failed, digest {result['digest_sha']}")
                units = {name: unit for name, (_, unit) in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
                names = sorted(result["metrics"])
                print("  " + " ".join(f"{k}={result['metrics'][k][0]:.4g}" for k in names))
            if digests[0] != digests[1]:
                problems.append(f"{name}: digest differs between two runs of one seed")
        problems += _corruption_is_caught(out)
    for problem in problems:
        print(f"SMOKE FAILURE {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def _corruption_is_caught(out) -> list[str]:
    """An estimate above R_min must fail the sampled_proxy certificate check."""
    workload = workloads.SampledProxy(3, workloads.TOY, out)
    inputs = workload.prepare()
    first = workload.run_pass(inputs)
    first.digest["calls"][0][4] = 1.5
    workload.finish(inputs, [first])
    if not first.failures[0]:
        return ["a corrupted estimate passed the r_hat <= R_min check"]
    return []


if __name__ == "__main__":
    sys.exit(main())
