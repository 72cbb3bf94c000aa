"""Run one minacc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact_proxy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The run sets up `setup_reps` times, then repeats identical passes of the
workload until the timed calls add up to `--seconds`, checks every output,
and prints human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
passes alternate untraced and traced, and the metrics are the per-layer
ones computed from the spans of the traced passes (see spans.py).  A failed
call or check makes the run exit with code 1.  A record of the run (the
environment, metrics, digest and failures, plus the spans when traced) is
written under `.bench_out/` in the checkout.

End-to-end metrics:
  wall_s        median over passes of the timed calls of one pass
  setup_s       import time plus the median of the set-ups of one run
  peak_rss_mb   ru_maxrss of this process after the timed passes
  ok_ratio      calls that neither raised nor failed a check, over calls
  op_ms.p50     median latency of one call (what a call is is per workload)
  op_ms.p90     90th percentile of the same
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

# One BLAS thread, set before numpy loads: the same on every host, and
# immune to the load other processes put on the cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, SRC)
try:
    import minacc
except ImportError as exc:
    sys.exit(f"perfbench: cannot import minacc from {SRC}: {exc}")
if not os.path.abspath(minacc.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: minacc was imported from {minacc.__file__}, not from {SRC}")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _START


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def environment(seed: int, scale: workloads.Scale, workload) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "R": scale.reps,
        "scale": dataclasses.asdict(scale),
        **workload.environment,
    }


def measure(workload, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """Set up, run passes for `seconds` of timed calls, check, and compute
    the metrics of one run."""
    tracer = spans.Tracer() if trace else None
    setup_times, inputs = [], None
    for k in range(workload.scale.setup_reps):
        inputs = None  # each set-up starts from nothing, as in a fresh process
        start = time.perf_counter()
        with _traced(tracer, f"setup-{k}"):
            inputs = workload.prepare()
        setup_times.append(time.perf_counter() - start)

    passes, traced_walls, untraced_walls = [], [], []
    timed = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        with _traced(tracer if traced else None, f"pass-{len(passes)}"):
            run = workload.run_pass(inputs, tracer if traced else None)
        passes.append(run)
        (traced_walls if traced else untraced_walls).append(run.wall_s)
        timed += run.wall_s
        if timed >= seconds and (tracer is None or traced_walls):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = workloads.digest_hash(passes[0].digest)
    for k, run in enumerate(passes[1:], start=1):
        run.check(0, workloads.digest_hash(run.digest) == first, f"pass {k} outputs differ from pass 0")
    outcomes = workload.finish(inputs, passes)

    calls = [s for run in passes for s in run.seconds]
    walls = [run.wall_s for run in passes]
    failures = [msg for run in passes for msgs in run.failures for msg in msgs]
    failed = sum(bool(msgs) for run in passes for msgs in run.failures)
    if trace:
        extra = {f"sampling.{key}": (outcomes.get(key, 0.0), unit)
                 for key, unit in (("hit_ratio", "ratio"), ("estimate_gap", "accuracy"))}
        metrics = spans.layer_metrics(tracer, workload.call_span, traced_walls, untraced_walls, extra)
        samples = {name: len(traced_walls) for name in metrics}
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": ((len(calls) - failed) / len(calls), "ratio"),
            "op_ms.p50": (percentile(calls, 50) * 1e3, "ms"),
            "op_ms.p90": (percentile(calls, 90) * 1e3, "ms"),
        }
        samples = {"wall_s": len(walls), "setup_s": len(setup_times), "peak_rss_mb": 1,
                   "ok_ratio": len(calls), "op_ms.p50": len(calls), "op_ms.p90": len(calls)}
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": len(calls),
        "failed": failed,
        "failures": failures,
        "passes": len(passes),
        "outcomes": outcomes,
        "computed_work": workload.computed_work(inputs, passes[0]),
        "digest": passes[0].digest,
        "digest_sha": workloads.digest_hash(passes[0].digest),
        "tracer": tracer,
    }


class _traced:
    """Installs the tracer's rebindings for one set-up or pass."""

    def __init__(self, tracer, run: str):
        self.tracer, self.run = tracer, run

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.run = self.run
            self.tracer.install()

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    scale = workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, scale, OUT_DIR)
    result = measure(workload, args.seconds, bool(args.trace), IMPORT_S)
    env = environment(args.seed, scale, workload)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"passes={result['passes']} calls={result['attempted']} (operation = {workload.op_unit})")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "scale"))
    work = " ".join(f"{k}={v}" for k, v in result["computed_work"].items())
    print(f"computed work per set-up and pass (from shapes and outputs, not timed): {work}")
    for line in workload.digest_lines(result["digest"]):
        print(f"digest {line}")
    print(f"digest sha256={result['digest_sha']}")
    for key, value in result["outcomes"].items():
        print(f"outcome {key}={value!r}")
    print(f"fail_ratio={result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} calls)")
    for message in result["failures"][:20]:
        print(f"FAILED {message}")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit} (n={result['samples'][name]})")

    correct = result["failed"] == 0
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    record = {key: result[key] for key in ("attempted", "failed", "failures", "passes", "outcomes",
                                           "computed_work", "digest_sha", "samples")}
    record.update(workload=args.workload, trace=args.trace, env=env, metrics=metrics, digest=result["digest"])
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=repr)
    if result["tracer"] is not None:
        result["tracer"].dump(stem + "-spans.json")

    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
