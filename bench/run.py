"""eigenrecon benchmark: one seeded, closed-loop workload per run.

Run from the repository root:

    python3 bench/run.py --workload reconstruct --seed 1 --seconds 25 --trace 0

Workloads: reconstruct, rank1_stream, pair_verify, cli_oneshot (see
workloads.py, and BENCHMARK.json for why each is there). One client runs the
workload's cycle of operations one after another and stops at the first
cycle boundary after ``--seconds`` of operation CPU time. Each output is
checked against a numpy.linalg oracle outside the timed region.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it holds the details:
environment, tail percentile and sample count, failures by kind, SHA-256 of
the first cycle's outputs, unscaled CPU and wall times, per-kind trace counts.

Times are CPU times scaled to a reference CPU speed (see clock.py). An
operation's time is this thread's CPU time plus that of the child processes
it ran. ``setup_s`` is the CPU time of a whole process from its start to the
end of set-up (imports, inputs, precomputation, one warm-up operation),
children included: the median of three fresh processes.

``--trace 1`` alternates untraced cycles with cycles in which every public
library function is wrapped (see tracer.py). Per-layer values are per
operation of the traced cycles; ``trace.overhead_ms`` is traced minus
untraced time, per operation (both halves run the same items).
"""

import argparse
import importlib.metadata
import json
import os
import platform
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# One BLAS thread: the Jacobi solver is pure Python, and idle BLAS threads
# would only add noise on a small machine.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eigenrecon" / "__init__.py").is_file():
        print(f"error: no eigenrecon sources under {SRC}", file=sys.stderr)
        return 2
    # Inherited by child processes. One CPU, so that the reference kernel
    # and the child processes it scales run where the parent runs; the BLAS
    # variables must be set before numpy is first imported.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, details = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": {**details, "environment": environment()}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
