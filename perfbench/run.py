"""trajsel benchmark: serving, training and dataset building.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-desk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One workload runs per process. The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
exit code is 0 when every correctness check passed, 1 when one failed and
2 when the package cannot be found or the arguments are wrong.
`--workload all` runs every workload in its own child process.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread (at most nproc): steadier timings, and the training run
# that builds the serve-desk weights is bit-reproducible only for a fixed
# thread count. Must be set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_NAMES = ("serve-desk", "serve-paper", "train-desk", "dataset-desk")


class Context:
    """Where a run reads and writes, and its seed."""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.root = ROOT
        self.src_dir = SRC
        self.cache_dir = CACHE
        self.work_dir = work_dir


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import trajsel from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "trajsel", "__init__.py")):
        raise ImportError(f"no trajsel package under {SRC}")
    sys.path.insert(0, SRC)
    import trajsel

    if os.path.dirname(os.path.dirname(os.path.abspath(trajsel.__file__))) != SRC:
        raise ImportError(f"trajsel resolved to {trajsel.__file__}, not {SRC}")


def _run_all(args) -> int:
    import subprocess

    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        if proc.returncode != 0:
            print(f"== {name}: exit code {proc.returncode}", flush=True)
            status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot load trajsel: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    import json
    import shutil
    import tempfile

    import workloads
    from tracing import PER_LAYER

    os.makedirs(CACHE, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=CACHE)
    try:
        result = workloads.run(args.workload, Context(args.seed, work_dir),
                               args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else workloads.END_TO_END
    for err in result["errors"]:
        print(f"CHECK FAILED: {err}")
    print(f"info: {json.dumps(result['info'], sort_keys=True)}")
    for name, value in result["metrics"].items():
        print(f"{args.workload:14s} {name:38s} {value:14.4f} {units[name][0]}")
    print(f"{args.workload:14s} attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
