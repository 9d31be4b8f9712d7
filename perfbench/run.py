"""Run one benchmark workload of otmel and print its metrics.

    python3 perfbench/run.py --workload link-ot --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the library is imported from its
``src/`` directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones. The line before it records the
environment of the run. Inputs are written under ``.perfbench_run/`` and
removed at exit; a traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def environment(otmel, numpy, seed: int) -> dict:
    """What the numbers depend on besides the code: recorded, never bounded."""
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "otmel_threads": otmel.RunConfig().resolved_threads(),
        "seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "otmel" / "__init__.py").is_file():
        print(f"error: no otmel sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The default thread count is part of what is measured.
    os.environ.pop("OTMEL_THREADS", None)
    sys.path.insert(0, str(SRC))

    import numpy
    import otmel
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    spans = OUT / f"spans-{args.workload}.npz" if args.trace else None
    try:
        attempted, failed, metrics, info = workloads.run_workload(
            workloads.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            ROOT,
            work_dir,
            spans,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    print(json.dumps({"environment": environment(otmel, numpy, args.seed), "info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
