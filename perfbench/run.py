"""perfbench entry point: one benchmark run of one workload.

    python3 perfbench/run.py --workload cluster-c3 --seed 1 --seconds 30 --trace 0

Run from a source checkout: msrcodes is imported from the checkout's `src/`
and nowhere else.  Prints every metric by name with its unit, then, as the
last line of stdout, one JSON object {correct, attempted, failed, metrics}.
`--trace 0` gives the end-to-end metrics; `--trace 1` the per-layer ones
and writes the spans to perfbench/out/.  Exits 2 without a result when the
checkout has no msrcodes source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPU count; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "msrcodes" / "__init__.py").is_file():
        print(f"error: no msrcodes source under {SRC}", file=sys.stderr)
        return 2
    nproc = _cap_threads()
    sys.path.insert(0, str(SRC))
    import msrcodes
    if Path(msrcodes.__file__).resolve().parent != (SRC / "msrcodes").resolve():
        print(f"error: msrcodes imported from {msrcodes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    from bench_workloads import UNITS, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    print(f"# machine: nproc={nproc} python={platform.python_version()} "
          f"numpy={np.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"# workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    trace_path = OUT / f"trace-{w.name}-seed{args.seed}.json" if args.trace else None
    OUT.mkdir(parents=True, exist_ok=True)
    result = run_workload(w, args.seed, args.seconds, bool(args.trace), OUT, trace_path)
    if trace_path is not None:
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    print(f"# ops attempted={result['attempted']} failed={result['failed']} "
          f"failed_op_share={result['failed'] / result['attempted']:.6g}")
    for name, value in result["metrics"].items():
        print(f"{name:42s} {value!s:>24s} {UNITS[name]}")
    result["metrics"] = {name: {"value": value, "unit": UNITS[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
