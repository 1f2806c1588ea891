"""Benchmark entry point.

    python3 perfbench/run.py --workload solve-mixed --seed 1 --seconds 20 --trace 0

Run from the repository root.  Imports homcone from ``src/`` of the
checkout (never an installed copy), pins BLAS to one thread, runs the
workload and prints, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a JSON record of the environment and
the per-instance details.  Exits 2 without a result when the program
cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read without starting git; "unknown" when the
    checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    src = root / "src"
    if not (src / "homcone" / "__init__.py").is_file():
        print(f"perfbench: no homcone package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    try:
        import homcone
        import numpy as np
        from perfbench.workloads import WORKLOADS, run
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    if Path(homcone.__file__).resolve().parent != (src / "homcone").resolve():
        print(f"perfbench: imported homcone from {homcone.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    res = run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), root)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "seed": args.seed,
        "commit": _git_commit(root),
    }
    print(json.dumps({"env": env, **res.detail}))
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
