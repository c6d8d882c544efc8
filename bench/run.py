"""Run one compset benchmark workload and print its metrics.

    python3 bench/run.py --workload pipeline-default --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The BLAS library is
pinned to one thread before NumPy loads.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The line before it describes
the run: environment, rounds, timing samples and the digest of the trained
state.  A traced run also writes its spans to ``bench/out/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "base_fit_s": "s",
    "inc_fit_s": "s",
    "eval_maps_per_s": "maps/s",
    "interpret_s": "s",
    "reuse_s": "s",
    "score_ref_maps_per_s": "maps/s",
    "compare_s": "s",
    "peak_rss_mb": "MB",
}


def _import_package() -> None:
    """Import compset from the checkout's src/, refusing any other copy."""
    if not (SRC / "compset" / "__init__.py").is_file():
        sys.exit(f"bench: no compset sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import compset

    if Path(compset.__file__).resolve().parent != (SRC / "compset").resolve():
        sys.exit(f"bench: imported compset from {compset.__file__}, not from {SRC}")


def blas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(np),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _import_package()
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        import tracemalloc

        tracemalloc.start()
        tracer = tracing.Tracer()
        tracer.wrap_package()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracing.layer_metrics(tracer.spans).items()}
    else:
        values = dict(result.metrics, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": result.rounds,
        "digest": result.digest,
        "problems": result.problems,
        "environment": environment(np),
        "samples": result.samples,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
