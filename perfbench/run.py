"""Batch benchmark of the CA-SC reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload unif-sweep --seed 1 --seconds 50 --trace 0

One workload per process, so ``peak_rss_mb`` is that workload's own.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same streams alternately untraced and traced and reports the per-layer
metrics. The last line of standard output is the result as one JSON
object; the line before it is the full record with the environment
block. Records and the span trace (JSONL) are also written under
``--out``. See ``perfbench/LAYERS.md`` for the workloads and layers.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Pinned to one thread before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for the run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine_probe() -> float:
    """Seconds of a fixed pure-Python loop plus a fixed numpy kernel."""
    import numpy as np

    started = perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(100):
        values = np.sqrt(values * values + 1.0)
    return perf_counter() - started


def environment() -> dict:
    import numpy as np

    from repro.core.kernels import DEFAULT_KERNEL

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "default_kernel": DEFAULT_KERNEL,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    if args.tiny:
        workload = bench.tiny(workload)

    env = environment()
    env["probe_before_s"] = machine_probe()
    record = bench.measure(workload, args.seed, args.seconds, bool(args.trace))
    env["probe_after_s"] = machine_probe()
    tracer = record.pop("tracer", None)
    metrics = record.pop("metrics")
    units = metric_units(bool(args.trace))
    missing = [name for name in units if name not in metrics]
    if missing and record["correct"]:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": env,
        **record,
        "metrics": result["metrics"],
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if tracer is not None:
        tracer.write_jsonl(out / f"{stem}.spans.jsonl")
    print(json.dumps(full))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
