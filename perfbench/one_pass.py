"""One pass of one workload, in a fresh process.

Imports agreelab (from PYTHONPATH), writes the workload's inputs, runs its
operations in order as a single closed-loop caller, checks every output,
and prints one JSON line: wall and set-up time, peak RSS, per-operation
times, failures, the run record and, with --trace 1, per-layer metrics.

    PYTHONPATH=src python3 perfbench/one_pass.py --workload synthesis \\
        --seed 0 --workdir .perfbench/work/p0 --trace 0

--setup-only stops before the first operation.  --record rewrites this
workload's entry in reference.json from the pass's outputs; use it only
with the default seed.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def run_record(workload, inputs) -> dict:
    import numpy as np

    import agreelab
    from agreelab import _kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    backend = _kernels.backend() if hasattr(_kernels, "backend") else None
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "agreelab": getattr(agreelab, "__version__", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "sizes": workload.sizes(inputs),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    # set-up and wall time start here: the import of agreelab (and numpy)
    t0, t0_ns = time.perf_counter(), time.perf_counter_ns()
    import agreelab.cli  # noqa: F401  (imports every module the CLI uses)

    import tracer as tracing
    import workloads

    src = Path(agreelab.__file__).resolve().parent.parent
    if not (src / "agreelab" / "cli.py").is_file():
        print(f"agreelab imported from {src}, not a source tree", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)

    tr = tracing.Tracer() if args.trace else None
    outputs, errors, op_s = {}, {}, {}
    if tr:
        tr.install()
    try:
        if tr:
            tr.op = "setup"
        inputs = workload.prepare(args.seed, args.workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        for name, fn in workload.operations(inputs):
            if tr:
                tr.op = name
            t = time.perf_counter()
            try:
                outputs[name] = fn()
            except Exception as e:  # counted as a failed operation
                errors[name] = f"{type(e).__name__}: {e}"
            op_s[name] = time.perf_counter() - t
        wall_s = time.perf_counter() - t0
    finally:
        if tr:
            tr.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    problems = workload.check(inputs["summary"], outputs, args.seed, reference)
    problems += [(op, msg) for op, msg in errors.items()]
    failed = {op for op, _ in problems}
    result = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "op_s": op_s,
        "attempted": len(op_s),
        # a problem no single operation owns fails the pass as a whole
        "failed": len(failed & set(op_s)) or (len(op_s) if failed else 0),
        "problems": [f"{op}: {msg}" for op, msg in problems],
        "record": run_record(workload, inputs),
    }
    if hasattr(workload, "realizations_per_s") and not errors:
        result["realizations_per_s"] = workload.realizations_per_s(op_s)
    if tr:
        result["layers"] = tracing.layer_metrics(tr.spans, workload.requested_paths)
        result["trace_missing"] = tr.missing
        if args.trace_out:
            tr.write(args.trace_out, t0_ns)
    if args.record:
        if args.seed != workloads.DEFAULT_SEED or errors:
            print("--record needs the default seed and a pass without errors", file=sys.stderr)
            return 2
        reference[workload.name] = {"inputs": inputs["summary"], "outputs": outputs}
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
