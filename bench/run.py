"""tsmkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the tsmkit sources are imported from its
`src/`. With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 the calls into tsmkit are wrapped by
`tracer.py` and the object holds the per-layer metrics instead. Each run also
writes a record (and with --trace 1 its spans) under bench/out/.
"""

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _fingerprint(nproc):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    # at most one BLAS thread per CPU this process may run on; set before
    # NumPy is first imported
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)

    if not (ROOT / "src" / "tsmkit" / "__init__.py").is_file():
        print(f"error: no tsmkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from tracer import Tracer, per_layer_metrics

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{sorted(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        ctx = workloads.Context(args.seed, args.seconds, workdir, tracer)
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        wanted = spec["per_layer"]
        values = per_layer_metrics(tracer.spans, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = result.metrics
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-" \
          f"{os.getpid()}"
    (OUT / "runs").mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": _fingerprint(nproc),
        "attempted": result.attempted, "failed": result.failed,
        "round_times": result.round_times, "counts": result.counts,
        "checkpoint_sha256": {k: sorted(v) for k, v in result.sha256.items()},
        "end_to_end": result.metrics, "detail": result.detail,
        "errors": result.errors,
    }
    if tracer:
        record["per_layer"] = values
        (OUT / "traces").mkdir(exist_ok=True)
        trace_path = OUT / "traces" / f"{tag}.json"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["spans"] = len(tracer.spans)
    with open(OUT / "runs" / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for err in result.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": not result.errors,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
