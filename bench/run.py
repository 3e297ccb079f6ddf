"""Benchmark of odlc: codec round trips, desk training and the alpha sweep.

Run from the repository root:

    python3 bench/run.py --workload codec_roundtrip.64px --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload train_desk.alpha05 --seed 1 --seconds 16 --trace 1
    python3 bench/run.py --write-spec     # regenerate BENCHMARK.json from bench/spec.py

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` re-runs the
workload with spans installed around odlc's public functions and reports
the per-layer split. The report goes to standard output, and its last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 when the run finished, whether or not every operation
passed its check; it is 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(seed: int, nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _p10_p90(values):
    import statistics
    if len(values) < 10:
        return None
    q = statistics.quantiles(values, n=10)
    return q[0], q[-1]


def _finite(v):
    return v if math.isfinite(v) else None


def print_report(name: str, unit: str, res, record: dict, trace: bool):
    import spec
    print(f"# workload {name}: one unit = one {unit}; closed loop, one caller")
    print(f"# run {json.dumps(record, sort_keys=True)}")
    frac = res.failed / res.attempted if res.attempted else float("nan")
    print(f"ops_failed_frac {frac:.6g} failed/attempted (lower is better; {res.failed} of {res.attempted})")
    if trace:
        units = {n: (u, b) for n, u, b in spec.PER_LAYER}
        for n, v in res.metrics.items():
            u, b = units[n]
            print(f"{n} {v:.6g} {u} ({b} is better{'; computed from shapes' if n in spec.COMPUTED else ''})")
    else:
        for n, u, b, _ in spec.END_TO_END:
            vals = res.samples.get(n)
            extra = f"; median of {len(vals)} samples" if vals else ""
            spread = _p10_p90(vals) if vals else None
            if spread:
                extra += f"; p10 {spread[0]:.6g}, p90 {spread[1]:.6g}"
            print(f"{n} {res.metrics[n]:.6g} {u} ({b} is better{extra})")
    for n, (v, u, b) in res.details.items():
        print(f"{n} {v:.6g} {u} ({b} is better; median, report only)")
    for e in res.errors:
        print(f"# failed: {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="also write the traced run's spans here as JSON lines")
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    import spec
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json_text())
        return 0
    if args.workload not in spec.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(spec.WORKLOADS)}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds

    if not (ROOT / "src" / "odlc" / "__init__.py").is_file():
        print(f"bench: no odlc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # BLAS may use every core this process may run on, and no more; set
    # before numpy loads
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        res = workloads.run_workload(args.workload, args.seed, seconds, bool(args.trace),
                                     Path(workdir))
    if args.spans and res.spans is not None:
        with open(args.spans, "w") as f:
            for name, kind, start, end, parent, _child, bwd in res.spans:
                f.write(json.dumps({"name": name, "kind": kind, "start": start, "end": end,
                                    "parent": parent, "bwd_s": bwd}) + "\n")
    print_report(args.workload, spec.WORKLOADS[args.workload][0], res,
                 run_record(args.seed, nproc), bool(args.trace))
    names = spec.PER_LAYER if args.trace else spec.END_TO_END
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n[0]: {"value": _finite(res.metrics[n[0]]), "unit": n[1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
