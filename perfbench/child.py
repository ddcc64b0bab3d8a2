"""One fresh benchmark process: set up one workload, run it, print one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --mode full|setup|trace
                               --spawned-at MONOTONIC_SECONDS

run.py starts every child and passes the monotonic time at which it did,
so `setup_s` covers interpreter start, package import, operator assembly
with its spectral enclosure, data projection and homogenization.  Mode
`setup` stops there.  Mode `trace` installs the layer tracer before set-up
and checks that it saw every factorization and restored every binding.
Untraced modes never import the tracer.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import parabolic_control  # noqa: E402,F401
import workloads  # noqa: E402


def blas_threads():
    """Thread count of every OpenBLAS loaded into this process, as inherited."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = int(getattr(lib, sym)())
                break
    return out


def environment():
    def blas_version(mod):
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np), "scipy_openblas": blas_version(scipy),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def layer_metrics(tr, rec, name, solve_s):
    """Per-layer metrics of one traced child (see README.md)."""
    self_s, total_s, calls = tr.self_s, tr.total_s, tr.calls
    factors, solves = calls["operators.factor"], calls["operators.solve"]
    fits = tr.fits
    sens_rows = rec.attempted if name == "sensitivity" else 0
    return {
        "operators.assemble_s": self_s["operators.assemble"],
        "operators.factorizations": factors,
        "operators.factor_s": self_s["operators.factor"],
        "operators.factor_mb": tr.factor_nnz * 16 / 1e6,
        "operators.solves": solves,
        "operators.solve_s": self_s["operators.solve"],
        "operators.factor_reuse": 1.0 - factors / solves if solves else 0.0,
        "symbols.eval_s": self_s["symbols.eval"],
        "rational.fits": len(fits),
        "rational.fit_s": self_s["rational.fit"],
        "rational.fit_total_s": total_s["rational.fit"],
        "rational.fit_degree_mean":
            float(np.mean([f[0] for f in fits])) if fits else 0.0,
        "rational.svds": calls["rational.svd"],
        "rational.svd_s": self_s["rational.svd"],
        "rational.lstsqs": calls["rational.lstsq"],
        "rational.lstsq_s": self_s["rational.lstsq"],
        "rational.fit_err_ratio_max": max((f[1] for f in fits), default=0.0),
        "rational.fits_failed": sum(1 for f in fits if not f[2]),
        "rational.applies": calls["rational.apply"],
        "rational.apply_s": self_s["rational.apply"],
        "rational.apply_total_s": total_s["rational.apply"],
        "control.homogenize_s": self_s["control.homogenize"],
        "control.homogenize_total_s": total_s["control.homogenize"],
        "control.phi_calls": calls["control.phi"],
        "control.phi_evals": tr.phi_evals,
        "control.phi_total_s": total_s["control.phi"],
        "control.root_s": self_s["control.root"],
        "control.root_total_s": total_s["control.root"],
        "control.control_calls": calls["control.control"],
        "control.control_s": self_s["control.control"],
        "control.control_total_s": total_s["control.control"],
        "control.cost_s": self_s["control.cost"],
        "control.cost_total_s": total_s["control.cost"],
        "control.trajectory_s": self_s["control.trajectory"],
        "control.trajectory_total_s": total_s["control.trajectory"],
        "control.kkt_s": self_s["control.kkt"],
        "control.solve_problem_s": self_s["control.solve"],
        "control.solve_problem_total_s": total_s["control.solve"],
        "control.feas_gap_max": rec.feas_gap_max,
        "control.kkt_max": rec.kkt_max,
        "sensitivity.rows": sens_rows,
        "sensitivity.rows_failed": len(rec.failures) if sens_rows else 0,
        "sensitivity.perturb_s": self_s["sensitivity.perturb"],
        "sensitivity.sweep_s": self_s["sensitivity.sweep"],
        "trace.attributed_s": tr.timed_self_s,
        "trace.unattributed_s": solve_s - tr.timed_self_s,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "setup", "trace"), default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)[args.workload]
    inputs = workloads.inputs_from_seed(args.seed)
    tr = None
    if args.mode == "trace":
        import tracer
        before = tracer.snapshot()
        tr = tracer.Tracer()
        tr.install()
    try:
        state = workloads.setup(args.workload, inputs)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            rec = workloads.Recorder()
            if tr is not None:
                tr.timed = True
            t0 = time.perf_counter()
            workloads.run_workload(args.workload, inputs, state, ref, rec)
            solve_s = time.perf_counter() - t0
            result.update(solve_s=solve_s, op_seconds=rec.op_seconds,
                          attempted=rec.attempted, failures=rec.failures)
            if tr is not None:
                result["layers"] = layer_metrics(tr, rec, args.workload, solve_s)
    finally:
        if tr is not None:
            tr.uninstall()
    if tr is not None:
        cached, factored = tr.cached_factors(), tr.calls["operators.factor"]
        if cached != factored:
            sys.exit(f"tracer missed factorizations: {factored} traced, "
                     f"{cached} cached on the operators")
        if tracer.snapshot() != before:
            sys.exit("tracer left a module attribute rebound")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
