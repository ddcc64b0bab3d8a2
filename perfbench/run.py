"""Benchmark entry point: run one workload in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Children run one at a time (child.py):
each imports the package from ./src, sets up, runs the workload's fixed
set of operations and reports.  With --trace 0 the run starts SETUP_PROBES
set-up-only children, then full children back to back while the next one
is expected to end within S seconds (at least MIN_CHILDREN), and reports the
end-to-end metrics; with --trace 1 it runs one untraced and one traced
child at the same seed and reports the per-layer metrics.  Metric names
and units come from BENCHMARK.json.  The last line of standard output is
the result as one JSON object; failed operations are listed on standard
error.  Exits non-zero without a result when the package or a child fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0     # every run must end within 180 s
SETUP_PROBES = 2
# Full children per run at the least.  A child's operations slow down
# together when the shared host does: measured one child per run, the
# sensitivity workload's solve_s spread by up to 25 % between runs.  The
# median of two halves the variance of noise that is independent between
# children.
MIN_CHILDREN = 2


class ChildError(RuntimeError):
    pass


def spawn(workload, seed, mode, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("run time limit reached before the child could start")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:   # run() has killed and reaped the child
        raise ChildError(f"{mode} child exceeded the run time limit")
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} child printed no result")
    return json.loads(lines[-1])


def tail(values):
    """The highest percentile with ten operations beyond it, when that is at
    least the 90th; otherwise the slowest operation."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 100 else ordered[-1]


def end_to_end(args, deadline):
    setups = [spawn(args.workload, args.seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    fulls = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        fulls.append(spawn(args.workload, args.seed, "full", deadline))
        took = time.monotonic() - t0
        if (len(fulls) >= MIN_CHILDREN
                and time.monotonic() + took - start > args.seconds):
            break
    setups += [c["setup_s"] for c in fulls]

    def median(per_child):
        return statistics.median(per_child(c) for c in fulls)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": median(lambda c: c["solve_s"]),
        "op_p50_s": median(lambda c: statistics.median(c["op_seconds"])),
        "op_tail_s": median(lambda c: tail(c["op_seconds"])),
        "peak_rss_mb": median(lambda c: c["peak_rss_mb"]),
    }
    return fulls, metrics


def per_layer(args, deadline):
    plain = spawn(args.workload, args.seed, "full", deadline)
    traced = spawn(args.workload, args.seed, "trace", deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["solve_s"] - plain["solve_s"]
    return [plain, traced], metrics


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "parabolic_control" / "__init__.py").is_file():
        sys.exit(f"no parabolic_control package under {ROOT / 'src'}; "
                 "run from the root of a checkout")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        children, values = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if set(values) != {m["name"] for m in declared}:
        print(f"metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2

    attempted = sum(c["attempted"] for c in children)
    failures = [f"{label}: {'; '.join(reasons)}"
                for c in children for label, reasons in c["failures"].items()]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    env = dict(children[0]["env"], seed=args.seed, workload=args.workload,
               children=len(children))
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'ops':36s} {attempted}")
    print(f"{'ops_failed':36s} {len(failures)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
