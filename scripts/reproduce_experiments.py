"""Reproduce all experiments end to end.

Runs the CLI verbs with their built-in (published) parameters and collects
the artifacts under out/.  Each verb runs in its own child process; the
script prints each verb's wall time and its own peak RSS, read from the
child's resource usage, and appends both to that verb's run_meta.txt as
wall_s and peak_rss_mb.  Expect a few minutes total on a desktop machine;
progress and timings land in each run_meta.txt.

Usage: python scripts/reproduce_experiments.py [--out OUT]
"""

import argparse
import os
import subprocess
import sys
import time

RUNS = (
    ["example1d"],
    ["example1d", "--variant", "discontinuous"],
    ["example2d"],
    ["phi-curve"],
    ["convergence"],
    ["sensitivity"],
    ["oracle-check"],
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    args = ap.parse_args()
    for run in RUNS:
        name = "_".join(run).replace("--", "")
        out = f"{args.out}/{name}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "parabolic_control.cli", *run, "--out", out])
        _, status, usage = os.wait4(proc.pid, 0)
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        result = "ok" if code == 0 else f"FAILED ({code})"
        # ru_maxrss is in kilobytes on Linux, and Linux carries this
        # script's own peak into the child's at exec: the script imports
        # none of the package, so that adds only the interpreter's few MB
        peak_mb = usage.ru_maxrss / 1024
        print(f"{name:28s} {result:12s} {wall:7.1f}s "
              f"{peak_mb:8.1f} MB -> {out}", flush=True)
        if code != 0:
            return code
        with open(f"{out}/run_meta.txt", "a") as fh:
            fh.write(f"wall_s = {wall:.4f}\npeak_rss_mb = {peak_mb:.1f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
