"""Reproduce all experiments end to end.

Runs the CLI verbs with their built-in (published) parameters and collects
the artifacts under out/.  Expect a few minutes total on a desktop machine;
progress and timings land in each run_meta.txt.

Usage: python scripts/reproduce_experiments.py [--out OUT]
"""

import argparse
import sys
import time

from parabolic_control.cli import main as cli_main

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
        code = cli_main([*run, "--out", out])
        status = "ok" if code == 0 else f"FAILED ({code})"
        print(f"{name:28s} {status:12s} {time.perf_counter() - t0:7.1f}s -> {out}")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
