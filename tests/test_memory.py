"""End-to-end memory gates, each measured in a fresh process.

Every shifted LU factor stays cached on its operator for the operator's
life, so the peak RSS of a run grows with the number of factors it makes and
with what each SuperLU object keeps.  These tests bound the peak RSS of the
published `phi-curve` verb and of the three published 2D solves at
h = 1/60, and check that the 2D solves make no more factors on the finer
mesh.

Bounds, from single runs on a 2-core x86-64 Linux machine with numpy 2.4
and scipy 1.17, with about 30 % margin for other platforms and scipy
releases:
- `phi-curve`: 425 MB measured (720 MB with SuperLU's default panel size);
  bound 560 MB.
- the three 2D solves at h = 1/60: 1,052 MB measured (1,511 MB with the
  default panel size); bound 1,350 MB.
"""

import json
import subprocess
import sys

from conftest import PEAK_RSS_SOURCE

PHI_CURVE_MAX_MB = 560
SOLVES_2D_H60_MAX_MB = 1350

# The published phi-curve verb, writing to the directory argv[1].
_PHI_CURVE_CHILD = PEAK_RSS_SOURCE + """
import json, sys
from parabolic_control.cli import main
assert main(["phi-curve", "--out", sys.argv[1]]) == 0
print(json.dumps({"peak_mb": peak_rss_kb() / 1024}))
"""

# The three published 2D solves at grid spacing 1/argv[1], with the number of
# cached shifted LU factors, set-up included.
_SOLVES_2D_CHILD = PEAK_RSS_SOURCE + """
import json, sys
from parabolic_control import cli, control as ctl
from parabolic_control.config import load_config
cfg = load_config("example2d", h=1.0 / int(sys.argv[1]))
op = cli.build_operator_2d(cfg)
hd = ctl.homogenize(cli.build_problem_2d(cfg, op, 1.0), op)
phi0 = ctl.phi(hd, op, 0.0)
for frac in cfg.eps_fractions:
    ctl.solve_problem(cli.build_problem_2d(cfg, op, frac * phi0), op, hd=hd)
print(json.dumps({"n": op.n, "factors": len(op._solvers),
                  "peak_mb": peak_rss_kb() / 1024}))
"""


def run_child(code, arg):
    proc = subprocess.run([sys.executable, "-c", code, str(arg)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_phi_curve_peak_rss(tmp_path):
    assert run_child(_PHI_CURVE_CHILD, tmp_path)["peak_mb"] <= PHI_CURVE_MAX_MB


def test_2d_solves_at_h60_peak_rss_and_factor_count():
    # the factor count does not grow with the mesh: measured 125 at h = 1/60
    # against 124 at h = 1/30
    coarse = run_child(_SOLVES_2D_CHILD, 30)
    fine = run_child(_SOLVES_2D_CHILD, 60)
    assert fine["n"] == 10561
    assert fine["peak_mb"] <= SOLVES_2D_H60_MAX_MB
    assert abs(fine["factors"] - coarse["factors"]) <= 0.1 * coarse["factors"]
