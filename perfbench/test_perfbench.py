"""Self-tests of the benchmark:  python3 -m pytest perfbench -q  (about a minute)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from parabolic_control import control, operators, rational, sensitivity  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REF = json.loads((HERE / "reference.json").read_text())


def child(workload, seed, mode):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_and_cover_every_layer():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "MB")]
    a, b = (child("solve1d", 5, "trace") for _ in range(2))
    assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}
    declared = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert set(a["layers"]) == declared
    assert a["layers"]["operators.factorizations"] > 0
    assert a["layers"]["rational.fits_failed"] == 0
    assert a["failures"] == {}


def test_gate_flags_corrupted_results():
    inputs = workloads.inputs_from_seed(0)
    case, cfg, op, hd, build = workloads.setup("solve1d", inputs)[0]
    phi0 = control.phi(hd, op, 0.0)
    frac = cfg.eps_fractions[-1]
    eps = frac * phi0
    sol = control.solve_problem(build(cfg, op, eps), op, hd=hd)
    ref = REF["solve1d"][case]
    assert gate.phi0_problems(phi0, 1.0, ref) == []
    assert gate.phi0_problems(phi0 * (1 + 1e-6), 1.0, ref)
    case_ref = ref["solves"][-1]
    assert gate.solve_problems(sol, eps, phi0, frac, case_ref) == []
    for bad in (dict(mu_eps=sol.mu_eps + 10 * case_ref["mu_tol"]),
                dict(final_miss=eps + 1e-5 * phi0),
                dict(kkt=1e-5)):
        assert gate.solve_problems(dataclasses.replace(sol, **bad), eps, phi0,
                                   frac, case_ref), bad
    rows = [{"nu": nu, "ratio": r, "mu_eps": 1.0, "mu_eps_delta": 1.0 + d * nu}
            for nu, r, d in ((1e-2, 1.0, 1.0), (1e-3, 1.0, 1.0), (1e-4, 6.0, 1.0),
                             (1e-4, 1.0, 1e-3))]
    assert gate.sweep_problems(rows[:2]) == []
    assert gate.sweep_problems(rows[:3])        # drift ratio spread 6
    assert gate.sweep_problems(rows[::3])       # mu-stability spread 1000


def test_untraced_run_leaves_modules_untouched():
    before = tracer.snapshot()
    inputs = workloads.inputs_from_seed(7)
    rec = workloads.Recorder()
    state = workloads.setup("sensitivity", inputs)
    cfg = dataclasses.replace(state[0], channels=("operator",))
    workloads.run_workload("sensitivity", inputs, (cfg,) + state[1:],
                           REF["sensitivity"], rec)
    assert rec.attempted == len(cfg.nu_list) and rec.failures == {}
    assert tracer.snapshot() == before


def test_tracer_rebinds_every_binding_and_restores_it():
    before = tracer.snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert rational.solve_shifted is operators.solve_shifted
        assert sensitivity.solve_mu is control.solve_mu
        for fn in (control.fit_rational, control.fit_rational_shared,
                   control.apply_rational, control.apply_rational_shared,
                   control.semigroup_apply, rational.solve_shifted,
                   sensitivity.homogenize, sensitivity.solve_mu,
                   sensitivity.optimal_control):
            assert hasattr(fn, "__wrapped__"), fn
    finally:
        tr.uninstall()
    assert tracer.snapshot() == before


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
