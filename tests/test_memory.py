"""Memory gates: end-to-end peaks, each measured in a fresh process, the
live shifted factors over a sweep of solves, and the transient allocations
of the fit path, traced in this one.

The factors of the functions of time alone (the semigroups S_2T and S_t)
stay cached on their operator for the operator's life.  Those of a
problem fit are cached on the problem's child of the operator, which the
live problems with the same fit request share and which goes with the
last of them (the latest one stays until the next problem with another
request is homogenized).  Those of a resolvent r_mu, mu > 0, are cached
on a child that the problem holds and each solve_problem drops, so they
live for one solve.  The peak RSS of a run grows with the factors live at
once (operators.live_factors) and with what each SuperLU object keeps.
These tests bound the peak RSS of the published `phi-curve` verb and of
the three published 2D solves at h = 1/60, check that the 2D solves make
no more factors on the finer mesh, that neither a sweep of solves nor a
sweep of problems adds live factors after the first, that no sensitivity
row adds a factor to the base operator, that a row's problem goes before
the next row's is homogenized, and that one-row `f` sweeps in a row factor
their problem fit once.

Bounds, from single runs on a 2-core x86-64 Linux machine with numpy 2.4
and scipy 1.17, with about 30 % margin for other platforms and scipy
releases:
- `phi-curve`: 70 MB measured (74 MB with SuperLU's default panel size);
  bound 91 MB.  It reads all 350 values from the Phi surrogate's space, so
  it holds the factors of Phi(0) and that space only.
- the three 2D solves at h = 1/60: 277 MB measured with 46 factors made
  and 18 left live, 6 on the operator and 12 on the problem's child (405
  MB when every factor lived as long as the operator, 537 MB with the
  default panel size on top); bound 360 MB.

The fit path's transients do not grow with the mesh, but they set the peak
of runs on small meshes: sampling a source-response integral on a fit grid,
and the Loewner matrix of one fit.  Their peaks are traced with tracemalloc,
which sees every NumPy array.
"""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import ALPHA, PEAK_RSS_SOURCE, T_1D, make_spec_51, shifted_factors

from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import rational as rat
from parabolic_control import sensitivity as sens
from parabolic_control import symbols as sym

PHI_CURVE_MAX_MB = 91
SOLVES_2D_H60_MAX_MB = 360

# The published phi-curve verb, writing to the directory argv[1].
_PHI_CURVE_CHILD = PEAK_RSS_SOURCE + """
import json, sys
from parabolic_control.cli import main
assert main(["phi-curve", "--out", sys.argv[1]]) == 0
print(json.dumps({"peak_mb": peak_rss_kb() / 1024}))
"""

# The three published 2D solves at grid spacing 1/argv[1], with the number of
# shifted LU factorizations they make, set-up included, counted at splu.
_SOLVES_2D_CHILD = PEAK_RSS_SOURCE + """
import json, sys
import numpy as np
from parabolic_control import cli, control as ctl, operators as ops
from parabolic_control.config import load_config
made, splu = [], ops.spla.splu
def counted(A, *args, **kwargs):
    if np.iscomplexobj(A):
        made.append(A.shape)
    return splu(A, *args, **kwargs)
ops.spla.splu = counted
cfg = load_config("example2d", h=1.0 / int(sys.argv[1]))
op = cli.build_operator_2d(cfg)
hd = ctl.homogenize(cli.build_problem_2d(cfg, op, 1.0), op)
phi0 = ctl.phi(hd, op, 0.0)
for frac in cfg.eps_fractions:
    ctl.solve_problem(cli.build_problem_2d(cfg, op, frac * phi0), op, hd=hd)
print(json.dumps({"n": op.n, "factors": len(made),
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
    # the factor count does not grow with the mesh: measured 46 at h = 1/60
    # and at h = 1/30
    coarse = run_child(_SOLVES_2D_CHILD, 30)
    fine = run_child(_SOLVES_2D_CHILD, 60)
    assert fine["n"] == 10561
    assert fine["peak_mb"] <= SOLVES_2D_H60_MAX_MB
    assert abs(fine["factors"] - coarse["factors"]) <= 0.1 * coarse["factors"]


def test_sweep_of_solves_keeps_the_live_factors_flat():
    # each solve releases its resolvents' factors, so after the first solve
    # the live factors stay those of the problem fit and S_2T (measured 17),
    # while every solve makes factors of its own (they grew from 26 to 354
    # when every factor lived as long as the operator)
    op = ops.assemble_1d(62)
    hd = ctl.homogenize(make_spec_51(op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    live, made_per_solve = [], []
    for frac in np.linspace(0.15, 0.95, 40):
        with shifted_factors() as made:
            ctl.solve_problem(make_spec_51(op, frac * phi0), op, hd=hd)
        live.append(ops.live_factors(op))
        made_per_solve.append(len(made))
    assert live == [live[0]] * 40, live
    assert live[0] <= 20
    assert min(made_per_solve[1:]) > 0


def test_sweep_of_problems_keeps_the_live_factors_flat():
    # each problem's fit factors live on its child of the operator and go
    # with the problem, so after every solve of a sweep over alpha the live
    # factors are S_2T's and that problem's fit's (measured 17); they grew
    # by 11 per problem when the problem fit was factored on the operator
    op = ops.assemble_1d(62)
    (s2t,) = rat.fit_required([sym.expm(2 * T_1D)], "semigroup fit")
    others = []
    for alpha in ALPHA * np.geomspace(0.5, 2.0, 20):
        hd = ctl.homogenize(make_spec_51(op, 1.0, alpha=alpha), op)
        spec = make_spec_51(op, 0.5 * ctl.phi(hd, op, 0.0), alpha=alpha)
        ctl.solve_problem(spec, op, hd=hd)
        others.append(ops.live_factors(op) - len(hd.problem_fit[0].poles))
    assert others == [len(s2t.poles)] * 20, others


def _base_solve(op):
    """The sensitivity verb's base: spec at eps = 0.5 Phi(0), (u0, mu0)."""
    hd = ctl.homogenize(make_spec_51(op, 1.0), op)
    spec = make_spec_51(op, 0.5 * ctl.phi(hd, op, 0.0))
    mu0 = ctl.solve_mu(hd, op, spec.eps)
    return hd, spec, (ctl.optimal_control(hd, op, mu0), mu0)


def test_sensitivity_row_adds_no_factor_to_the_base_operator():
    # a row's problem fit and resolvents are factored on children of the
    # base operator (or, for an operator row, on an operator of its own),
    # which go with the row's problem; S_2T is the base problem's.  The
    # alpha, beta and f rows left 11 or 12 factors each on the operator
    # when the problem fit was factored there
    op = ops.assemble_1d(62)
    hd, spec, base = _base_solve(op)
    factors = len(op._solvers)
    for channel in sens.CHANNELS:
        with shifted_factors() as made:
            (row,) = sens.sensitivity_sweep(spec, op, channel, (1e-2,), base=base)
        assert row["ok"] and row["mu_eps_delta"] > 0, channel
        assert len(made) > 0, channel
        assert len(op._solvers) == factors, channel


def test_sweep_row_releases_its_problem_before_the_next_row(monkeypatch):
    # a row's problem and its resolvents' factors go when the row is done;
    # only the problem fit's child of the latest row stays, for a next row
    # of the same request.  The second alpha row used to start with the
    # first row's problem live, its resolvent's 10 factors included
    op = ops.assemble_1d(62)
    hd, spec, base = _base_solve(op)
    start, extra, homogenize = ops.live_factors(op), [], sens.homogenize

    def spy(spec_d, op_d):
        kept = ctl._problem_ops.latest
        kept = len(kept._solvers) if kept._parent is op and kept is not hd.problem_op else 0
        extra.append(ops.live_factors(op) - start - kept)
        return homogenize(spec_d, op_d)
    monkeypatch.setattr(sens, "homogenize", spy)
    rows = sens.sensitivity_sweep(spec, op, "alpha", (1e-2, 1e-3, 1e-4), base=base)
    assert all(row["ok"] for row in rows)
    assert extra == [0, 0, 0]


def _shift(op, A):
    """The shift z of a matrix z M + K that shifted_factors collected."""
    d = op._shift_diag[0]
    return complex((A.data[d] - op._shift_base.data[d]) / op.M[0])


def test_one_row_f_sweeps_in_a_row_factor_the_problem_fit_once():
    # the f rows share one problem-fit request, and the latest problem's
    # child outlives its row until a problem with another request is
    # homogenized: three one-row sweeps, as the benchmark runs them, factor
    # the f problem fit in the first only
    op = ops.assemble_1d(62)
    hd, spec, base = _base_solve(op)
    made = []
    for nu in (1e-2, 1e-3, 1e-4):
        with shifted_factors() as row_made:
            (row,) = sens.sensitivity_sweep(spec, op, "f", (nu,), base=base)
        assert row["ok"]
        made.append([_shift(op, A) for A, _ in row_made])
    spec_f, _ = sens.perturb(spec, op, sens.PerturbationSpec(1e-4, "f"))
    with shifted_factors() as again:
        poles = ctl.homogenize(spec_f, op).problem_fit[0].poles
    assert not again

    def fit_factors(shifts):
        return sum(any(abs(z - p) <= 1e-8 * abs(p) for p in poles) for z in shifts)
    assert [fit_factors(shifts) for shifts in made] == [len(poles), 0, 0]
    assert all(made)


def traced_peak_bytes(fn):
    """Peak bytes that fn allocates above what is live when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid", ["_TRAIN", "_VALID"])
def test_source_response_sampling_peaks_below_1_mb(grid):
    # the near field takes 16 nodes per point: 0.18 MB on _TRAIN and 0.23 MB
    # on _VALID, where a 16 x 16 rule's points x 256 exponents took 7.9 and
    # 9.8 MB
    g = sym.source_response_integral(T_1D / 3, 2 * T_1D / 3, T_1D / 3, 2 * T_1D / 3)
    lam = getattr(rat, grid)
    assert traced_peak_bytes(lambda: g(lam)) < 1e6


def test_low_degree_fit_allocates_loewner_rows_for_its_support():
    # a degree-1 fit at DEGREE_CAP: 0.43 MB in all, below the 1.44 MB that
    # C and A would take alone with a row for every support point the
    # degree budget allows
    g = sym.const(1.0) / (sym.const(1.0) - sym.ident())
    budget_rows = 2 * (rat.DEGREE_CAP + 1) * len(rat._TRAIN) * 8
    assert traced_peak_bytes(lambda: rat.fit_rational(g, rat.DEGREE_CAP, 1e-12)) \
        < budget_rows


def _array_bytes(obj):
    """Bytes of the arrays in obj: an ndarray, a MeshFunction's values, and
    those inside dicts, tuples and lists."""
    if isinstance(obj, ops.MeshFunction):
        obj = obj.values
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x) for x in obj)
    return 0


def test_sweep_keeps_the_problem_state_bounded(op62):
    # a control returns its products Psi u and S_2T u and its stop report;
    # HomogenizedData keeps the Phi values and its lazy attributes only, so
    # after the first solve of a sweep its arrays stop growing (a dict of
    # products by mu gained 2 n floats per multiplier refined)
    hd = ctl.homogenize(make_spec_51(op62, 1.0), op62)
    phi0 = ctl.phi(hd, op62, 0.0)
    sizes = []
    for frac in np.linspace(0.2, 0.9, 10):
        ctl.solve_problem(make_spec_51(op62, frac * phi0), op62, hd=hd)
        sizes.append(sum(map(_array_bytes, vars(hd).values())))
    assert sizes[0] > 0 and sizes == [sizes[0]] * 10
