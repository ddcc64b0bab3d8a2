"""Constrained parabolic optimal control of initial data.

Computes the optimal initial state of a linear parabolic system under a
terminal-ball constraint by evaluating functions of the discretized
generator as partial-fraction sums of shifted linear solves, plus a scalar
root find on the constraint curve.
"""

from .operators import (
    DiscreteOperator,
    MeshFunction,
    Indicator1D,
    BallIndicator2D,
    GaussianSum,
    assemble_1d,
    assemble_2d_lshape,
    apply_op,
    inner_m,
    norm_m,
    solve_shifted,
    spectral_bounds,
    live_factors,
    project_to_mesh,
    dump_mesh,
)
from .symbols import SymbolExpr, const, ident, recip, expm, segment_integral
from .rational import (
    PartialFractionRational,
    FitReport,
    FitError,
    moebius,
    moebius_inv,
    fit_rational,
    fit_rational_shared,
    fit_required,
    contour_exp,
    apply_rational,
    apply_rational_shared,
    semigroup_apply,
)
from .control import (
    ProblemSpec,
    HomogenizedData,
    ControlSolution,
    homogenize,
    phi,
    solve_mu,
    optimal_control,
    trajectory,
    cost_j,
    kkt_residual,
    solve_problem,
)
from .sensitivity import PerturbationSpec, perturb, sensitivity_sweep
from .oracle import DenseSpectral, SineSpectral, decompose, oracle_apply, oracle_solve_control
