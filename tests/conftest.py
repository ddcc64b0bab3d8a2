from contextlib import contextmanager

import numpy as np
import pytest

from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import rational as rat

T_1D = 0.01
ALPHA = 1e-4


def make_spec_51(op, eps, T=T_1D, alpha=ALPHA):
    """The 1D reference problem: beta active on [T/3, 2T/3], indicator data."""
    w = ops.project_to_mesh(op, ops.Indicator1D(np.pi / 5, 2 * np.pi / 5))
    ystar = ops.project_to_mesh(op, ops.Indicator1D(3 * np.pi / 5, 4 * np.pi / 5))
    segs = ((0.0, T / 3, 0.0), (T / 3, 2 * T / 3, 1.0), (2 * T / 3, T, 0.0))
    return ctl.ProblemSpec(T=T, alpha=alpha, beta_segments=segs,
                           w_segments=(w, w, w), ystar=ystar, eps=eps)


def psi_without_source(spec, op):
    """sum_k beta_k I_k(A) w_k, the psi of a problem without a source, as one
    apply of the problem fit's segment-integral component per active beta
    segment.  homogenize applies those components together; with one active
    segment, that is the same arithmetic, bit for bit."""
    fits = iter(ctl.homogenize(spec, op).problem_fit)
    psi = np.zeros(op.n)
    for (a, b, beta), w in zip(spec.beta_segments, spec.w_segments):
        if beta != 0.0:
            psi = psi + beta * rat.apply_rational(op, next(fits), w).values
    return psi


@contextmanager
def shifted_factors():
    """Every shifted factorization made inside the block, counted at
    operators.spla.splu: the block gets a list that holds one (matrix, fill)
    pair per factor, the factored matrix and its L+U nonzeros, whichever
    cache the factor goes to.  An operator's own cache misses what a call
    made through a child (the factors of a resolvent r_mu, mu > 0), and the
    child may be gone when the call returns.  The enclosure's real factor of
    K is not counted."""
    made, splu = [], ops.spla.splu

    def counted(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        if np.iscomplexobj(A):
            made.append((A, lu.nnz))
        return lu
    ops.spla.splu = counted
    try:
        yield made
    finally:
        ops.spla.splu = splu


# Source of peak_rss_kb() for the fresh child processes of the memory tests.
# It reads VmHWM from /proc/self/status (Linux).  ru_maxrss would not do:
# Linux carries the peak of the memory image replaced at exec into it, so a
# child of a test process that has grown to 1 GB reports at least 1 GB.
PEAK_RSS_SOURCE = """
def peak_rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
"""


@pytest.fixture(scope="session")
def op62():
    return ops.assemble_1d(62)


@pytest.fixture(scope="session")
def op20():
    return ops.assemble_1d(20)


@pytest.fixture(scope="session")
def op64():
    return ops.assemble_1d(65)  # 64 interior degrees of freedom


@pytest.fixture(scope="session")
def hd62(op62):
    return ctl.homogenize(make_spec_51(op62, 1.0), op62)


@pytest.fixture(scope="session")
def phi0_62(hd62, op62):
    return ctl.phi(hd62, op62, 0.0)


@pytest.fixture(scope="session")
def hd64(op64):
    return ctl.homogenize(make_spec_51(op64, 1.0), op64)


@pytest.fixture(scope="session")
def phi0_64(hd64, op64):
    return ctl.phi(hd64, op64, 0.0)


def pytest_terminal_summary(terminalreporter):
    """Surface the acceptance pass/fail lines in the run summary."""
    import sys

    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
