import numpy as np
import pytest

from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import rational as rat
from parabolic_control import symbols as sym

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
    """sum_k beta_k I_k(A) w_k, the psi of a problem without a source, by the
    operations homogenize performs, in its order."""
    psi = np.zeros(op.n)
    for (a, b, beta), w in zip(spec.beta_segments, spec.w_segments):
        if beta != 0.0:
            r, = rat.fit_required([sym.segment_integral(a, b, 1)], spec.fit_tol,
                                  "segment-integral fit")
            psi = psi + beta * rat.apply_rational(op, r, w).values
    return psi


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
