import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic_control import cli
from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import sensitivity as sens
from parabolic_control.config import load_config

from conftest import PEAK_RSS_SOURCE, shifted_factors


def dense_pair_eigs(op):
    return scipy.linalg.eigh(op.K.toarray(), np.diag(op.M), eigvals_only=True)


# ---------------------------------------------------------------------------
# 1D assembly
# ---------------------------------------------------------------------------

def test_1d_smallest_eigenvalue_near_minus_one():
    # dense oracle at n_el = 4; closed form theta_1 = (2 - sqrt(2)) / h^2
    op = ops.assemble_1d(4)
    theta = dense_pair_eigs(op)
    h = np.pi / 4
    expected = (2.0 - np.sqrt(2.0)) / h**2
    assert theta[0] == pytest.approx(expected, rel=1e-12)
    # 5.03% below the continuum value -1 at this resolution (oracle-derived;
    # marginally outside the nominal 5%, see the eigenvalue-rate test below)
    assert abs(theta[0] - 1.0) <= 0.051


def test_1d_eigenvalue_rate_order_two():
    # k-th eigenvalue error vs -k^2 decays at observed order >= 1.8
    errs = []
    hs = []
    for n_el in (31, 62, 125):
        op = ops.assemble_1d(n_el)
        theta = dense_pair_eigs(op)
        k = np.arange(1, 6)
        errs.append(np.abs(theta[:5] - k**2))
        hs.append(np.pi / n_el)
    for k in range(5):
        order = np.polyfit(np.log(hs), np.log([e[k] for e in errs]), 1)[0]
        assert order >= 1.8


def test_1d_stiffness_annihilates_constants():
    op = ops.assemble_1d(40)
    r = op.K @ np.ones(op.n)
    assert np.max(np.abs(r[1:-1])) <= 1e-12  # interior rows away from boundary


def test_1d_discontinuous_differs_only_past_interface():
    gamma = 2.2
    iso = ops.assemble_1d(62)
    disc = ops.assemble_1d(62, a=-0.8, gamma=gamma)
    diff = (disc.K - iso.K).toarray()
    nodes = np.linspace(0, np.pi, 63)
    snapped = nodes[np.argmin(np.abs(nodes - gamma))]
    x = iso.coords
    changed = np.flatnonzero(np.abs(diff).sum(axis=1) > 0)
    # a row changes iff one of its two elements lies in [gamma, pi], i.e.
    # the right element's midpoint x_i + h/2 passes the snapped interface
    touches = np.flatnonzero(x + 0.5 * np.pi / 62 > snapped - 1e-12)
    assert np.array_equal(changed, touches)


def test_1d_rejects_bad_input():
    with pytest.raises(ValueError):
        ops.assemble_1d(1)
    # NaN compares False with every bound, and +inf left SuperLU an exactly
    # singular factor
    for a in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="diffusion 1 \\+ a must be positive and finite"):
            ops.assemble_1d(10, a=a)
    with pytest.raises(ValueError):
        ops.assemble_1d(10, gamma=4.0)


def test_1d_mesh_names_bad_nodes():
    with pytest.raises(ValueError, match=r"1D mesh must span \[0, pi\]"):
        ops.Mesh1D(np.linspace(0.0, 3.0, 5))
    with pytest.raises(ValueError, match="1D mesh nodes must be strictly increasing"):
        ops.Mesh1D(np.array([0.0, 2.0, 1.0, np.pi]))


def assemble_1d_loop(n_el, a=0.0, gamma=2.2):
    """Per-element loop reference of assemble_1d's K and M (dense K)."""
    nodes = np.linspace(0.0, np.pi, n_el + 1)
    snapped = nodes[int(np.argmin(np.abs(nodes - gamma)))]
    h = np.diff(nodes)
    coeff = np.where(0.5 * (nodes[:-1] + nodes[1:]) >= snapped, 1.0 + a, 1.0)
    K = np.zeros((n_el + 1, n_el + 1))
    M = np.zeros(n_el + 1)
    for e in range(n_el):
        ke = coeff[e] / h[e]
        K[e, e] += ke
        K[e + 1, e + 1] += ke
        K[e, e + 1] -= ke
        K[e + 1, e] -= ke
        M[e] += 0.5 * h[e]
        M[e + 1] += 0.5 * h[e]
    return scipy.sparse.csc_matrix(K[1:-1, 1:-1]), M[1:-1]


def assert_same_sparse(A, B):
    """Same format, stored pattern and values, bit for bit."""
    assert A.format == B.format
    for name in ("data", "indices", "indptr"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("a", [0.0, -0.8])
def test_1d_assembly_matches_element_loop(a):
    op = ops.assemble_1d(62, a=a)
    K, M = assemble_1d_loop(62, a=a)
    assert_same_sparse(op.K, K)
    assert op.M.dtype == M.dtype and np.array_equal(op.M, M)


# Assembles the n_el = 5,000 operator after a warm-up and prints the growth
# of the peak RSS in MB.
_ASSEMBLE_1D_RSS_CHILD = PEAK_RSS_SOURCE + """
from parabolic_control import operators as ops
ops.assemble_1d(62)
before = peak_rss_kb()
op = ops.assemble_1d(5000)
assert op.n == 4999
print((peak_rss_kb() - before) / 1024)
"""


def test_1d_assembly_memory_is_linear():
    # a dense (n_el + 1)^2 stiffness matrix would take 200 MB here; the
    # sparse assembly, its enclosure and its shift pattern measured 2.4 MB
    proc = subprocess.run([sys.executable, "-c", _ASSEMBLE_1D_RSS_CHILD],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 20.0


# ---------------------------------------------------------------------------
# 2D assembly
# ---------------------------------------------------------------------------

def brute_force_interior_count(m):
    """Independent enumeration of interior grid vertices of the L-shape."""
    count = 0
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            if abs(i) == m or abs(j) == m:
                continue                      # outer boundary
            if i < 0 and j > 0:
                continue                      # inside the removed square
            if (i == 0 and j >= 0) or (j == 0 and i <= 0):
                continue                      # reentrant edges + corner
            count += 1
    return count


def test_2d_dimension_matches_enumeration():
    # the h = 1/2 count is a mesh-level check (operator assembly requires
    # h <= 1/4 to resolve the reentrant corner)
    mesh = ops.lshape_mesh(0.5)
    assert len(mesh.interior_index) == brute_force_interior_count(2) == 5
    for h, m in ((0.25, 4), (0.125, 8)):
        op = ops.assemble_2d_lshape(h)
        assert op.n == brute_force_interior_count(m)


def test_2d_boundary_dofs_eliminated():
    op = ops.assemble_2d_lshape(0.25)
    mesh = op.mesh
    interior = mesh.vertices[mesh.interior_index]
    assert len(interior) == op.n
    # no interior node on the outer box or the reentrant edges
    for x, y in interior:
        assert abs(abs(x) - 1) > 1e-12 and abs(abs(y) - 1) > 1e-12
        assert not (abs(x) < 1e-12 and y >= -1e-12)
        assert not (abs(y) < 1e-12 and x <= 1e-12)


def test_2d_triangles_positive_area_and_shape_regular():
    mesh = ops.lshape_mesh(0.25)
    v = mesh.vertices
    for t in mesh.triangles:
        p = v[t]
        d1, d2 = p[1] - p[0], p[2] - p[0]
        area2 = d1[0] * d2[1] - d1[1] * d2[0]
        assert area2 > 0
        # min angle of the right isoceles split is 45 degrees >= 20
        lens = sorted(np.linalg.norm(p[(k + 1) % 3] - p[k]) for k in range(3))
        min_angle = np.arcsin(lens[0] / lens[2] / np.sqrt(2) * 1.0)
        assert np.degrees(min_angle) >= 20.0


def test_2d_mesh_refinement_self_consistency():
    vals = []
    for h in (1.0 / 30.0, 1.0 / 60.0):
        op = ops.assemble_2d_lshape(h)
        theta = spla.eigsh(op.K, k=1, M=scipy.sparse.diags(op.M),
                           sigma=0, which="LM", return_eigenvectors=False)
        vals.append(theta[0])
    assert abs(vals[0] - vals[1]) <= 0.02 * abs(vals[1])


def lshape_loop(h):
    """Per-cell loop reference of lshape_mesh: vertices numbered by their
    first visit, cells in row-major order."""
    m = int(round(1.0 / h))
    coords = {}

    def vid(i, j):
        if (i, j) not in coords:
            coords[(i, j)] = len(coords)
        return coords[(i, j)]

    tris = []
    for ci in range(-m, m):
        for cj in range(-m, m):
            if ci < 0 and cj >= 0:
                continue
            v00, v10 = vid(ci, cj), vid(ci + 1, cj)
            v01, v11 = vid(ci, cj + 1), vid(ci + 1, cj + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    verts = np.empty((len(coords), 2))
    boundary = np.zeros(len(coords), dtype=bool)
    for (i, j), k in coords.items():
        verts[k] = (i * h, j * h)
        boundary[k] = (abs(i) == m or abs(j) == m
                       or (i == 0 and j >= 0) or (j == 0 and i <= 0))
    return verts, np.array(tris, dtype=int), boundary


def assemble_2d_loop(mesh):
    """Per-triangle loop reference of assemble_2d_lshape's K and M."""
    verts, tris = mesh.vertices, mesh.triangles
    nv = len(verts)
    rows, cols, vals = [], [], []
    M = np.zeros(nv)
    for t in tris:
        p = verts[t]
        d1, d2 = p[1] - p[0], p[2] - p[0]
        area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
        b = np.array([p[1, 1] - p[2, 1], p[2, 1] - p[0, 1], p[0, 1] - p[1, 1]])
        c = np.array([p[2, 0] - p[1, 0], p[0, 0] - p[2, 0], p[1, 0] - p[0, 0]])
        ke = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
        for a_ in range(3):
            M[t[a_]] += area / 3.0
            for b_ in range(3):
                rows.append(t[a_])
                cols.append(t[b_])
                vals.append(ke[a_, b_])
    K = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(nv, nv))
    idx = mesh.interior_index
    return scipy.sparse.csc_matrix(K[np.ix_(idx, idx)]), M[idx]


@pytest.mark.parametrize("m", [8, 30])
def test_2d_assembly_matches_element_loop(m):
    op = ops.assemble_2d_lshape(1 / m)
    verts, tris, boundary = lshape_loop(1 / m)
    mesh = op.mesh
    for got, want in ((mesh.vertices, verts), (mesh.triangles, tris),
                      (mesh.boundary, boundary)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    K, M = assemble_2d_loop(mesh)
    assert_same_sparse(op.K, K)
    assert op.M.dtype == M.dtype and np.array_equal(op.M, M)


def test_2d_rejects_coarse_mesh():
    with pytest.raises(ValueError):
        ops.assemble_2d_lshape(0.5001)
    with pytest.raises(ValueError):
        ops.assemble_2d_lshape(0.3)
    for h in (0.3, 1.0):
        with pytest.raises(ValueError, match="h must be 1/m with integer m >= 2"):
            ops.lshape_mesh(h)


# ---------------------------------------------------------------------------
# linear algebra primitives
# ---------------------------------------------------------------------------

def test_shifted_solve_positive_definite_shift(op20):
    rng = np.random.default_rng(5)
    v = op20.function(rng.standard_normal(op20.n))
    x = ops.solve_shifted(op20, 1.0, v)
    rayleigh = np.sum(op20.M * np.conj(v.values) * x.values)
    assert rayleigh.real > 0


def test_shifted_solve_eigenvector_oracle(op64):
    theta, V = scipy.linalg.eigh(op64.K.toarray(), np.diag(op64.M))
    v = op64.function(V[:, 3])
    lam = -theta[3]
    z = 2.5
    x = ops.solve_shifted(op64, z, v)
    assert np.allclose(x.values, v.values / (z - lam), rtol=1e-10, atol=1e-12)


def test_shifted_solve_conjugate_symmetry(op20):
    rng = np.random.default_rng(6)
    v = op20.function(rng.standard_normal(op20.n))
    z = 2.0 + 1.5j
    x1 = ops.solve_shifted(op20, z, v)
    x2 = ops.solve_shifted(op20, np.conj(z), v)
    assert np.allclose(x1.values, np.conj(x2.values), rtol=1e-12, atol=1e-14)


def test_shifted_lu_is_symmetric_and_pivot_free():
    # Re z inside the spectrum and small Im z: z M + K is indefinite in its
    # real part, and its definite imaginary part Im(z) M keeps diagonal
    # pivots stable
    op = ops.assemble_2d_lshape(1 / 30)
    z = -500.0 + 0.5j
    rhs = op.M * np.random.default_rng(8).standard_normal(op.n)
    ops.solve_shifted(op, z, op.function(rhs / op.M))
    lu = op._solvers[z]
    # no refinement step; the factor is stored in the operator's order
    x = ops._factor_solve(op, lu, rhs.astype(complex))
    resid, scale = ops._backward_error_terms(op, z, x, rhs)
    assert resid <= 1e-12 * scale
    assert lu.nnz <= 0.7 * spla.splu(shifted_matrix(op, z)).nnz


def shifted_matrix(op, z):
    """z M + K in the original order, with the cached factors' pattern."""
    base, diag = ops._diagonal_slots(op.K, np.arange(op.n))
    mat = base.astype(complex)
    mat.data[diag] += z * op.M
    return mat


def fresh_factor(mat):
    """The LU of a shifted matrix in the original order as it was made
    before operators kept one order: its own minimum-degree ordering."""
    return spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     panel_size=1, options=dict(SymmetricMode=True))


def test_cached_factors_keep_the_per_shift_fill():
    # every factor that the three published 2D solves make on the
    # operator's one order, the ones cached on the operator and those of
    # the roots' resolvents, which each solve releases, has the fill of its
    # own minimum-degree order (measured 46 factors)
    cfg = load_config("example2d")
    op = cli.build_operator_2d(cfg)
    with shifted_factors() as made:
        hd = ctl.homogenize(cli.build_problem_2d(cfg, op, 1.0), op)
        phi0 = ctl.phi(hd, op, 0.0)
        for frac in cfg.eps_fractions:
            ctl.solve_problem(cli.build_problem_2d(cfg, op, frac * phi0), op, hd=hd)
    assert len(made) >= 40
    for mat, fill in made:
        # the factored matrix is stored in the operator's order
        assert fill == fresh_factor(mat[op._perm][:, op._perm]).nnz


@pytest.mark.parametrize("make_op", [
    lambda: ops.assemble_1d(62, a=-0.8),
    lambda: ops.assemble_2d_lshape(1 / 30),
    # a dense dK: every entry of K stored
    lambda: sens._perturb_operator(ops.assemble_1d(62), 1e-2,
                                   np.random.default_rng(3)),
], ids=["1d", "2d", "perturbed"])
def test_shifted_solve_matches_fresh_factorization(make_op):
    op = make_op()
    rng = np.random.default_rng(4)
    for z in (1.0, 2.0 + 1.5j, 30.0 - 200.0j, 1e4 + 1e4j):
        v = rng.standard_normal(op.n)
        x = ops.solve_shifted(op, z, v).values
        want = fresh_factor(shifted_matrix(op, z)).solve((op.M * v).astype(complex))
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


# Factors 500 distinct shifts of the n_el = 62 operator after one warm-up
# solve and prints the growth of the peak RSS per cached factor, in KB.
_FACTOR_RSS_CHILD = PEAK_RSS_SOURCE + """
import numpy as np
from parabolic_control import cli
from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import sensitivity as sens
from parabolic_control.config import load_config
op = ops.assemble_1d(62)
v = np.ones(op.n)
ops.solve_shifted(op, 1.0 + 1.0j, v)
before = peak_rss_kb()
for k in range(500):
    ops.solve_shifted(op, complex(-1.0 - k, 1.0 + 0.01 * k), v)
assert len(op._solvers) == 501
print((peak_rss_kb() - before) / 500)
"""


def test_cached_factor_memory_per_shift():
    # every cached SuperLU object keeps memory sized by its supernodal panel:
    # about 160 KB per factor with the default panel of 10, whose L+U takes
    # 4 KB here, and 25 KB with the panel of 1 that solve_shifted uses.  A
    # fresh process, so that no other test's allocations set the peak
    proc = subprocess.run([sys.executable, "-c", _FACTOR_RSS_CHILD],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 64.0


def test_shifted_solve_rejects_spectral_shift(op20):
    lo, hi = ops.spectral_bounds(op20)
    with pytest.raises(ops.ShiftError):
        ops.solve_shifted(op20, 0.5 * (lo + hi),
                          op20.function(np.ones(op20.n)))


@pytest.mark.parametrize("every", [False, True])
def test_shifted_solve_refines_once_then_raises(every, monkeypatch):
    # a factor solve that misses the backward-error bound gets one step of
    # iterative refinement: a miss in the first solve only is repaired, a
    # miss in every solve raises ShiftError
    op = ops.assemble_1d(20)
    z, v = 1.0 + 1.0j, np.sin(op.coords)
    want = ops.solve_shifted(op, z, v).values
    factor_solve, calls, miss = ops._factor_solve, [], 1e-6 * np.max(np.abs(want))

    def perturbed(op_, lu, b):
        calls.append(b)
        return factor_solve(op_, lu, b) + (miss if every or len(calls) == 1 else 0.0)
    monkeypatch.setattr(ops, "_factor_solve", perturbed)
    if every:
        with pytest.raises(ops.ShiftError, match=r"shifted solve residual \S+ exceeds"):
            ops.solve_shifted(op, z, v)
    else:
        got = ops.solve_shifted(op, z, v).values
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert len(calls) == 2


def test_inner_norm_basics(op20):
    z = op20.function(np.zeros(op20.n))
    assert ops.norm_m(op20, z) == 0.0
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, op20.n))
    assert ops.inner_m(op20, x, y) == pytest.approx(ops.inner_m(op20, y, x))


def test_norm_of_ones_approaches_sqrt_pi():
    # lumped interior mass totals pi - h exactly
    for n_el in (100, 1000):
        op = ops.assemble_1d(n_el)
        h = np.pi / n_el
        got = ops.norm_m(op, np.ones(op.n))
        assert got == pytest.approx(np.sqrt(np.pi - h), rel=1e-12)
        assert abs(got - np.sqrt(np.pi)) <= h


def test_dimension_mismatch_rejected(op20):
    with pytest.raises(ops.DimensionError):
        ops.norm_m(op20, np.ones(op20.n + 1))


# ---------------------------------------------------------------------------
# spectral bounds
# ---------------------------------------------------------------------------

def test_enclosure_contains_dense_spectrum(op20):
    lo, hi = ops.spectral_bounds(op20)
    lam = -dense_pair_eigs(op20)
    assert np.all(lam >= lo) and np.all(lam <= hi)
    assert hi < 0


def test_bounds_respect_coefficient_range():
    # min-max: eigenvalues of the a=-0.8 operator lie within [0.2, 1] times
    # the isotropic ones
    iso = ops.assemble_1d(40)
    disc = ops.assemble_1d(40, a=-0.8)
    t_iso = dense_pair_eigs(iso)
    t_disc = dense_pair_eigs(disc)
    assert np.all(t_disc <= t_iso + 1e-12)
    assert np.all(t_disc >= 0.2 * t_iso - 1e-12)


# ---------------------------------------------------------------------------
# projection and mesh dump
# ---------------------------------------------------------------------------

def test_indicator_projection(op62):
    v = ops.project_to_mesh(op62, ops.Indicator1D(np.pi / 5, 2 * np.pi / 5))
    x = op62.coords
    inside = (x >= np.pi / 5) & (x <= 2 * np.pi / 5)
    assert np.array_equal(v.values, inside.astype(float))


def test_gaussian_sum_projection_peak():
    op = ops.assemble_2d_lshape(1.0 / 30.0)
    v = ops.project_to_mesh(op, ops.GaussianSum(
        ((20.0, (0.5, 0.5)), (20.0, (0.6, 0.1)), (30.0, (0.8, 0.4)))))
    nearest = np.argmin(np.sum((op.coords - np.array([0.5, 0.5]))**2, axis=1))
    assert v.values[nearest] >= 1.0


def test_zero_projection(op20):
    v = ops.project_to_mesh(op20, lambda p: 0.0)
    assert np.all(v.values == 0.0)


def test_unknown_descriptor_is_named(op20):
    with pytest.raises(TypeError, match="of type ndarray"):
        ops.project_to_mesh(op20, np.zeros(op20.n))


def test_mesh_dump_one_record_per_line(tmp_path, op20):
    path = tmp_path / "mesh.txt"
    ops.dump_mesh(op20, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "nodes 21"
    assert sum(1 for ln in lines if ln.startswith("node ")) == 21
    assert sum(1 for ln in lines if ln.startswith("element ")) == 20
    op2 = ops.assemble_2d_lshape(0.25)
    path2 = tmp_path / "mesh2.txt"
    ops.dump_mesh(op2, path2)
    lines2 = path2.read_text().splitlines()
    nv = len(op2.mesh.vertices)
    assert sum(1 for ln in lines2 if ln.startswith("node ")) == nv


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_self_adjointness_in_m_inner_product(op62):
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y = rng.standard_normal((2, op62.n))
        ax = ops.apply_op(op62, x).values
        ay = ops.apply_op(op62, y).values
        lhs = ops.inner_m(op62, ax, y)
        rhs = ops.inner_m(op62, x, ay)
        bound = 1e-10 * ops.norm_m(op62, x) * ops.norm_m(op62, y)
        assert abs(lhs - rhs) <= bound


def test_negative_definiteness(op62):
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.standard_normal(op62.n)
        assert ops.inner_m(op62, ops.apply_op(op62, x).values, x) < 0


def test_shifted_solve_exactness_random(op62):
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = 1.0 + 4.0 * rng.random() + 2.0j * rng.standard_normal()
        v = rng.standard_normal(op62.n)
        x = ops.solve_shifted(op62, z, v)
        res = z * x.values - ops.apply_op(op62, x.values.real).values \
            - 1j * ops.apply_op(op62, x.values.imag).values - v
        assert ops.norm_m(op62, res) <= 1e-10 * ops.norm_m(op62, v)


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=20, deadline=None)
def test_apply_matches_matrix_action(op62, k):
    e = np.zeros(op62.n)
    e[k] = 1.0
    got = ops.apply_op(op62, e).values
    want = -(op62.K @ e) / op62.M
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
