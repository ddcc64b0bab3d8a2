"""Lumped-mass P1 discretizations of self-adjoint diffusion operators.

Provides the 1D variable-coefficient operator on [0, pi] and the Dirichlet
Laplacian on the L-shaped domain, both with homogeneous Dirichlet
conditions, boundary degrees of freedom eliminated.  The discrete operator
is A = -M^{-1} K with K the P1 stiffness matrix and M the row-sum lumped
mass matrix; A is self-adjoint in the M-weighted inner product and its
spectrum lies in [lam_min, kappa] with kappa < 0.

Shifted systems (z - A) x = v are solved as (z M + K) x = M v with one
sparse LU factorization per shift, cached on the operator; the LU pivots
on the diagonal in a symmetric fill-reducing order.  Each shifted matrix
is written into a complex copy of K that carries an explicit slot on
every diagonal entry, built once per operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DOMAIN_1D = (0.0, np.pi)


class DimensionError(ValueError):
    pass


class ShiftError(ValueError):
    pass


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of [0, pi]; nodes include both endpoints."""

    nodes: np.ndarray

    def __post_init__(self):
        n = self.nodes
        if n[0] != DOMAIN_1D[0] or abs(n[-1] - DOMAIN_1D[1]) > 1e-14:
            raise ValueError("1D mesh must span [0, pi]")
        if np.any(np.diff(n) <= 0):
            raise ValueError("1D mesh nodes must be strictly increasing")

    @property
    def n_el(self):
        return len(self.nodes) - 1

    @property
    def interior(self):
        return self.nodes[1:-1]


@dataclass(frozen=True)
class MeshLShape:
    """Structured triangulation of [-1,1]^2 minus the upper-left square.

    Vertices sit on the h-grid; each grid cell inside the L is split along
    its diagonal into two right triangles (min angle 45 degrees).
    """

    h: float
    vertices: np.ndarray          # (nv, 2)
    triangles: np.ndarray         # (nt, 3) CCW
    boundary: np.ndarray          # (nv,) bool

    @property
    def interior_index(self):
        return np.flatnonzero(~self.boundary)


@dataclass
class DiscreteOperator:
    """A = -M^{-1} K on the interior degrees of freedom."""

    K: sp.csc_matrix
    M: np.ndarray                 # diagonal entries, > 0
    mesh: object
    coords: np.ndarray            # interior node coordinates, (n,) or (n, 2)
    lam_min: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        self._solvers = {}
        self.lam_min, self.kappa = _spectral_enclosure(self.K, self.M)
        self._shift_base, self._shift_diag = _diagonal_slots(self.K)
        self._norm_m = float(np.max(self.M))
        self._norm_k = float(spla.norm(self.K, 1))

    @property
    def n(self):
        return self.K.shape[0]

    def function(self, values):
        return MeshFunction(np.asarray(values), self)


@dataclass
class MeshFunction:
    """Coefficient vector of a P1 function on the interior nodes."""

    values: np.ndarray
    op: DiscreteOperator

    def __post_init__(self):
        if len(self.values) != self.op.n:
            raise DimensionError(
                f"vector length {len(self.values)} != operator dimension {self.op.n}"
            )

    def copy(self):
        return MeshFunction(self.values.copy(), self.op)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble_1d(n_el, a=0.0, gamma=2.2):
    """P1 discretization of -(c u')' on [0, pi], c = 1 + a*chi_[gamma, pi].

    gamma is snapped to the nearest mesh node so every element carries a
    single coefficient value.
    """
    if n_el < 2:
        raise ValueError(f"need at least 2 elements, got {n_el}")
    if 1.0 + a <= 0.0:
        raise ValueError(f"diffusion 1 + a must be positive, got a={a}")
    if not DOMAIN_1D[0] < gamma < DOMAIN_1D[1]:
        raise ValueError(f"interface gamma must lie in (0, pi), got {gamma}")
    nodes = np.linspace(DOMAIN_1D[0], DOMAIN_1D[1], n_el + 1)
    mesh = Mesh1D(nodes)
    gamma_snapped = nodes[int(np.argmin(np.abs(nodes - gamma)))]
    h = np.diff(nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    coeff = np.where(mids >= gamma_snapped, 1.0 + a, 1.0)

    nn = n_el + 1
    K = np.zeros((nn, nn))
    M = np.zeros(nn)
    for e in range(n_el):
        ke = coeff[e] / h[e]
        K[e, e] += ke
        K[e + 1, e + 1] += ke
        K[e, e + 1] -= ke
        K[e + 1, e] -= ke
        M[e] += 0.5 * h[e]
        M[e + 1] += 0.5 * h[e]
    Ki = sp.csc_matrix(K[1:-1, 1:-1])
    return DiscreteOperator(K=Ki, M=M[1:-1], mesh=mesh, coords=mesh.interior)


def lshape_mesh(h):
    """Structured criss-cross mesh of the L-shape with grid spacing h = 1/m."""
    m = int(round(1.0 / h))
    if abs(m * h - 1.0) > 1e-12 or m < 2:
        raise ValueError(f"h must be 1/m with integer m >= 2, got {h}")
    coords = {}

    def vid(i, j):
        if (i, j) not in coords:
            coords[(i, j)] = len(coords)
        return coords[(i, j)]

    tris = []
    for ci in range(-m, m):
        for cj in range(-m, m):
            if ci < 0 and cj >= 0:
                continue  # cell in the removed square
            v00 = vid(ci, cj)
            v10 = vid(ci + 1, cj)
            v01 = vid(ci, cj + 1)
            v11 = vid(ci + 1, cj + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    nv = len(coords)
    verts = np.empty((nv, 2))
    for (i, j), k in coords.items():
        verts[k] = (i * h, j * h)
    boundary = np.zeros(nv, dtype=bool)
    for (i, j), k in coords.items():
        on_outer = abs(i) == m or abs(j) == m
        on_reentrant = (i == 0 and j >= 0) or (j == 0 and i <= 0)
        boundary[k] = on_outer or on_reentrant
    return MeshLShape(h=h, vertices=verts, triangles=np.array(tris, dtype=int),
                      boundary=boundary)


def assemble_2d_lshape(h):
    """P1 Dirichlet Laplacian on the L-shape with lumped mass."""
    if not 0 < h <= 0.25:
        raise ValueError(f"h must lie in (0, 1/4], got {h}")
    mesh = lshape_mesh(h)
    verts, tris = mesh.vertices, mesh.triangles
    nv = len(verts)
    rows, cols, vals = [], [], []
    M = np.zeros(nv)
    for t in tris:
        p = verts[t]
        d1 = p[1] - p[0]
        d2 = p[2] - p[0]
        area2 = d1[0] * d2[1] - d1[1] * d2[0]
        if area2 <= 0:
            raise ValueError("triangle with non-positive oriented area")
        area = 0.5 * area2
        # gradients of the three barycentric hats
        b = np.array([p[1, 1] - p[2, 1], p[2, 1] - p[0, 1], p[0, 1] - p[1, 1]])
        c = np.array([p[2, 0] - p[1, 0], p[0, 0] - p[2, 0], p[1, 0] - p[0, 0]])
        ke = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
        for a_ in range(3):
            M[t[a_]] += area / 3.0
            for b_ in range(3):
                rows.append(t[a_])
                cols.append(t[b_])
                vals.append(ke[a_, b_])
    K = sp.csr_matrix((vals, (rows, cols)), shape=(nv, nv))
    idx = mesh.interior_index
    Ki = sp.csc_matrix(K[np.ix_(idx, idx)])
    return DiscreteOperator(K=Ki, M=M[idx], mesh=mesh, coords=verts[idx])


# ---------------------------------------------------------------------------
# linear-algebra primitives
# ---------------------------------------------------------------------------

def apply_op(op, v):
    """A v = -M^{-1} K v."""
    x = _vec(op, v)
    return op.function(-(op.K @ x) / op.M)


def inner_m(op, x, y):
    return float(np.sum(op.M * _vec(op, x) * _vec(op, y)))


def norm_m(op, x):
    return float(np.sqrt(np.sum(op.M * np.abs(_vec(op, x)) ** 2)))


def spectral_bounds(op):
    return op.lam_min, op.kappa


def solve_shifted(op, z, v):
    """Solve (z - A) x = v via (z M + K) x = M v.  Returns complex values.

    The residual is judged against the normwise backward-error scale
    (|z| |M| + |K|) |x| + |rhs|: above 1e-12 of it the solve takes one step
    of iterative refinement, and raises ShiftError if it is still above.
    """
    z = complex(z)
    dist = _dist_to_interval(z, op.lam_min, op.kappa)
    if dist <= 1e-12 * abs(op.lam_min):
        raise ShiftError(f"shift {z} is inside or too close to the spectral "
                         f"enclosure [{op.lam_min}, {op.kappa}]")
    rhs = op.M * _vec(op, v, allow_complex=True)
    solver = op._solvers.get(z)
    if solver is None:
        mat = op._shift_base.copy()
        mat.data[op._shift_diag] += z * op.M
        # z M + K is complex symmetric with a definite imaginary part Im(z) M,
        # or definite for the real poles z > 0: diagonal pivots are stable,
        # so a symmetric ordering serves L and U alike
        solver = spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        op._solvers[z] = solver
    x = solver.solve(rhs)
    resid, scale = _backward_error_terms(op, z, x, rhs)
    if resid > 1e-12 * scale:
        # one step of iterative refinement before giving up
        x = x + solver.solve(rhs - (z * (op.M * x) + op.K @ x))
        resid, scale = _backward_error_terms(op, z, x, rhs)
        if resid > 1e-12 * scale:
            raise ShiftError(f"shifted solve residual {resid:.3e} exceeds "
                             f"1e-12 * ((|z| |M| + |K|) |x| + |rhs|) = "
                             f"{1e-12 * scale:.3e} at z={z}")
    return op.function(x)


def _backward_error_terms(op, z, x, rhs):
    """Residual norm of (z M + K) x = rhs and the normwise backward-error
    scale (|z| |M| + |K|) |x| + |rhs| it is measured against."""
    resid = np.linalg.norm(z * (op.M * x) + op.K @ x - rhs)
    scale = (abs(z) * op._norm_m + op._norm_k) * np.linalg.norm(x) \
        + np.linalg.norm(rhs)
    return resid, scale


def _diagonal_slots(K):
    """Complex copy of K with an explicit entry on every diagonal position and
    no other stored zeros (which would enter the LU's sparsity pattern), and
    the indices of the diagonal entries in its data array."""
    n = K.shape[0]
    Kc = K.tocoo()
    nz = Kc.data != 0
    i = np.arange(n)
    base = sp.csc_matrix(
        (np.concatenate([Kc.data[nz], np.zeros(n)]).astype(complex),
         (np.concatenate([Kc.row[nz], i]), np.concatenate([Kc.col[nz], i]))),
        shape=(n, n))
    base.sum_duplicates()
    base.sort_indices()
    cols = np.repeat(np.arange(n), np.diff(base.indptr))
    return base, np.flatnonzero(base.indices == cols)


def _vec(op, v, allow_complex=False):
    arr = v.values if isinstance(v, MeshFunction) else np.asarray(v)
    if len(arr) != op.n:
        raise DimensionError(f"vector length {len(arr)} != operator dimension {op.n}")
    if allow_complex:
        return arr.astype(complex) if not np.iscomplexobj(arr) else arr
    return arr


def _dist_to_interval(z, lo, hi):
    x, y = z.real, z.imag
    if x < lo:
        return np.hypot(x - lo, y)
    if x > hi:
        return np.hypot(x - hi, y)
    return abs(y)


def _spectral_enclosure(K, M):
    """Certified enclosure of sigma(-M^{-1}K) in [lam_min, kappa], kappa <= 0.

    Lower end by a Gershgorin row-sum bound of M^{-1}K; upper end from
    inverse power iteration on (K, M) with a 10% margin toward zero.
    """
    gersh = float(np.max(np.ravel(np.abs(K).sum(axis=1)) / M))
    lu = spla.splu(sp.csc_matrix(K))
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(K.shape[0])
    x /= np.linalg.norm(x)
    theta = None
    for _ in range(200):
        y = lu.solve(M * x)
        y /= np.sqrt(np.sum(M * y * y))
        new_theta = float(np.dot(y, K @ y))  # Rayleigh quotient in (K, M)
        if theta is not None and abs(new_theta - theta) <= 1e-6 * abs(new_theta):
            theta = new_theta
            break
        theta = new_theta
        x = y
    kappa = min(-0.9 * theta, 0.0)
    return -gersh, kappa


# ---------------------------------------------------------------------------
# data projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Indicator1D:
    a: float
    b: float


@dataclass(frozen=True)
class BallIndicator2D:
    """Indicator of the l1 ball {x : |x - center|_1 <= radius}."""

    center: tuple
    radius: float


@dataclass(frozen=True)
class GaussianSum:
    """sum_i amp_i * exp(-width_i * |x - center_i|^2)."""

    terms: tuple  # of (width, center) or (width, center, amp)


def project_to_mesh(op, descriptor):
    """Nodal interpolation of a descriptor (or raw samples) onto the mesh."""
    x = op.coords
    if isinstance(descriptor, Indicator1D):
        vals = ((x >= descriptor.a) & (x <= descriptor.b)).astype(float)
    elif isinstance(descriptor, BallIndicator2D):
        c = np.asarray(descriptor.center)
        vals = (np.abs(x - c).sum(axis=1) <= descriptor.radius).astype(float)
    elif isinstance(descriptor, GaussianSum):
        vals = np.zeros(op.n)
        for term in descriptor.terms:
            width, center = term[0], np.asarray(term[1])
            amp = term[2] if len(term) > 2 else 1.0
            d2 = np.sum((x - center) ** 2, axis=1) if x.ndim == 2 else (x - center) ** 2
            vals += amp * np.exp(-width * d2)
    elif callable(descriptor):
        vals = np.array([descriptor(p) for p in x], dtype=float)
    else:
        vals = np.asarray(descriptor, dtype=float)
        if len(vals) != op.n:
            raise DimensionError("sampled values length != operator dimension")
    return op.function(vals)


def dump_mesh(op, path):
    """Plain-text node/element listing, one record per line."""
    mesh = op.mesh
    with open(path, "w") as f:
        if isinstance(mesh, Mesh1D):
            f.write(f"nodes {len(mesh.nodes)}\n")
            for i, xval in enumerate(mesh.nodes):
                f.write(f"node {i} {xval!r}\n")
            f.write(f"elements {mesh.n_el}\n")
            for e in range(mesh.n_el):
                f.write(f"element {e} {e} {e + 1}\n")
        else:
            f.write(f"nodes {len(mesh.vertices)}\n")
            for i, (xv, yv) in enumerate(mesh.vertices):
                flag = int(mesh.boundary[i])
                f.write(f"node {i} {xv!r} {yv!r} {flag}\n")
            f.write(f"elements {len(mesh.triangles)}\n")
            for e, t in enumerate(mesh.triangles):
                f.write(f"element {e} {t[0]} {t[1]} {t[2]}\n")
