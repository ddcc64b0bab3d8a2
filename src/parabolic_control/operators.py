"""Lumped-mass P1 discretizations of self-adjoint diffusion operators.

Provides the 1D variable-coefficient operator on [0, pi] and the Dirichlet
Laplacian on the L-shaped domain, both with homogeneous Dirichlet
conditions, boundary degrees of freedom eliminated.  The discrete operator
is A = -M^{-1} K with K the P1 stiffness matrix and M the row-sum lumped
mass matrix; A is self-adjoint in the M-weighted inner product and its
spectrum lies in [lam_min, kappa] with kappa < 0.

Assembly is array arithmetic without per-element loops; it sums every
entry in the order of a per-element loop, so K and M are bit-identical to
that loop's.

Shifted systems (z - A) x = v are solved as (z M + K) x = M v with one
sparse LU factorization per shift; the LU pivots on the diagonal.  A
factor is cached on the operator it was made through, and no cache evicts
one.  An operator's child (DiscreteOperator.child) shares every array of
it and keeps a cache of its own: a shift is looked up in the child's cache,
then in its parent's, and a new factor goes to the child, so dropping the
child releases the factors made through it while the parent's stay.

Each operator has one fill-reducing order, which its children share: the
minimum-degree column order of one real symmetric-mode LU of K, which also
serves the spectral enclosure.  Each shifted matrix is written into a
complex copy of K that carries an explicit slot on every diagonal entry and
is stored in that order, built once per operator, so no factorization
reorders.  A cached factor costs far more memory than its L and U values:
measured as growth of the peak RSS, about 25 KB for the 1D n = 61 operator
(whose L+U takes 4 KB) and 1.3 MB for the 2D h = 1/30 one, with SuperLU's
panel size set to 1.
"""

from __future__ import annotations

import copy
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
        self._parent = None
        # one symmetric-mode factor of K serves the enclosure, and its column
        # order is the fill-reducing order of every shifted matrix, whose
        # pattern is that of K with its diagonal
        base, _ = _diagonal_slots(self.K, np.arange(self.n))
        lu = spla.splu(base, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        self.lam_min, self.kappa = _spectral_enclosure(self.K, self.M, lu)
        self._perm = lu.perm_c
        self._order = np.argsort(self._perm)
        base, self._shift_diag = _diagonal_slots(self.K, self._perm)
        self._shift_base = base.astype(complex)
        self._norm_m = float(np.max(self.M))
        self._norm_k = float(spla.norm(self.K, 1))

    @property
    def n(self):
        return self.K.shape[0]

    def child(self):
        """An operator that shares every array of this one and starts with
        an empty factor cache: solve_shifted looks a shift up in the child's
        cache, then in this one's, and stores a new factor on the child.
        Dropping the child releases the factors made through it.  Its
        vectors are this operator's, so they do not keep the child alive."""
        kid = copy.copy(self)
        kid._solvers, kid._parent = {}, self
        return kid

    def function(self, values):
        return MeshFunction(np.asarray(values),
                            self if self._parent is None else self._parent)


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
    if not 0.0 < 1.0 + a < np.inf:
        raise ValueError(f"diffusion 1 + a must be positive and finite, got a={a}")
    if not DOMAIN_1D[0] < gamma < DOMAIN_1D[1]:
        raise ValueError(f"interface gamma must lie in (0, pi), got {gamma}")
    nodes = np.linspace(DOMAIN_1D[0], DOMAIN_1D[1], n_el + 1)
    mesh = Mesh1D(nodes)
    gamma_snapped = nodes[int(np.argmin(np.abs(nodes - gamma)))]
    h = np.diff(nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    coeff = np.where(mids >= gamma_snapped, 1.0 + a, 1.0)

    # interior node i collects element i-1, then element i: the sums are
    # taken in that order
    ke = coeff / h
    half = 0.5 * h
    off = -ke[1:-1]
    K = sp.diags([off, ke[:-1] + ke[1:], off], [-1, 0, 1], format="csc")
    return DiscreteOperator(K=K, M=half[:-1] + half[1:], mesh=mesh,
                            coords=mesh.interior)


def lshape_mesh(h):
    """Structured criss-cross mesh of the L-shape with grid spacing h = 1/m."""
    m = int(round(1.0 / h))
    if abs(m * h - 1.0) > 1e-12 or m < 2:
        raise ValueError(f"h must be 1/m with integer m >= 2, got {h}")
    # cells of [-m, m)^2 in row-major order, the removed square left out;
    # each visits its grid points as v00, v10, v01, v11, and a vertex is
    # numbered by its first visit
    ci, cj = np.meshgrid(np.arange(-m, m), np.arange(-m, m), indexing="ij")
    keep = ~((ci < 0) & (cj >= 0))
    ci, cj = ci[keep], cj[keep]
    gi = np.stack([ci, ci + 1, ci, ci + 1], axis=1).ravel()
    gj = np.stack([cj, cj, cj + 1, cj + 1], axis=1).ravel()
    _, first, visit = np.unique((gi + m) * (2 * m + 1) + gj + m,
                                return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    v = number[visit].reshape(-1, 4)
    tris = np.stack([v[:, [0, 1, 3]], v[:, [0, 3, 2]]], axis=1).reshape(-1, 3)
    i, j = gi[first[order]], gj[first[order]]
    verts = np.column_stack([i * h, j * h])
    on_outer = (np.abs(i) == m) | (np.abs(j) == m)
    on_reentrant = ((i == 0) & (j >= 0)) | ((j == 0) & (i <= 0))
    return MeshLShape(h=h, vertices=verts, triangles=tris,
                      boundary=on_outer | on_reentrant)


def assemble_2d_lshape(h):
    """P1 Dirichlet Laplacian on the L-shape with lumped mass."""
    if not 0 < h <= 0.25:
        raise ValueError(f"h must lie in (0, 1/4], got {h}")
    mesh = lshape_mesh(h)
    verts, tris = mesh.vertices, mesh.triangles
    nv = len(verts)
    p = verts[tris]                                   # (nt, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(area2 <= 0):
        raise ValueError("triangle with non-positive oriented area")
    area = 0.5 * area2
    # gradients of the three barycentric hats
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        / (4.0 * area)[:, None, None]
    # triplets in (triangle, a, b) order and M summed in (triangle, a) order:
    # duplicates add up in the order of a per-triangle loop
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    K = sp.csr_matrix((ke.ravel(), (rows, cols)), shape=(nv, nv))
    M = np.bincount(tris.ravel(), weights=np.repeat(area / 3.0, 3), minlength=nv)
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

    The factor of z is looked up on op, then on op's parent when op is a
    child; a new one is cached on op.  The residual is judged against the
    normwise backward-error scale (|z| |M| + |K|) |x| + |rhs|: above 1e-12
    of it the solve takes one step of iterative refinement, and raises
    ShiftError if it is still above.
    """
    z = complex(z)
    dist = _dist_to_interval(z, op.lam_min, op.kappa)
    if dist <= 1e-12 * abs(op.lam_min):
        raise ShiftError(f"shift {z} is inside or too close to the spectral "
                         f"enclosure [{op.lam_min}, {op.kappa}]")
    rhs = op.M * _vec(op, v, allow_complex=True)
    solver = op._solvers.get(z)
    if solver is None and op._parent is not None:
        solver = op._parent._solvers.get(z)
    if solver is None:
        mat = op._shift_base.copy()
        mat.data[op._shift_diag] += z * op.M
        # z M + K is complex symmetric with a definite imaginary part Im(z) M,
        # or definite for the real poles z > 0: diagonal pivots are stable,
        # so a symmetric ordering serves L and U alike.  panel_size=1: every
        # cached SuperLU object keeps memory sized by its supernodal panel.
        # Measured as peak-RSS growth per cached factor, SuperLU's default
        # panel of 10 costs 157 KB for the 1D n = 61 operator (whose L+U
        # takes 4 KB) and 1.5 MB at 2D h = 1/30; a panel of 1 costs 25 KB
        # and 1.2 MB, with the same fill and a faster factorization.  The
        # rows and columns are already in the operator's fill-reducing order
        solver = spla.splu(mat, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           panel_size=1, options=dict(SymmetricMode=True))
        op._solvers[z] = solver
    x = _factor_solve(op, solver, rhs)
    resid, scale = _backward_error_terms(op, z, x, rhs)
    if resid > 1e-12 * scale:
        # one step of iterative refinement before giving up
        x = x + _factor_solve(op, solver, rhs - (z * (op.M * x) + _k_times(op, x)))
        resid, scale = _backward_error_terms(op, z, x, rhs)
        if resid > 1e-12 * scale:
            raise ShiftError(f"shifted solve residual {resid:.3e} exceeds "
                             f"1e-12 * ((|z| |M| + |K|) |x| + |rhs|) = "
                             f"{1e-12 * scale:.3e} at z={z}")
    return op.function(x)


def _backward_error_terms(op, z, x, rhs):
    """Residual norm of (z M + K) x = rhs and the normwise backward-error
    scale (|z| |M| + |K|) |x| + |rhs| it is measured against."""
    resid = np.linalg.norm(z * (op.M * x) + _k_times(op, x) - rhs)
    scale = (abs(z) * op._norm_m + op._norm_k) * np.linalg.norm(x) \
        + np.linalg.norm(rhs)
    return resid, scale


def _k_times(op, x):
    """K x for complex x, as K times the (n, 2) real view of x's real and
    imaginary parts: bit-identical to K @ x, which would cast K's data to
    complex on every call."""
    return (op.K @ x.view(float).reshape(-1, 2)).view(complex)[:, 0]


def _factor_solve(op, lu, b):
    """Solve with a cached factor of op's shifted matrix, which is stored in
    the operator's fill-reducing order: b and the solution in the original
    order."""
    return lu.solve(b[op._order])[op._perm]


def _diagonal_slots(K, perm):
    """Copy of K, row and column i renumbered perm[i], with an explicit entry
    on every diagonal position and no other stored zeros (which would enter
    the LU's sparsity pattern), and the indices of the diagonal entries in its
    data array, entry i holding the diagonal of original row i."""
    n = K.shape[0]
    Kc = K.tocoo()
    nz = Kc.data != 0
    i = np.arange(n)
    base = sp.csc_matrix(
        (np.concatenate([Kc.data[nz], np.zeros(n)]),
         (perm[np.concatenate([Kc.row[nz], i])],
          perm[np.concatenate([Kc.col[nz], i])])),
        shape=(n, n))
    base.sum_duplicates()
    base.sort_indices()
    cols = np.repeat(np.arange(n), np.diff(base.indptr))
    return base, np.flatnonzero(base.indices == cols)[perm]


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


def _spectral_enclosure(K, M, lu):
    """Certified enclosure of sigma(-M^{-1}K) in [lam_min, kappa], kappa <= 0.

    Lower end by a Gershgorin row-sum bound of M^{-1}K; upper end from
    inverse power iteration on (K, M), with lu a factor of K, and a 10%
    margin toward zero.
    """
    gersh = float(np.max(np.ravel(np.abs(K).sum(axis=1)) / M))
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
    """Nodal interpolation of a descriptor, or of a function of a point,
    onto the mesh."""
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
        raise TypeError(f"unknown data descriptor of type {type(descriptor).__name__}")
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
