"""Uniform rectangular grid, discrete operators and sparse SPD solves.

The domain is the rectangle [0, Lx] x [0, Ly] with nodes at the tensor
lattice x_i = i*hx, y_j = j*hy.  Scalar fields have shape (ny, nx), vector
fields (ny, nx, 2) and symmetric-matrix fields (ny, nx, 3) in the component
order (a11, a22, a12).

Every derivative comes from one first derivative, _sbp_derivative_1d:
centered in the interior with one-sided closures at the boundary, matched to
the trapezoid quadrature weights so that summation by parts is exact.  It
gives grad along the rows and columns of nodes, and its matrices Dx, Dy and
G give sym_grad and div_matrix; for every field w vanishing on the boundary,

    sum <A, sym_grad(w)> W  +  sum div_matrix(A) . w W  =  0

holds to rounding, and sum over the grid of any sym_grad component of such a
w vanishes identically.  These two identities are what make the discrete
energy and entropy exchange terms cancel exactly rather than to O(h^2).

Every 2-D operator is a Kronecker product or sum of 1-D factors (the SBP
derivative, the trapezoid weights, the three-point Laplacians).  Dx, Dy, G
and the weighted Neumann Laplacian are written as CSR arrays straight from
those factors, several times faster than generic sparse algebra builds
them.  The velocity forms live on the interior velocity unknowns
(Grid.interior_dof) only, through Gi, the columns of G at those unknowns,
never over all 2 n_nodes dof: Gi is one column slice of G, and the
thermal-force matrix T_B one sparse product with Gi^T.  The strain of every
velocity field goes through Gi as well (sym_grad), since a velocity vanishes
on the boundary; the grid keeps no full G, the tests' assembled oracle, nor
Dx and Dy, which only the builds of G and Gi read.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, SolverError

SNAPSHOT_MAGIC = b"TVS1"
_HEADER = struct.Struct("<4sIIId8x")  # magic, nx, ny, nfields, time, pad to 32
assert _HEADER.size == 32


def _sbp_derivative_1d(n, h):
    """First derivative: centered inside, first-order one-sided at the ends.

    With the trapezoid weights p = h*(1/2, 1, ..., 1, 1/2) this operator D
    satisfies the exact summation-by-parts relation P D + D^T P = B where B
    carries only boundary entries, which is what the discrete integration by
    parts below relies on.  Every row has two entries, in column order.
    """
    cols = np.arange(n)[:, None] + np.array([-1, 1])
    cols[0], cols[-1] = (0, 1), (n - 2, n - 1)
    vals = np.tile([-0.5 / h, 0.5 / h], (n, 1))
    vals[0] = vals[-1] = (-1.0 / h, 1.0 / h)
    return _csr(vals, cols, n)


def _tridiagonal(lower, main, upper):
    """The n x n tridiagonal matrix with these diagonals (n - 1, n, n - 1)."""
    n = main.size
    vals = np.column_stack([np.append(0.0, lower), main, np.append(upper, 0.0)])
    cols = np.clip(np.arange(n)[:, None] + np.array([-1, 0, 1]), 0, n - 1)
    return _csr(vals, cols, n)


def _neumann_laplacian_1d(n, h):
    """Second derivative with mirror ghost nodes (zero normal derivative)."""
    inv_h2 = 1.0 / h**2
    main = np.full(n, -2.0 * inv_h2)
    upper = np.full(n - 1, inv_h2)
    upper[0] = 2.0 * inv_h2
    lower = np.full(n - 1, inv_h2)
    lower[-1] = 2.0 * inv_h2
    return _tridiagonal(lower, main, upper)


def _dirichlet_laplacian_1d(n, h):
    """Three-point second difference; on the interior rows and columns it is
    the clamped (zero boundary) one."""
    off = np.full(n - 1, 1.0 / h**2)
    return _tridiagonal(off, np.full(n, -2.0 / h**2), off)


def _trapezoid_1d(n, h):
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _cosine_modes_1d(n, h):
    """Eigenbasis of the mirror-ghost Neumann second difference.

    The columns cos(pi j k / (n-1)) (the type-I DCT) are scaled to be
    orthonormal in the trapezoid inner product; the matching eigenvalues of
    the negative second difference are (4/h^2) sin^2(pi k / (2(n-1))).
    """
    k = np.arange(n)
    q = np.cos(np.pi * np.outer(k, k) / (n - 1))
    q /= np.sqrt(_trapezoid_1d(n, h) @ q**2)
    return q, (4.0 / h**2) * np.sin(0.5 * np.pi * k / (n - 1)) ** 2


def _parity_order(m):
    """Positions 0..m-1 of a direction's m interior nodes, even ones first.

    Returns shape (2, ceil(m/2)): row 0 holds the even positions, row 1 the
    odd ones.  For odd m the odd row ends in the pad position m, a phantom
    node that gives both parity blocks one size.
    """
    h = (m + 1) // 2
    order = np.full(2 * h, m)
    order[:h] = np.arange(0, m, 2)
    order[h:h + m // 2] = np.arange(1, m, 2)
    return order.reshape(2, h)


def _sbp_modes_1d(n, h):
    """Eigenbasis of K = d^T P d on the interior nodes, one block per parity.

    d is the SBP first derivative and P the trapezoid weights.  Every row of
    d reaches interior nodes of one parity only (the centred stencil skips
    the middle node, each one-sided closure touches one interior node), so K
    has no entry between an odd and an even interior node, and its
    eigenbasis splits into the two blocks of _parity_order.  Returns
    q (2, b, b) and lam (2, b), b = ceil((n-2)/2): per block
    Q^T P Q = I and Q^T K Q = diag(lam), the interior weights all being h.
    The pad position of an odd block carries the unit mode with lam = 0.
    """
    d = _sbp_derivative_1d(n, h)
    k = (d.T @ sp.diags(_trapezoid_1d(n, h)) @ d).toarray()[1:-1, 1:-1]
    order = _parity_order(n - 2)
    b = order.shape[1]
    q = np.tile(np.eye(b), (2, 1, 1))
    lam = np.zeros((2, b))
    for blk, pos in enumerate(order):
        pos = pos[pos < n - 2]
        lam[blk, :pos.size], q[blk, :pos.size, :pos.size] = \
            np.linalg.eigh(k[np.ix_(pos, pos)] / h)
    return q / np.sqrt(h), lam


def _csr(vals, cols, n_cols):
    """A CSR matrix from its rows' entries: the last axis of vals and cols
    (broadcast to one shape) runs over a row's entries in column order, the
    others over the rows in order.  Entries of value 0 are not stored, so a
    row with fewer entries pads them with 0 (at any valid column)."""
    vals, cols = np.broadcast_arrays(vals, cols)
    a = sp.csr_matrix((vals.ravel(), cols.astype(np.int32).ravel(),
                       np.arange(0, vals.size + 1, vals.shape[-1], dtype=np.int32)),
                      shape=(vals.size // vals.shape[-1], n_cols))
    a.eliminate_zeros()
    return a


def _kron_sum(wx, lx, wy, ly):
    """diag(wy) (x) diag(wx) lx + diag(wy) ly (x) diag(wx) for tridiagonal
    1-D lx and ly: five diagonals, each row listing its entries south,
    west, node, east, north (column order) where those nodes exist."""
    nx, ny = wx.size, wy.size
    ax = (wx[1:] * lx.diagonal(-1), wx * lx.diagonal(), wx[:-1] * lx.diagonal(1))
    ay = (wy[1:] * ly.diagonal(-1), wy * ly.diagonal(), wy[:-1] * ly.diagonal(1))
    vals = np.zeros((ny, nx, 5))  # a neighbour past the boundary stays 0
    vals[1:, :, 0] = ay[0][:, None] * wx
    vals[:, 1:, 1] = wy[:, None] * ax[0]
    vals[:, :, 2] = wy[:, None] * ax[1] + ay[1][:, None] * wx
    vals[:, :-1, 3] = wy[:, None] * ax[2]
    vals[:-1, :, 4] = ay[2][:, None] * wx
    cols = np.arange(nx * ny, dtype=np.int32).reshape(ny, nx, 1) \
        + np.array([-nx, -1, 0, 1, nx], dtype=np.int32)
    cols[0, :, 0], cols[-1, :, 4] = cols[0, :, 2], cols[-1, :, 2]  # any valid column
    cols[:, 0, 1], cols[:, -1, 3] = cols[:, 0, 2], cols[:, -1, 2]
    return _csr(vals, cols, nx * ny)


def _strain_matrix(dx, dy):
    """The blocks [[Dx, 0], [0, Dy], [Dy/2, Dx/2]] of G, written as one CSR
    array from the two-entry rows of Dx and Dy."""
    n = dx.shape[0]
    data, index = np.empty(8 * n), np.empty(8 * n, dtype=np.int32)
    data[:2 * n], data[2 * n:4 * n] = dx.data, dy.data
    index[:2 * n] = dx.indices
    np.add(dy.indices, n, out=index[2 * n:4 * n])
    shear, shear_index = data[4 * n:].reshape(n, 4), index[4 * n:].reshape(n, 4)
    np.multiply(dy.data.reshape(n, 2), 0.5, out=shear[:, :2])
    np.multiply(dx.data.reshape(n, 2), 0.5, out=shear[:, 2:])
    shear_index[:, :2] = dy.indices.reshape(n, 2)
    np.add(dx.indices.reshape(n, 2), n, out=shear_index[:, 2:])
    indptr = np.concatenate([np.arange(0, 4 * n, 2, dtype=np.int32),
                             np.arange(4 * n, 8 * n + 1, 4, dtype=np.int32)])
    return sp.csr_matrix((data, index, indptr), shape=(3 * n, 2 * n))


def _sbp_coupling_1d(n, h, q):
    """E = P d on the interior nodes, between the parity blocks of the modes q.

    d is the SBP first derivative and P the trapezoid weights.  On interior
    nodes E is exactly skew (P d + d^T P has only boundary entries), and like
    K = d^T P d it joins nodes of opposite parity only.  Returns e (2, b, b),
    e[j] = Q[1-j]^T E[1-j, j] Q[j], the block that takes the parity-j modes
    of q (_sbp_modes_1d) to the parity 1 - j ones; E's pad row and column
    are 0, so no pad mode is coupled.
    """
    e = (sp.diags(_trapezoid_1d(n, h)) @ _sbp_derivative_1d(n, h)).toarray()
    e = np.pad(e[1:-1, 1:-1], (0, 1))  # a zero pad row and column
    order = _parity_order(n - 2)
    return np.stack([q[1 - j].T @ e[np.ix_(order[1 - j], order[j])] @ q[j]
                     for j in (0, 1)])


def separable_inverse(qx, qy, inv):
    """Apply (Qy (x) Qx) diag(inv) (Qy (x) Qx)^T to a vector.

    qx (hx, hx) and qy (hy, hy) are dense 1-D bases and inv (hy, hx) the
    reciprocal symbol.  For P-orthonormal modes this is the exact inverse of
    (Py (x) Px) + Kronecker terms diagonalized by those modes: the heat
    preconditioner passes the cosine basis of each direction, because the
    five-point Neumann Laplacian couples neighbouring nodes, which have
    opposite parity.  inv is an array that every apply reads, so a caller may
    refill it in place to change the symbol and keep the bases and buffers.
    Reused work buffers keep the intermediates out of the allocator, whose
    fresh pages cost as much as a product at 128^2.
    """
    work_r, work_c = np.empty(inv.shape), np.empty(inv.shape)

    def apply(r):
        np.matmul(qy.T, r.reshape(inv.shape), out=work_r)
        np.matmul(work_r, qx, out=work_c)
        np.multiply(work_c, inv, out=work_c)
        np.matmul(work_c, qx.T, out=work_r)
        return (qy @ work_r).ravel()
    return apply


@dataclass
class Grid:
    """Uniform nx x ny node grid on [0, Lx] x [0, Ly]."""

    nx: int
    ny: int
    Lx: float = 1.0
    Ly: float = 1.0
    _ops: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ConfigError("grid needs at least 4 nodes per direction")
        if self.Lx <= 0 or self.Ly <= 0:
            raise ConfigError("grid needs positive side lengths")
        self.hx = self.Lx / (self.nx - 1)
        self.hy = self.Ly / (self.ny - 1)
        for side, h in (("x", self.hx), ("y", self.hy)):
            # h * h, because h**2 raises on overflow
            if not 0.0 < h * h < math.inf or not 1.0 / (h * h) < math.inf:
                raise ConfigError(f"grid spacing h{side} = grid.L{side} / (n{side} - 1)"
                                  f" = {h!r}: its square leaves the float range")
        self.x = np.linspace(0.0, self.Lx, self.nx)
        self.y = np.linspace(0.0, self.Ly, self.ny)
        self.X, self.Y = np.meshgrid(self.x, self.y)
        self.n_nodes = self.nx * self.ny
        wx = _trapezoid_1d(self.nx, self.hx)
        wy = _trapezoid_1d(self.ny, self.hy)
        self.weights = np.outer(wy, wx)
        self.boundary_mask = np.ones((self.ny, self.nx), dtype=bool)
        self.boundary_mask[1:-1, 1:-1] = False
        self.area = self.Lx * self.Ly
        # the interior velocity unknowns as full vector dof, laid out
        # (py, px, iy, c, ix) with py, px the parity blocks of _parity_order
        # and c the component; a pad slot names 2 n_nodes, past the last dof
        oy = _parity_order(self.ny - 2)[:, None, :, None, None]
        ox = _parity_order(self.nx - 2)[None, :, None, None, :]
        node, c = (oy + 1) * self.nx + ox + 1, np.arange(2)[:, None]
        pad = (oy == self.ny - 2) | (ox == self.nx - 2)
        self.interior_dof = np.where(pad, 2 * self.n_nodes, node + c * self.n_nodes).ravel()
        # the same unknowns in the node-major layout of a (ny, nx, 2) field
        self._interior_nodal = np.where(pad, 2 * self.n_nodes, 2 * node + c).ravel()

    # -- pointwise field operations (the assembled SBP matrices) ---------
    def grad(self, f):
        """Nodal gradient (Dx f, Dy f) of a scalar field, shape (ny, nx, 2),
        taken with the 1-D derivatives along the rows and the columns."""
        dx, dy = self._op("d_1d", lambda: (_sbp_derivative_1d(self.nx, self.hx),
                                           _sbp_derivative_1d(self.ny, self.hy)))
        return np.stack([(dx @ f.T).T, dy @ f], axis=-1)

    def sym_grad(self, v):
        """Symmetric gradient G v of a vector field that vanishes on the
        boundary, components (a11, a22, a12): a (ny, nx, 3) view of the
        component-major product Gi interior_vec(v).  The boundary values of
        v are not read: on a field that vanishes there, the product by Gi
        equals the one by G to the bit, since the terms Gi leaves out are
        exact zeros."""
        return (self._g_interior() @ self.interior_vec(v)).reshape(
            3, self.ny, self.nx).transpose(1, 2, 0)

    def integrate(self, f):
        """Trapezoid quadrature of a scalar field."""
        return float(np.sum(self.weights * f))

    def div_matrix(self, a):
        """Negative quadrature adjoint of sym_grad, zero on boundary nodes.

        -Gi^T W_mat a / (hx hy), hx hy being the weight of every interior
        node, so that integrate(<A, sym_grad w>) + integrate(div(A) . w) = 0
        exactly for every w vanishing on the boundary; at interior nodes it
        coincides with the centered-difference divergence of A.
        """
        flat = self.mat_weight_diag() @ self._flat(a)
        return self.vec_from_interior(-(self._g_interior().T @ flat) / (self.hx * self.hy))

    # -- flatteners -------------------------------------------------------
    @staticmethod
    def _flat(field):
        """Component-major dof of a vector or matrix field: (vx, vy) or
        (a11, a22, a12), each in node order."""
        return np.moveaxis(field, -1, 0).ravel()

    def interior_vec(self, v):
        """Interior degrees of freedom of a vector field, in interior_dof
        order (parity-major, 0 in the pad slots)."""
        return np.append(v.ravel(), 0.0)[self._interior_nodal]

    def vec_from_interior(self, flat_int):
        """Zero-extend interior vector dof back to the full grid."""
        out = np.zeros(2 * self.n_nodes + 1)  # the last entry takes the pads
        out[self._interior_nodal] = flat_int
        return out[:-1].reshape(self.ny, self.nx, 2)

    # -- assembled sparse operators (cached) ------------------------------
    def _op(self, key, builder):
        if key not in self._ops:
            self._ops[key] = builder()
        return self._ops[key]

    def Dx(self):
        """I (x) d: the SBP derivative along every row of nodes (not cached)."""
        d = _sbp_derivative_1d(self.nx, self.hx)
        cols = d.indices.reshape(self.nx, 2) + np.arange(0, self.n_nodes, self.nx,
                                                         dtype=np.int32)[:, None, None]
        return _csr(d.data.reshape(self.nx, 2), cols, self.n_nodes)

    def Dy(self):
        """d (x) I: the SBP derivative along every column of nodes (not cached)."""
        d = _sbp_derivative_1d(self.ny, self.hy)
        cols = d.indices.reshape(self.ny, 1, 2) * self.nx \
            + np.arange(self.nx, dtype=np.int32)[:, None]
        return _csr(d.data.reshape(self.ny, 1, 2), cols, self.n_nodes)

    def G(self):
        """Symmetric-gradient matrix: (vx, vy) dof -> (a11, a22, a12) dof,
        the blocks [[Dx, 0], [0, Dy], [Dy/2, Dx/2]].

        Built afresh on every call and never cached: no run calls it, since
        every velocity field vanishes on the boundary and its strain goes
        through Gi.  It is the tests' assembled oracle, and a span target of
        the benchmark's tracer.
        """
        return _strain_matrix(self.Dx(), self.Dy())

    def mat_weight_diag(self):
        """Quadrature weights for matrix fields: (w, w, 2w) per component."""
        w = self.weights.ravel()
        return self._op("Wmat", lambda: sp.diags(np.concatenate([w, w, 2.0 * w])))

    def _g_interior(self):
        """Gi = G[:, interior_dof], G's columns at the interior unknowns.

        G's arrays, built for the slice and then dropped, are read as a
        matrix one column wider, so that a pad slot's column 2 n_nodes is
        empty.  The column slice keeps each row's entries in G's stored order.
        """
        def build():
            g, n = _strain_matrix(self.Dx(), self.Dy()), self.n_nodes
            wide = sp.csr_matrix((g.data, g.indices, g.indptr), shape=(3 * n, 2 * n + 1))
            return wide[:, self.interior_dof]
        return self._op("Gi", build)

    def quadratic_form_matrix(self, comp_matrix):
        """A = Gi^T [M (x) diag(w)] Gi on the interior unknowns, for a 3x3
        component matrix M.

        Gives v . A v = integrate(<T: sym_grad v, sym_grad v>) exactly for v
        in interior_dof order, where M is the component matrix of the
        4th-order tensor T; the pad rows and columns are zero.  The
        integrator applies these forms through Gi and assembles none of
        them, so this product of the three factors is the oracle the tests
        compare against, and a span target of the benchmark's tracer.
        """
        gi = self._g_interior()
        m = sp.kron(np.asarray(comp_matrix, dtype=float), sp.diags(self.weights.ravel()))
        return (gi.T @ m @ gi).tocsr()

    def interior_submatrix(self, a):
        """a[interior_dof][:, interior_dof], a pad slot reading an empty row
        and column.  No run calls it; it is kept only as a span target of
        the benchmark's tracer."""
        a = sp.csr_matrix(a, copy=True)
        a.resize(2 * self.n_nodes + 1, 2 * self.n_nodes + 1)
        return a[self.interior_dof][:, self.interior_dof]

    def coupling_force_matrix(self, b_triple):
        """T_B = Gi^T S: nodal theta -> interior force dof of -div(theta * B).

        S = (b0, b1, 2 b2)^T (x) diag(w), one entry per strain row, so that
        v . T_B theta = integrate(theta * <B, sym_grad v>) exactly.  A node's
        three strain rows reach disjoint interior columns, so every entry of
        T_B is one product.
        """
        s = np.outer([b_triple[0], b_triple[1], 2.0 * b_triple[2]], self.weights.ravel())
        stack = _csr(s[..., None], np.arange(self.n_nodes)[:, None], self.n_nodes)
        return (self._g_interior().T @ stack).tocsr()

    def neumann_weighted(self):
        """W * Laplacian_N: symmetric negative semidefinite, zero row sums;
        five diagonals (see _kron_sum)."""
        return self._op("AN", lambda: _kron_sum(
            _trapezoid_1d(self.nx, self.hx), _neumann_laplacian_1d(self.nx, self.hx),
            _trapezoid_1d(self.ny, self.hy), _neumann_laplacian_1d(self.ny, self.hy)))

    def neumann_modes(self):
        """((Qx, mu_x), (Qy, mu_y)): cosine modes of the Neumann Laplacian."""
        return self._op("modes_N", lambda: (_cosine_modes_1d(self.nx, self.hx),
                                            _cosine_modes_1d(self.ny, self.hy)))

    def sbp_modes(self):
        """((Qx, lam_x), (Qy, lam_y)): interior modes of d^T P d per
        direction, one block per parity (see _sbp_modes_1d)."""
        return self._op("modes_K", lambda: (_sbp_modes_1d(self.nx, self.hx),
                                            _sbp_modes_1d(self.ny, self.hy)))

    def sbp_coupling(self):
        """(e_x, e_y): P d on the interior nodes of each direction in its
        SBP modes, between the parity blocks (see _sbp_coupling_1d)."""
        (qx, _), (qy, _) = self.sbp_modes()
        return self._op("coupling_K", lambda: (_sbp_coupling_1d(self.nx, self.hx, qx),
                                               _sbp_coupling_1d(self.ny, self.hy, qy)))

    def dirichlet_laplacian_interior(self):
        """Five-point Laplacian with clamped boundary on each component of
        the interior velocity unknowns, in interior_dof order.  No run calls
        it; it is kept only as a span target of the benchmark's tracer."""
        def build():
            lap = sp.kronsum(_dirichlet_laplacian_1d(self.nx, self.hx),
                             _dirichlet_laplacian_1d(self.ny, self.hy), format="csr")
            return self.interior_submatrix(sp.block_diag([lap, lap]))
        return self._op("Ldir", build)


def solve_spd(a, rhs, tol=1e-10, maxiter=None, x0=None, precond_apply=None,
              ref_norm=None):
    """Preconditioned conjugate gradients for an SPD system.

    a is a sparse matrix or any SPD operator with `@` (the integrator passes
    a Schur complement in mode coordinates).  Stops at residual
    |rhs - a x| <= tol ref_norm; ref_norm defaults to |rhs|, and a caller
    whose residual is that of a larger system, up to a known factor, passes
    that system's right-hand side norm over the factor.  A zero
    ref_norm returns x = 0, and x0 None starts from 0 without a product.
    The iteration cap defaults to 10 times the number of unknowns.  Failure
    raises SolverError with the last relative residual and the iterations
    attached: the cap reached, a reference or residual norm that is not
    finite, or a breakdown, p . A p not finite and positive (a singular or
    indefinite a).
    precond_apply, when given, applies an SPD approximate inverse (the
    integrator passes exact inverses of separable operators close to a, so
    iteration counts do not grow with 1/h).  Convergence is tested on the
    recursively updated residual r -= alpha A p, which tracks the true
    residual rhs - A x up to rounding, before the preconditioner is applied
    to it, so a converged residual costs no apply.  An iteration allocates
    only what a @ p and precond_apply return: x and r are updated through
    one work vector, and p in place.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    if maxiter is None:
        maxiter = 10 * n
    bnorm = math.sqrt(rhs @ rhs) if ref_norm is None else float(ref_norm)
    if bnorm == 0.0:
        return np.zeros(n), 0
    if not math.isfinite(bnorm):
        raise SolverError(f"conjugate gradients got a reference norm of {bnorm}",
                          residual=math.nan, iterations=0)
    if x0 is None:
        x, r = np.zeros(n), rhs.copy()
    else:
        x = np.array(x0, dtype=float)
        r = rhs - a @ x
    apply_m = precond_apply if precond_apply is not None else (lambda v: v)
    work = np.empty(n)
    rnorm = math.sqrt(r @ r)
    it = 0
    while not rnorm <= tol * bnorm:
        if not math.isfinite(rnorm):
            raise SolverError(f"conjugate gradients reached a residual norm of "
                              f"{rnorm} after {it} iterations", residual=rnorm / bnorm,
                              iterations=it)
        if it >= maxiter:
            raise SolverError(
                f"conjugate gradients stalled at relative residual {rnorm / bnorm:.3e} "
                f"after {it} iterations", residual=rnorm / bnorm, iterations=it)
        z = apply_m(r)
        rz_new = float(r @ z)
        if it == 0:
            p = z.copy()
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new
        ap = a @ p
        pap = float(p @ ap)
        if not 0.0 < pap < math.inf:
            raise SolverError(f"conjugate gradients broke down (p . A p = {pap}) "
                              f"after {it} iterations", residual=rnorm / bnorm,
                              iterations=it)
        alpha = rz / pap
        x += np.multiply(alpha, p, out=work)
        r -= np.multiply(alpha, ap, out=work)
        rnorm = math.sqrt(r @ r)
        it += 1
    return x, it


def write_atomic(path, data):
    """Write bytes to path through a temporary file and os.replace.

    A process killed mid-write leaves the old file or none, never a
    complete-looking partial one.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_snapshot(path, t, fields):
    """Write fields (list of (ny, nx) float arrays) with the 32-byte header."""
    ny, nx = fields[0].shape
    if any(f.shape != (ny, nx) for f in fields):
        raise ConfigError("snapshot fields must share one grid shape")
    header = _HEADER.pack(SNAPSHOT_MAGIC, nx, ny, len(fields), float(t))
    write_atomic(path, header + b"".join(
        np.ascontiguousarray(f, dtype="<f8").tobytes() for f in fields))


def read_snapshot(path):
    """Read a snapshot file; returns (t, [fields])."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read snapshot ({exc})") from exc
    if len(raw) < _HEADER.size:
        raise ConfigError(f"{path}: truncated snapshot header: expected "
                          f"{_HEADER.size} bytes, got {len(raw)}")
    magic, nx, ny, nfields, t = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ConfigError(f"{path}: not a snapshot file (bad magic {magic!r})")
    expected = _HEADER.size + 8 * nx * ny * nfields
    if len(raw) != expected:
        raise ConfigError(f"{path}: snapshot of {nfields} fields on {nx}x{ny} "
                          f"nodes needs {expected} bytes, file has {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return t, [f.copy() for f in data.reshape(nfields, ny, nx)]
