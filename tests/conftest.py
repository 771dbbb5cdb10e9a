import numpy as np
import pytest
import scipy.sparse as sp

from tvsim.grid import Grid, _sbp_derivative_1d, _trapezoid_1d
from tvsim.materials import ConstantCapacity
from tvsim.tensors import ElasticityTensors, isotropic_tensor


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid():
    return Grid(12, 11)


@pytest.fixture
def unit_tensors():
    return ElasticityTensors(D4=isotropic_tensor(1.0, 1.0),
                             C4=isotropic_tensor(1.0, 1.0),
                             B=0.5 * np.eye(2))


@pytest.fixture
def const_model():
    return ConstantCapacity(1.0)


def random_sym2(rng):
    a = rng.standard_normal((2, 2))
    return 0.5 * (a + a.T)


def random_sym_tensor(rng, spd=False):
    """Random 4th-order tensor with the required index symmetries.

    Built from a random symmetric 3x3 matrix in the orthonormal basis of
    symmetric 2x2 matrices; spd=True shifts the spectrum positive.
    """
    from tvsim.tensors import onb_matrix_to_tensor
    m = rng.standard_normal((3, 3))
    m = 0.5 * (m + m.T)
    if spd:
        m = m @ m.T + 0.1 * np.eye(3)
    return onb_matrix_to_tensor(m)


def boundary_vanishing_field(grid, rng, ncomp=2):
    if ncomp == 2:
        w = np.zeros((grid.ny, grid.nx, 2))
        w[1:-1, 1:-1, :] = rng.standard_normal((grid.ny - 2, grid.nx - 2, 2))
    else:
        w = np.zeros((grid.ny, grid.nx))
        w[1:-1, 1:-1] = rng.standard_normal((grid.ny - 2, grid.nx - 2))
    return w


def sbp_laplacian(g):
    """L = I (x) Lx + Ly (x) I on each velocity component, in interior_dof
    order, with L1 = P^-1 d^T P d of the SBP derivative d and the trapezoid
    weights P on a direction's interior nodes.  Generic sparse algebra; the
    solver's SBP modes play no part in it."""
    def interior(n, h):
        d = _sbp_derivative_1d(n, h)
        p = sp.diags(_trapezoid_1d(n, h))
        keep = sp.diags(np.r_[0.0, np.ones(n - 2), 0.0])  # the clamped ends
        return keep @ sp.diags(1.0 / _trapezoid_1d(n, h)) @ d.T @ p @ d @ keep
    lap = (sp.kron(sp.identity(g.ny), interior(g.nx, g.hx))
           + sp.kron(interior(g.ny, g.hy), sp.identity(g.nx)))
    return g.interior_submatrix(sp.block_diag([lap, lap]))


def regularizer(g, m):
    """R = hx hy L^2m, the regularizer of the velocity system."""
    return (g.hx * g.hy) * sp.linalg.matrix_power(sbp_laplacian(g), 2 * m).tocsr()


def velocity_system(itg, dt):
    """W + dt A_D + dt eps R + dt^2 A_C, the velocity system of an
    Integrator, assembled in full apart from the solver, which works in the
    SBP modes and assembles none of it."""
    g, cfg = itg.grid, itg.config
    a_d = g.quadratic_form_matrix(itg.comp_D)
    a_c = g.quadratic_form_matrix(itg.comp_C)
    m = itg.w_int * sp.identity(g.interior_dof.size) + dt * a_d + dt * dt * a_c
    if cfg.eps_reg > 0:
        m = m + dt * cfg.eps_reg * regularizer(g, cfg.m)
    return m.tocsr()


def mode_basis(g, py):
    """V_py = Qy[py] (x) Qx as a dense matrix, built from Grid.sbp_modes:
    rows are the y-parity half py of the unknowns, laid out (px, iy, c, ix),
    columns its mode coefficients, laid out (c, px, ky, kx)."""
    (qx, _), (qy, _) = g.sbp_modes()
    v = np.einsum("cd,pq,ik,pjl->picjdqkl", np.eye(2), np.eye(2), qy[py], qx)
    h = v[0, 0, 0, 0].size
    return v.reshape(h, h)


def mode_blocks(sym):
    """The dense matrix of one 2 x 2 component block per mode: sym is laid
    out (a, b, *modes), the coefficients it acts on (c, *modes)."""
    s = sym.reshape(2, 2, -1)
    n = s.shape[-1]
    return np.einsum("abm,mn->ambn", s, np.eye(n)).reshape(2 * n, 2 * n)
