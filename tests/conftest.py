import numpy as np
import pytest
import scipy.sparse as sp

from tvsim.grid import Grid
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


def velocity_system(itg, dt):
    """W + dt A_D + dt^2 A_C, the eps_reg = 0 velocity system of an
    Integrator, assembled in full apart from the solver, which works in the
    SBP modes and assembles none of it."""
    a_d = itg.grid.quadratic_form_matrix(itg.comp_D)
    return (sp.diags(itg.w2_int) + dt * a_d + dt * dt * itg.A_C).tocsr()


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
