"""Property tests of the velocity system's y-parity structure.

On random coercive tensors, grid shapes with odd and even node counts, time
steps and regularizations eps_reg, m, the system
W + dt A_D + dt eps R + dt^2 A_C, assembled apart from the solver
(conftest.velocity_system), must be symmetric positive definite and split
as the reduced solve assumes: each y-parity half of Grid.interior_dof keeps
its x-parity blocks apart, the coupling between the halves only joins
x-parity px to 1 - px, the SBP modes turn each half's block into one 2 x 2
block per mode and the coupling into C2 (x) Ny (x) Nx, and the reduced solve
meets its tolerance on the full system.  A step reports dt eps <R v+, v+>
as its eps_dissipation.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from tvsim import tensors as tn
from tvsim.grid import Grid
from tvsim.integrator import FieldState, Forcing, Integrator, SolverConfig
from tvsim.materials import ConstantCapacity

from conftest import mode_basis, mode_blocks, sbp_laplacian, velocity_system

# about 3 s in all: the examples are small, and the draws repeat run to run
PROPERTY = settings(max_examples=50, deadline=None, database=None,
                    derandomize=True)

_entry = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def coercive_tensors(draw):
    """A 4th-order tensor L L^T + 0.1 I in the orthonormal basis, with every
    normal/shear coupling free."""
    low = np.zeros((3, 3))
    low[np.tril_indices(3)] = draw(st.lists(_entry, min_size=6, max_size=6))
    return tn.onb_matrix_to_tensor(low @ low.T + 0.1 * np.eye(3))


@st.composite
def velocity_cases(draw):
    """(integrator, grid, dt) on a 6..14 x 6..14 grid of random sides, with
    eps_reg 0 or a decade in 1e-8..1e-4 and m in 1..3.

    The decade is lowered where dt eps lam_max^2m, the regularizer's
    largest mode (lam_max is about 1/hx^2 + 1/hy^2), would pass 1e4: beyond
    that the dense check's own rounding exceeds the 1e-12 residuals it
    tests.
    """
    g = Grid(draw(st.integers(6, 14)), draw(st.integers(6, 14)),
             Lx=draw(st.floats(0.5, 2.0)), Ly=draw(st.floats(0.5, 2.0)))
    tens = tn.ElasticityTensors(D4=draw(coercive_tensors()),
                                C4=draw(coercive_tensors()), B=0.5 * np.eye(2))
    dt, m = draw(st.floats(1e-3, 0.1)), draw(st.sampled_from([3, 2, 1]))
    eps = draw(st.sampled_from([0.0, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]))
    peak = dt * (g.hx ** -2 + g.hy ** -2) ** (2 * m)
    eps = min(eps, 10.0 ** math.floor(math.log10(1e4 / peak)))
    itg = Integrator(g, tens, ConstantCapacity(1.0), SolverConfig(eps_reg=eps, m=m))
    return itg, g, dt


def _padded(g, seed, half=None):
    """A random vector of the unknowns, 0 in the pad slots (or one half)."""
    real = g.interior_dof < 2 * g.n_nodes
    if half is not None:
        real = np.split(real, 2)[half]
    return np.random.default_rng(seed).standard_normal(real.size) * real, real


@PROPERTY
@given(velocity_cases())
def test_halves_couple_only_opposite_x_parities(case):
    itg, _, dt = case
    m = velocity_system(itg, dt).toarray()
    assert np.abs(m - m.T).max() <= 1e-14 * np.abs(m).max()
    assert np.linalg.eigvalsh(m).min() > 0.0
    # the unknowns are laid out (py, px, iy, component, ix): q per block
    q = itg.grid.interior_dof.size // 4
    blocks = m.reshape(2, 2, q, 2, 2, q)
    # py, px of the row block and cy, cx of the column block
    for py, px, cy, cx in itertools.product((0, 1), repeat=4):
        linked = (py, px) == (cy, cx) or (py != cy and px != cx)
        assert linked or not blocks[py, px, :, cy, cx].any(), (py, px, cy, cx)


@PROPERTY
@given(velocity_cases(), st.integers(0, 2**32 - 1))
def test_modes_turn_the_system_into_blocks_and_one_kronecker_coupling(case, seed):
    itg, g, dt = case
    m = velocity_system(itg, dt).toarray()
    h = m.shape[0] // 2
    v0, v1 = mode_basis(g, 0), mode_basis(g, 1)
    system = itg._velocity_matrix(dt)
    # a pad mode's basis vector lives on pad slots only, where M is W alone,
    # so only the real modes carry the symbol
    real = g.interior_dof < 2 * g.n_nodes
    real_modes = [np.abs(v[half]).sum(axis=0) > 0.0
                  for v, half in ((v0, real[:h]), (v1, real[h:]))]
    symbols = (np.linalg.inv(mode_blocks(system.inv0)), mode_blocks(system.sym1))
    for half, (v, symbol, keep) in enumerate(zip((v0, v1), symbols, real_modes)):
        rows = slice(half * h, (half + 1) * h)
        got = v.T @ m[rows, rows] @ v
        assert np.abs(np.where(np.outer(keep, keep), got - symbol, 0.0)).max() \
            <= 1e-12 * np.abs(symbol).max()
    # the preconditioner is the exact inverse of the odd half's symbol
    assert np.abs(symbols[1] @ mode_blocks(system.inv1) - np.eye(h)).max() <= 1e-12
    # the coupling: C2 from the strain map, Nx block off-diagonal in px
    c = dt * itg.comp_D + dt * dt * itg.comp_C
    alpha = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.5]])
    beta = np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
    c2 = -(alpha.T @ c @ beta + beta.T @ c @ alpha)
    ex, ey = g.sbp_coupling()
    bx = ex.shape[1]
    nx = np.zeros((2, bx, 2, bx))
    nx[1, :, 0, :], nx[0, :, 1, :] = ex
    expected = np.einsum("cd,kl,pxqy->cpkxdqly", c2, ey[1], nx).reshape(h, h)
    assert np.abs(v0.T @ m[:h, h:] @ v1 - expected).max() \
        <= 1e-12 * np.abs(expected).max()
    # the pad modes' coefficients stay 0, and so do the pad slots
    rhs, _ = _padded(g, seed)
    x, _, coeffs = itg._solve_velocity(dt, rhs, np.zeros(rhs.size), 1e-12)
    assert not coeffs[~real_modes[1]].any() and not x[~real].any()


@PROPERTY
@given(velocity_cases(), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-12, 1e-8, 1e-4]))
def test_reduced_solve_meets_its_tolerance_on_the_full_system(case, seed, tol):
    itg, g, dt = case
    rhs, real = _padded(g, seed)
    x0, _ = _padded(g, seed + 1)
    x, _, _ = itg._solve_velocity(dt, rhs, 0.1 * x0, tol)
    resid = velocity_system(itg, dt).toarray() @ x - rhs
    assert np.linalg.norm(resid) <= 2.0 * tol * np.linalg.norm(rhs)
    assert not x[~real].any()
    # a step dissipates dt eps <R v+, v+> through the regularizer
    shape = (g.ny, g.nx)
    v = g.vec_from_interior(0.01 * x0)
    state = FieldState(np.zeros(shape + (2,)), v, np.ones(shape))
    new, report = itg.set_diffusivity(1.0).step(state, Forcing())
    # <R v, v> = hx hy |L^m v|^2 rounds less than the product with R
    half = sp.linalg.matrix_power(sbp_laplacian(g), itg.config.m) @ g.interior_vec(new.v)
    expected = report.dt * itg.config.eps_reg * g.hx * g.hy * float(half @ half)
    assert abs(report.eps_dissipation - expected) <= 1e-12 * expected
