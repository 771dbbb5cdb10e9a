"""Semi-implicit time stepping for the regularized Kelvin-Voigt system.

One step advances (u, v, theta) by:

    (W + dt A_D + dt eps A_R + dt^2 A_C) v+ = W v + dt (-A_C u + T_B theta+ + W f)
    u+ = u + dt v+
    [kappa_bar/dt + b - D lap_N] theta+ = kappa_bar theta/dt + q + g

where A_D, A_C are the quadrature-exact viscous/elastic stiffness forms and
T_B the thermal-force operator, all three assembled on the interior velocity
unknowns only (Grid.quadratic_form_matrix, Grid.coupling_force_matrix);
b = <B, sym_grad v+> and q = <D: sym_grad v+, sym_grad v+> are nodal fields
from the same SBP matrix G, and kappa_bar is the chord mean of the
(floored) heat capacity over [theta, theta+].

Each step finds the fixed point of G(x) = heat(velocity(x), kappa_bar =
chord of kappa over [theta, x]): x forces the velocity solve and is the
chord point of the heat solve.  The iteration mixes the last three G(x) by
type-II Anderson acceleration (depth 2, falling back to the plain update
G(x) when the mix is not strictly positive) and stops once
|G(x) - x| <= _PICARD_TOL (1 + |G(x)|), returning theta+ = G(x).  So the
thermal force is the end-of-step temperature the heat equation cools with,
to _PICARD_TOL, and the dt^2 elastic term evaluates the elastic force at the
end-of-step displacement.  With those choices the discrete total energy
obeys

    F+ - F = -1/2 |v+ - v|_W^2 - dt^2/2 <C: sym_grad v+, sym_grad v+>
             - dt eps |lap^m v+|^2 + dt (f . v+) + dt int g

exactly (to solver tolerance), and the discrete entropy sum of ell(theta) is
nondecreasing whenever g >= 0: the viscous heating q converts one-for-one,
the exchange integral of <B, sym_grad v+> vanishes identically on
boundary-clamped fields, and the implicit heat solve is an M-matrix, which
also yields strictly positive temperatures under the diagonal guard.

The integrator remembers its last accepted step (LastStep): copies of the
end state, that state's F, S and nodal K(theta), the theta and v the step
started from, its dt and the last contraction ratio of its Picard loop.
A step whose input equals the remembered end state value for value
(np.array_equal on u, v and theta) continues it: F_old and S_old come from
the remembered ledger, every chord of kappa uses the remembered
K(theta_old), and the Picard loop starts from the predictor
x0 = theta + r (theta - theta_prev), r = dt / dt_prev, the extrapolated
starting value implicit integrators give their Newton iterations (Hairer &
Wanner, Solving ODEs II, IV.8).  Then the first kappa_bar is the chord over
[theta, x0] and the CG warm starts are x0 and v + r (v - v_prev).  The
predictor is used only when min x0 > 0 and theta moved over the last step
by more than _PICARD_TOL (1 + |theta|): near equilibrium the extrapolation
would only feed rounding noise into the thermal force.  Any other input (a
fresh integrator, an edited or a different state) is evaluated afresh and
starts from x = theta.  The fixed point, the stopping test and
theta+ = G(x) do not depend on where the loop starts.

Both linear systems are solved by conjugate gradients.  The identities above
hold to solver tolerance but involve only the accepted iterate, theta+ = G(x)
and the v+ that forced it, so the Picard loop sets one CG tolerance per
iteration (inexact Picard iteration, after Dembo, Eisenstat & Steihaug 1982):
an iteration is solved loosely, in proportion to the last change |G(x) - x|,
only when the loop's contraction ratio forecasts at least two more iterations
after it (_inner_tol); a continued step forecasts its first iteration from the
predictor step and the remembered ratio.  Every iteration that can stop the
loop is solved to _CG_TOL, a loose one that meets the stop test is followed by
a tight one, and the Anderson history is dropped when the solves tighten.
Both systems are preconditioned by exact inverses of separable operators,
applied in 1-D eigenbases by dense products (fast diagonalization, Lynch,
Rice & Thomas 1964), so iteration counts do not grow with 1/h and nothing
is factorized:

* velocity: CG runs on one half of the unknowns, in the SBP modes.
  K = d^T P d on interior nodes couples no odd with an even node, so the
  unknowns are ordered by parity blocks (Grid.interior_dof: y-parity py,
  x-parity px, then row, component, column).  W and every Dx-Dx and Dy-Dy
  term of A_D and A_C keep a node's parity pair, and every Dx-Dy term flips
  both parities, so the system M is 2-cyclic between the halves py = 0 and
  py = 1: each half's block M00, M11 keeps px = 0 and px = 1 apart, and M01
  joins px to 1 - px only.  In the SBP modes V_py (Grid.sbp_modes) a half's
  block is one 2 x 2 component symbol per mode, I + a_x lam_x + a_y lam_y,
  a_x and a_y holding the normal and the normal-shear entries of
  dt D + dt^2 C, so both blocks have exact inverses for every tensor.  On
  interior nodes E = P d is exactly skew, every Dx-Dy term is a multiple of
  Ey (x) Ex, and so the coupling is C2 (x) Ny (x) Nx there, with Ny and Nx
  the 1-D matrices of E between the parity blocks in the modes
  (Grid.sbp_coupling).  CG solves the Schur complement
  S = M11 - M10 M00^-1 M01 in the odd half's mode coefficients, where it is
  a 2 x 2 block per mode minus one Kronecker product of 1-D matrices and
  its preconditioner M11^-1 a 2 x 2 block per mode (_ReducedSystem); the
  even half follows as M00^-1 (f0 - M01 y).  An iteration costs four dense
  1-D products and three 2 x 2 mixes.  With sigma the singular values of
  M00^-1/2 M01 M11^-1/2 (at most 0.487 at 32^2 and dt = 0.01 on the
  built-in tensors), the preconditioned S has the spectrum 1 - sigma^2,
  where block Jacobi on M has 1 +- sigma, so the reduced solve takes about
  half the iterations (Reid 1972); its residual is the full system's;
* heat: the preconditioner is W (c_bar - D lap_N), with c_bar the weighted
  mean of kappa_bar/dt + b, inverted in the cosine (type-I DCT) modes of the
  Neumann Laplacian, one dense block per direction: the five-point stencil
  couples neighbours, which have opposite parity.

Only the eps_reg > 0 velocity system, whose high-order term couples
x-parity neighbours inside a half and is not diagonal in those modes, is
assembled and solved in full, with a sparse LU factorization as its
preconditioner; it is the only user of the assembled A_D.

Work is done where it changes.  Once per attempt, _picard gathers u, v and
f onto the interior unknowns and forms -A_C u and W f (_velocity_sources),
and evaluates K(theta) unless the remembered step holds it.  Each Picard
iteration pays only for what depends on the iterate x: the chord kappa_bar,
T_B x in the velocity right-hand side, the heat system's strain Gi v+ (no
scatter to the full grid), diagonal and right-hand side, the heat
preconditioner's symbol, and the two CG solves.  The velocity warm start
passes from one iteration to the next as the odd half's mode coefficients,
so only the predictor's v0 is transformed into the modes.  The 1-D bases
and coupling matrices of the velocity modes are built by the first velocity
solve and kept (_VelocityModes); per dt only the 2 x 2 blocks per mode are
formed, at the first solve of that dt.  The heat preconditioner's bases and
buffers are built by the first heat solve and kept.

The solver tolerances and caps, the dt growth and the positivity safety
factor are module constants: the identities hold only to about _CG_TOL and
_PICARD_TOL, so a setting that loosened them could only break the structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import tensors as tn
from .errors import ConfigError, SolverError, StepError
from .grid import separable_inverse, solve_spd


# residual differences the Picard loop mixes over (Anderson depth)
_ANDERSON_DEPTH = 2
_CG_TOL = 1e-12          # relative residual of both CG solves
_CG_TOL_LOOSE = 1e-4     # loosest CG tolerance (see _inner_tol)
_CG_MAXITER_FACTOR = 10  # CG iteration cap per unknown
_PICARD_TOL = 1e-11      # stop once |G(x) - x| <= _PICARD_TOL (1 + |G(x)|)
_PICARD_MAX = 80         # Picard iterations before an attempt is rejected
_DT_GROWTH = 1.2         # dt growth after an accepted step, up to dt_max
_THETA_SAFETY = 0.5      # share of the positivity guard's dt bound used
_T_STOP_SLACK = 1e-12    # a step may end this far past its t_stop


def _anderson_update(g_hist, f_hist, g_new, f_new):
    """Next fixed-point iterate by type-II Anderson mixing (Walker & Ni 2011).

    g_new = G(x) and f_new = G(x) - x belong to the current iterate x; the
    histories, oldest first, keep them for the last _ANDERSON_DEPTH + 1
    iterates and are updated in place.  Returns G(x) - dG gamma, with gamma
    the least-squares fit of f_new on the residual differences dF, or the
    plain G(x) when that mixed iterate is not strictly positive, so the chord
    of kappa and the diagonal guard only ever see positive temperatures.
    """
    g_hist.append(g_new)
    f_hist.append(f_new)
    if len(f_hist) > _ANDERSON_DEPTH + 1:
        del g_hist[0], f_hist[0]
    if len(f_hist) == 1:
        return g_new
    d_f = np.diff(np.stack(f_hist, axis=1), axis=1)
    d_g = np.diff(np.stack(g_hist, axis=1), axis=1)
    gamma = np.linalg.lstsq(d_f, f_new, rcond=None)[0]
    mixed = g_new - d_g @ gamma
    return mixed if mixed.min() > 0.0 else g_new


def _inner_tol(rho, change, scale):
    """CG tolerance of the next Picard iteration, forecast from the last one.

    change = |G(x) - x| of the last iteration, rho its ratio to the change
    before, scale = 1 + |theta|.  The next iteration is solved loosely only
    when the contraction forecasts at least two more after it
    (rho^2 change > 10 _PICARD_TOL scale with rho < 0.1): its solve error, a
    share tol of the change, is then swept out by the tight iterations that
    follow.  Otherwise the iteration may stop the loop and gets _CG_TOL.
    """
    if rho < 0.1 and rho * rho * change > 10.0 * _PICARD_TOL * scale:
        return max(_CG_TOL, min(_CG_TOL_LOOSE, _CG_TOL_LOOSE * change / scale))
    return _CG_TOL


# the parts of the strain (e11, e22, e12) that the x- and the y-derivatives
# of (v_x, v_y) make: e = ALPHA dv/dx + BETA dv/dy
_ALPHA = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.5]])
_BETA = np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.0]])


def _inverse_2x2(sym):
    """The inverse of every 2 x 2 block of sym (a, b, *modes), in closed form."""
    (s00, s01), (s10, s11) = sym
    return np.array([[s11, -s01], [-s10, s00]]) / (s00 * s11 - s01 * s10)


class _VelocityModes:
    """The velocity unknowns in the SBP modes, one y-parity half at a time.

    A half py of Grid.interior_dof, laid out (px, iy, c, ix), has the modes
    V_py = Qy[py] (x) Qx of Grid.sbp_modes, V^T W V = I for W = hx hy I; its
    coefficients are laid out component first, (c, px, ky, kx).  couple and
    couple_t apply the coupling N = Ny (x) Nx between the halves
    (Grid.sbp_coupling; Nx flips the x-parity).  Each transform and each
    factor of N is one matmul, its 1-D matrices broadcast over the other
    axes; the transposes of the stacked ones are kept as copies, because at
    128^2 matmul takes about 1.7 times as long on a transposed view of a
    stack.  Built at the first velocity solve, and kept.
    """

    def __init__(self, grid):
        (self.qx, self.lam_x), (qy, self.lam_y) = grid.sbp_modes()
        self.ex, ey = grid.sbp_coupling()  # ex[j] takes x-parity j to 1 - j
        self.qy, self.ny = qy, ey[1]
        self.qx_t, self.qy_t, self.ex_t = (np.ascontiguousarray(np.swapaxes(a, 1, 2))
                                           for a in (self.qx, qy, self.ex))
        self.shape = (2, 2) + self.lam_y.shape[1:] + self.lam_x.shape[1:]

    @staticmethod
    def mix(sym, p):
        """sum over b of sym[a, b] p[b]: one 2 x 2 component block per mode,
        sym laid out (a, b, px, ky, kx) and p (b, px, ky, kx)."""
        return np.einsum("ab...,b...->a...", sym, p)

    def symbol(self, py, a_x, a_y):
        """V^T M_pp V, the half py's block in its modes: the 2 x 2 block
        I + a_x lam_x + a_y lam_y per mode, laid out (a, b, px, ky, kx)."""
        return (np.eye(2)[:, :, None, None, None]
                + a_x[:, :, None, None, None] * self.lam_x[:, None, :]
                + a_y[:, :, None, None, None] * self.lam_y[py][:, None])

    def to_modes(self, y, py=slice(None)):
        """V^T y of the halves py of y, laid out (py, c, px, ky, kx)."""
        _, _, by, bx = self.shape
        rows = (y.reshape(-1, 2, 2 * by, bx) @ self.qx).reshape(-1, 2, by, 2, bx)
        return self.qy_t[py][:, None, None] @ rows.transpose(0, 3, 1, 2, 4)

    def from_modes(self, even, odd):
        """V0 even + V1 odd in interior_dof order, from the two halves'
        coefficients (c, px, ky, kx)."""
        _, _, by, bx = self.shape
        y = np.empty((2, 2, by, 2, bx))
        for py, coeffs in enumerate((even, odd)):
            np.matmul(self.qy[py] @ coeffs, self.qx_t, out=y[py].transpose(2, 0, 1, 3))
        return y.ravel()

    def couple(self, p):
        """N p: odd-half coefficients to even-half ones."""
        return self.ny @ (p @ self.ex_t)[:, ::-1]

    def couple_t(self, q):
        """N^T q: even-half coefficients to odd-half ones."""
        return (self.ny.T @ q)[:, ::-1] @ self.ex


class _ReducedSystem:
    """S = L1 - N^T B0 N, the velocity system's Schur complement on its odd-y
    half in the SBP modes, and the parts that recover the even half.

    In the modes (_VelocityModes) each y-parity half's block of the system M
    is L_py = V^T M_pp V, one 2 x 2 block per mode, and the coupling is
    V0^T M01 V1 = C2 (x) N with C2 = -(ALPHA^T c BETA + BETA^T c ALPHA),
    c = dt D + dt^2 C (module docstring).  So M11 - M10 M00^-1 M01 becomes S
    with B0 = C2 L0^-1 C2 per even-half mode, and its preconditioner M11^-1
    becomes L1^-1.  nnz counts the matrix entries one product reads: the
    2 x 2 blocks of L1 and B0, and the 1-D factors of N and of N^T.
    """

    def __init__(self, modes, c):
        self.modes = modes
        a_x, a_y = _ALPHA.T @ c @ _ALPHA, _BETA.T @ c @ _BETA
        c2 = -(_ALPHA.T @ c @ _BETA + _BETA.T @ c @ _ALPHA)
        self.c2 = c2[:, :, None, None, None]  # the same block for every mode
        self.inv0 = _inverse_2x2(modes.symbol(0, a_x, a_y))
        self.sym1 = modes.symbol(1, a_x, a_y)
        self.inv1 = _inverse_2x2(self.sym1)
        self.h0 = np.einsum("ad...,db->ab...", self.inv0, c2)  # L0^-1 C2
        self.b0 = np.einsum("ad,db...->ab...", c2, self.h0)
        n = self.sym1[0].size
        self.shape = (n, n)
        self.nnz = self.sym1.size + self.b0.size + 2 * (modes.ex.size + modes.ny.size)

    def __matmul__(self, p):
        m = self.modes
        p = p.reshape(m.shape)
        return (m.mix(self.sym1, p) - m.couple_t(m.mix(self.b0, m.couple(p)))).ravel()

    def precondition(self, r):
        return self.modes.mix(self.inv1, r.reshape(self.modes.shape)).ravel()


@dataclass
class FieldState:
    """Displacement u, velocity v = u_t and temperature theta at time t."""

    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    t: float = 0.0

    def validate(self, grid):
        shp = (grid.ny, grid.nx)
        if self.u.shape != shp + (2,) or self.v.shape != shp + (2,):
            raise ConfigError("u and v must have shape (ny, nx, 2)")
        if self.theta.shape != shp:
            raise ConfigError("theta must have shape (ny, nx)")
        for name in ("u", "v", "theta"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite")
        bmask = grid.boundary_mask
        if np.any(self.u[bmask] != 0.0) or np.any(self.v[bmask] != 0.0):
            raise ConfigError("u and v must vanish on boundary nodes")
        if np.any(self.theta < 0.0):
            raise ConfigError("theta must be nonnegative")

    def copy(self):
        return FieldState(self.u.copy(), self.v.copy(), self.theta.copy(), self.t)


@dataclass
class SolverConfig:
    """Time-step controls for the semi-implicit integrator."""

    dt_min: float = 1e-7
    dt_max: float = 0.01
    eps_reg: float = 0.0
    m: int = 1

    def validate(self):
        if not (0 < self.dt_min <= self.dt_max):
            raise ConfigError("need 0 < dt_min <= dt_max")
        if self.eps_reg < 0:
            raise ConfigError("eps_reg must be >= 0")
        if self.eps_reg > 0 and not 1 <= self.m <= 3:
            raise ConfigError("regularization order m must lie in 1..3")


class Forcing:
    """Time-dependent sources: f drives the momentum, g >= 0 heats."""

    def f(self, t, grid):
        return np.zeros((grid.ny, grid.nx, 2))

    def g(self, t, grid):
        return np.zeros((grid.ny, grid.nx))


class PulseForcing(Forcing):
    """Time-compact mechanical pulse and exponentially decaying heat source.

    Both envelopes are integrable in time, so the decay hypotheses of the
    stabilization results hold along these runs; that needs tau_f, tau_g > 0.
    """

    def __init__(self, amp_f=0.0, t0=1.0, tau_f=0.25, amp_g=0.0, tau_g=1.0):
        if amp_g < 0:
            raise ConfigError("heat-source amplitude must be >= 0")
        for key, tau in (("tau_f", tau_f), ("tau_g", tau_g)):
            if not tau > 0:
                raise ConfigError(f"pulse time scale {key} must be > 0, got {tau!r}")
        self.amp_f = amp_f
        self.t0 = t0
        self.tau_f = tau_f
        self.amp_g = amp_g
        self.tau_g = tau_g

    def f(self, t, grid):
        env = self.amp_f * math.exp(-((t - self.t0) / self.tau_f) ** 2)
        out = np.zeros((grid.ny, grid.nx, 2))
        out[..., 0] = env * np.sin(np.pi * grid.X / grid.Lx) * np.sin(np.pi * grid.Y / grid.Ly)
        return out

    def g(self, t, grid):
        env = self.amp_g * math.exp(-t / self.tau_g)
        r2 = (grid.X - 0.5 * grid.Lx) ** 2 + (grid.Y - 0.5 * grid.Ly) ** 2
        return env * np.exp(-r2 / (0.1 * grid.Lx) ** 2 / 2.0)


class CallableForcing(Forcing):
    """Wraps callables (t, grid) -> field; clips g roundoff below zero."""

    def __init__(self, f_fn=None, g_fn=None):
        self.f_fn = f_fn
        self.g_fn = g_fn

    def f(self, t, grid):
        return super().f(t, grid) if self.f_fn is None else self.f_fn(t, grid)

    def g(self, t, grid):
        if self.g_fn is None:
            return super().g(t, grid)
        out = self.g_fn(t, grid)
        if out.min() < -1e-10 * (1.0 + abs(out.max())):
            raise ConfigError(f"heat source went negative: min g = {out.min():g}")
        return np.maximum(out, 0.0)


def _safe_ratio(num, den):
    """num / den with the 0/0 convention -> 0 (numerator-null integrands)."""
    with np.errstate(divide="ignore"):
        return np.divide(num, den, out=np.zeros_like(num), where=num != 0.0)


@dataclass
class Ledger:
    """Energy, entropy and the entropy productions of one state."""

    kinetic: float
    elastic: float
    thermal: float
    F: float
    S: float
    prod_diffusion: float
    prod_viscous_lb: float
    prod_source: float


@dataclass
class StepReport(Ledger):
    """Exact per-step bookkeeping: the ledger of the end state, the balances."""

    t_new: float
    dt: float
    picard_iters: int
    cg_iters_velocity: int
    cg_iters_heat: int
    work_f: float
    work_g: float
    eps_dissipation: float
    energy_residual: float
    entropy_residual: float
    F_old: float
    S_old: float
    exchange_sum: float
    min_theta: float
    rejection_reasons: tuple = ()  # messages of the retried attempts, in order
    # iterations the retried attempts spent before they were rejected
    wasted_picard: int = 0
    wasted_cg_velocity: int = 0
    wasted_cg_heat: int = 0

    @property
    def rejections(self):
        return len(self.rejection_reasons)


@dataclass
class LastStep:
    """The last accepted step, kept so that the next step can continue it.

    u, v and theta are copies of the end state, F, S and K (nodal K(theta),
    flat) its ledger values; theta_start and v_start the state it began from;
    rho the last contraction ratio of its Picard loop, which the next step's
    first CG tolerance is forecast from.
    """

    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    F: float
    S: float
    K: np.ndarray
    theta_start: np.ndarray
    v_start: np.ndarray
    dt: float
    rho: float

    def continues(self, state):
        """Whether state equals the remembered end state, value for value."""
        return (np.array_equal(state.theta, self.theta)
                and np.array_equal(state.v, self.v)
                and np.array_equal(state.u, self.u))


class Integrator:
    """Owns the assembled operators and advances one FieldState in time."""

    def __init__(self, grid, tensors, model, config):
        config.validate()
        self.grid = grid
        self.tensors = tensors
        self.model = model  # the (possibly floored) law actually integrated
        self.config = config
        self.comp_D = tn.component_matrix(tensors.D4)
        self.comp_C = tn.component_matrix(tensors.C4)
        self.b_triple = tensors.b_triple
        self.A_C = grid.quadratic_form_matrix(self.comp_C)
        self.T_B = grid.coupling_force_matrix(self.b_triple)
        self.A_N = grid.neumann_weighted()
        self.w_flat = grid.weights.ravel()
        # every interior node, and every pad slot, has the weight hx hy
        self.w2_int = np.full(grid.interior_dof.size, grid.hx * grid.hy)
        self.D_diff = None  # set via diffusivity property
        self._vel_modes = None  # built by the first velocity solve
        self._vel_cache = {}
        self._heat_base = None
        self._heat_work = None  # refilled from _heat_base by each heat solve
        self._heat_diag_pos = None
        self._heat_pre = None  # built by the first heat solve (_heat_preconditioner)
        self._reg_block = self._build_regularization() if config.eps_reg > 0 else None
        self.dt_prev = config.dt_max
        self.last_step = None

    # -- setup -----------------------------------------------------------
    def set_diffusivity(self, d_diff):
        if d_diff <= 0:
            raise ConfigError("diffusivity D must be positive")
        self.D_diff = float(d_diff)
        base = (-d_diff) * self.A_N
        self._heat_base = base
        # each heat solve refills the data; the structure is shared
        self._heat_work = sp.csr_matrix((base.data.copy(), base.indices, base.indptr),
                                        shape=base.shape)
        self._heat_diag_pos = self._diag_positions(base)
        self._heat_pre = None
        return self

    def resume(self, state, theta_start, v_start, dt_prev, rho):
        """Take up a run at state, the end of an accepted step of dt_prev that
        began at theta_start and v_start and whose Picard loop last contracted
        by rho, so that the next step starts as it would have without the
        interruption (a restart from a checkpoint)."""
        kinetic, elastic, thermal, k_nodal = self._energies(state)
        self.dt_prev = dt_prev
        self.last_step = LastStep(
            state.u.copy(), state.v.copy(), state.theta.copy(),
            F=kinetic + elastic + thermal, S=self.entropy(state), K=k_nodal,
            theta_start=theta_start, v_start=v_start, dt=dt_prev, rho=rho)

    def _build_regularization(self):
        # the eps_reg > 0 system is assembled in full, the only user of A_D
        self._A_D = self.grid.quadratic_form_matrix(self.comp_D)
        op = -self.grid.dirichlet_laplacian_interior()
        power = op
        for _ in range(2 * self.config.m - 1):
            power = (power @ op).tocsr()
        half = op
        for _ in range(self.config.m - 1):
            half = (half @ op).tocsr()
        self._reg_half = half
        return (self.grid.hx * self.grid.hy) * power

    @staticmethod
    def _diag_positions(a):
        """Where a CSR matrix without duplicate entries stores its diagonal:
        a copy of its structure whose entries hold their positions + 1 reads
        them off its diagonal, where a missing entry reads 0."""
        marks = sp.csr_matrix((np.arange(1.0, a.nnz + 1), a.indices, a.indptr),
                              shape=a.shape).diagonal()
        if not marks.all():
            raise RuntimeError("matrix misses a diagonal entry")
        return marks.astype(np.intp) - 1

    def _velocity_matrix(self, dt):
        """The velocity system of dt, cached: a _ReducedSystem when
        eps_reg = 0, else (the full sparse system, its LU solve).  Built at
        the first solve of each dt; only the per-mode blocks change with dt.
        """
        key = float(dt)
        if key not in self._vel_cache:
            if len(self._vel_cache) > 8:
                self._vel_cache.clear()
            if self._reg_block is None:
                if self._vel_modes is None:
                    self._vel_modes = _VelocityModes(self.grid)
                self._vel_cache[key] = _ReducedSystem(
                    self._vel_modes, dt * self.comp_D + dt * dt * self.comp_C)
            else:
                m = sp.diags(self.w2_int) + dt * self._A_D + dt * dt * self.A_C
                m = (m + dt * self.config.eps_reg * self._reg_block).tocsr()
                # the high-order term conditions the system like h^{-4m} and
                # is not diagonal in the 1-D modes; an exact factorization
                # keeps the iteration count independent of that
                self._vel_cache[key] = (m, sp.linalg.splu(m.tocsc()).solve)
        return self._vel_cache[key]

    def _heat_preconditioner(self, c_bar):
        """Exact inverse of W (c_bar - D lap_N) in the cosine modes.

        The bases, the buffers and D (mu_x + mu_y) are built at the first
        heat solve and kept; each call only refills the reciprocal symbol.
        """
        if self._heat_pre is None:
            (qx, mu_x), (qy, mu_y) = self.grid.neumann_modes()
            lap = self.D_diff * (mu_x + mu_y[:, None])
            inv = np.empty_like(lap)
            self._heat_pre = lap, inv, separable_inverse(qx, qy, inv)
        lap, inv, apply = self._heat_pre
        np.divide(1.0, c_bar + lap, out=inv)
        return apply

    # -- nodal contractions ------------------------------------------------
    def coupling_field(self, strain):
        """b = <B, E> at every node for a symmetric-matrix field E."""
        b = self.b_triple
        return b[0] * strain[..., 0] + b[1] * strain[..., 1] + 2.0 * b[2] * strain[..., 2]

    def heating_field(self, strain):
        """q = <D: E, E> at every node; nonnegative by coercivity."""
        return np.einsum("ab,...a,...b->...", self.comp_D, strain, strain)

    # -- step operations ----------------------------------------------------
    def _velocity_sources(self, state, f_field):
        """(v, -A_C u, W f) on the interior unknowns: the parts of the
        velocity right-hand side that do not depend on the thermal force."""
        g = self.grid
        return (g.interior_vec(state.v), -(self.A_C @ g.interior_vec(state.u)),
                self.w2_int * g.interior_vec(f_field))

    def velocity_step(self, state, f_field, dt, theta_force=None, x0=None,
                      tol=_CG_TOL, sources=None):
        """Implicit velocity update; theta_force defaults to state.theta.

        f_field is the momentum source f(t + dt), shape (ny, nx, 2), and tol
        the relative residual CG stops at.  The system matrix contains the
        viscous form, the optional high-order regularization and the dt^2
        elastic term that evaluates the elastic force at the end-of-step
        displacement.  sources, when given, is _velocity_sources(state,
        f_field), which a Picard loop forms once for all its solves.  x0 is
        the warm start, state.v by default (see _solve_velocity).  Returns
        the interior v+, the CG iterations and v+ as a warm start.
        """
        theta = state.theta if theta_force is None else theta_force
        v_int, elastic, w_f = (self._velocity_sources(state, f_field)
                               if sources is None else sources)
        rhs = self.w2_int * v_int + dt * ((elastic + self.T_B @ theta.ravel()) + w_f)
        return self._solve_velocity(dt, rhs, v_int if x0 is None else x0, tol)

    def _solve_velocity(self, dt, rhs, x0, tol):
        """(x, CG iterations, warm start) of the velocity system of dt.

        x0 is the interior unknowns to start from or, of half their size,
        the warm start a velocity solve returned: the odd half's mode
        coefficients when eps_reg = 0, which a Picard loop hands on without
        transforming them back and forth.  With eps_reg = 0 CG runs on the
        _ReducedSystem in the coefficients c of the odd half y = V1 c: from
        c0 = hx hy V1^T y0 it solves S dc = r, r being the residual of
        (even half of c0, c0), whose even half is 0, and c = c0 + dc.  V1 is
        an orthogonal matrix over sqrt(hx hy), so the reduced residual in the
        modes has the norm of the full system's over sqrt(hx hy), and tol
        keeps measuring the full residual against the full right-hand side.
        The even half is V0 L0^-1 (V0^T f0 - C2 N c).  rhs, like every
        velocity right-hand side, is 0 in the pad slots, so the pad modes'
        coefficients stay 0.
        """
        system = self._velocity_matrix(dt)
        if self._reg_block is not None:
            x, iters = solve_spd(system[0], rhs, tol=tol,
                                 maxiter=_CG_MAXITER_FACTOR * rhs.size, x0=x0,
                                 precond_apply=system[1])
            return x, iters, x
        h, w = rhs.size // 2, self.grid.hx * self.grid.hy
        ref = math.sqrt(rhs @ rhs)
        if ref == 0.0:
            return np.zeros(rhs.size), 0, np.zeros(h)
        modes = system.modes
        f0, f1 = modes.to_modes(rhs)
        g0 = modes.mix(system.inv0, f0)  # L0^-1 V0^T f0
        c0 = (x0 if x0.size == h else w * modes.to_modes(x0[h:], slice(1, 2))).reshape(
            modes.shape)
        # the reduced residual f1 - L1 c0 - N^T C2 (g0 - L0^-1 C2 N c0),
        # with one product by N^T
        resid = f1 - modes.mix(system.sym1, c0) - modes.couple_t(
            modes.mix(system.c2, g0) - modes.mix(system.b0, modes.couple(c0)))
        dc, iters = solve_spd(system, resid.ravel(), tol=tol,
                              maxiter=_CG_MAXITER_FACTOR * h,
                              precond_apply=system.precondition,
                              ref_norm=ref / math.sqrt(w))
        c = c0 + dc.reshape(modes.shape)
        even = g0 - modes.mix(system.h0, modes.couple(c))
        return modes.from_modes(even, c), iters, c.ravel()

    @staticmethod
    def displacement_step(u, v_new, dt):
        """u+ = u + dt v+, consistent with the implicit elastic pairing."""
        return u + dt * v_new

    def temperature_step(self, state, v_new, g_field, dt, theta_guess=None,
                         kappa_bar=None, tol=_CG_TOL):
        """Positivity-preserving implicit heat update given the new velocity.

        Solves [kappa_bar/dt + b - D lap_N] theta+ = kappa_bar theta/dt + q + g
        to relative residual tol, with g_field the heat source g(t + dt),
        shape (ny, nx).  v_new is the new velocity field, shape (ny, nx, 2),
        or its interior unknowns as velocity_step returns them, whose strain
        is Gi v_int: the same values as that of the zero-extended field.
        The system is an M-matrix whenever the diagonal guard
        kappa_bar/dt + b > 0 holds at every node; a violation raises StepError
        (the step is rejected, never clamped).
        """
        g = self.grid
        # (n_nodes, 3) either way; Gi v_int is component-major
        strain = ((g._g_interior() @ v_new).reshape(3, -1).T if v_new.ndim == 1
                  else g.sym_grad(v_new).reshape(-1, 3))
        b = self.coupling_field(strain)
        q = self.heating_field(strain)
        theta_old = state.theta.ravel()
        if kappa_bar is None:
            kappa_bar = self.model.kappa(state.theta).ravel()
        diag_add = self.w_flat * (kappa_bar / dt + b)
        if np.any(diag_add <= 0.0):
            node = int(np.argmin(kappa_bar / dt + b))
            raise StepError("temperature diagonal guard failed "
                            f"(kappa/dt + b <= 0 at node {node})", node=node, dt=dt)
        if g_field.min() < 0.0:
            raise ConfigError("heat source g must be nonnegative")
        s = self._heat_work
        np.copyto(s.data, self._heat_base.data)
        s.data[self._heat_diag_pos] += diag_add
        rhs = self.w_flat * (kappa_bar * theta_old / dt + q + g_field.ravel())
        x0 = theta_old if theta_guess is None else theta_guess.ravel()
        # weighted mean of the diagonal; exact inverse when it is constant
        pre_apply = self._heat_preconditioner(float(diag_add.sum()) / g.area)
        theta_new, iters = solve_spd(s, rhs, tol=tol,
                                     maxiter=_CG_MAXITER_FACTOR * rhs.size,
                                     x0=x0, precond_apply=pre_apply)
        return theta_new.reshape(g.ny, g.nx), iters, b, q

    def adaptive_dt(self, state, v_new):
        """Largest admissible dt for the positivity guard, capped at dt_max.

        Requires dt <= _THETA_SAFETY kappa(theta) / max(0, -b) at every node;
        when b >= 0 everywhere the guard does not bind.  Falling below dt_min
        is reported with the offending node.
        """
        strain = self.grid.sym_grad(v_new)
        b = self.coupling_field(strain)
        kap = self.model.kappa(state.theta)
        neg = np.maximum(0.0, -b)
        dt = self.config.dt_max
        if np.any(neg > 0):
            ratios = np.where(neg > 0, kap / np.where(neg > 0, neg, 1.0), np.inf)
            bound = _THETA_SAFETY * float(ratios.min())
            if bound < self.config.dt_min:
                node = int(np.argmin(ratios))
                raise StepError(
                    f"positivity guard needs dt = {bound:.3e} < dt_min at node {node}",
                    node=node, dt=bound)
            dt = min(dt, bound)
        return dt

    # -- full step ---------------------------------------------------------
    def step(self, state, forcing, dt_request=None, t_stop=None):
        """Advance one accepted step; returns (new_state, StepReport).

        dt_request caps dt.  A step that would end more than _T_STOP_SLACK
        past t_stop ends at t_stop instead, so that a time the caller must
        record (a checkpoint, a snapshot) is landed on; a step that ends
        within the slack keeps its dt.  Rejected attempts (guard, solver or
        positivity failures) halve dt and retry without mutating the input
        state; the report counts the iterations they spent as wasted.  The
        step continues the last accepted one when state equals its end state
        (see LastStep).
        """
        cfg = self.config
        if self.D_diff is None:
            raise ConfigError("set_diffusivity must be called before stepping")
        dt = min(cfg.dt_max, self.dt_prev * _DT_GROWTH)
        if dt_request is not None:
            dt = min(dt, dt_request)
        dt = min(dt, self.adaptive_dt(state, state.v))
        if t_stop is not None and state.t + dt > t_stop + _T_STOP_SLACK:
            dt = t_stop - state.t
        last = self.last_step
        if last is not None and not last.continues(state):
            last = None
        reasons = []
        wasted = [0, 0, 0]
        while True:
            spent = [0, 0, 0]  # Picard, CG-velocity and CG-heat iterations
            try:
                new_state, report, k_end, rho = self._attempt(
                    state, forcing, dt, last, spent)
                break
            except (StepError, SolverError) as err:
                reasons.append(str(err))
                wasted = [w + n for w, n in zip(wasted, spent)]
                dt *= 0.5
                if dt < cfg.dt_min:
                    raise StepError(
                        f"step rejected below dt_min ({err})", dt=dt) from err
        report.rejection_reasons = tuple(reasons)
        (report.wasted_picard, report.wasted_cg_velocity,
         report.wasted_cg_heat) = wasted
        self.dt_prev = report.dt
        # the caller owns both states and may edit them: keep copies, except
        # of a start state that already is the remembered copy
        start = (state.theta.copy(), state.v.copy()) if last is None \
            else (last.theta, last.v)
        self.last_step = LastStep(
            new_state.u.copy(), new_state.v.copy(), new_state.theta.copy(),
            F=report.F, S=report.S, K=k_end, theta_start=start[0],
            v_start=start[1], dt=report.dt, rho=rho)
        return new_state, report

    def _predictor(self, state, dt, last):
        """(x0, interior v0) extrapolated along the last step, or None.

        None unless state continues the last step, theta moved over it by
        more than _PICARD_TOL (1 + |theta|) and the extrapolated x0 is
        strictly positive.
        """
        if last is None:
            return None
        theta = state.theta.ravel()
        moved = theta - last.theta_start.ravel()
        if np.abs(moved).max() <= _PICARD_TOL * (1.0 + np.abs(theta).max()):
            return None
        r = dt / last.dt
        x0 = theta + r * moved
        if x0.min() <= 0.0:
            return None
        return x0, self.grid.interior_vec(state.v + r * (state.v - last.v_start))

    @staticmethod
    def _counted(spent, slot, solve, *args, **kwargs):
        """solve(*args, **kwargs), adding its CG iterations to spent[slot],
        also those of a solve that stalls and raises."""
        try:
            out = solve(*args, **kwargs)
        except SolverError as err:
            spent[slot] += err.iterations or 0
            raise
        spent[slot] += out[1]
        return out

    def _attempt(self, state, forcing, dt, last, spent):
        t_new = state.t + dt
        # one evaluation of the sources per attempt, shared by every solve
        f_field = forcing.f(t_new, self.grid)
        g_field = forcing.g(t_new, self.grid)
        theta_new, v_int, b, rho = self._picard(state, f_field, g_field, dt,
                                                last, spent)
        min_theta = float(theta_new.min())
        if min_theta <= 0.0:
            node = int(np.argmin(theta_new))
            raise StepError(f"temperature positivity lost at node {node}",
                            node=node, dt=dt)

        v_full = self.grid.vec_from_interior(v_int)
        u_new = self.displacement_step(state.u, v_full, dt)
        new_state = FieldState(u_new, v_full, theta_new, t_new)

        report, k_end = self._bookkeeping(state, new_state, f_field, g_field,
                                          dt, v_int, b, spent, last)
        return new_state, report, k_end, rho

    def _picard(self, state, f_field, g_field, dt, last, spent):
        """The fixed point theta+ = G(theta+) of one attempt, counted into spent.

        Returns theta+, the interior v+ that forced it, the field b of its
        heat solve and rho = c_k / c_(k-1), the last ratio of the changes
        c_k = |G(x) - x| (before a second change: the last step's rho on a
        predicted start, 1 on a fresh one).  Each iteration's CG tolerance
        comes from _inner_tol, fed the last change and rho, or for the first
        iteration of a predicted start the predictor step |x0 - theta|; a
        fresh start is tight.  Only a tight iteration stops the loop, so
        theta+ and v+ always come from solves to _CG_TOL.
        """
        model = self.model
        theta_old = state.theta.ravel()
        sources = self._velocity_sources(state, f_field)
        # K(theta_old) is fixed over the attempt; every chord shares it
        k_old = model.K(theta_old) if last is None else last.K
        # the iterate x is both the thermal force and the chord point of kappa_bar
        start = self._predictor(state, dt, last)
        if start is None:
            x, v_guess = theta_old, None
            kappa_bar = model.kappa(theta_old)
            rho, tol = 1.0, _CG_TOL
        else:
            x, v_guess = start
            kappa_bar = np.asarray(model.kappa_chord(theta_old, x, k_old))
            rho = last.rho
            tol = _inner_tol(rho, float(np.abs(x - theta_old).max()),
                             1.0 + float(np.abs(theta_old).max()))
        change = 0.0  # the predictor step is no Picard change
        theta_guess = x
        g_hist, f_hist = [], []
        for _ in range(_PICARD_MAX):
            spent[0] += 1
            v_int, _, v_guess = self._counted(
                spent, 1, self.velocity_step, state, f_field, dt,
                theta_force=x, x0=v_guess, tol=tol, sources=sources)
            theta_new, _, b, _ = self._counted(
                spent, 2, self.temperature_step, state, v_int, g_field, dt,
                theta_guess=theta_guess, kappa_bar=kappa_bar, tol=tol)
            theta_guess = theta_new
            resid = theta_new.ravel() - x
            last_change, change = change, float(np.abs(resid).max())
            if last_change > 0.0:
                rho = change / last_change
            scale = 1.0 + float(np.abs(theta_new).max())
            if tol == _CG_TOL and change <= _PICARD_TOL * scale:
                return theta_new, v_int, b, rho
            # a change that meets the stop test forecasts no loose iteration
            loose, tol = tol > _CG_TOL, _inner_tol(rho, change, scale)
            if loose and tol == _CG_TOL:
                # the mix would carry the loose iterates' solve errors into
                # the tight ones
                g_hist.clear()
                f_hist.clear()
            x = _anderson_update(g_hist, f_hist, theta_new.ravel(), resid)
            kappa_bar = np.asarray(model.kappa_chord(theta_old, x, k_old))
        raise StepError(f"fixed-point iteration did not converge (last "
                        f"change {change:.2e})", dt=dt)

    # -- the energy / entropy ledger ----------------------------------------
    def _energies(self, state):
        """Kinetic, elastic and thermal energy with the solver's own
        quadrature, and the nodal K(theta) (flat) the thermal energy sums."""
        g = self.grid
        kinetic = 0.5 * g.integrate(state.v[..., 0] ** 2 + state.v[..., 1] ** 2)
        u_int = g.interior_vec(state.u)
        elastic = 0.5 * float(u_int @ (self.A_C @ u_int))
        k_nodal = self.model.K(state.theta).ravel()
        thermal = float(np.sum(self.w_flat * k_nodal))
        return kinetic, elastic, thermal, k_nodal

    def total_energy(self, state):
        """F = kinetic + elastic + thermal with the solver's own quadrature."""
        return sum(self._energies(state)[:3])

    def entropy(self, state):
        """S = integral of ell(theta) for the integrated (floored) law."""
        return float(np.sum(self.w_flat * self.model.ell(state.theta).ravel()))

    def ledger(self, state, g_field):
        """The Ledger of state, with g_field the heat source at state.t.

        The productions are those the implicit step balances the entropy
        with: edge diffusion D (1/theta) . (W lap_N) theta, the viscous lower
        bound kD int |sym_grad v|^2 / theta and int g / theta.  Nodal ratios
        take 0/0 -> 0; a zero temperature makes the edge production infinite.
        """
        return self._ledger(state, g_field)[0]

    def _ledger(self, state, g_field):
        """ledger(state, g_field) and the nodal K(theta) of its thermal energy."""
        theta = state.theta.ravel()
        strain = self.grid.sym_grad(state.v)
        strain_sq = (strain[..., 0] ** 2 + strain[..., 1] ** 2
                     + 2.0 * strain[..., 2] ** 2).ravel()
        kinetic, elastic, thermal, k_nodal = self._energies(state)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_val = self.entropy(state)
            # an edge with theta = 0 next to theta > 0 makes the
            # Dirichlet-form production genuinely infinite
            prod_diff = (self.D_diff * float((1.0 / theta) @ (self.A_N @ theta))
                         if theta.min() > 0.0 else math.inf)
            visc_lb = self.tensors.kD * float(
                np.sum(_safe_ratio(self.w_flat * strain_sq, theta)))
            src = float(np.sum(_safe_ratio(self.w_flat * g_field.ravel(), theta)))
        return Ledger(kinetic=kinetic, elastic=elastic, thermal=thermal,
                      F=kinetic + elastic + thermal, S=s_val,
                      prod_diffusion=prod_diff, prod_viscous_lb=visc_lb,
                      prod_source=src), k_nodal

    def _bookkeeping(self, state, new_state, f_field, g_field, dt, v_int, b,
                     spent, last):
        """The StepReport of an accepted attempt and the end state's nodal K.

        F and S of the input state come from last, the step it continues,
        and are evaluated when there is none: a caller may edit a state
        between steps.
        """
        g = self.grid
        work_f = dt * g.integrate(f_field[..., 0] * new_state.v[..., 0]
                                  + f_field[..., 1] * new_state.v[..., 1])
        work_g = dt * g.integrate(g_field)
        eps_diss = 0.0
        if self._reg_block is not None:
            half = self._reg_half @ v_int
            eps_diss = dt * self.config.eps_reg * self.grid.hx * self.grid.hy \
                * float(half @ half)
        end, k_end = self._ledger(new_state, g_field)
        if last is None:
            f_old, s_old = self.total_energy(state), self.entropy(state)
        else:
            f_old, s_old = last.F, last.S
        energy_residual = end.F - f_old + eps_diss - work_f - work_g
        entropy_residual = (end.S - s_old) - dt * (
            end.prod_diffusion + end.prod_viscous_lb + end.prod_source)

        report = StepReport(
            **vars(end), t_new=new_state.t, dt=dt, picard_iters=spent[0],
            cg_iters_velocity=spent[1], cg_iters_heat=spent[2],
            work_f=work_f, work_g=work_g, eps_dissipation=eps_diss,
            energy_residual=energy_residual, entropy_residual=entropy_residual,
            F_old=f_old, S_old=s_old, exchange_sum=float(np.sum(self.w_flat * b)),
            min_theta=float(new_state.theta.min()))
        return report, k_end
