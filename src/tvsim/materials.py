"""Heat-capacity laws and the scalar functionals derived from them.

A heat-capacity law kappa is a continuous nonnegative function on [0, inf),
positive on (0, inf).  Everything else in the thermal analysis is built from
its primitives:

    K(x)        = int_0^x kappa                      (thermal energy density)
    ell(x)      = int_1^x kappa(s)/s ds              (entropy density)
    ell_hat(x)  = int_0^x ln^2(s+M) kappa(s)/(s+M)   (log-weighted entropy)
    ell_cut(x)  = int_1^x rho_M(s) kappa(s)/s ds     (cutoff entropy)

Evaluation uses closed forms where a variant has them, otherwise cached
composite Gauss-Legendre ladders in log-transformed coordinates, accurate to
roughly 1e-13 relative and safe near the origin where kappa/s may blow up.
K and ell are closed-form for the constant, power-growth (ell for omega in
{0, 1} only) and Debye-like laws, and for their floored forms, which join the
base law's primitive and the floor's piecewise at the crossings.  ell_hat is
closed-form for the constant law only: the other laws, Debye-like ones
included, keep the ladder, which also serves the tests as the oracle of the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _build, _typed

#: smallest admissible weight shift for the log-weighted entropy, and its default
M_MIN = math.exp(4.0)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _as_array(xi):
    arr = np.asarray(xi, dtype=float)
    return arr, arr.ndim == 0


class _CumulativeQuad:
    """Growable cumulative integral of a smooth integrand over an s-lattice.

    Panel boundaries are the fixed lattice s0 + k step (k an integer) and the
    supplied kink locations, so every panel is smooth and the table does not
    depend on the order in which values were requested: it always covers a
    run of lattice points k_lo..k_hi, and its cumulative values from s0 are
    running sums continued panel by panel outward from s0.  Evaluation
    combines the table with a Gauss-Legendre rule on the partial panel.
    """

    def __init__(self, fn, s0=0.0, step=0.25, kinks=()):
        self.fn = fn
        self.s0 = float(s0)
        self.step = float(step)
        self.kinks = np.array(sorted(float(k) for k in kinks))
        self.k_lo = self.k_hi = 0
        self.nodes = np.array([self.s0])
        self.cum = np.array([0.0])

    def _lattice(self, k):
        return self.s0 + k * self.step

    def _panel_integral(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        pts = mid[None, :] + half[None, :] * _GL_X[:, None]
        terms = _GL_W[:, None] * self.fn(pts.ravel()).reshape(pts.shape)
        # fold the 16 rows in halves, in place: each panel's sum is the same
        # whatever panels share the call (einsum takes another order for a
        # single panel)
        k = len(terms) // 2
        while k:
            terms[:k] += terms[k:2 * k]
            k //= 2
        return half * terms[0]

    def _ladder(self, k_a, k_b):
        """Panel boundaries from lattice point k_a to k_b and their integrals."""
        ticks = self._lattice(np.arange(k_a, k_b + 1))
        inner = self.kinks[(self.kinks > ticks[0]) & (self.kinks < ticks[-1])]
        pts = np.unique(np.concatenate([ticks, inner]))
        return pts, self._panel_integral(pts[:-1], pts[1:])

    def _extend_to(self, s_lo, s_hi):
        k_hi = math.floor((s_hi - self.s0) / self.step) + 2
        if k_hi > self.k_hi:
            pts, inc = self._ladder(self.k_hi, k_hi)
            # np.cumsum adds in sequence: cum[i] = cum[i - 1] + inc[i]
            cum = np.cumsum(np.concatenate([self.cum[-1:], inc]))[1:]
            self.nodes = np.concatenate([self.nodes, pts[1:]])
            self.cum = np.concatenate([self.cum, cum])
            self.k_hi = k_hi
        k_lo = math.floor((s_lo - self.s0) / self.step) - 1
        if k_lo < self.k_lo:
            pts, inc = self._ladder(k_lo, self.k_lo)
            # downward in sequence from the first node: cum[i] = cum[i + 1] - inc[i]
            cum = np.subtract.accumulate(
                np.concatenate([self.cum[:1], inc[::-1]]))[:0:-1]
            self.nodes = np.concatenate([pts[:-1], self.nodes])
            self.cum = np.concatenate([cum, self.cum])
            self.k_lo = k_lo

    def value(self, s):
        s = np.asarray(s, dtype=float)
        if s.size == 0:
            return np.zeros_like(s)
        finite = s[np.isfinite(s)]  # a nan or inf request evaluates to nan/inf
        if finite.size:
            self._extend_to(float(finite.min()), float(finite.max()))
        idx = np.searchsorted(self.nodes, s, side="right") - 1
        partial = self._panel_integral(self.nodes[idx].ravel(), s.ravel())
        return self.cum[idx] + partial.reshape(s.shape)

    def lower_limit(self, max_span=4000.0):
        """Limit of the cumulative value as s -> -inf, if it converges."""
        val = 0.0
        for k in range(8, int(max_span / self.step) + 1, 8):
            new_val = float(self.value(self._lattice(-k)))
            if abs(new_val - val) <= 1e-15 * (1.0 + abs(new_val)):
                return new_val
            val = new_val
        raise ConfigError("entropy primitive did not converge toward xi = 0")


def _bisect_increasing(fn, z, tol_abs=1e-12, max_expand=2000):
    """Solve fn(x) = z for a strictly increasing fn by bracketed bisection."""
    a = b = 1.0
    fa = fb = fn(1.0)
    n = 0
    while fb < z:
        b *= 2.0
        fb = fn(b)
        n += 1
        if n > max_expand or not math.isfinite(b):
            raise ConfigError("monotone inversion failed to bracket from above")
    n = 0
    while fa > z:
        a *= 0.5
        fa = fn(a)
        n += 1
        if n > max_expand:
            raise ConfigError("monotone inversion failed to bracket from below")
    while b - a > tol_abs + 8.0 * np.finfo(float).eps * max(1.0, abs(b)):
        mid = 0.5 * (a + b)
        if fn(mid) < z:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


@dataclass(frozen=True)
class HypothesisFlags:
    """Which growth hypotheses a heat-capacity law satisfies.

    bounded_below_at_infinity: liminf of kappa at large temperature is positive.
    log_weighted_divergent: kappa(x) * ln(x) diverges (the planar-case condition).
    heuristic: flags were sampled from a tail rather than derived analytically.
    """

    variant: str
    bounded_below_at_infinity: bool
    log_weighted_divergent: bool
    heuristic: bool = False


class HeatCapacity:
    """Base class: continuous kappa >= 0 on [0, inf), positive on (0, inf)."""

    #: kink locations of kappa in (0, inf), panel boundaries for quadrature
    kinks: tuple = ()

    def __init__(self):
        self._caches = {}

    # -- to be provided by variants ------------------------------------
    def kappa_values(self, xi):
        raise NotImplementedError

    def classify(self):
        raise NotImplementedError

    # closed-form hooks; return None when unavailable
    def _K_closed(self, xi):
        return None

    def _ell_closed(self, xi):
        return None

    def _ell_hat_closed(self, xi, m_shift):
        return None

    # -- shared evaluation ---------------------------------------------
    def kappa(self, xi):
        arr, scalar = _as_array(xi)
        if np.any(arr < 0):
            raise ConfigError("kappa requested at a negative temperature")
        out = self.kappa_values(arr)
        return float(out) if scalar else out

    @property
    def divergent_at_zero(self):
        """Whether int_0^1 kappa(s)/s ds diverges (kappa(0) > 0 for all variants)."""
        return float(self.kappa_values(np.array(0.0))) > 0.0

    def _cache(self, key, builder):
        if key not in self._caches:
            self._caches[key] = builder()
        return self._caches[key]

    def _K_quad(self):
        # s = ln(1 + sigma)
        def integrand(s):
            sig = np.expm1(s)
            return self.kappa_values(sig) * np.exp(s)
        kink_s = [math.log1p(k) for k in self.kinks]
        return self._cache("K", lambda: _CumulativeQuad(integrand, kinks=kink_s))

    def _ell_quad(self):
        # s = ln(sigma); d(ell) = kappa(e^s) ds
        def integrand(s):
            return self.kappa_values(np.exp(s))
        kink_s = [math.log(k) for k in self.kinks if k > 0]
        return self._cache("ell", lambda: _CumulativeQuad(integrand, kinks=kink_s))

    def _ell_hat_quad(self, m_shift):
        def integrand(s):
            sig = np.expm1(s)
            w = np.log(sig + m_shift) ** 2 / (sig + m_shift)
            return self.kappa_values(sig) * w * np.exp(s)
        kink_s = [math.log1p(k) for k in self.kinks]
        return self._cache(("ell_hat", m_shift),
                           lambda: _CumulativeQuad(integrand, kinks=kink_s))

    def K(self, xi):
        """Thermal-energy primitive int_0^xi kappa."""
        arr, scalar = _as_array(xi)
        if np.any(arr < 0):
            raise ConfigError("K requested at a negative temperature")
        closed = self._K_closed(arr)
        if closed is None:
            closed = self._K_quad().value(np.log1p(arr))
        return float(closed) if scalar else closed

    def ell(self, xi):
        """Entropy primitive int_1^xi kappa(s)/s ds.

        Returns the -inf sentinel at xi = 0 when the lower integral diverges.
        """
        arr, scalar = _as_array(xi)
        if np.any(arr < 0):
            raise ConfigError("ell requested at a negative temperature")
        out = np.empty_like(arr)
        zero = arr == 0.0
        pos = ~zero
        closed = self._ell_closed(arr[pos]) if np.any(pos) else np.array([])
        if closed is None:
            closed = self._ell_quad().value(np.log(arr[pos]))
        out[pos] = closed
        if np.any(zero):
            out[zero] = -math.inf if self.divergent_at_zero else self.ell_at_zero()
        return float(out) if scalar else out

    def ell_at_zero(self):
        """Finite limit of ell at 0 (only when the integral converges there)."""
        if self.divergent_at_zero:
            return -math.inf
        closed = self._ell_closed(np.zeros(1))
        if closed is not None:
            return float(closed[0])
        return self._cache("ell0", self._ell_quad().lower_limit)

    def ell_hat(self, xi, m_shift=M_MIN):
        """Log-weighted entropy int_0^xi ln^2(s+M) kappa(s)/(s+M) ds, M >= e^4."""
        if m_shift < M_MIN - 1e-9:
            raise ConfigError(f"log-weighted entropy needs M >= e^4, got {m_shift}")
        arr, scalar = _as_array(xi)
        if np.any(arr < 0):
            raise ConfigError("ell_hat requested at a negative temperature")
        closed = self._ell_hat_closed(arr, m_shift)
        if closed is None:
            closed = self._ell_hat_quad(m_shift).value(np.log1p(arr))
        return float(closed) if scalar else closed

    def ell_cut(self, xi, m_cut):
        """Cutoff entropy with the piecewise-linear cutoff at level M > 1.

        The cutoff is 1 on [0, M], decays linearly to 0 on [M, M+1] and
        vanishes beyond, so the result agrees with ell below M.  Above M, with
        h = min(xi, M+1), int_M^h (M+1-s) kappa(s)/s ds
        = (M+1)(ell(h) - ell(M)) - (K(h) - K(M)).
        """
        if m_cut <= 1.0:
            raise ConfigError(f"cutoff entropy needs M > 1, got {m_cut}")
        if xi < 0:
            raise ConfigError("ell_cut requested at a negative temperature")
        xi = float(xi)
        base = self.ell(min(xi, m_cut))
        if xi <= m_cut:
            return base
        hi = min(xi, m_cut + 1.0)
        return (base + (m_cut + 1.0) * (self.ell(hi) - base)
                - (self.K(hi) - self.K(m_cut)))

    def kappa_chord(self, a, b, k_a=None):
        """Mean value of kappa over [a, b]: (K(b) - K(a)) / (b - a), elementwise.

        Falls back to the midpoint value on vanishing intervals, evaluated at
        those nodes only, so the result is exactly consistent with differences
        of K wherever they are resolvable.  a and b share one shape.  k_a,
        when given, is K(|a|), so a caller that keeps a fixed across many
        chords evaluates it once.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if k_a is None:
            k_a = self.K(np.abs(a))
        delta = b - a
        tiny = np.abs(delta) <= 1e-7 * (1.0 + np.abs(a) + np.abs(b))
        chord = np.asarray((self.K(np.abs(b)) - k_a) / np.where(tiny, 1.0, delta))
        if tiny.any():
            chord[tiny] = self.kappa_values(np.maximum(0.5 * (a[tiny] + b[tiny]), 0.0))
        return chord

    def ell_inverse(self, z):
        """Inverse of the strictly increasing entropy primitive."""
        z = float(z)
        if not self.divergent_at_zero and z < self.ell_at_zero():
            raise ConfigError(
                f"value {z:g} lies below the infimum {self.ell_at_zero():g} of ell")
        return _bisect_increasing(lambda x: float(self.ell(x)), z)

    def K_inverse(self, z):
        """Inverse of the strictly increasing energy primitive (z >= 0)."""
        z = float(z)
        if z < 0:
            raise ConfigError("K is nonnegative; cannot invert a negative value")
        if z == 0.0:
            return 0.0
        return _bisect_increasing(lambda x: float(self.K(x)), z)

    def floor(self, eps):
        """Regularized law max(kappa, eps), eps in (0, 1).

        Guarantees kappa_eps >= eps and sup |kappa_eps - kappa| <= eps, and
        leaves kappa untouched wherever it already sits above the floor.
        """
        if not 0.0 < eps < 1.0:
            raise ConfigError(f"regularization level must lie in (0, 1), got {eps}")
        if self._provable_lower_bound() >= eps:
            return self
        return FlooredCapacity(self, eps)

    def _provable_lower_bound(self):
        return 0.0


@dataclass
class ConstantCapacity(HeatCapacity):
    """kappa == k0."""

    variant = "constant"
    k0: float

    def __post_init__(self):
        super().__init__()
        if self.k0 <= 0:
            raise ConfigError("constant heat capacity needs k0 > 0")

    def kappa_values(self, xi):
        return np.full_like(np.asarray(xi, dtype=float), self.k0)

    def _K_closed(self, xi):
        return self.k0 * xi

    def _ell_closed(self, xi):
        return self.k0 * np.log(xi)

    def _ell_hat_closed(self, xi, m_shift):
        return self.k0 * (np.log(xi + m_shift) ** 3 - math.log(m_shift) ** 3) / 3.0

    def _provable_lower_bound(self):
        return self.k0

    def classify(self):
        return HypothesisFlags(self.variant, True, True)


@dataclass
class PowerGrowthCapacity(HeatCapacity):
    """kappa(x) = k0 (1 + x)^omega with omega >= 0."""

    variant = "power_growth"
    k0: float
    omega: float

    def __post_init__(self):
        super().__init__()
        if self.k0 <= 0 or self.omega < 0:
            raise ConfigError("power-growth law needs k0 > 0 and omega >= 0")

    def kappa_values(self, xi):
        return self.k0 * (1.0 + np.asarray(xi, dtype=float)) ** self.omega

    def _K_closed(self, xi):
        return self.k0 * ((1.0 + xi) ** (self.omega + 1.0) - 1.0) / (self.omega + 1.0)

    def _ell_closed(self, xi):
        if self.omega == 0.0:
            return self.k0 * np.log(xi)
        if self.omega == 1.0:
            return self.k0 * (np.log(xi) + xi - 1.0)
        return None

    def _provable_lower_bound(self):
        return self.k0

    def classify(self):
        return HypothesisFlags(self.variant, True, True)


@dataclass
class DebyeLikeCapacity(HeatCapacity):
    """kappa(x) = k0 x^3 / (x^3 + xi_d^3): cubic degeneracy at low temperature."""

    variant = "debye"
    k0: float
    xi_d: float

    def __post_init__(self):
        super().__init__()
        if self.k0 <= 0 or self.xi_d <= 0:
            raise ConfigError("Debye-like law needs k0 > 0 and xi_d > 0")

    def kappa_values(self, xi):
        x = np.asarray(xi, dtype=float)
        x3 = x ** 3
        return self.k0 * x3 / (x3 + self.xi_d ** 3)

    def _K_closed(self, xi):
        # K = k0 a R(x/a), a = xi_d, R(y) = int_0^y t^3/(1+t^3) dt = y - J(y)
        # with J(y) = int_0^y dt/(1+t^3) in elementary functions
        y = np.ravel(xi) / self.xi_d
        root3 = math.sqrt(3.0)
        # ln((y+1)^2 / (y^2-y+1)) = ln(1 + 3y / (y^2-y+1))
        r = y - (np.log1p(3.0 * y / (y * y - y + 1.0)) / 6.0
                 + (np.arctan((2.0 * y - 1.0) / root3) + math.pi / 6.0) / root3)
        small = y < 0.25
        if small.any():
            # there y - J cancels: the series sum_n (-1)^n y^(3n+4)/(3n+4),
            # 9 terms by Horner in z = y^3 (the first one dropped is below
            # 1e-17 of the sum)
            ys = y[small]
            z = ys ** 3
            series = 1.0 / 28.0
            for n in range(7, -1, -1):
                series = (-1.0) ** n / (3 * n + 4) + z * series
            r[small] = z * ys * series
        return (self.k0 * self.xi_d * r).reshape(np.shape(xi))

    def _ell_closed(self, xi):
        a3 = self.xi_d ** 3
        return (self.k0 / 3.0) * np.log((xi ** 3 + a3) / (1.0 + a3))

    def classify(self):
        return HypothesisFlags(self.variant, True, True)


@dataclass
class SlowDecayCapacity(HeatCapacity):
    """kappa(x) = k0 / ln^alpha(e + x), alpha in (0, 1): decays, but slower than 1/ln."""

    variant = "slow_decay"
    k0: float
    alpha: float

    def __post_init__(self):
        super().__init__()
        if self.k0 <= 0 or not 0.0 < self.alpha < 1.0:
            raise ConfigError("slow-decay law needs k0 > 0 and alpha in (0, 1)")

    def kappa_values(self, xi):
        x = np.asarray(xi, dtype=float)
        return self.k0 / np.log(math.e + x) ** self.alpha

    def classify(self):
        # kappa -> 0 at infinity, but kappa * ln x ~ k0 ln^(1-alpha) x -> inf
        return HypothesisFlags(self.variant, False, True)


@dataclass
class TabulatedCapacity(HeatCapacity):
    """Piecewise-linear kappa through sample points, clamped beyond the table."""

    variant = "tabulated"
    xi_pts: np.ndarray
    kappa_pts: np.ndarray

    def __post_init__(self):
        super().__init__()
        xi = np.asarray(self.xi_pts, dtype=float)
        ka = np.asarray(self.kappa_pts, dtype=float)
        if xi.ndim != 1 or xi.size < 2 or xi.shape != ka.shape:
            raise ConfigError("tabulated law needs matching 1-d sample arrays")
        if np.any(np.diff(xi) <= 0) or xi[0] < 0:
            raise ConfigError("tabulated temperatures must be nonnegative and increasing")
        if np.any(ka < 0) or np.any(ka[xi > 0] <= 0):
            raise ConfigError("tabulated kappa must be positive away from zero")
        self.xi_pts = xi
        self.kappa_pts = ka
        self.kinks = tuple(float(p) for p in xi if p > 0)

    def kappa_values(self, xi):
        return np.interp(np.asarray(xi, dtype=float), self.xi_pts, self.kappa_pts)

    def _provable_lower_bound(self):
        return float(self.kappa_pts.min())

    def classify(self):
        # no analytic tail: sample the clamped extension
        tail = float(self.kappa_pts[-1])
        return HypothesisFlags(self.variant, tail > 0.0, tail > 0.0, heuristic=True)


class FlooredCapacity(HeatCapacity):
    """max(kappa, eps) regularization of a base law."""

    def __init__(self, base, eps):
        super().__init__()
        self.base = base
        self.eps = float(eps)
        self.kinks = tuple(sorted(set(base.kinks) | set(self._crossings())))

    def _crossings(self):
        """Points where the base law crosses the floor level."""
        grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 161)])
        vals = self.base.kappa_values(grid) - self.eps
        out = []
        for lo, hi, flo, fhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if flo == 0.0:
                out.append(lo)
            if flo * fhi < 0:
                a, b = lo, hi
                for _ in range(100):
                    mid = 0.5 * (a + b)
                    fm = float(self.base.kappa_values(np.array(mid))) - self.eps
                    if flo * fm <= 0:
                        b = mid
                    else:
                        a, flo = mid, fm
                out.append(0.5 * (a + b))
        return out

    def kappa_values(self, xi):
        return np.maximum(self.base.kappa_values(xi), self.eps)

    def _K_closed(self, xi):
        return self._joined(xi, "K", self.base._K_closed, lambda x: self.eps * x)

    def _ell_closed(self, xi):
        return self._joined(xi, "ell", self.base._ell_closed,
                            lambda x: self.eps * np.log(x))

    def _joined(self, xi, name, base_prim, floor_prim):
        """The primitive `name` (K, anchored at 0, or ell, at 1) from the
        base law's closed form base_prim, or None when it has none.

        The kinks cut [0, inf) into pieces on which kappa is either the base
        law or the floor: the laws with closed forms are monotone, so each
        crosses the floor once at most, and _crossings finds that point.  On
        piece i the primitive is off[i] plus base_prim, or plus floor_prim
        (eps x or eps ln x); both vanish at the anchor, and the offsets chain
        the pieces continuously outward from the one holding it.
        """
        def build():
            if base_prim(np.ones(1)) is None:
                return None
            cuts = np.array(self.kinks)
            ends = np.concatenate([[0.0], cuts, [2.0 * cuts[-1] + 1.0 if cuts.size else 2.0]])
            above = self.base.kappa_values(0.5 * (ends[:-1] + ends[1:])) >= self.eps

            def prim(i, s):
                return float(base_prim(np.array([s]))[0] if above[i] else floor_prim(s))
            j = int(np.searchsorted(cuts, 0.0 if name == "K" else 1.0, side="right"))
            off = np.zeros(above.size)
            for i in range(j + 1, above.size):
                off[i] = off[i - 1] + prim(i - 1, cuts[i - 1]) - prim(i, cuts[i - 1])
            for i in range(j - 1, -1, -1):
                off[i] = off[i + 1] + prim(i + 1, cuts[i]) - prim(i, cuts[i])
            return cuts, above, off

        table = self._cache((name, "joined"), build)
        if table is None:
            return None
        cuts, above, off = table
        x = np.ravel(xi)
        idx = np.searchsorted(cuts, x, side="right")
        out = off[idx] + np.where(above[idx], base_prim(x), floor_prim(x))
        return out.reshape(np.shape(xi))

    def _provable_lower_bound(self):
        return self.eps

    def classify(self):
        flags = self.base.classify()
        return HypothesisFlags(f"floored({flags.variant})", True, True,
                               heuristic=flags.heuristic)


#: the laws a config's material.kappa.variant names
_LAWS = {law.variant: law for law in (ConstantCapacity, PowerGrowthCapacity,
                                      DebyeLikeCapacity, SlowDecayCapacity,
                                      TabulatedCapacity)}


def model_from_config(cfg):
    """Build a heat-capacity law from its config mapping (material.kappa)."""
    variant, rest = _typed(cfg, "material.kappa", "variant", _LAWS)
    return _build(_LAWS[variant], rest, "material.kappa")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the initial-temperature admissibility check."""

    not_identically_zero: bool
    has_negative_cells: bool
    K_integral: float
    ell_integral_abs: float
    ell_finite: bool
    cells_below_floor: int
    floor: float

    @property
    def passed(self):
        return (self.not_identically_zero and not self.has_negative_cells
                and math.isfinite(self.K_integral) and self.ell_finite)

    def reasons(self):
        out = []
        if self.has_negative_cells:
            out.append("initial temperature has negative cells")
        if not self.not_identically_zero:
            out.append("initial temperature vanishes identically")
        if not math.isfinite(self.K_integral):
            out.append("K(theta0) is not integrable")
        if not self.ell_finite:
            out.append("ell(theta0) is not integrable (zero cells with a "
                       "divergent entropy primitive)")
        return out


def admissibility_check(model, theta0, weights, theta_floor=0.0):
    """Check that an initial temperature field is admissible for a law.

    Requires theta0 >= 0 with theta0 not identically zero, a finite weighted
    sum of |K(theta0)| and a finite weighted sum of |ell(theta0)|; the latter
    fails exactly when some cell is zero and kappa(s)/s is not integrable at
    the origin.  Cells below theta_floor are counted but only reported.
    """
    theta0 = np.asarray(theta0, dtype=float)
    weights = np.asarray(weights, dtype=float)
    neg = bool(np.any(theta0 < 0))
    work = np.maximum(theta0, 0.0)
    k_int = float(np.sum(np.abs(model.K(work)) * weights))
    has_zero = bool(np.any(work == 0.0))
    if has_zero and model.divergent_at_zero:
        ell_int, ell_finite = math.inf, False
    else:
        ell_vals = model.ell(work)
        ell_int = float(np.sum(np.abs(ell_vals) * weights))
        ell_finite = math.isfinite(ell_int)
    return AdmissibilityReport(
        not_identically_zero=bool(np.any(work > 0)),
        has_negative_cells=neg,
        K_integral=k_int,
        ell_integral_abs=ell_int,
        ell_finite=ell_finite,
        cells_below_floor=int(np.sum(work < theta_floor)) if theta_floor > 0 else 0,
        floor=theta_floor,
    )
