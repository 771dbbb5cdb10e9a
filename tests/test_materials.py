import math

import numpy as np
import pytest

from tvsim import materials as mat
from tvsim.errors import ConfigError

E = math.e


def Lambda(model, xi):
    """Oracle: the mixed primitive int_1^xi kappa(s) max(1, 1/s) ds, from
    ell below 1 and K above."""
    arr = np.asarray(xi, dtype=float)
    out = model.ell(np.minimum(arr, 1.0)) + np.where(
        arr > 1.0, model.K(np.maximum(arr, 1.0)) - model.K(1.0), 0.0)
    return float(out) if out.ndim == 0 else out


def adaptive_simpson(fn, a, b, rel_tol=1e-10, kinks=(), max_depth=48):
    """Adaptive Simpson quadrature of a scalar callable, split at kinks."""
    pieces = [a] + [k for k in sorted(kinks) if a < k < b] + [b]

    def simpson(x0, x2, f0, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = fn(x1)
        return x1, f1, (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def recurse(x0, x2, f0, f2, whole, x1, f1, depth, scale):
        xl, fl, left = simpson(x0, x1, f0, f1)
        xr, fr, right = simpson(x1, x2, f1, f2)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * rel_tol * scale:
            return left + right + (left + right - whole) / 15.0
        half_scale = max(scale * 0.5, 1e-300)
        return (recurse(x0, x1, f0, f1, left, xl, fl, depth + 1, half_scale)
                + recurse(x1, x2, f1, f2, right, xr, fr, depth + 1, half_scale))

    total = 0.0
    for x0, x2 in zip(pieces[:-1], pieces[1:]):
        if x2 <= x0:
            continue
        f0, f2 = fn(x0), fn(x2)
        x1, f1, whole = simpson(x0, x2, f0, f2)
        scale = max(abs(whole), (x2 - x0) * max(abs(f0), abs(f1), abs(f2)), 1e-300)
        total += recurse(x0, x2, f0, f2, whole, x1, f1, 0, scale)
    return total


def K_weighted(model, xi, weight, rel_tol=1e-10):
    """Oracle: the renormalized energy int_0^xi kappa(s) w(s) ds by adaptive
    Simpson, for a scalar weight w."""
    if xi == 0:
        return 0.0
    fn = lambda s: float(model.kappa_values(np.array(s))) * weight(s)
    return adaptive_simpson(fn, 0.0, float(xi), rel_tol=rel_tol,
                            kinks=model.kinks)


def tabulated_clone_of_constant(k0=1.0):
    """kappa == k0 through the tabulated variant: forces the quadrature path."""
    return mat.TabulatedCapacity(np.array([0.0, 1e7]), np.array([k0, k0]))


class TestClosedForms:
    def test_constant_primitives(self):
        c = mat.ConstantCapacity(1.0)
        assert c.K(5.0) == pytest.approx(5.0)
        assert c.ell(E) == pytest.approx(1.0)
        assert Lambda(c, 1.0 / E) == pytest.approx(-1.0)
        assert Lambda(c, 1.0) == pytest.approx(0.0)
        assert Lambda(c, 3.0) == pytest.approx(2.0)

    def test_constant_log_entropy_closed(self):
        c = mat.ConstantCapacity(1.0)
        m = mat.M_MIN
        assert c.ell_hat(0.0) == 0.0
        expected = (math.log(1.0 + m) ** 3 - math.log(m) ** 3) / 3.0
        assert c.ell_hat(1.0) == pytest.approx(expected, rel=1e-12)

    def test_power_growth_primitives(self):
        p = mat.PowerGrowthCapacity(1.0, 1.0)
        assert p.K(2.0) == pytest.approx((3.0 ** 2 - 1.0) / 2.0)
        assert p.ell(2.0) == pytest.approx(math.log(2.0) + 1.0)


class TestQuadratureAgainstClosedForms:
    def test_log_entropy_quadrature(self):
        c = mat.ConstantCapacity(1.0)
        t = tabulated_clone_of_constant()
        for xi in (1.0, 10.0, 100.0):
            assert t.ell_hat(xi) == pytest.approx(c.ell_hat(xi), rel=1e-9)

    def test_energy_and_entropy_quadrature(self):
        c = mat.ConstantCapacity(1.0)
        t = tabulated_clone_of_constant()
        for xi in np.geomspace(1e-3, 1e5, 17):
            assert t.K(xi) == pytest.approx(c.K(xi), rel=1e-10)
            assert t.ell(xi) == pytest.approx(c.ell(xi), rel=1e-10, abs=1e-12)

    def test_linear_kappa_entropy_at_zero(self):
        # kappa(s) = s makes ell(0) = -int_0^1 ds = -1 finite
        lin = mat.TabulatedCapacity(np.array([0.0, 1e7]), np.array([0.0, 1e7]))
        assert lin.ell(0.0) == pytest.approx(-1.0, abs=1e-9)
        assert lin.ell(2.0) == pytest.approx(1.0, rel=1e-9)


class TestKappaVariants:
    def test_constant_value(self):
        assert mat.ConstantCapacity(1.0).kappa(7.0) == 1.0

    def test_debye_degenerates_at_origin(self):
        d = mat.DebyeLikeCapacity(1.0, 1.0)
        assert d.kappa(0.0) == 0.0
        assert d.kappa(10.0) == pytest.approx(1000.0 / 1001.0)

    def test_slow_decay_log_weighted_divergence(self):
        s = mat.SlowDecayCapacity(1.0, 0.5)
        vals = [s.kappa(10.0 ** k) * math.log(10.0 ** k) for k in range(1, 13)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 5.0
        assert s.kappa(1e12) < 0.2

    def test_rejects_negative_temperature(self):
        with pytest.raises(ConfigError):
            mat.ConstantCapacity(1.0).kappa(-0.1)

    def test_variant_validation(self):
        with pytest.raises(ConfigError):
            mat.ConstantCapacity(0.0)
        with pytest.raises(ConfigError):
            mat.SlowDecayCapacity(1.0, 1.5)
        with pytest.raises(ConfigError):
            mat.PowerGrowthCapacity(1.0, -0.5)
        with pytest.raises(ConfigError):
            mat.TabulatedCapacity(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


ALL_MODELS = [
    mat.ConstantCapacity(1.0),
    mat.PowerGrowthCapacity(1.0, 1.0),
    mat.PowerGrowthCapacity(2.0, 0.3),
    mat.DebyeLikeCapacity(1.0, 1.0),
    mat.SlowDecayCapacity(1.0, 0.5),
]


class TestMonotonicityAndInversion:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.classify().variant)
    def test_primitives_strictly_increasing(self, model):
        xs = np.geomspace(1e-3, 1e4, 60)
        for fn in (model.K, model.ell, lambda x: Lambda(model, x),
                   lambda x: model.ell_hat(x, mat.M_MIN)):
            vals = fn(xs)
            assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("model", [m for m in ALL_MODELS
                                       if m.classify().variant != "debye"],
                             ids=lambda m: m.classify().variant)
    def test_inverse_round_trip(self, model):
        for xi in np.geomspace(1e-3, 1e6, 28):
            back = model.ell_inverse(float(model.ell(xi)))
            assert back == pytest.approx(xi, rel=1e-9)

    def test_inverse_round_trip_degenerate_law(self):
        # below the Debye knee the entropy primitive is nearly flat
        # (slope kappa(x)/x ~ x^2), so float64 can only invert it up to the
        # conditioning floor eps * |ell| / (x * slope); tolerate exactly that
        d = mat.DebyeLikeCapacity(1.0, 1.0)
        for xi in np.geomspace(1e-3, 1e6, 28):
            back = d.ell_inverse(float(d.ell(xi)))
            slope = d.kappa(xi) / xi
            floor = 64.0 * np.finfo(float).eps * max(1.0, abs(d.ell(xi))) / (xi * slope)
            assert abs(back - xi) <= max(1e-9, floor) * xi

    def test_inverse_examples(self):
        c = mat.ConstantCapacity(1.0)
        assert c.ell_inverse(0.0) == pytest.approx(1.0, abs=1e-11)
        assert c.ell_inverse(1.0) == pytest.approx(E, rel=1e-11)
        p = mat.PowerGrowthCapacity(1.0, 1.0)
        assert p.ell_inverse(float(p.ell(3.7))) == pytest.approx(3.7, abs=1e-10)

    def test_inverse_rejects_below_infimum(self):
        d = mat.DebyeLikeCapacity(1.0, 1.0)
        with pytest.raises(ConfigError):
            d.ell_inverse(d.ell_at_zero() - 0.5)

    def test_energy_inverse(self):
        d = mat.DebyeLikeCapacity(1.0, 1.0)
        assert d.K_inverse(float(d.K(2.5))) == pytest.approx(2.5, rel=1e-10)
        assert d.K_inverse(0.0) == 0.0


class TestCutoffEntropy:
    @pytest.mark.parametrize("m_cut", [2.0, 10.0, 100.0])
    @pytest.mark.parametrize("model", ALL_MODELS[:4],
                             ids=lambda m: m.classify().variant)
    def test_sandwich(self, model, m_cut):
        for xi in np.geomspace(1e-2, 1e4, 100):
            ell = float(model.ell(xi))
            cut = model.ell_cut(float(xi), m_cut)
            low = ell - float(model.K(xi)) / m_cut
            assert low - 1e-10 * (1 + abs(ell)) <= cut <= ell + 1e-10 * (1 + abs(ell))

    def test_identity_below_cutoff(self):
        c = mat.ConstantCapacity(1.0)
        assert c.ell_cut(1.5, 10.0) == pytest.approx(c.ell(1.5), rel=1e-12)

    def test_rejects_small_cutoff(self):
        with pytest.raises(ConfigError):
            mat.ConstantCapacity(1.0).ell_cut(2.0, 1.0)


class TestElementaryInequalities:
    def test_log_sqrt_bound(self):
        # ln(s) <= (2/e) sqrt(s) for s >= 1
        for s in np.geomspace(1.0, 1e12, 400):
            assert math.log(s) <= (2.0 / E) * math.sqrt(s) + 1e-14

    def test_interpolation_split(self):
        # x ln x <= x^2 ln^2(y) / y + y for x >= e, y >= e^2
        for x in np.geomspace(E, 1e8, 60):
            for y in np.geomspace(E ** 2, 1e8, 60):
                assert x * math.log(x) <= x * x * math.log(y) ** 2 / y + y + 1e-9

    @pytest.mark.parametrize("model", ALL_MODELS[:3],
                             ids=lambda m: m.classify().variant)
    def test_log_entropy_dominated_by_energy(self, model):
        # ell_hat <= (4/e^2) K follows from the log bound above
        for xi in np.geomspace(1e-2, 1e6, 40):
            assert model.ell_hat(xi, mat.M_MIN) <= (4.0 / E ** 2) * model.K(xi) * (1 + 1e-12)


class TestRegularization:
    def test_constant_unchanged(self):
        c = mat.ConstantCapacity(1.0)
        assert c.floor(0.1) is c

    def test_debye_floor_values(self):
        f = mat.DebyeLikeCapacity(1.0, 1.0).floor(0.1)
        assert f.kappa(0.0) == pytest.approx(0.1)
        assert f.kappa(10.0) == pytest.approx(1000.0 / 1001.0)

    def test_floor_properties(self):
        base = mat.DebyeLikeCapacity(1.0, 1.0)
        xs = np.geomspace(1e-6, 1e4, 200)
        for eps in (0.3, 0.05, 1e-3):
            f = base.floor(eps)
            kf, kb = f.kappa(xs), base.kappa(xs)
            assert np.all(kf >= eps)
            assert np.max(np.abs(kf - kb)) <= eps
        # pointwise convergence as eps -> 0
        gaps = [np.max(np.abs(base.floor(eps).kappa(xs) - base.kappa(xs)))
                for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_rejects_bad_eps(self):
        c = mat.DebyeLikeCapacity(1.0, 1.0)
        for eps in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ConfigError):
                c.floor(eps)

    def test_floored_entropy_diverges_at_zero(self):
        f = mat.DebyeLikeCapacity(1.0, 1.0).floor(1e-3)
        assert f.ell(0.0) == -math.inf

    def test_rejects_small_m_shift(self):
        with pytest.raises(ConfigError):
            mat.ConstantCapacity(1.0).ell_hat(1.0, math.exp(4) - 1.0)


class TestChordMean:
    def test_matches_energy_difference(self):
        d = mat.DebyeLikeCapacity(1.0, 1.0)
        a = np.array([0.5, 1.0, 2.0])
        b = np.array([0.8, 1.5, 1.9])
        chord = d.kappa_chord(a, b)
        expected = (d.K(b) - d.K(a)) / (b - a)
        assert np.allclose(chord, expected, rtol=1e-12)

    def test_given_K_of_a_is_bitwise_the_same(self):
        d = mat.DebyeLikeCapacity(1.0, 1.0)
        a = np.array([0.5, 1.0, 2.0, 1.0])
        b = np.array([0.8, 1.5, 1.9, 1.0 + 1e-12])
        assert np.array_equal(d.kappa_chord(a, b, d.K(a)), d.kappa_chord(a, b))

    def test_tiny_interval_falls_back_to_midpoint(self):
        d = mat.DebyeLikeCapacity(1.0, 1.0)
        val = d.kappa_chord(np.array([1.0]), np.array([1.0 + 1e-12]))
        assert val[0] == pytest.approx(d.kappa(1.0), rel=1e-9)


class TestChordFallback:
    def test_midpoint_only_at_tiny_intervals(self, monkeypatch):
        d = mat.DebyeLikeCapacity(1.0, 1.0).floor(1e-3)
        a = np.array([0.5, 1.0, 2.0, 1.0, 0.0, 3.0])
        b = np.array([0.8, 1.0 + 1e-12, 1.9, 1.0, 1e-9, 3.0 - 1e-10])
        delta = b - a
        tiny = np.abs(delta) <= 1e-7 * (1.0 + np.abs(a) + np.abs(b))
        expected = np.where(tiny, d.kappa_values(np.maximum(0.5 * (a + b), 0.0)),
                            (d.K(b) - d.K(a)) / np.where(tiny, 1.0, delta))
        seen = []
        kappa_values = d.kappa_values
        monkeypatch.setattr(d, "kappa_values",
                            lambda xi: seen.append(np.size(xi)) or kappa_values(xi))
        got = d.kappa_chord(a, b)
        assert np.array_equal(got, expected)
        assert seen == [int(tiny.sum())]
        seen.clear()
        d.kappa_chord(a[~tiny], b[~tiny])
        assert seen == []


def _ladder_K(model, xs):
    return model._K_quad().value(np.log1p(xs))


def _ladder_ell(model, xs):
    return model._ell_quad().value(np.log(xs))


class TestClosedFormsAgainstLadder:
    """Closed-form K and ell against the quadrature ladder they replace."""

    LAWS = {"debye(1,1)": lambda: mat.DebyeLikeCapacity(1.0, 1.0),
            "debye(2,0.5)": lambda: mat.DebyeLikeCapacity(2.0, 0.5),
            "debye floored 1e-3": lambda: mat.DebyeLikeCapacity(1.0, 1.0).floor(1e-3),
            "debye floored 0.1": lambda: mat.DebyeLikeCapacity(1.0, 1.0).floor(0.1),
            # kappa(0) = k0 < eps: the floor holds below the crossing at 3
            "power floored": lambda: mat.PowerGrowthCapacity(0.05, 1.0).floor(0.2)}

    @staticmethod
    def switch_points(model):
        """y = 1/4 of the Debye series and every floor crossing."""
        debye = getattr(model, "base", model)
        pts = list(model.kinks)
        if isinstance(debye, mat.DebyeLikeCapacity):
            pts.append(0.25 * debye.xi_d)
        return pts

    @pytest.mark.parametrize("name", LAWS)
    def test_match_the_ladder(self, name):
        model = self.LAWS[name]()
        switch = self.switch_points(model)
        xs = np.sort(np.concatenate([np.geomspace(1e-6, 1e4, 401), switch]))
        k_closed, ell_closed = model._K_closed(xs), model._ell_closed(xs)
        assert k_closed is not None and ell_closed is not None
        k_ref, ell_ref = _ladder_K(model, xs), _ladder_ell(model, xs)
        assert np.all(np.abs(k_closed - k_ref) <= 1e-12 * k_ref)
        assert np.all(np.abs(ell_closed - ell_ref) <= 1e-12 * (1.0 + np.abs(ell_ref)))
        # the public primitives take the closed forms
        assert np.array_equal(model.K(xs), k_closed)
        assert np.array_equal(model.ell(xs), ell_closed)
        assert np.all(np.diff(k_closed) > 0)
        assert np.all(np.diff(ell_closed) >= 0)

    @pytest.mark.parametrize("name", LAWS)
    def test_strictly_increasing_across_switch_points(self, name):
        model = self.LAWS[name]()
        floored = isinstance(model, mat.FlooredCapacity)
        for c in self.switch_points(model):
            xs = c * (1.0 + 1e-11 * np.arange(-3, 4))
            assert np.all(np.diff(model.K(xs)) > 0), c
            if floored:
                assert np.all(np.diff(model.ell(xs)) > 0), c

    def test_debye_entropy_limit_at_zero(self):
        d = mat.DebyeLikeCapacity(2.0, 0.5)
        a3 = 0.5 ** 3
        assert d.ell(0.0) == pytest.approx(2.0 / 3.0 * math.log(a3 / (1.0 + a3)),
                                           rel=1e-15)
        assert d.ell(0.0) == pytest.approx(d._ell_quad().lower_limit(), rel=1e-12)

    def test_floored_law_without_closed_entropy_keeps_the_ladder(self):
        p = mat.PowerGrowthCapacity(0.05, 0.5).floor(0.2)
        xs = np.geomspace(1e-3, 1e3, 50)
        assert p._ell_closed(xs) is None
        assert "ell" not in p._caches
        p.ell(xs)
        assert "ell" in p._caches
        k_ref = _ladder_K(p, xs)
        assert np.all(np.abs(p._K_closed(xs) - k_ref) <= 1e-12 * k_ref)


class TestShapes:
    """Floats, 0-d arrays and arrays of any shape give the same values."""

    LAWS = [mat.DebyeLikeCapacity(1.0, 1.0), mat.DebyeLikeCapacity(1.0, 1.0).floor(1e-3),
            mat.PowerGrowthCapacity(0.05, 1.0).floor(0.2), mat.SlowDecayCapacity(1.0, 0.5)]

    @pytest.mark.parametrize("model", LAWS, ids=lambda m: m.classify().variant)
    def test_primitives_and_chord(self, model):
        a = np.array([[0.05, 0.1, 0.24, 0.26], [1.0, 2.5, 1.0, 40.0]])
        b = np.array([[0.07, 0.1, 0.25, 0.26 + 1e-12], [0.9, 2.5, 1.3, 41.0]])
        for name in ("K", "ell"):
            fn = getattr(model, name)
            grid = fn(a)
            assert grid.shape == a.shape
            assert np.array_equal(fn(a.ravel()), grid.ravel())
            for i, x in enumerate(a.ravel()):
                assert fn(float(x)) == grid.flat[i]
                assert fn(np.array(x)) == grid.flat[i]
        chord = model.kappa_chord(a, b)
        assert chord.shape == a.shape
        assert np.array_equal(model.kappa_chord(a.ravel(), b.ravel()), chord.ravel())
        for i, (x, y) in enumerate(zip(a.ravel(), b.ravel())):
            assert model.kappa_chord(float(x), float(y)) == chord.flat[i]
            assert model.kappa_chord(np.array(x), np.array(y)) == chord.flat[i]

    @pytest.mark.parametrize("model", LAWS, ids=lambda m: m.classify().variant)
    def test_inverses(self, model):
        assert model.K_inverse(float(model.K(2.5))) == pytest.approx(2.5, rel=1e-10)
        assert model.ell_inverse(float(model.ell(2.5))) == pytest.approx(2.5, rel=1e-9)


class TestQuadratureTable:
    """The cached quadrature tables do not depend on the call history."""

    LAWS = [lambda: mat.DebyeLikeCapacity(1.0, 1.0),
            lambda: mat.SlowDecayCapacity(1.0, 0.5),
            lambda: mat.TabulatedCapacity(np.array([0.0, 0.7, 1.3, 40.0]),
                                          np.array([0.2, 1.0, 0.6, 3.0])),
            lambda: mat.DebyeLikeCapacity(1.0, 1.0).floor(1e-3)]
    # requests made before the compared one: none, two points, the same
    # points in reverse, far out above and below, and one large batch
    HISTORIES = [[], [[0.9], [1.7]], [[3.0, 2.5, 0.1]], [[60.0], [1e-4]],
                 [np.linspace(0.01, 80.0, 500)]]

    @pytest.mark.parametrize("law", range(len(LAWS)))
    @pytest.mark.parametrize("name", ["K", "ell", "ell_hat"])
    def test_values_bitwise_independent_of_request_order(self, law, name):
        xs = np.concatenate([np.linspace(0.05, 3.0, 50), [1e-3, 7.5, 55.0]])
        values = []
        for history in self.HISTORIES:
            model = self.LAWS[law]()
            for before in history:
                getattr(model, name)(np.asarray(before))
            values.append(getattr(model, name)(xs))
            # and one at a time, after the batch
            values.append(np.array([getattr(model, name)(x) for x in xs]))
        for got in values[1:]:
            assert np.array_equal(got, values[0])


class TestClassification:
    def test_examples(self):
        c = mat.ConstantCapacity(1.0).classify()
        assert c.bounded_below_at_infinity and c.log_weighted_divergent
        s = mat.SlowDecayCapacity(1.0, 0.5).classify()
        assert not s.bounded_below_at_infinity and s.log_weighted_divergent
        p = mat.PowerGrowthCapacity(1.0, 0.3).classify()
        assert p.bounded_below_at_infinity
        d = mat.DebyeLikeCapacity(1.0, 1.0).classify()
        assert d.bounded_below_at_infinity and not d.heuristic

    def test_tabulated_is_heuristic(self):
        t = tabulated_clone_of_constant().classify()
        assert t.heuristic and t.bounded_below_at_infinity

    def test_floored_always_bounded_below(self):
        f = mat.SlowDecayCapacity(1.0, 0.5).floor(0.01).classify()
        assert f.bounded_below_at_infinity


class TestWeightedEnergy:
    def test_against_antiderivative(self):
        c = mat.ConstantCapacity(2.0)
        # with kappa = 2 and w = cos: int_0^x 2 cos = 2 sin(x)
        val = K_weighted(c, 1.3, math.cos)
        assert val == pytest.approx(2.0 * math.sin(1.3), rel=1e-9)

    def test_zero_at_origin(self):
        assert K_weighted(mat.DebyeLikeCapacity(1.0, 1.0), 0.0, math.cos) == 0.0


class TestAdmissibility:
    def field(self, fill, zero_one=False):
        theta = np.full((6, 6), fill)
        if zero_one:
            theta[2, 3] = 0.0
        return theta

    def weights(self):
        return np.full((6, 6), 1.0 / 36.0)

    def test_divergent_law_rejects_zero_cell(self):
        rep = mat.admissibility_check(mat.ConstantCapacity(1.0),
                                      self.field(1.0, zero_one=True), self.weights())
        assert not rep.passed and not rep.ell_finite

    def test_integrable_law_accepts_zeros(self):
        lin = mat.TabulatedCapacity(np.array([0.0, 1e7]), np.array([0.0, 1e7]))
        rep = mat.admissibility_check(lin, self.field(2.0, zero_one=True),
                                      self.weights())
        assert rep.passed

    def test_identically_zero_rejected(self):
        rep = mat.admissibility_check(mat.ConstantCapacity(1.0),
                                      np.zeros((6, 6)), self.weights())
        assert not rep.passed and not rep.not_identically_zero

    def test_negative_cells_rejected(self):
        theta = self.field(1.0)
        theta[0, 0] = -0.5
        rep = mat.admissibility_check(mat.ConstantCapacity(1.0), theta, self.weights())
        assert not rep.passed and rep.has_negative_cells

    def test_floor_flagging(self):
        theta = self.field(1.0)
        theta[1, 1] = 1e-4
        rep = mat.admissibility_check(mat.ConstantCapacity(1.0), theta,
                                      self.weights(), theta_floor=1e-3)
        assert rep.passed and rep.cells_below_floor == 1
