import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varinterp import models
from varinterp.models import (
    AHO_B0,
    FEYNMAN_MASS_STRONG,
    MODEL_NAMES,
    FeynmanParams,
    aho_omega1,
    builtin,
    feynman_energy,
    feynman_mass,
)
from varinterp.models import (
    _energy_derivs,
    _energy_integrand,
    _fixed_gauss,
    _mass_integrand,
    _split_quad,
    _trial_energy,
)


class TestModelSpecs:
    def test_names(self):
        assert MODEL_NAMES == ("aho", "polaron_energy", "polaron_mass")
        with pytest.raises(ValueError):
            builtin("nope")

    def test_aho_coupling_map(self):
        spec = builtin("aho")
        assert spec.to_alpha(4.0) == 1.0
        assert spec.coupling_name == "g"
        assert spec.weak.coeffs == (Fraction(1, 2),)
        assert spec.known_strong == (AHO_B0,)

    def test_energy_prefactor(self):
        spec = builtin("polaron_energy")
        assert spec.apply_prefactor(2.0, 3.0) == -6.0
        assert float(spec.law.p) == 1.0 and float(spec.law.q) == 1.0

    def test_mass_spec(self):
        spec = builtin("polaron_mass")
        assert spec.law.strong_power(0) == 4
        assert spec.apply_prefactor(2.0, 3.0) == 3.0


class TestAhoOmega1:
    def test_zero_coupling(self):
        assert aho_omega1(0.0, 0.75) == 1.0

    def test_solves_cubic(self):
        # Omega^3 - Omega = 2 a1 g at the stationary trial frequency
        for g in (0.01, 0.3, 2.0, 500.0):
            for a1 in (0.707, 0.75):
                Om = aho_omega1(g, a1)
                assert Om**3 - Om == pytest.approx(2.0 * a1 * g,
                                                   abs=1e-10 * max(1.0, Om**3))

    def test_branch_continuity(self):
        # trig and hyperbolic branches meet at the matching coupling
        a1 = 0.75
        g_star = 1.0 / (3.0 * math.sqrt(3.0) * a1)
        eps = 1e-9
        assert aho_omega1(g_star - eps, a1) == pytest.approx(
            aho_omega1(g_star + eps, a1), rel=1e-7)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            aho_omega1(-1.0, 0.75)


class TestFeynman:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            FeynmanParams(v=1.0, w=2.0)
        with pytest.raises(ValueError):
            FeynmanParams(v=1.0, w=0.0)

    def test_zero_coupling(self):
        assert feynman_energy(0.0)[0] == 0.0
        assert feynman_mass(0.0) == 1.0

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            feynman_energy(-0.1)
        with pytest.raises(ValueError):
            feynman_mass(-0.1)

    def test_weak_coupling_energy_slope(self):
        # E ~ -alpha as alpha -> 0
        a = 1e-3
        assert feynman_energy(a)[0] / a == pytest.approx(-1.0, abs=1e-4)

    def test_weak_coupling_mass_slope(self):
        a = 1e-3
        assert (feynman_mass(a) - 1.0) / a == pytest.approx(1.0 / 6.0, abs=1e-4)

    def test_published_benchmark_values(self):
        # E(3) = -3.1333 and E(9) = -11.486 for this variational functional
        assert feynman_energy(3.0)[0] == pytest.approx(-3.1333, abs=2e-4)
        assert feynman_energy(9.0)[0] == pytest.approx(-11.486, abs=2e-3)

    def test_energy_monotone_in_coupling(self):
        vals = [feynman_energy(a)[0] for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_strong_coupling_parameters_diverge(self):
        _, prm = feynman_energy(50.0)
        assert prm.v > 100.0
        assert 0.9 < prm.w < 10.0

    def test_mass_strong_asymptote_constant(self):
        assert FEYNMAN_MASS_STRONG == pytest.approx(16.0 / (81.0 * math.pi**2))
        m = feynman_mass(150.0)
        assert m / 150.0**4 == pytest.approx(FEYNMAN_MASS_STRONG, rel=2e-2)


class TestFeynmanRules:
    @settings(max_examples=100, deadline=None)
    @given(v=st.floats(3.0, 25.0), frac=st.floats(0.0, 1.0))
    def test_fixed_gauss_matches_adaptive_quad(self, v, frac):
        w = 0.5 + frac * (v - 0.5)
        for f in (_energy_integrand, _mass_integrand):
            assert _fixed_gauss(f, v, w) == pytest.approx(_split_quad(f, v, w), rel=1e-12)

    def test_energy_is_the_adaptive_value_at_the_optimum(self):
        for a in (0.3, 7.0):
            E, prm = feynman_energy(a)
            assert E == _trial_energy(a, prm.v, prm.w)

    def test_search_calls_no_quad(self, monkeypatch):
        calls = []
        quad = models.integrate.quad

        def counting_quad(*args, **kw):
            calls.append(args[1:3])
            return quad(*args, **kw)

        monkeypatch.setattr(models.integrate, "quad", counting_quad)
        feynman_energy(2.0)
        assert len(calls) == 2
        feynman_mass(2.0)
        assert len(calls) == 2 + 4

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.1, 20.0), v=st.floats(3.0, 25.0), frac=st.floats(0.0, 1.0))
    def test_closed_form_derivatives_match_differences(self, alpha, v, frac):
        # gradient and Hessian in (v, d = v - w) against central differences
        w = 0.5 + frac * (v - 0.5)
        d = v - w

        def f(v, d):
            return _trial_energy(alpha, v, v - d, rule=_fixed_gauss)

        E, grad, hess = _energy_derivs(alpha, v, w)
        f0 = f(v, d)
        scale = max(1.0, abs(E))
        assert E == pytest.approx(f0, rel=1e-14, abs=1e-14)
        h = 1e-4
        num_grad = ((f(v + h, d) - f(v - h, d)) / (2 * h), (f(v, d + h) - f(v, d - h)) / (2 * h))
        assert grad == pytest.approx(num_grad, abs=1e-7 * scale)
        h = 1e-3
        num_hess = ((f(v + h, d) - 2 * f0 + f(v - h, d)) / h**2,
                    (f(v + h, d + h) - f(v + h, d - h) - f(v - h, d + h) + f(v - h, d - h))
                    / (4 * h * h),
                    (f(v, d + h) - 2 * f0 + f(v, d - h)) / h**2)
        assert hess == pytest.approx(num_hess, abs=1e-5 * scale)

    def test_newton_needs_no_fallback(self, monkeypatch):
        calls = []
        minimize = models.optimize.minimize

        def counting_minimize(*args, **kw):
            calls.append(args[1])
            return minimize(*args, **kw)

        monkeypatch.setattr(models.optimize, "minimize", counting_minimize)
        for a in np.geomspace(1e-6, 1000.0, 61):
            E, prm = feynman_energy(a)
            assert math.isfinite(E) and prm.v >= prm.w > 0
        assert calls == []

    @pytest.mark.parametrize("alpha", [39.5, 56.2, 80.0, 200.0])
    def test_newton_optimum_is_a_certified_minimum(self, alpha):
        prm = models._newton_optimum(alpha)
        _, _, (hvv, hvd, hdd) = _energy_derivs(alpha, prm.v, prm.w)
        assert hvv > 0 and hvv * hdd > hvd * hvd
        E = feynman_energy(alpha)[0]
        fallback = models._nelder_mead(alpha)
        # Nelder-Mead samples the low tail of E's evaluation noise, a few
        # ulps wide; beyond that it may not undercut the minimum
        assert E <= _trial_energy(alpha, fallback.v, fallback.w) + 1e-14 * abs(E)

    # an absolute fatol = 1e-14, below the ulp of |E| here, left a start at
    # maxfev = 4000 at 20, 39.5 and 80
    @pytest.mark.parametrize("alpha", [20.0, 39.5, 40.0, 80.0])
    def test_fallback_stops_by_tolerance(self, monkeypatch, alpha):
        results = []
        minimize = models.optimize.minimize

        def recording_minimize(*args, **kw):
            results.append(minimize(*args, **kw))
            return results[-1]

        monkeypatch.setattr(models, "_newton_optimum", lambda alpha: None)
        monkeypatch.setattr(models.optimize, "minimize", recording_minimize)
        E, _ = feynman_energy(alpha)
        assert [r.status for r in results] == [0, 0, 0]
        monkeypatch.undo()
        assert E == pytest.approx(feynman_energy(alpha)[0], rel=1e-14)

    @pytest.mark.parametrize("alpha, energy, mass", [
        (0.01, -0.010001235202731659, 1.001669139372564),
        (1.0, -1.0130308353603328, 1.1955146999080342),
        (5.0, -5.440144499420968, 3.885619999511263),
        (12.0, -18.14339468551812, 281.6219007330714),
    ])
    def test_frozen_values(self, alpha, energy, mass):
        # frozen from a search priced by adaptive quad; the mass follows the
        # optimum (v, w), which Nelder-Mead fixes to ~1e-7 relative, while
        # the energy is stationary there
        assert feynman_energy(alpha)[0] == pytest.approx(energy, rel=1e-12)
        assert feynman_mass(alpha) == pytest.approx(mass, rel=1e-6)
