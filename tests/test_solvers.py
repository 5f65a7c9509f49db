import math
from fractions import Fraction

import numpy as np
import pytest

from varinterp.errors import FloatOverflow, NoCandidate, VarInterpError
from varinterp.models import AHO_B0, aho_omega1, builtin
from varinterp.reexpand import build_trial
from varinterp.series import ScalingLaw, StrongSeries, WeakSeries
from varinterp.solvers import (
    InferenceProblem,
    extend_model,
    find_omega,
    infer_coefficients,
    interpolant,
)
from varinterp.strong_limit import b_of_c

F = Fraction


def aho_trial(a1=F(3, 4)):
    return build_trial(WeakSeries([F(1, 2), a1]), ScalingLaw(1, 3))


class TestFindOmega:
    def test_zero_coupling_returns_baseline(self):
        t = aho_trial()
        r = find_omega(t, 0.0)
        assert r.Omega == 1.0
        assert r.kind == "extremum"

    def test_matches_cubic_root(self):
        t = aho_trial()
        for g in np.geomspace(1e-3, 1e3, 25):
            r = find_omega(t, g / 4.0)
            assert r.kind == "extremum"
            assert r.Omega == pytest.approx(aho_omega1(g, 0.75), rel=1e-12)

    def test_small_coupling_extrema_resolved(self):
        # the extremum pair hugs the baseline frequency at small coupling;
        # this must not degrade into a turning-point fallback
        ext, sol = extend_model(builtin("polaron_mass"))
        t = build_trial(ext.weak, ext.law)
        for alpha in (0.01, 0.05, 0.2):
            r = find_omega(t, alpha, c_hint=sol.c, curvature=-1)
            assert r.kind == "extremum"
            assert r.Omega > 1.0

    def test_mass_frequency_tracks_strong_growth(self):
        ext, sol = extend_model(builtin("polaron_mass"))
        t = build_trial(ext.weak, ext.law)
        r = find_omega(t, 1e4, c_hint=sol.c, curvature=-1)
        assert r.Omega == pytest.approx(sol.c * 1e4, rel=1e-4)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            find_omega(aho_trial(), -1.0)

    def test_no_candidate_without_any_structure(self):
        # a pure power has neither extremum nor turning point
        t = build_trial(WeakSeries([1]), ScalingLaw(2, 1))
        with pytest.raises(NoCandidate):
            find_omega(t, 1.0)

    def test_continuity_on_fine_grid(self):
        """The selected frequency moves smoothly along a geometric grid."""
        ext, sol = extend_model(builtin("polaron_energy"))
        pts = interpolant(ext, np.geomspace(0.05, 50.0, 120))
        omegas = [p.Omega for p in pts]
        for a, b in zip(omegas, omegas[1:]):
            assert 0.7 < b / a < 1.5


class TestInference:
    def test_problem_validation(self):
        with pytest.raises(ValueError):
            InferenceProblem(known_a=(F(1),), unknown_count=0, known_b=(),
                             law=ScalingLaw(1, 1))
        with pytest.raises(ValueError):
            InferenceProblem(known_a=(F(1),), unknown_count=2, known_b=(1.0,),
                             law=ScalingLaw(1, 1))
        with pytest.raises(ValueError):
            InferenceProblem(known_a=(F(1),), unknown_count=1,
                             known_b=(math.nan,), law=ScalingLaw(1, 1))

    def test_oscillator_inversion_closed_form(self):
        """Leading strong coefficient determines a1 as (4 b0 / 3)^3."""
        sol = infer_coefficients(InferenceProblem(
            known_a=(F(1, 2),), unknown_count=1, known_b=(AHO_B0,),
            law=ScalingLaw(1, 3)))
        assert sol.extension[0] == pytest.approx((4.0 * AHO_B0 / 3.0) ** 3, rel=1e-12)
        assert sol.c == pytest.approx(2.0 * sol.extension[0] ** (1 / 3), rel=1e-12)

    def test_roundtrip_recovers_known_coefficient(self):
        # hide the top mass coefficient and ask for it back
        ext, _ = extend_model(builtin("polaron_mass"))
        b0 = b_of_c(ext.weak, ext.law, 0, 0.8167537729292272)
        sol = infer_coefficients(InferenceProblem(
            known_a=ext.weak.coeffs[:3], unknown_count=1, known_b=(b0,),
            law=ext.law))
        assert sol.extension[0] == pytest.approx(float(ext.weak.coeffs[3]), rel=1e-10)

    def test_two_unknown_system(self):
        ext, sol = extend_model(builtin("polaron_energy"))
        assert len(sol.extension) == 2
        # both targets reproduced through the solved coefficients
        for n, target in enumerate((0.108513, 2.836)):
            assert b_of_c(ext.weak, ext.law, n, sol.c) == pytest.approx(
                target, rel=1e-12)
        assert max(abs(r) for r in sol.residuals) < 1e-12

    def test_smallest_positive_growth_constant(self):
        _, sol = extend_model(builtin("polaron_energy"))
        assert 0 < sol.c < 0.1


class TestInterpolant:
    def test_oscillator_weak_limit(self):
        pts = interpolant(builtin("aho"), [0.0])
        assert pts[0].value == pytest.approx(0.5)
        assert pts[0].Omega == pytest.approx(1.0)

    def test_energy_prefactor_sign(self):
        ext, _ = extend_model(builtin("polaron_energy"))
        pts = interpolant(ext, [1.0, 5.0])
        assert pts[0].value < 0 and pts[1].value < pts[0].value

    def test_mass_approaches_strong_asymptote(self):
        ext, _ = extend_model(builtin("polaron_mass"))
        pt = interpolant(ext, [200.0])[0]
        assert pt.value / 200.0**4 == pytest.approx(0.0227019, rel=1e-3)

    def test_energy_frequency_fit_formula(self):
        """Optimal frequency roughly follows c alpha + 1/(1 + 0.07 alpha)."""
        ext, sol = extend_model(builtin("polaron_energy"))
        pts = interpolant(ext, np.geomspace(0.1, 30.0, 25))
        for p in pts:
            fit = sol.c * p.alpha + 1.0 / (1.0 + 0.07 * p.alpha)
            assert p.Omega == pytest.approx(fit, rel=0.05)

    def test_energy_between_weak_and_strong_at_small_coupling(self):
        ext, _ = extend_model(builtin("polaron_energy"))
        base = builtin("polaron_energy")
        strong = StrongSeries(base.law, base.known_strong)
        for alpha in (0.5, 1.0, 2.0):
            w = interpolant(ext, [alpha])[0].value
            e_weak = -alpha * base.weak.eval(alpha)
            e_strong = -alpha * strong.eval(alpha)
            assert min(e_weak, e_strong) < w < max(e_weak, e_strong)

    def test_energy_reaches_strong_asymptote(self):
        # at intermediate coupling the approximant dips slightly below both
        # truncated series before locking onto the strong asymptote
        ext, _ = extend_model(builtin("polaron_energy"))
        base = builtin("polaron_energy")
        strong = StrongSeries(base.law, base.known_strong)
        alpha = 100.0
        w = interpolant(ext, [alpha])[0].value
        assert w == pytest.approx(-alpha * strong.eval(alpha), rel=1e-4)

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError):
            interpolant(builtin("aho"), [-0.5])

    def test_energy_weak_tail_fails_only_typed(self):
        # the stationary point hugs Omega = 1 here; a failure must be typed
        ext, _ = extend_model(builtin("polaron_energy"))
        for g in np.geomspace(1e-9, 1e-2, 71):
            try:
                pt = interpolant(ext, [g])[0]
            except VarInterpError:
                continue
            assert pt.Omega > 0 and math.isfinite(pt.value)

    def test_overflowing_value_raises(self):
        # Omega certifies here, but one monomial of W_N overflows to inf
        ext, _ = extend_model(builtin("polaron_mass"))
        with pytest.raises(FloatOverflow):
            interpolant(ext, [10**77.5])
